"""Analysis report: the JSON document, its text table, and reading it back.

A report is the dict ``{"metadata", "clusters", "noise", "metrics"}``
that is written as JSON. All floating-point values are rounded to 6
significant digits when the report is built, so emitted files are
byte-reproducible.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

from .errors import AnalysisError
from .evaluation import Metrics

TABLE_COLUMNS = ("protocol", "messages", "fields", "epsilon", "P", "R", "F")
_METRIC_KEYS = {f.name for f in fields(Metrics)}


def sig6(x: float) -> float:
    """Round to 6 significant digits; keeps report floats byte-stable."""
    return float(f"{x:.6g}")


def to_json(doc: dict) -> str:
    """A report or a metrics block as written: indented JSON and a final newline."""
    return json.dumps(doc, indent=2) + "\n"


def _check_report(doc: object) -> dict:
    """``doc`` itself; ValueError if it does not have a report's shape."""
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("metadata"), dict)
        and isinstance(doc.get("noise"), list)
        and all(isinstance(v, str) for v in doc["noise"])
        and isinstance(doc.get("clusters"), list)
        and all(
            isinstance(c, dict)
            and isinstance(c.get("values"), list)
            and all(isinstance(v, str) for v in c["values"])
            and isinstance(c.get("counts"), list)
            and all(isinstance(n, int) and not isinstance(n, bool) for n in c["counts"])
            for c in doc["clusters"]
        )
    ):
        raise ValueError(
            "expected an object with metadata, clusters of hex values with integer "
            "counts, and noise"
        )
    metrics = doc.get("metrics")
    if metrics is not None and not (isinstance(metrics, dict) and set(metrics) == _METRIC_KEYS):
        raise ValueError(f"metrics must be null or an object with keys {sorted(_METRIC_KEYS)}")
    return doc


def read_report(path: str | Path) -> dict:
    """Load a JSON report written by ``analyze``; anything else is an AnalysisError."""
    try:
        return _check_report(json.loads(Path(path).read_text(encoding="utf-8")))
    except (ValueError, RecursionError) as err:  # not UTF-8 or JSON, nested too deep, not a report
        raise AnalysisError(f"{path}: not an analysis report ({err})") from None


def render_table(report: dict) -> str:
    """Aligned text table with the summary columns of one analysis run."""
    meta, metrics = report["metadata"], report.get("metrics")
    if metrics is not None:
        p, r, f = (f"{metrics[key]:.2f}" for key in ("precision", "recall", "f_score"))
    else:
        p = r = f = "-"
    row = (  # a file name's undecodable bytes are lone surrogates, which UTF-8 cannot encode
        str(meta.get("protocol", "?")).encode(errors="surrogateescape").decode(errors="replace"),
        str(meta.get("messages", "?")),
        str(meta.get("unique_values", "?")),
        f"{meta['epsilon']:.6g}",
        p,
        r,
        f,
    )
    widths = [max(len(h), len(v)) for h, v in zip(TABLE_COLUMNS, row)]
    header = "  ".join(h.ljust(w) for h, w in zip(TABLE_COLUMNS, widths))
    line = "  ".join(v.ljust(w) for v, w in zip(row, widths))
    return header + "\n" + line + "\n"


def emit_report(
    report: dict,
    json_path: str | Path | None = None,
    table_path: str | Path | None = None,
) -> None:
    """Write the JSON report and/or the text table."""
    if json_path is not None:
        with writing("report JSON", json_path):
            Path(json_path).write_text(to_json(report), encoding="utf-8")
    if table_path is not None:
        with writing("report table", table_path):
            Path(table_path).write_text(render_table(report), encoding="utf-8")


@contextmanager
def writing(what: str, path: str | Path):
    """Re-raise an OSError of the block as ``cannot write <what> to <path>: ...``."""
    try:
        yield
    except OSError as err:
        raise OSError(f"cannot write {what} to {path}: {err}") from err

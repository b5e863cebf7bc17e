"""Analysis report: JSON schema, text table, and lossless round-trip.

All floating-point values are rounded to 6 significant digits when the
report is built, so emitted files are byte-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import AnalysisError
from .evaluation import Metrics

TABLE_COLUMNS = ("protocol", "messages", "fields", "epsilon", "P", "R", "F")
_METRIC_KEYS = {f.name for f in fields(Metrics)}


def sig6(x: float) -> float:
    """Round to 6 significant digits; keeps report floats byte-stable."""
    return float(f"{x:.6g}")


@dataclass
class AnalysisReport:
    metadata: dict
    clusters: list[dict]
    noise: list[str]
    metrics: Metrics | None

    def to_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "clusters": self.clusters,
            "noise": self.noise,
            "metrics": asdict(self.metrics) if self.metrics is not None else None,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AnalysisReport":
        """Rebuild a report; ValueError if ``doc`` does not have a report's shape."""
        if not (
            isinstance(doc, dict)
            and isinstance(doc.get("metadata"), dict)
            and isinstance(doc.get("noise"), list)
            and isinstance(doc.get("clusters"), list)
            and all(
                isinstance(c, dict)
                and isinstance(c.get("values"), list)
                and all(isinstance(v, str) for v in c["values"])
                for c in doc["clusters"]
            )
        ):
            raise ValueError("expected an object with metadata, clusters of hex values, and noise")
        metrics = doc.get("metrics")
        if metrics is not None and not (isinstance(metrics, dict) and set(metrics) == _METRIC_KEYS):
            raise ValueError(f"metrics must be null or an object with keys {sorted(_METRIC_KEYS)}")
        return cls(
            metadata=doc["metadata"],
            clusters=doc["clusters"],
            noise=doc["noise"],
            metrics=Metrics(**metrics) if metrics is not None else None,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        return cls.from_dict(json.loads(text))


def read_report(path: str | Path) -> AnalysisReport:
    """Load a JSON report written by ``analyze``; anything else is an AnalysisError."""
    try:
        return AnalysisReport.from_json(Path(path).read_text(encoding="utf-8"))
    except ValueError as err:  # not UTF-8, not JSON, or not shaped like a report
        raise AnalysisError(f"{path}: not an analysis report ({err})") from None


def render_table(report: AnalysisReport) -> str:
    """Aligned text table with the summary columns of one analysis run."""
    meta = report.metadata
    if report.metrics is not None:
        p = f"{report.metrics.precision:.2f}"
        r = f"{report.metrics.recall:.2f}"
        f = f"{report.metrics.f_score:.2f}"
    else:
        p = r = f = "-"
    row = (
        str(meta.get("protocol", "?")),
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
    report: AnalysisReport,
    json_path: str | Path | None = None,
    table_path: str | Path | None = None,
) -> None:
    """Write the JSON report and/or the text table."""
    if json_path is not None:
        try:
            Path(json_path).write_text(report.to_json(), encoding="utf-8")
        except OSError as err:
            raise OSError(f"cannot write report JSON to {json_path}: {err}") from err
    if table_path is not None:
        try:
            Path(table_path).write_text(render_table(report), encoding="utf-8")
        except OSError as err:
            raise OSError(f"cannot write report table to {table_path}: {err}") from err

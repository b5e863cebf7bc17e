"""End-to-end analysis pipeline: preprocess, segment, measure, configure,
cluster, refine, and report. Stages are sequential and fully deterministic
for a fixed input and configuration."""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autoconf as ac
from . import clustering as cl
from . import dissimilarity as dm
from . import evaluation as ev
from . import refinement as rf
from . import segmentation as sg
from . import traceio as tio
from .errors import AnalysisError, EmptyAnalysisError, OutOfMemoryError, PipelineStageError
from .report import sig6

logger = logging.getLogger(__name__)


@dataclass
class PipelineConfig:
    input: str
    format: str = "hex"  # "pcap" | "hex"
    filter: str = "raw"
    limit: int | None = None
    segments_path: str | None = None  # imported segmentation; None cuts heuristically
    refine: bool = True
    threads: int = 1

    def __post_init__(self) -> None:
        if self.format not in ("pcap", "hex"):
            raise ValueError(f"--format must be pcap or hex, got {self.format!r}")
        try:
            flt = tio.ProtocolFilter.parse(self.filter)
        except ValueError as err:
            raise ValueError(f"--filter: {err}") from None
        if self.format == "hex" and flt.transport != "raw":
            raise ValueError(f"--filter {self.filter} applies to pcap input; hex input is raw")
        if self.limit is not None and self.limit < 1:
            raise ValueError(f"--limit must be at least 1 message, got {self.limit}")
        if self.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {self.threads}")


@dataclass
class PipelineResult:
    """Report plus the intermediate artifacts, for library callers."""

    report: dict  # the JSON document, as ``report.to_json`` writes it
    segmentation: sg.Segmentation  # the analyzable segments, which ``values`` index
    values: dm.Values
    matrix: dm.DissimilarityMatrix
    autoconfig: ac.AutoConfig
    clustering: cl.Clustering


@contextmanager
def _stage(name: str):
    """Time a stage, count its page faults, and name it in the errors it raises
    about its input or resources.

    A failed allocation becomes an ``OutOfMemoryError``. Any other exception
    is a defect and passes through as it is.
    """
    start, faults = time.perf_counter(), _minor_faults()
    try:
        yield
    except (AnalysisError, OSError) as exc:
        raise PipelineStageError(name, exc) from exc
    except MemoryError as exc:
        raise PipelineStageError(name, OutOfMemoryError(exc)) from exc
    elapsed = time.perf_counter() - start
    if faults is None:
        logger.info("stage %s done in %.3f s", name, elapsed)
    else:
        logger.info("stage %s done in %.3f s, %d page faults", name, elapsed,
                    _minor_faults() - faults)


def _minor_faults() -> int | None:
    """The process's minor page faults so far, or None without the ``resource`` module."""
    try:
        import resource  # here, so importing the CLI does not load it
    except ImportError:  # not on Windows
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def prepare_messages(config: PipelineConfig) -> tuple[tio.RawTrace, list[bytes]]:
    """Load and de-duplicate the whole capture; ``build_segmentation`` applies the limit."""
    if config.format == "pcap":
        trace = tio.load_pcap(config.input, tio.ProtocolFilter.parse(config.filter))
    else:
        trace = tio.load_hexlines(config.input)
    return trace, tio.deduplicate(trace)


def build_segmentation(config: PipelineConfig, messages: list[bytes]) -> sg.Segmentation:
    """Import ``segments_path`` for the first ``limit`` messages, or cut those heuristically."""
    if config.segments_path is None:
        return sg.segment_heuristic(messages[: config.limit])
    # the file may describe the whole capture, so it is resolved against all of it
    return sg.import_segmentation(messages, config.segments_path, config.limit)


def _load_values(
    config: PipelineConfig, truth_path: str | None = None
) -> tuple[dict, sg.Segmentation, dm.Values]:
    """The load, segment and values stages that every command shares.

    Returns the run's input counts, in report metadata order, with the
    analyzable segments and their unique values. With ``truth_path`` the
    analyzable segments carry ground-truth types: the imported ones when
    the analysis imported that file, else labels by byte overlap with it.
    """
    with _stage("load"):
        trace, messages = prepare_messages(config)
    with _stage("segment"):
        segmentation = build_segmentation(config, messages)
        analyzable = sg.filter_analyzable(segmentation)
        # one file spelled two ways (./t.json, t.json) is still the imported file
        imported = config.segments_path and Path(config.segments_path).resolve()
        if truth_path is not None and imported != Path(truth_path).resolve():
            truth = sg.import_segmentation(messages, truth_path, config.limit)
            analyzable = ev.label_segments_by_overlap(analyzable, truth)
    with _stage("values"):
        values = dm.unique_values(analyzable) if len(analyzable) else []
        if len(values) < ac.MIN_ANALYSIS_VALUES:
            raise EmptyAnalysisError(
                f"need at least {ac.MIN_ANALYSIS_VALUES} unique multi-byte segment "
                f"values, got {len(values)}"
            )
    inputs = {
        "records": len(trace.records),
        "skipped_fragments": trace.skipped_fragments,
        "messages": len(messages[: config.limit]),
        "segmenter": segmentation.segmenter_name,
        "segments": len(segmentation),
        "excluded_one_byte_segments": len(segmentation) - len(analyzable),
        "unique_values": len(values),
        "total_bytes": len(segmentation.data),
    }
    return inputs, analyzable, values


def run(config: PipelineConfig) -> PipelineResult:
    """Execute the full pipeline and assemble the analysis report; writes no file."""
    inputs, analyzable, values = _load_values(config)
    with _stage("matrix"):
        matrix = dm.build_matrix(values, threads=config.threads)
    with _stage("autoconf"):
        nearest = ac.nearest_table(matrix)
        auto = ac.select_epsilon(nearest)
    with _stage("cluster"):
        result = cl.dbscan(matrix, auto.epsilon, auto.min_samples, nearest)
        for _ in range(ac.MAX_RETRIMS):
            updated = ac.retrim_epsilon(matrix, nearest, auto, result)
            if updated is auto:
                break
            auto = updated
            if updated.retrim_failed:
                break
            result = cl.dbscan(matrix, auto.epsilon, auto.min_samples, nearest)
    with _stage("refine"):
        if config.refine:
            result = rf.merge_pass(matrix, result)
            result = rf.split_pass(matrix, result)
        for cluster in result.clusters:  # the report needs every cluster's stats
            cl.ensure_stats(matrix, cluster)
    with _stage("evaluate"):
        metrics = (ev.evaluate_clustering(analyzable, values, result)
                   if None not in analyzable.truth.tolist() else None)
    with _stage("report"):
        report = build_report(config, inputs, values, auto, result, metrics)
    return PipelineResult(report, analyzable, values, matrix, auto, result)


def run_ecdf(
    config: PipelineConfig,
) -> tuple[int, list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]]:
    """The number of values and per k its ECDF arrays (k, x, y_raw, y_smoothed); writes no file."""
    *_, values = _load_values(config)
    with _stage("matrix"):
        matrix = dm.build_matrix(values, threads=config.threads)
    with _stage("autoconf"):
        curves = ac.ecdf_rows(ac.nearest_table(matrix))
    return matrix.n, curves


def round_metrics(metrics: ev.Metrics | None) -> dict | None:
    """The metrics block of a report and of ``evaluate --out-json``, ratios at 6 digits."""
    if metrics is None:
        return None
    ratios = ("precision", "recall", "f_score", "coverage")
    return {key: sig6(value) if key in ratios else value for key, value in asdict(metrics).items()}


def build_report(
    config: PipelineConfig,
    inputs: dict,
    values: dm.Values,
    auto: ac.AutoConfig,
    result: cl.Clustering,
    metrics: ev.Metrics | None,
) -> dict:
    """The report document: metadata, clusters, noise and the rounded metrics."""
    metadata = {
        "protocol": Path(config.input).stem,
        "input": config.input,
        "format": config.format,
        "filter": config.filter,
        "limit": config.limit,
        "limit_applied": "after-dedup",
        **inputs,
        "epsilon": sig6(auto.epsilon),
        "knee": sig6(auto.epsilon),  # epsilon is the knee
        "chosen_k": auto.chosen_k,
        "min_samples": auto.min_samples,
        "retrimmed": auto.retrimmed,
        "retrim_count": auto.retrim_count,
        "retrim_failed": auto.retrim_failed,
        "fallback": auto.fallback,
        "kneedle_sensitivity": sig6(ac.KNEEDLE_SENSITIVITY),
        "spline_smoothing": sig6(ac.SPLINE_SMOOTHING),
        "epsilon_shift": 0.0,
        "refined": config.refine,
        "thresholds": {
            "eps_rho_threshold": sig6(rf.EPS_RHO_THRESHOLD),
            "neighbor_density_threshold": sig6(rf.NEIGHBOR_DENSITY_THRESHOLD),
            "split_percentile": sig6(rf.SPLIT_PERCENTILE),
        },
        "ln_rounding": "natural-log-round-half-away-from-zero",
        "occurrence_counting": "segments-in-deduplicated-trace",
    }
    clusters = [
        {
            "id": cid,
            "values": [values.content[m].hex() for m in cluster.members],
            "counts": values.counts[cluster.members].tolist(),
            "stats": {
                "mean_pairwise": sig6(cluster.stats.mean_pairwise),
                "minmed": sig6(cluster.stats.minmed),
                "d_max": sig6(cluster.stats.d_max),
            },
        }
        for cid, cluster in enumerate(result.clusters)
    ]
    noise = [values.content[m].hex() for m in result.noise]
    return {"metadata": metadata, "clusters": clusters, "noise": noise,
            "metrics": round_metrics(metrics)}


def evaluate_report(
    report: dict,
    config: PipelineConfig,
    truth_path: str,
) -> ev.Metrics:
    """Score a previously produced report against a ground-truth segmentation.

    The trace is reloaded and segmented the same way the report was made;
    segments are labeled from the ground truth (directly when the report's
    segmenter was the import of that truth, by byte overlap otherwise), and
    the report's clusters are mapped back onto unique values by hex content.
    The report must match the re-derived run: its eight input counts
    (``records`` to ``total_bytes``), each of the re-derived JSON type,
    its clusters plus noise listing every re-derived value exactly once,
    and each cluster's ``counts`` giving its values' occurrences. The
    first mismatch raises AnalysisError, checked in this order: input
    counts; then in listing order (clusters, then noise) each cluster's
    number of counts and, value by value, an unknown value, a repeat or a
    differing count; last, the re-derived values the report leaves out,
    in value order. ``stats`` and ``epsilon`` would need the matrix, so
    they are not checked.
    """
    inputs, analyzable, values = _load_values(config, truth_path)
    with _stage("evaluate"):
        for key, value in inputs.items():
            given = report["metadata"].get(key)
            # Python takes JSON false for 0 and 20.0 for 20; the types tell them apart
            if (type(given), given) != (type(value), value):
                raise AnalysisError(
                    f"report metadata {key} is {given!r}, the re-derived "
                    f"run gives {value!r}; wrong trace or segmenter?"
                )
        index = {content.hex(): v for v, content in enumerate(values.content)}
        counts_of = values.counts.tolist()
        label = np.full(len(values), -2)  # per value: its cluster id, -1 for noise, -2 unlisted
        groups = [(cid, c["values"], c["counts"]) for cid, c in enumerate(report["clusters"])]
        groups.append((-1, report["noise"], [None] * len(report["noise"])))
        for cid, hex_values, counts in groups:
            if len(counts) != len(hex_values):
                raise AnalysisError(f"report cluster {cid} has {len(counts)} "
                                    f"counts for {len(hex_values)} values")
            for hex_value, count in zip(hex_values, counts):
                v = index.get(hex_value)
                if v is None:
                    raise AnalysisError(f"report value {hex_value} does not occur in the "
                                        "re-derived segmentation; wrong trace or segmenter?")
                if label[v] != -2:
                    raise AnalysisError(f"report value {hex_value} is listed more than once")
                if cid >= 0 and count != counts_of[v]:
                    raise AnalysisError(f"report cluster {cid} counts {hex_value} {count} "
                                        f"times, the re-derived run {counts_of[v]} times")
                label[v] = cid
        if (label == -2).any():
            missing = values.content[np.argmax(label == -2)].hex()
            raise AnalysisError(f"re-derived value {missing} is not in the report")
        members = [np.flatnonzero(label == cid).tolist()
                   for cid in range(-1, len(report["clusters"]))]
        clustering = cl.Clustering([cl.Cluster(m) for m in members[1:]], members[0])
        return ev.evaluate_clustering(analyzable, values, clustering)

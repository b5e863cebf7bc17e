"""End-to-end analysis pipeline: preprocess, segment, measure, configure,
cluster, refine, and report. Stages are sequential and fully deterministic
for a fixed input and configuration."""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from . import autoconf as ac
from . import clustering as cl
from . import dissimilarity as dm
from . import evaluation as ev
from . import refinement as rf
from . import segmentation as sg
from . import traceio as tio
from .errors import AnalysisError, EmptyAnalysisError, PipelineStageError
from .report import AnalysisReport, emit_report, sig6


@dataclass
class PipelineConfig:
    input: str
    format: str = "hex"  # "pcap" | "hex"
    filter: str = "raw"
    limit: int | None = None
    segmenter: str = "heuristic"  # "heuristic" | "import"
    segments_path: str | None = None
    refine: bool = True
    kneedle_sensitivity: float = ac.DEFAULT_SENSITIVITY
    spline_smoothing: float = ac.DEFAULT_SMOOTHING
    epsilon_shift: float = 0.0
    dump_matrix: str | None = None
    dump_ecdf: str | None = None
    out_json: str | None = None
    out_table: str | None = None
    threads: int = 1

    def __post_init__(self) -> None:
        if self.limit is not None and self.limit < 1:
            raise ValueError(f"--limit must be at least 1 message, got {self.limit}")
        if self.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {self.threads}")
        for flag, value in (("--kneedle-s", self.kneedle_sensitivity),
                            ("--spline-s", self.spline_smoothing)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{flag} must be a finite number >= 0, got {value}")
        if not math.isfinite(self.epsilon_shift):
            raise ValueError(f"--epsilon-shift must be a finite number, got {self.epsilon_shift}")


@dataclass
class PipelineResult:
    """Report plus the intermediate artifacts, for library callers."""

    report: AnalysisReport
    messages: list[tio.Message]
    segmentation: sg.Segmentation
    values: list[dm.SegmentValue]
    matrix: dm.DissimilarityMatrix
    autoconfig: ac.AutoConfig
    clustering: cl.Clustering


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def prepare_messages(config: PipelineConfig) -> tuple[tio.RawTrace, list[tio.Message]]:
    """Load, de-duplicate, and truncate; the limit applies after dedup."""
    if config.format == "pcap":
        trace = tio.load_pcap(config.input, tio.ProtocolFilter.parse(config.filter))
    elif config.format == "hex":
        trace = tio.load_hexlines(config.input)
    else:
        raise ValueError(f"unknown input format {config.format!r}")
    messages = tio.deduplicate(trace)
    if config.limit is not None:
        messages = messages[: config.limit]
    return trace, messages


def build_segmentation(
    config: PipelineConfig, messages: list[tio.Message]
) -> sg.Segmentation:
    if config.segmenter == "heuristic":
        return sg.segment_heuristic(messages)
    if config.segmenter == "import":
        if not config.segments_path:
            raise ValueError("--segments is required with the import segmenter")
        return sg.import_segmentation(messages, config.segments_path)
    raise ValueError(f"unknown segmenter {config.segmenter!r}")


def _load_values(
    config: PipelineConfig, truth_path: str | None = None
) -> tuple[tio.RawTrace, list[tio.Message], sg.Segmentation, list[sg.Segment],
           list[dm.SegmentValue]]:
    """The load, segment and values stages that every command shares.

    With ``truth_path`` the analyzable segments carry ground-truth types:
    the truth itself when the analysis imported it, else labels by byte
    overlap with it.
    """
    with _stage("load"):
        trace, messages = prepare_messages(config)
    with _stage("segment"):
        truth = None if truth_path is None else sg.import_segmentation(messages, truth_path)
        if truth is not None and config.segmenter == "import" and (
            config.segments_path is None or str(config.segments_path) == str(truth_path)
        ):
            segmentation = truth
        else:
            segmentation = build_segmentation(config, messages)
        analyzable = sg.filter_analyzable(segmentation)
        if truth is not None and segmentation is not truth:
            analyzable = ev.label_segments_by_overlap(analyzable, truth)
    with _stage("values"):
        values = dm.unique_values(analyzable) if analyzable else []
        if len(values) < ac.MIN_ANALYSIS_VALUES:
            raise EmptyAnalysisError(
                f"need at least {ac.MIN_ANALYSIS_VALUES} unique multi-byte segment "
                f"values, got {len(values)}"
            )
    return trace, messages, segmentation, analyzable, values


def run(config: PipelineConfig) -> PipelineResult:
    """Execute the full pipeline and assemble the analysis report."""
    trace, messages, segmentation, analyzable, values = _load_values(config)
    with _stage("matrix"):
        matrix = dm.build_matrix(values, threads=config.threads)
        if config.dump_matrix:
            dm.write_matrix_csv(matrix, config.dump_matrix)
    with _stage("autoconf"):
        auto = ac.select_epsilon(
            matrix,
            sensitivity=config.kneedle_sensitivity,
            smoothing=config.spline_smoothing,
            epsilon_shift=config.epsilon_shift,
        )
        if config.dump_ecdf:
            write_ecdf_csv(matrix, config.spline_smoothing, config.dump_ecdf)
    with _stage("cluster"):
        result = cl.dbscan(matrix, auto.epsilon, auto.min_samples)
        for _ in range(ac.MAX_RETRIMS):
            updated = ac.retrim_epsilon(matrix, auto, result, config.epsilon_shift)
            if updated is auto:
                break
            auto = updated
            if not updated.retrimmed or updated.retrim_failed:
                break
            result = cl.dbscan(matrix, auto.epsilon, auto.min_samples)
    with _stage("refine"):
        if config.refine:
            result = rf.merge_pass(matrix, result)
            result = rf.split_pass(matrix, result)
        for cluster in result.clusters:  # the report needs every cluster's stats
            cl.ensure_stats(matrix, cluster)
    with _stage("evaluate"):
        metrics = None
        if all(s.truth_type is not None for s in analyzable):
            metrics = ev.evaluate_clustering(messages, values, result)
    with _stage("report"):
        excluded = len(segmentation.segments) - len(analyzable)
        report = build_report(
            config, trace, messages, segmentation, excluded, values, auto, result, metrics
        )
        emit_report(report, config.out_json, config.out_table)
    return PipelineResult(report, messages, segmentation, values, matrix, auto, result)


def run_ecdf(config: PipelineConfig, path: str) -> int:
    """Write the k-NN ECDF diagnostics of the trace's values; returns their number."""
    *_, values = _load_values(config)
    with _stage("matrix"):
        matrix = dm.build_matrix(values, threads=config.threads)
    with _stage("autoconf"):
        write_ecdf_csv(matrix, config.spline_smoothing, path)
    return matrix.n


def write_ecdf_csv(matrix: dm.DissimilarityMatrix, smoothing: float, path: str) -> None:
    rows = ac.ecdf_rows(matrix, smoothing)
    with open(path, "w", encoding="ascii") as handle:
        handle.write("k,x,y_raw,y_smoothed\n")
        for k, x, y_raw, y_smoothed in rows:
            handle.write(f"{k},{x:.6g},{y_raw:.6g},{y_smoothed:.6g}\n")


def round_metrics(metrics: ev.Metrics | None) -> ev.Metrics | None:
    if metrics is None:
        return None
    return ev.Metrics(
        tp=metrics.tp,
        fp=metrics.fp,
        fn=metrics.fn,
        tn_plus_fn=metrics.tn_plus_fn,
        tn=metrics.tn,
        precision=sig6(metrics.precision),
        recall=sig6(metrics.recall),
        f_score=sig6(metrics.f_score),
        beta=metrics.beta,
        coverage=sig6(metrics.coverage),
    )


def build_report(
    config: PipelineConfig,
    trace: tio.RawTrace,
    messages: list[tio.Message],
    segmentation: sg.Segmentation,
    excluded_one_byte: int,
    values: list[dm.SegmentValue],
    auto: ac.AutoConfig,
    result: cl.Clustering,
    metrics: ev.Metrics | None,
) -> AnalysisReport:
    metadata = {
        "protocol": Path(config.input).stem,
        "input": config.input,
        "format": config.format,
        "filter": config.filter,
        "limit": config.limit,
        "limit_applied": "after-dedup",
        "records": len(trace.records),
        "skipped_fragments": trace.skipped_fragments,
        "messages": len(messages),
        "segmenter": segmentation.segmenter_name,
        "segments": len(segmentation.segments),
        "excluded_one_byte_segments": excluded_one_byte,
        "unique_values": len(values),
        "total_bytes": sum(len(m.payload) for m in messages),
        "epsilon": sig6(auto.epsilon),
        "knee": sig6(auto.knee_x),
        "chosen_k": auto.chosen_k,
        "min_samples": auto.min_samples,
        "retrimmed": auto.retrimmed,
        "retrim_count": auto.retrim_count,
        "retrim_failed": auto.retrim_failed,
        "fallback": auto.fallback,
        "kneedle_sensitivity": sig6(auto.sensitivity),
        "spline_smoothing": sig6(auto.smoothing),
        "epsilon_shift": sig6(config.epsilon_shift),
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
            "id": cluster.id,
            "values": [values[m].bytes.hex() for m in cluster.members],
            "counts": [len(values[m].members) for m in cluster.members],
            "stats": {
                "mean_pairwise": sig6(cluster.stats.mean_pairwise),
                "minmed": sig6(cluster.stats.minmed),
                "d_max": sig6(cluster.stats.d_max),
            },
        }
        for cluster in result.clusters
    ]
    noise = [values[m].bytes.hex() for m in result.noise]
    return AnalysisReport(metadata, clusters, noise, round_metrics(metrics))


def evaluate_report(
    report: AnalysisReport,
    config: PipelineConfig,
    truth_path: str,
) -> ev.Metrics:
    """Score a previously produced report against a ground-truth segmentation.

    The trace is reloaded and segmented the same way the report was made;
    segments are labeled from the ground truth (directly when the report's
    segmenter was the import of that truth, by byte overlap otherwise), and
    the report's clusters are mapped back onto unique values by hex content.
    """
    _, messages, _, _, values = _load_values(config, truth_path)
    with _stage("evaluate"):
        index_by_hex = {value.bytes.hex(): i for i, value in enumerate(values)}
        member_sets = []
        assigned: set[int] = set()
        for cluster in report.clusters:
            members = []
            for hex_value in cluster["values"]:
                index = index_by_hex.get(hex_value)
                if index is None:
                    raise AnalysisError(
                        f"report value {hex_value} does not occur in the re-derived "
                        "segmentation; wrong trace or segmenter?"
                    )
                members.append(index)
            member_sets.append(sorted(members))
            assigned.update(members)
        noise = sorted(set(range(len(values))) - assigned)
        clusters = [cl.Cluster(i, m) for i, m in enumerate(member_sets)]
        clustering = cl.Clustering(clusters, noise)
        return ev.evaluate_clustering(messages, values, clustering)

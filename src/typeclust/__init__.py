"""typeclust: cluster binary protocol message segments into pseudo data types.

The pipeline loads a trace, de-duplicates payloads, tiles messages into
segments, measures pairwise Canberra dissimilarity over unique segment
values, auto-configures DBSCAN from k-NN ECDF knees, clusters, refines,
and scores the result against ground-truth field types when available.
"""

from .autoconf import (
    AutoConfig,
    EcdfCurve,
    SmoothCurve,
    ecdf,
    kneedle,
    knn_dissimilarities,
    retrim_epsilon,
    select_epsilon,
    smooth_spline,
)
from .clustering import Cluster, ClusterStats, Clustering, cluster_stats, dbscan
from .dissimilarity import (
    DissimilarityMatrix,
    SegmentValue,
    build_matrix,
    canberra_dissimilarity,
    canberra_equal,
    unique_values,
)
from .errors import (
    AnalysisError,
    EmptyAnalysisError,
    EmptyTraceError,
    EvaluationUnavailableError,
    HexParseError,
    InconsistentGroundTruthError,
    MissingMessageError,
    NoKneeError,
    PcapFormatError,
    PipelineStageError,
    UnsupportedLinkTypeError,
)
from .evaluation import (
    ContingencyTable,
    Metrics,
    contingency,
    coverage,
    evaluate_clustering,
    f_beta,
    false_negatives,
    positives_negatives,
    true_positives,
)
from .pipeline import PipelineConfig, PipelineResult, run
from .refinement import (
    LinkPair,
    condition1,
    condition2,
    eps_density,
    link_segments,
    merge_pass,
    split_pass,
)
from .report import AnalysisReport, emit_report, render_table
from .segmentation import (
    Segment,
    Segmentation,
    export_segmentation,
    filter_analyzable,
    import_segmentation,
    segment_heuristic,
)
from .traceio import (
    Message,
    ProtocolFilter,
    RawTrace,
    deduplicate,
    load_hexlines,
    load_pcap,
    write_hexlines,
)

__version__ = "0.1.0"

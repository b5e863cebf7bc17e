"""typeclust: cluster binary protocol message segments into pseudo data types.

The pipeline loads a trace, de-duplicates payloads, tiles messages into
segments, measures pairwise Canberra dissimilarity over unique segment
values, auto-configures DBSCAN from k-NN ECDF knees, clusters, refines,
and scores the result against ground-truth field types when available.
"""

import os
import sys

# The one BLAS call, a least-squares fit on an m x 4 design in smooth_spline,
# gains nothing from threads, and starting an OpenBLAS pool cost each process
# 65-75 ms of CPU on a 2-vCPU host. The setting must precede numpy's first
# import; a caller that set the variable, or imported numpy first, keeps its pool.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .autoconf import (
    AutoConfig,
    Curve,
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
    Values,
    build_matrix,
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
    OutOfMemoryError,
    PcapFormatError,
    PipelineStageError,
    UnsupportedLinkTypeError,
)
from .evaluation import Metrics, coverage, evaluate_clustering, f_beta, pair_counts
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
from .report import emit_report, render_table
from .segmentation import (
    Segmentation,
    filter_analyzable,
    import_segmentation,
    segment_heuristic,
)
from .traceio import (
    ProtocolFilter,
    RawTrace,
    deduplicate,
    load_hexlines,
    load_pcap,
    write_hexlines,
)

__version__ = "0.1.0"

"""typeclust: cluster binary protocol message segments into pseudo data types.

The pipeline loads a trace, de-duplicates payloads, tiles messages into
segments, measures pairwise Canberra dissimilarity over unique segment
values, auto-configures DBSCAN from k-NN ECDF knees, clusters, refines,
and scores the result against ground-truth field types when available.
"""

__version__ = "0.1.0"

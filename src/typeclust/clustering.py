"""DBSCAN over the precomputed dissimilarity matrix.

Point i is a core point iff at least min_samples matrix entries of row i
(the point itself included) are <= epsilon, that is iff its
(min_samples - 1)-th nearest dissimilarity, the OPTICS core distance
(Ankerst et al., SIGMOD 1999), is <= epsilon. Clusters are the connected
components of the graph of core points joined by closed epsilon-balls
(Schubert et al., DBSCAN Revisited, Revisited, TODS 2017), with non-core
points attached to the lowest-index core that reaches them; everything
else is noise. A cluster's id is its position in ``Clustering.clusters``,
which is ordered by lowest member, so ids are stable for a fixed input order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dissimilarity
from .dissimilarity import DissimilarityMatrix, _median


@dataclass
class ClusterStats:
    mean_pairwise: float
    minmed: float
    d_max: float


@dataclass(eq=False)  # a cluster is itself: it compares and hashes by identity
class Cluster:
    members: list[int]  # value indices, ascending
    stats: ClusterStats | None = None  # None until ensure_stats measures it


@dataclass
class Clustering:
    clusters: list[Cluster]  # ordered by lowest member
    noise: list[int]


def cluster_stats(matrix: DissimilarityMatrix, cluster: Cluster) -> ClusterStats:
    """Pairwise mean, nearest-neighbor median (minmed) and extent of a cluster.

    The matrix reads the cluster's pairs in pieces, with no m x m block, and
    the mean keeps the bits of ``pairs.mean()`` of the gathered pairs.
    """
    members = cluster.members
    if len(members) < 2:
        return ClusterStats(0.0, 0.0, 0.0)
    mean_pairwise, nearest, d_max = matrix.pair_stats(members)
    return ClusterStats(mean_pairwise, _median(nearest), d_max)


def ensure_stats(matrix: DissimilarityMatrix, cluster: Cluster) -> ClusterStats:
    """The cluster's stats, measured on first use and kept on the cluster."""
    if cluster.stats is None:
        cluster.stats = cluster_stats(matrix, cluster)
    return cluster.stats


def _component_roots(parent: np.ndarray, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Fold the edges heads-tails into ``parent``, where every node points at the
    lowest node of its component, and return the folded parent array.

    Every round maps each edge to the roots of its ends and drops the edges
    whose ends share a root, as they never join two trees again; then it
    hooks the larger root of each other edge onto the smaller one and moves
    every node to its grandparent until each points at its root. A parent
    is never above its child, so every root is the minimum of its tree, and
    the result takes the next batch of edges as ``parent`` took this one.
    """
    low, high = parent[heads], parent[tails]
    while True:
        joins = low != high
        low = low[joins]
        high = high[joins]
        del joins
        if not low.size:
            return parent
        high, low = np.maximum(low, high), np.minimum(low, high, out=low)
        np.minimum.at(parent, high, low)
        while not np.array_equal(grand := parent[parent], parent):
            parent = grand
        low = parent[low]
        high = parent[high]


def _core_points(nearest: np.ndarray, epsilon: float, min_samples: int) -> np.ndarray:
    """Per value, whether at least min_samples - 1 other values lie within epsilon of it.

    The zero diagonal counts the value itself toward min_samples; the other
    values are read from rank min_samples - 1 of the k-NN table ``nearest``.
    """
    if min_samples == 1:
        return np.ones(len(nearest), dtype=bool)
    return nearest[:, min_samples - 2] <= epsilon


def dbscan(matrix: DissimilarityMatrix, epsilon: float, min_samples: int,
           nearest: np.ndarray) -> Clustering:
    """Cluster the matrix values with DBSCAN, holding no list of the pairs within epsilon.

    The core points come from the k-NN table ``nearest`` (``_core_points``),
    and ``matrix.within`` yields the pairs within epsilon chunk by chunk. The
    core-core edges are folded into the components about ``_CHUNK_CELLS`` at
    a time, and each chunk's border minima into ``reach``, so every array
    held is of size n or chunk-sized.
    """
    n = matrix.n
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 1 <= min_samples <= nearest.shape[1] + 1:  # a table holds at most n - 1 ranks
        raise ValueError(f"min_samples must be in [1, {nearest.shape[1] + 1}] for a k-NN "
                         f"table of {nearest.shape[1]} ranks, got {min_samples}")

    core = _core_points(nearest, epsilon, min_samples)
    outside = ~core
    parent = np.arange(n, dtype=np.int32)
    reach = np.full(n, n, dtype=np.int32)  # per border point, its lowest core within epsilon
    # the components and the border minima are set operations, so neither the
    # order of the pairs nor that of the chunks, which within() leaves unset,
    # reaches the result; folding the edges in batches, not chunk by chunk,
    # saves the rounds' passes over parent
    low, high, held = [], [], 0  # the core-core edges not yet folded
    for heads, tails in matrix.within(epsilon):
        for border, other in ((heads, tails), (tails, heads)):
            to_core = core[other]
            to_core &= outside[border]
            np.minimum.at(reach, border[to_core], other[to_core])
        both = core[heads]
        both &= core[tails]
        if held and held + np.count_nonzero(both) > dissimilarity._CHUNK_CELLS:
            edges = np.concatenate(low), np.concatenate(high)
            low, high, held = [], [], 0  # dropped before the fold adds its own copies
            parent = _component_roots(parent, *edges)
            del edges
        low.append(heads[both])
        high.append(tails[both])
        held += low[-1].size
    if held:
        parent = _component_roots(parent, np.concatenate(low), np.concatenate(high))
    labels = np.full(n, -1, dtype=np.int32)
    ids, labels[core] = np.unique(parent[core], return_inverse=True)
    # a border point joins the cluster of the lowest-index core within epsilon
    reached = reach < n
    labels[reached] = labels[reach[reached]]

    order = np.argsort(labels, kind="stable")  # noise (-1) first, ascending within a label
    noise, *member_sets = np.split(order, np.searchsorted(labels[order], np.arange(ids.size)))
    # a border point may sit below its cluster's lowest core, so order again;
    # stats are left to ensure_stats: a re-trim may discard this clustering
    clusters = sorted((Cluster(m.tolist()) for m in member_sets), key=lambda c: c.members[0])
    return Clustering(clusters, noise.tolist())

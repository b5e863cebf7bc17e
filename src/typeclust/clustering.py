"""DBSCAN over the precomputed dissimilarity matrix.

Point i is a core point iff at least min_samples matrix entries of row i
(the point itself included) are <= epsilon. Clusters are the connected
components of the graph of core points joined by closed epsilon-balls
(Schubert et al., DBSCAN Revisited, Revisited, TODS 2017), with non-core
points attached to the lowest-index core that reaches them; everything
else is noise. A cluster's id is its position in ``Clustering.clusters``,
which is ordered by lowest member, so ids are stable for a fixed input order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _component_roots(heads: np.ndarray, tails: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Per node, the lowest node of its component in the graph of the edges heads < tails
    whose ends are both ``core``.

    Every round hooks the larger root of each edge that joins two trees onto
    the smaller one, then moves every node to its grandparent until each
    points at its root. A parent is never above its child, so every root
    is the minimum of its tree. Every node starts as its own root, so the
    first round hooks each edge as it is, with heads below tails. An edge
    becomes the pair of its ends' roots, and one whose ends share a root is
    dropped, as it never joins two trees again.
    """
    parent = np.arange(core.size, dtype=np.int32)
    both = core[heads]
    both &= core[tails]
    low, high = heads[both], tails[both]
    del both
    while low.size:
        np.minimum.at(parent, high, low)
        while not np.array_equal(grand := parent[parent], parent):
            parent = grand
        low = parent[low]
        high = parent[high]
        joins = low != high
        low = low[joins]
        high = high[joins]
        del joins
        high, low = np.maximum(low, high), np.minimum(low, high, out=low)
    return parent


def dbscan(matrix: DissimilarityMatrix, epsilon: float, min_samples: int) -> Clustering:
    """Cluster the matrix values with DBSCAN, reading only the pairs within epsilon."""
    n = matrix.n
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 1 <= min_samples <= n:
        raise ValueError(f"min_samples must be in [1, {n}], got {min_samples}")

    # degrees, components and the border minima are set operations, so the
    # order of the pairs, which within() leaves unset, does not reach the result
    heads, tails = matrix.within(epsilon)
    # the zero diagonal puts every point within epsilon of itself
    core = np.bincount(heads, minlength=n) + np.bincount(tails, minlength=n) >= min_samples - 1
    roots = _component_roots(heads, tails, core)
    labels = np.full(n, -1, dtype=np.int32)
    ids, labels[core] = np.unique(roots[core], return_inverse=True)
    # a border point joins the cluster of the lowest-index core within epsilon
    reach, outside = np.full(n, n, dtype=np.int32), ~core
    for border, other in ((heads, tails), (tails, heads)):
        to_core = core[other]
        to_core &= outside[border]
        np.minimum.at(reach, border[to_core], other[to_core])
    reached = reach < n
    labels[reached] = labels[reach[reached]]

    order = np.argsort(labels, kind="stable")  # noise (-1) first, ascending within a label
    noise, *member_sets = np.split(order, np.searchsorted(labels[order], np.arange(ids.size)))
    # a border point may sit below its cluster's lowest core, so order again;
    # stats are left to ensure_stats: a re-trim may discard this clustering
    clusters = sorted((Cluster(m.tolist()) for m in member_sets), key=lambda c: c.members[0])
    return Clustering(clusters, noise.tolist())

"""DBSCAN over the precomputed dissimilarity matrix.

Point i is a core point iff at least min_samples matrix entries of row i
(the point itself included) are <= epsilon. Clusters are the connected
components of the graph of core points joined by closed epsilon-balls
(Schubert et al., DBSCAN Revisited, Revisited, TODS 2017), with non-core
points attached to the lowest-index core that reaches them; everything
else is noise. Cluster ids follow the lowest member index, which makes
labels stable for a fixed input order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dissimilarity import DissimilarityMatrix


@dataclass
class ClusterStats:
    mean_pairwise: float
    minmed: float
    d_max: float


@dataclass
class Cluster:
    id: int
    members: list[int]  # SegmentValue indices, ascending
    stats: ClusterStats | None = None  # None until ensure_stats measures it


@dataclass
class Clustering:
    clusters: list[Cluster]
    noise: list[int]


def cluster_stats(matrix: DissimilarityMatrix, cluster: Cluster) -> ClusterStats:
    """Pairwise mean, nearest-neighbor median (minmed) and extent of a cluster."""
    members = cluster.members
    if len(members) < 2:
        return ClusterStats(0.0, 0.0, 0.0)
    sub = matrix.d[np.ix_(members, members)]
    pairs = sub[np.triu_indices(len(members), k=1)]
    np.fill_diagonal(sub, np.inf)
    nearest = sub.min(axis=1)
    return ClusterStats(
        mean_pairwise=float(pairs.mean()),
        minmed=float(np.median(nearest)),
        d_max=float(pairs.max()),
    )


def ensure_stats(matrix: DissimilarityMatrix, cluster: Cluster) -> ClusterStats:
    """The cluster's stats, measured on first use and kept on the cluster."""
    if cluster.stats is None:
        cluster.stats = cluster_stats(matrix, cluster)
    return cluster.stats


def _ordered_clusters(member_sets: list[list[int]]) -> list[Cluster]:
    ordered = sorted((sorted(m) for m in member_sets), key=lambda m: m[0])
    return [Cluster(cid, members) for cid, members in enumerate(ordered)]


def normalize_clusters(matrix: DissimilarityMatrix, member_sets: list[list[int]], noise: list[int],
                       known: dict[tuple[int, ...], ClusterStats] | None = None) -> Clustering:
    """Sort members, order clusters by lowest member, and fill in stats.

    Stats of a member set found in ``known`` are reused; the rest are measured.
    """
    clusters = _ordered_clusters(member_sets)
    known = known or {}
    for cluster in clusters:
        cluster.stats = known.get(tuple(cluster.members)) or cluster_stats(matrix, cluster)
    return Clustering(clusters, sorted(noise))


def dbscan(matrix: DissimilarityMatrix, epsilon: float, min_samples: int) -> Clustering:
    """Cluster the matrix values with DBSCAN on the closed epsilon-ball."""
    n = matrix.n
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 1 <= min_samples <= n:
        raise ValueError(f"min_samples must be in [1, {n}], got {min_samples}")

    from scipy.sparse import csr_matrix  # slow import; only clustering needs it
    from scipy.sparse.csgraph import connected_components

    neighborhood = matrix.d <= epsilon
    core = np.count_nonzero(neighborhood, axis=1) >= min_samples
    core_indices = np.flatnonzero(core)
    labels = np.full(n, -1, dtype=np.int64)
    count = 0
    if core_indices.size:
        to_core = neighborhood.compress(core, axis=1)
        graph = csr_matrix(to_core.compress(core, axis=0))
        count, components = connected_components(graph, directed=False)
        labels[core_indices] = components
        border = np.flatnonzero(~core)
        reach = to_core.compress(~core, axis=0)
        reached = reach.any(axis=1)
        # argmax finds the first True: the lowest-index core within epsilon
        labels[border[reached]] = components[reach[reached].argmax(axis=1)]

    order = np.argsort(labels, kind="stable")  # noise (-1) first, ascending within a label
    noise, *member_sets = np.split(order, np.searchsorted(labels[order], np.arange(count)))
    # stats are left to ensure_stats: a re-trim may discard this clustering
    return Clustering(_ordered_clusters([m.tolist() for m in member_sets]), noise.tolist())

"""Cluster refinement: merge nearby overclassified clusters, split
underclassified ones with polarized value occurrences.

Merging uses two heuristics on the link segments (the closest cross-cluster
pair): Condition 1 wants very close clusters with similar local densities
around the links; Condition 2 allows larger distance but requires similar
whole-cluster densities. Splitting separates rare from very frequent values
at the pivot F = ln(segment count) when the percent rank and the spread of
the occurrence counts are both high.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .clustering import Cluster, Clustering, ensure_stats, normalize_clusters
from .dissimilarity import DissimilarityMatrix

EPS_RHO_THRESHOLD = 0.01  # condition 1: |rho_i - rho_j| must stay below this
NEIGHBOR_DENSITY_THRESHOLD = 0.002  # condition 2: |minmed_i - minmed_j| must stay below this
SPLIT_PERCENTILE = 95.0  # split when the percent rank below the pivot exceeds this


@dataclass(frozen=True)
class LinkPair:
    s_link_ij: int  # member of cluster i closest to cluster j
    s_link_ji: int
    d_link: float


def link_segments(matrix: DissimilarityMatrix, c_i: Cluster, c_j: Cluster) -> LinkPair:
    """Closest cross-cluster pair; ties resolve to the lowest index pair."""
    rows = np.asarray(c_i.members)
    cols = np.asarray(c_j.members)
    block = matrix.d[np.ix_(rows, cols)]
    flat = int(np.argmin(block))  # first minimum in row-major order
    a, b = divmod(flat, cols.size)
    return LinkPair(int(rows[a]), int(cols[b]), float(block[a, b]))


def eps_density(
    matrix: DissimilarityMatrix, cluster: Cluster, s_l: int, eps: float
) -> float | None:
    """Median dissimilarity from s_l to cluster members within eps, or None."""
    others = [m for m in cluster.members if m != s_l]
    if not others:
        return None
    dists = matrix.d[s_l, others]
    inside = dists[dists <= eps]
    if inside.size == 0:
        return None
    return float(np.median(inside))


def condition1(
    matrix: DissimilarityMatrix, c_i: Cluster, c_j: Cluster, link: LinkPair
) -> bool:
    """Very close clusters with similar local density around the link segments.

    The density radius is half the extent of the cluster with fewer values
    (ties use the first cluster). Undefined densities fail the condition.
    ``link`` is the pair's :func:`link_segments`, shared with condition 2.
    """
    stats_i, stats_j = ensure_stats(matrix, c_i), ensure_stats(matrix, c_j)
    if not link.d_link < max(stats_i.mean_pairwise, stats_j.mean_pairwise):
        return False
    smaller = stats_i if len(c_i.members) <= len(c_j.members) else stats_j
    eps = smaller.d_max / 2.0
    rho_i = eps_density(matrix, c_i, link.s_link_ij, eps)
    rho_j = eps_density(matrix, c_j, link.s_link_ji, eps)
    if rho_i is None or rho_j is None:
        return False
    return abs(rho_i - rho_j) < EPS_RHO_THRESHOLD


def condition2(
    matrix: DissimilarityMatrix, c_i: Cluster, c_j: Cluster, link: LinkPair
) -> bool:
    """Somewhat-close clusters whose whole-cluster densities are similar."""
    if len(c_i.members) < 2 or len(c_j.members) < 2:
        return False
    stats_i, stats_j = ensure_stats(matrix, c_i), ensure_stats(matrix, c_j)
    if stats_i.mean_pairwise == 0.0 or stats_j.mean_pairwise == 0.0:
        return False
    bound = (
        stats_i.minmed / stats_i.mean_pairwise + stats_j.minmed / stats_j.mean_pairwise
    ) / 2.0
    if not link.d_link < bound:
        return False
    return abs(stats_i.minmed - stats_j.minmed) < NEIGHBOR_DENSITY_THRESHOLD


def merge_pass(matrix: DissimilarityMatrix, clustering: Clustering) -> Clustering:
    """Merge qualifying cluster pairs until a fixpoint is reached.

    Pairs are scanned in ascending id order; after each merge the clusters
    are renumbered and the scan restarts, so the result is deterministic.
    A pair's verdict depends only on its two member sets, so it is kept
    and each restart evaluates only the pairs with the merged cluster.
    """
    clusters = [Cluster(c.id, list(c.members), c.stats) for c in clustering.clusters]
    verdicts: dict[tuple[tuple[int, ...], tuple[int, ...]], bool] = {}
    while True:
        keys = [tuple(c.members) for c in clusters]
        hit = None
        for a, b in combinations(range(len(clusters)), 2):
            pair = (keys[a], keys[b])
            verdict = verdicts.get(pair)
            if verdict is None:
                c_i, c_j = clusters[a], clusters[b]
                link = link_segments(matrix, c_i, c_j)
                verdict = condition1(matrix, c_i, c_j, link) or condition2(
                    matrix, c_i, c_j, link
                )
                verdicts[pair] = verdict
            if verdict:
                hit = (a, b)
                break
        if hit is None:
            break
        a, b = hit
        member_sets = [c.members for i, c in enumerate(clusters) if i not in hit]
        member_sets.append(sorted(clusters[a].members + clusters[b].members))
        known = {key: c.stats for key, c in zip(keys, clusters) if c.stats is not None}
        clusters = normalize_clusters(matrix, member_sets, clustering.noise, known).clusters
    return Clustering(clusters, list(clustering.noise))


def split_pass(matrix: DissimilarityMatrix, clustering: Clustering) -> Clustering:
    """Split clusters with extremely polarized value occurrence counts.

    Occurrences count segments (duplicates included); with F = ln of the
    cluster's segment count, a cluster splits at the pivot F when the
    percent rank of counts strictly below F exceeds the split percentile
    and the population standard deviation of the counts exceeds F.
    """
    member_sets: list[list[int]] = []
    for cluster in clustering.clusters:
        counts = np.array(
            [len(matrix.values[m].members) for m in cluster.members], dtype=np.float64
        )
        segment_count = counts.sum()
        pivot = math.log(segment_count) if segment_count > 0 else 0.0
        percent_rank = 100.0 * float((counts < pivot).sum()) / counts.size
        spread = float(counts.std())
        if percent_rank > SPLIT_PERCENTILE and spread > pivot:
            low = [m for m, c in zip(cluster.members, counts) if c <= pivot]
            high = [m for m, c in zip(cluster.members, counts) if c > pivot]
            if low and high:
                member_sets.append(low)
                member_sets.append(high)
                continue
        member_sets.append(list(cluster.members))
    known = {tuple(c.members): c.stats for c in clustering.clusters if c.stats is not None}
    return normalize_clusters(matrix, member_sets, clustering.noise, known)

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

from .clustering import Cluster, Clustering, ensure_stats
from .dissimilarity import DissimilarityMatrix, _median

EPS_RHO_THRESHOLD = 0.01  # condition 1: |rho_i - rho_j| must stay below this
NEIGHBOR_DENSITY_THRESHOLD = 0.002  # condition 2: |minmed_i - minmed_j| must stay below this
SPLIT_PERCENTILE = 95.0  # split when the percent rank below the pivot exceeds this


@dataclass(frozen=True)
class LinkPair:
    s_link_ij: int  # member of cluster i closest to cluster j
    s_link_ji: int
    d_link: float


def link_segments(matrix: DissimilarityMatrix, c_i: Cluster, c_j: Cluster) -> LinkPair:
    """Closest cross-cluster pair; ties resolve to the lowest index pair.

    The matrix walks c_i in row chunks and keeps the first row-major minimum.
    """
    a, b, d_link = matrix.closest(c_i.members, c_j.members)
    return LinkPair(c_i.members[a], c_j.members[b], d_link)


def eps_density(
    matrix: DissimilarityMatrix, cluster: Cluster, s_l: int, eps: float
) -> float | None:
    """Median dissimilarity from s_l to cluster members within eps, or None."""
    members = np.asarray(cluster.members)
    dists = matrix.block([s_l], members[members != s_l])[0]
    inside = dists[dists <= eps]
    if inside.size == 0:
        return None
    return _median(inside)


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

    Pairs are scanned in ascending id order. The first pair that meets
    condition 1 or condition 2 merges, the merged cluster takes its place
    by lowest member, and the scan restarts, so the result is
    deterministic. A verdict depends only on the pair's two clusters, so a
    rejected pair is remembered and not evaluated again. Unmerged clusters
    are passed on as they are, stats included.

    Every link is kept in scan orientation: the cluster with the lower first
    member gives the rows. The link of a merged cluster with another is the
    smaller of its parts' links in the orientation the scan will use,
    compared by (d_link, row value, column value), which is the first
    row-major minimum over the merged rows or columns, as
    :func:`link_segments` finds it. Only a part whose link is not kept in
    that orientation is linked afresh, and a pair with neither part's link
    kept is linked as a whole when the scan reaches it.
    """
    clusters = list(clustering.clusters)
    rejected: set[tuple[Cluster, Cluster]] = set()
    links: dict[tuple[Cluster, Cluster], LinkPair] = {}
    while True:
        for c_i, c_j in combinations(clusters, 2):
            if (c_i, c_j) in rejected:
                continue
            link = links.get((c_i, c_j)) or link_segments(matrix, c_i, c_j)
            links[c_i, c_j] = link
            if condition1(matrix, c_i, c_j, link) or condition2(matrix, c_i, c_j, link):
                break
            rejected.add((c_i, c_j))
        else:
            return Clustering(clusters, clustering.noise)
        merged = Cluster(sorted([*c_i.members, *c_j.members]))
        clusters = [c for c in clusters if c not in (c_i, c_j)]
        for c_k in clusters:
            rows = merged.members[0] < c_k.members[0]
            pairs = [(part, c_k) if rows else (c_k, part) for part in (c_i, c_j)]
            kept = [links.get(pair) for pair in pairs]
            if any(kept):  # with neither part's link kept, the scan links the pair afresh
                parts = [link or link_segments(matrix, *pair) for link, pair in zip(kept, pairs)]
                links[(merged, c_k) if rows else (c_k, merged)] = min(
                    parts, key=lambda link: (link.d_link, link.s_link_ij, link.s_link_ji))
        clusters.append(merged)
        clusters.sort(key=lambda c: c.members[0])


def split_pass(matrix: DissimilarityMatrix, clustering: Clustering) -> Clustering:
    """Split clusters with extremely polarized value occurrence counts.

    Occurrences count segments (duplicates included); with F = ln of the
    cluster's segment count, a cluster splits at the pivot F when the
    percent rank of counts strictly below F exceeds the split percentile
    and the population standard deviation of the counts exceeds F.
    Unsplit clusters are passed on as they are, stats included.
    """
    clusters: list[Cluster] = []
    for cluster in clustering.clusters:
        counts = matrix.values.counts[cluster.members].astype(np.float64)
        segment_count = counts.sum()
        pivot = math.log(segment_count) if segment_count > 0 else 0.0
        percent_rank = 100.0 * float((counts < pivot).sum()) / counts.size
        spread = float(counts.std())
        if percent_rank > SPLIT_PERCENTILE and spread > pivot:
            # both sides fill: some count < pivot, and counts in [0, pivot] spread <= pivot / 2
            members = np.asarray(cluster.members)
            clusters += [Cluster(members[counts <= pivot].tolist()),
                         Cluster(members[counts > pivot].tolist())]
        else:
            clusters.append(cluster)
    clusters.sort(key=lambda c: c.members[0])
    return Clustering(clusters, clustering.noise)

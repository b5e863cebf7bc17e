"""Cluster refinement: link segments, merge conditions, percent-rank split."""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from conftest import make_matrix, symmetric_random
from oracles import percent_rank_reference, population_std_reference
from typeclust.clustering import Cluster, cluster_stats, normalize_clusters
from typeclust.refinement import (
    EPS_RHO_THRESHOLD,
    NEIGHBOR_DENSITY_THRESHOLD,
    condition1,
    condition2,
    eps_density,
    link_segments,
    merge_pass,
    split_pass,
)


def clusters_from(matrix, member_sets, noise=()):
    return normalize_clusters(matrix, [list(m) for m in member_sets], list(noise))


def uniform_blob_matrix(n: int, low=0.005, high=0.065, seed=5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    d = rng.uniform(low, high, size=(n, n))
    d = np.triu(d, 1)
    return d + d.T


class TestLinkSegments:
    def test_singleton_clusters(self):
        d = np.array([[0.0, 0.37], [0.37, 0.0]])
        matrix = make_matrix(d)
        clustering = clusters_from(matrix, [[0], [1]])
        link = link_segments(matrix, clustering.clusters[0], clustering.clusters[1])
        assert (link.s_link_ij, link.s_link_ji, link.d_link) == (0, 1, 0.37)

    def test_two_by_two_distinct_minimum(self):
        d = np.full((4, 4), 0.9)
        d[1, 2] = d[2, 1] = 0.11  # the unique minimal cross pair
        d[0, 1] = d[1, 0] = 0.05
        d[2, 3] = d[3, 2] = 0.05
        np.fill_diagonal(d, 0.0)
        matrix = make_matrix(d)
        clustering = clusters_from(matrix, [[0, 1], [2, 3]])
        link = link_segments(matrix, clustering.clusters[0], clustering.clusters[1])
        assert (link.s_link_ij, link.s_link_ji) == (1, 2)
        assert link.d_link == 0.11

    def test_random_matches_exhaustive_cross_minimum(self, rng):
        for _ in range(50):
            d = symmetric_random(12, rng)
            matrix = make_matrix(d)
            left = sorted(rng.choice(12, size=4, replace=False).tolist())
            right = sorted(set(range(12)) - set(left))[:5]
            link = link_segments(matrix, Cluster(0, left), Cluster(1, right))
            best = min((d[a][b], a, b) for a in left for b in right)
            assert (link.d_link, link.s_link_ij, link.s_link_ji) == best

    def test_tie_breaks_to_lowest_index_pair(self):
        d = np.full((4, 4), 0.5)
        np.fill_diagonal(d, 0.0)
        matrix = make_matrix(d)
        clustering = clusters_from(matrix, [[0, 1], [2, 3]])
        link = link_segments(matrix, clustering.clusters[0], clustering.clusters[1])
        assert (link.s_link_ij, link.s_link_ji) == (0, 2)


class TestEpsDensity:
    def test_median_of_two_neighbors(self):
        d = np.zeros((3, 3))
        d[0, 1] = d[1, 0] = 0.01
        d[0, 2] = d[2, 0] = 0.03
        d[1, 2] = d[2, 1] = 0.05
        matrix = make_matrix(d)
        cluster = Cluster(0, [0, 1, 2])
        assert eps_density(matrix, cluster, 0, eps=0.04) == pytest.approx(0.02)

    def test_empty_neighborhood_is_undefined(self):
        d = np.array([[0.0, 0.5], [0.5, 0.0]])
        matrix = make_matrix(d)
        assert eps_density(matrix, Cluster(0, [0, 1]), 0, eps=0.1) is None

    def test_random_matches_direct_median(self, rng):
        for _ in range(50):
            d = symmetric_random(10, rng)
            matrix = make_matrix(d)
            members = sorted(rng.choice(10, size=6, replace=False).tolist())
            anchor = members[0]
            eps = float(rng.uniform(0.2, 0.9))
            inside = sorted(
                d[anchor][m] for m in members if m != anchor and d[anchor][m] <= eps
            )
            got = eps_density(matrix, Cluster(0, members), anchor, eps)
            if not inside:
                assert got is None
            else:
                mid = len(inside) // 2
                expected = inside[mid] if len(inside) % 2 else (inside[mid - 1] + inside[mid]) / 2
                assert got == pytest.approx(expected, abs=1e-12)


class TestMergeConditions:
    def split_blob(self, n=16, seed=5):
        """One uniform blob pre-split into two equal clusters."""
        d = uniform_blob_matrix(n, seed=seed)
        matrix = make_matrix(d)
        half = n // 2
        clustering = clusters_from(matrix, [list(range(half)), list(range(half, n))])
        return matrix, clustering

    def test_split_uniform_blob_satisfies_condition1(self):
        matrix, clustering = self.split_blob()
        c_i, c_j = clustering.clusters
        assert condition1(matrix, c_i, c_j, link_segments(matrix, c_i, c_j))

    def test_far_apart_blobs_fail_condition1(self):
        d = np.full((12, 12), 0.9)
        d[:6, :6] = uniform_blob_matrix(6, seed=1)
        d[6:, 6:] = uniform_blob_matrix(6, seed=2)
        np.fill_diagonal(d, 0.0)
        matrix = make_matrix(d)
        clustering = clusters_from(matrix, [list(range(6)), list(range(6, 12))])
        c_i, c_j = clustering.clusters
        link = link_segments(matrix, c_i, c_j)
        assert not condition1(matrix, c_i, c_j, link)
        assert not condition2(matrix, c_i, c_j, link)

    def test_asymmetric_link_densities_fail_condition1(self):
        # clusters close enough for the distance term, but the local
        # densities around the two link segments differ far beyond 0.01:
        # A is uniformly tight, B is two tight pairs far from each other
        rng = np.random.default_rng(17)
        n = 10
        a, b = list(range(6)), list(range(6, 10))
        d = rng.uniform(0.020, 0.022, size=(n, n))  # cross distances
        d[:6, :6] = rng.uniform(0.004, 0.006, size=(6, 6))
        d[6:, 6:] = 0.075
        d[6, 7] = d[7, 6] = 0.031
        d[8, 9] = d[9, 8] = 0.031
        d = np.triu(d, 1)
        d = d + d.T
        matrix = make_matrix(d)
        clustering = clusters_from(matrix, [a, b])
        c_i, c_j = clustering.clusters
        link = link_segments(matrix, c_i, c_j)
        # the distance term alone would allow the merge
        assert link.d_link < max(c_i.stats.mean_pairwise, c_j.stats.mean_pairwise)
        smaller = c_j.stats if len(c_j.members) < len(c_i.members) else c_i.stats
        eps = smaller.d_max / 2
        rho_i = eps_density(matrix, c_i, link.s_link_ij, eps)
        rho_j = eps_density(matrix, c_j, link.s_link_ji, eps)
        assert rho_i is not None and rho_j is not None
        assert abs(rho_i - rho_j) >= EPS_RHO_THRESHOLD
        assert not condition1(matrix, c_i, c_j, link)

    def test_translated_blob_copies_satisfy_condition2(self):
        # two clusters with identical internal geometry and a tiny gap
        base = uniform_blob_matrix(6, low=0.30, high=0.34, seed=9)
        n = 12
        d = np.zeros((n, n))
        d[:6, :6] = base
        d[6:, 6:] = base
        cross = np.full((6, 6), 0.05)
        d[:6, 6:] = cross
        d[6:, :6] = cross.T
        np.fill_diagonal(d, 0.0)
        matrix = make_matrix(d)
        clustering = clusters_from(matrix, [list(range(6)), list(range(6, 12))])
        c_i, c_j = clustering.clusters
        # minmed identical by construction, link far below the normalized bound
        assert condition2(matrix, c_i, c_j, link_segments(matrix, c_i, c_j))

    def test_minmed_difference_above_threshold_fails_condition2(self):
        d = np.zeros((8, 8))
        d[:4, :4] = uniform_blob_matrix(4, low=0.020, high=0.0201, seed=3)
        d[4:, 4:] = uniform_blob_matrix(4, low=0.030, high=0.0301, seed=4)
        cross = np.full((4, 4), 0.001)
        d[:4, 4:] = cross
        d[4:, :4] = cross.T
        np.fill_diagonal(d, 0.0)
        matrix = make_matrix(d)
        clustering = clusters_from(matrix, [list(range(4)), list(range(4, 8))])
        c_i, c_j = clustering.clusters
        # |0.02 - 0.03| = 0.01 > 0.002
        assert not condition2(matrix, c_i, c_j, link_segments(matrix, c_i, c_j))

    def test_conditions_match_direct_formula_oracle(self, rng):
        for _ in range(100):
            d = symmetric_random(12, rng, low=0.01, high=0.9)
            matrix = make_matrix(d)
            left = sorted(rng.choice(12, size=5, replace=False).tolist())
            right = sorted(set(range(12)) - set(left))
            clustering = clusters_from(matrix, [left, right])
            c_i, c_j = clustering.clusters
            link = link_segments(matrix, c_i, c_j)
            got1 = condition1(matrix, c_i, c_j, link)
            got2 = condition2(matrix, c_i, c_j, link)

            # straight-from-the-formula evaluation
            best = min((d[a][b], a, b) for a in c_i.members for b in c_j.members)
            d_link, s_ij, s_ji = best
            stats_i = cluster_stats(matrix, c_i)
            stats_j = cluster_stats(matrix, c_j)
            smaller = stats_i if len(c_i.members) <= len(c_j.members) else stats_j
            eps = smaller.d_max / 2

            def rho(members, anchor):
                inside = sorted(
                    d[anchor][m] for m in members if m != anchor and d[anchor][m] <= eps
                )
                if not inside:
                    return None
                mid = len(inside) // 2
                return inside[mid] if len(inside) % 2 else (inside[mid - 1] + inside[mid]) / 2

            rho_i, rho_j = rho(c_i.members, s_ij), rho(c_j.members, s_ji)
            want1 = (
                d_link < max(stats_i.mean_pairwise, stats_j.mean_pairwise)
                and rho_i is not None
                and rho_j is not None
                and abs(rho_i - rho_j) < EPS_RHO_THRESHOLD
            )
            bound = (
                stats_i.minmed / stats_i.mean_pairwise
                + stats_j.minmed / stats_j.mean_pairwise
            ) / 2
            want2 = (
                d_link < bound
                and abs(stats_i.minmed - stats_j.minmed)
                < NEIGHBOR_DENSITY_THRESHOLD
            )
            assert got1 == want1
            assert got2 == want2


class TestMergePass:
    def test_identity_when_nothing_qualifies(self):
        d = np.full((8, 8), 0.9)
        d[:4, :4] = uniform_blob_matrix(4, seed=1)
        d[4:, 4:] = uniform_blob_matrix(4, seed=2)
        np.fill_diagonal(d, 0.0)
        matrix = make_matrix(d)
        clustering = clusters_from(matrix, [list(range(4)), list(range(4, 8))])
        merged = merge_pass(matrix, clustering)
        assert [c.members for c in merged.clusters] == [c.members for c in clustering.clusters]

    def test_split_blob_is_unified(self):
        d = uniform_blob_matrix(16)
        matrix = make_matrix(d)
        clustering = clusters_from(matrix, [list(range(8)), list(range(8, 16))])
        merged = merge_pass(matrix, clustering)
        assert [c.members for c in merged.clusters] == [list(range(16))]

    def test_three_way_chain_merges_transitively(self):
        d = uniform_blob_matrix(18, seed=8)
        matrix = make_matrix(d)
        clustering = clusters_from(
            matrix, [list(range(6)), list(range(6, 12)), list(range(12, 18))]
        )
        merged = merge_pass(matrix, clustering)
        assert [c.members for c in merged.clusters] == [list(range(18))]

    def test_idempotent_at_fixpoint(self):
        d = uniform_blob_matrix(16)
        matrix = make_matrix(d)
        clustering = clusters_from(matrix, [list(range(8)), list(range(8, 16))])
        once = merge_pass(matrix, clustering)
        twice = merge_pass(matrix, once)
        assert [c.members for c in twice.clusters] == [c.members for c in once.clusters]

    def test_noise_untouched(self):
        d = uniform_blob_matrix(10)
        matrix = make_matrix(d)
        clustering = clusters_from(matrix, [[0, 1, 2, 3], [4, 5, 6]], noise=[7, 8, 9])
        merged = merge_pass(matrix, clustering)
        assert merged.noise == [7, 8, 9]


def restart_scan_reference(matrix, member_sets):
    """merge_pass from its definition: every merge restarts the full pair scan."""
    sets = [sorted(m) for m in member_sets]
    while True:
        clusters = [Cluster(cid, m) for cid, m in enumerate(sorted(sets, key=lambda m: m[0]))]
        for c_i, c_j in combinations(clusters, 2):
            link = link_segments(matrix, c_i, c_j)
            if condition1(matrix, c_i, c_j, link) or condition2(matrix, c_i, c_j, link):
                sets = [c.members for c in clusters if c is not c_i and c is not c_j]
                sets.append(sorted(c_i.members + c_j.members))
                break
        else:
            return [c.members for c in clusters]


def fragmented_blobs(seed: int):
    """Blobs of different densities, each cut into several random clusters."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(10, 21, size=3)
    n = int(sizes.sum())
    d = rng.uniform(0.5, 0.9, size=(n, n))
    member_sets, start = [], 0
    for size, (low, high) in zip(sizes, [(0.005, 0.065), (0.02, 0.08), (0.1, 0.3)]):
        block = slice(start, start + size)
        d[block, block] = rng.uniform(low, high, size=(size, size))
        members = rng.permutation(np.arange(start, start + size))
        cuts = sorted(rng.choice(np.arange(1, size), size=3, replace=False).tolist())
        member_sets += [part.tolist() for part in np.split(members, cuts)]
        start += size
    d = np.triu(d, 1)
    return d + d.T, member_sets


class TestMergePassEquivalence:
    def test_matches_restart_scan_reference(self):
        merges = 0
        for seed in range(12):
            d, member_sets = fragmented_blobs(seed)
            matrix = make_matrix(d)
            merged = merge_pass(matrix, clusters_from(matrix, member_sets))
            expected = restart_scan_reference(matrix, member_sets)
            assert [c.members for c in merged.clusters] == expected, seed
            for cluster in merged.clusters:
                assert cluster.stats == cluster_stats(matrix, Cluster(0, cluster.members))
            merges += len(member_sets) - len(expected)
        assert merges >= 20  # the scenarios exercise repeated merges

    def test_stats_measured_once_per_member_set(self, monkeypatch):
        from typeclust import clustering, refinement

        measured, linked = Counter(), Counter()
        original = clustering.cluster_stats
        original_link = refinement.link_segments

        def counting(matrix, cluster):
            measured[tuple(cluster.members)] += 1
            return original(matrix, cluster)

        def counting_link(matrix, c_i, c_j):
            linked[tuple(c_i.members), tuple(c_j.members)] += 1
            return original_link(matrix, c_i, c_j)

        monkeypatch.setattr(clustering, "cluster_stats", counting)
        monkeypatch.setattr(refinement, "link_segments", counting_link)
        d, member_sets = fragmented_blobs(1)
        matrix = make_matrix(d)
        merged = merge_pass(matrix, clusters_from(matrix, member_sets))
        split_pass(matrix, merged)
        assert len(merged.clusters) < len(member_sets)
        assert max(measured.values()) == 1
        # every evaluated pair builds its link pair once, for both conditions
        assert len(linked) > len(member_sets) and max(linked.values()) == 1


class TestSplitPass:
    def test_all_unique_values_do_not_split(self):
        d = uniform_blob_matrix(10)
        matrix = make_matrix(d)  # every value occurs once: sigma = 0
        clustering = clusters_from(matrix, [list(range(10))])
        result = split_pass(matrix, clustering)
        assert [c.members for c in result.clusters] == [list(range(10))]

    def test_frequent_value_splits_at_pivot(self):
        # 95 unique values plus one value occurring 100 times
        counts = [1] * 95 + [100]
        d = uniform_blob_matrix(96, seed=12)
        matrix = make_matrix(d, member_counts=counts)
        clustering = clusters_from(matrix, [list(range(96))])

        segment_count = sum(counts)  # 195
        pivot = math.log(segment_count)
        assert percent_rank_reference(counts, pivot) > 95
        assert population_std_reference(counts) > pivot

        result = split_pass(matrix, clustering)
        assert sorted(len(c.members) for c in result.clusters) == [1, 95]
        small = next(c for c in result.clusters if len(c.members) == 1)
        assert small.members == [95]  # the frequent value sits alone
        union = sorted(m for c in result.clusters for m in c.members)
        assert union == list(range(96))

    def test_percent_rank_exactly_95_does_not_split(self):
        # 19 of 20 counts below the pivot: PR == 95 exactly, sigma > pivot
        counts = [1] * 19 + [100]
        d = uniform_blob_matrix(20, seed=13)
        matrix = make_matrix(d, member_counts=counts)
        pivot = math.log(sum(counts))
        assert percent_rank_reference(counts, pivot) == 95.0
        assert population_std_reference(counts) > pivot
        clustering = clusters_from(matrix, [list(range(20))])
        result = split_pass(matrix, clustering)
        assert [len(c.members) for c in result.clusters] == [20]

    def test_membership_preserved_across_split(self, rng):
        counts = [int(c) for c in rng.integers(1, 120, size=40)]
        d = symmetric_random(40, rng)
        matrix = make_matrix(d, member_counts=counts)
        clustering = clusters_from(matrix, [list(range(40))])
        result = split_pass(matrix, clustering)
        union = sorted(m for c in result.clusters for m in c.members)
        assert union == list(range(40))

    def test_split_matches_formula_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 30))
            counts = [int(c) for c in rng.integers(1, 60, size=n)]
            d = symmetric_random(n, rng)
            matrix = make_matrix(d, member_counts=counts)
            clustering = clusters_from(matrix, [list(range(n))])
            result = split_pass(matrix, clustering)

            pivot = math.log(sum(counts))
            should_split = (
                percent_rank_reference(counts, pivot) > 95
                and population_std_reference(counts) > pivot
                and any(c <= pivot for c in counts)
                and any(c > pivot for c in counts)
            )
            assert (len(result.clusters) == 2) == should_split


def test_merge_terminates_and_decreases_cluster_count(rng):
    d = uniform_blob_matrix(20, seed=21)
    matrix = make_matrix(d)
    clustering = clusters_from(matrix, [[i, i + 1] for i in range(0, 20, 2)])
    merged = merge_pass(matrix, clustering)
    assert len(merged.clusters) <= len(clustering.clusters)
    everything = sorted(m for c in merged.clusters for m in c.members)
    assert everything == list(range(20))

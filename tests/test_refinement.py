"""Cluster refinement: link segments, merge conditions, percent-rank split."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import condensed, make_matrix, symmetric_random, traced_peak
from oracles import percent_rank_reference, population_std_reference, restart_scan_reference
from typeclust import dissimilarity
from typeclust.clustering import Cluster, Clustering, cluster_stats, ensure_stats
from typeclust.dissimilarity import DissimilarityMatrix, Values
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


def clusters_from(member_sets, noise=()):
    """Clusters with sorted members, ordered by lowest member."""
    return Clustering([Cluster(sorted(m)) for m in sorted(member_sets, key=min)], sorted(noise))


def uniform_blob_matrix(n: int, low=0.005, high=0.065, seed=5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    d = rng.uniform(low, high, size=(n, n))
    d = np.triu(d, 1)
    return d + d.T


class TestLinkSegments:
    def test_singleton_clusters(self):
        d = np.array([[0.0, 0.37], [0.37, 0.0]])
        matrix = make_matrix(d)
        clustering = clusters_from([[0], [1]])
        link = link_segments(matrix, clustering.clusters[0], clustering.clusters[1])
        assert (link.s_link_ij, link.s_link_ji, link.d_link) == (0, 1, 0.37)

    def test_two_by_two_distinct_minimum(self):
        d = np.full((4, 4), 0.9)
        d[1, 2] = d[2, 1] = 0.11  # the unique minimal cross pair
        d[0, 1] = d[1, 0] = 0.05
        d[2, 3] = d[3, 2] = 0.05
        np.fill_diagonal(d, 0.0)
        matrix = make_matrix(d)
        clustering = clusters_from([[0, 1], [2, 3]])
        link = link_segments(matrix, clustering.clusters[0], clustering.clusters[1])
        assert (link.s_link_ij, link.s_link_ji) == (1, 2)
        assert link.d_link == 0.11

    def test_random_matches_exhaustive_cross_minimum(self, rng):
        for _ in range(50):
            d = symmetric_random(12, rng)
            matrix = make_matrix(d)
            left = sorted(rng.choice(12, size=4, replace=False).tolist())
            right = sorted(set(range(12)) - set(left))[:5]
            link = link_segments(matrix, Cluster(left), Cluster(right))
            best = min((d[a][b], a, b) for a in left for b in right)
            assert (link.d_link, link.s_link_ij, link.s_link_ji) == best

    def test_tie_breaks_to_lowest_index_pair(self):
        d = np.full((4, 4), 0.5)
        np.fill_diagonal(d, 0.0)
        matrix = make_matrix(d)
        clustering = clusters_from([[0, 1], [2, 3]])
        link = link_segments(matrix, clustering.clusters[0], clustering.clusters[1])
        assert (link.s_link_ij, link.s_link_ji) == (0, 2)

    @pytest.mark.parametrize("ties", [
        [(3, 15), (7, 12)],  # the later chunk's tie has the lower column
        [(7, 12), (2, 19), (3, 11)],  # ties in three chunks, the first one in chunk 1
        [(2, 18), (3, 11)],  # both in one chunk: the first row wins
    ])
    def test_tie_across_row_chunks_keeps_first_row_major_pair(self, rng, monkeypatch, ties):
        monkeypatch.setattr(dissimilarity, "_CHUNK_CELLS", 24)  # two rows of ten a chunk
        d = symmetric_random(20, rng, low=0.5, high=0.9)
        for a, b in ties:
            d[a, b] = d[b, a] = 0.125
        left, right = list(range(10)), list(range(10, 20))
        link = link_segments(make_matrix(d), Cluster(left), Cluster(right))
        block = d[np.ix_(left, right)]
        a, b = divmod(int(np.argmin(block)), block.shape[1])
        assert (link.s_link_ij, link.s_link_ji, link.d_link) == (left[a], right[b], 0.125)
        assert (link.s_link_ij, link.s_link_ji) == min(ties)

    def test_large_clusters_read_no_whole_block(self, rng):
        d = symmetric_random(2000, rng)
        matrix = make_matrix(d)
        left, right = list(range(0, 2000, 2)), list(range(1, 2000, 2))
        link, peak = traced_peak(link_segments, matrix, Cluster(left), Cluster(right))
        block = d[np.ix_(left, right)]
        a, b = divmod(int(np.argmin(block)), block.shape[1])
        assert (link.s_link_ij, link.s_link_ji, link.d_link) == (left[a], right[b], block[a, b])
        assert peak < 4e6  # the 1,000 x 1,000 block alone is 8 MB


class TestEpsDensity:
    def test_median_of_two_neighbors(self):
        d = np.zeros((3, 3))
        d[0, 1] = d[1, 0] = 0.01
        d[0, 2] = d[2, 0] = 0.03
        d[1, 2] = d[2, 1] = 0.05
        matrix = make_matrix(d)
        cluster = Cluster([0, 1, 2])
        assert eps_density(matrix, cluster, 0, eps=0.04) == pytest.approx(0.02)

    def test_empty_neighborhood_is_undefined(self):
        d = np.array([[0.0, 0.5], [0.5, 0.0]])
        matrix = make_matrix(d)
        assert eps_density(matrix, Cluster([0, 1]), 0, eps=0.1) is None
        # a one-member cluster has no others: its (1, 0) block holds no cell
        assert eps_density(matrix, Cluster([0]), 0, eps=1.0) is None

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
            got = eps_density(matrix, Cluster(members), anchor, eps)
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
        clustering = clusters_from([list(range(half)), list(range(half, n))])
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
        clustering = clusters_from([list(range(6)), list(range(6, 12))])
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
        clustering = clusters_from([a, b])
        c_i, c_j = clustering.clusters
        link = link_segments(matrix, c_i, c_j)
        # the distance term alone would allow the merge
        stats_i, stats_j = ensure_stats(matrix, c_i), ensure_stats(matrix, c_j)
        assert link.d_link < max(stats_i.mean_pairwise, stats_j.mean_pairwise)
        smaller = stats_j if len(c_j.members) < len(c_i.members) else stats_i
        eps = smaller.d_max / 2
        rho_i = eps_density(matrix, c_i, link.s_link_ij, eps)
        rho_j = eps_density(matrix, c_j, link.s_link_ji, eps)
        assert rho_i is not None and rho_j is not None
        assert abs(rho_i - rho_j) >= EPS_RHO_THRESHOLD
        assert not condition1(matrix, c_i, c_j, link)

    def test_link_between_the_means_satisfies_condition1(self):
        # a tight cluster A and a loose cluster B whose link lies above A's
        # mean pairwise distance and below B's: the distance term takes the
        # larger mean, so the merge rests on the link densities alone
        n = 10
        d = np.full((n, n), 0.6)  # cross distances
        d[:4, :4] = 0.05
        d[0, 1:4] = d[1:4, 0] = 0.02  # A's link member sits at its centre
        d[4:, 4:] = 0.5
        d[4, 5:7] = d[5:7, 4] = 0.024  # B's link member has two close neighbours
        d[0, 4] = d[4, 0] = 0.1
        np.fill_diagonal(d, 0.0)
        matrix = make_matrix(d)
        c_i, c_j = clusters_from([range(4), range(4, n)]).clusters
        link = link_segments(matrix, c_i, c_j)
        stats_i, stats_j = ensure_stats(matrix, c_i), ensure_stats(matrix, c_j)
        assert (link.s_link_ij, link.s_link_ji, link.d_link) == (0, 4, 0.1)
        assert stats_i.mean_pairwise < link.d_link < stats_j.mean_pairwise
        assert condition1(matrix, c_i, c_j, link)
        assert not condition2(matrix, c_i, c_j, link)
        merged = merge_pass(matrix, clusters_from([range(4), range(4, n)]))
        assert [c.members for c in merged.clusters] == [list(range(n))]

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
        clustering = clusters_from([list(range(6)), list(range(6, 12))])
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
        clustering = clusters_from([list(range(4)), list(range(4, 8))])
        c_i, c_j = clustering.clusters
        # |0.02 - 0.03| = 0.01 > 0.002
        assert not condition2(matrix, c_i, c_j, link_segments(matrix, c_i, c_j))

    def test_rho_difference_at_the_threshold_fails_condition1(self):
        # link members 0 and 4; 0 lies at 0.0 from the rest of A, 4 at rho_j from
        # the rest of B, and |0.0 - 0.01| is exactly EPS_RHO_THRESHOLD in float
        def verdict(rho_j):
            d = np.full((8, 8), 0.5)  # cross distances
            d[:4, :4] = d[4:, 4:] = 0.1
            d[0, 1:4] = d[1:4, 0] = 0.0
            d[4, 5:] = d[5:, 4] = rho_j
            d[0, 4] = d[4, 0] = 0.02
            np.fill_diagonal(d, 0.0)
            matrix = make_matrix(d)
            c_i, c_j = clusters_from([range(4), range(4, 8)]).clusters
            link = link_segments(matrix, c_i, c_j)
            assert (link.s_link_ij, link.s_link_ji, link.d_link) == (0, 4, 0.02)
            # the radius, half of A's d_max (0.1), holds both link members' neighbours
            assert eps_density(matrix, c_i, 0, 0.05) == 0.0
            assert eps_density(matrix, c_j, 4, 0.05) == rho_j
            return condition1(matrix, c_i, c_j, link)

        assert abs(0.0 - 0.01) == EPS_RHO_THRESHOLD
        assert not verdict(0.01)
        assert verdict(np.nextafter(0.01, 0.0))

    def test_minmed_difference_at_the_threshold_fails_condition2(self):
        # A's nearest dissimilarities are all 0.0, B's all minmed_j, and
        # |0.0 - 0.002| is exactly NEIGHBOR_DENSITY_THRESHOLD in float
        def verdict(minmed_j):
            d = np.full((8, 8), 0.05)  # cross distances
            d[:4, :4] = 0.1
            d[0, 1] = d[1, 0] = d[2, 3] = d[3, 2] = 0.0
            d[4:, 4:] = 0.01
            d[4, 5] = d[5, 4] = d[6, 7] = d[7, 6] = minmed_j
            np.fill_diagonal(d, 0.0)
            matrix = make_matrix(d)
            c_i, c_j = clusters_from([range(4), range(4, 8)]).clusters
            stats_i, stats_j = ensure_stats(matrix, c_i), ensure_stats(matrix, c_j)
            assert (stats_i.minmed, stats_j.minmed) == (0.0, minmed_j)
            link = link_segments(matrix, c_i, c_j)
            # the link is well inside the bound, so the minmed difference decides
            assert link.d_link < (stats_j.minmed / stats_j.mean_pairwise) / 2
            return condition2(matrix, c_i, c_j, link)

        assert abs(0.0 - 0.002) == NEIGHBOR_DENSITY_THRESHOLD
        assert not verdict(0.002)
        assert verdict(np.nextafter(0.002, 0.0))

    def test_equal_sizes_take_the_first_clusters_radius(self):
        # A's d_max is 0.4, so its radius 0.2 holds both link members'
        # neighbours at 0.03; B's d_max is 0.04, and its radius 0.02 holds none
        d = np.full((8, 8), 0.9)  # cross distances
        d[:4, :4] = 0.4
        d[4:, 4:] = 0.04
        d[0, 1:4] = d[1:4, 0] = d[4, 5:] = d[5:, 4] = 0.03
        d[0, 4] = d[4, 0] = 0.1
        np.fill_diagonal(d, 0.0)
        matrix = make_matrix(d)
        c_a, c_b = clusters_from([range(4), range(4, 8)]).clusters
        assert len(c_a.members) == len(c_b.members)
        assert (ensure_stats(matrix, c_a).d_max, ensure_stats(matrix, c_b).d_max) == (0.4, 0.04)
        assert condition1(matrix, c_a, c_b, link_segments(matrix, c_a, c_b))
        assert not condition1(matrix, c_b, c_a, link_segments(matrix, c_b, c_a))

    def test_conditions_match_direct_formula_oracle(self, rng):
        for _ in range(100):
            d = symmetric_random(12, rng, low=0.01, high=0.9)
            matrix = make_matrix(d)
            left = sorted(rng.choice(12, size=5, replace=False).tolist())
            right = sorted(set(range(12)) - set(left))
            clustering = clusters_from([left, right])
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
        clustering = clusters_from([list(range(4)), list(range(4, 8))])
        merged = merge_pass(matrix, clustering)
        assert [c.members for c in merged.clusters] == [c.members for c in clustering.clusters]

    def test_split_blob_is_unified(self):
        d = uniform_blob_matrix(16)
        matrix = make_matrix(d)
        clustering = clusters_from([list(range(8)), list(range(8, 16))])
        merged = merge_pass(matrix, clustering)
        assert [c.members for c in merged.clusters] == [list(range(16))]

    def test_three_way_chain_merges_transitively(self):
        d = uniform_blob_matrix(18, seed=8)
        matrix = make_matrix(d)
        clustering = clusters_from(
            [list(range(6)), list(range(6, 12)), list(range(12, 18))]
        )
        merged = merge_pass(matrix, clustering)
        assert [c.members for c in merged.clusters] == [list(range(18))]

    def test_idempotent_at_fixpoint(self):
        d = uniform_blob_matrix(16)
        matrix = make_matrix(d)
        clustering = clusters_from([list(range(8)), list(range(8, 16))])
        once = merge_pass(matrix, clustering)
        twice = merge_pass(matrix, once)
        assert [c.members for c in twice.clusters] == [c.members for c in once.clusters]

    def test_noise_untouched(self):
        d = uniform_blob_matrix(10)
        matrix = make_matrix(d)
        clustering = clusters_from([[0, 1, 2, 3], [4, 5, 6]], noise=[7, 8, 9])
        merged = merge_pass(matrix, clustering)
        assert merged.noise == [7, 8, 9]

    @pytest.mark.parametrize("sequence", [list, np.array])
    def test_merged_members_join_whatever_holds_them(self, sequence):
        # equal densities merge by condition 2; array members must not add up
        d = np.full((4, 4), 0.01)
        np.fill_diagonal(d, 0.0)
        clustering = Clustering([Cluster(sequence([0, 1])), Cluster(sequence([2, 3]))], [])
        merged = merge_pass(make_matrix(d), clustering)
        assert [list(c.members) for c in merged.clusters] == [[0, 1, 2, 3]]


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
            merged = merge_pass(matrix, clusters_from(member_sets))
            expected = restart_scan_reference(d.tolist(), member_sets)
            assert [c.members for c in merged.clusters] == expected, seed
            for cluster in merged.clusters:  # stats that travel with a cluster are its own
                fresh = cluster_stats(matrix, Cluster(cluster.members))
                assert ensure_stats(matrix, cluster) == fresh
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
        merged = merge_pass(matrix, clusters_from(member_sets))
        split_pass(matrix, merged)
        assert len(merged.clusters) < len(member_sets)
        assert max(measured.values()) == 1
        # every evaluated pair builds its link pair once, for both conditions
        assert len(linked) > len(member_sets) and max(linked.values()) == 1


class TestSplitPass:
    def test_all_unique_values_do_not_split(self):
        d = uniform_blob_matrix(10)
        matrix = make_matrix(d)  # every value occurs once: sigma = 0
        clustering = clusters_from([list(range(10))])
        result = split_pass(matrix, clustering)
        assert [c.members for c in result.clusters] == [list(range(10))]

    def test_frequent_value_splits_at_pivot(self):
        # 95 unique values plus one value occurring 100 times
        counts = [1] * 95 + [100]
        d = uniform_blob_matrix(96, seed=12)
        matrix = make_matrix(d, member_counts=counts)
        clustering = clusters_from([list(range(96))])

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
        clustering = clusters_from([list(range(20))])
        result = split_pass(matrix, clustering)
        assert [len(c.members) for c in result.clusters] == [20]

    def test_membership_preserved_across_split(self, rng):
        counts = [int(c) for c in rng.integers(1, 120, size=40)]
        d = symmetric_random(40, rng)
        matrix = make_matrix(d, member_counts=counts)
        clustering = clusters_from([list(range(40))])
        result = split_pass(matrix, clustering)
        union = sorted(m for c in result.clusters for m in c.members)
        assert union == list(range(40))

    def test_split_matches_formula_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 30))
            counts = [int(c) for c in rng.integers(1, 60, size=n)]
            d = symmetric_random(n, rng)
            matrix = make_matrix(d, member_counts=counts)
            clustering = clusters_from([list(range(n))])
            result = split_pass(matrix, clustering)

            pivot = math.log(sum(counts))
            should_split = (
                percent_rank_reference(counts, pivot) > 95
                and population_std_reference(counts) > pivot
                and any(c <= pivot for c in counts)
                and any(c > pivot for c in counts)
            )
            assert (len(result.clusters) == 2) == should_split


@st.composite
def polarized_counts(draw):
    """k ones and up to k // 19 counts of 1 to 10**6, shuffled: the percent
    rank below the pivot falls on both sides of 95 and on it."""
    k = draw(st.integers(20, 300))
    others = draw(st.lists(st.integers(1, 10**6), max_size=k // 19))
    return draw(st.permutations([1] * k + others))


@settings(derandomize=True, deadline=None)
@given(polarized_counts())
def test_split_fires_exactly_on_the_rule(counts):
    n = len(counts)
    # split_pass reads only the counts, so the values carry no segments
    values = Values([bytes([i // 256, i % 256]) for i in range(n)], np.full(n, 2),
                    np.array(counts), np.empty(0, dtype=np.int64))
    matrix = DissimilarityMatrix(values, condensed(np.zeros((n, n))), np.arange(n))
    pivot = math.log(sum(counts))
    fires = percent_rank_reference(counts, pivot) > 95 and population_std_reference(counts) > pivot
    event(f"split: {fires}")

    result = split_pass(matrix, clusters_from([list(range(n))]))
    assert (len(result.clusters) == 2) == fires
    if fires:
        low = next(c for c in result.clusters if counts[c.members[0]] <= pivot)
        assert low.members == [m for m in range(n) if counts[m] <= pivot]
        assert all(c.members for c in result.clusters)
    assert sorted(m for c in result.clusters for m in c.members) == list(range(n))


def test_merge_terminates_and_decreases_cluster_count(rng):
    d = uniform_blob_matrix(20, seed=21)
    matrix = make_matrix(d)
    clustering = clusters_from([[i, i + 1] for i in range(0, 20, 2)])
    merged = merge_pass(matrix, clustering)
    assert len(merged.clusters) <= len(clustering.clusters)
    everything = sorted(m for c in merged.clusters for m in c.members)
    assert everything == list(range(20))


def tied_fragments(seed: int):
    """Two blobs of tied cells cut into interleaved clusters.

    Cells inside a blob take two levels, the lower one rarely, so a cluster
    pair's closest pairs tie at places that do not follow member order, and
    the blobs differ in density, so their fragments merge among themselves and
    never across. Returns (d, member sets).
    """
    rng = np.random.default_rng(seed)
    n = 48
    blob = rng.permutation(n) % 2  # which blob each value is in
    levels = np.where(blob[:, None] == 0, 0.01, 0.05)
    d = np.where(blob[:, None] == blob, levels * np.where(rng.random((n, n)) < 0.15, 1, 2), 0.5)
    d = np.triu(d, 1)
    d = d + d.T
    fragment = rng.integers(0, 4, size=n) + 4 * blob
    return d, [np.flatnonzero(fragment == f).tolist() for f in range(8) if (fragment == f).any()]


class TestLinkReuse:
    @staticmethod
    def spy(monkeypatch):
        """Lists that the pass fills: the member lists of every fresh link, and
        (rows, columns, link) of every link the merge conditions are given."""
        from typeclust import refinement

        linked, used = [], []
        original_link, original_condition = refinement.link_segments, refinement.condition1

        def linking(matrix, c_i, c_j):
            linked.append((c_i.members, c_j.members))
            return original_link(matrix, c_i, c_j)

        def condition(matrix, c_i, c_j, link):
            used.append((c_i.members, c_j.members, link))
            return original_condition(matrix, c_i, c_j, link)

        monkeypatch.setattr(refinement, "link_segments", linking)
        monkeypatch.setattr(refinement, "condition1", condition)
        return linked, used

    @pytest.mark.parametrize("chunk", [24, dissimilarity._CHUNK_CELLS])  # 24: ties across chunks
    def test_every_derived_link_is_a_fresh_closest(self, monkeypatch, chunk):
        monkeypatch.setattr(dissimilarity, "_CHUNK_CELLS", chunk)
        linked, used = self.spy(monkeypatch)
        orientations, ties, merges = Counter(), Counter(), 0
        for seed in range(6):
            d, member_sets = tied_fragments(seed)
            matrix = make_matrix(d)
            linked.clear()
            used.clear()
            merged = merge_pass(matrix, clusters_from(member_sets))
            assert [c.members for c in merged.clusters] == restart_scan_reference(
                d.tolist(), member_sets)
            merges += len(member_sets) - len(merged.clusters)
            originals = {tuple(sorted(m)) for m in member_sets}
            fresh = {(tuple(rows), tuple(cols)) for rows, cols in linked}
            for rows, cols, link in used:
                a, b, d_link = matrix.closest(rows, cols)
                assert (link.s_link_ij, link.s_link_ji, link.d_link) == (rows[a], cols[b], d_link)
                if (tuple(rows), tuple(cols)) not in fresh:  # derived from the parts' links
                    orientations["rows"] += tuple(rows) not in originals
                    orientations["cols"] += tuple(cols) not in originals
                    ties["tied"] += int((d[np.ix_(rows, cols)] == d_link).sum() > 1)
        assert merges >= 20
        # derived links of a merged cluster giving the rows and giving the columns,
        # most of them with tied closest pairs
        assert orientations["rows"] >= 5 and orientations["cols"] >= 5, orientations
        assert ties["tied"] >= 20, ties

    def test_a_link_kept_only_the_other_way_is_linked_afresh(self, monkeypatch):
        # x and y merge into M1; c_i then merges with M1, and M2's link with c_k
        # needs M1 as the rows, while only (c_k, M1) is kept: its tied pairs,
        # all at 0.9, give a different first row-major minimum each way round
        c_i, c_k, x, y = [0, 4, 5], [1, 6, 7], [2, 8, 9], [3, 10, 11]
        d = np.zeros((12, 12))
        for members, cell in ((c_i, 0.1), (c_k, 0.02), (x, 0.3), (y, 0.3)):
            d[np.ix_(members, members)] = cell
        for left, right, cell in ((x, y, 0.1), (c_i, x + y, 0.35), (c_k, x + y, 0.9),
                                  (c_i, c_k, 0.95)):
            d[np.ix_(left, right)] = d[np.ix_(right, left)] = cell
        np.fill_diagonal(d, 0.0)
        linked, used = self.spy(monkeypatch)
        matrix = make_matrix(d)
        merged = merge_pass(matrix, clusters_from([c_i, c_k, x, y]))
        expected = [sorted(c_i + x + y), c_k]
        assert [c.members for c in merged.clusters] == expected
        assert restart_scan_reference(d.tolist(), [c_i, c_k, x, y]) == expected
        assert (sorted(x + y), c_k) in linked  # M1 as the rows, linked afresh
        rows, cols, link = used[-1]
        assert (rows, cols) == (sorted(c_i + x + y), c_k)
        assert (link.s_link_ij, link.s_link_ji, link.d_link) == (2, 1, 0.9)
        a, b, d_link = matrix.closest(rows, cols)
        assert (rows[a], cols[b], d_link) == (2, 1, 0.9)

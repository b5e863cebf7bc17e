"""DBSCAN on precomputed dissimilarities and per-cluster statistics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_matrix, symmetric_random, cluster_of
from oracles import cluster_stats_reference, naive_dbscan
from typeclust.clustering import cluster_stats, dbscan


def partition_of(clustering):
    clusters = {frozenset(c.members) for c in clustering.clusters}
    return clusters, frozenset(clustering.noise)


class TestDbscan:
    def test_single_dense_cluster(self):
        d = np.full((5, 5), 0.01)
        np.fill_diagonal(d, 0.0)
        clustering = dbscan(make_matrix(d), epsilon=0.1, min_samples=2)
        assert [c.members for c in clustering.clusters] == [[0, 1, 2, 3, 4]]
        assert clustering.noise == []

    def test_all_noise(self):
        d = np.full((5, 5), 0.9)
        np.fill_diagonal(d, 0.0)
        clustering = dbscan(make_matrix(d), epsilon=0.1, min_samples=2)
        assert clustering.clusters == []
        assert clustering.noise == [0, 1, 2, 3, 4]

    def test_closed_ball_neighborhood(self):
        # distances exactly at epsilon count as neighbors
        d = np.array([[0.0, 0.1], [0.1, 0.0]])
        clustering = dbscan(make_matrix(d), epsilon=0.1, min_samples=2)
        assert [c.members for c in clustering.clusters] == [[0, 1]]

    def test_min_samples_includes_the_point_itself(self):
        d = np.array([[0.0, 0.05], [0.05, 0.0]])
        clustering = dbscan(make_matrix(d), epsilon=0.1, min_samples=2)
        assert len(clustering.clusters) == 1  # each point has itself + 1 neighbor

    def test_border_point_attaches_to_lowest_core(self):
        # cores 0-3 and 4-7 form two clusters; point 8 has only 3 points
        # within epsilon (itself, 3 and 5), so it is a border point of both
        d = np.full((9, 9), 1.0)
        d[:4, :4] = d[4:8, 4:8] = 0.05
        d[3, 8] = d[8, 3] = 0.09
        d[5, 8] = d[8, 5] = 0.08
        np.fill_diagonal(d, 0.0)
        clustering = dbscan(make_matrix(d), epsilon=0.1, min_samples=4)
        # core 3 < core 5, although 5 is the closer one
        assert [c.members for c in clustering.clusters] == [[0, 1, 2, 3, 8], [4, 5, 6, 7]]

    def test_cluster_ids_follow_lowest_member(self):
        d = np.full((6, 6), 1.0)
        # cluster made of {2,3} and cluster {0,5}; border/none else
        for a, b in [(2, 3), (0, 5)]:
            d[a, b] = d[b, a] = 0.05
        np.fill_diagonal(d, 0.0)
        clustering = dbscan(make_matrix(d), epsilon=0.1, min_samples=2)
        assert [c.members for c in clustering.clusters] == [[0, 5], [2, 3]]
        assert [c.id for c in clustering.clusters] == [0, 1]

    def test_matches_naive_reference(self, rng):
        for trial in range(30):
            n = int(rng.integers(5, 31))
            d = symmetric_random(n, rng)
            matrix = make_matrix(d)
            for epsilon, min_samples in [(0.1, 2), (0.3, 3), (0.5, 4), (0.7, 2), (0.9, 5)]:
                mine = partition_of(dbscan(matrix, epsilon, min_samples))
                reference = naive_dbscan(d.tolist(), epsilon, min_samples)
                assert mine == reference, (trial, epsilon, min_samples)

    def test_permutation_invariance_up_to_relabeling(self, rng):
        d = symmetric_random(15, rng)
        perm = rng.permutation(15)
        matrix = make_matrix(d)
        permuted = make_matrix(d[np.ix_(perm, perm)])
        base_clusters, base_noise = partition_of(dbscan(matrix, 0.4, 3))
        perm_clusters, perm_noise = partition_of(dbscan(permuted, 0.4, 3))
        # member j of the permuted matrix is original index perm[j]
        mapped = {frozenset(int(perm[m]) for m in c) for c in perm_clusters}
        assert mapped == {frozenset(int(x) for x in c) for c in base_clusters}
        assert frozenset(int(perm[i]) for i in perm_noise) == base_noise

    def test_parameter_validation(self):
        matrix = make_matrix([[0.0, 0.1], [0.1, 0.0]])
        with pytest.raises(ValueError):
            dbscan(matrix, 0.0, 1)
        with pytest.raises(ValueError):
            dbscan(matrix, 0.1, 0)
        with pytest.raises(ValueError):
            dbscan(matrix, 0.1, 3)

    def test_partition_property(self, rng):
        d = symmetric_random(25, rng)
        clustering = dbscan(make_matrix(d), 0.35, 3)
        everything = sorted(
            [m for c in clustering.clusters for m in c.members] + clustering.noise
        )
        assert everything == list(range(25))


LEVELS = (0.1, 0.2, 0.3, 0.5, 0.9)  # few levels: ties, and distances exactly at epsilon


@st.composite
def tied_matrices(draw):
    n = draw(st.integers(2, 14))
    cells = draw(st.lists(st.sampled_from(LEVELS), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    d = np.zeros((n, n))
    d[np.triu_indices(n, k=1)] = cells
    d = d + d.T
    return d, draw(st.sampled_from(LEVELS)), draw(st.integers(1, n))


@st.composite
def bridged_cliques(draw):
    """Cliques of cores plus border points at exactly epsilon from cores of
    several cliques, in a shuffled order; returns (d, epsilon, min_samples)."""
    size = draw(st.integers(3, 6))  # clique size, and min_samples
    cliques = draw(st.integers(2, 4))
    borders = draw(st.integers(1, 4))
    cores, n = size * cliques, size * cliques + borders
    d = np.full((n, n), 0.9)
    for start in range(0, cores, size):
        d[start : start + size, start : start + size] = 0.1
    for border in range(cores, n):
        # at most size - 2 links keep the border point below min_samples
        links = draw(st.lists(st.integers(0, n - 1), max_size=size - 2, unique=True))
        for other in links:
            d[border, other] = d[other, border] = draw(st.sampled_from((0.2, 0.3)))
    np.fill_diagonal(d, 0.0)
    order = np.array(draw(st.permutations(range(n))))
    return d[np.ix_(order, order)], 0.2, size


class TestDbscanProperties:
    @settings(max_examples=200, deadline=None)
    @given(bridged_cliques())
    def test_matches_naive_reference_on_shared_borders(self, case):
        d, epsilon, min_samples = case
        assert partition_of(dbscan(make_matrix(d), epsilon, min_samples)) == naive_dbscan(
            d, epsilon, min_samples
        )

    @settings(max_examples=300, deadline=None)
    @given(tied_matrices())
    def test_matches_naive_reference_on_tied_distances(self, case):
        d, epsilon, min_samples = case
        assert partition_of(dbscan(make_matrix(d), epsilon, min_samples)) == naive_dbscan(
            d, epsilon, min_samples
        )

    def test_border_reachable_from_three_clusters(self):
        # three 5-cliques of cores; 15 lies exactly at epsilon from cores
        # 14, 9 and 4, is no core itself, and must join the cluster of core 4
        d = np.full((16, 16), 0.9)
        for start in (0, 5, 10):
            d[start : start + 5, start : start + 5] = 0.1
        for core in (14, 9, 4):
            d[core, 15] = d[15, core] = 0.2
        np.fill_diagonal(d, 0.0)
        clustering = dbscan(make_matrix(d), epsilon=0.2, min_samples=5)
        assert [c.members for c in clustering.clusters] == [
            [0, 1, 2, 3, 4, 15], list(range(5, 10)), list(range(10, 15))
        ]
        assert partition_of(clustering) == naive_dbscan(d, 0.2, 5)

    def test_stats_are_left_for_first_use(self):
        d = np.full((4, 4), 0.05)
        np.fill_diagonal(d, 0.0)
        clustering = dbscan(make_matrix(d), epsilon=0.1, min_samples=2)
        assert [c.stats for c in clustering.clusters] == [None]


class TestClusterStats:
    def test_two_members(self):
        matrix = make_matrix([[0.0, 0.2], [0.2, 0.0]])
        stats = cluster_stats(matrix, cluster_of([0, 1]))
        assert (stats.mean_pairwise, stats.minmed, stats.d_max) == (0.2, 0.2, 0.2)

    def test_three_member_hand_enumeration(self):
        d = np.array([[0.0, 0.1, 0.1], [0.1, 0.0, 0.3], [0.1, 0.3, 0.0]])
        stats = cluster_stats(make_matrix(d), cluster_of([0, 1, 2]))
        assert stats.mean_pairwise == pytest.approx((0.1 + 0.1 + 0.3) / 3)
        assert stats.minmed == pytest.approx(0.1)  # nearest per member: 0.1, 0.1, 0.1
        assert stats.d_max == 0.3

    def test_random_cluster_matches_formula_oracle(self, rng):
        d = symmetric_random(12, rng)
        matrix = make_matrix(d)
        members = [0, 2, 5, 7, 8, 11]
        stats = cluster_stats(matrix, cluster_of(members))
        mean, minmed, d_max = cluster_stats_reference(d.tolist(), members)
        assert stats.mean_pairwise == pytest.approx(mean, abs=1e-12)
        assert stats.minmed == pytest.approx(minmed, abs=1e-12)
        assert stats.d_max == pytest.approx(d_max, abs=1e-12)

    def test_singleton_stats_are_zero(self):
        matrix = make_matrix([[0.0, 0.4], [0.4, 0.0]])
        stats = cluster_stats(matrix, cluster_of([1]))
        assert (stats.mean_pairwise, stats.minmed, stats.d_max) == (0.0, 0.0, 0.0)

"""DBSCAN on precomputed dissimilarities and per-cluster statistics."""

from __future__ import annotations

import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (condensed, dbscan_of, make_matrix, pairs_within, symmetric_random,
                      cluster_of, traced_peak)
from oracles import cluster_stats_reference, naive_dbscan
from typeclust import dissimilarity
from typeclust.autoconf import nearest_table
from typeclust.clustering import (ClusterStats, _component_roots, _core_points, cluster_stats,
                                  dbscan)
from typeclust.dissimilarity import DissimilarityMatrix


def partition_of(clustering):
    clusters = {frozenset(c.members) for c in clustering.clusters}
    return clusters, frozenset(clustering.noise)


class TestDbscan:
    def test_single_dense_cluster(self):
        d = np.full((5, 5), 0.01)
        np.fill_diagonal(d, 0.0)
        clustering = dbscan_of(make_matrix(d), epsilon=0.1, min_samples=2)
        assert [c.members for c in clustering.clusters] == [[0, 1, 2, 3, 4]]
        assert clustering.noise == []

    def test_all_noise(self):
        d = np.full((5, 5), 0.9)
        np.fill_diagonal(d, 0.0)
        clustering = dbscan_of(make_matrix(d), epsilon=0.1, min_samples=2)
        assert clustering.clusters == []
        assert clustering.noise == [0, 1, 2, 3, 4]

    def test_closed_ball_neighborhood(self):
        # distances exactly at epsilon count as neighbors
        d = np.array([[0.0, 0.1], [0.1, 0.0]])
        clustering = dbscan_of(make_matrix(d), epsilon=0.1, min_samples=2)
        assert [c.members for c in clustering.clusters] == [[0, 1]]

    def test_min_samples_includes_the_point_itself(self):
        d = np.array([[0.0, 0.05], [0.05, 0.0]])
        clustering = dbscan_of(make_matrix(d), epsilon=0.1, min_samples=2)
        assert len(clustering.clusters) == 1  # each point has itself + 1 neighbor

    def test_border_point_attaches_to_lowest_core(self):
        # cores 0-3 and 4-7 form two clusters; point 8 has only 3 points
        # within epsilon (itself, 3 and 5), so it is a border point of both
        d = np.full((9, 9), 1.0)
        d[:4, :4] = d[4:8, 4:8] = 0.05
        d[3, 8] = d[8, 3] = 0.09
        d[5, 8] = d[8, 5] = 0.08
        np.fill_diagonal(d, 0.0)
        clustering = dbscan_of(make_matrix(d), epsilon=0.1, min_samples=4)
        # core 3 < core 5, although 5 is the closer one
        assert [c.members for c in clustering.clusters] == [[0, 1, 2, 3, 8], [4, 5, 6, 7]]

    def test_cluster_ids_follow_lowest_member(self):
        d = np.full((6, 6), 1.0)
        # cluster made of {2,3} and cluster {0,5}; border/none else
        for a, b in [(2, 3), (0, 5)]:
            d[a, b] = d[b, a] = 0.05
        np.fill_diagonal(d, 0.0)
        clustering = dbscan_of(make_matrix(d), epsilon=0.1, min_samples=2)
        assert [c.members for c in clustering.clusters] == [[0, 5], [2, 3]]

    def test_border_point_below_its_cores_orders_its_cluster(self):
        # cores {1, 2, 3} form the first component, cores {4, 5, 6} the second;
        # border 0 reaches only core 4, so the second cluster has the lowest member
        d = np.full((7, 7), 1.0)
        for group in ([1, 2, 3], [4, 5, 6]):
            d[np.ix_(group, group)] = 0.05
        d[0, 4] = d[4, 0] = 0.05
        np.fill_diagonal(d, 0.0)
        clustering = dbscan_of(make_matrix(d), epsilon=0.1, min_samples=3)
        assert [c.members for c in clustering.clusters] == [[0, 4, 5, 6], [1, 2, 3]]

    def test_matches_naive_reference(self, rng):
        for trial in range(30):
            n = int(rng.integers(5, 31))
            d = symmetric_random(n, rng)
            matrix = make_matrix(d)
            # min_samples 1 makes every point a core, min_samples n needs a full row
            for epsilon, min_samples in [(0.1, 2), (0.3, 3), (0.5, 4), (0.7, 2), (0.9, 5),
                                         (0.3, 1), (0.7, 1), (0.9, n), (1.0, n)]:
                mine = partition_of(dbscan_of(matrix, epsilon, min_samples))
                reference = naive_dbscan(d.tolist(), epsilon, min_samples)
                assert mine == reference, (trial, epsilon, min_samples)

    def test_permutation_invariance_up_to_relabeling(self, rng):
        d = symmetric_random(15, rng)
        perm = rng.permutation(15)
        matrix = make_matrix(d)
        permuted = make_matrix(d[np.ix_(perm, perm)])
        base_clusters, base_noise = partition_of(dbscan_of(matrix, 0.4, 3))
        perm_clusters, perm_noise = partition_of(dbscan_of(permuted, 0.4, 3))
        # member j of the permuted matrix is original index perm[j]
        mapped = {frozenset(int(perm[m]) for m in c) for c in perm_clusters}
        assert mapped == {frozenset(int(x) for x in c) for c in base_clusters}
        assert frozenset(int(perm[i]) for i in perm_noise) == base_noise

    def test_parameter_validation(self):
        matrix = make_matrix([[0.0, 0.1], [0.1, 0.0]])
        with pytest.raises(ValueError):
            dbscan(matrix, 0.0, 1, matrix.nearest(1))
        with pytest.raises(ValueError):
            dbscan(matrix, 0.1, 0, matrix.nearest(1))
        with pytest.raises(ValueError):
            dbscan(matrix, 0.1, 3, matrix.nearest(1))

    def test_partition_property(self, rng):
        d = symmetric_random(25, rng)
        clustering = dbscan_of(make_matrix(d), 0.35, 3)
        everything = sorted(
            [m for c in clustering.clusters for m in c.members] + clustering.noise
        )
        assert everything == list(range(25))

    def test_pair_list_bounds_the_temporaries(self, rng):
        d = symmetric_random(2000, rng, low=0.0, high=1.0)
        matrix = make_matrix(d)
        del d
        clustering, peak = traced_peak(dbscan, matrix, 0.08, 8, matrix.nearest(7))
        heads, tails = pairs_within(matrix, 0.08)
        pairs = heads.size
        assert 150_000 < pairs < 170_000
        assert [len(c.members) for c in clustering.clusters] == [2000]
        # the pairs are two int32 ends, 8 B a pair: 1.3 MB if they were all held at once
        assert heads.nbytes + tails.nbytes == 8 * pairs
        assert peak < 4e6

    def test_every_pair_within_epsilon_holds_no_pair_list(self, rng):
        # all 1,999,000 pairs lie within epsilon: their int32 ends alone would
        # take 16 MB, where dbscan holds the scan's chunk, the edges not yet
        # folded and the fold's copies, each of about _CHUNK_CELLS pairs
        matrix = make_matrix(symmetric_random(2000, rng))
        clustering, peak = traced_peak(dbscan, matrix, 1.0, 8, matrix.nearest(7))
        assert [len(c.members) for c in clustering.clusters] == [2000]
        assert sum(chunk.size for chunk, _ in matrix.within(1.0)) == 1_999_000
        assert peak < 2.5e6

    def test_components_keep_one_copy_of_the_core_edges(self):
        # bridged cliques: 8 cliques of 150 cores, every pair of a clique an
        # edge, and 40 border points that reach 3 cores each, in shuffled order
        rng = np.random.default_rng(0)
        cliques, size, borders = 8, 150, 40
        cores = cliques * size
        d = np.full((cores + borders, cores + borders), 0.9)
        for start in range(0, cores, size):
            d[start : start + size, start : start + size] = 0.1
        for border in range(cores, cores + borders):
            linked = rng.choice(cores, size=3, replace=False)
            d[border, linked] = d[linked, border] = 0.2
        np.fill_diagonal(d, 0.0)
        order = rng.permutation(len(d))
        matrix = make_matrix(d[np.ix_(order, order)])
        heads, tails = pairs_within(matrix, 0.2)
        pairs = heads.size
        core = np.bincount(heads, minlength=len(d)) + np.bincount(tails, minlength=len(d)) >= 4
        both = core[heads] & core[tails]
        low, high = heads[both], tails[both]
        parent = np.arange(len(d), dtype=np.int32)
        roots, peak = traced_peak(_component_roots, parent, low, high)
        assert np.unique(roots[core]).size == cliques
        assert np.array_equal(roots[roots], roots)  # every node points at its root
        # folding the same edges again changes nothing
        assert np.array_equal(_component_roots(roots.copy(), low, high), roots)
        clustering = dbscan_of(matrix, 0.2, 5)
        assert len(clustering.clusters) == cliques and clustering.noise == []
        assert sum(len(c.members) for c in clustering.clusters) == len(d)
        # the core edges are two int32 ends, 8 B a pair, and a round gathers
        # their roots one end at a time; holding the core masks, the filtered
        # edges and both ends' roots at once took 18 B a pair
        assert peak < 15 * pairs


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


@st.composite
def chains_and_stars(draw):
    """A path of 50-400 points and a star, in shuffled index order; returns
    (d, epsilon, min_samples). Neighbours along the path sit far apart in
    index order, so joining its cores takes several hook-and-jump rounds.
    With min_samples 3 the path's two ends and the star's leaves are border
    points; with 2 every point in them is a core."""
    path = draw(st.integers(50, 400))
    leaves = draw(st.integers(2, 30))
    noise = draw(st.integers(0, 3))
    n = path + 1 + leaves + noise
    d = np.full((n, n), 0.9)
    steps = np.arange(path - 1)
    d[steps, steps + 1] = d[steps + 1, steps] = draw(st.sampled_from((0.1, 0.2)))
    center, tips = path, np.arange(path + 1, path + 1 + leaves)
    d[center, tips] = d[tips, center] = 0.2
    np.fill_diagonal(d, 0.0)
    order = np.array(draw(st.permutations(range(n))))
    return d[np.ix_(order, order)], 0.2, draw(st.sampled_from((2, 3)))


class TestDbscanProperties:
    @settings(max_examples=25, deadline=None)
    @given(chains_and_stars())
    def test_matches_naive_reference_on_chains_and_stars(self, case):
        d, epsilon, min_samples = case
        assert partition_of(dbscan_of(make_matrix(d), epsilon, min_samples)) == naive_dbscan(
            d, epsilon, min_samples
        )

    @settings(max_examples=200, deadline=None)
    @given(bridged_cliques())
    def test_matches_naive_reference_on_shared_borders(self, case):
        d, epsilon, min_samples = case
        assert partition_of(dbscan_of(make_matrix(d), epsilon, min_samples)) == naive_dbscan(
            d, epsilon, min_samples
        )

    @settings(max_examples=300, deadline=None)
    @given(tied_matrices())
    def test_matches_naive_reference_on_tied_distances(self, case):
        d, epsilon, min_samples = case
        assert partition_of(dbscan_of(make_matrix(d), epsilon, min_samples)) == naive_dbscan(
            d, epsilon, min_samples
        )

    @settings(max_examples=300, deadline=None)
    @given(case=st.one_of(tied_matrices(), bridged_cliques()), data=st.data())
    def test_permutation_keeps_noise_and_core_partition(self, case, data):
        d, epsilon, min_samples = case
        perm = np.array(data.draw(st.permutations(range(len(d))), label="perm"))
        core = np.count_nonzero(d <= epsilon, axis=1) >= min_samples
        base = dbscan_of(make_matrix(d), epsilon, min_samples)
        moved = dbscan_of(make_matrix(d[np.ix_(perm, perm)]), epsilon, min_samples)
        # member j of the permuted matrix is original index perm[j]
        back = [[int(perm[m]) for m in c.members] for c in moved.clusters]
        assert sorted(int(perm[m]) for m in moved.noise) == base.noise

        def core_partition(member_sets):
            return {frozenset(m for m in members if core[m]) for members in member_sets}

        assert core_partition(back) == core_partition(c.members for c in base.clusters)
        # a tie between cores goes to the lowest index, which the permutation
        # may change, so a border point only needs a core of its cluster in reach
        for members in back:
            for point in members:
                assert core[point] or any(core[m] and d[point, m] <= epsilon for m in members)

    @settings(max_examples=100, deadline=None)
    @given(case=st.one_of(bridged_cliques(), chains_and_stars()), seed=st.integers(0, 2**32 - 1))
    def test_pair_order_does_not_reach_the_result(self, case, seed):
        d, epsilon, min_samples = case
        rng = np.random.default_rng(seed)
        base = dbscan_of(make_matrix(d), epsilon, min_samples)
        # 24-cell chunks, and edges folded 24 at a time: many chunks and many folds
        with mock.patch.object(dissimilarity, "_CHUNK_CELLS", 24):
            chunks = list(make_matrix(d).within(epsilon))
            heads, tails = (np.concatenate(ends) for ends in zip(*chunks))
            order = rng.permutation(heads.size)
            cuts = np.sort(rng.integers(0, heads.size + 1, size=len(chunks) - 1))
            fed = {
                "reversed": [(h[::-1], t[::-1]) for h, t in reversed(chunks)],
                "shuffled": list(zip(np.split(heads[order], cuts), np.split(tails[order], cuts))),
            }
            for name, pieces in fed.items():
                matrix = make_matrix(d)
                matrix.within = lambda eps, pieces=pieces: iter(pieces)
                moved = dbscan_of(matrix, epsilon, min_samples)
                assert [c.members for c in moved.clusters] == [c.members for c in base.clusters], name
                assert moved.noise == base.noise, name

    @settings(max_examples=300, deadline=None)
    @given(case=tied_matrices(), data=st.data())
    def test_core_points_are_the_degree_count(self, case, data):
        d, epsilon, _ = case
        n = len(d)
        min_samples = data.draw(st.integers(1, n), label="min_samples")
        order = np.array(data.draw(st.permutations(range(n)), label="order"))
        matrix = DissimilarityMatrix(make_matrix(d).values, condensed(d[np.ix_(order, order)]),
                                     order)
        width = data.draw(st.integers(max(1, min_samples - 1), n - 1), label="table width")
        degree = np.count_nonzero(d <= epsilon, axis=1) - 1  # the zero diagonal is the point
        core = _core_points(matrix.nearest(width), epsilon, min_samples)
        assert np.array_equal(core, degree >= min_samples - 1)

    def test_a_wide_core_test_needs_a_table_as_wide(self, rng):
        d = symmetric_random(400, rng)
        matrix = make_matrix(d)
        degree = np.count_nonzero(d <= 0.5, axis=1) - 1
        for min_samples in (400, 200):  # 399 and 199 ranks, each wider than a run's table
            core = _core_points(matrix.nearest(min_samples - 1), 0.5, min_samples)
            assert np.array_equal(core, degree >= min_samples - 1)
        assert partition_of(dbscan(matrix, 0.5, 400, matrix.nearest(399))) == naive_dbscan(
            d, 0.5, 400)
        # the run's table holds round(ln 400) = 6 ranks: enough for min_samples 7, not 8
        assert partition_of(dbscan(matrix, 0.5, 7, nearest_table(matrix))) == naive_dbscan(
            d, 0.5, 7)
        with pytest.raises(ValueError, match=r"in \[1, 7\] for a k-NN table of 6 ranks, got 8"):
            dbscan(matrix, 0.5, 8, nearest_table(matrix))

    def test_border_reachable_from_three_clusters(self):
        # three 5-cliques of cores; 15 lies exactly at epsilon from cores
        # 14, 9 and 4, is no core itself, and must join the cluster of core 4
        d = np.full((16, 16), 0.9)
        for start in (0, 5, 10):
            d[start : start + 5, start : start + 5] = 0.1
        for core in (14, 9, 4):
            d[core, 15] = d[15, core] = 0.2
        np.fill_diagonal(d, 0.0)
        clustering = dbscan_of(make_matrix(d), epsilon=0.2, min_samples=5)
        assert [c.members for c in clustering.clusters] == [
            [0, 1, 2, 3, 4, 15], list(range(5, 10)), list(range(10, 15))
        ]
        assert partition_of(clustering) == naive_dbscan(d, 0.2, 5)

    def test_stats_are_left_for_first_use(self):
        d = np.full((4, 4), 0.05)
        np.fill_diagonal(d, 0.0)
        clustering = dbscan_of(make_matrix(d), epsilon=0.1, min_samples=2)
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

    def test_dyadic_clusters_match_formula_oracle_exactly(self, rng):
        # entries are multiples of 1/1024, so every sum is exact in any order
        # and the mean, median and extent agree with the oracle bit for bit
        for size in (2, 3, 8, 9, 17, 40):
            n = size + 5
            d = np.triu(rng.integers(1, 1024, size=(n, n)) / 1024, k=1)
            d = d + d.T
            members = sorted(rng.choice(n, size=size, replace=False).tolist())
            stats = cluster_stats(make_matrix(d), cluster_of(members))
            expected = cluster_stats_reference(d.tolist(), members)
            assert (stats.mean_pairwise, stats.minmed, stats.d_max) == expected

    def test_singleton_stats_are_zero(self):
        matrix = make_matrix([[0.0, 0.4], [0.4, 0.0]])
        stats = cluster_stats(matrix, cluster_of([1]))
        assert (stats.mean_pairwise, stats.minmed, stats.d_max) == (0.0, 0.0, 0.0)

    # 24 cuts below numpy's 128-element pairwise block, 130 just above it
    @pytest.mark.parametrize("chunk", [24, 130, 1000, dissimilarity._CHUNK_CELLS])
    def test_pieces_keep_the_bits_of_the_gathered_block(self, rng, monkeypatch, chunk):
        # cells in [0.05, 0.95] with full mantissas, so most reorderings of
        # the sum change its last bits; the storage order is shuffled too
        monkeypatch.setattr(dissimilarity, "_CHUNK_CELLS", chunk)
        for size in (2, 3, 8, 9, 16, 17, 40, 129, 257, 400):
            n = size + 9
            d = symmetric_random(n, rng)
            order = rng.permutation(n)
            matrix = DissimilarityMatrix(make_matrix(d).values, condensed(d[np.ix_(order, order)]),
                                         order)
            members = sorted(rng.choice(n, size=size, replace=False).tolist())
            assert cluster_stats(matrix, cluster_of(members)) == cluster_stats_exact(d, members)

    def test_large_cluster_reads_no_square_block(self, rng):
        d = symmetric_random(1200, rng)
        matrix = make_matrix(d)
        members = sorted(rng.choice(1200, size=1000, replace=False).tolist())
        stats, peak = traced_peak(cluster_stats, matrix, cluster_of(members))
        assert stats == cluster_stats_exact(d, members)
        assert peak < 4e6  # the 1,000 x 1,000 block alone is 8 MB

    def test_stats_leave_nothing_holding_the_matrix(self, rng):
        # a reference cycle through the cells would keep the whole matrix
        # alive until the cycle collector runs
        matrix = make_matrix(symmetric_random(300, rng))
        cells = weakref.ref(matrix.d)
        gc.disable()
        try:
            cluster_stats(matrix, cluster_of(range(200)))
            del matrix
            assert cells() is None
        finally:
            gc.enable()


def cluster_stats_exact(d, members) -> ClusterStats:
    """The stats of the gathered block, in numpy's summation order."""
    block = d[np.ix_(members, members)]
    pairs = block[np.triu_indices(len(members), 1)]
    np.fill_diagonal(block, np.inf)
    return ClusterStats(float(pairs.mean()), float(np.median(block.min(axis=1))),
                        float(pairs.max()))

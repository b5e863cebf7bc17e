"""Automatic epsilon selection: k-NN ECDFs, spline smoothing, Kneedle."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_matrix, two_blob_matrix, symmetric_random
from typeclust.autoconf import (
    AutoConfig,
    EcdfCurve,
    SmoothCurve,
    ecdf,
    kneedle,
    knn_dissimilarities,
    retrim_epsilon,
    round_ln,
    select_epsilon,
    smooth_spline,
)
from typeclust.clustering import dbscan
from typeclust.errors import EmptyAnalysisError, NoKneeError


def test_round_ln_half_away_from_zero():
    assert round_ln(8) == 2  # ln 8 = 2.079
    assert round_ln(12) == 2  # ln 12 = 2.485
    assert round_ln(13) == 3  # ln 13 = 2.565
    assert round_ln(1000) == 7  # ln 1000 = 6.908


class TestKnn:
    def test_three_point_example(self):
        # d(0,1)=0.1, d(0,2)=0.2, d(1,2)=0.3 -> per-point minima
        matrix = make_matrix([[0.0, 0.1, 0.2], [0.1, 0.0, 0.3], [0.2, 0.3, 0.0]])
        assert knn_dissimilarities(matrix, 1).tolist() == [0.1, 0.1, 0.2]

    def test_k_max_is_row_maximum(self, rng):
        d = symmetric_random(8, rng)
        matrix = make_matrix(d)
        np.testing.assert_array_equal(
            knn_dissimilarities(matrix, 7),
            np.max(d + np.eye(8) * -1, axis=1),
        )

    def test_matches_row_sort_oracle(self, rng):
        d = symmetric_random(10, rng)
        matrix = make_matrix(d)
        for k in range(1, 10):
            expected = [sorted(d[i][j] for j in range(10) if j != i)[k - 1] for i in range(10)]
            assert knn_dissimilarities(matrix, k).tolist() == expected

    def test_every_rank_with_ties_matches_row_sort_oracle(self, rng):
        n = 11
        d = rng.choice([0.1, 0.2, 0.3, 0.7], size=(n, n))  # many tied distances
        d = np.triu(d, 1)
        d = d + d.T
        oracle = [sorted(d[i][j] for j in range(n) if j != i) for i in range(n)]
        for order in (range(1, n), range(n - 1, 0, -1)):
            matrix = make_matrix(d)  # fresh table: narrow first, then wide first
            for k in order:
                expected = [row[k - 1] for row in oracle]
                assert knn_dissimilarities(matrix, k).tolist() == expected

    def test_table_chunks_do_not_change_ranks(self, rng, monkeypatch):
        from typeclust import dissimilarity

        d = symmetric_random(13, rng)
        whole = make_matrix(d).nearest(12).copy()
        monkeypatch.setattr(dissimilarity, "_CHUNK_CELLS", 20)
        assert np.array_equal(make_matrix(d).nearest(12), whole)

    def test_select_epsilon_partitions_the_matrix_once(self, rng):
        matrix = make_matrix(two_blob_matrix(sizes=(20, 20), isolated=10))
        select_epsilon(matrix)
        table = matrix.nearest(1).base
        assert table.shape == (matrix.n, round_ln(matrix.n))
        for k in range(1, round_ln(matrix.n) + 1):
            knn_dissimilarities(matrix, k)
            assert matrix.nearest(k).base is table

    def test_k_out_of_range(self):
        matrix = make_matrix([[0.0, 0.1], [0.1, 0.0]])
        with pytest.raises(ValueError):
            knn_dissimilarities(matrix, 0)
        with pytest.raises(ValueError):
            knn_dissimilarities(matrix, 2)


class TestEcdf:
    def test_sorted_steps(self):
        curve = ecdf([0.3, 0.1, 0.2])
        assert curve.xs.tolist() == [0.1, 0.2, 0.3]
        assert curve.ys.tolist() == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_all_equal_is_vertical_step(self):
        curve = ecdf([0.5, 0.5, 0.5, 0.5])
        assert set(curve.xs.tolist()) == {0.5}
        assert curve.ys.tolist() == [0.25, 0.5, 0.75, 1.0]

    def test_last_y_is_one_and_steps_are_uniform(self, rng):
        samples = rng.uniform(0, 1, 37)
        curve = ecdf(samples)
        assert curve.ys[-1] == 1.0
        assert np.allclose(np.diff(curve.ys), 1 / 37)


class TestSmoothSpline:
    def test_linear_ecdf_reproduced(self):
        n = 50
        xs = np.linspace(0.1, 0.9, n)
        curve = EcdfCurve(2, xs, np.arange(1, n + 1) / n)
        smooth = smooth_spline(curve, 0.1)
        reference = np.interp(smooth.xs, curve.xs, curve.ys)
        assert np.max(np.abs(smooth.ys - reference)) < 1e-3
        assert not smooth.degenerate

    def test_two_plateau_curve_is_monotone(self):
        xs = np.concatenate([np.linspace(0.01, 0.05, 20), np.linspace(0.60, 0.70, 20)])
        curve = EcdfCurve(2, xs, np.arange(1, 41) / 40)
        smooth = smooth_spline(curve, 0.1)
        assert np.all(np.diff(smooth.ys) >= 0)
        assert np.all(smooth.ys >= 0) and np.all(smooth.ys <= 1)

    def test_degenerate_range_flagged(self):
        curve = ecdf([0.4] * 12)
        smooth = smooth_spline(curve, 0.1)
        assert smooth.degenerate
        assert smooth.xs.tolist() == curve.xs.tolist()

    def test_grid_size_and_span(self):
        curve = ecdf(np.linspace(0, 1, 300))
        smooth = smooth_spline(curve, 0.1)
        assert smooth.xs.size == 300
        assert smooth.xs[0] == curve.xs[0] and smooth.xs[-1] == curve.xs[-1]


class TestKneedle:
    def test_analytic_concave_curve(self):
        xs = np.linspace(0.0, 1.0, 200)
        knee = kneedle(SmoothCurve(xs, 1 - (1 - xs) ** 2))
        assert knee == pytest.approx(0.5, abs=0.05)

    def test_straight_line_has_no_knee(self):
        xs = np.linspace(0.0, 1.0, 200)
        with pytest.raises(NoKneeError):
            kneedle(SmoothCurve(xs, xs.copy()))

    def test_too_few_samples_rejected(self):
        xs = np.linspace(0, 1, 5)
        with pytest.raises(ValueError):
            kneedle(SmoothCurve(xs, xs**0.5))

    def test_rightmost_knee_wins(self):
        # two concave rises separated by a plateau produce two knees
        xs = np.linspace(0.0, 1.0, 400)
        ys = np.where(
            xs < 0.5,
            0.45 * (1 - (1 - 2 * xs) ** 2),
            np.where(xs < 0.75, 0.45, 0.45 + 0.55 * (1 - (1 - 4 * (xs - 0.75)) ** 2)),
        )
        ys = np.maximum.accumulate(ys)
        knee = kneedle(SmoothCurve(xs, ys))
        assert knee > 0.5

    def test_degenerate_curve_raises_no_knee(self):
        xs = np.full(20, 0.3)
        with pytest.raises(NoKneeError):
            kneedle(SmoothCurve(xs, np.linspace(0, 1, 20)))


class TestSelectEpsilon:
    def test_minimum_size_enforced(self):
        matrix = make_matrix(np.zeros((4, 4)))
        with pytest.raises(EmptyAnalysisError):
            select_epsilon(matrix)

    def test_n8_forces_k2(self, rng):
        d = symmetric_random(8, rng)
        config = select_epsilon(make_matrix(d))
        assert config.chosen_k == 2  # round(ln 8) = 2 leaves {2} as the only rank
        assert config.min_samples == 2

    def test_two_scale_matrix_epsilon_between_scales(self):
        matrix = make_matrix(two_blob_matrix())
        config = select_epsilon(matrix)
        assert 0.05 < config.epsilon < 0.8
        assert not config.fallback
        clustering = dbscan(matrix, config.epsilon, config.min_samples)
        assert sorted(len(c.members) for c in clustering.clusters) == [12, 12]
        assert len(clustering.noise) == 6

    def test_deterministic(self):
        matrix = make_matrix(two_blob_matrix())
        first = select_epsilon(matrix)
        second = select_epsilon(matrix)
        assert first == second

    def test_epsilon_shift_applied(self):
        matrix = make_matrix(two_blob_matrix())
        base = select_epsilon(matrix)
        shifted = select_epsilon(matrix, epsilon_shift=0.01)
        assert shifted.epsilon == pytest.approx(base.epsilon + 0.01)
        assert shifted.knee_x == base.knee_x

    def test_fallback_on_uniform_distances(self):
        # all pairwise dissimilarities equal: degenerate ECDF, no knee
        d = np.full((10, 10), 0.4)
        np.fill_diagonal(d, 0.0)
        config = select_epsilon(make_matrix(d))
        assert config.fallback
        assert config.epsilon == pytest.approx(0.4)  # median 2-NN

    def test_chosen_k_within_ln_bound(self, rng):
        for n in (8, 13, 25, 60):
            d = symmetric_random(n, rng)
            config = select_epsilon(make_matrix(d))
            assert 2 <= config.chosen_k <= round_ln(n)
            assert config.min_samples == round_ln(n)


class TestRetrim:
    def _giant_cluster_fixture(self):
        # tight blob of 20 plus 8 loosely spread points; with the oversized
        # first knee every point falls into one cluster
        rng = np.random.default_rng(3)
        n = 28
        d = rng.uniform(0.28, 0.32, size=(n, n))
        d[:20, :20] = rng.uniform(0.02, 0.05, size=(20, 20))
        d = np.triu(d, 1)
        d = d + d.T
        matrix = make_matrix(d)
        previous = AutoConfig(
            chosen_k=2, epsilon=0.5, min_samples=round_ln(n), knee_x=0.5,
            smoothing=0.1, sensitivity=1.0,
        )
        return matrix, previous

    def test_balanced_clustering_unchanged(self):
        d = np.full((20, 20), 0.8)
        d[:10, :10] = 0.03
        d[10:, 10:] = 0.03
        np.fill_diagonal(d, 0.0)
        matrix = make_matrix(d)
        previous = AutoConfig(chosen_k=2, epsilon=0.1, min_samples=2, knee_x=0.1,
                              smoothing=0.1, sensitivity=1.0)
        clustering = dbscan(matrix, 0.1, 2)
        assert max(len(c.members) for c in clustering.clusters) == 10  # 50 % <= 60 %
        assert retrim_epsilon(matrix, previous, clustering) is previous

    def test_giant_cluster_triggers_smaller_epsilon(self):
        matrix, previous = self._giant_cluster_fixture()
        clustering = dbscan(matrix, previous.epsilon, previous.min_samples)
        assert [len(c.members) for c in clustering.clusters] == [28]  # 100 % in one cluster
        updated = retrim_epsilon(matrix, previous, clustering)
        assert updated.retrimmed
        assert updated.epsilon < previous.epsilon
        reclustered = dbscan(matrix, updated.epsilon, updated.min_samples)
        assert max(len(c.members) for c in reclustered.clusters) < 28

    def test_tiny_trimmed_sample_keeps_epsilon_flagged(self):
        matrix, previous = self._giant_cluster_fixture()
        clustering = dbscan(matrix, previous.epsilon, previous.min_samples)
        low = AutoConfig(chosen_k=2, epsilon=0.5, min_samples=previous.min_samples,
                         knee_x=0.01, smoothing=0.1, sensitivity=1.0)
        updated = retrim_epsilon(matrix, low, clustering)
        assert updated.retrim_failed
        assert updated.epsilon == low.epsilon

    def test_member_weighting_uses_segment_instances(self):
        # 3-value cluster outweighs a 5-value cluster once duplicates count
        rng = np.random.default_rng(11)
        d = rng.uniform(0.7, 0.8, size=(8, 8))
        d[:3, :3] = rng.uniform(0.008, 0.012, size=(3, 3))
        d[3:, 3:] = rng.uniform(0.008, 0.012, size=(5, 5))
        d = np.triu(d, 1)
        d = d + d.T
        matrix = make_matrix(d, member_counts=[50, 50, 50, 1, 1, 1, 1, 1])
        previous = AutoConfig(chosen_k=2, epsilon=0.05, min_samples=2, knee_x=0.05,
                              smoothing=0.1, sensitivity=1.0)
        clustering = dbscan(matrix, 0.05, 2)
        assert sorted(len(c.members) for c in clustering.clusters) == [3, 5]
        # 150 of 155 instances sit in the 3-value cluster -> retrim is attempted
        updated = retrim_epsilon(matrix, previous, clustering)
        assert updated is not previous

    def test_degenerate_trimmed_curve_flags_failure(self):
        # identical 2-NN values below the knee leave nothing to re-detect on
        d = np.full((10, 10), 0.01)
        np.fill_diagonal(d, 0.0)
        matrix = make_matrix(d)
        previous = AutoConfig(chosen_k=2, epsilon=0.5, min_samples=2, knee_x=0.5,
                              smoothing=0.1, sensitivity=1.0)
        clustering = dbscan(matrix, 0.5, 2)
        assert [len(c.members) for c in clustering.clusters] == [10]
        updated = retrim_epsilon(matrix, previous, clustering)
        assert updated.retrim_failed
        assert updated.epsilon == previous.epsilon

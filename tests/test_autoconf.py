"""Automatic epsilon selection: k-NN ECDFs, spline smoothing, Kneedle."""

from __future__ import annotations

import logging
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (condensed, dbscan_of, make_matrix, two_blob_matrix, symmetric_random,
                      values_of)
from oracles import kneedle_reference
from typeclust import autoconf
from typeclust.autoconf import (
    KNEEDLE_SENSITIVITY,
    RETRIM_SHARE,
    AutoConfig,
    Curve,
    ecdf,
    kneedle,
    knn_dissimilarities,
    nearest_table,
    retrim_epsilon,
    round_ln,
    select_epsilon,
    smooth_spline,
)
from typeclust.clustering import Cluster, Clustering
from typeclust.dissimilarity import DissimilarityMatrix, build_matrix, unique_values
from typeclust.errors import EmptyAnalysisError, NoKneeError
from typeclust.segmentation import filter_analyzable, segment_heuristic
from typeclust.traceio import deduplicate, load_hexlines

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402


def test_round_ln_half_away_from_zero():
    assert round_ln(8) == 2  # ln 8 = 2.079
    assert round_ln(12) == 2  # ln 12 = 2.485
    assert round_ln(13) == 3  # ln 13 = 2.565
    assert round_ln(1000) == 7  # ln 1000 = 6.908


class TestKnn:
    def test_three_point_example(self):
        # d(0,1)=0.1, d(0,2)=0.2, d(1,2)=0.3 -> per-point minima
        matrix = make_matrix([[0.0, 0.1, 0.2], [0.1, 0.0, 0.3], [0.2, 0.3, 0.0]])
        assert knn_dissimilarities(matrix.nearest(1), 1).tolist() == [0.1, 0.1, 0.2]

    def test_k_max_is_row_maximum(self, rng):
        d = symmetric_random(8, rng)
        matrix = make_matrix(d)
        np.testing.assert_array_equal(
            knn_dissimilarities(matrix.nearest(7), 7),
            np.max(d + np.eye(8) * -1, axis=1),
        )

    def test_matches_row_sort_oracle(self, rng):
        d = symmetric_random(10, rng)
        matrix = make_matrix(d)
        for k in range(1, 10):
            expected = [sorted(d[i][j] for j in range(10) if j != i)[k - 1] for i in range(10)]
            assert knn_dissimilarities(matrix.nearest(k), k).tolist() == expected

    def test_every_rank_with_ties_matches_row_sort_oracle(self, rng):
        n = 11
        d = rng.choice([0.1, 0.2, 0.3, 0.7], size=(n, n))  # many tied distances
        d = np.triu(d, 1)
        d = d + d.T
        oracle = [sorted(d[i][j] for j in range(n) if j != i) for i in range(n)]
        matrix = make_matrix(d)
        for k in range(1, n):
            expected = [row[k - 1] for row in oracle]
            for width in (k, n - 1):  # a table just k ranks wide, and the whole rows
                assert knn_dissimilarities(matrix.nearest(width), k).tolist() == expected

    def test_table_chunks_do_not_change_ranks(self, rng, monkeypatch):
        from typeclust import dissimilarity

        d = symmetric_random(13, rng)
        whole = make_matrix(d).nearest(12).copy()
        monkeypatch.setattr(dissimilarity, "_CHUNK_CELLS", 20)
        assert np.array_equal(make_matrix(d).nearest(12), whole)

    def test_nearest_table_holds_the_ranks_of_a_run(self):
        matrix = make_matrix(two_blob_matrix(sizes=(20, 20), isolated=10))
        table = nearest_table(matrix)
        assert table.shape == (matrix.n, round_ln(matrix.n))
        assert not table.flags.writeable  # every reader of a run shares it
        for k in range(1, round_ln(matrix.n) + 1):
            assert np.array_equal(knn_dissimilarities(table, k), matrix.nearest(k)[:, -1])

    def test_k_out_of_range(self):
        matrix = make_matrix([[0.0, 0.1], [0.1, 0.0]])
        with pytest.raises(ValueError):
            knn_dissimilarities(matrix.nearest(1), 0)
        with pytest.raises(ValueError):
            knn_dissimilarities(matrix.nearest(1), 2)
        narrow = make_matrix(symmetric_random(8, np.random.default_rng(0))).nearest(3)
        with pytest.raises(ValueError, match=r"k must be in \[1, 3\], got 4"):
            knn_dissimilarities(narrow, 4)  # rank 4 exists, but not in this table


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


@st.composite
def ecdf_samples(draw):
    """k-NN-like distance samples: uniform, mixtures of spreads, rounded to few
    distinct values, or tight clusters at scales decades apart."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(8, 600))
    kind = draw(st.sampled_from(["uniform", "mixture", "rounded", "clusters"]))
    if kind == "uniform":
        return rng.uniform(0.0, draw(st.floats(1e-3, 10.0)), n)
    if kind == "rounded":
        return np.round(rng.random(n), draw(st.integers(1, 3)))
    parts = draw(st.integers(2, 5))
    if kind == "mixture":
        centers, spreads = rng.random(parts), rng.uniform(0.01, 0.3, parts)
    else:
        centers = 10.0 ** rng.uniform(-4, 0, parts)
        spreads = centers * 10.0 ** rng.uniform(-4, -1, parts)
    return np.abs(rng.normal(centers[np.arange(n) % parts], spreads[np.arange(n) % parts]))


def fitpack_smoothing(curve: Curve):
    """UnivariateSpline on the collapsed ECDF, with smooth_spline's budget,
    grid, clip and running maximum: the fit smooth_spline must reproduce."""
    from scipy.interpolate import UnivariateSpline

    keep = np.append(curve.xs[1:] != curve.xs[:-1], True)
    ux, uy = curve.xs[keep], curve.ys[keep]
    grid = np.linspace(curve.xs[0], curve.xs[-1], max(200, curve.xs.size))
    spline = UnivariateSpline(ux, uy, k=min(3, ux.size - 1),
                              s=autoconf.SPLINE_SMOOTHING * ux.size)
    return np.maximum.accumulate(np.clip(spline(grid), 0.0, 1.0)), spline.get_knots().size


class TestSmoothSpline:
    @settings(max_examples=300, deadline=None)
    @given(ecdf_samples())
    def test_matches_fitpack_least_squares_cubic(self, samples):
        curve = ecdf(samples)
        assume(curve.xs[-1] > curve.xs[0])
        expected, knots = fitpack_smoothing(curve)
        assert knots == 2  # no interior knot: FITPACK's fit is the polynomial
        assert np.max(np.abs(smooth_spline(curve).ys - expected)) <= 1e-9

    def test_cubic_over_budget_is_fitpack_spline(self, monkeypatch):
        monkeypatch.setattr(autoconf, "SPLINE_SMOOTHING", 1e-4)
        xs = np.concatenate([np.linspace(0.01, 0.05, 20), np.linspace(0.60, 0.70, 20)])
        curve = Curve(xs, np.arange(1, 41) / 40)
        expected, knots = fitpack_smoothing(curve)
        assert knots > 2
        assert np.array_equal(smooth_spline(curve).ys, expected)

    def test_ill_conditioned_cubic_is_fitpack_spline(self):
        # three clusters a billionth wide barely determine the cubic's fourth
        # coefficient; numpy's and FITPACK's solutions differ here by 5e-9
        xs = np.concatenate([c + 1e-9 * np.arange(20) for c in (0.2, 0.5, 0.9)])
        curve = Curve(xs, np.arange(1, 61) / 60)
        expected, knots = fitpack_smoothing(curve)
        assert knots == 2
        assert np.array_equal(smooth_spline(curve).ys, expected)

    def test_linear_ecdf_reproduced(self):
        n = 50
        xs = np.linspace(0.1, 0.9, n)
        curve = Curve(xs, np.arange(1, n + 1) / n)
        smooth = smooth_spline(curve)
        reference = np.interp(smooth.xs, curve.xs, curve.ys)
        assert np.max(np.abs(smooth.ys - reference)) < 1e-3
        assert smooth.xs.size == 200  # the fitted grid, not the 50 input points

    def test_two_plateau_curve_is_monotone(self):
        xs = np.concatenate([np.linspace(0.01, 0.05, 20), np.linspace(0.60, 0.70, 20)])
        curve = Curve(xs, np.arange(1, 41) / 40)
        smooth = smooth_spline(curve)
        assert np.all(np.diff(smooth.ys) >= 0)
        assert np.all(smooth.ys >= 0) and np.all(smooth.ys <= 1)

    def test_flat_curve_returned_unchanged_without_knee(self):
        curve = ecdf([0.4] * 12)
        smooth = smooth_spline(curve)
        assert smooth.xs.tolist() == curve.xs.tolist()
        assert smooth.ys.tolist() == curve.ys.tolist()
        assert smooth.xs is not curve.xs and smooth.ys is not curve.ys  # a copy
        with pytest.raises(NoKneeError, match="no extent"):
            kneedle(smooth)

    def test_grid_size_and_span(self):
        curve = ecdf(np.linspace(0, 1, 300))
        smooth = smooth_spline(curve)
        assert smooth.xs.size == 300
        assert smooth.xs[0] == curve.xs[0] and smooth.xs[-1] == curve.xs[-1]


class TestKneedle:
    def test_analytic_concave_curve(self):
        xs = np.linspace(0.0, 1.0, 200)
        knee = kneedle(Curve(xs, 1 - (1 - xs) ** 2))
        assert knee == pytest.approx(0.5, abs=0.05)

    def test_straight_line_has_no_knee(self):
        xs = np.linspace(0.0, 1.0, 200)
        with pytest.raises(NoKneeError):
            kneedle(Curve(xs, xs.copy()))

    def test_too_few_samples_rejected(self):
        xs = np.linspace(0, 1, 5)
        with pytest.raises(ValueError):
            kneedle(Curve(xs, xs**0.5))

    def test_rightmost_knee_wins(self):
        # two concave rises separated by a plateau produce two knees
        xs = np.linspace(0.0, 1.0, 400)
        ys = np.where(
            xs < 0.5,
            0.45 * (1 - (1 - 2 * xs) ** 2),
            np.where(xs < 0.75, 0.45, 0.45 + 0.55 * (1 - (1 - 4 * (xs - 0.75)) ** 2)),
        )
        ys = np.maximum.accumulate(ys)
        knee = kneedle(Curve(xs, ys))
        assert knee > 0.5

    def test_degenerate_curve_raises_no_knee(self):
        # no extent means no knee at any size, below Kneedle's 10-point minimum too
        for n in (1, 5, 9, 20):
            rising = np.linspace(0.0, 1.0, n)
            for curve in (Curve(np.full(n, 0.3), rising), Curve(rising, np.full(n, 0.3))):
                with pytest.raises(NoKneeError, match="no extent"):
                    kneedle(curve)


# rises with plateaus and repeated steps
_RISES = st.sampled_from([0.0, 0.0, 0.001, 0.01, 0.1, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def monotone_curves(draw):
    if draw(st.booleans()):
        # integer steps of 0, 1 and 2 over a 2^k grid, with as many 0s as 2s:
        # both axes span 2^k, so the difference curve is exact and a step of
        # 1 makes a maximum tie with its right neighbour
        span = 2 ** draw(st.integers(4, 6))
        pairs = draw(st.integers(1, span // 2))
        steps = [0] * pairs + [2] * pairs + [1] * (span - 2 * pairs)
        ys = np.cumsum([0] + draw(st.permutations(steps))).astype(np.float64)
        return Curve(np.arange(span + 1, dtype=np.float64), ys)
    n = draw(st.integers(10, 120))
    if draw(st.booleans()):
        xs = np.linspace(0.0, 1.0, n)
    else:
        xs = np.cumsum(draw(st.lists(st.floats(0.001, 1.0), min_size=n, max_size=n)))
    ys = np.cumsum(draw(st.lists(_RISES, min_size=n, max_size=n)))
    return Curve(xs, ys)


@settings(max_examples=400, deadline=None)
@given(curve=monotone_curves())
def test_kneedle_matches_loop_reference(curve):
    expected = kneedle_reference(curve.xs, curve.ys, KNEEDLE_SENSITIVITY)
    if expected is None:
        with pytest.raises(NoKneeError):
            kneedle(curve)
    else:
        assert kneedle(curve) == expected


class TestSelectEpsilon:
    def test_minimum_size_enforced(self):
        matrix = make_matrix(np.zeros((4, 4)))
        with pytest.raises(EmptyAnalysisError):
            select_epsilon(nearest_table(matrix))

    def test_n8_forces_k2(self, rng):
        d = symmetric_random(8, rng)
        config = select_epsilon(nearest_table(make_matrix(d)))
        assert config.chosen_k == 2  # round(ln 8) = 2 leaves {2} as the only rank
        assert config.min_samples == 2

    def test_two_scale_matrix_epsilon_between_scales(self):
        matrix = make_matrix(two_blob_matrix())
        config = select_epsilon(nearest_table(matrix))
        assert 0.05 < config.epsilon < 0.8
        assert not config.fallback
        clustering = dbscan_of(matrix, config.epsilon, config.min_samples)
        assert sorted(len(c.members) for c in clustering.clusters) == [12, 12]
        assert len(clustering.noise) == 6

    def test_deterministic(self):
        matrix = make_matrix(two_blob_matrix())
        first = select_epsilon(nearest_table(matrix))
        second = select_epsilon(nearest_table(matrix))
        assert first == second

    def test_fallback_on_uniform_distances(self):
        # all pairwise dissimilarities equal: a flat ECDF, no knee
        d = np.full((10, 10), 0.4)
        np.fill_diagonal(d, 0.0)
        config = select_epsilon(nearest_table(make_matrix(d)))
        assert config.fallback
        assert config.epsilon == pytest.approx(0.4)  # median 2-NN

    @pytest.mark.parametrize("n", [8, 9])
    def test_degenerate_curve_falls_back_below_kneedle_minimum(self, n):
        # a flat step curve has no knee, also below Kneedle's 10-point minimum
        d = np.full((n, n), 0.5)
        np.fill_diagonal(d, 0.0)
        config = select_epsilon(nearest_table(make_matrix(d)))
        assert config.fallback
        assert config.epsilon == 0.5

    def test_chosen_k_within_ln_bound(self, rng):
        for n in (8, 13, 25, 60):
            d = symmetric_random(n, rng)
            config = select_epsilon(nearest_table(make_matrix(d)))
            assert 2 <= config.chosen_k <= round_ln(n)
            assert config.min_samples == round_ln(n)


def assert_ecdf_rows_match_their_definition(nearest: np.ndarray) -> None:
    """Per k = 2 .. round(ln n): the smoothed grid, the raw ECDF counted at each
    grid point, and the smoothed ys, bit for bit, as float64 arrays of one length."""
    n = len(nearest)
    curves = autoconf.ecdf_rows(nearest)
    assert [k for k, *_ in curves] == list(range(2, round_ln(n) + 1))
    for k, *columns in curves:
        column = nearest[:, k - 1]
        smoothed = smooth_spline(ecdf(column))
        raw = np.array([np.count_nonzero(column <= x) / n for x in smoothed.xs])
        for got, expected in zip(columns, (smoothed.xs, raw, smoothed.ys)):
            assert got.dtype == np.float64 and got.shape == smoothed.xs.shape
            assert got.tobytes() == expected.tobytes()


@st.composite
def knn_tables(draw) -> np.ndarray:
    """The k-NN table of a drawn matrix of 8 to 24 values, with tied and all-equal cells."""
    n = draw(st.integers(8, 24))
    cells = n * (n - 1) // 2
    level = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    upper = draw(st.lists(level | st.floats(0.0, 1.0), min_size=cells, max_size=cells)
                 | level.map(lambda value: [value] * cells))
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = upper
    return nearest_table(make_matrix(d + d.T))


class TestEcdfRows:
    @settings(max_examples=100, deadline=None)
    @given(nearest=knn_tables())
    def test_drawn_curves_match_their_definition(self, nearest):
        assert_ecdf_rows_match_their_definition(nearest)

    def test_bench_capture_curves_match_their_definition(self, tmp_path):
        # the DHCP bench capture of generator seed 8: 3,280 values, so seven
        # curves of 3,280 grid points each
        trace = gen.write_dhcp_hex(tmp_path, 8, 1200)
        segments = filter_analyzable(segment_heuristic(deduplicate(load_hexlines(trace.path))))
        nearest = nearest_table(build_matrix(unique_values(segments)))
        assert nearest.shape == (3_280, 8)
        assert_ecdf_rows_match_their_definition(nearest)


# Each case returns the matrix, the AutoConfig handed to the re-trim and the
# epsilon its clustering was made with. They differ only where a case needs
# a clustering at one epsilon and a re-trim below another.

def giant_cluster_case(epsilon: float = 0.5) -> tuple[np.ndarray, AutoConfig, float]:
    # tight blob of 20 plus 8 loosely spread points; at the oversized first
    # knee of 0.5 every point falls into one cluster
    rng = np.random.default_rng(3)
    n = 28
    d = rng.uniform(0.28, 0.32, size=(n, n))
    d[:20, :20] = rng.uniform(0.02, 0.05, size=(20, 20))
    d = np.triu(d, 1)
    d = d + d.T
    return d, AutoConfig(chosen_k=2, epsilon=epsilon, min_samples=round_ln(n)), 0.5


def balanced_case() -> tuple[np.ndarray, AutoConfig, float]:
    d = np.full((20, 20), 0.8)
    d[:10, :10] = 0.03
    d[10:, 10:] = 0.03
    np.fill_diagonal(d, 0.0)
    return d, AutoConfig(chosen_k=2, epsilon=0.1, min_samples=2), 0.1


def degenerate_case() -> tuple[np.ndarray, AutoConfig, float]:
    # identical 2-NN values below the knee leave nothing to re-detect on
    d = np.full((10, 10), 0.01)
    np.fill_diagonal(d, 0.0)
    return d, AutoConfig(chosen_k=2, epsilon=0.5, min_samples=2), 0.5


class TestRetrim:
    def _giant_cluster_fixture(self):
        d, previous, _ = giant_cluster_case()
        return make_matrix(d), previous

    def test_balanced_clustering_unchanged(self):
        d, previous, _ = balanced_case()
        matrix = make_matrix(d)
        clustering = dbscan_of(matrix, 0.1, 2)
        assert max(len(c.members) for c in clustering.clusters) == 10  # 50 % <= 60 %
        assert retrim_epsilon(matrix, nearest_table(matrix), previous, clustering) is previous

    def balanced_with_counts(self, counts):
        """The balanced case's matrix and clustering, its first cluster's values
        occurring ``counts`` times and the second's once each; and the largest
        cluster's segment count and all clusters' total."""
        d, previous, epsilon = balanced_case()
        matrix = make_matrix(d, member_counts=counts + [1] * 10)
        clustering = dbscan_of(matrix, epsilon, previous.min_samples)
        sizes = [matrix.values.counts[c.members].sum() for c in clustering.clusters]
        assert len(sizes) == 2
        return matrix, previous, clustering, max(sizes), sum(sizes)

    def test_largest_share_of_exactly_60_percent_does_not_retrim(self):
        matrix, previous, clustering, largest, total = self.balanced_with_counts([2] * 5 + [1] * 5)
        assert (largest, total) == (15, 25) and largest == RETRIM_SHARE * total  # exact in float
        assert retrim_epsilon(matrix, nearest_table(matrix), previous, clustering) is previous

    def test_largest_share_between_half_and_60_percent_does_not_retrim(self):
        matrix, previous, clustering, largest, total = self.balanced_with_counts([2] * 3 + [1] * 7)
        assert (largest, total) == (13, 23) and 0.5 * total < largest < 0.6 * total
        assert retrim_epsilon(matrix, nearest_table(matrix), previous, clustering) is previous

    def test_giant_cluster_triggers_smaller_epsilon(self):
        matrix, previous = self._giant_cluster_fixture()
        clustering = dbscan_of(matrix, previous.epsilon, previous.min_samples)
        assert [len(c.members) for c in clustering.clusters] == [28]  # 100 % in one cluster
        updated = retrim_epsilon(matrix, nearest_table(matrix), previous, clustering)
        assert updated.retrimmed and updated.retrim_count == 1
        assert not updated.retrim_failed
        assert updated.epsilon < previous.epsilon
        reclustered = dbscan_of(matrix, updated.epsilon, updated.min_samples)
        assert max(len(c.members) for c in reclustered.clusters) < 28

    def test_tiny_trimmed_sample_keeps_epsilon_flagged(self):
        matrix, previous = self._giant_cluster_fixture()
        clustering = dbscan_of(matrix, previous.epsilon, previous.min_samples)
        low = AutoConfig(chosen_k=2, epsilon=0.01, min_samples=previous.min_samples)
        # clustered at 0.5, trimmed below 0.01
        updated = retrim_epsilon(matrix, nearest_table(matrix), low, clustering)
        assert updated.retrim_failed
        assert not updated.retrimmed
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
        previous = AutoConfig(chosen_k=2, epsilon=0.05, min_samples=2)
        clustering = dbscan_of(matrix, 0.05, 2)
        assert sorted(len(c.members) for c in clustering.clusters) == [3, 5]
        # 150 of 155 instances sit in the 3-value cluster -> retrim is attempted
        updated = retrim_epsilon(matrix, nearest_table(matrix), previous, clustering)
        assert updated is not previous

    def test_degenerate_trimmed_curve_flags_failure(self, caplog):
        d, previous, _ = degenerate_case()
        matrix = make_matrix(d)
        clustering = dbscan_of(matrix, 0.5, 2)
        assert [len(c.members) for c in clustering.clusters] == [10]
        with caplog.at_level(logging.WARNING, logger="typeclust.autoconf"):
            updated = retrim_epsilon(matrix, nearest_table(matrix), previous, clustering)
        assert updated.retrim_failed
        assert updated.epsilon == previous.epsilon
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("WARNING", "re-trim skipped: curve has no extent to detect a knee in")
        ]


RETRIM_CASES = {
    "giant": giant_cluster_case,  # re-trims to a smaller epsilon
    "tiny-trimmed-sample": lambda: giant_cluster_case(epsilon=0.01),  # retrim_failed
    "degenerate": degenerate_case,  # retrim_failed
    "balanced": balanced_case,  # previous returned unchanged
}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), case=st.sampled_from(sorted(RETRIM_CASES)))
def test_retrim_epsilon_is_invariant_under_relabelling(data, case):
    d, previous, cluster_epsilon = RETRIM_CASES[case]()
    n = d.shape[0]
    if case == "balanced":
        # one count list for both 10-value clusters, so their instance
        # counts stay equal; free counts can tip one past the 60 % share
        half = data.draw(st.lists(st.integers(1, 3), min_size=n // 2, max_size=n // 2),
                         label="members")
        counts = half + half
    else:
        counts = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n), label="members")
    perm = data.draw(st.permutations(range(n)), label="perm")  # new index i holds value perm[i]
    matrix = make_matrix(d, member_counts=counts)
    clustering = dbscan_of(matrix, cluster_epsilon, previous.min_samples)
    expected = retrim_epsilon(matrix, nearest_table(matrix), previous, clustering)
    assert expected.retrim_failed == (case in ("tiny-trimmed-sample", "degenerate"))

    new_index = np.argsort(perm)
    relabelled = DissimilarityMatrix(
        values_of([matrix.values.content[p] for p in perm], matrix.values.counts[perm]),
        condensed(matrix.block(perm, perm)),
        np.arange(n),
    )
    moved = Clustering(
        [Cluster(sorted(int(new_index[m]) for m in c.members)) for c in clustering.clusters],
        sorted(int(new_index[m]) for m in clustering.noise),
    )
    result = retrim_epsilon(relabelled, nearest_table(relabelled), previous, moved)
    assert result == expected
    assert (result is previous) == (expected is previous)

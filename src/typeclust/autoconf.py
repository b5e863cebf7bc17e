"""Automatic DBSCAN parameter selection from k-NN dissimilarity ECDFs.

For each neighbor rank k between 2 and round(ln n), the empirical CDF of
the k-th-nearest-neighbor dissimilarities is smoothed with a cubic
smoothing spline, in practice its least-squares cubic; the curve with the
sharpest rise is handed to Kneedle, and the detected knee becomes epsilon.
min_samples is round(ln n) throughout.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .dissimilarity import DissimilarityMatrix, _median
from .errors import EmptyAnalysisError, NoKneeError

logger = logging.getLogger(__name__)

KNEEDLE_SENSITIVITY = 1.0
SPLINE_SMOOTHING = 0.1  # spline residual budget per fitted point
# Up to this condition number of the scaled cubic's design matrix, numpy's and
# FITPACK's least-squares cubics agree to about 1e-12; beyond it they drift
# apart (1e-9 near 1e8), so such a fit is left to FITPACK.
MAX_FIT_CONDITION = 1e4
MIN_ANALYSIS_VALUES = 8
RETRIM_SHARE = 0.6
MAX_RETRIMS = 3


@dataclass(frozen=True)
class Curve:
    """A monotone curve over ascending xs: an ECDF, or one smoothed on an even grid."""

    xs: np.ndarray
    ys: np.ndarray


@dataclass(frozen=True)
class AutoConfig:
    """DBSCAN parameters; epsilon is the detected knee (or the fallback)."""

    chosen_k: int
    epsilon: float
    min_samples: int
    fallback: bool = False
    retrim_failed: bool = False
    retrim_count: int = 0

    @property
    def retrimmed(self) -> bool:
        return self.retrim_count > 0


def round_ln(n: int) -> int:
    """round(ln n) with half-away-from-zero rounding."""
    return int(math.floor(math.log(n) + 0.5))


def nearest_table(matrix: DissimilarityMatrix) -> np.ndarray:
    """The run's k-NN table, round(ln n) ranks wide: every rank its ECDFs and core test read."""
    return matrix.nearest(round_ln(matrix.n))


def knn_dissimilarities(nearest: np.ndarray, k: int) -> np.ndarray:
    """Per value, the k-th smallest dissimilarity to any other value, from a k-NN table."""
    if not 1 <= k <= nearest.shape[1]:
        raise ValueError(f"k must be in [1, {nearest.shape[1]}], got {k}")
    return nearest[:, k - 1].copy()


def ecdf(samples) -> Curve:
    """Empirical CDF of the samples: xs sorted, ys[i] = (i+1)/n."""
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    if xs.size == 0:
        raise ValueError("ecdf needs at least one sample")
    ys = np.arange(1, xs.size + 1, dtype=np.float64) / xs.size
    return Curve(xs, ys)


def smooth_spline(curve: Curve) -> Curve:
    """Cubic smoothing-spline fit of an ECDF, resampled on an even grid.

    The residual budget of the spline is SPLINE_SMOOTHING per fitted point.
    Whenever the least-squares polynomial of degree min(3, m - 1) through the
    m fitted points meets that budget, FITPACK's smoothing spline is that
    polynomial (no interior knots), so it is fitted here with numpy. Only a
    curve whose polynomial misses the budget, or whose fit is so
    ill-conditioned that two solvers would round it apart, is handed to
    scipy's ``UnivariateSpline``.
    Duplicate x positions collapse to the top of their step beforehand;
    the result is clamped to [0, 1] and made monotone non-decreasing.
    A curve whose samples are all equal is returned unchanged, as a copy.
    """
    xs, ys = curve.xs, curve.ys
    if xs[-1] == xs[0]:
        return Curve(xs.copy(), ys.copy())
    # keep the last (highest) y per distinct x: the top of the ECDF step
    keep = np.append(xs[1:] != xs[:-1], True)
    ux, uy = xs[keep], ys[keep]
    grid = np.linspace(xs[0], xs[-1], max(200, xs.size))
    degree = min(3, ux.size - 1)
    budget = SPLINE_SMOOTHING * ux.size
    span = ux[-1] - ux[0]
    design = np.vander((ux - ux[0]) / span, degree + 1)
    coef, _, _, singular = np.linalg.lstsq(design, uy, rcond=None)
    residual = float(np.sum((design @ coef - uy) ** 2))
    if residual <= budget and singular[0] <= MAX_FIT_CONDITION * singular[-1]:
        fitted = np.polyval(coef, (grid - ux[0]) / span)
    else:
        from scipy.interpolate import UnivariateSpline  # slow import; rarely needed

        fitted = UnivariateSpline(ux, uy, k=degree, s=budget)(grid)
    smoothed = np.clip(fitted, 0.0, 1.0)
    smoothed = np.maximum.accumulate(smoothed)
    return Curve(grid, smoothed)


def kneedle(curve: Curve) -> float:
    """Rightmost confirmed knee of a monotone curve, in original x units.

    Both axes are normalized to [0, 1]; candidate knees are local maxima of
    the difference curve y - x, confirmed when the difference drops below
    (maximum - KNEEDLE_SENSITIVITY * mean x spacing) before the next local
    maximum. A curve without x- or y-extent has no knee, whatever its size.
    """
    xs, ys = curve.xs, curve.ys
    x_span = xs[-1] - xs[0]
    y_span = ys.max() - ys.min()
    if x_span <= 0 or y_span <= 0:
        raise NoKneeError("curve has no extent to detect a knee in")
    if xs.size < 10:
        raise ValueError(f"kneedle needs at least 10 samples, got {xs.size}")
    x_norm = (xs - xs[0]) / x_span
    y_norm = (ys - ys.min()) / y_span
    diff = y_norm - x_norm

    maxima = np.flatnonzero((diff[1:-1] > diff[:-2]) & (diff[1:-1] >= diff[2:])) + 1
    if not maxima.size:
        raise NoKneeError("difference curve has no local maxima")

    spacing = float(np.mean(np.diff(x_norm)))
    # the stretch after a maximum runs up to and including the next one, which
    # is never that stretch's minimum: the point before it is lower
    lowest = np.minimum.reduceat(diff, maxima + 1)
    confirmed = maxima[lowest < diff[maxima] - KNEEDLE_SENSITIVITY * spacing]
    if not confirmed.size:
        raise NoKneeError("no candidate knee fell below its sensitivity threshold")
    return float(xs[confirmed[-1]])


def _curves(nearest: np.ndarray) -> list[tuple[int, Curve, Curve]]:
    """(k, ECDF, smoothed ECDF) of the k-NN dissimilarities, for k = 2 .. round(ln n)."""
    n = len(nearest)
    if n < MIN_ANALYSIS_VALUES:
        raise EmptyAnalysisError(f"need at least {MIN_ANALYSIS_VALUES} unique segment "
                                 f"values, got {n}")
    curves = []
    for k in range(2, round_ln(n) + 1):
        curve = ecdf(knn_dissimilarities(nearest, k))
        curves.append((k, curve, smooth_spline(curve)))
    return curves


def select_epsilon(nearest: np.ndarray) -> AutoConfig:
    """Pick epsilon from the sharpest smoothed k-NN ECDF and min_samples = round(ln n).

    The rank k' maximizing the largest single-step increase of the smoothed
    curve is selected (ties toward smaller k); Kneedle runs on that curve.
    Without a confirmed knee, epsilon falls back to the median 2-NN
    dissimilarity, flagged. ``nearest`` is the run's k-NN table.
    """
    curves = _curves(nearest)
    sharpness = [float(np.max(np.diff(smoothed.ys))) for _, _, smoothed in curves]
    best = int(np.argmax(sharpness))  # first occurrence wins: smaller k on ties
    chosen_k, _, chosen_curve = curves[best]

    try:
        knee = kneedle(chosen_curve)
        fallback = False
    except NoKneeError:
        knee = _median(knn_dissimilarities(nearest, 2))
        fallback = True
        logger.warning("no knee confirmed for k=%d; falling back to median 2-NN %.6g", chosen_k, knee)
    return AutoConfig(chosen_k=chosen_k, epsilon=knee, min_samples=round_ln(len(nearest)),
                      fallback=fallback)


def retrim_epsilon(matrix: DissimilarityMatrix, nearest: np.ndarray, previous: AutoConfig,
                   clustering) -> AutoConfig:
    """Shrink epsilon when one giant cluster dominates the clustering.

    If the largest cluster holds more than 60 % of the non-noise segments
    (instances, duplicates included), the k'-NN ECDF of the run's k-NN table
    is rebuilt from its dissimilarities below the previous epsilon and knee
    detection runs again. Returns ``previous`` unchanged when the condition
    is not met, or a flagged copy when the trimmed curve is unusable.
    """
    sizes = [matrix.values.counts[cluster.members].sum() for cluster in clustering.clusters]
    total = sum(sizes)
    if not sizes or max(sizes) <= RETRIM_SHARE * total:
        return previous

    samples = knn_dissimilarities(nearest, previous.chosen_k)
    trimmed = samples[samples < previous.epsilon]
    try:
        if trimmed.size < MIN_ANALYSIS_VALUES:
            raise NoKneeError(f"only {trimmed.size} dissimilarities below the knee")
        knee = kneedle(smooth_spline(ecdf(trimmed)))
    except NoKneeError as reason:
        logger.warning("re-trim skipped: %s", reason)
        return replace(previous, retrim_failed=True)
    return replace(previous, epsilon=knee, retrim_failed=False,
                   retrim_count=previous.retrim_count + 1)


def ecdf_rows(nearest: np.ndarray) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Per k, (k, x, y_raw, y_smoothed): the smoothed grid and both ECDFs over it, as arrays."""
    return [(k, smoothed.xs, np.searchsorted(curve.xs, smoothed.xs, side="right") / curve.xs.size,
             smoothed.ys) for k, curve, smoothed in _curves(nearest)]

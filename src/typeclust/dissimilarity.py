"""Canberra dissimilarity over unique segment values.

Segments are interpreted as vectors of unsigned byte values. Equal-length
vectors use the length-normalized Canberra dissimilarity; unequal lengths
slide the shorter vector across the longer one and add a linear length
penalty, so equal content embedded in a longer value stays close but not
identical.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyAnalysisError
from .segmentation import Segment

# rows per broadcast chunk are sized to keep temporaries around this many cells
_CHUNK_CELLS = 4_000_000


@dataclass
class SegmentValue:
    """One distinct byte sequence and every segment that carries it."""

    bytes: bytes
    members: list[Segment]


@dataclass
class DissimilarityMatrix:
    """Symmetric pairwise dissimilarities over unique segment values."""

    values: list[SegmentValue]
    d: np.ndarray
    _nearest: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.values)

    def nearest(self, k: int) -> np.ndarray:
        """The k smallest off-diagonal dissimilarities of every row, ascending.

        One partition per row chunk computes them; the table is kept, so a
        request no wider than an earlier one is a read-only slice of it.
        """
        n = self.n
        if not 1 <= k <= n - 1:
            raise ValueError(f"k must be in [1, {n - 1}], got {k}")
        if self._nearest is None or self._nearest.shape[1] < k:
            table = np.empty((n, k), dtype=np.float64)
            rows = max(1, _CHUNK_CELLS // n)
            for lo in range(0, n, rows):
                hi = min(lo + rows, n)
                chunk = self.d[lo:hi].copy()
                chunk[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
                chunk.partition(k - 1, axis=1)
                table[lo:hi] = np.sort(chunk[:, :k], axis=1)
            table.flags.writeable = False
            self._nearest = table
        return self._nearest[:, :k]


def unique_values(segments: list[Segment]) -> list[SegmentValue]:
    """Fold duplicate segment byte sequences, keeping first-occurrence order."""
    if not segments:
        raise EmptyAnalysisError("no analyzable segments")
    table: dict[bytes, SegmentValue] = {}
    for segment in segments:
        value = table.get(segment.bytes)
        if value is None:
            table[segment.bytes] = SegmentValue(segment.bytes, [segment])
        else:
            value.members.append(segment)
    return list(table.values())


def _as_vector(x) -> np.ndarray:
    if isinstance(x, (bytes, bytearray)):
        return np.frombuffer(bytes(x), dtype=np.uint8).astype(np.float64)
    return np.asarray(x, dtype=np.float64)


def canberra_equal(x, y) -> float:
    """Normalized Canberra dissimilarity of two equal-length byte vectors.

    Returns the mean of |a-b|/(a+b) over the coordinates, with 0/0 taken
    as 0, so the result lies in [0, 1].
    """
    xv, yv = _as_vector(x), _as_vector(y)
    if xv.shape != yv.shape or xv.ndim != 1 or xv.size < 1:
        raise ValueError(f"expected equal-length vectors, got {xv.shape} and {yv.shape}")
    num = np.abs(xv - yv)
    den = xv + yv
    terms = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return float(terms.sum() / xv.size)


def canberra_dissimilarity(u, v) -> float:
    """Canberra dissimilarity extended to vectors of different lengths.

    The shorter vector (length m) slides across the longer (length M); with
    C* the minimum windowed :func:`canberra_equal` and r = m/M, the result is
    (m*C* + (M-m)*(1 - r*(1-C*))) / M, clamped to [0, 1].
    """
    uv, vv = _as_vector(u), _as_vector(v)
    if uv.size < 2 or vv.size < 2:
        raise ValueError("one-byte segments are excluded upstream; vectors must have length >= 2")
    if uv.size > vv.size:
        uv, vv = vv, uv
    m, big = uv.size, vv.size
    if m == big:
        return canberra_equal(uv, vv)
    best = min(canberra_equal(uv, vv[o : o + m]) for o in range(big - m + 1))
    ratio = m / big
    value = (m * best + (big - m) * (1.0 - ratio * (1.0 - best))) / big
    return float(min(max(value, 0.0), 1.0))


def _term_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """canberra_equal for every row pair of two equal-width matrices."""
    terms = a[:, None, :] - b[None, :, :]
    np.abs(terms, out=terms)
    den = a[:, None, :] + b[None, :, :]
    np.maximum(den, 1.0, out=den)  # den is 0 only where both bytes are, and then terms is 0
    terms /= den
    return terms.sum(axis=2) / a.shape[1]


def _chunk_rows(total: int, width: int, other: int) -> list[tuple[int, int]]:
    rows = max(1, _CHUNK_CELLS // max(1, width * other))
    return [(start, min(start + rows, total)) for start in range(0, total, rows)]


def build_matrix(values: list[SegmentValue], threads: int = 1) -> DissimilarityMatrix:
    """Fill the full symmetric dissimilarity matrix over unique values.

    Work is partitioned by value length. Each symmetric pair is computed
    once: a chunk of rows covers the columns of every longer value and, for
    its own length, the columns from its first row onward, then writes the
    mirror cells too. |a-b|/(a+b) is exactly symmetric, so the result is
    exactly symmetric; chunks write disjoint cells, so any thread count
    produces bit-identical results.
    """
    n = len(values)
    if n < 2:
        raise EmptyAnalysisError(f"need at least 2 unique segment values, got {n}")

    by_length: dict[int, list[int]] = {}
    for index, value in enumerate(values):
        by_length.setdefault(len(value.bytes), []).append(index)
    arrays = {
        length: np.array([_as_vector(values[i].bytes) for i in idx])
        for length, idx in by_length.items()
    }

    d = np.zeros((n, n), dtype=np.float64)
    tasks = []
    lengths = sorted(by_length)
    for li, m in enumerate(lengths):
        idx_a = np.array(by_length[m])
        for big in lengths[li:]:
            idx_b = np.array(by_length[big])
            for lo, hi in _chunk_rows(len(idx_a), m, len(idx_b)):
                first = lo if m == big else 0  # the lower triangle is the mirror
                tasks.append((m, big, idx_a[lo:hi], idx_b[first:],
                              arrays[m][lo:hi], arrays[big][first:]))

    def fill(task) -> None:
        m, big, rows_idx, cols_idx, rows_arr, cols_arr = task
        if m == big:
            block = _term_block(rows_arr, cols_arr)
        else:
            best = None
            for offset in range(big - m + 1):
                windowed = _term_block(rows_arr, cols_arr[:, offset : offset + m])
                best = windowed if best is None else np.minimum(best, windowed)
            ratio = m / big
            block = (m * best + (big - m) * (1.0 - ratio * (1.0 - best))) / big
            np.clip(block, 0.0, 1.0, out=block)
        d[np.ix_(rows_idx, cols_idx)] = block
        d[np.ix_(cols_idx, rows_idx)] = block.T

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, tasks))
    else:
        for task in tasks:
            fill(task)

    np.fill_diagonal(d, 0.0)
    d.flags.writeable = False
    return DissimilarityMatrix(values, d)


def write_matrix_csv(matrix: DissimilarityMatrix, path: str | Path) -> None:
    """Dump the matrix as CSV: header of value indices, then full rows."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(",".join(str(i) for i in range(matrix.n)))
        handle.write("\n")
        for row in matrix.d:
            handle.write(",".join(f"{x:.6g}" for x in row))
            handle.write("\n")

"""Canberra dissimilarity over unique segment values.

Segments are interpreted as vectors of unsigned byte values. Equal-length
vectors use the length-normalized Canberra dissimilarity; unequal lengths
slide the shorter vector across the longer one and add a linear length
penalty, so equal content embedded in a longer value stays close but not
identical.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyAnalysisError
from .memory import require_memory
from .segmentation import Segmentation

# cells per byte position of a build chunk (its rows times the columns they
# are summed against) and per k-NN or epsilon-pair row chunk: at 64 K
# float64 cells (0.5 MB) a byte-position plane stays in a core's L2 cache
_CHUNK_CELLS = 1 << 16

# _TERMS[256 * x + y] is the Canberra term |x-y| / (x+y) of bytes x and y,
# with 0/0 taken as 0: where x + y is 0, |x - y| is 0 too
_x, _y = np.divmod(np.arange(256 * 256), 256)
_TERMS = np.abs(_x - _y) / np.maximum(_x + _y, 1)
_TERMS.flags.writeable = False
del _x, _y


@dataclass(eq=False)
class Values:
    """The distinct segment byte sequences, as parallel arrays in first-occurrence order.

    Value v is ``content[v]``, ``length[v]`` bytes long, and occurs in
    ``counts[v]`` segments. ``members`` holds the segments' indices into the
    segmentation the values were cut from, value by value and each value's
    in trace order, so value v's segments are the ``counts[v]`` entries
    after those of the values before it.
    """

    content: list[bytes]
    length: np.ndarray
    counts: np.ndarray
    members: np.ndarray

    def __len__(self) -> int:
        return len(self.content)


@dataclass
class DissimilarityMatrix:
    """Symmetric pairwise dissimilarities over unique segment values, each pair stored once.

    Storage position p holds value ``order[p]``, and value v is at ``pos[v]``.
    ``d`` is scipy's ``squareform`` layout, the cells (p, q), p < q, row-major,
    plus a trailing 0.0 that the diagonal reads: storage row p is one run that
    starts at p·n − p(p+1)/2, and (p, q) is ``d[_base[p] + q]``. The readers
    take and return value indices, none holds a temporary larger than a few
    ``_CHUNK_CELLS`` pieces, and none keeps its result.
    """

    values: Values
    d: np.ndarray
    order: np.ndarray
    pos: np.ndarray = field(init=False, repr=False, compare=False)
    _base: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.pos = np.argsort(self.order)
        p = np.arange(len(self.order))
        self._base = p * len(p) - p * (p + 1) // 2 - p - 1

    @property
    def n(self) -> int:
        return len(self.values)

    def _cells(self, p, q) -> np.ndarray:
        """A new array of the cells at storage positions p against q, broadcast."""
        low = np.minimum(p, q)
        flat = self._base[low]
        flat -= low  # _base[low] + max(p, q) is _base[low] - low + p + q
        del low
        flat += p
        flat += q
        flat[p == q] = -1  # the diagonal reads the trailing 0.0
        return self.d[flat]

    def block(self, rows, cols) -> np.ndarray:
        """A new array of the dissimilarities of values ``rows`` against values ``cols``."""
        return self._cells(self.pos[rows][:, None], self.pos[cols])

    def closest(self, rows, cols) -> tuple[int, int, float]:
        """(a, b, dissimilarity) of the first row-major minimum of ``block(rows, cols)``.

        The block is read in chunks of about ``_CHUNK_CELLS`` cells, whole
        rows each; a later chunk takes over only with a strictly smaller
        minimum, so ties keep the first, as ``np.argmin`` over the block does.
        """
        step = max(1, _CHUNK_CELLS // len(cols))
        best = None
        for lo in range(0, len(rows), step):
            chunk = self.block(rows[lo : lo + step], cols)
            a, b = divmod(int(np.argmin(chunk)), len(cols))
            if best is None or chunk[a, b] < best[2]:
                best = (lo + a, b, float(chunk[a, b]))
        return best

    def pair_stats(self, members) -> tuple[float, np.ndarray, float]:
        """Mean, per-member nearest dissimilarity and maximum over the pairs of ``members``.

        ``members`` holds two values or more, and its pairs i < j are read
        once, row-major, in pieces of at most ``max(_CHUNK_CELLS, 128)``
        that ``_tree_sum`` cuts where numpy's pairwise sum splits the run, so
        adding the pieces' sums up that tree gives the mean the bits of
        ``pairs.mean()``. A member's nearest dissimilarity is the minimum
        over its row's and its column's pairs.
        """
        m = len(members)
        total = m * (m - 1) // 2
        where = self.pos[members]  # each member's storage position
        # pairs before row r: rows hold m - 1, m - 2, ..., 1, 0 pairs
        before = np.concatenate(([0], np.cumsum(np.arange(m - 1, 0, -1))))
        nearest = np.full(m, np.inf)
        d_max = -np.inf

        def piece(start: int, size: int) -> float:
            nonlocal d_max
            stop = start + size
            r0 = int(np.searchsorted(before, start, side="right")) - 1
            r1 = int(np.searchsorted(before, stop - 1, side="right"))
            counts = np.minimum(before[r0 + 1 : r1 + 1], stop) - np.maximum(before[r0:r1], start)
            # pair k of row r is column k - before[r] + r + 1
            col = np.arange(start, stop)
            col -= np.repeat(before[r0:r1] - np.arange(r0 + 1, r1 + 1), counts)
            pairs = self._cells(np.repeat(where[r0:r1], counts), where[col])
            np.minimum.at(nearest, col, pairs)
            del col
            np.minimum(nearest[r0:r1], np.minimum.reduceat(pairs, np.cumsum(counts) - counts),
                       out=nearest[r0:r1])
            d_max = max(d_max, float(pairs.max()))
            return pairs.sum()

        return float(_tree_sum(piece, 0, total, max(_CHUNK_CELLS, 128)) / total), nearest, d_max

    def nearest(self, k: int) -> np.ndarray:
        """The k smallest off-diagonal dissimilarities of every value, ascending.

        One partition per chunk of storage rows computes them, each chunk
        made of its rows' runs and one gather from the rows above, into a new
        read-only table; ``autoconf.nearest_table`` asks once per run.
        """
        n = self.n
        if not 1 <= k <= n - 1:
            raise ValueError(f"k must be in [1, {n - 1}], got {k}")
        table = np.empty((n, k), dtype=np.float64)
        rows = max(1, _CHUNK_CELLS // n)
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            chunk = np.empty((hi - lo, n), dtype=np.float64)
            # cell (q, p) for every q < hi, right where q < p; the runs overwrite the rest
            chunk[:, :hi] = self.d[self._base[:hi, None] + np.arange(lo, hi)].T
            for p in range(lo, hi):
                chunk[p - lo, p + 1 :] = self.d[self._base[p] + p + 1 : self._base[p] + n]
            chunk[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
            chunk.partition(k - 1, axis=1)
            table[lo:hi] = np.sort(chunk[:, :k], axis=1)
        table = table[self.pos]  # storage rows to value rows
        table.flags.writeable = False
        return table

    def within(self, eps: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(heads, tails) of the pairs i < j with d[i, j] <= eps, as int32, one chunk at a time.

        Each call scans the store once, each chunk of whole storage rows one
        slice of about ``_CHUNK_CELLS`` cells, yields that chunk's pairs in
        no set order, and keeps nothing: no list of all the pairs is held.
        """
        order = self.order.astype(np.int32)
        start = self._base + np.arange(1, self.n + 1)  # each storage row's first cell
        lo = 0
        while lo < self.n - 1:
            hi = max(lo + 1, int(np.searchsorted(start, start[lo] + _CHUNK_CELLS, "right")) - 1)
            # int32 cell indices from the chunk's first cell, so pair k of row r
            # is column k - (_base[r] - start[lo])
            k = np.flatnonzero(self.d[start[lo] : start[hi]] <= eps).astype(np.int32)
            counts = np.diff(np.searchsorted(k, start[lo : hi + 1] - start[lo]))
            k -= np.repeat((self._base[lo:hi] - start[lo]).astype(np.int32), counts)
            j = order[k]
            del k
            i = np.repeat(order[lo:hi], counts)
            heads = np.minimum(i, j)
            np.maximum(i, j, out=j)
            del i  # the generator keeps its locals while the caller works on the chunk
            yield heads, j
            lo = hi


def unique_values(segments: Segmentation) -> Values:
    """Fold duplicate segment byte sequences, keeping first-occurrence order.

    Segments are grouped by length, and each group's byte rows are folded by
    one ``np.unique`` over them as opaque records. The lengths are listed
    without a bare ``np.unique``, which imports ``numpy.ma``.
    """
    if not len(segments):
        raise EmptyAnalysisError("no analyzable segments")
    payload = np.frombuffer(segments.data, dtype=np.uint8)
    group = np.empty(len(segments), dtype=np.int64)  # per segment: its value, by group
    contents: list[bytes] = []
    firsts = []
    for length in np.flatnonzero(np.bincount(segments.length)).tolist():
        idx = np.flatnonzero(segments.length == length)
        rows = sliding_window_view(payload, length)[segments.start[idx]]
        keys, first, inverse = np.unique(
            rows.view(np.dtype((np.void, length))).ravel(), return_index=True, return_inverse=True
        )
        group[idx] = len(contents) + inverse
        packed = keys.tobytes()
        contents += [packed[i : i + length] for i in range(0, len(packed), length)]
        firsts.append(idx[first])
    firsts = np.concatenate(firsts)
    order = np.argsort(firsts)  # values by their first segment
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    value_of = rank[group]
    return Values(
        [contents[v] for v in order.tolist()],
        segments.length[firsts[order]],
        np.bincount(value_of),
        np.argsort(value_of, kind="stable"),
    )


def _median(samples: np.ndarray) -> float:
    """``np.median`` of a non-empty float array free of NaN and -0.0, bit for bit.

    It partitions at the middle index, or the two middle ones, as numpy does,
    but skips numpy's NaN check, which imports ``numpy.ma``.
    """
    half = samples.size // 2
    if samples.size % 2:
        return float(np.partition(samples, half)[half])
    low, high = np.partition(samples, (half - 1, half))[half - 1 : half + 1].tolist()
    return (low + high) / 2


def _tree_sum(piece, start: int, size: int, leaf: int):
    """piece(start, size) for a run of at most ``leaf``; a longer run is the sum of its halves.

    The run splits as numpy's pairwise sum splits it, at a multiple of 8.
    """
    if size <= leaf:
        return piece(start, size)
    half = size // 2 - (size // 2) % 8
    total = _tree_sum(piece, start, half, leaf)
    total += _tree_sum(piece, start + half, size - half, leaf)
    return total


def _lanes(term, first: int, stop: int, count: int) -> np.ndarray:
    """Lanes first..first+count-1 as a balanced tree; lane l adds terms l, l+8, ... < stop."""
    if count == 1:
        total = term(first)
        for i in range(first + 8, stop, 8):
            total += term(i)
        return total
    total = _lanes(term, first, stop, count // 2)
    total += _lanes(term, first + count // 2, stop, count // 2)
    return total


def _leaf_sum(term, start: int, n: int) -> np.ndarray:
    """term(start) + ... + term(start + n - 1) for n <= 128, in numpy's order.

    numpy adds fewer than 8 terms in sequence, and more in 8 lanes combined
    as ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)), then the last n % 8 in sequence.
    """
    if n < 8:
        total, rest = term(start), start + 1
    else:
        rest = start + n - n % 8
        total = _lanes(term, start, rest, 8)
    for i in range(rest, start + n):
        total += term(i)
    return total


def _pairwise_sum(term, n: int, start: int = 0) -> np.ndarray:
    """term(start) + ... + term(start + n - 1), added in numpy's pairwise order.

    Every element then has the bits ``.sum(axis=-1)`` gives it. ``term``
    returns a new array each call.
    """
    return _tree_sum(partial(_leaf_sum, term), start, n, 128)


def _windows(payload: np.ndarray, starts: np.ndarray, spans: list[tuple[int, int, int]],
             m: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct m-byte windows of the longer values, (u, m), and each window's index in them.

    ``spans`` gives each longer length's (length, first storage position,
    values). Every window is listed length by length, each length's
    offset-major: offset o of value j is at index o * values + j of its
    length's. One ``np.unique`` over the windows as opaque records finds the
    distinct ones, which the sums run over.
    """
    at = np.concatenate([(starts[c : c + size] + np.arange(big - m + 1)[:, None]).ravel()
                         for big, c, size in spans])
    windows = sliding_window_view(payload, m)[at]
    del at
    keys, inverse = np.unique(windows.view(np.dtype((np.void, m))).ravel(), return_inverse=True)
    return keys.view(np.uint8).reshape(len(keys), m), inverse


def _chunk(columns: np.ndarray, h: int, equal: int, inverse: np.ndarray,
           spans: list[tuple[int, int, int]], big: np.ndarray) -> np.ndarray:
    """Dissimilarities of h rows against the values stored from the first of them on, as (cells, h).

    ``columns`` (m, equal + u) holds by byte position ``equal`` values of
    length m, the h rows first, then the u distinct windows of the longer
    values, which ``inverse`` maps every window of ``spans`` to; ``big`` is
    each longer value's length, as float64. The term table is symmetric,
    so its column x holds every byte's term against x: one column gather
    and one row gather give byte position i's plane of column-major terms,
    and the planes are summed in numpy's pairwise order, so each sum has the
    bits of a ``.sum`` over its bytes. An equal-length cell is its mean
    term; a longer value's is the minimum over its windows' mean terms,
    plus the linear length penalty.
    """
    m = len(columns)
    table = _TERMS.reshape(256, 256)
    sums = _pairwise_sum(lambda i: table.take(columns[i, :h], axis=1).take(columns[i], axis=0), m)
    cells = np.empty((equal + len(big), h))
    np.divide(sums[:equal], m, out=cells[:equal])
    windows = sums[equal:]
    windows /= m
    windows = windows.take(inverse, axis=0)
    del sums
    best = cells[equal:]
    w = c = 0
    for length, _, size in spans:
        offsets = length - m + 1
        np.minimum.reduce(windows[w : w + offsets * size].reshape(offsets, size, h), axis=0,
                          out=best[c : c + size])
        w += offsets * size
        c += size
    del windows
    # (m * best + (big - m) * (1.0 - m / big * (1.0 - best))) / big, in place:
    # best is in [0, 1], so the rounded terms are at most m and big - m (rounding
    # is monotone) and the cell is in [0, 1]
    big = big[:, None]
    penalty = 1.0 - best
    penalty *= m / big
    np.subtract(1.0, penalty, out=penalty)
    penalty *= big - m
    best *= m
    best += penalty
    best /= big
    return cells


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_matrix(values: Values, threads: int = 1) -> DissimilarityMatrix:
    """Fill the condensed dissimilarity matrix over unique values, each pair once.

    The values are stored by length, ties in value order, so storage row
    p's run is its cells against the rest of its length group, then against
    every longer value. The lengths are built in ascending order. For
    length m, the calling thread folds the m-byte windows of every longer
    value once (``_windows``) and lays the group's values and the distinct
    windows out by byte position in one ``columns`` array. The group's rows
    are cut into chunks of about ``_CHUNK_CELLS`` cells per byte position,
    each computing its rows against every value from its first row on
    (``_chunk``) and writing each row's run with one slice. Sums add one
    plane of ``_TERMS`` per byte position in numpy's pairwise order, so each
    cell has the bits of the broadcast ``.sum`` over its bytes, at any
    thread count. min(``threads``, CPUs) workers each run every
    workers-th chunk of a length, the calling thread the first share and
    the pool's the others, and keep nothing from one chunk to the next. The
    store, the largest length's columns and windows and each worker's
    largest chunk must fit in the memory available.
    """
    n = len(values)
    if n < 2:
        raise EmptyAnalysisError(f"need at least 2 unique segment values, got {n}")

    payload = np.frombuffer(b"".join(values.content), dtype=np.uint8)
    order = np.argsort(values.length, kind="stable")  # storage position -> value
    length = values.length[order]  # per storage position, as are the starts of its bytes
    starts = (np.cumsum(values.length) - values.length)[order]
    lengths, firsts, sizes = (a.tolist() for a in np.unique(length, return_index=True,
                                                             return_counts=True))

    groups = []  # per length: m, first storage position, values, the longer (length, first, values)
    held = chunk = 0  # the most bytes a length's columns and windows hold, and a chunk's
    for g, (m, r0, size) in enumerate(zip(lengths, firsts, sizes)):
        spans = list(zip(lengths[g + 1 :], firsts[g + 1 :], sizes[g + 1 :]))
        windows = sum((big - m + 1) * count for big, _, count in spans)
        height = max(1, _CHUNK_CELLS // (size + windows))
        groups.append((m, r0, size, spans, height))
        # the group's bytes and columns, and the windows, their gather index,
        # np.unique's sorted copy, order and inverse, and the distinct columns
        held = max(held, 9 * m * size + windows * (10 * m + 32))
        # about ten planes of terms, sums and cells
        chunk = max(chunk, 80 * (size + windows) * min(height, size))

    workers = min(threads, _cpus())
    require_memory(n, 8 * (n * (n - 1) // 2 + 1) + held + workers * chunk)
    matrix = DissimilarityMatrix(values, np.zeros(n * (n - 1) // 2 + 1), order)
    runs = matrix._base + np.arange(1, n + 1)  # each storage row's first cell

    def fill(share: int) -> None:
        # this length's chunks share, share + workers, ...; chunk row a is
        # storage row r0 + lo + a, whose run is the chunk's cells against the
        # values after it, so its cells on and below the diagonal are sliced off
        for lo in range(share * height, size, workers * height):
            h = min(height, size - lo)
            cells = _chunk(columns[:, lo:], h, size - lo, inverse, spans, big)
            for a, first in enumerate(runs[r0 + lo : r0 + lo + h].tolist()):
                matrix.d[first : first + len(cells) - a - 1] = cells[a + 1 :, a]

    # the calling thread fills share 0, so one worker starts no thread
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for m, r0, size, spans, height in groups:
            end = r0 + size
            if spans:
                distinct, inverse = _windows(payload, starts, spans, m)
            else:
                distinct, inverse = np.empty((0, m), np.uint8), np.empty(0, np.intp)
            columns = np.empty((m, size + len(distinct)), dtype=np.intp)
            columns[:, :size] = sliding_window_view(payload, m)[starts[r0:end]].T
            columns[:, size:] = distinct.T
            del distinct
            big = length[end:].astype(np.float64)
            rest = pool.map(fill, range(1, workers))
            fill(0)
            list(rest)
            del columns, inverse  # before the next length's windows are folded

    matrix.d.flags.writeable = False
    return matrix


def write_matrix_csv(matrix: DissimilarityMatrix, path: str | Path) -> None:
    """Dump the matrix as CSV: header of value indices, then full rows, in value order."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(",".join(str(i) for i in range(matrix.n)))
        handle.write("\n")
        row = ",".join(["%.6g"] * matrix.n) + "\n"  # "%.6g" % x is f"{x:.6g}"
        values = np.arange(matrix.n)
        for v in range(matrix.n):
            handle.write(row % tuple(matrix.block([v], values)[0].tolist()))

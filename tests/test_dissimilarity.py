"""Canberra dissimilarity, value dedup, and matrix construction."""

from __future__ import annotations

import ast
import gc
import os
import sys
import tempfile
import threading
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import squareform

from conftest import (condensed, make_matrix, pairs_within, segmentation_of, symmetric_random,
                      traced_peak, values_of)
from oracles import canberra_matrix_reference, canberra_reference, unique_values_reference
from typeclust import dissimilarity
from typeclust.dissimilarity import (
    DissimilarityMatrix,
    _median,
    build_matrix,
    unique_values,
    write_matrix_csv,
)
from typeclust.errors import EmptyAnalysisError
from typeclust.segmentation import filter_analyzable, segment_heuristic
from typeclust.traceio import deduplicate, load_hexlines

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402


def dense(matrix) -> np.ndarray:
    """The whole matrix in value order, read through ``block``."""
    return matrix.block(range(matrix.n), range(matrix.n))


def pair(u, v) -> float:
    """Dissimilarity of two byte sequences, from the matrix built over them."""
    return dense(build_matrix(values_of([bytes(u), bytes(v)])))[0, 1]


class TestUniqueValues:
    def test_duplicates_folded(self):
        values = unique_values(segmentation_of((0, 0, b"AB", None), (1, 0, b"CD", None),
                                               (2, 0, b"AB", None)))
        assert values.content == [b"AB", b"CD"]
        assert values.counts.tolist() == [2, 1]
        assert values.members[:2].tolist() == [0, 2]

    def test_all_distinct(self):
        segments = segmentation_of(*((i, 0, bytes([i, i + 1]), None) for i in range(10)))
        assert len(unique_values(segments)) == 10

    def test_empty_input_raises(self):
        with pytest.raises(EmptyAnalysisError):
            unique_values(segmentation_of())

    def test_byte_rows_take_no_index_per_byte(self, tmp_path):
        # the DHCP bench capture of generator seed 8: gathering each length
        # group's 324,200 bytes through an int64 index per byte peaked at 2.42 MiB
        trace = gen.write_dhcp_hex(tmp_path, 8, 1200)
        segments = filter_analyzable(segment_heuristic(deduplicate(load_hexlines(trace.path))))
        values, peak = traced_peak(unique_values, segments)
        assert (len(segments), int(segments.length.sum()), len(values)) == (20_101, 324_200, 3_280)
        assert peak < 1.5 * 2**20  # 1.06 MiB through the window view


# sizes 1 to 200, odd and even, with heavy ties from four levels; like the
# dissimilarities, the samples are never NaN or -0.0
@given(st.integers(1, 200).flatmap(lambda size: st.lists(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0), min_size=size, max_size=size)))
def test_median_has_the_bits_of_np_median(samples):
    samples = np.array(samples)
    assert _median(samples).hex() == float(np.median(samples)).hex()


# few byte values, so distinct values of one length sort unlike their first occurrence
_field = st.lists(st.sampled_from([0, 1, 2, 255]), min_size=2, max_size=12).map(bytes)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_unique_values_matches_reference(data):
    pool = data.draw(st.lists(_field, min_size=1, max_size=8, unique=True), label="pool")
    messages = data.draw(
        st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=6), min_size=1, max_size=8),
        label="messages",
    )
    rows = []
    for message, fields in enumerate(messages):
        offset = 0
        for content in fields:
            rows.append((message, offset, content, None))
            offset += len(content)
    segments = segmentation_of(*rows)
    values = unique_values(segments)
    content, length, counts, members = unique_values_reference(segments)
    assert values.content == content
    assert values.length.tolist() == length
    assert values.counts.tolist() == counts
    assert values.members.tolist() == members
    assert sorted(values.members.tolist()) == list(range(len(segments)))


class TestCanberraEqual:
    def test_identity_is_zero(self):
        assert pair(b"\x01\x02\x03", b"\x01\x02\x03") == 0.0

    def test_maximal_terms(self):
        assert pair([0x00, 0xFF], [0xFF, 0x00]) == 1.0

    def test_hand_computed(self):
        # (|2-6|/8 + 0)/2
        assert pair([2, 4], [6, 4]) == 0.25

    def test_zero_zero_term_is_zero(self):
        assert pair([0, 0], [0, 0]) == 0.0

    def test_range_and_symmetry(self, rng):
        for _ in range(200):
            m = int(rng.integers(1, 12))
            x = rng.integers(0, 256, size=m).tolist()
            y = rng.integers(0, 256, size=m).tolist()
            d = pair(x, y)
            assert 0.0 <= d <= 1.0
            assert d == pair(y, x)

    def test_per_coordinate_triangle_inequality(self, rng):
        for _ in range(300):
            m = int(rng.integers(1, 8))
            x, y, z = (bytes(rng.integers(0, 256, size=m).tolist()) for _ in range(3))
            d = dense(build_matrix(values_of([x, y, z])))
            assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-12


class TestCanberraDissimilarity:
    def test_equal_content_any_length_is_zero(self):
        assert pair(b"\x05\x09", b"\x05\x09") == 0.0
        assert pair(b"abcdef", b"abcdef") == 0.0

    def test_prefix_embedding(self):
        # C*=0, r=0.5 -> (0 + 2*(1-0.5))/4
        assert pair([1, 2], [1, 2, 1, 2]) == 0.25

    def test_offset_embedding_and_other_offsets_maximal(self):
        u, v = [0, 255], [255, 0, 255, 0]
        per_offset = [pair(u, v[o : o + 2]) for o in range(3)]
        assert per_offset == [1.0, 0.0, 1.0]
        assert pair(u, v) == 0.25

    def test_matches_plain_loop_reference(self, rng):
        for _ in range(300):
            m = int(rng.integers(2, 9))
            big = int(rng.integers(m, 12))
            u = rng.integers(0, 256, size=m).tolist()
            v = rng.integers(0, 256, size=big).tolist()
            assert pair(u, v) == pytest.approx(canberra_reference(u, v), abs=1e-12)

    def test_length_gap_grows_dissimilarity_of_equal_prefix(self):
        base = [10, 20]
        previous = 0.0
        for big in (4, 6, 8, 10):
            v = (base * (big // 2))[:big]
            d = pair(base, v)
            assert d > previous
            previous = d


class TestBuildMatrix:
    def test_two_values(self):
        values = values_of([b"\x01\x02", b"\x03\x04"])
        d = dense(build_matrix(values))
        expected = canberra_reference(b"\x01\x02", b"\x03\x04")
        assert d[0, 1] == d[1, 0] == expected
        assert d[0, 0] == d[1, 1] == 0.0

    def test_three_values_match_entrywise_recomputation(self):
        contents = [b"\x01\x02", b"\x00\x10\x20", b"zz"]
        values = values_of(contents)
        d = dense(build_matrix(values))
        for i in range(3):
            for j in range(3):
                expected = 0.0 if i == j else canberra_reference(contents[i], contents[j])
                assert d[i, j] == expected

    def test_random_mixed_lengths_match_scalar_oracle(self, rng):
        contents = set()
        while len(contents) < 25:
            length = int(rng.integers(2, 7))
            contents.add(bytes(rng.integers(0, 256, size=length).tolist()))
        contents = sorted(contents)
        values = values_of(contents)
        d = dense(build_matrix(values))
        for i in range(len(values)):
            for j in range(len(values)):
                expected = 0.0 if i == j else canberra_reference(contents[i], contents[j])
                assert d[i, j] == pytest.approx(expected, abs=1e-12)

    def test_matrix_invariants_on_random_inputs(self, rng):
        random = set()
        while len(random) < 40:
            random.add(bytes(rng.integers(0, 256, size=int(rng.integers(2, 6))).tolist()))
        # runs of 0x00 and 0xff, whose terms are 0 and 1, mixed with random bytes
        extreme = {bytes([byte]) * length for byte in (0, 255) for length in range(2, 41)}
        while len(extreme) < 120:
            runs = [bytes([int(rng.choice([0, 255]))]) * int(rng.integers(1, 9))
                    for _ in range(int(rng.integers(1, 5)))]
            runs.insert(int(rng.integers(len(runs) + 1)),
                        bytes(rng.integers(0, 256, size=int(rng.integers(0, 5))).tolist()))
            content = b"".join(runs)[:40]
            if len(content) >= 2:
                extreme.add(content)
        for contents in (random, extreme):
            d = dense(build_matrix(values_of(sorted(contents))))
            assert np.array_equal(d, d.T)
            assert np.all(np.diag(d) == 0.0)
            assert np.all(d >= 0.0) and np.all(d <= 1.0)
            off_diagonal = d[~np.eye(len(d), dtype=bool)]
            assert np.all(off_diagonal > 0.0)  # unique values never coincide
        assert d.max() == 1.0  # all 0x00 against all 0xff

    def test_permutation_equivariance(self, rng):
        contents = [b"\x01\x02", b"\x03\x04\x05", b"qrstuv", b"\xff\x00"]
        values = values_of(contents)
        matrix = build_matrix(values)
        perm = [2, 0, 3, 1]
        permuted = build_matrix(values_of([contents[p] for p in perm]))
        assert np.array_equal(dense(permuted), matrix.block(perm, perm))

    def test_parallel_build_bit_identical(self, rng):
        contents = set()
        while len(contents) < 60:
            contents.add(bytes(rng.integers(0, 256, size=int(rng.integers(2, 9))).tolist()))
        values = values_of(sorted(contents))
        sequential = build_matrix(values, threads=1)
        parallel = build_matrix(values, threads=8)
        assert np.array_equal(dense(sequential), dense(parallel))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_build_leaves_no_reference_cycle(self, rng, threads):
        # 8-17 bytes take the pairwise-sum lanes; a cycle left by each block
        # would hold its planes until the cycle collector ran
        contents = set()
        while len(contents) < 40:
            contents.add(bytes(rng.integers(0, 256, size=int(rng.integers(8, 18))).tolist()))
        values = values_of(sorted(contents))
        gc.collect()
        gc.disable()
        try:
            build_matrix(values, threads=threads)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_windows_are_folded_once_per_length(self, monkeypatch, threads):
        # the calling thread folds each short length's windows once for every
        # worker, and drops them before it folds the next length's: no chunk
        # runs beside two lengths' windows, and the guard counts one length's
        folded, live_at_chunks = [], []
        windows, kernel = dissimilarity._windows, dissimilarity._chunk

        def folding(payload, starts, spans, m):
            made = windows(payload, starts, spans, m)
            folded.append((m, threading.get_ident(), weakref.ref(made[1])))
            return made

        def computing(*args):
            live_at_chunks.append(sum(ref() is not None for *_, ref in folded))
            return kernel(*args)

        monkeypatch.setattr(dissimilarity, "_windows", folding)
        monkeypatch.setattr(dissimilarity, "_chunk", computing)
        monkeypatch.setattr(dissimilarity, "_CHUNK_CELLS", 24)
        monkeypatch.setattr(dissimilarity, "_cpus", lambda: 3)
        contents = [bytes([i, 255 - i]) for i in range(6)]
        contents += [bytes([i, 7, i, 9]) for i in range(12)] + [bytes(range(i, i + 9))
                                                                for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the workers' writes interleave finely
        try:
            matrix = build_matrix(values_of(contents), threads=threads)
        finally:
            sys.setswitchinterval(interval)
        assert [(m, who) for m, who, _ in folded] == [(2, threading.get_ident()),
                                                      (4, threading.get_ident())]
        assert len(live_at_chunks) > 2 * threads and max(live_at_chunks) == 1
        assert np.array_equal(dense(matrix), canberra_matrix_reference(contents))

    def test_one_worker_builds_on_the_calling_thread(self, monkeypatch):
        # a pool thread's temporaries come from its own malloc arena, which
        # raised the peak RSS of a one-thread run
        callers = set()
        kernel = dissimilarity._chunk

        def recording(*args):
            callers.add(threading.get_ident())
            return kernel(*args)

        monkeypatch.setattr(dissimilarity, "_chunk", recording)
        build_matrix(values_of([bytes([i, 255 - i, i]) for i in range(12)]), threads=1)
        assert callers == {threading.get_ident()}

    @pytest.mark.parametrize("cpus, threads, workers", [(2, 10_000, 2), (4, 3, 3), (1, 8, 1)])
    def test_workers_capped_at_cpu_count(self, monkeypatch, cpus, threads, workers):
        started = []

        class SerialExecutor:  # records the pool size and starts no thread
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(dissimilarity, "ThreadPoolExecutor", SerialExecutor)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        values = values_of([bytes([i, 255 - i, i]) for i in range(12)])
        matrix = build_matrix(values, threads=threads)
        assert started == [workers]  # the pool is made at one worker too
        assert np.array_equal(dense(matrix), dense(build_matrix(values)))

    def test_multi_chunk_groups_match_oracle_at_any_thread_count(self, rng, monkeypatch):
        # several values per length, so each length group spans many blocks;
        # lengths of 8 and more take the pairwise-sum lanes, and a 130-byte
        # value gives more window offsets than a block has cells. The second
        # input is DHCP's shape: tens of short values and single long ones,
        # each short row's cells against them one slice of its run. The third
        # and fourth draw their bytes from 2 and 4 symbols, so the windows of
        # the longer values repeat and many cells gather one distinct window's sum
        for short, longs, symbols in ((6, ((8, 4), (9, 4), (17, 3), (130, 2)), None),
                                      (7, ((17, 1), (18, 1), (20, 1), (202, 1)), None),
                                      (6, ((8, 4), (9, 4), (17, 3), (130, 2)), [0, 200]),
                                      (7, ((17, 1), (18, 1), (20, 1), (202, 1)), [0, 1, 9, 255])):
            def draw(length):
                if symbols is None:
                    return bytes(rng.integers(0, 256, size=length).tolist())
                return bytes(rng.choice(symbols, size=length).tolist())

            contents = set()
            while len(contents) < 36:
                contents.add(draw(int(rng.integers(2, short))))
            for length, count in longs:
                while sum(len(c) == length for c in contents) < count:
                    contents.add(draw(length))
            contents = sorted(contents, key=lambda c: (c[0], len(c)))  # interleave lengths
            values = values_of(contents)
            with monkeypatch.context() as patch:
                default = dense(build_matrix(values))
                builds = [default, dense(build_matrix(values, threads=2))]
                patch.setattr(dissimilarity, "_CHUNK_CELLS", 24)
                builds += [dense(build_matrix(values, threads=t)) for t in (1, 2, 8)]
                # three CPUs: eight threads run three uneven shares of the blocks
                patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
                patch.setattr(os, "cpu_count", lambda: 3)
                builds.append(dense(build_matrix(values, threads=8)))
            reference = canberra_matrix_reference(contents).view(np.uint64)
            for d in builds:
                assert np.array_equal(d.view(np.uint64), default.view(np.uint64))
                assert np.array_equal(d, d.T)
                assert np.array_equal(d.view(np.uint64), reference)
            for i, a in enumerate(contents):
                for j, b in enumerate(contents):
                    expected = 0.0 if i == j else canberra_reference(a, b)
                    assert builds[0][i, j] == pytest.approx(expected, abs=1e-12)

    def test_zero_bytes_in_both_values_count_as_equal(self):
        contents = [b"\x00\x00\x05", b"\x00\x07\x05", b"\x00\x00\x00"]
        values = values_of(contents)
        d = dense(build_matrix(values))
        for i, a in enumerate(contents):
            for j, b in enumerate(contents):
                expected = 0.0 if i == j else canberra_reference(a, b)
                assert d[i, j] == pytest.approx(expected, abs=1e-12)

    def test_single_value_rejected(self):
        with pytest.raises(EmptyAnalysisError):
            build_matrix(values_of([b"xy"]))

    def test_matrix_is_immutable(self):
        matrix = make_matrix([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ValueError):
            matrix.d[0] = 0.9  # the store's one cell, (0, 1)

    def test_csv_dump(self, tmp_path):
        matrix = make_matrix([[0.0, 0.25], [0.25, 0.0]])
        out = tmp_path / "m.csv"
        write_matrix_csv(matrix, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "0,1"
        assert lines[1] == "0,0.25"
        assert lines[2] == "0.25,0"


class TestMatrixReaders:
    """The matrix's own methods are the only readers of its store."""

    @pytest.mark.parametrize("n", [300, 700])  # both end on a partial row chunk
    def test_within_is_the_upper_triangle_at_or_below_eps(self, rng, n):
        assert n % max(1, dissimilarity._CHUNK_CELLS // n)
        d = np.round(symmetric_random(n, rng), 2)  # ties at eps
        matrix = make_matrix(d)
        off_diagonal = d[~np.eye(n, dtype=bool)]
        sizes = []
        for eps in (off_diagonal.min() / 2, 0.3, 0.5, 0.71, off_diagonal.max(), 1.0):
            chunks = list(matrix.within(eps))
            # one chunk of whole rows per slice of at most _CHUNK_CELLS cells
            assert len(chunks) >= n * (n - 1) / 2 / dissimilarity._CHUNK_CELLS
            for chunk_heads, chunk_tails in chunks:
                assert chunk_heads.dtype == chunk_tails.dtype == np.int32
                assert chunk_heads.size == chunk_tails.size <= dissimilarity._CHUNK_CELLS
            heads, tails = (np.concatenate(ends) for ends in zip(*chunks))
            expected = np.nonzero(np.triu(d <= eps, 1))
            assert np.array_equal(heads, expected[0]) and np.array_equal(tails, expected[1])
            sizes.append(heads.size)
        assert sizes[0] == 0 and sizes[-2] == sizes[-1] == n * (n - 1) // 2

    def test_every_call_scans_the_store_anew(self, rng):
        n = 300
        d = np.round(symmetric_random(n, rng), 2)  # ties at every eps
        matrix = make_matrix(d)
        lists = []
        for eps in (0.3, 0.2, 0.07, 0.4, 0.3):  # falling, then rising, then repeated
            heads, tails = pairs_within(matrix, eps)
            expected = np.nonzero(np.triu(d <= eps, 1))
            assert np.array_equal(heads, expected[0]) and np.array_equal(tails, expected[1])
            assert heads.dtype == tails.dtype == np.int32
            lists.append((heads, tails))
        # the matrix keeps no list, so one eps twice gives two distinct arrays
        for first, again in zip(lists[0], lists[-1]):
            assert not np.shares_memory(first, again)

    def test_block_is_a_writable_copy(self, rng):
        d = symmetric_random(6, rng)
        matrix = make_matrix(d)
        block = matrix.block([4, 1], [0, 2, 5])
        assert np.array_equal(block, d[np.ix_([4, 1], [0, 2, 5])])
        block[:] = np.inf
        assert np.array_equal(matrix.d, condensed(d))

    def test_no_other_module_reads_the_dense_array(self):
        package = Path(dissimilarity.__file__).parent
        readers = sorted({
            path.name
            for path in package.glob("*.py")
            if path.name != "dissimilarity.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr == "d"
            and isinstance(node.ctx, ast.Load)
        })
        assert readers == []


class TestStorageLayout:
    """``build_matrix`` stores the values by length; every reader answers in value order."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_readers_match_the_value_order_oracle(self, rng, monkeypatch, tmp_path, threads):
        contents = set()
        for length in (2, 3, 4, 7, 9, 16, 33):
            count = int(rng.integers(4, 10))
            contents |= {bytes((rng.integers(0, 256, size=length)
                                * (rng.random(length) < 0.7)).tolist()) for _ in range(count)}
        contents = sorted(contents)
        contents = [contents[i] for i in rng.permutation(len(contents))]  # lengths interleave
        n = len(contents)
        values = values_of(contents)
        reference = canberra_matrix_reference(contents)
        monkeypatch.setattr(dissimilarity, "_CHUNK_CELLS", 24)  # each group spans many blocks
        matrix = build_matrix(values, threads=threads)

        assert np.array_equal(matrix.order, np.argsort(values.length, kind="stable"))
        square = squareform(matrix.d[:-1])  # the store in storage order, as a square
        stored = values.length[matrix.order]
        lengths = np.unique(stored)
        assert lengths.size >= 6
        for m in lengths:
            rows = np.flatnonzero(stored == m)
            assert np.array_equal(rows, np.arange(rows[0], rows[-1] + 1))
            for big in lengths:
                cols = np.flatnonzero(stored == big)
                tile = square[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
                expected = reference[np.ix_(np.flatnonzero(values.length == m),
                                            np.flatnonzero(values.length == big))]
                assert np.array_equal(tile, expected)

        assert np.array_equal(matrix.block(range(n), range(n)), reference)
        off_diagonal = np.where(np.eye(n, dtype=bool), np.inf, reference)
        assert np.array_equal(matrix.nearest(6), np.sort(off_diagonal, axis=1)[:, :6])
        upper = np.sort(reference[np.triu_indices(n, 1)])
        for eps in upper[[0, upper.size // 10, upper.size // 2, -1]]:  # ties at eps
            heads, tails = pairs_within(matrix, eps)
            # the pairs come in scan order, so compare them as a set of keys i * n + j
            expected = np.nonzero(np.triu(reference <= eps, 1))
            keys = np.sort(heads.astype(np.int64) * n + tails)
            assert np.array_equal(keys, expected[0] * n + expected[1])  # row-major, so sorted
            assert np.unique(keys).size == keys.size and np.all(heads < tails)
            assert heads.dtype == tails.dtype == np.int32

        write_matrix_csv(matrix, tmp_path / "m.csv")
        rows = [",".join(f"{x:.6g}" for x in row) for row in reference]
        assert (tmp_path / "m.csv").read_text() == "\n".join(
            [",".join(map(str, range(n))), *rows, ""])


class TestKernelBits:
    """The byte-position kernel keeps the bits of the broadcast kernel."""

    def test_term_table_matches_formula_for_every_byte_pair(self):
        for x in range(256):
            for y in range(256):
                expected = abs(x - y) / (x + y) if x + y else 0.0
                assert dissimilarity._TERMS[256 * x + y] == expected

    def test_pairwise_sum_matches_numpy_sum_for_every_length(self, rng):
        # magnitudes spread over 24 decades, so a different order of
        # additions changes the last bits of most sums
        for n in range(1, 301):
            x = rng.random((6, n)) * 10.0 ** rng.integers(-12, 12, size=(6, n))
            total = dissimilarity._pairwise_sum(lambda i: x[:, i].copy(), n)
            assert np.array_equal(total, x.sum(axis=-1)), n

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_build_matrix_equals_broadcast_kernel(self, rng, threads):
        contents = []
        # one length in each branch of the pairwise sum and at its edges
        for length in (2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 200, 300):
            sparse = rng.integers(0, 256, size=length) * (rng.random(length) < 0.3)
            contents += [
                bytes(rng.integers(0, 256, size=length).tolist()),
                bytes(sparse.tolist()),  # mostly zero bytes
                bytes(length),  # all zero
                bytes([int(rng.integers(1, 256))]) * length,  # one repeated byte
            ]
        contents = list(dict.fromkeys(contents))
        contents = [contents[i] for i in rng.permutation(len(contents))]
        values = values_of(contents)
        d = dense(build_matrix(values, threads=threads))
        assert np.array_equal(d, canberra_matrix_reference(contents))


# bytes biased toward 0x00, and values made of runs of one byte
_byte = st.one_of(st.just(0), st.integers(0, 255))
_value = st.one_of(
    st.lists(_byte, min_size=2, max_size=40).map(bytes),
    st.lists(st.tuples(_byte, st.integers(1, 12)), min_size=1, max_size=6)
    .map(lambda runs: b"".join(bytes([b]) * count for b, count in runs))
    .filter(lambda v: 2 <= len(v) <= 40),
)


@st.composite
def _contents(draw):
    """Distinct values of the kinds above, or over an alphabet of 2 to 4 bytes, so
    that the windows of the longer values repeat, or of random bytes."""
    kind = draw(st.sampled_from(["mixed", "alphabet", "random"]), label="kind")
    if kind == "mixed":
        value = _value
    else:
        alphabet = (draw(st.sets(st.integers(0, 255), min_size=2, max_size=4), label="alphabet")
                    if kind == "alphabet" else range(256))
        value = st.lists(st.sampled_from(sorted(alphabet)), min_size=2, max_size=40).map(bytes)
    return draw(st.lists(value, min_size=2, max_size=14, unique=True), label="contents")


@settings(max_examples=80, deadline=None)
@given(contents=_contents(), chunk=st.sampled_from([24, dissimilarity._CHUNK_CELLS]))
def test_build_matrix_properties(contents, chunk):
    values = values_of(contents)
    reference = canberra_matrix_reference(contents)
    with mock.patch.object(dissimilarity, "_CHUNK_CELLS", chunk):
        d = dense(build_matrix(values, threads=1))
        assert np.array_equal(dense(build_matrix(values, threads=2)).view(np.uint64),
                              d.view(np.uint64))
    assert np.array_equal(d.view(np.uint64), reference.view(np.uint64))
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.all((d >= 0.0) & (d <= 1.0))
    for i, a in enumerate(contents):
        for j, b in enumerate(contents):
            if i != j:
                assert d[i, j] == pytest.approx(canberra_reference(a, b), abs=1e-12)


@st.composite
def stored_squares(draw):
    """(square in value order, storage order): n of 2 to 40, cells of a few tied
    levels or any value in (0, 1], and the values stored in a shuffled order."""
    n = draw(st.integers(2, 40), label="n")
    cell = st.one_of(st.sampled_from([0.125, 0.25, 0.5]), st.floats(0.01, 1.0))
    upper = draw(st.lists(cell, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    square = squareform(np.array(upper))
    return square, np.array(draw(st.permutations(range(n)), label="order"))


@settings(max_examples=60, deadline=None)
@given(case=stored_squares(), chunk=st.sampled_from([24, dissimilarity._CHUNK_CELLS]),
       data=st.data())
def test_store_readers_match_the_square_oracle(case, chunk, data):
    square, order = case
    n = len(square)
    matrix = DissimilarityMatrix(make_matrix(square).values,
                                 condensed(square[np.ix_(order, order)]), order)
    index = st.integers(0, n - 1)
    rows = data.draw(st.lists(index, min_size=1, max_size=2 * n), label="rows")
    cols = data.draw(st.lists(index, min_size=1, max_size=2 * n), label="cols")
    members = sorted(data.draw(st.sets(index, min_size=2), label="members"))
    k = data.draw(st.integers(1, n - 1), label="k")
    eps = data.draw(st.sampled_from(squareform(square).tolist()), label="eps")
    wider = max(eps, data.draw(st.sampled_from(squareform(square).tolist()), label="wider"))
    with mock.patch.object(dissimilarity, "_CHUNK_CELLS", chunk):
        block = matrix.block(rows, cols)  # repeats and the diagonal included
        assert np.array_equal(block, square[np.ix_(rows, cols)])
        a, b = divmod(int(np.argmin(block)), len(cols))
        assert matrix.closest(rows, cols) == (a, b, block[a, b])

        among = square[np.ix_(members, members)]
        pairs = among[np.triu_indices(len(members), 1)]
        np.fill_diagonal(among, np.inf)
        mean, nearest, d_max = matrix.pair_stats(members)
        assert (mean, d_max) == (float(pairs.mean()), float(pairs.max()))
        assert np.array_equal(nearest, among.min(axis=1))

        off_diagonal = np.where(np.eye(n, dtype=bool), np.inf, square)
        assert np.array_equal(matrix.nearest(k), np.sort(off_diagonal, axis=1)[:, :k])
        for at in (wider, eps):  # each call scans the store anew
            heads, tails = pairs_within(matrix, at)
            expected = np.nonzero(np.triu(square <= at, 1))
            assert np.array_equal(np.sort(heads.astype(np.int64) * n + tails),
                                  expected[0] * n + expected[1])
        with tempfile.TemporaryDirectory() as directory:
            write_matrix_csv(matrix, Path(directory) / "m.csv")
            written = (Path(directory) / "m.csv").read_text()
    rows = [",".join(f"{x:.6g}" for x in row) for row in square]
    assert written == "\n".join([",".join(map(str, range(n))), *rows, ""])

"""Segmentation: ground-truth import, heuristic segmenter, filtering."""

from __future__ import annotations

import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import segmentation_of, traced_peak
from oracles import heuristic_boundaries_reference, import_segmentation_reference
from typeclust import segmentation
from typeclust.errors import AnalysisError, InconsistentGroundTruthError, MissingMessageError
from typeclust.segmentation import (
    HEURISTIC_NAME,
    Segmentation,
    filter_analyzable,
    import_segmentation,
    segment_heuristic,
)


def rows(seg: Segmentation) -> list[tuple]:
    """(message, offset, length, bytes, truth type) of every segment."""
    return [
        (m, o, n, seg.data[a : a + n], t)
        for m, o, n, a, t in zip(seg.message.tolist(), seg.offset.tolist(),
                                 seg.length.tolist(), seg.start.tolist(), seg.truth.tolist())
    ]


class TestImportSegmentation:
    def write(self, tmp_path, doc):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(doc))
        return path

    def test_basic_import_by_payload(self, tmp_path):
        messages = [bytes([0x01, 0x02, 0x03])]
        path = self.write(
            tmp_path,
            {
                "segmenter": "gt",
                "messages": [
                    {"payload": "010203", "fields": [{"len": 1, "type": "flag"}, {"len": 2, "type": "id"}]}
                ],
            },
        )
        seg = import_segmentation(messages, path)
        assert [(o, n, t) for _, o, n, _, t in rows(seg)] == [
            (0, 1, "flag"),
            (1, 2, "id"),
        ]
        assert {m for m, *_ in rows(seg)} == {0}
        assert all(b == messages[0][o : o + n] for _, o, n, b, _ in rows(seg))

    def test_import_by_index(self, tmp_path):
        messages = [b"\x10\x20"]
        path = self.write(
            tmp_path,
            {"messages": [{"index": 0, "fields": [{"len": 2, "type": "word"}]}]},
        )
        seg = import_segmentation(messages, path)
        assert seg.truth[0] == "word"

    def test_length_mismatch_names_message(self, tmp_path):
        messages = [b"\x01\x02\x03"]
        path = self.write(
            tmp_path,
            {"messages": [{"payload": "010203", "fields": [{"len": 1, "type": "a"}, {"len": 1, "type": "b"}]}]},
        )
        with pytest.raises(InconsistentGroundTruthError, match="message 0"):
            import_segmentation(messages, path)

    def test_unknown_payload_is_missing_message(self, tmp_path):
        messages = [b"\x01"]
        path = self.write(
            tmp_path, {"messages": [{"payload": "ff", "fields": [{"len": 1, "type": "x"}]}]}
        )
        with pytest.raises(MissingMessageError):
            import_segmentation(messages, path)

    def test_payload_that_is_not_hex_is_missing_message(self, tmp_path):
        messages = [b"\x01"]
        path = self.write(
            tmp_path, {"messages": [{"payload": "zz", "fields": [{"len": 1, "type": "x"}]}]}
        )
        for importer in (import_segmentation, import_segmentation_reference):
            with pytest.raises(MissingMessageError, match=r"^entry payload 'zz' is not valid hex$"):
                importer(messages, path)

    def test_unknown_index_is_missing_message(self, tmp_path):
        messages = [b"\x01"]
        path = self.write(tmp_path, {"messages": [{"index": 5, "fields": [{"len": 1, "type": "x"}]}]})
        with pytest.raises(MissingMessageError):
            import_segmentation(messages, path)

    def test_payload_and_index_must_name_one_message(self, tmp_path):
        messages = [bytes([i, 0xA0]) for i in range(20)]
        fields = [{"len": 2, "type": "word"}]
        path = self.write(tmp_path, {"messages": [
            {"payload": messages[0].hex(), "index": 5, "fields": fields}]})
        with pytest.raises(InconsistentGroundTruthError,
                           match=r"messages\[0\] payload is message 0, index is 5"):
            import_segmentation(messages, path)
        path = self.write(tmp_path, {"messages": [
            {"payload": messages[5].hex(), "index": 5, "fields": fields}]})
        assert import_segmentation(messages, path).message.tolist() == [5]

    @pytest.mark.parametrize("entry", [3, "010203", None, ["index", 0]])
    def test_non_object_message_entry_rejected(self, tmp_path, entry):
        messages = [b"\x01\x02\x03"]
        path = self.write(tmp_path, {"messages": [entry]})
        with pytest.raises(InconsistentGroundTruthError, match=r"messages\[0\]"):
            import_segmentation(messages, path)

    @pytest.mark.parametrize("field", [3, "len", None, [3, "x"], {"len": 3, "type": 7}])
    def test_non_object_field_rejected(self, tmp_path, field):
        messages = [b"\x01\x02\x03"]
        path = self.write(tmp_path, {"messages": [{"payload": "010203", "fields": [field]}]})
        with pytest.raises(InconsistentGroundTruthError, match="message 0"):
            import_segmentation(messages, path)

    @pytest.mark.parametrize("index", [True, False, 1.0, "1"])
    def test_non_integer_index_rejected(self, tmp_path, index):
        messages = [b"\x01\x02", b"\x03\x04"]
        path = self.write(tmp_path, {"messages": [{"index": index, "fields": [{"len": 2}]}]})
        with pytest.raises(InconsistentGroundTruthError, match="index"):
            import_segmentation(messages, path)

    def test_boolean_field_length_rejected(self, tmp_path):
        messages = [b"\x01"]
        path = self.write(tmp_path, {"messages": [{"index": 0, "fields": [{"len": True}]}]})
        with pytest.raises(InconsistentGroundTruthError, match="positive integers"):
            import_segmentation(messages, path)

    def test_non_string_payload_rejected(self, tmp_path):
        messages = [b"\x01\x02"]
        path = self.write(tmp_path, {"messages": [{"payload": 258, "fields": [{"len": 2}]}]})
        with pytest.raises(InconsistentGroundTruthError, match="hex string"):
            import_segmentation(messages, path)

    @pytest.mark.parametrize("content", [
        b"{messages: []}", b"", b'{"messages": [\xff]}',
        pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested-100000-deep"),
    ])
    def test_undecodable_file_names_path(self, tmp_path, content):
        path = tmp_path / "gt.json"
        path.write_bytes(content)
        with pytest.raises(InconsistentGroundTruthError, match="gt.json: not a JSON document"):
            import_segmentation([b"\x01\x02"], path)

    @pytest.mark.parametrize("name", [7, None, ["heuristic"], {"name": "x"}])
    def test_non_string_segmenter_rejected(self, tmp_path, name):
        path = self.write(tmp_path, {"segmenter": name, "messages": []})
        with pytest.raises(InconsistentGroundTruthError, match="segmenter must be a string"):
            import_segmentation([b"\x01\x02"], path)

    def test_limit_leaves_out_later_messages(self, tmp_path):
        messages = [b"\x01\x02", b"\x03\x04", b"\x05\x06\x07"]
        path = self.write(tmp_path, {"messages": [
            {"payload": "0304", "fields": [{"len": 2, "type": "b"}]},
            {"index": 2, "fields": [{"len": 1, "type": "c"}, {"len": 2, "type": "c"}]},
            {"payload": "0102", "fields": [{"len": 1, "type": "a"}, {"len": 1, "type": "a"}]},
        ]})
        seg = import_segmentation(messages, path, limit=2)
        assert seg.data == b"\x01\x02\x03\x04"
        assert [(m, o, n, t) for m, o, n, _, t in rows(seg)] == [
            (0, 0, 1, "a"), (0, 1, 1, "a"), (1, 0, 2, "b"),
        ]

    @pytest.mark.parametrize("entry, error, match", [
        ({"payload": "050607", "fields": [{"len": 2}]}, InconsistentGroundTruthError, "message 2"),
        ({"index": 2, "fields": [{"len": 0}, {"len": 3}]}, InconsistentGroundTruthError, "message 2"),
        ({"index": 1, "fields": [{"len": 2}]}, InconsistentGroundTruthError, "more than one"),
        ({"payload": "ff", "fields": [{"len": 1}]}, MissingMessageError, "payload ff"),
        ({"index": 3, "fields": [{"len": 1}]}, MissingMessageError, "index 3"),
    ])
    def test_limit_checks_the_entries_it_leaves_out(self, tmp_path, entry, error, match):
        messages = [b"\x01\x02", b"\x03\x04", b"\x05\x06\x07"]
        path = self.write(tmp_path, {"messages": [
            {"payload": "0304", "fields": [{"len": 2}]}, entry,
        ]})
        with pytest.raises(error, match=match):
            import_segmentation(messages, path, limit=1)

    def test_null_type_stays_none(self, tmp_path):
        messages = [b"\x01\x02"]
        path = self.write(
            tmp_path, {"messages": [{"payload": "0102", "fields": [{"len": 2, "type": None}]}]}
        )
        seg = import_segmentation(messages, path)
        assert seg.truth[0] is None

    def test_one_string_per_type_name(self, tmp_path):
        messages = [bytes([i, 0xA0, 0xB0, 0xC0, 0xD0]) for i in range(30)]
        names = ["ipv4", "counter", None]
        fields = [[{"len": 2, "type": names[i % 3]}, {"len": 3, "type": names[(i + 1) % 3]}]
                  for i in range(30)]
        path = self.write(tmp_path, {"messages": [
            {"index": i, "fields": f} for i, f in enumerate(fields)]})
        truth = import_segmentation(messages, path).truth.tolist()
        assert sorted(map(str, set(truth))) == ["None", "counter", "ipv4"]
        # the parsed document's strings are not kept, one per field
        assert len({id(t) for t in truth}) == len(set(truth))


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
FUZZ_PAYLOADS = [b"\x01\x02\x03", b"abcd", b"\x00"]
# Documents near the interchange format, with arbitrary JSON in every slot.
FIELD = JSON | st.fixed_dictionaries(
    {}, optional={"len": JSON | st.integers(0, 5), "type": JSON | st.just(None)})
ENTRY = JSON | st.fixed_dictionaries({}, optional={
    "payload": JSON | st.sampled_from([p.hex() for p in FUZZ_PAYLOADS] + ["0g", "0"]),
    "index": JSON | st.integers(-1, 3),
    "fields": JSON | st.lists(FIELD, max_size=4),
})


def tiling(index: int):
    """Entries for message ``index`` whose field lengths tile it, though a
    field may be arbitrary JSON instead (one in four)."""
    size = len(FUZZ_PAYLOADS[index])

    def field(length):
        tiles = st.fixed_dictionaries(
            {"len": st.just(length)}, optional={"type": st.sampled_from(["a", "b", None])})
        return st.one_of(tiles, tiles, tiles, FIELD)

    def fields(cuts):
        edges = [0, *sorted(cuts), size]
        return st.tuples(*(field(end - begin) for begin, end in zip(edges, edges[1:])))

    cuts = st.sets(st.integers(1, size - 1), max_size=3) if size > 1 else st.just(set())
    return cuts.flatmap(fields).map(lambda f: {"index": index, "fields": list(f)})


SEGMENTATION_DOCS = JSON | st.fixed_dictionaries(
    {"messages": JSON | st.lists(ENTRY, max_size=4)}, optional={"segmenter": JSON}
) | st.fixed_dictionaries(  # documents that reach the field checks, and some that import
    {"messages": st.lists(st.sampled_from(range(len(FUZZ_PAYLOADS))), unique=True).flatmap(
        lambda order: st.tuples(*map(tiling, order)).map(list))},
    optional={"segmenter": st.text(max_size=4)})


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=SEGMENTATION_DOCS, limit=st.sampled_from([None, 0, 1, 2]))
def test_arbitrary_json_raises_only_analysis_errors(tmp_path, doc, limit):
    """Any document either fails as the reference fails, with its error
    class and message, or imports the reference's segments."""
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(doc))
    messages = FUZZ_PAYLOADS
    try:
        name, expected = import_segmentation_reference(messages, path, limit)
    except AnalysisError as err:
        with pytest.raises(AnalysisError) as raised:
            import_segmentation(messages, path, limit)
        assert (type(raised.value), str(raised.value)) == (type(err), str(err))
        return
    seg = import_segmentation(messages, path, limit)
    assert seg.segmenter_name == name
    assert seg.data == b"".join(messages[:limit])
    for column, values in expected.items():
        array = getattr(seg, column)
        assert array.tolist() == values, column
        assert array.dtype == (object if column == "truth" else np.int64), column
    for message_id in set(seg.message.tolist()):
        own = sorted((r for r in rows(seg) if r[0] == message_id), key=lambda r: r[1])
        assert b"".join(r[3] for r in own) == messages[message_id]


class TestHeuristicSegmenter:
    def test_uniform_payload_is_single_segment(self):
        seg = segment_heuristic([bytes([7] * 8)])
        assert [(o, n) for _, o, n, _, _ in rows(seg)] == [(0, 8)]
        assert seg.segmenter_name == HEURISTIC_NAME

    def test_texture_transition_example(self):
        # two zero bytes then the printable run "abcd"
        seg = segment_heuristic([bytes.fromhex("000061626364")])
        assert [(o, n) for _, o, n, _, _ in rows(seg)] == [(0, 2), (2, 4)]

    def test_alternating_bytes_match_rule_oracle(self):
        payload = bytes([0x00, 0xFF] * 6)
        seg = segment_heuristic([payload])
        cuts = seg.offset.tolist()[1:]
        assert cuts == heuristic_boundaries_reference(payload)

    def test_random_payloads_match_rule_oracle(self, rng):
        for _ in range(200):
            length = int(rng.integers(1, 40))
            payload = bytes(rng.integers(0, 256, size=length).tolist())
            seg = segment_heuristic([payload])
            cuts = seg.offset.tolist()[1:]
            assert cuts == heuristic_boundaries_reference(payload), payload.hex()

    def test_tiling_invariant(self, rng):
        payloads = [bytes(rng.integers(0, 256, size=int(rng.integers(1, 30))).tolist()) for _ in range(50)]
        seg = segment_heuristic(payloads)
        for message_id, payload in enumerate(payloads):
            own = sorted((r for r in rows(seg) if r[0] == message_id), key=lambda r: r[1])
            assert own[0][1] == 0
            assert sum(r[2] for r in own) == len(payload)
            for left, right in zip(own, own[1:]):
                assert left[1] + left[2] == right[1]
            assert b"".join(r[3] for r in own) == payload

    def test_deterministic(self):
        messages = [b"\x00\x00abc\xff\xfe\x01", b"xy\x00\x00\x00z"]
        assert rows(segment_heuristic(messages)) == rows(segment_heuristic(messages))

    def test_temporaries_are_piece_sized(self):
        rng = np.random.default_rng(7)
        messages = [rng.integers(0, 256, int(size), dtype=np.uint8).tobytes()
                    for size in rng.integers(100, 500, size=3400)]
        assert 1_000_000 < sum(map(len, messages)) < 1_100_000
        seg, peak = traced_peak(segment_heuristic, messages)
        outputs = len(seg.data) + sum(
            a.nbytes for a in (seg.message, seg.offset, seg.length, seg.start, seg.truth))
        # int64 arrays over every payload byte took about 24 B a byte
        assert peak - outputs < 2e6

    def test_truth_is_none_for_every_segment(self):
        seg = segment_heuristic([b"\x00\x00abc\xff\xfe\x01", b"xy\x00\x00\x00z"])
        assert seg.truth.dtype == object and seg.truth.shape == (len(seg),)
        assert seg.truth.tolist() == [None] * len(seg)
        assert 1 in seg.length.tolist()  # so the filter drops some
        kept = filter_analyzable(seg)
        assert kept.truth.tolist() == [None] * len(kept)
        # labelled by position, the kept truth is that of the kept segments
        labelled = replace(seg, truth=np.array([f"s{i}" for i in range(len(seg))], dtype=object))
        assert filter_analyzable(labelled).truth.tolist() == [
            f"s{i}" for i, n in enumerate(seg.length.tolist()) if n >= 2]


class TestFilterAnalyzable:
    def test_one_byte_segments_dropped(self):
        segs = segmentation_of(*((0, 0, bytes(n), None) for n in (1, 2, 3, 1)))
        kept = filter_analyzable(segs)
        assert kept.length.tolist() == [2, 3]

    def test_all_one_byte_yields_empty(self):
        segs = segmentation_of(*[(0, 0, b"\x01", None)] * 4)
        assert len(filter_analyzable(segs)) == 0

    def test_excluded_byte_accounting_matches_ground_truth(self, tmp_path):
        # messages with known one-byte true fields
        messages = [b"\x01\x02\x03\x04", b"\x05\x06\x07"]
        doc = {
            "messages": [
                {"payload": "01020304", "fields": [{"len": 1, "type": "tag"}, {"len": 3, "type": "body"}]},
                {"payload": "050607", "fields": [{"len": 1, "type": "tag"}, {"len": 2, "type": "id"}]},
            ]
        }
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(doc))
        seg = import_segmentation(messages, path)
        kept = filter_analyzable(seg)
        excluded = seg.length[seg.length == 1]
        one_byte_true_fields = 2  # recount from the ground truth above
        assert len(excluded) == one_byte_true_fields
        assert excluded.sum() == one_byte_true_fields
        assert len(kept) == len(seg) - one_byte_true_fields


# bytes at the texture class edges, so class changes and delta turns are common
_BYTE = st.sampled_from([0x00, 0x01, 0x1F, 0x20, 0x41, 0x7E, 0x7F, 0x80, 0xFF]) | st.integers(0, 255)


@settings(max_examples=200, deadline=None)
@given(payloads=st.lists(st.lists(_BYTE, min_size=1, max_size=24).map(bytes),
                         min_size=1, max_size=8))
def test_array_segmenter_matches_reference_cuts(payloads):
    seg = segment_heuristic(payloads)
    for message_id, payload in enumerate(payloads):
        own = seg.message == message_id
        assert seg.offset[own].tolist() == [0] + heuristic_boundaries_reference(payload)
    # the segments tile the joined payloads in message order
    assert seg.data == b"".join(payloads)
    assert seg.start.tolist() == (np.cumsum(seg.length) - seg.length).tolist()
    assert seg.length.sum() == len(seg.data)


# whole messages of every short size, empty ones included, and some longer
# than the small pieces the segmenter is patched to cut
_MESSAGES = st.lists(st.lists(_BYTE, max_size=3).map(bytes)
                     | st.lists(_BYTE, min_size=4, max_size=40).map(bytes), max_size=12)


@settings(max_examples=200, deadline=None)
@given(payloads=_MESSAGES, piece=st.integers(1, 32))
def test_pieces_do_not_move_a_cut(payloads, piece):
    with mock.patch.object(segmentation, "_PIECE_BYTES", piece):
        seg = segment_heuristic(payloads)
    for message_id, payload in enumerate(payloads):
        own = seg.message == message_id
        expected = [0] + heuristic_boundaries_reference(payload) if payload else []
        assert seg.offset[own].tolist() == expected
        assert (seg.start[own] - seg.offset[own] == sum(map(len, payloads[:message_id]))).all()
    assert seg.start.tolist() == (np.cumsum(seg.length) - seg.length).tolist()
    assert seg.length.sum() == len(seg.data) == sum(map(len, payloads))
    assert [a.dtype for a in (seg.message, seg.offset, seg.length, seg.start)] == [np.int64] * 4

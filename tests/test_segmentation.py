"""Segmentation: ground-truth import, heuristic segmenter, filtering."""

from __future__ import annotations

import json

import pytest

from oracles import heuristic_boundaries_reference
from typeclust.errors import InconsistentGroundTruthError, MissingMessageError
from typeclust.segmentation import (
    HEURISTIC_NAME,
    Segment,
    filter_analyzable,
    import_segmentation,
    save_segmentation,
    segment_heuristic,
)
from typeclust.traceio import Message


def messages_from(payloads):
    return [Message(i, p, i) for i, p in enumerate(payloads)]


class TestImportSegmentation:
    def write(self, tmp_path, doc):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(doc))
        return path

    def test_basic_import_by_payload(self, tmp_path):
        messages = messages_from([bytes([0x01, 0x02, 0x03])])
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
        assert [(s.offset, s.length, s.truth_type) for s in seg.segments] == [
            (0, 1, "flag"),
            (1, 2, "id"),
        ]
        assert seg.covers_messages == {0}
        assert all(s.bytes == messages[0].payload[s.offset : s.offset + s.length] for s in seg.segments)

    def test_import_by_index(self, tmp_path):
        messages = messages_from([b"\x10\x20"])
        path = self.write(
            tmp_path,
            {"messages": [{"index": 0, "fields": [{"len": 2, "type": "word"}]}]},
        )
        seg = import_segmentation(messages, path)
        assert seg.segments[0].truth_type == "word"

    def test_length_mismatch_names_message(self, tmp_path):
        messages = messages_from([b"\x01\x02\x03"])
        path = self.write(
            tmp_path,
            {"messages": [{"payload": "010203", "fields": [{"len": 1, "type": "a"}, {"len": 1, "type": "b"}]}]},
        )
        with pytest.raises(InconsistentGroundTruthError, match="message 0"):
            import_segmentation(messages, path)

    def test_unknown_payload_is_missing_message(self, tmp_path):
        messages = messages_from([b"\x01"])
        path = self.write(
            tmp_path, {"messages": [{"payload": "ff", "fields": [{"len": 1, "type": "x"}]}]}
        )
        with pytest.raises(MissingMessageError):
            import_segmentation(messages, path)

    def test_unknown_index_is_missing_message(self, tmp_path):
        messages = messages_from([b"\x01"])
        path = self.write(tmp_path, {"messages": [{"index": 5, "fields": [{"len": 1, "type": "x"}]}]})
        with pytest.raises(MissingMessageError):
            import_segmentation(messages, path)

    @pytest.mark.parametrize("entry", [3, "010203", None, ["index", 0]])
    def test_non_object_message_entry_rejected(self, tmp_path, entry):
        messages = messages_from([b"\x01\x02\x03"])
        path = self.write(tmp_path, {"messages": [entry]})
        with pytest.raises(InconsistentGroundTruthError, match=r"messages\[0\]"):
            import_segmentation(messages, path)

    @pytest.mark.parametrize("field", [3, "len", None, [3, "x"], {"len": 3, "type": 7}])
    def test_non_object_field_rejected(self, tmp_path, field):
        messages = messages_from([b"\x01\x02\x03"])
        path = self.write(tmp_path, {"messages": [{"payload": "010203", "fields": [field]}]})
        with pytest.raises(InconsistentGroundTruthError, match="message 0"):
            import_segmentation(messages, path)

    @pytest.mark.parametrize("index", [True, False, 1.0, "1"])
    def test_non_integer_index_rejected(self, tmp_path, index):
        messages = messages_from([b"\x01\x02", b"\x03\x04"])
        path = self.write(tmp_path, {"messages": [{"index": index, "fields": [{"len": 2}]}]})
        with pytest.raises(InconsistentGroundTruthError, match="index"):
            import_segmentation(messages, path)

    def test_boolean_field_length_rejected(self, tmp_path):
        messages = messages_from([b"\x01"])
        path = self.write(tmp_path, {"messages": [{"index": 0, "fields": [{"len": True}]}]})
        with pytest.raises(InconsistentGroundTruthError, match="positive integers"):
            import_segmentation(messages, path)

    def test_non_string_payload_rejected(self, tmp_path):
        messages = messages_from([b"\x01\x02"])
        path = self.write(tmp_path, {"messages": [{"payload": 258, "fields": [{"len": 2}]}]})
        with pytest.raises(InconsistentGroundTruthError, match="hex string"):
            import_segmentation(messages, path)

    def test_round_trip_export_import(self, tmp_path):
        messages = messages_from([b"\x00\x01\x02\x03", b"abcdef"])
        original = segment_heuristic(messages)
        path = tmp_path / "seg.json"
        save_segmentation(original, messages, path)
        reloaded = import_segmentation(messages, path)
        assert reloaded.segments == original.segments
        assert reloaded.covers_messages == original.covers_messages
        assert reloaded.segmenter_name == original.segmenter_name

    def test_null_type_stays_none(self, tmp_path):
        messages = messages_from([b"\x01\x02"])
        path = self.write(
            tmp_path, {"messages": [{"payload": "0102", "fields": [{"len": 2, "type": None}]}]}
        )
        seg = import_segmentation(messages, path)
        assert seg.segments[0].truth_type is None


class TestHeuristicSegmenter:
    def test_uniform_payload_is_single_segment(self):
        seg = segment_heuristic(messages_from([bytes([7] * 8)]))
        assert [(s.offset, s.length) for s in seg.segments] == [(0, 8)]
        assert seg.segmenter_name == HEURISTIC_NAME

    def test_texture_transition_example(self):
        # two zero bytes then the printable run "abcd"
        seg = segment_heuristic(messages_from([bytes.fromhex("000061626364")]))
        assert [(s.offset, s.length) for s in seg.segments] == [(0, 2), (2, 4)]

    def test_alternating_bytes_match_rule_oracle(self):
        payload = bytes([0x00, 0xFF] * 6)
        seg = segment_heuristic(messages_from([payload]))
        cuts = [s.offset for s in seg.segments][1:]
        assert cuts == heuristic_boundaries_reference(payload)

    def test_random_payloads_match_rule_oracle(self, rng):
        for _ in range(200):
            length = int(rng.integers(1, 40))
            payload = bytes(rng.integers(0, 256, size=length).tolist())
            seg = segment_heuristic(messages_from([payload]))
            cuts = [s.offset for s in seg.segments][1:]
            assert cuts == heuristic_boundaries_reference(payload), payload.hex()

    def test_tiling_invariant(self, rng):
        payloads = [bytes(rng.integers(0, 256, size=int(rng.integers(1, 30))).tolist()) for _ in range(50)]
        messages = messages_from(payloads)
        seg = segment_heuristic(messages)
        for message in messages:
            own = sorted(
                (s for s in seg.segments if s.message_id == message.id), key=lambda s: s.offset
            )
            assert own[0].offset == 0
            assert sum(s.length for s in own) == len(message.payload)
            for left, right in zip(own, own[1:]):
                assert left.offset + left.length == right.offset
            assert b"".join(s.bytes for s in own) == message.payload

    def test_deterministic(self):
        messages = messages_from([b"\x00\x00abc\xff\xfe\x01", b"xy\x00\x00\x00z"])
        assert segment_heuristic(messages) == segment_heuristic(messages)


class TestFilterAnalyzable:
    def test_one_byte_segments_dropped(self):
        segs = [
            Segment(0, 0, 1, b"\x01"),
            Segment(0, 1, 2, b"\x02\x03"),
            Segment(0, 3, 3, b"\x04\x05\x06"),
            Segment(0, 6, 1, b"\x07"),
        ]
        from typeclust.segmentation import Segmentation

        kept = filter_analyzable(Segmentation(segs, "test", {0}))
        assert [s.length for s in kept] == [2, 3]

    def test_all_one_byte_yields_empty(self):
        from typeclust.segmentation import Segmentation

        segs = [Segment(0, i, 1, bytes([i])) for i in range(4)]
        assert filter_analyzable(Segmentation(segs, "test", {0})) == []

    def test_excluded_byte_accounting_matches_ground_truth(self, tmp_path):
        # messages with known one-byte true fields
        messages = messages_from([b"\x01\x02\x03\x04", b"\x05\x06\x07"])
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
        excluded = [s for s in seg.segments if s.length == 1]
        one_byte_true_fields = 2  # recount from the ground truth above
        assert len(excluded) == one_byte_true_fields
        assert sum(s.length for s in excluded) == one_byte_true_fields
        assert len(kept) == len(seg.segments) - one_byte_true_fields

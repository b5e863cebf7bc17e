"""Message segmentation: ground-truth import and the built-in heuristic.

A segmentation tiles every covered message completely: per message the
segments are sorted by offset, non-overlapping, and gap-free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InconsistentGroundTruthError, MissingMessageError
from .traceio import Message

HEURISTIC_NAME = "delta-texture-v1"

_ZERO = 0
_PRINTABLE = 1
_OTHER = 2


@dataclass(frozen=True)
class Segment:
    """A contiguous byte slice of one message, a field candidate."""

    message_id: int
    offset: int
    length: int
    bytes: bytes
    truth_type: str | None = None


@dataclass
class Segmentation:
    segments: list[Segment]
    segmenter_name: str
    covers_messages: set[int] = field(default_factory=set)


def texture_class(byte: int) -> int:
    """Classify a byte as zero (0x00), printable (0x20-0x7E), or other."""
    if byte == 0x00:
        return _ZERO
    if 0x20 <= byte <= 0x7E:
        return _PRINTABLE
    return _OTHER


def _heuristic_boundaries(payload: bytes) -> list[int]:
    """Boundary positions (exclusive of 0) for the delta-texture heuristic.

    Two rules place a boundary before position i:
      1. the texture class changes at i and the run of the new class starting
         at i is at least 2 bytes long;
      2. the first difference of the byte-delta series Delta(i) =
         |payload[i] - payload[i-1]| turns from non-positive to positive at i
         and the texture class changes at i.
    """
    n = len(payload)
    if n < 2:
        return []
    classes = [texture_class(b) for b in payload]

    # run length of the identical-class run starting at each position
    run_from = [1] * n
    for i in range(n - 2, -1, -1):
        if classes[i] == classes[i + 1]:
            run_from[i] = run_from[i + 1] + 1

    boundaries: set[int] = set()
    for i in range(1, n):
        if classes[i] != classes[i - 1] and run_from[i] >= 2:
            boundaries.add(i)

    delta = [abs(payload[i] - payload[i - 1]) for i in range(1, n)]  # delta[i-1] = Delta(i)
    # g(i) = Delta(i) - Delta(i-1), defined for i >= 2; a sign change needs g(i-1) too
    for i in range(3, n):
        g_here = delta[i - 1] - delta[i - 2]
        g_prev = delta[i - 2] - delta[i - 3]
        if g_here > 0 and g_prev <= 0 and classes[i] != classes[i - 1]:
            boundaries.add(i)
    return sorted(boundaries)


def segment_heuristic(messages: list[Message]) -> Segmentation:
    """Deterministic built-in segmenter (see :func:`_heuristic_boundaries`)."""
    segments: list[Segment] = []
    for message in messages:
        cuts = [0] + _heuristic_boundaries(message.payload) + [len(message.payload)]
        for start, end in zip(cuts, cuts[1:]):
            segments.append(
                Segment(message.id, start, end - start, message.payload[start:end])
            )
    return Segmentation(segments, HEURISTIC_NAME, {m.id for m in messages})


def _is_field(obj) -> bool:
    return isinstance(obj, dict) and "len" in obj and isinstance(obj.get("type"), (str, type(None)))


def import_segmentation(messages: list[Message], path: str | Path) -> Segmentation:
    """Load a segmentation from its JSON interchange format.

    Entries address messages either by ``payload`` (hex) or by ``index``;
    each entry lists (length, type) fields whose lengths must sum to the
    payload length.
    """
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or not isinstance(doc.get("messages"), list):
        raise InconsistentGroundTruthError(
            f"{path}: expected an object with a 'messages' list"
        )
    name = doc.get("segmenter", "imported")
    by_payload = {m.payload: m for m in messages}

    segments: list[Segment] = []
    covered: set[int] = set()
    for position, entry in enumerate(doc["messages"]):
        if not isinstance(entry, dict):
            raise InconsistentGroundTruthError(
                f"{path}: messages[{position}] is {type(entry).__name__}, expected an object"
            )
        if "payload" in entry:
            key = entry["payload"]
            if not isinstance(key, str):
                raise InconsistentGroundTruthError(
                    f"{path}: messages[{position}] payload must be a hex string, got {key!r}"
                )
            try:
                payload = bytes.fromhex(key)
            except ValueError:
                raise MissingMessageError(f"entry payload {key!r} is not valid hex") from None
            message = by_payload.get(payload)
            if message is None:
                raise MissingMessageError(f"no message with payload {key}")
        elif "index" in entry:
            index = entry["index"]
            if not isinstance(index, int) or isinstance(index, bool):
                raise InconsistentGroundTruthError(
                    f"{path}: messages[{position}] index must be an integer, got {index!r}"
                )
            if not 0 <= index < len(messages):
                raise MissingMessageError(f"no message with index {index!r}")
            message = messages[index]
        else:
            raise MissingMessageError(f"entry {entry!r} has neither payload nor index")
        if message.id in covered:
            raise InconsistentGroundTruthError(
                f"message {message.id} is described by more than one entry"
            )

        fields = entry.get("fields")
        if not isinstance(fields, list) or not all(_is_field(f) for f in fields):
            raise InconsistentGroundTruthError(
                f"message {message.id}: entry needs a 'fields' list of "
                "{'len': int, 'type': str|null} objects"
            )
        lengths = [f["len"] for f in fields]
        if any(not isinstance(l, int) or isinstance(l, bool) or l < 1 for l in lengths):
            raise InconsistentGroundTruthError(
                f"message {message.id}: field lengths must be positive integers, got {lengths}"
            )
        if sum(lengths) != len(message.payload):
            raise InconsistentGroundTruthError(
                f"message {message.id}: field lengths sum to {sum(lengths)}, "
                f"payload has {len(message.payload)} bytes"
            )
        offset = 0
        for field_def in fields:
            length = field_def["len"]
            segments.append(
                Segment(
                    message.id,
                    offset,
                    length,
                    message.payload[offset : offset + length],
                    field_def.get("type"),
                )
            )
            offset += length
        covered.add(message.id)

    segments.sort(key=lambda s: (s.message_id, s.offset))
    return Segmentation(segments, name, covered)


def export_segmentation(segmentation: Segmentation, messages: list[Message]) -> dict:
    """Render a segmentation to its JSON interchange structure."""
    by_id = {m.id: m for m in messages}
    per_message: dict[int, list[Segment]] = {}
    for segment in segmentation.segments:
        per_message.setdefault(segment.message_id, []).append(segment)
    entries = []
    for message_id in sorted(per_message):
        fields = [
            {"len": s.length, "type": s.truth_type}
            for s in sorted(per_message[message_id], key=lambda s: s.offset)
        ]
        entries.append({"payload": by_id[message_id].payload.hex(), "fields": fields})
    return {"segmenter": segmentation.segmenter_name, "messages": entries}


def save_segmentation(segmentation: Segmentation, messages: list[Message], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(export_segmentation(segmentation, messages), handle, indent=2)
        handle.write("\n")


def filter_analyzable(segmentation: Segmentation) -> list[Segment]:
    """Segments long enough to carry value structure (length >= 2 bytes)."""
    return [s for s in segmentation.segments if s.length >= 2]

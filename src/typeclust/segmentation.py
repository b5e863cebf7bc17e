"""Message segmentation: ground-truth import and the built-in heuristic.

A segmentation tiles every covered message completely: per message the
segments are sorted by offset, non-overlapping, and gap-free. It is held
as parallel arrays over the messages' payloads joined in list order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import InconsistentGroundTruthError, MissingMessageError

HEURISTIC_NAME = "delta-texture-v1"

# texture class of every byte value: zero (0x00), printable (0x20-0x7E) or other
_TEXTURE = np.full(256, 2, dtype=np.int8)
_TEXTURE[0x00] = 0
_TEXTURE[0x20:0x7F] = 1

# payload bytes per piece of the heuristic segmenter: its per-byte arrays
# are bool, int8 and int16, so a piece's temporaries stay near 0.5 MB
_PIECE_BYTES = 1 << 16


@dataclass(eq=False)
class Segmentation:
    """Field candidates as parallel arrays in (message, offset) order.

    ``data`` is the messages' payloads joined in list order, and ``start``
    is each segment's first byte in it; ``message`` (the message's index),
    ``offset`` and ``length`` place the segment in its message. ``truth``
    holds each segment's true field type, a string, or None where no type
    is known (everywhere, for the heuristic).
    """

    segmenter_name: str
    data: bytes
    message: np.ndarray
    offset: np.ndarray
    length: np.ndarray
    start: np.ndarray
    truth: np.ndarray

    def __len__(self) -> int:
        return len(self.start)


def _joined(messages: list[bytes]) -> tuple[bytes, np.ndarray]:
    """Joined payloads, and per message its first byte in them."""
    sizes = np.array([len(m) for m in messages], dtype=np.int64)
    return b"".join(messages), np.cumsum(sizes) - sizes


def _cuts(payload: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Segment starts in ``payload``, whose messages start at ``starts`` (one at 0)."""
    size = payload.size
    message_start = np.zeros(size, dtype=bool)
    message_start[starts] = True
    into = np.full(size, 3, dtype=np.int8)  # bytes into the message, capped at 3
    into[2:][message_start[:-2]] = 2
    into[1:][message_start[:-1]] = 1
    into[message_start] = 0
    texture = _TEXTURE[payload]

    change = np.zeros(size, dtype=bool)
    change[1:] = texture[1:] != texture[:-1]  # a message start is a cut anyway
    run_of_two = np.zeros(size, dtype=bool)
    run_of_two[:-1] = (texture[1:] == texture[:-1]) & (into[1:] >= 1)
    delta = np.zeros(size, dtype=np.int16)  # Delta(i)
    np.subtract(payload[1:], payload[:-1], dtype=np.int16, out=delta[1:])
    np.abs(delta, out=delta)
    rise = np.zeros(size, dtype=np.int16)  # Delta(i) - Delta(i-1)
    np.subtract(delta[1:], delta[:-1], out=rise[1:])
    turn = np.zeros(size, dtype=bool)
    turn[1:] = (rise[1:] > 0) & (rise[:-1] <= 0) & (into[1:] >= 3)
    return np.flatnonzero(message_start | change & (run_of_two | turn))


def segment_heuristic(messages: list[bytes]) -> Segmentation:
    """Deterministic built-in segmenter, array passes over pieces of whole messages.

    Two rules place a boundary before position i of a message:
      1. the texture class changes at i and the run of the new class starting
         at i is at least 2 bytes long;
      2. the first difference of the byte-delta series Delta(i) =
         |payload[i] - payload[i-1]| turns from non-positive to positive at i
         and the texture class changes at i.
    Message starts mask every comparison that would reach into a neighbour,
    so the trace is cut in pieces of whole messages, about ``_PIECE_BYTES``
    each or one longer message, and every per-byte array is piece-sized.
    """
    data, first = _joined(messages)
    payload = np.frombuffer(data, dtype=np.uint8)
    edges = np.append(first, payload.size)  # message starts, and the end
    pieces = []
    lo = 0
    while lo < payload.size:
        hi = int(edges[np.searchsorted(edges, lo + _PIECE_BYTES, "right") - 1])
        if hi == lo:  # a message longer than a piece is a piece of its own
            hi = int(edges[np.searchsorted(edges, lo, "right")])
        own = edges[np.searchsorted(edges, lo) : np.searchsorted(edges, hi)]
        pieces.append(lo + _cuts(payload[lo:hi], own - lo))
        lo = hi
    start = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64)
    del pieces  # before the outputs are made
    message = np.searchsorted(first, start, "right") - 1  # an empty message owns no byte
    length = np.diff(start, append=payload.size)
    return Segmentation(HEURISTIC_NAME, data, message, start - first[message], length, start,
                        np.full(len(start), None))


def import_segmentation(
    messages: list[bytes], path: str | Path, limit: int | None = None
) -> Segmentation:
    """Load a segmentation from its JSON interchange format.

    Entries address messages by ``payload`` (hex), by ``index``, or by both
    when the two name one message; each entry lists (length, type) fields
    whose lengths must sum to the payload length. Only the first ``limit``
    messages are segmented: an entry for a later one is checked like any
    other, then left out.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except (ValueError, RecursionError) as err:  # not UTF-8, not JSON, or nested too deep
            raise InconsistentGroundTruthError(f"{path}: not a JSON document ({err})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("messages"), list):
        raise InconsistentGroundTruthError(
            f"{path}: expected an object with a 'messages' list"
        )
    name = doc.get("segmenter", "imported")
    if not isinstance(name, str):
        raise InconsistentGroundTruthError(f"{path}: segmenter must be a string, got {name!r}")
    index_of = {payload: i for i, payload in enumerate(messages)}

    entries: list[int] = []  # per kept entry: its message's index
    counts: list[int] = []  # and its number of fields
    field_lengths: list[int] = []
    field_types: list[str | None] = []
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
            index = index_of.get(payload)
            if index is None:
                raise MissingMessageError(f"no message with payload {key}")
        if "index" in entry:
            named = entry["index"]
            if not isinstance(named, int) or isinstance(named, bool):
                raise InconsistentGroundTruthError(
                    f"{path}: messages[{position}] index must be an integer, got {named!r}"
                )
            if not 0 <= named < len(messages):
                raise MissingMessageError(f"no message with index {named!r}")
            if "payload" in entry and named != index:
                raise InconsistentGroundTruthError(
                    f"{path}: messages[{position}] payload is message {index}, index is {named}"
                )
            index = named
        elif "payload" not in entry:
            raise MissingMessageError(f"entry {entry!r} has neither payload nor index")
        if index in covered:
            raise InconsistentGroundTruthError(
                f"message {index} is described by more than one entry"
            )

        fields = entry.get("fields")
        try:  # f["len"] fails on every JSON value but an object with a "len"
            lengths = [f["len"] for f in fields]
            types = [f.get("type") for f in fields]
        except (TypeError, KeyError, AttributeError):
            fields = None
        if not isinstance(fields, list) or not set(map(type, types)) <= {str, type(None)}:
            raise InconsistentGroundTruthError(
                f"message {index}: entry needs a 'fields' list of "
                "{'len': int, 'type': str|null} objects"
            )
        if not set(map(type, lengths)) <= {int} or min(lengths, default=1) < 1:
            raise InconsistentGroundTruthError(
                f"message {index}: field lengths must be positive integers, got {lengths}"
            )
        if sum(lengths) != len(messages[index]):
            raise InconsistentGroundTruthError(
                f"message {index}: field lengths sum to {sum(lengths)}, "
                f"payload has {len(messages[index])} bytes"
            )
        covered.add(index)
        if limit is not None and index >= limit:
            continue
        entries.append(index)
        counts.append(len(lengths))
        field_lengths += lengths
        field_types += types

    data, first = _joined(messages[:limit])
    owner = np.repeat(np.array(entries, dtype=np.int64), counts)
    length = np.array(field_lengths, dtype=np.int64)
    size = np.diff(first, append=len(data))[entries]
    # an entry's fields tile its message: a field's offset is its place in the
    # run of all fields, less the sizes of the entries' messages before it
    offsets = np.cumsum(length) - length - np.repeat(np.cumsum(size) - size, counts)
    start = first[owner] + offsets
    order = np.argsort(start, kind="stable")  # entries may come in any message order
    # one string per type name: a field's own JSON string would pin the
    # parsed document's memory after it is dropped
    names = dict(zip(field_types, field_types))
    truth = np.array(list(map(names.get, field_types)), dtype=object)
    return Segmentation(name, data, owner[order], offsets[order], length[order], start[order],
                        truth[order])


def filter_analyzable(segmentation: Segmentation) -> Segmentation:
    """Segments long enough to carry value structure (length >= 2 bytes)."""
    keep = segmentation.length >= 2
    return replace(
        segmentation,
        message=segmentation.message[keep],
        offset=segmentation.offset[keep],
        length=segmentation.length[keep],
        start=segmentation.start[keep],
        truth=segmentation.truth[keep],
    )

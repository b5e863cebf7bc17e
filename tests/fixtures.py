"""Deterministic end-to-end fixtures: hex traces plus ground-truth JSON."""

from __future__ import annotations

import json
import random
import struct
from pathlib import Path


def write_fixture(directory: Path, payload_fields) -> tuple[Path, Path]:
    """Write trace.hex and gt.json for (payload, [(len, type), ...]) pairs."""
    directory.mkdir(parents=True, exist_ok=True)
    lines, entries = [], []
    for payload, fields in payload_fields:
        assert sum(length for length, _ in fields) == len(payload)
        lines.append(payload.hex())
        entries.append(
            {
                "payload": payload.hex(),
                "fields": [{"len": length, "type": label} for length, label in fields],
            }
        )
    trace = directory / "trace.hex"
    trace.write_text("\n".join(lines) + "\n")
    truth = directory / "gt.json"
    truth.write_text(json.dumps({"segmenter": "ground-truth", "messages": entries}))
    return trace, truth


def two_type_fixture(directory: Path) -> tuple[Path, Path]:
    """20 messages with two well-separated field types; clusters cleanly."""
    rnd = random.Random(5)
    rows = []
    for i in range(20):
        num = bytes([200, 150 + (i % 5), 100, 50 + i])
        text = bytes(rnd.choice(range(0x61, 0x7B)) for _ in range(8))
        rows.append((num + text, [(4, "num"), (8, "text")]))
    return write_fixture(directory, rows)


def overclassified_fixture(directory: Path) -> tuple[Path, Path]:
    """One field type in two value ranges that DBSCAN splits and merging heals.

    Constant-sum byte pairs keep neighbor dissimilarities uniform inside each
    range, so the auto-selected epsilon clusters both ranges but cannot
    bridge the gap between them.
    """
    values = [bytes([100 + i, 155 - i]) for i in range(10)] + [
        bytes([60 + i, 195 - i]) for i in range(10)
    ]
    return write_fixture(directory, [(v, [(2, "num")]) for v in values])


def coverage_fixture(directory: Path) -> tuple[Path, Path]:
    """Known byte accounting: one-byte tags excluded, one outlier in noise.

    11 messages of 5 bytes each; the ten similar data fields cluster, the
    outlier field becomes noise, so coverage = (55 - 11 - 4) / 55 = 40/55.
    """
    fields = [bytes([200, 150 + (i % 5), 100, 50 + i]) for i in range(10)]
    fields.append(bytes([3, 1, 2, 1]))
    rows = [
        (bytes([0x40 + i]) + field, [(1, "tag"), (4, "data")])
        for i, field in enumerate(fields)
    ]
    return write_fixture(directory, rows)


def synthetic_protocol_fixture(directory: Path, count: int = 500, seed: int = 95) -> tuple[Path, Path]:
    """Generated protocol with four field types over `count` messages.

    Layout per message: fixed 4-byte magic, 32-bit big-endian counter,
    8-char lowercase text, 4 random bytes.
    """
    rnd = random.Random(seed)
    magic = b"\x7fMAG"
    rows = []
    seen = set()
    counter = 0
    while len(rows) < count:
        payload = (
            magic
            + struct.pack(">I", counter)
            + bytes(rnd.choice(range(0x61, 0x7B)) for _ in range(8))
            + bytes(rnd.choice(range(256)) for _ in range(4))
        )
        counter += 1
        if payload in seen:
            continue
        seen.add(payload)
        rows.append(
            (payload, [(4, "magic"), (4, "counter"), (8, "text"), (4, "random")])
        )
    return write_fixture(directory, rows)


def hadamard_fixture(directory: Path, order: int) -> tuple[Path, Path]:
    """Rows of a Sylvester Hadamard matrix of `order` (a power of 2) as 00/ff bytes.

    Any two rows differ in half their bytes, so with each message one field
    every dissimilarity is 0.5: every k-NN curve is flat and has no knee.
    """
    rows = [[1]]
    while len(rows) < order:
        rows = [row + row for row in rows] + [row + [-x for x in row] for row in rows]
    payloads = [bytes(0xFF if x > 0 else 0x00 for x in row) for row in rows]
    return write_fixture(directory, [(p, [(len(p), "word")]) for p in payloads])

"""Checks of typeclust's outputs against computations made apart from it.

Everything here works from the generator's records and ground truth and from
the reference segmentation rule in ``tests/oracles.py``; nothing calls into
the ``typeclust`` package. Each check returns a list of failure messages,
empty when the output is right.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import oracles  # noqa: E402  (read-only reference implementations)

from gen import Fields, Trace  # noqa: E402

BETA = 0.25


@dataclass
class Expected:
    """The analyzable values a correct run must report, with their labels."""

    labels: dict[str, list[str]]  # value hex -> truth label per occurrence, in trace order
    total_bytes: int
    records: int
    skipped_fragments: int
    messages: int

    def majority(self, value: str) -> str:
        """Most frequent label; ties go to the label seen first."""
        occurrences = self.labels[value]
        counts = Counter(occurrences)
        return max(counts, key=lambda label: (counts[label], -occurrences.index(label)))


def _truth_segments(fields: Fields) -> list[tuple[int, int, str]]:
    segments, offset = [], 0
    for length, label in fields:
        segments.append((offset, length, label))
        offset += length
    return segments


def _overlap_label(start: int, length: int, truth: list[tuple[int, int, str]]) -> str:
    """Truth label of the field that covers most of [start, start+length)."""
    best, best_overlap = None, 0
    for offset, size, label in truth:
        overlap = min(start + length, offset + size) - max(start, offset)
        if overlap > best_overlap:
            best, best_overlap = label, overlap
    return best


def expected_values(trace: Trace, segmenter: str) -> Expected:
    """Distinct segments of two bytes or more, labelled from the truth.

    The import segmenter takes the generator's fields; the heuristic one
    takes the reference boundaries and labels each segment by byte overlap.
    """
    labels: dict[str, list[str]] = {}
    for payload, fields in trace.messages:
        truth = _truth_segments(fields)
        if segmenter == "import":
            segments = truth
        else:
            cuts = [0] + oracles.heuristic_boundaries_reference(payload) + [len(payload)]
            segments = [(a, b - a, _overlap_label(a, b - a, truth)) for a, b in zip(cuts, cuts[1:])]
        for offset, length, label in segments:
            if length >= 2:
                labels.setdefault(payload[offset : offset + length].hex(), []).append(label)
    return Expected(
        labels,
        sum(len(payload) for payload, _ in trace.messages),
        trace.records,
        trace.skipped_fragments,
        len(trace.messages),
    )


def round_half_up_ln(n: int) -> int:
    return int(math.floor(math.log(n) + 0.5))


def check_partition(report: dict, expected: Expected) -> list[str]:
    """Cluster values plus noise are exactly the expected values, once each,
    and every cluster value carries its occurrence count."""
    failures = []
    reported = [v for c in report["clusters"] for v in c["values"]] + list(report["noise"])
    if len(reported) != len(set(reported)):
        failures.append("partition: a value is reported more than once")
    if set(reported) != set(expected.labels):
        missing = len(set(expected.labels) - set(reported))
        extra = len(set(reported) - set(expected.labels))
        failures.append(f"partition: {missing} expected values missing, {extra} unexpected")
    for cluster in report["clusters"]:
        for value, count in zip(cluster["values"], cluster["counts"]):
            if len(expected.labels.get(value, ())) != count:
                failures.append(f"partition: value {value} reported with count {count}")
                break
    return failures


def check_metadata(report: dict, expected: Expected) -> list[str]:
    meta = report["metadata"]
    want = {
        "records": expected.records,
        "skipped_fragments": expected.skipped_fragments,
        "messages": expected.messages,
        "unique_values": len(expected.labels),
        "min_samples": round_half_up_ln(len(expected.labels)),
    }
    return [
        f"metadata: {key} is {meta.get(key)!r}, expected {value}"
        for key, value in want.items()
        if meta.get(key) != value
    ]


def recount(clusters: list[list[str]], expected: Expected) -> dict:
    """TP, FP, FN, precision, recall, F(1/4) and coverage from the definitions.

    Pairs are unordered pairs of distinct values; a pair is positive when
    both values sit in one cluster and true when their majority labels agree.
    Noise values are in no cluster.
    """
    type_totals = Counter(expected.majority(v) for v in expected.labels)
    tp = sum(
        comb(count, 2)
        for members in clusters
        for count in Counter(expected.majority(v) for v in members).values()
    )
    fp = sum(comb(len(members), 2) for members in clusters) - tp
    fn = sum(comb(count, 2) for count in type_totals.values()) - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    b2 = BETA * BETA
    f_score = (1 + b2) * precision * recall / (b2 * precision + recall) if b2 * precision + recall else 0.0
    clustered = sum(len(v) // 2 * len(expected.labels[v]) for members in clusters for v in members)
    return {
        "tp": tp, "fp": fp, "fn": fn, "precision": precision, "recall": recall,
        "f_score": f_score, "coverage": clustered / expected.total_bytes,
    }


def _sig6(x: float) -> float:
    return float(f"{x:.6g}")


def check_metrics(reported: dict | None, counted: dict, source: str) -> list[str]:
    """The printed metrics equal the recount after 6-significant-digit rounding."""
    if reported is None:
        return [f"{source}: no metrics reported"]
    failures = []
    for key, value in counted.items():
        want = value if isinstance(value, int) else _sig6(value)
        if reported.get(key) != want:
            failures.append(f"{source}: {key} is {reported.get(key)!r}, recount gives {want!r}")
    return failures


def report_clusters(report: dict) -> list[list[str]]:
    return [cluster["values"] for cluster in report["clusters"]]


def check_report(report: dict, expected: Expected) -> list[str]:
    """Partition, metadata and, when the report carries metrics, the recount."""
    failures = check_partition(report, expected) + check_metadata(report, expected)
    if report.get("metrics") is not None:
        failures += check_metrics(report["metrics"], recount(report_clusters(report), expected), "analyze")
    return failures

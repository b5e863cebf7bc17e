"""Clustering quality against ground-truth field types.

TP/FP/FN are defined combinatorially over pairwise assignments of unique
segment values; the F-score uses beta = 1/4 to weight precision four times
over recall. Coverage is the fraction of all trace bytes inside clustered
segments.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .clustering import Clustering
from .dissimilarity import SegmentValue
from .errors import EvaluationUnavailableError
from .segmentation import Segmentation

DEFAULT_BETA = 0.25


@dataclass
class ContingencyTable:
    """Per-cluster, per-noise and total counts of unique values by true type."""

    per_cluster: list[dict[str, int]]
    noise: dict[str, int]
    totals: dict[str, int]


@dataclass
class Metrics:
    tp: int
    fp: int
    fn: int
    tn_plus_fn: int
    tn: int
    precision: float
    recall: float
    f_score: float
    beta: float
    coverage: float


def value_labels(values: list[SegmentValue], segments: Segmentation) -> list[str]:
    """True type per unique value: majority over members, ties to the earliest.

    ``values`` index ``segments``; raises when any member segment carries no
    truth label.
    """
    truth = np.full(len(segments), None) if segments.truth is None else segments.truth
    labels: list[str] = []
    for value in values:
        types = truth[value.members].tolist()
        if None in types:
            segment = value.members[types.index(None)]
            raise EvaluationUnavailableError(
                f"segment at message {segments.message[segment]} offset "
                f"{segments.offset[segment]} has no ground-truth type"
            )
        # most_common keeps first-seen order among equal counts
        labels.append(Counter(types).most_common(1)[0][0])
    return labels


def label_segments_by_overlap(segments: Segmentation, truth: Segmentation) -> Segmentation:
    """Label segments with the true field type covering most of their bytes.

    Both segmentations cut the same messages. One search over the truth
    fields' starts finds the field holding each segment's first byte; each
    further round moves every segment that reaches past its current field to
    the next one, and a field takes the label only with strictly more
    overlap, so ties go to the earlier field. Used to score heuristic
    segmentations against a dissector-derived ground truth.
    """
    field = np.searchsorted(truth.start, segments.start, side="right") - 1
    covered = field >= 0
    covered[covered] = truth.message[field[covered]] == segments.message[covered]
    if not covered.all():
        missing = segments.message[np.argmin(covered)]
        raise EvaluationUnavailableError(f"message {missing} is not covered by the ground truth")

    end = segments.start + segments.length
    best = np.full(len(segments), -1)
    best_overlap = np.zeros(len(segments), dtype=np.int64)
    active = np.arange(len(segments))
    while active.size:
        f = field[active]
        overlap = np.minimum(end[active], truth.start[f] + truth.length[f]) - np.maximum(
            segments.start[active], truth.start[f]
        )
        better = overlap > best_overlap[active]
        best[active[better]] = f[better]
        best_overlap[active[better]] = overlap[better]
        # a message's fields tile it, so a field that starts before the
        # segment ends lies in the segment's message
        f += 1
        reaches = f < len(truth)
        reaches[reaches] = truth.start[f[reaches]] < end[active[reaches]]
        active = active[reaches]
        field[active] = f[reaches]

    labels = truth.truth[best]
    unlabeled = (best < 0) | (labels == None)  # noqa: E711  (elementwise)
    if unlabeled.any():
        segment = np.argmax(unlabeled)
        raise EvaluationUnavailableError(
            f"segment at message {segments.message[segment]} offset "
            f"{segments.offset[segment]} overlaps no labeled ground-truth field"
        )
    return replace(segments, truth=labels)


def contingency(clustering: Clustering, labels: list[str]) -> ContingencyTable:
    per_cluster = [
        dict(Counter(labels[m] for m in cluster.members))
        for cluster in clustering.clusters
    ]
    noise = dict(Counter(labels[m] for m in clustering.noise))
    totals: Counter[str] = Counter(noise)
    for counts in per_cluster:
        totals.update(counts)
    return ContingencyTable(per_cluster, noise, dict(totals))


def positives_negatives(clusters) -> tuple[int, int]:
    """(TP+FP, TN+FN): same-cluster pair count and ordered cross-cluster sum."""
    sizes = [len(c.members) for c in clusters]
    tp_fp = sum(comb(s, 2) for s in sizes)
    total = sum(sizes)
    tn_fn = total * total - sum(s * s for s in sizes)
    return tp_fp, tn_fn


def true_positives(table: ContingencyTable) -> int:
    return sum(
        comb(count, 2) for counts in table.per_cluster for count in counts.values()
    )


def false_negatives(table: ContingencyTable) -> int:
    """Missed same-type pairs: all same-type pairs less those inside a cluster."""
    return sum(comb(count, 2) for count in table.totals.values()) - true_positives(table)


def f_beta(precision: float, recall: float, beta: float = DEFAULT_BETA) -> float:
    """(1+b^2)PR / (b^2 P + R), defined as 0 when precision = recall = 0."""
    denominator = beta * beta * precision + recall
    if denominator == 0:
        return 0.0
    return (1 + beta * beta) * precision * recall / denominator


def coverage(
    messages: list[bytes], values: list[SegmentValue], clustering: Clustering
) -> float:
    """Clustered bytes (all segment instances) over all trace bytes."""
    denominator = sum(len(m) for m in messages)
    if denominator == 0:
        return 0.0
    inferred = sum(
        len(values[member].bytes) * len(values[member].members)
        for cluster in clustering.clusters
        for member in cluster.members
    )
    return inferred / denominator


def evaluate_clustering(
    messages: list[bytes],
    segments: Segmentation,
    values: list[SegmentValue],
    clustering: Clustering,
    beta: float = DEFAULT_BETA,
) -> Metrics:
    """Full metric set for a clustering of the labeled values of ``segments``."""
    labels = value_labels(values, segments)
    table = contingency(clustering, labels)
    tp_fp, tn_fn = positives_negatives(clustering.clusters)
    tp = true_positives(table)
    fp = tp_fp - tp
    fn = false_negatives(table)
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    return Metrics(
        tp=tp,
        fp=fp,
        fn=fn,
        tn_plus_fn=tn_fn,
        tn=tn_fn - fn,
        precision=precision,
        recall=recall,
        f_score=f_beta(precision, recall, beta),
        beta=beta,
        coverage=coverage(messages, values, clustering),
    )

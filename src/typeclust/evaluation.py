"""Clustering quality against ground-truth field types.

TP/FP/FN are defined combinatorially over pairwise assignments of unique
segment values and read from one contingency table of clusters by true
types; the F-score uses beta = 1/4 to weight precision four times over
recall. Coverage is the fraction of all trace bytes inside clustered
segments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .clustering import Clustering
from .dissimilarity import Values
from .errors import EvaluationUnavailableError
from .segmentation import Segmentation

BETA = 0.25  # F-score weight: precision counts four times over recall


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


def value_labels(values: Values, segments: Segmentation) -> list[str]:
    """True type per unique value: majority over members, ties to the one seen first.

    ``values`` index ``segments``; raises when any member segment carries no
    truth label.
    """
    types = segments.truth[values.members].tolist()
    codes = {t: code for code, t in enumerate(dict.fromkeys(types))}
    if None in codes:
        segment = values.members[types.index(None)]
        raise EvaluationUnavailableError(
            f"segment at message {segments.message[segment]} offset "
            f"{segments.offset[segment]} has no ground-truth type"
        )
    # sorted (value, type) keys: in each value's run, most members wins, then first seen
    run = np.arange(len(values.counts)) * len(codes)
    key = np.repeat(run, values.counts) + np.fromiter(map(codes.get, types), np.int64)
    keys, first, count = np.unique(key, return_index=True, return_counts=True)
    best = np.lexsort((first, -count, keys // len(codes)))[np.searchsorted(keys, run)]
    return np.array(list(codes), dtype=object)[keys[best] % len(codes)].tolist()


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


def pair_counts(clustering: Clustering, labels: list[str]) -> tuple[int, int, int, int]:
    """(TP, FP, FN, TN+FN) over pairs of values, from one contingency table.

    The table's rows are the clusters and then the noise, its columns the
    true types. TP sums C(n, 2) over the cluster cells, TP+FP over the
    cluster sizes and TP+FN over the type totals, noise included (Hubert &
    Arabie, Comparing Partitions, 1985). TN+FN counts the ordered pairs of
    values in distinct clusters: (sum of sizes)^2 - sum of squared sizes.
    """
    types, column = np.unique(labels, return_inverse=True)
    groups = [*(cluster.members for cluster in clustering.clusters), clustering.noise]
    row = np.repeat(np.arange(len(groups)), [len(members) for members in groups])
    table = np.zeros((len(groups), len(types)), dtype=np.int64)
    np.add.at(table, (row, column[np.concatenate(groups).astype(np.int64)]), 1)

    def pairs(counts: np.ndarray) -> int:
        return int((counts * (counts - 1) // 2).sum())

    sizes = table[:-1].sum(axis=1)
    tp = pairs(table[:-1])
    return (tp, pairs(sizes) - tp, pairs(table.sum(axis=0)) - tp,
            int(sizes.sum() ** 2 - (sizes * sizes).sum()))


def f_beta(precision: float, recall: float) -> float:
    """(1+b^2)PR / (b^2 P + R) with b = BETA, defined as 0 when precision = recall = 0."""
    denominator = BETA * BETA * precision + recall
    if denominator == 0:
        return 0.0
    return (1 + BETA * BETA) * precision * recall / denominator


def coverage(segments: Segmentation, values: Values, clustering: Clustering) -> float:
    """Clustered bytes (all segment instances) over all trace bytes."""
    if not segments.data:
        return 0.0
    clustered = [member for cluster in clustering.clusters for member in cluster.members]
    return int((values.length * values.counts)[clustered].sum()) / len(segments.data)


def evaluate_clustering(
    segments: Segmentation, values: Values, clustering: Clustering
) -> Metrics:
    """Full metric set for a clustering of the labeled values of ``segments``."""
    tp, fp, fn, tn_fn = pair_counts(clustering, value_labels(values, segments))
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
        f_score=f_beta(precision, recall),
        beta=BETA,
        coverage=coverage(segments, values, clustering),
    )

"""Combinatorial clustering metrics against ground-truth types."""

from __future__ import annotations

import json
from math import comb

import pytest

from oracles import pairwise_metrics
from typeclust.clustering import Cluster, Clustering
from typeclust.dissimilarity import SegmentValue, unique_values
from typeclust.errors import EvaluationUnavailableError
from typeclust.evaluation import (
    contingency,
    coverage,
    evaluate_clustering,
    f_beta,
    false_negatives,
    label_segments_by_overlap,
    positives_negatives,
    true_positives,
    value_labels,
)
from typeclust.segmentation import Segment, Segmentation, import_segmentation
from typeclust.traceio import Message


def labeled_value(content: bytes, label: str, copies: int = 1) -> SegmentValue:
    members = [
        Segment(i, 0, len(content), content, truth_type=label) for i in range(copies)
    ]
    return SegmentValue(content, members)


def clustering_of(member_sets, noise=()):
    clusters = [Cluster(i, sorted(m)) for i, m in enumerate(member_sets)]
    return Clustering(clusters, sorted(noise))


def random_labeled_instance(rng, max_values=20, max_types=5, max_clusters=5):
    n = int(rng.integers(4, max_values + 1))
    labels = [f"t{int(rng.integers(0, max_types))}" for _ in range(n)]
    assignment = [int(rng.integers(-1, max_clusters)) for _ in range(n)]
    used = sorted({a for a in assignment if a >= 0})
    member_sets = [[i for i, a in enumerate(assignment) if a == c] for c in used]
    member_sets = [m for m in member_sets if m]
    noise = [i for i, a in enumerate(assignment) if a == -1]
    return labels, member_sets, noise


class TestPositivesNegatives:
    def test_sizes_three_two(self):
        clustering = clustering_of([[0, 1, 2], [3, 4]])
        assert positives_negatives(clustering.clusters) == (4, 12)  # C(3,2)+C(2,2); 2*3*2

    def test_single_cluster_has_no_negatives(self):
        clustering = clustering_of([[0, 1, 2, 3]])
        assert positives_negatives(clustering.clusters) == (6, 0)

    def test_random_matches_enumeration(self, rng):
        for _ in range(100):
            labels, member_sets, noise = random_labeled_instance(rng)
            clustering = clustering_of(member_sets, noise)
            tp_fp, tn_fn = positives_negatives(clustering.clusters)
            sizes = [len(m) for m in member_sets]
            assert tp_fp == sum(comb(s, 2) for s in sizes)
            ordered_cross = sum(
                a * b for i, a in enumerate(sizes) for j, b in enumerate(sizes) if i != j
            )
            assert tn_fn == ordered_cross


class TestTruePositives:
    def test_pure_cluster(self):
        clustering = clustering_of([[0, 1, 2, 3]])
        table = contingency(clustering, ["A"] * 4)
        assert true_positives(table) == 6

    def test_mixed_cluster_hand_count(self):
        clustering = clustering_of([[0, 1, 2, 3]])
        table = contingency(clustering, ["A", "A", "B", "B"])
        assert true_positives(table) == 2  # C(2,2) + C(2,2)

    def test_random_matches_pair_enumeration(self, rng):
        for _ in range(100):
            labels, member_sets, noise = random_labeled_instance(rng)
            clustering = clustering_of(member_sets, noise)
            table = contingency(clustering, labels)
            tp, fp, fn = pairwise_metrics(member_sets, noise, labels)
            assert true_positives(table) == tp


class TestFalseNegatives:
    def test_perfect_clustering_no_noise(self):
        clustering = clustering_of([[0, 1], [2, 3]])
        table = contingency(clustering, ["A", "A", "B", "B"])
        assert false_negatives(table) == 0

    def test_type_split_across_two_clusters(self):
        # type A split evenly across two clusters of 2: 2*2 missed cross pairs
        clustering = clustering_of([[0, 1], [2, 3]])
        table = contingency(clustering, ["A", "A", "A", "A"])
        assert false_negatives(table) == 4

    def test_noise_pairs_counted(self):
        clustering = clustering_of([[0, 1]], noise=[2, 3])
        table = contingency(clustering, ["A"] * 4)
        # noise-noise pair: 1; noise-cluster pairs: 2*2=4
        assert false_negatives(table) == 5

    def test_random_matches_pair_enumeration(self, rng):
        for _ in range(200):
            labels, member_sets, noise = random_labeled_instance(rng)
            clustering = clustering_of(member_sets, noise)
            table = contingency(clustering, labels)
            tp, fp, fn = pairwise_metrics(member_sets, noise, labels)
            assert false_negatives(table) == fn
            assert true_positives(table) == tp
            tp_fp, _ = positives_negatives(clustering.clusters)
            assert tp_fp - true_positives(table) == fp

    def test_tp_plus_fn_is_total_same_type_pairs(self, rng):
        for _ in range(100):
            labels, member_sets, noise = random_labeled_instance(rng)
            clustering = clustering_of(member_sets, noise)
            table = contingency(clustering, labels)
            by_type = {}
            for label in labels:
                by_type[label] = by_type.get(label, 0) + 1
            total_same_type = sum(comb(c, 2) for c in by_type.values())
            assert true_positives(table) + false_negatives(table) == total_same_type


class TestFBeta:
    def test_fixpoint_when_equal(self):
        for x in (0.0, 0.3, 0.7, 1.0):
            if x == 0.0:
                assert f_beta(x, x) == 0.0
            else:
                assert f_beta(x, x) == pytest.approx(x)

    def test_high_precision_dominates(self):
        assert f_beta(1.00, 0.96, 0.25) == pytest.approx(0.9976, abs=5e-4)

    def test_mediocre_precision_caps_the_score(self):
        assert f_beta(0.59, 0.70, 0.25) == pytest.approx(0.596, abs=5e-3)

    def test_zero_division_guard(self):
        assert f_beta(0.0, 0.0) == 0.0
        assert f_beta(0.0, 0.5) == 0.0


class TestValueLabels:
    def test_majority_wins(self):
        value = SegmentValue(
            b"xy",
            [
                Segment(0, 0, 2, b"xy", "A"),
                Segment(1, 0, 2, b"xy", "B"),
                Segment(2, 0, 2, b"xy", "B"),
            ],
        )
        assert value_labels([value]) == ["B"]

    def test_tie_goes_to_earliest_member(self):
        value = SegmentValue(
            b"xy",
            [Segment(0, 0, 2, b"xy", "A"), Segment(1, 0, 2, b"xy", "B")],
        )
        assert value_labels([value]) == ["A"]

    def test_missing_label_raises(self):
        value = SegmentValue(b"xy", [Segment(0, 0, 2, b"xy", None)])
        with pytest.raises(EvaluationUnavailableError):
            value_labels([value])


class TestLabelByOverlap:
    def test_majority_overlap_and_earlier_tie(self, tmp_path):
        payload = b"\x01\x02\x03\x04\x05\x06"
        messages = [Message(0, payload, 0)]
        doc = {
            "messages": [
                {
                    "payload": payload.hex(),
                    "fields": [
                        {"len": 2, "type": "head"},
                        {"len": 2, "type": "mid"},
                        {"len": 2, "type": "tail"},
                    ],
                }
            ]
        }
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(doc))
        truth = import_segmentation(messages, path)
        segments = [
            Segment(0, 0, 3, payload[0:3]),  # 2 bytes head, 1 byte mid -> head
            Segment(0, 3, 3, payload[3:6]),  # 1 byte mid, 2 bytes tail -> tail
            Segment(0, 1, 2, payload[1:3]),  # 1 byte head, 1 byte mid -> earlier field head
        ]
        labeled = label_segments_by_overlap(segments, truth)
        assert [s.truth_type for s in labeled] == ["head", "tail", "head"]

    def test_uncovered_message_raises(self):
        truth = Segmentation([], "gt")
        with pytest.raises(EvaluationUnavailableError):
            label_segments_by_overlap([Segment(0, 0, 2, b"ab")], truth)


class TestCoverage:
    def test_everything_clustered(self):
        messages = [Message(0, b"\x01\x02\x03\x04", 0)]
        values = [labeled_value(b"\x01\x02", "A"), labeled_value(b"\x03\x04", "B")]
        values[0].members[0] = Segment(0, 0, 2, b"\x01\x02", "A")
        values[1].members[0] = Segment(0, 2, 2, b"\x03\x04", "B")
        clustering = clustering_of([[0], [1]])
        assert coverage(messages, values, clustering) == 1.0

    def test_all_noise_is_zero(self):
        messages = [Message(0, b"\x01\x02\x03\x04", 0)]
        values = [labeled_value(b"\x01\x02", "A"), labeled_value(b"\x03\x04", "B")]
        clustering = clustering_of([], noise=[0, 1])
        assert coverage(messages, values, clustering) == 0.0

    def test_byte_accounting_with_exclusions_and_duplicates(self):
        # two messages of 6 bytes; a one-byte field per message is excluded,
        # a duplicated 3-byte value is clustered, a 2-byte value is noise
        messages = [Message(0, b"\x09AAABB", 0), Message(1, b"\x07AAACC", 1)]
        shared = SegmentValue(
            b"AAA",
            [Segment(0, 1, 3, b"AAA", "x"), Segment(1, 1, 3, b"AAA", "x")],
        )
        tail_b = SegmentValue(b"BB", [Segment(0, 4, 2, b"BB", "y")])
        tail_c = SegmentValue(b"CC", [Segment(1, 4, 2, b"CC", "y")])
        clustering = clustering_of([[0]], noise=[1, 2])
        values = [shared, tail_b, tail_c]
        # clustered bytes: 3+3 over 12 total
        assert coverage(messages, values, clustering) == pytest.approx(6 / 12)


class TestEvaluateClustering:
    def test_full_metrics_on_small_instance(self):
        messages = [Message(i, bytes([i, i + 1, 7]), i) for i in range(4)]
        segments = [
            Segment(0, 0, 3, b"ab0", "A"),
            Segment(1, 0, 3, b"ab1", "A"),
            Segment(2, 0, 3, b"cd0", "B"),
            Segment(3, 0, 3, b"cd1", "B"),
        ]
        values = unique_values(segments)
        clustering = clustering_of([[0, 1], [2, 3]])
        metrics = evaluate_clustering(messages, values, clustering)
        assert metrics.tp == 2 and metrics.fp == 0 and metrics.fn == 0
        assert metrics.precision == 1.0 and metrics.recall == 1.0
        assert metrics.f_score == 1.0
        assert metrics.beta == 0.25
        assert metrics.tn == metrics.tn_plus_fn

    def test_relabeling_invariance(self, rng):
        labels, member_sets, noise = random_labeled_instance(rng)
        messages = [Message(i, bytes([i, 250 - i]), i) for i in range(len(labels))]
        segments = [
            Segment(i, 0, 2, bytes([i, 250 - i]), labels[i]) for i in range(len(labels))
        ]
        values = unique_values(segments)
        base = evaluate_clustering(messages, values, clustering_of(member_sets, noise))
        shuffled = evaluate_clustering(
            messages, values, clustering_of(list(reversed(member_sets)), noise)
        )
        assert (base.tp, base.fp, base.fn) == (shuffled.tp, shuffled.fp, shuffled.fn)
        assert base.precision == shuffled.precision
        assert 0.0 <= base.precision <= 1.0
        assert 0.0 <= base.recall <= 1.0
        assert 0.0 <= base.f_score <= 1.0
        assert 0.0 <= base.coverage <= 1.0

"""Combinatorial clustering metrics against ground-truth types."""

from __future__ import annotations

import json
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import segmentation_of
from oracles import overlap_label_reference, pairwise_metrics, value_labels_reference
from typeclust.clustering import Cluster, Clustering
from typeclust.dissimilarity import unique_values
from typeclust.errors import EvaluationUnavailableError
from typeclust.evaluation import (
    coverage,
    evaluate_clustering,
    f_beta,
    label_segments_by_overlap,
    pair_counts,
    value_labels,
)
from typeclust.segmentation import Segmentation, filter_analyzable, import_segmentation


def tiled(sizes, tilings, labels=None) -> Segmentation:
    """Segments of messages of ``sizes`` bytes from per-message (offset, length) tilings."""
    first = np.cumsum(sizes) - np.array(sizes)
    rows = [(m, o, n) for m, tiling in enumerate(tilings) for o, n in tiling]
    message, offset, length = (np.array(column, dtype=np.int64) for column in zip(*rows))
    truth = np.array([None] * len(rows) if labels is None else labels, dtype=object)
    return Segmentation("test", bytes(sum(sizes)), message, offset, length,
                        first[message] + offset, truth)


def clustering_of(member_sets, noise=()):
    clusters = [Cluster(sorted(m)) for m in member_sets]
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
        tp, fp, _, tn_fn = pair_counts(clustering, ["A"] * 5)
        assert (tp + fp, tn_fn) == (4, 12)  # C(3,2)+C(2,2); 2*3*2

    def test_single_cluster_has_no_negatives(self):
        clustering = clustering_of([[0, 1, 2, 3]])
        tp, fp, _, tn_fn = pair_counts(clustering, ["A"] * 4)
        assert (tp + fp, tn_fn) == (6, 0)

    def test_random_matches_enumeration(self, rng):
        for _ in range(100):
            labels, member_sets, noise = random_labeled_instance(rng)
            clustering = clustering_of(member_sets, noise)
            tp, fp, _, tn_fn = pair_counts(clustering, labels)
            sizes = [len(m) for m in member_sets]
            assert tp + fp == sum(comb(s, 2) for s in sizes)
            ordered_cross = sum(
                a * b for i, a in enumerate(sizes) for j, b in enumerate(sizes) if i != j
            )
            assert tn_fn == ordered_cross

    def test_tn_is_no_pair_count_and_can_be_negative(self):
        # TN+FN counts ordered cross-cluster pairs without noise, FN unordered
        # same-type pairs with it, so their difference TN is -5 here
        clustering = Clustering([Cluster([0, 1])], [2, 3])
        tp, fp, fn, tn_fn = pair_counts(clustering, ["A"] * 4)
        assert (tp, fp, fn, tn_fn) == (1, 0, 5, 0)
        assert tn_fn - fn == -5

    def test_counts_are_python_ints(self):
        counts = pair_counts(clustering_of([[0, 1]], noise=[2]), ["A", "A", "B"])
        assert counts == (1, 0, 0, 0)
        assert all(type(count) is int for count in counts)


class TestTruePositives:
    def test_pure_cluster(self):
        clustering = clustering_of([[0, 1, 2, 3]])
        assert pair_counts(clustering, ["A"] * 4)[0] == 6

    def test_mixed_cluster_hand_count(self):
        clustering = clustering_of([[0, 1, 2, 3]])
        assert pair_counts(clustering, ["A", "A", "B", "B"])[0] == 2  # C(2,2) + C(2,2)

    def test_random_matches_pair_enumeration(self, rng):
        for _ in range(100):
            labels, member_sets, noise = random_labeled_instance(rng)
            clustering = clustering_of(member_sets, noise)
            tp, fp, fn = pairwise_metrics(member_sets, noise, labels)
            assert pair_counts(clustering, labels)[0] == tp


class TestFalseNegatives:
    def test_perfect_clustering_no_noise(self):
        clustering = clustering_of([[0, 1], [2, 3]])
        assert pair_counts(clustering, ["A", "A", "B", "B"])[2] == 0

    def test_type_split_across_two_clusters(self):
        # type A split evenly across two clusters of 2: 2*2 missed cross pairs
        clustering = clustering_of([[0, 1], [2, 3]])
        assert pair_counts(clustering, ["A", "A", "A", "A"])[2] == 4

    def test_noise_pairs_counted(self):
        clustering = clustering_of([[0, 1]], noise=[2, 3])
        # noise-noise pair: 1; noise-cluster pairs: 2*2=4
        assert pair_counts(clustering, ["A"] * 4)[2] == 5

    def test_random_matches_pair_enumeration(self, rng):
        for _ in range(200):
            labels, member_sets, noise = random_labeled_instance(rng)
            clustering = clustering_of(member_sets, noise)
            assert pair_counts(clustering, labels)[:3] == pairwise_metrics(
                member_sets, noise, labels
            )

    def test_tp_plus_fn_is_total_same_type_pairs(self, rng):
        for _ in range(100):
            labels, member_sets, noise = random_labeled_instance(rng)
            clustering = clustering_of(member_sets, noise)
            tp, _, fn, _ = pair_counts(clustering, labels)
            by_type = {}
            for label in labels:
                by_type[label] = by_type.get(label, 0) + 1
            total_same_type = sum(comb(c, 2) for c in by_type.values())
            assert tp + fn == total_same_type


class TestFBeta:
    def test_fixpoint_when_equal(self):
        for x in (0.0, 0.3, 0.7, 1.0):
            if x == 0.0:
                assert f_beta(x, x) == 0.0
            else:
                assert f_beta(x, x) == pytest.approx(x)

    def test_high_precision_dominates(self):
        assert f_beta(1.00, 0.96) == pytest.approx(0.9976, abs=5e-4)

    def test_mediocre_precision_caps_the_score(self):
        assert f_beta(0.59, 0.70) == pytest.approx(0.596, abs=5e-3)

    def test_zero_division_guard(self):
        assert f_beta(0.0, 0.0) == 0.0
        assert f_beta(0.0, 0.5) == 0.0


TYPE_NAMES = ["E", "D", "C", "B", "A"]  # first seen is often not the smallest name
# one value's member types: 1 to 5 types in any counts, or each of 1 to 5
# types the same number of times (ties of up to five, single members)
MEMBER_TYPES = st.lists(st.sampled_from(TYPE_NAMES), min_size=1, max_size=8) | st.lists(
    st.sampled_from(TYPE_NAMES), min_size=1, max_size=5, unique=True
).flatmap(lambda types: st.integers(1, 3).flatmap(lambda times: st.permutations(types * times)))


class TestValueLabels:
    def test_majority_wins(self):
        segs = segmentation_of((0, 0, b"xy", "A"), (1, 0, b"xy", "B"), (2, 0, b"xy", "B"))
        assert value_labels(unique_values(segs), segs) == ["B"]

    def test_tie_goes_to_earliest_member(self):
        segs = segmentation_of((0, 0, b"xy", "A"), (1, 0, b"xy", "B"))
        assert value_labels(unique_values(segs), segs) == ["A"]

    def test_tie_goes_to_earliest_member_not_smallest_name(self):
        segs = segmentation_of((0, 0, b"xy", "B"), (1, 0, b"xy", "A"), (2, 0, b"zw", "A"),
                               (3, 0, b"xy", "A"), (4, 0, b"xy", "B"))
        assert value_labels(unique_values(segs), segs) == ["B", "A"]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(MEMBER_TYPES, min_size=1, max_size=6).flatmap(
        lambda kinds: st.permutations([(v, t) for v, types in enumerate(kinds) for t in types])))
    def test_matches_the_counter_reference(self, members):
        """Members of up to six values, interleaved in trace order."""
        segs = segmentation_of(*((i, 0, bytes([v, 0xEE]), t) for i, (v, t) in enumerate(members)))
        values = unique_values(segs)
        assert value_labels(values, segs) == value_labels_reference(values, segs)

    def test_missing_label_raises(self):
        segs = segmentation_of((0, 0, b"xy", None))
        with pytest.raises(EvaluationUnavailableError):
            value_labels(unique_values(segs), segs)


class TestLabelByOverlap:
    def test_majority_overlap_and_earlier_tie(self, tmp_path):
        payload = b"\x01\x02\x03\x04\x05\x06"
        messages = [payload]
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
        # [0, 3): 2 bytes head, 1 byte mid -> head
        # [3, 6): 1 byte mid, 2 bytes tail -> tail
        # [1, 3): 1 byte head, 1 byte mid -> earlier field head
        labeled = label_segments_by_overlap(tiled([6], [[(0, 3), (3, 3), (1, 2)]]), truth)
        assert labeled.truth.tolist() == ["head", "tail", "head"]

    def test_uncovered_message_raises(self):
        truth = segmentation_of()
        with pytest.raises(EvaluationUnavailableError):
            label_segments_by_overlap(tiled([2], [[(0, 2)]]), truth)


class TestCoverage:
    def test_everything_clustered(self):
        segs = segmentation_of((0, 0, b"\x01\x02", "A"), (0, 2, b"\x03\x04", "B"))
        clustering = clustering_of([[0], [1]])
        assert coverage(segs, unique_values(segs), clustering) == 1.0

    def test_all_noise_is_zero(self):
        segs = segmentation_of((0, 0, b"\x01\x02", "A"), (0, 2, b"\x03\x04", "B"))
        clustering = clustering_of([], noise=[0, 1])
        assert coverage(segs, unique_values(segs), clustering) == 0.0

    def test_byte_accounting_with_exclusions_and_duplicates(self):
        # two messages of 6 bytes; a one-byte field per message is excluded,
        # a duplicated 3-byte value is clustered, a 2-byte value is noise
        segs = filter_analyzable(segmentation_of(
            (0, 0, b"\x09", "t"), (0, 1, b"AAA", "x"), (0, 4, b"BB", "y"),
            (1, 0, b"\x07", "t"), (1, 1, b"AAA", "x"), (1, 4, b"CC", "y"),
        ))
        assert len(segs.data) == 12 and len(segs) == 4
        values = unique_values(segs)
        assert values.content == [b"AAA", b"BB", b"CC"] and values.counts.tolist() == [2, 1, 1]
        clustering = clustering_of([[0]], noise=[1, 2])
        # clustered bytes: 3+3 over 12 total
        assert coverage(segs, values, clustering) == pytest.approx(6 / 12)


class TestEvaluateClustering:
    def test_full_metrics_on_small_instance(self):
        segs = segmentation_of(
            (0, 0, b"ab0", "A"), (1, 0, b"ab1", "A"), (2, 0, b"cd0", "B"), (3, 0, b"cd1", "B"),
        )
        values = unique_values(segs)
        clustering = clustering_of([[0, 1], [2, 3]])
        metrics = evaluate_clustering(segs, values, clustering)
        assert metrics.tp == 2 and metrics.fp == 0 and metrics.fn == 0
        assert metrics.precision == 1.0 and metrics.recall == 1.0
        assert metrics.f_score == 1.0
        assert metrics.beta == 0.25
        assert metrics.tn == metrics.tn_plus_fn

    def test_relabeling_invariance(self, rng):
        labels, member_sets, noise = random_labeled_instance(rng)
        segs = segmentation_of(*((i, 0, bytes([i, 250 - i]), labels[i]) for i in range(len(labels))))
        values = unique_values(segs)
        base = evaluate_clustering(segs, values, clustering_of(member_sets, noise))
        shuffled = evaluate_clustering(
            segs, values, clustering_of(list(reversed(member_sets)), noise)
        )
        assert (base.tp, base.fp, base.fn) == (shuffled.tp, shuffled.fp, shuffled.fn)
        assert base.precision == shuffled.precision
        assert 0.0 <= base.precision <= 1.0
        assert 0.0 <= base.recall <= 1.0
        assert 0.0 <= base.f_score <= 1.0
        assert 0.0 <= base.coverage <= 1.0


@settings(max_examples=200, deadline=None)
@given(data=st.data(), sizes=st.lists(st.integers(1, 20), min_size=1, max_size=6))
def test_array_overlap_labels_match_reference(data, sizes):
    def tiling(n):
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
        bounds = [0, *cuts, n]
        return [(a, b - a) for a, b in zip(bounds, bounds[1:])]

    fields = [tiling(n) for n in sizes]
    labels = [data.draw(st.sampled_from("abc")) for tiling_ in fields for _ in tiling_]
    truth = tiled(sizes, fields, labels)
    cuts = [tiling(n) for n in sizes]
    labeled = label_segments_by_overlap(tiled(sizes, cuts), truth)

    labels_of = iter(labels)
    per_message = [[(o, n, next(labels_of)) for o, n in tiling_] for tiling_ in fields]
    expected = [overlap_label_reference(o, n, per_message[m])
                for m, tiling_ in enumerate(cuts) for o, n in tiling_]
    assert labeled.truth.tolist() == expected

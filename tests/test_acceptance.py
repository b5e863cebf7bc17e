"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 6 (real-trace validation on the public SMIA NTP capture) needs
external data and is skipped unless the trace and its dissector-derived
ground truth are available; see the README for how to provide them.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import make_matrix, symmetric_random, two_blob_matrix
from fixtures import coverage_fixture, synthetic_protocol_fixture, two_type_fixture
from oracles import naive_dbscan, pairwise_metrics
from typeclust import pipeline as pl
from typeclust.autoconf import SmoothCurve, kneedle, select_epsilon
from typeclust.cli import main as cli_main
from typeclust.clustering import Cluster, Clustering, dbscan, normalize_clusters
from typeclust.dissimilarity import build_matrix, unique_values
from typeclust.evaluation import evaluate_clustering, f_beta, value_labels
from typeclust.refinement import merge_pass, split_pass
from typeclust.segmentation import filter_analyzable, import_segmentation
from typeclust.traceio import ProtocolFilter, deduplicate, load_pcap

DATA_DIR = Path(__file__).parent / "data"
NTP_PCAP = Path(os.environ.get("TYPECLUST_NTP_PCAP", DATA_DIR / "ntp_smia.pcap"))
NTP_TRUTH = Path(os.environ.get("TYPECLUST_NTP_TRUTH", DATA_DIR / "ntp_smia_truth.json"))


class Budget:
    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.criterion} exceeded its {self.seconds}s budget: {elapsed:.1f}s"
            )
            print(f"ACCEPTANCE {self.criterion}: PASS ({elapsed:.2f}s)")
        return False


def test_criterion_1_metric_oracle_equivalence():
    rng = np.random.default_rng(101)
    with Budget("1 metric-oracle equivalence", 10.0):
        for _ in range(200):
            n = int(rng.integers(4, 41))
            n_types = int(rng.integers(1, 7))
            n_clusters = int(rng.integers(1, 9))
            labels = [f"type{int(rng.integers(0, n_types))}" for _ in range(n)]
            assignment = [int(rng.integers(-1, n_clusters)) for _ in range(n)]
            member_sets = [
                [i for i, a in enumerate(assignment) if a == c]
                for c in sorted({a for a in assignment if a >= 0})
            ]
            member_sets = [m for m in member_sets if m]
            noise = [i for i, a in enumerate(assignment) if a == -1]

            clustering = Clustering(
                [Cluster(cid, m) for cid, m in enumerate(member_sets)], noise
            )
            from typeclust.evaluation import (
                contingency,
                false_negatives,
                positives_negatives,
                true_positives,
            )

            table = contingency(clustering, labels)
            tp = true_positives(table)
            fn = false_negatives(table)
            tp_fp, _ = positives_negatives(clustering.clusters)
            fp = tp_fp - tp

            oracle_tp, oracle_fp, oracle_fn = pairwise_metrics(member_sets, noise, labels)
            assert (tp, fp, fn) == (oracle_tp, oracle_fp, oracle_fn)

            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            oracle_p = oracle_tp / (oracle_tp + oracle_fp) if oracle_tp + oracle_fp else 0.0
            oracle_r = oracle_tp / (oracle_tp + oracle_fn) if oracle_tp + oracle_fn else 0.0
            assert abs(precision - oracle_p) <= 1e-9
            assert abs(recall - oracle_r) <= 1e-9
            assert abs(f_beta(precision, recall) - f_beta(oracle_p, oracle_r)) <= 1e-9


def test_criterion_2_dbscan_reference_equivalence():
    rng = np.random.default_rng(202)
    with Budget("2 DBSCAN reference equivalence", 30.0):
        for _ in range(100):
            n = int(rng.integers(5, 61))
            d = symmetric_random(n, rng)
            matrix = make_matrix(d)
            for epsilon, min_samples in (
                (0.1, 2),
                (0.25, 3),
                (0.4, 5),
                (0.6, 4),
                (0.85, min(8, n)),
            ):
                result = dbscan(matrix, epsilon, min_samples)
                mine = (
                    {frozenset(c.members) for c in result.clusters},
                    frozenset(result.noise),
                )
                assert mine == naive_dbscan(d, epsilon, min_samples)


def test_criterion_3_knee_detection():
    with Budget("3 knee detection", 5.0):
        xs = np.linspace(0.0, 1.0, 200)
        knee = kneedle(SmoothCurve(xs, 1 - (1 - xs) ** 2))
        assert abs(knee - 0.5) <= 0.05

        matrix = make_matrix(two_blob_matrix())
        config = select_epsilon(matrix)
        assert 0.05 < config.epsilon < 0.8


def test_criterion_4_end_to_end_synthetic_protocol(tmp_path):
    with Budget("4 end-to-end synthetic protocol", 60.0):
        trace, truth = synthetic_protocol_fixture(tmp_path, count=500)
        result = pl.run(
            pl.PipelineConfig(
                input=str(trace), format="hex",
                segmenter="import", segments_path=str(truth),
            )
        )
        metrics = result.report.metrics
        assert metrics.precision >= 0.95
        assert metrics.f_score >= 0.90
        # high-entropy random payloads may stay unclustered, nothing else may
        labels = value_labels(result.values)
        noise_types = {labels[i] for i in result.clustering.noise}
        assert noise_types <= {"random"}


def test_criterion_5_refinement_behavior():
    with Budget("5 refinement behavior", 10.0):
        # merge: one uniform blob pre-split into two clusters becomes one
        rng = np.random.default_rng(5)
        blob = rng.uniform(0.005, 0.065, size=(16, 16))
        blob = np.triu(blob, 1)
        blob = blob + blob.T
        matrix = make_matrix(blob)
        pre_split = normalize_clusters(matrix, [list(range(8)), list(range(8, 16))], [])
        merged = merge_pass(matrix, pre_split)
        assert [c.members for c in merged.clusters] == [list(range(16))]

        # split: 95 unique values plus one value occurring 100 times splits
        # exactly at the pivot F = ln(195)
        counts = [1] * 95 + [100]
        values_matrix = make_matrix(
            np.triu(rng.uniform(0.01, 0.05, size=(96, 96)), 1)
            + np.triu(rng.uniform(0.01, 0.05, size=(96, 96)), 1).T,
            member_counts=counts,
        )
        single = normalize_clusters(values_matrix, [list(range(96))], [])
        split = split_pass(values_matrix, single)
        pivot = math.log(sum(counts))
        low_side = [i for i, c in enumerate(counts) if c <= pivot]
        high_side = [i for i, c in enumerate(counts) if c > pivot]
        assert sorted(c.members for c in split.clusters) == sorted([low_side, high_side])


@pytest.mark.skipif(
    not (NTP_PCAP.exists() and NTP_TRUTH.exists()),
    reason="SMIA NTP trace and ground truth not available (see README)",
)
def test_criterion_6_real_trace_ntp():
    with Budget("6 real-trace NTP validation", 600.0):
        trace = load_pcap(NTP_PCAP, ProtocolFilter("udp", 123))
        messages = deduplicate(trace)[:1000]
        segmentation = import_segmentation(messages, NTP_TRUTH)
        analyzable = filter_analyzable(segmentation)
        values = unique_values(analyzable)
        matrix = build_matrix(values)
        config = select_epsilon(matrix)
        assert abs(config.epsilon - 0.121) <= 0.03
        clustering = dbscan(matrix, config.epsilon, config.min_samples)
        metrics = evaluate_clustering(messages, values, clustering)
        assert metrics.precision >= 0.98
        assert metrics.recall >= 0.90


def test_criterion_7_determinism(tmp_path):
    with Budget("7 determinism", 30.0):
        trace, truth = two_type_fixture(tmp_path)
        outputs = []
        for name, threads in (("r1", "1"), ("r2", "1"), ("r8", "8")):
            out = tmp_path / f"{name}.json"
            code = cli_main([
                "analyze", "--input", str(trace), "--format", "hex",
                "--segmenter", "import", "--segments", str(truth),
                "--threads", threads, "--out-json", str(out),
            ])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0] == outputs[2]


def test_criterion_8_coverage_accounting(tmp_path):
    with Budget("8 coverage accounting", 10.0):
        trace, truth = coverage_fixture(tmp_path)
        result = pl.run(
            pl.PipelineConfig(
                input=str(trace), format="hex",
                segmenter="import", segments_path=str(truth),
            )
        )
        # known assignment: eleven 1-byte tags excluded, the 4-byte outlier
        # is the only noise, ten 4-byte values clustered; 55 bytes total
        assert result.report.noise == ["03010201"]
        assert len(result.clustering.clusters) == 1
        exact = evaluate_clustering(result.messages, result.values, result.clustering)
        assert exact.coverage == 40 / 55
        assert json.loads(result.report.to_json())["metrics"]["coverage"] == float(
            f"{40 / 55:.6g}"
        )

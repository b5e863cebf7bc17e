"""Tests of the benchmark itself: generators, recount, thread and tracing
invariance. Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import contextlib
import io
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import oracles  # noqa: E402  (put on the path by checks)
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from typeclust import cli, evaluation  # noqa: E402

SMALL = {"ntp-import": 120, "dhcp-heuristic": 80}


def small(name: str, directory: Path, seed: int = 3):
    workload = run.WORKLOADS[name]
    trace = workload.generate(directory, seed, SMALL[name])
    return workload, trace


def quiet(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_same_seed_gives_identical_traces(tmp_path, name):
    _, first = small(name, tmp_path / "a")
    _, second = small(name, tmp_path / "b")
    _, other = small(name, tmp_path / "c", seed=4)
    assert first.path.read_bytes() == second.path.read_bytes()
    assert first.truth_path.read_bytes() == second.truth_path.read_bytes()
    assert first.path.read_bytes() != other.path.read_bytes()


def test_ntp_trace_has_decoys_duplicates_and_fragments(tmp_path):
    _, trace = small("ntp-import", tmp_path)
    assert trace.skipped_fragments >= 1
    assert trace.records > len(trace.messages)  # duplicates, and the limit
    assert {payload[0] & 7 for payload, _ in trace.messages} == {3, 4}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_recount_agrees_with_pairwise_oracle(tmp_path, name):
    workload, trace = small(name, tmp_path)
    expected = checks.expected_values(trace, workload.segmenter)
    values = list(expected.labels)
    labels = [expected.majority(v) for v in values]
    rnd = random.Random(7)
    for _ in range(5):
        assignment = [rnd.randrange(-1, 6) for _ in values]  # -1 is noise
        clusters = [[v for v, a in zip(values, assignment) if a == c] for c in range(6)]
        clusters = [c for c in clusters if c]
        index = {v: i for i, v in enumerate(values)}
        member_sets = [[index[v] for v in c] for c in clusters]
        noise = [i for i, a in enumerate(assignment) if a == -1]
        tp, fp, fn = oracles.pairwise_metrics(member_sets, noise, labels)
        counted = checks.recount(clusters, expected)
        assert (counted["tp"], counted["fp"], counted["fn"]) == (tp, fp, fn)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_checks_accept_typeclust_output(tmp_path, name):
    workload, trace = small(name, tmp_path)
    expected = checks.expected_values(trace, workload.segmenter)
    report, metrics = tmp_path / "r.json", tmp_path / "m.json"
    assert quiet(run.analyze_argv(trace, workload, report)) == 0
    assert quiet(run.evaluate_argv(trace, workload, report, metrics)) == 0
    _, doc = run.read_json(report)
    assert checks.check_report(doc, expected) == []
    counted = checks.recount(checks.report_clusters(doc), expected)
    assert checks.check_metrics(run.read_json(metrics)[1], counted, "evaluate") == []


def test_report_bytes_identical_across_thread_counts(tmp_path):
    workload, trace = small("ntp-import", tmp_path)
    reports = []
    for threads in (1, 2):
        report = tmp_path / f"threads{threads}.json"
        argv = run.analyze_argv(trace, workload, report)
        argv[argv.index("--threads") + 1] = str(threads)
        assert quiet(argv) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tracing_leaves_report_bytes_unchanged(tmp_path, name):
    workload, trace = small(name, tmp_path)
    untraced, traced = tmp_path / "untraced.json", tmp_path / "traced.json"
    assert quiet(run.analyze_argv(trace, workload, untraced)) == 0
    tracer = Tracer(run.HOOKS)
    tracer.install()
    try:
        assert quiet(run.analyze_argv(trace, workload, traced)) == 0
    finally:
        tracer.uninstall()
    assert tracer.calls("pipeline.run") == 1
    assert untraced.read_bytes() == traced.read_bytes()


def test_missing_function_makes_its_metric_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(evaluation, "label_segments_by_overlap")
    workload, trace = small("ntp-import", tmp_path)
    report = tmp_path / "r.json"
    tracer = Tracer(run.HOOKS)
    tracer.install()
    try:
        assert quiet(run.analyze_argv(trace, workload, report)) == 0
    finally:
        tracer.uninstall()
    metrics = run.layer_metrics(tracer, report.read_bytes(), 0.0)
    assert "evaluation.label_overlap_s" not in metrics
    assert metrics["dissimilarity.values"][0] > 0

"""End-to-end pipeline and CLI behavior."""

from __future__ import annotations

import ast
import contextlib
import ctypes
import dataclasses
import io
import gc
import json
import logging
import os
import re
import subprocess
import sys
import types
import weakref
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import build_pcap, child_env, traced_peak
from fixtures import (
    coverage_fixture,
    hadamard_fixture,
    overclassified_fixture,
    synthetic_protocol_fixture,
    two_type_fixture,
)
from oracles import pairwise_metrics
from test_segmentation import FUZZ_PAYLOADS, SEGMENTATION_DOCS
from test_traceio import hexline_files, pcap_files
from typeclust import autoconf as ac
from typeclust import dissimilarity as dm
from typeclust import memory
from typeclust import pipeline as pl
from typeclust import segmentation as sg
from typeclust import traceio as tio
from typeclust.cli import entry, main
from typeclust.errors import AnalysisError, OutOfMemoryError, PipelineStageError
from typeclust.report import read_report, render_table, sig6, to_json

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402


def analyze_config(trace, truth, **overrides):
    defaults = dict(
        input=str(trace),
        format="hex",
        segments_path=str(truth),
    )
    defaults.update(overrides)
    return pl.PipelineConfig(**defaults)


class TestRun:
    def test_two_type_fixture_perfect_metrics(self, tmp_path):
        trace, truth = two_type_fixture(tmp_path)
        result = pl.run(analyze_config(trace, truth))
        assert len(result.report["clusters"]) == 2
        assert result.report["noise"] == []  # ground-truth segments leave no noise
        metrics = result.report["metrics"]
        assert metrics["precision"] == 1.0
        assert metrics["recall"] == 1.0
        assert metrics["f_score"] == 1.0

    def test_refinement_reduces_overclassification(self, tmp_path):
        trace, truth = overclassified_fixture(tmp_path)
        refined = pl.run(analyze_config(trace, truth))
        plain = pl.run(analyze_config(trace, truth, refine=False))
        assert len(plain.report["clusters"]) == 2
        assert len(refined.report["clusters"]) < len(plain.report["clusters"])
        assert refined.report["metrics"]["recall"] > plain.report["metrics"]["recall"]

    def test_heuristic_segmenter_runs_without_truth(self, tmp_path):
        trace, _ = two_type_fixture(tmp_path)
        result = pl.run(pl.PipelineConfig(input=str(trace), format="hex"))
        assert result.report["metrics"] is None
        assert result.report["metadata"]["segmenter"] == "delta-texture-v1"

    def test_limit_applies_after_dedup(self, tmp_path):
        path = tmp_path / "dups.hex"
        payloads = ["aa01", "aa01", "bb02", "cc03", "dd04"]
        path.write_text("\n".join(payloads) + "\n")
        config = pl.PipelineConfig(input=str(path), format="hex", limit=3)
        _, messages = pl.prepare_messages(config)
        data = pl.build_segmentation(config, messages).data
        assert [data[i:i + 2].hex() for i in range(0, len(data), 2)] == ["aa01", "bb02", "cc03"]

    def test_empty_analysis_raises_stage_error(self, tmp_path):
        path = tmp_path / "tiny.hex"
        path.write_text("aabb\nccdd\n")
        with pytest.raises(pl.PipelineStageError) as err:
            pl.run(pl.PipelineConfig(input=str(path), format="hex"))
        assert err.value.stage == "values"

    @pytest.mark.parametrize("target", ["typeclust.segmentation.segment_heuristic",
                                        "typeclust.clustering._component_roots"])
    def test_a_defect_in_a_stage_is_not_wrapped(self, tmp_path, monkeypatch, target):
        trace, _ = two_type_fixture(tmp_path)

        def defect(*args):
            raise KeyError("len")

        monkeypatch.setattr(target, defect)
        with pytest.raises(KeyError, match="len"):
            pl.run(pl.PipelineConfig(input=str(trace), format="hex"))

    def test_coverage_byte_accounting(self, tmp_path):
        trace, truth = coverage_fixture(tmp_path)
        result = pl.run(analyze_config(trace, truth))
        assert len(result.report["noise"]) == 1  # exactly the outlier value
        assert result.report["noise"] == ["03010201"]
        # hand-computed: 55 total bytes, 11 excluded tag bytes, 4 noise bytes
        assert result.report["metrics"]["coverage"] == sig6(40 / 55)

    def test_report_round_trips(self, tmp_path):
        trace, truth = two_type_fixture(tmp_path)
        result = pl.run(analyze_config(trace, truth))
        path = tmp_path / "report.json"
        path.write_text(to_json(result.report), encoding="utf-8")
        assert read_report(path) == result.report

    def test_metrics_null_without_truth(self, tmp_path):
        trace, _ = two_type_fixture(tmp_path)
        result = pl.run(pl.PipelineConfig(input=str(trace), format="hex"))
        doc = json.loads(to_json(result.report))
        assert doc["metrics"] is None

    def test_report_metadata_records_choices(self, tmp_path):
        trace, _ = two_type_fixture(tmp_path)
        result = pl.run(pl.PipelineConfig(input=str(trace), format="hex", limit=18))
        meta = result.report["metadata"]
        assert meta["limit"] == 18
        assert meta["messages"] == 18
        assert meta["limit_applied"] == "after-dedup"
        assert meta["ln_rounding"] == "natural-log-round-half-away-from-zero"
        assert meta["occurrence_counting"] == "segments-in-deduplicated-trace"
        assert meta["min_samples"] == result.autoconfig.min_samples

    def test_limit_below_one_rejected(self, tmp_path):
        for limit in (0, -1):
            with pytest.raises(ValueError, match="--limit"):
                pl.PipelineConfig(input="trace.hex", limit=limit)

    @pytest.mark.parametrize("field, value, flag", [
        ("threads", 0, "--threads"),
        ("threads", -3, "--threads"),
    ])
    def test_bad_numeric_option_rejected(self, field, value, flag):
        with pytest.raises(ValueError, match=flag):
            pl.PipelineConfig(input="trace.hex", **{field: value})

    @pytest.mark.parametrize("fmt, flt", [
        ("hex", "bogus"),
        ("hex", "udp:123"),
        ("hex", "tcp:80"),
        ("pcap", "bogus"),
        ("pcap", "udp:"),
    ])
    def test_filter_that_is_never_applied_rejected(self, fmt, flt):
        with pytest.raises(ValueError, match="--filter"):
            pl.PipelineConfig(input="trace", format=fmt, filter=flt)

    @pytest.mark.parametrize("field, value", [
        ("format", "json"),
        ("format", "PCAP"),
    ])
    def test_unknown_choice_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"--{field}"):
            pl.PipelineConfig(input="trace", **{field: value})

    def test_stats_measured_once_per_member_set(self, tmp_path, monkeypatch):
        measured = Counter()
        original = pl.cl.cluster_stats

        def counting(matrix, cluster):
            measured[tuple(cluster.members)] += 1
            return original(matrix, cluster)

        monkeypatch.setattr(pl.cl, "cluster_stats", counting)
        trace, truth = overclassified_fixture(tmp_path)
        result = pl.run(analyze_config(trace, truth))
        assert max(measured.values()) == 1
        assert set(measured) >= {tuple(c.members) for c in result.clustering.clusters}

    def test_retrimming_run_scans_once_per_dbscan(self, tmp_path, monkeypatch):
        scans, clustered = [], []
        within, dbscan = dm.DissimilarityMatrix.within, pl.cl.dbscan

        def counting_within(matrix, eps):
            scans.append(eps)
            return within(matrix, eps)

        def recording_dbscan(matrix, epsilon, min_samples, nearest):
            clustered.append(epsilon)
            return dbscan(matrix, epsilon, min_samples, nearest)

        monkeypatch.setattr(dm.DissimilarityMatrix, "within", counting_within)
        monkeypatch.setattr(pl.cl, "dbscan", recording_dbscan)
        trace, truth = synthetic_protocol_fixture(tmp_path, count=100)
        result = pl.run(analyze_config(trace, truth))
        assert result.autoconfig.retrim_count == 3
        assert len(clustered) == 4 and clustered == sorted(clustered, reverse=True)
        assert scans == clustered

    def test_one_knn_table_per_run(self, tmp_path, monkeypatch):
        widths, nearest = [], dm.DissimilarityMatrix.nearest

        def counting_nearest(matrix, k):
            widths.append(k)
            return nearest(matrix, k)

        monkeypatch.setattr(dm.DissimilarityMatrix, "nearest", counting_nearest)
        trace, truth = synthetic_protocol_fixture(tmp_path, count=100)
        config = analyze_config(trace, truth)
        result = pl.run(config)
        assert result.autoconfig.retrim_count == 3  # four DBSCANs and three re-trims
        assert widths == [ac.round_ln(result.matrix.n)]
        n, _ = pl.run_ecdf(config)
        assert n == result.matrix.n and widths == [ac.round_ln(n)] * 2

    def test_no_pair_list_outlives_the_run(self, tmp_path, monkeypatch):
        scans, chunks, within = [], [], dm.DissimilarityMatrix.within

        def watched_within(matrix, eps):
            scans.append(eps)
            for pairs in within(matrix, eps):
                # when a chunk is read, no chunk but the one before it is alive
                assert [i for i, ends in enumerate(chunks[:-2]) if ends() is not None] == []
                chunks.extend(weakref.ref(ends) for ends in pairs)
                yield pairs

        monkeypatch.setattr(dm.DissimilarityMatrix, "within", watched_within)
        monkeypatch.setattr(dm, "_CHUNK_CELLS", 256)  # many chunks to each scan
        trace, truth = synthetic_protocol_fixture(tmp_path, count=100)
        gc.disable()  # each chunk must be freed when its last reference goes, not by the collector
        try:
            result = pl.run(analyze_config(trace, truth))
            assert result.autoconfig.retrim_count == 3 and len(scans) == 4
            assert len(chunks) > 2 * 4 * 10
            assert [i for i, ends in enumerate(chunks) if ends() is not None] == []
        finally:
            gc.enable()

    def test_retrim_iteration_cap(self, tmp_path, monkeypatch):
        # a re-trim that keeps finding smaller knees stops after 3 iterations
        calls = []

        def always_retrim(matrix, nearest, previous, clustering):
            calls.append(previous.epsilon)
            return dataclasses.replace(
                previous,
                epsilon=previous.epsilon * 0.9,
                retrim_count=previous.retrim_count + 1,
            )

        monkeypatch.setattr(pl.ac, "retrim_epsilon", always_retrim)
        trace, truth = two_type_fixture(tmp_path)
        result = pl.run(analyze_config(trace, truth))
        assert len(calls) == ac.MAX_RETRIMS
        assert result.report["metadata"]["retrim_count"] == 3
        assert result.report["metadata"]["retrimmed"] is True
        assert result.autoconfig.epsilon == pytest.approx(calls[0] * 0.9**3)

    def test_failed_retrim_after_a_success_keeps_the_first_clustering(self, tmp_path, monkeypatch):
        clustered = []
        original_dbscan = pl.cl.dbscan

        def recording_dbscan(matrix, epsilon, min_samples, nearest):
            result = original_dbscan(matrix, epsilon, min_samples, nearest)
            clustered.append((epsilon, result))
            return result

        def retrim_then_fail(matrix, nearest, previous, clustering):
            if previous.retrim_count == 0:
                return dataclasses.replace(previous, epsilon=previous.epsilon * 0.5,
                                           retrim_count=1)
            return dataclasses.replace(previous, retrim_failed=True)

        monkeypatch.setattr(pl.cl, "dbscan", recording_dbscan)
        monkeypatch.setattr(pl.ac, "retrim_epsilon", retrim_then_fail)
        trace, truth = two_type_fixture(tmp_path)
        result = pl.run(analyze_config(trace, truth, refine=False))
        assert len(clustered) == 2  # the first knee and the one successful re-trim
        first_epsilon = clustered[0][0]
        assert clustered[1][0] == result.autoconfig.epsilon == first_epsilon * 0.5
        assert result.clustering is clustered[1][1]
        meta = result.report["metadata"]
        assert meta["retrimmed"] is True
        assert meta["retrim_failed"] is True
        assert meta["retrim_count"] == 1
        assert meta["epsilon"] == meta["knee"] == sig6(first_epsilon * 0.5)

    def test_autoconf_metadata_constants(self, tmp_path):
        trace, truth = overclassified_fixture(tmp_path)
        result = pl.run(analyze_config(trace, truth))
        meta = result.report["metadata"]
        assert meta["kneedle_sensitivity"] == 1.0
        assert meta["spline_smoothing"] == 0.1
        assert meta["epsilon_shift"] == 0.0
        assert meta["knee"] == meta["epsilon"] == sig6(result.autoconfig.epsilon)
        assert meta["retrimmed"] is (meta["retrim_count"] > 0)

    def test_pcap_input_through_cli(self, tmp_path, capsys):
        hex_trace, _ = two_type_fixture(tmp_path)
        payloads = [bytes.fromhex(line) for line in hex_trace.read_text().split()]
        pcap = tmp_path / "trace.pcap"
        pcap.write_bytes(build_pcap([("udp", 123, 123, p) for p in payloads]))
        out = tmp_path / "pcap_report.json"
        code = main([
            "analyze", "--input", str(pcap), "--format", "pcap",
            "--filter", "udp:123", "--out-json", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["messages"] == 20
        assert doc["metadata"]["filter"] == "udp:123"
        capsys.readouterr()


class TestCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_analyze_writes_reports(self, tmp_path, capsys):
        trace, truth = two_type_fixture(tmp_path)
        out_json = tmp_path / "report.json"
        out_table = tmp_path / "report.txt"
        code = self.run_cli(
            "analyze", "--input", str(trace), "--format", "hex",
            "--segmenter", "import", "--segments", str(truth),
            "--out-json", str(out_json), "--out-table", str(out_table),
        )
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert doc["metrics"]["precision"] == 1.0
        table = out_table.read_text()
        assert table.splitlines()[0].split() == ["protocol", "messages", "fields", "epsilon", "P", "R", "F"]
        assert "trace" in capsys.readouterr().out

    def test_determinism_byte_identical_reports(self, tmp_path):
        trace, truth = two_type_fixture(tmp_path)
        outputs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "8")):
            out = tmp_path / f"{name}.json"
            code = self.run_cli(
                "analyze", "--input", str(trace), "--format", "hex",
                "--segmenter", "import", "--segments", str(truth),
                "--threads", threads, "--out-json", str(out),
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_no_refine_flag(self, tmp_path):
        trace, truth = overclassified_fixture(tmp_path)
        refined = tmp_path / "refined.json"
        plain = tmp_path / "plain.json"
        self.run_cli("analyze", "--input", str(trace), "--format", "hex",
                     "--segmenter", "import", "--segments", str(truth),
                     "--out-json", str(refined))
        self.run_cli("analyze", "--input", str(trace), "--format", "hex",
                     "--segmenter", "import", "--segments", str(truth),
                     "--no-refine", "--out-json", str(plain))
        n_refined = len(json.loads(refined.read_text())["clusters"])
        n_plain = len(json.loads(plain.read_text())["clusters"])
        assert n_refined < n_plain

    @pytest.mark.parametrize("order", [8, 16])
    def test_degenerate_knn_curve_falls_back_at_every_size(self, tmp_path, order):
        trace, truth = hadamard_fixture(tmp_path, order)  # every dissimilarity is 0.5
        out = tmp_path / "report.json"
        code = self.run_cli("analyze", "--input", str(trace), "--format", "hex",
                            "--segmenter", "import", "--segments", str(truth),
                            "--out-json", str(out))
        assert code == 0
        metadata = json.loads(out.read_text())["metadata"]
        assert metadata["unique_values"] == order
        assert metadata["fallback"] is True
        assert metadata["epsilon"] == 0.5  # the median 2-NN dissimilarity

    def test_empty_analysis_exit_code(self, tmp_path, capsys):
        path = tmp_path / "tiny.hex"
        path.write_text("aabb\nccdd\n")
        code = self.run_cli("analyze", "--input", str(path), "--format", "hex")
        assert code == 2
        assert "values" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "ecdf"])
    def test_matrix_too_large_for_memory_exit_code(self, tmp_path, capsys, monkeypatch, command):
        # the probe is patched; nothing is allocated to run out of memory
        monkeypatch.setattr(memory, "available_memory", lambda: 1024)
        trace, truth = two_type_fixture(tmp_path)
        outputs = {"analyze": ["--out-json", "r.json", "--out-table", "t.txt",
                               "--dump-matrix", "m.csv"], "ecdf": ["--out", "e.csv"]}[command]
        code = self.run_cli(command, "--input", str(trace), "--format", "hex",
                            "--segmenter", "import", "--segments", str(truth),
                            *[str(tmp_path / a) if "." in a else a for a in outputs])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error in stage matrix: ")
        assert re.fullmatch(r"error in stage matrix: \d+ unique values need \d+\.\d MiB for "
                            r"the dissimilarity matrix, 0\.0 MiB available", lines[0])
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([trace.name, truth.name])

    @pytest.mark.parametrize("command, stage, target", [
        ("analyze", "cluster", "typeclust.clustering._component_roots"),
        ("evaluate", "evaluate", "typeclust.evaluation.evaluate_clustering"),
        ("ecdf", "autoconf", "typeclust.autoconf.ecdf_rows"),
    ])
    def test_memory_error_in_a_stage_exit_code(self, tmp_path, capsys, monkeypatch, command,
                                               stage, target):
        trace, truth = two_type_fixture(tmp_path)
        inputs = ["--input", str(trace), "--format", "hex", "--segmenter", "import",
                  "--segments", str(truth)]
        report = tmp_path / "report.json"
        assert self.run_cli("analyze", *inputs, "--out-json", str(report)) == 0
        capsys.readouterr()
        before = sorted(p.name for p in tmp_path.iterdir())
        message = "Unable to allocate 8.00 PiB for an array with shape (2251799813685248,)"

        def out_of_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(target, out_of_memory)
        argv = {"analyze": ["analyze", *inputs, "--out-json", str(tmp_path / "again.json")],
                "evaluate": ["evaluate", "--report", str(report), *inputs, "--truth", str(truth),
                             "--out-json", str(tmp_path / "metrics.json")],
                "ecdf": ["ecdf", *inputs, "--out", str(tmp_path / "e.csv")]}[command]
        code = self.run_cli(*argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error in stage {stage}: ran out of memory: {message}"]
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_memory_error_in_a_stage_is_named(self, tmp_path, monkeypatch):
        trace, truth = two_type_fixture(tmp_path)
        failure = MemoryError("Unable to allocate 8.00 PiB")

        def out_of_memory(*args):
            raise failure

        monkeypatch.setattr("typeclust.clustering._component_roots", out_of_memory)
        with pytest.raises(PipelineStageError) as caught:
            pl.run(analyze_config(trace, truth))
        assert caught.value.stage == "cluster"
        assert isinstance(caught.value.original, OutOfMemoryError)
        assert isinstance(caught.value.original, AnalysisError)
        assert str(caught.value.original) == "ran out of memory: Unable to allocate 8.00 PiB"
        assert caught.value.__cause__ is failure

    @pytest.mark.parametrize("command, target", [
        ("analyze", "typeclust.clustering._component_roots"),
        ("evaluate", "typeclust.evaluation.evaluate_clustering"),
        ("ecdf", "typeclust.autoconf.ecdf_rows"),
    ])
    def test_a_value_error_in_a_stage_is_a_defect(self, tmp_path, monkeypatch, command, target):
        trace, truth = two_type_fixture(tmp_path)
        inputs = ["--input", str(trace), "--format", "hex"]
        report = tmp_path / "report.json"
        assert self.run_cli("analyze", *inputs, "--out-json", str(report)) == 0

        def defect(*args):
            raise ValueError("internal defect")

        monkeypatch.setattr(target, defect)
        argv = {"analyze": ["analyze", *inputs],
                "evaluate": ["evaluate", "--report", str(report), *inputs, "--truth", str(truth)],
                "ecdf": ["ecdf", *inputs, "--out", str(tmp_path / "e.csv")]}[command]
        with pytest.raises(ValueError, match="internal defect"):
            self.run_cli(*argv)

    def test_table_of_an_input_name_that_is_not_utf8(self, tmp_path, capsys):
        trace, _ = two_type_fixture(tmp_path)
        odd = tmp_path / os.fsdecode(b"\xff.hex")  # the byte decodes to a lone surrogate
        odd.write_bytes(trace.read_bytes())
        table = tmp_path / "table.txt"
        assert self.run_cli("analyze", "--input", str(odd), "--format", "hex",
                            "--out-table", str(table)) == 0
        assert table.read_text(encoding="utf-8").splitlines()[1].startswith("\ufffd ")
        assert capsys.readouterr().out == table.read_text(encoding="utf-8")

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code = self.run_cli("analyze", "--input", str(tmp_path / "nope.hex"), "--format", "hex")
        assert code == 1
        capsys.readouterr()

    def test_limit_below_one_exit_code(self, tmp_path, capsys):
        trace, _ = two_type_fixture(tmp_path)
        for limit in ("0", "-1"):
            code = self.run_cli("analyze", "--input", str(trace), "--format", "hex",
                                "--limit", limit)
            assert code == 1
            assert "--limit" in capsys.readouterr().err

    @pytest.mark.parametrize("command, option, value", [
        ("analyze", "--threads", "0"),
        ("analyze", "--threads", "-3"),
        ("analyze", "--limit", "abc"),
        # flags removed with the autoconf tuning values are usage errors
        ("analyze", "--kneedle-s", "nan"),
        ("analyze", "--spline-s", "-1"),
        ("analyze", "--epsilon-shift", "inf"),
        ("ecdf", "--spline-s", "nan"),
    ])
    def test_bad_numeric_option_exit_code(self, tmp_path, capsys, command, option, value):
        trace, _ = two_type_fixture(tmp_path)
        out = ["--out", str(tmp_path / "ecdf.csv")] if command == "ecdf" else []
        code = self.run_cli(command, "--input", str(trace), "--format", "hex",
                            option, value, *out)
        assert code == 1
        assert option in capsys.readouterr().err

    def test_usage_errors_exit_one_and_help_exits_zero(self, capsys):
        assert self.run_cli("analyze", "--format", "hex") == 1  # no --input
        assert "--input" in capsys.readouterr().err
        assert self.run_cli("analyze", "--input", "trace.hex", "--segmenter", "netzob") == 1
        assert "--segmenter" in capsys.readouterr().err
        assert self.run_cli("analyze", "--help") == 0
        assert "--input" in capsys.readouterr().out

    @pytest.mark.parametrize("content", [
        "not json",
        "[1, 2]",
        '{"clusters": []}',
        '{"metadata": {}, "clusters": [{"values": [1]}], "noise": []}',
        '{"metadata": {}, "clusters": [{"values": ["aabb"]}], "noise": []}',
        '{"metadata": {}, "clusters": [{"values": ["aabb"], "counts": [1.5]}], "noise": []}',
        '{"metadata": {}, "clusters": [{"values": ["aabb"], "counts": [true]}], "noise": []}',
        '{"metadata": {}, "clusters": [], "noise": [], "metrics": {"tp": 1}}',
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000-deep"),
    ])
    def test_evaluate_rejects_a_file_that_is_not_a_report(self, tmp_path, capsys, content):
        trace, truth = two_type_fixture(tmp_path)
        bogus = tmp_path / "bogus.json"
        bogus.write_text(content)
        code = self.run_cli("evaluate", "--report", str(bogus), "--input", str(trace),
                            "--format", "hex", "--truth", str(truth))
        assert code == 1
        assert "bogus.json: not an analysis report" in capsys.readouterr().err

    @pytest.mark.parametrize("repeat", ["across-clusters", "within-a-cluster"])
    def test_evaluate_rejects_a_value_listed_twice(self, tmp_path, capsys, repeat):
        trace, truth = two_type_fixture(tmp_path)
        report_path = tmp_path / "report.json"
        inputs = ["--input", str(trace), "--format", "hex",
                  "--segmenter", "import", "--segments", str(truth)]
        assert self.run_cli("analyze", *inputs, "--out-json", str(report_path)) == 0
        doc = json.loads(report_path.read_text())
        first = doc["clusters"][0]
        repeated = first["values"][0]
        if repeat == "across-clusters":
            doc["clusters"].append({**first, "id": len(doc["clusters"])})
        else:
            first["values"].append(repeated)
            first["counts"].append(first["counts"][0])
        report_path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = self.run_cli("evaluate", "--report", str(report_path), *inputs,
                            "--truth", str(truth))
        assert code == 1
        assert f"report value {repeated} is listed more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "evaluate", "ecdf"])
    def test_capture_is_deduplicated_once_per_command(self, tmp_path, capsys, monkeypatch,
                                                      command):
        trace, truth = two_type_fixture(tmp_path)
        heuristic = ["--input", str(trace), "--format", "hex"]
        imported = [*heuristic, "--segmenter", "import", "--segments", str(truth)]
        report = tmp_path / "heuristic.json"
        assert self.run_cli("analyze", *heuristic, "--out-json", str(report)) == 0
        argv = {
            "analyze": ["analyze", *imported],
            "evaluate": ["evaluate", "--report", str(report), *heuristic, "--truth", str(truth)],
            "ecdf": ["ecdf", *imported, "--out", str(tmp_path / "ecdf.csv")],
        }[command]
        calls = []
        deduplicate = tio.deduplicate
        monkeypatch.setattr(tio, "deduplicate",
                            lambda trace: calls.append(trace) or deduplicate(trace))
        assert self.run_cli(*argv) == 0
        assert len(calls) == 1
        capsys.readouterr()

    def test_truth_spelled_two_ways_is_imported_once(self, tmp_path, capsys, monkeypatch):
        trace, truth = two_type_fixture(tmp_path)
        monkeypatch.chdir(tmp_path)
        inputs = ["--input", trace.name, "--format", "hex",
                  "--segmenter", "import", "--segments", f"./{truth.name}"]
        assert self.run_cli("analyze", *inputs, "--out-json", "report.json") == 0
        calls = []
        import_segmentation = sg.import_segmentation
        monkeypatch.setattr(sg, "import_segmentation",
                            lambda *args: calls.append(args) or import_segmentation(*args))
        metrics = []
        for spelling in (f"./{truth.name}", truth.name):
            calls.clear()
            out = f"metrics-{len(metrics)}.json"
            assert self.run_cli("evaluate", "--report", "report.json", *inputs,
                                "--truth", spelling, "--out-json", out) == 0
            assert len(calls) == 1, spelling
            metrics.append(Path(out).read_text())
        assert metrics[0] == metrics[1]
        capsys.readouterr()

    @pytest.mark.parametrize("flt", ["bogus", "udp:123"])
    def test_hex_filter_exit_code(self, tmp_path, capsys, flt):
        trace, _ = two_type_fixture(tmp_path)
        out = tmp_path / "report.json"
        code = self.run_cli("analyze", "--input", str(trace), "--format", "hex",
                            "--filter", flt, "--out-json", str(out))
        assert code == 1
        assert "--filter" in capsys.readouterr().err
        assert not out.exists()

    def _analyzed(self, tmp_path, fixture=two_type_fixture):
        """A fresh report of a fixture and the evaluate arguments for it."""
        trace, truth = fixture(tmp_path)
        report_path = tmp_path / "report.json"
        inputs = ["--input", str(trace), "--format", "hex",
                  "--segmenter", "import", "--segments", str(truth)]
        assert self.run_cli("analyze", *inputs, "--out-json", str(report_path)) == 0
        argv = ["evaluate", "--report", str(report_path), *inputs, "--truth", str(truth)]
        return json.loads(report_path.read_text()), report_path, argv

    @pytest.mark.parametrize("forgery, message", [
        ("non-hex-noise", "report value zz does not occur"),
        ("dropped-noise", "is not in the report"),
        ("dropped-cluster-value", "is not in the report"),
        # each value is checked whole before the next: unknown, repeat, then count
        ("unknown-before-repeat", "report value zz does not occur"),
    ])
    def test_evaluate_rejects_a_report_whose_values_differ(self, tmp_path, capsys, forgery, message):
        doc, report_path, argv = self._analyzed(tmp_path, coverage_fixture)
        assert doc["noise"] and len(doc["clusters"][0]["values"]) > 1
        if forgery == "non-hex-noise":
            doc["noise"] = ["zz", "deadbeef"]
        elif forgery == "dropped-noise":
            doc["noise"] = doc["noise"][1:]
        elif forgery == "unknown-before-repeat":
            doc["clusters"][0]["values"].append("zz")
            doc["clusters"][0]["counts"].append(1)
            doc["noise"].append(doc["clusters"][0]["values"][0])
        else:
            doc["clusters"][0]["values"].pop()
            doc["clusters"][0]["counts"].pop()
        report_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self.run_cli(*argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("forgery", ["count", "dropped-count", "extra-count"])
    def test_evaluate_rejects_a_report_whose_counts_differ(self, tmp_path, capsys, forgery):
        doc, report_path, argv = self._analyzed(tmp_path, coverage_fixture)
        cluster = doc["clusters"][0]
        size, value, count = len(cluster["values"]), cluster["values"][0], cluster["counts"][0]
        if forgery == "count":
            cluster["counts"][0] = 999
            cluster["stats"]["d_max"] = 42
            doc["metadata"]["epsilon"] = 7
        elif forgery == "dropped-count":
            cluster["counts"].pop()
        else:
            cluster["counts"].append(1)
        report_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self.run_cli(*argv) == 1
        message = {
            "count": f"report cluster 0 counts {value} 999 times, the re-derived run {count} times",
            "dropped-count": f"report cluster 0 has {size - 1} counts for {size} values",
            "extra-count": f"report cluster 0 has {size + 1} counts for {size} values",
        }[forgery]
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, forged", [
        ("messages", 19),
        ("unique_values", 1),
        ("segmenter", "delta-texture-v1"),
        ("records", 21),
        ("skipped_fragments", 1),
        ("segments", 41),
        ("excluded_one_byte_segments", 1),
        ("total_bytes", 241),
        # equal under ==, but not of the re-derived JSON type
        ("skipped_fragments", False),
        ("records", 20.0),
    ])
    def test_evaluate_rejects_a_report_whose_metadata_differs(self, tmp_path, capsys, key, forged):
        doc, report_path, argv = self._analyzed(tmp_path)
        given = doc["metadata"][key]
        assert (type(given), given) != (type(forged), forged)
        doc["metadata"][key] = forged
        report_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self.run_cli(*argv) == 1
        assert f"report metadata {key} is {forged!r}" in capsys.readouterr().err

    def test_ecdf_errors_name_their_stage(self, tmp_path, capsys):
        path = tmp_path / "tiny.hex"
        path.write_text("aabb\nccdd\n")
        code = self.run_cli("ecdf", "--input", str(path), "--format", "hex",
                            "--out", str(tmp_path / "ecdf.csv"))
        assert code == 2
        assert "error in stage values" in capsys.readouterr().err

    def test_import_segmenter_without_segments_rejected_before_loading(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")  # no file is read, so none need exist
        for flags, message in (
            (["--segmenter", "import"], "--segments is required with the import segmenter"),
            (["--segments", missing], "--segments applies only to --segmenter import"),
        ):
            inputs = ["--input", missing, "--format", "hex", *flags]
            for argv in (["analyze", *inputs],
                         ["evaluate", "--report", missing, *inputs, "--truth", missing],
                         ["ecdf", *inputs, "--out", str(tmp_path / "ecdf.csv")]):
                assert self.run_cli(*argv) == 1
                captured = capsys.readouterr()
                assert captured.err == f"error: {message}\n"
                assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("failing", ["--dump-matrix", "--out-json", "--out-table"])
    def test_failed_write_stops_the_later_outputs(self, tmp_path, capsys, failing):
        trace, truth = two_type_fixture(tmp_path)
        order = ["--dump-matrix", "--out-json", "--out-table"]  # the order analyze writes them
        paths = {flag: tmp_path / f"out{i}" for i, flag in enumerate(order)}
        paths[failing] = tmp_path / "missing" / "out"
        code = self.run_cli("analyze", "--input", str(trace), "--format", "hex",
                            "--segmenter", "import", "--segments", str(truth),
                            *(arg for flag in order for arg in (flag, str(paths[flag]))))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # no table
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(paths[failing]) in lines[0]
        later = order[order.index(failing):]
        assert [flag for flag in later if paths[flag].exists()] == []
        earlier = order[:order.index(failing)]
        assert all(paths[flag].exists() for flag in earlier)

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full to fail writes")
    @pytest.mark.parametrize("what", ["matrix CSV", "report JSON", "report table", "ECDF CSV",
                                      "metrics JSON"])
    def test_failed_write_names_its_output(self, tmp_path, capsys, what):
        trace, truth = two_type_fixture(tmp_path)
        inputs = ["--input", str(trace), "--format", "hex",
                  "--segmenter", "import", "--segments", str(truth)]
        report = tmp_path / "report.json"
        assert self.run_cli("analyze", *inputs, "--out-json", str(report)) == 0
        argv = {
            "matrix CSV": ["analyze", *inputs, "--dump-matrix"],
            "report JSON": ["analyze", *inputs, "--out-json"],
            "report table": ["analyze", *inputs, "--out-table"],
            "ECDF CSV": ["ecdf", *inputs, "--out"],
            "metrics JSON": ["evaluate", "--report", str(report), *inputs, "--truth", str(truth),
                             "--out-json"],
        }[what]
        capsys.readouterr()
        assert self.run_cli(*argv, "/dev/full") == 1  # every write to /dev/full fails
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: cannot write {what} to /dev/full: ")

    def test_pipeline_writes_no_file(self):
        referenced = set()
        for node in ast.walk(ast.parse(Path(pl.__file__).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
        writers = {"emit_report", "write_matrix_csv", "open", "write_text", "writelines", "savetxt"}
        assert sorted(referenced & writers) == []

    def test_cli_import_loads_no_scipy(self, tmp_path):
        trace, truth = two_type_fixture(tmp_path)  # 40 values: three ECDFs and a knee
        report, curves = tmp_path / "report.json", tmp_path / "curves.csv"
        inputs = ["--input", str(trace), "--format", "hex", "--segmenter", "import",
                  "--segments", str(truth)]
        probe = (
            "import sys; from typeclust.cli import main\n"
            f"assert main(['analyze', *{inputs!r}, '--out-json', {str(report)!r}]) == 0\n"
            f"assert main(['ecdf', *{inputs!r}, '--out', {str(curves)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        out = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True,
                             text=True, check=True)
        assert out.stdout.splitlines()[-1] == "[]"
        assert json.loads(report.read_text())["metadata"]["fallback"] is False
        assert len(curves.read_text().splitlines()) == 1 + 3 * 200  # k = 2, 3, 4

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
    def test_cli_import_starts_no_blas_thread(self):
        env = {k: v for k, v in child_env().items() if k != "OPENBLAS_NUM_THREADS"}
        probe = ("import os, typeclust.cli\n"
                 "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.split() == ["1", "1"]

    @pytest.mark.parametrize("setting, first, expected", [
        ("3", "", "3"),  # the caller's own setting
        (None, "import numpy; ", None),  # numpy came first: the environment is left alone
    ], ids=["set", "numpy-first"])
    def test_the_callers_blas_threads_are_kept(self, setting, first, expected):
        env = {k: v for k, v in child_env().items() if k != "OPENBLAS_NUM_THREADS"}
        if setting is not None:
            env["OPENBLAS_NUM_THREADS"] = setting
        probe = f"{first}import os, typeclust.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == str(expected)

    def test_the_package_root_loads_nothing(self):
        env = {k: v for k, v in child_env().items() if k != "OPENBLAS_NUM_THREADS"}
        probe = ("import os, sys, typeclust\n"
                 "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'),\n"
                 "      [name for name in vars(typeclust) if not name.startswith('__')])")
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False None []"

    def test_a_library_import_leaves_blas_threads_alone(self):
        # the BLAS default is the command line's process policy, like the
        # malloc policy and the freeze
        env = {k: v for k, v in child_env().items() if k != "OPENBLAS_NUM_THREADS"}
        probe = "import os, typeclust.pipeline; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "None"

    @pytest.fixture
    def libc(self, monkeypatch):
        """A fake C library whose ``mallopt`` records its calls, in a clean environment.

        ``gc.freeze`` records into the same list, so that no ``entry`` run in
        this process freezes the test process's own heap.
        """
        def mallopt(param, value):
            fake.calls.append((param, value))
            return 1

        fake = types.SimpleNamespace(mallopt=mallopt, calls=[])
        monkeypatch.setattr(ctypes, "CDLL", lambda name: fake)
        monkeypatch.setattr(gc, "freeze", lambda: fake.calls.append("freeze"))
        for name in ("MALLOC_ARENA_MAX", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
                     "GLIBC_TUNABLES"):
            monkeypatch.delenv(name, raising=False)
        return fake

    def analyze(self, tmp_path, command=entry):
        trace, truth = two_type_fixture(tmp_path)
        report = tmp_path / "report.json"
        assert command(["analyze", "--input", str(trace), "--format", "hex", "--segmenter",
                        "import", "--segments", str(truth), "--out-json", str(report)]) == 0
        return json.loads(report.read_text())

    def test_the_cli_fixes_the_malloc_policy(self, tmp_path, libc):
        self.analyze(tmp_path)
        # one arena, mapping from two float64 chunks up and trimming above eight;
        # then the import-time heap is frozen, once
        assert libc.calls == [(-8, 1), (-3, 16 * dm._CHUNK_CELLS), (-1, 64 * dm._CHUNK_CELLS),
                              "freeze"]
        assert 16 * dm._CHUNK_CELLS == 1 << 20

    @pytest.mark.parametrize("name, value, calls", [
        ("MALLOC_ARENA_MAX", "4", 0),
        ("MALLOC_MMAP_THRESHOLD_", "131072", 0),
        ("MALLOC_TRIM_THRESHOLD_", "131072", 0),
        ("GLIBC_TUNABLES", "glibc.rtld.nns=2:glibc.malloc.trim_threshold=131072", 0),
        ("GLIBC_TUNABLES", "glibc.rtld.nns=2", 3),  # no malloc tunable: the policy is set
    ])
    def test_an_environment_that_sets_malloc_keeps_it(self, tmp_path, monkeypatch, libc,
                                                       name, value, calls):
        monkeypatch.setenv(name, value)
        self.analyze(tmp_path)
        # the freeze does not depend on the allocator's settings
        assert len(libc.calls) == calls + 1 and libc.calls[-1] == "freeze"

    def test_a_libc_without_mallopt_still_runs_the_command(self, tmp_path, monkeypatch, libc):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert self.analyze(tmp_path)["metrics"]["precision"] == 1.0
        assert libc.calls == ["freeze"]

    def test_library_callers_keep_their_allocator(self, tmp_path, libc):
        # pipeline.run, and main, which tests and the bench's traced passes call
        # in their own process: no malloc policy, and the collector left alone
        assert gc.get_freeze_count() == 0
        trace, truth = two_type_fixture(tmp_path)
        pl.run(analyze_config(trace, truth))
        self.analyze(tmp_path, command=main)
        assert libc.calls == []
        assert gc.get_freeze_count() == 0

    def test_the_entry_point_freezes_the_import_heap(self, tmp_path):
        trace, truth = two_type_fixture(tmp_path)
        inputs = ["--input", str(trace), "--format", "hex", "--segmenter", "import",
                  "--segments", str(truth)]

        def commands(out):
            out.mkdir()
            return [["analyze", *inputs, "--out-json", str(out / "report.json")],
                    ["evaluate", "--report", str(out / "report.json"), *inputs,
                     "--truth", str(truth), "--out-json", str(out / "metrics.json")]]

        probe = (
            "import gc, json\nfrom typeclust.cli import entry\n"
            "runs = [(None, gc.get_freeze_count())]\n"
            f"for argv in {commands(tmp_path / 'entry')!r}:\n"
            "    runs.append((entry(argv), gc.get_freeze_count()))\n"
            "print(json.dumps(runs))"
        )
        out = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True,
                             text=True, check=True)
        (_, imported), (analyzed, after_analyze), (evaluated, after_evaluate) = json.loads(
            out.stdout.splitlines()[-1])
        assert imported == 0  # importing the CLI freezes nothing
        assert analyzed == evaluated == 0
        assert 0 < after_analyze <= after_evaluate
        for argv in commands(tmp_path / "main"):
            assert main(argv) == 0
        for name in ("report.json", "metrics.json"):
            assert (tmp_path / "entry" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()

    # the medians of cluster_stats, of eps_density in the merge pass and of the 2-NN fallback
    @pytest.mark.parametrize("fixture, segmenter, fallback", [
        (lambda directory: synthetic_protocol_fixture(directory, count=60), "heuristic", False),
        (lambda directory: hadamard_fixture(directory, 16), "import", True),
    ], ids=["refined", "fallback"])
    def test_cli_commands_leave_numpy_ma_unimported(self, tmp_path, fixture, segmenter, fallback):
        trace, truth = fixture(tmp_path)
        report = tmp_path / "report.json"
        inputs = ["--input", str(trace), "--format", "hex", "--segmenter", segmenter,
                  *(["--segments", str(truth)] if segmenter == "import" else [])]
        probe = (
            "import sys; from typeclust.cli import main\n"
            f"assert main(['analyze', *{inputs!r}, '--out-json', {str(report)!r}]) == 0\n"
            f"assert main(['evaluate', '--report', {str(report)!r}, *{inputs!r},"
            f" '--truth', {str(truth)!r}]) == 0\n"
            f"assert main(['ecdf', *{inputs!r}, '--out', {str(tmp_path / 'curves.csv')!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)"
        )
        out = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True,
                             text=True, check=True)
        assert out.stdout.splitlines()[-1] == "False"
        assert json.loads(report.read_text())["metadata"]["fallback"] is fallback

    @pytest.mark.parametrize("verbose", [True, False], ids=["verbose", "quiet"])
    def test_verbose_logs_each_stage_with_its_time(self, tmp_path, verbose):
        # a child interpreter: pytest's root handlers make basicConfig a no-op in this one
        trace, truth = two_type_fixture(tmp_path)
        argv = [*(["-v"] if verbose else []), "analyze", "--input", str(trace), "--format", "hex",
                "--segmenter", "import", "--segments", str(truth)]
        out = subprocess.run([sys.executable, "-m", "typeclust.cli", *argv], env=child_env(),
                             capture_output=True, text=True, check=True)
        stages = ["load", "segment", "values", "matrix", "autoconf", "cluster", "refine",
                  "evaluate", "report"]
        logged = [re.sub(r"in \d+\.\d{3} s, \d+ page faults$", "in T s, F page faults", line)
                  for line in out.stderr.splitlines()]
        assert logged == ([f"INFO typeclust.pipeline: stage {stage} done in T s, F page faults"
                           for stage in stages] if verbose else [])

    def test_without_resource_the_stage_line_has_no_fault_count(self, monkeypatch, caplog):
        monkeypatch.setitem(sys.modules, "resource", None)  # import resource then fails
        with caplog.at_level(logging.INFO, logger="typeclust.pipeline"), pl._stage("matrix"):
            pass
        assert re.fullmatch(r"stage matrix done in \d+\.\d{3} s", caplog.messages[-1])

    def test_dump_matrix(self, tmp_path):
        trace, truth = two_type_fixture(tmp_path)
        matrix_csv = tmp_path / "matrix.csv"
        code = self.run_cli(
            "analyze", "--input", str(trace), "--format", "hex",
            "--segmenter", "import", "--segments", str(truth),
            "--dump-matrix", str(matrix_csv),
        )
        assert code == 0
        matrix = pl.run(analyze_config(trace, truth)).matrix
        n = matrix.n
        full = matrix.block(range(n), range(n))
        expected = [",".join(str(i) for i in range(n))]
        expected += [",".join(f"{x:.6g}" for x in row) for row in full]
        assert matrix_csv.read_text().splitlines() == expected

    def test_ecdf_subcommand(self, tmp_path, capsys):
        trace, truth = two_type_fixture(tmp_path)
        out = tmp_path / "curves.csv"
        code = self.run_cli(
            "ecdf", "--input", str(trace), "--format", "hex",
            "--segmenter", "import", "--segments", str(truth),
            "--out", str(out),
        )
        assert code == 0
        ecdf_lines = out.read_text().splitlines()
        assert ecdf_lines[0] == "k,x,y_raw,y_smoothed"
        assert len(ecdf_lines) > 200
        capsys.readouterr()

    def test_ecdf_makes_no_object_per_row(self, tmp_path, monkeypatch, capsys):
        # the DHCP bench capture of generator seed 8: seven curves of 3,280
        # grid points, written from a matrix built untraced. A tuple of four
        # objects and a line per row peaked at 5.98-6.13 MiB; a curve's floats
        # at a time peak at 3.47 MiB, most of it the load and segment stages
        trace = gen.write_dhcp_hex(tmp_path, 8, 1200)
        matrix = dm.build_matrix(pl._load_values(pl.PipelineConfig(str(trace.path)))[2])
        monkeypatch.setattr(dm, "build_matrix", lambda values, threads: matrix)
        out = tmp_path / "curves.csv"
        code, peak = traced_peak(main, ["ecdf", "--input", str(trace.path), "--out", str(out)])
        assert (code, len(out.read_text().splitlines())) == (0, 1 + 7 * 3_280)
        assert peak < 4.5 * 2**20
        capsys.readouterr()

    def test_evaluate_subcommand_reproduces_report_metrics(self, tmp_path, capsys):
        trace, truth = two_type_fixture(tmp_path)
        report_path = tmp_path / "report.json"
        self.run_cli("analyze", "--input", str(trace), "--format", "hex",
                     "--segmenter", "import", "--segments", str(truth),
                     "--out-json", str(report_path))
        metrics_path = tmp_path / "metrics.json"
        code = self.run_cli(
            "evaluate", "--report", str(report_path),
            "--input", str(trace), "--format", "hex",
            "--segmenter", "import", "--segments", str(truth),
            "--truth", str(truth), "--out-json", str(metrics_path),
        )
        assert code == 0
        evaluated = json.loads(metrics_path.read_text())
        reported = json.loads(report_path.read_text())["metrics"]
        assert evaluated == reported
        capsys.readouterr()

    def test_limit_leaves_out_the_truth_of_dropped_messages(self, tmp_path, capsys):
        trace, truth = synthetic_protocol_fixture(tmp_path, count=60)
        doc = json.loads(truth.read_text())
        doc["messages"] = doc["messages"][:40]
        kept_truth = tmp_path / "gt40.json"
        kept_truth.write_text(json.dumps(doc))
        inputs = ["--input", str(trace), "--format", "hex", "--limit", "40"]
        heuristic = tmp_path / "heuristic.json"
        assert self.run_cli("analyze", *inputs, "--out-json", str(heuristic)) == 0
        outputs = []
        for name, gt in (("whole", truth), ("kept", kept_truth)):
            report, metrics = tmp_path / f"{name}.json", tmp_path / f"{name}-metrics.json"
            assert self.run_cli("analyze", *inputs, "--segmenter", "import", "--segments",
                                str(gt), "--out-json", str(report)) == 0
            assert self.run_cli("evaluate", "--report", str(heuristic), *inputs,
                                "--truth", str(gt), "--out-json", str(metrics)) == 0
            outputs.append((report.read_bytes(), metrics.read_bytes()))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["metadata"]["messages"] == 40
        capsys.readouterr()

    def test_evaluate_heuristic_report_against_truth(self, tmp_path, capsys):
        trace, truth = two_type_fixture(tmp_path)
        report_path = tmp_path / "heuristic.json"
        code = self.run_cli("analyze", "--input", str(trace), "--format", "hex",
                            "--out-json", str(report_path))
        assert code == 0
        code = self.run_cli(
            "evaluate", "--report", str(report_path),
            "--input", str(trace), "--format", "hex",
            "--truth", str(truth),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "precision=" in out and "coverage=" in out

    def test_evaluate_rejects_truth_that_leaves_a_segment_unlabeled(self, tmp_path, capsys):
        trace, truth = two_type_fixture(tmp_path)
        report_path = tmp_path / "heuristic.json"
        assert self.run_cli("analyze", "--input", str(trace), "--format", "hex",
                            "--out-json", str(report_path)) == 0
        doc = json.loads(truth.read_text())
        doc["messages"][0]["fields"][1]["type"] = None  # message 0's text field
        truth.write_text(json.dumps(doc))
        capsys.readouterr()
        code = self.run_cli("evaluate", "--report", str(report_path), "--input", str(trace),
                            "--format", "hex", "--truth", str(truth))
        assert code == 1
        assert capsys.readouterr().err == (
            "error in stage segment: segment at message 0 offset 2 overlaps no labeled"
            " ground-truth field\n")

    def test_truth_payload_that_is_not_hex_exit_code(self, tmp_path, capsys):
        trace, truth = two_type_fixture(tmp_path)
        doc = json.loads(truth.read_text())
        doc["messages"][0]["payload"] = "zz"
        truth.write_text(json.dumps(doc))
        code = self.run_cli("analyze", "--input", str(trace), "--format", "hex",
                            "--segmenter", "import", "--segments", str(truth))
        assert code == 1
        assert capsys.readouterr().err == (
            "error in stage segment: entry payload 'zz' is not valid hex\n")


@pytest.fixture(scope="module")
def coverage_report(tmp_path_factory):
    """The report analyze writes for the coverage fixture, its config and truth,
    and every value's true count."""
    trace, truth = coverage_fixture(tmp_path_factory.mktemp("coverage"))
    config = analyze_config(trace, truth)
    result = pl.run(config)
    counts = dict(zip((c.hex() for c in result.values.content), result.values.counts.tolist()))
    return json.loads(to_json(result.report)), config, str(truth), counts


DEFECTS = ("drop", "repeat", "count", "count-length", "unknown", "metadata")
BENIGN = ("reorder", "move", "to-noise", "from-noise")
INPUT_KEYS = ("records", "skipped_fragments", "messages", "segmenter", "segments",
              "excluded_one_byte_segments", "unique_values", "total_bytes")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_evaluate_rejects_exactly_the_forged_reports(coverage_report, data):
    """A report edited by drawn defects is rejected; one edited only by
    benign moves scores its edited membership."""
    original, config, truth, true_count = coverage_report
    doc = json.loads(json.dumps(original))
    tainted: set[str] = set()  # values a defect touched: no later edit may undo it
    frozen: set[int] = set()  # ids of clusters whose counts no longer pair with values

    def places(clusters_only=False):
        """(cluster, position) of every untainted value; the cluster is None for noise."""
        found = [(c, i) for c in doc["clusters"] if id(c) not in frozen
                 for i, v in enumerate(c["values"]) if v not in tainted]
        if not clusters_only:
            found += [(None, i) for i, v in enumerate(doc["noise"]) if v not in tainted]
        return found

    def targets(source):
        """Where a value of ``source`` may go: another open cluster, a new one, or noise."""
        return [c for c in doc["clusters"] if c is not source and id(c) not in frozen] + [
            "new"] + ([None] if source is not None else [])

    def take(place):
        cluster, i = place
        if cluster is None:
            return doc["noise"].pop(i), None
        return cluster["values"].pop(i), cluster["counts"].pop(i)

    def put(target, value, count):
        if target is None:
            doc["noise"].append(value)
            return
        if target == "new":
            target = {"id": len(doc["clusters"]), "values": [], "counts": []}
            doc["clusters"].append(target)
        target["values"].append(value)
        target["counts"].append(count)

    defective = False
    for kind in data.draw(st.lists(st.sampled_from(DEFECTS + BENIGN), max_size=6)):
        open_clusters = [c for c in doc["clusters"] if id(c) not in frozen]
        if kind == "metadata":
            key = data.draw(st.sampled_from(INPUT_KEYS))
            value = doc["metadata"][key]
            doc["metadata"][key] = value + "x" if isinstance(value, str) else value + 1
        elif kind == "unknown":
            value = data.draw(st.sampled_from(["zz", "deadbeef", "c89664"]))
            put(data.draw(st.sampled_from([None, "new", *open_clusters])), value, 1)
            tainted.add(value)
        elif kind == "count-length":
            if not open_clusters:
                continue
            cluster = data.draw(st.sampled_from(open_clusters))
            if cluster["counts"] and data.draw(st.booleans()):
                cluster["counts"].pop()
            else:
                cluster["counts"].append(1)
            frozen.add(id(cluster))
        elif kind == "reorder":
            doc["clusters"] = list(data.draw(st.permutations(doc["clusters"])))
        else:
            candidates = {
                "drop": places(),
                "repeat": places(),
                "count": places(clusters_only=True),
                "move": places(clusters_only=True),
                "to-noise": places(clusters_only=True),
                "from-noise": [p for p in places() if p[0] is None],
            }[kind]
            if not candidates:
                continue
            cluster, i = place = data.draw(st.sampled_from(candidates))
            value = (doc["noise"] if cluster is None else cluster["values"])[i]
            if kind == "drop":
                take(place)
            elif kind == "repeat":
                put(data.draw(st.sampled_from(targets(cluster))), value, true_count[value])
            elif kind == "count":
                forged = data.draw(st.integers(0, 999).filter(lambda n: n != true_count[value]))
                cluster["counts"][i] = forged
            elif kind == "move":
                put(data.draw(st.sampled_from(targets(cluster)[:-1])), *take(place))
            elif kind == "to-noise":
                take(place)
                put(None, value, None)
            else:  # from-noise
                take(place)
                put(data.draw(st.sampled_from(targets(None))), value, true_count[value])
            if kind in DEFECTS:
                tainted.add(value)
        defective |= kind in DEFECTS

    if defective:
        with pytest.raises(AnalysisError):
            pl.evaluate_report(doc, config, truth)
        return
    metrics = pl.evaluate_report(doc, config, truth)
    members = [c["values"] for c in doc["clusters"]]
    labels = dict.fromkeys(true_count, "data")  # the fixture types every 4-byte field "data"
    assert (metrics.tp, metrics.fp, metrics.fn) == pairwise_metrics(members, doc["noise"], labels)
    clustered = sum(len(bytes.fromhex(v)) * true_count[v] for values in members for v in values)
    assert metrics.coverage == clustered / original["metadata"]["total_bytes"]


# Well-formed traces carry the payloads the fuzzed segmentation documents
# name, and random ones for the heuristic segmenter to cut.
MESSAGE = st.sampled_from(FUZZ_PAYLOADS) | st.binary(min_size=1, max_size=16)
MESSAGES = st.integers(0, 40).flatmap(lambda size: st.lists(MESSAGE, min_size=size,
                                                             max_size=size))


def trace_bytes(fmt: str, messages: list[bytes]) -> bytes:
    """``messages`` as hex lines, or as UDP:123 datagrams of a pcap."""
    if fmt == "hex":
        return b"".join(m.hex().encode() + b"\n" for m in messages)
    return build_pcap([("udp", 123, 123, m) for m in messages])


@st.composite
def tilings(draw, messages: list[bytes]) -> dict:
    """A segmentation document that cuts each of ``messages`` into fields of types x and y."""
    tiling = []
    for m in messages:
        cuts = sorted(draw(st.sets(st.integers(1, len(m) - 1), max_size=3))) if len(m) > 1 else []
        bounds = [0, *cuts, len(m)]
        tiling.append({"payload": m.hex(), "fields": [
            {"len": b - a, "type": draw(st.sampled_from(["x", "y"]))}
            for a, b in zip(bounds, bounds[1:])]})
    return {"messages": tiling}


@st.composite
def cli_inputs(draw) -> tuple[str, str, bytes, object]:
    """(format, filter, trace file bytes, segmentation document) of one CLI run.

    The trace is a loader fuzz input of ``test_traceio`` or drawn messages as
    hex lines or UDP:123 datagrams; the document is a fuzzed one or a tiling
    of the drawn messages, so that some runs reach every stage.
    """
    fmt, flt = draw(st.sampled_from([("hex", "raw"), ("pcap", "udp:123")]))
    messages = list(dict.fromkeys(draw(MESSAGES)))
    if draw(st.sampled_from(["fuzzed", "drawn", "drawn"])) == "fuzzed":
        data = draw(hexline_files if fmt == "hex" else pcap_files())
        flt = draw(st.sampled_from([flt, "raw", "tcp:53"])) if fmt == "pcap" else flt
    else:
        data = trace_bytes(fmt, messages)
    if draw(st.booleans()):
        return fmt, flt, data, draw(SEGMENTATION_DOCS)
    return fmt, flt, data, draw(tilings(messages))


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(case=cli_inputs(), segmenter=st.sampled_from(["heuristic", "import"]),
       limit=st.none() | st.integers(-1, 45))
def test_cli_exits_with_a_code_and_no_traceback(tmp_path, case, segmenter, limit):
    fmt, flt, data, doc = case
    trace, truth, report = tmp_path / "trace", tmp_path / "truth.json", tmp_path / "report.json"
    trace.write_bytes(data)
    truth.write_text(json.dumps(doc))
    report.unlink(missing_ok=True)
    inputs = ["--input", str(trace), "--format", fmt, "--filter", flt, "--segmenter", segmenter,
              *(["--segments", str(truth)] if segmenter == "import" else []),
              *(["--limit", str(limit)] if limit is not None else [])]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        codes = [main(["analyze", *inputs, "--out-json", str(report)]),
                 main(["evaluate", "--report", str(report), *inputs, "--truth", str(truth)]),
                 main(["ecdf", *inputs, "--out", str(tmp_path / "ecdf.csv")])]
    assert set(codes) <= {0, 1, 2, 3}
    assert "Traceback" not in stderr.getvalue()


# ---------------------------------------------------------------- tuning constants


@st.composite
def protocols(draw) -> tuple[str, str, bytes, dict]:
    """(format, filter, trace file bytes, tiling) of 20 to 120 drawn messages.

    Some messages vary one byte of a few drawn templates, so that values of
    the longest lengths, which are stored last, fall in clusters too.
    """
    fmt, flt = draw(st.sampled_from([("hex", "raw"), ("pcap", "udp:123")]))
    templates = draw(st.lists(MESSAGE, min_size=1, max_size=3))
    variant = st.sampled_from(templates).flatmap(lambda t: st.tuples(
        st.integers(0, len(t) - 1), st.integers(0, 255)).map(
        lambda at: t[: at[0]] + bytes([at[1]]) + t[at[0] + 1 :]))
    messages = list(dict.fromkeys(draw(st.lists(MESSAGE | variant, min_size=20, max_size=120))))
    return fmt, flt, trace_bytes(fmt, messages), draw(tilings(messages))


def outputs(config: pl.PipelineConfig) -> tuple[str, ...]:
    """The report JSON, the table and the ECDF curves of ``config``, or the error it stops with.

    The curves are those ``run_ecdf`` computes, taken from the run's matrix
    rather than from a second build.
    """
    try:
        result = pl.run(config)
    except PipelineStageError as err:
        return err.stage, repr(err.original)
    curves = ac.ecdf_rows(ac.nearest_table(result.matrix))
    # every float of every column: numpy's repr elides an array past 1,000 entries
    return (to_json(result.report), render_table(result.report),
            repr([(k, *(column.tolist() for column in columns)) for k, *columns in curves]))


@contextlib.contextmanager
def tuned(chunk: int, piece: int, cpus: int):
    """Every tuning constant moved at once: the chunk cells, the segmenter's piece and the CPUs."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(dm, "_CHUNK_CELLS", chunk))
        stack.enter_context(mock.patch.object(sg, "_PIECE_BYTES", piece))
        stack.enter_context(mock.patch.object(dm, "_cpus", lambda: cpus))
        yield


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(case=protocols(), segmenter=st.sampled_from(["heuristic", "import"]),
       chunk=st.integers(24, 4096), piece=st.integers(1, 256), threads=st.integers(1, 3),
       cpus=st.integers(1, 3))
def test_no_tuning_constant_reaches_an_output(tmp_path, case, segmenter, chunk, piece, threads,
                                              cpus):
    # the chunk cells size the build's chunks, every reader's chunks and
    # DBSCAN's fold batches, and the piece the heuristic's pieces; none of
    # them, nor the worker count, may move a byte of what a run writes
    fmt, flt, data, doc = case
    trace, truth = tmp_path / "trace", tmp_path / "truth.json"
    trace.write_bytes(data)
    truth.write_text(json.dumps(doc))
    config = pl.PipelineConfig(str(trace), fmt, flt,
                               segments_path=str(truth) if segmenter == "import" else None)
    default = outputs(config)
    with tuned(chunk, piece, cpus):
        assert outputs(dataclasses.replace(config, threads=threads)) == default


@pytest.fixture(scope="module")
def first_bench_captures(tmp_path_factory) -> dict:
    """Each bench workload's first capture at bench seed 1: its config and default outputs."""
    captures = {}
    for name, generate, seed, messages, segmenter in (
            ("ntp-import", gen.write_ntp_pcap, 3, 1000, "import"),
            ("dhcp-heuristic", gen.write_dhcp_hex, 8, 1200, "heuristic")):
        trace = generate(tmp_path_factory.mktemp(name), seed, messages)
        config = pl.PipelineConfig(str(trace.path), trace.format, trace.filter, trace.limit,
                                   str(trace.truth_path) if segmenter == "import" else None)
        captures[name] = config, outputs(config)
    return captures


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("workload", ["ntp-import", "dhcp-heuristic"])
def test_no_tuning_constant_reaches_a_bench_output(first_bench_captures, workload, threads):
    # chunks of 4,096 cells and pieces of 512 bytes: tiny chunks are for the
    # drawn protocols, as at n = 3,000 they would make each scan yield 190,000
    config, default = first_bench_captures[workload]
    with tuned(4096, 512, 2):
        assert outputs(dataclasses.replace(config, threads=threads)) == default

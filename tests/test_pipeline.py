"""End-to-end pipeline and CLI behavior."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import build_pcap
from fixtures import coverage_fixture, overclassified_fixture, two_type_fixture
from typeclust import autoconf as ac
from typeclust import pipeline as pl
from typeclust.cli import main
from typeclust.report import AnalysisReport, sig6


def analyze_config(trace, truth, **overrides):
    defaults = dict(
        input=str(trace),
        format="hex",
        segmenter="import",
        segments_path=str(truth),
    )
    defaults.update(overrides)
    return pl.PipelineConfig(**defaults)


class TestRun:
    def test_two_type_fixture_perfect_metrics(self, tmp_path):
        trace, truth = two_type_fixture(tmp_path)
        result = pl.run(analyze_config(trace, truth))
        assert len(result.report.clusters) == 2
        assert result.report.noise == []  # ground-truth segments leave no noise
        metrics = result.report.metrics
        assert metrics.precision == 1.0
        assert metrics.recall == 1.0
        assert metrics.f_score == 1.0

    def test_refinement_reduces_overclassification(self, tmp_path):
        trace, truth = overclassified_fixture(tmp_path)
        refined = pl.run(analyze_config(trace, truth))
        plain = pl.run(analyze_config(trace, truth, refine=False))
        assert len(plain.report.clusters) == 2
        assert len(refined.report.clusters) < len(plain.report.clusters)
        assert refined.report.metrics.recall > plain.report.metrics.recall

    def test_heuristic_segmenter_runs_without_truth(self, tmp_path):
        trace, _ = two_type_fixture(tmp_path)
        result = pl.run(pl.PipelineConfig(input=str(trace), format="hex"))
        assert result.report.metrics is None
        assert result.report.metadata["segmenter"] == "delta-texture-v1"

    def test_limit_applies_after_dedup(self, tmp_path):
        path = tmp_path / "dups.hex"
        payloads = ["aa01", "aa01", "bb02", "cc03", "dd04"]
        path.write_text("\n".join(payloads) + "\n")
        config = pl.PipelineConfig(input=str(path), format="hex", limit=3)
        _, messages = pl.prepare_messages(config)
        assert [m.payload.hex() for m in messages] == ["aa01", "bb02", "cc03"]

    def test_empty_analysis_raises_stage_error(self, tmp_path):
        path = tmp_path / "tiny.hex"
        path.write_text("aabb\nccdd\n")
        with pytest.raises(pl.PipelineStageError) as err:
            pl.run(pl.PipelineConfig(input=str(path), format="hex"))
        assert err.value.stage == "values"

    def test_coverage_byte_accounting(self, tmp_path):
        trace, truth = coverage_fixture(tmp_path)
        result = pl.run(analyze_config(trace, truth))
        assert len(result.report.noise) == 1  # exactly the outlier value
        assert result.report.noise == ["03010201"]
        # hand-computed: 55 total bytes, 11 excluded tag bytes, 4 noise bytes
        assert result.report.metrics.coverage == sig6(40 / 55)

    def test_report_round_trips(self, tmp_path):
        trace, truth = two_type_fixture(tmp_path)
        result = pl.run(analyze_config(trace, truth))
        text = result.report.to_json()
        assert AnalysisReport.from_json(text) == result.report

    def test_metrics_null_without_truth(self, tmp_path):
        trace, _ = two_type_fixture(tmp_path)
        result = pl.run(pl.PipelineConfig(input=str(trace), format="hex"))
        doc = json.loads(result.report.to_json())
        assert doc["metrics"] is None

    def test_report_metadata_records_choices(self, tmp_path):
        trace, _ = two_type_fixture(tmp_path)
        result = pl.run(pl.PipelineConfig(input=str(trace), format="hex", limit=18))
        meta = result.report.metadata
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

    def test_retrim_iteration_cap(self, tmp_path, monkeypatch):
        # a re-trim that keeps finding smaller knees stops after 3 iterations
        calls = []

        def always_retrim(matrix, previous, clustering, epsilon_shift=0.0):
            calls.append(previous.epsilon)
            return dataclasses.replace(
                previous,
                epsilon=previous.epsilon * 0.9,
                knee_x=previous.knee_x * 0.9,
                retrimmed=True,
                retrim_count=previous.retrim_count + 1,
            )

        monkeypatch.setattr(pl.ac, "retrim_epsilon", always_retrim)
        trace, truth = two_type_fixture(tmp_path)
        result = pl.run(analyze_config(trace, truth))
        assert len(calls) == ac.MAX_RETRIMS
        assert result.report.metadata["retrim_count"] == 3
        assert result.report.metadata["retrimmed"] is True
        assert result.autoconfig.epsilon == pytest.approx(calls[0] * 0.9**3)

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

    def test_empty_analysis_exit_code(self, tmp_path, capsys):
        path = tmp_path / "tiny.hex"
        path.write_text("aabb\nccdd\n")
        code = self.run_cli("analyze", "--input", str(path), "--format", "hex")
        assert code == 2
        assert "values" in capsys.readouterr().err

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

    def test_cli_import_loads_no_scipy(self):
        src = Path(pl.__file__).resolve().parents[1]
        probe = (
            "import sys, typeclust.cli; print(sorted(m for m in sys.modules"
            " if m.startswith(('scipy.interpolate', 'scipy.sparse'))))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_dump_matrix_and_ecdf(self, tmp_path):
        trace, truth = two_type_fixture(tmp_path)
        matrix_csv = tmp_path / "matrix.csv"
        ecdf_csv = tmp_path / "ecdf.csv"
        code = self.run_cli(
            "analyze", "--input", str(trace), "--format", "hex",
            "--segmenter", "import", "--segments", str(truth),
            "--dump-matrix", str(matrix_csv), "--dump-ecdf", str(ecdf_csv),
        )
        assert code == 0
        header = matrix_csv.read_text().splitlines()
        n = len(header[0].split(","))
        assert len(header) == n + 1  # header plus one row per value
        ecdf_lines = ecdf_csv.read_text().splitlines()
        assert ecdf_lines[0] == "k,x,y_raw,y_smoothed"
        assert len(ecdf_lines) > 200

    def test_ecdf_subcommand(self, tmp_path, capsys):
        trace, truth = two_type_fixture(tmp_path)
        out = tmp_path / "curves.csv"
        code = self.run_cli(
            "ecdf", "--input", str(trace), "--format", "hex",
            "--segmenter", "import", "--segments", str(truth),
            "--out", str(out),
        )
        assert code == 0
        assert out.read_text().startswith("k,x,y_raw,y_smoothed")
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

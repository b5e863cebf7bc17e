"""typeclust benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload ntp-import --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it runs the CLI as child processes, one at a time, and
reports the end-to-end metrics. With ``--trace 1`` it runs the same two
commands in this process, in passes that alternate between untraced and
with every public typeclust function wrapped, and reports the per-layer
metrics of the fastest traced pass. Every output
is checked against computations made apart from typeclust (see checks.py);
a failed check counts as a failed operation. The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PER_ROUND = 4  # set-up processes per round, spread over the round


@dataclass(frozen=True)
class Workload:
    generate: Callable[[Path, int, int], gen.Trace]
    messages: int
    segmenter: str
    threads: int
    captures: int = 1  # independent traces per run, all analyzed in every round


WORKLOADS = {
    # Fixed 4- and 8-byte fields: the equal-length matrix blocks (two threads),
    # repeated k-NN and DBSCAN through the 60 % re-trim, and the pcap parser.
    "ntp-import": Workload(gen.write_ntp_pcap, 1000, "import", 2, captures=3),
    # Mixed value lengths: the sliding Canberra path, heuristic segmentation,
    # more clusters for the merge pass, and overlap labelling in evaluate.
    # F(1/4) moves by a tenth from one such trace to the next, so the run
    # scores eight and drops the highest and the lowest.
    "dhcp-heuristic": Workload(gen.write_dhcp_hex, 1200, "heuristic", 1, captures=8),
}


def input_args(trace: gen.Trace, segmenter: str) -> list[str]:
    args = ["--input", str(trace.path), "--format", trace.format, "--filter", trace.filter]
    if trace.limit is not None:
        args += ["--limit", str(trace.limit)]
    args += ["--segmenter", segmenter]
    if segmenter == "import":
        args += ["--segments", str(trace.truth_path)]
    return args


def analyze_argv(trace: gen.Trace, workload: Workload, report: Path) -> list[str]:
    return ["analyze", *input_args(trace, workload.segmenter),
            "--threads", str(workload.threads), "--out-json", str(report)]


def evaluate_argv(trace: gen.Trace, workload: Workload, report: Path, out: Path) -> list[str]:
    return ["evaluate", "--report", str(report), *input_args(trace, workload.segmenter),
            "--truth", str(trace.truth_path), "--out-json", str(out)]


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0

    def record(self, failures: list[str], what: str) -> bool:
        self.attempted += 1
        if failures:
            self.failed += 1
            for failure in failures:
                print(f"FAILED {what}: {failure}", file=sys.stderr)
        return not failures


@dataclass
class Capture:
    """One generated trace of a run, its expected answer and its outputs."""

    trace: gen.Trace
    expected: checks.Expected
    work: Path
    report_bytes: bytes | None = None  # first analysis's, for the determinism check
    metrics_bytes: bytes | None = None
    scored: dict | None = None


def prepare(name: str, seed: int, count: int | None = None) -> tuple[Workload, list[Capture]]:
    """Generate the run's captures (the first `count` of them, if given);
    capture k of seed s uses generator seed s*captures+k."""
    workload = WORKLOADS[name]
    work = WORK / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    captures = []
    for k in range(workload.captures if count is None else count):
        trace = workload.generate(work / f"capture{k}", seed * workload.captures + k,
                                  workload.messages)
        captures.append(Capture(trace, checks.expected_values(trace, workload.segmenter),
                                work / f"capture{k}"))
    return workload, captures


def read_json(path: Path) -> tuple[bytes, dict | None]:
    try:
        data = path.read_bytes()
        return data, json.loads(data)
    except (OSError, ValueError):
        return b"", None


# ------------------------------------------------------- end-to-end (untraced)


def run_child(argv: list[str], log: Path) -> tuple[float, float, int]:
    """(wall seconds, peak RSS in MB, exit code) of one child process.

    The peak RSS is this child's own, from wait4, not RUSAGE_CHILDREN.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def cli_child(argv: list[str], log: Path) -> tuple[float, float, list[str]]:
    wall, rss, code = run_child(["-m", "typeclust.cli", *argv], log)
    failures = [] if code == 0 else [f"exit code {code}, see {log}"]
    return wall, rss, failures


def analyze_and_evaluate(workload: Workload, cap: Capture, ops: Ops) -> tuple[float | None, float, float | None]:
    """One checked analyze and one checked evaluate child process on a capture.

    Returns the analyze wall time, its peak RSS and the evaluate wall time;
    a time is None when its operation failed.
    """
    report_path, metrics_path = cap.work / "report.json", cap.work / "metrics.json"
    report_path.unlink(missing_ok=True)
    metrics_path.unlink(missing_ok=True)
    analyze, peak, failures = cli_child(analyze_argv(cap.trace, workload, report_path),
                                        cap.work / "analyze.log")
    data, report = read_json(report_path)
    if not failures:
        failures = ["no report JSON"] if report is None else checks.check_report(report, cap.expected)
        cap.report_bytes = data if cap.report_bytes is None else cap.report_bytes
        if data != cap.report_bytes:
            failures.append("determinism: report bytes differ from the first analysis")
    if not ops.record(failures, "analyze"):
        ops.record(["analyze failed, nothing to evaluate"], "evaluate")
        return None, peak, None

    evaluate, _, failures = cli_child(
        evaluate_argv(cap.trace, workload, report_path, metrics_path), cap.work / "evaluate.log")
    data, metrics = read_json(metrics_path)
    if not failures:
        counted = checks.recount(checks.report_clusters(report), cap.expected)
        failures = checks.check_metrics(metrics, counted, "evaluate")
        cap.metrics_bytes = data if cap.metrics_bytes is None else cap.metrics_bytes
        if data != cap.metrics_bytes:
            failures.append("determinism: metrics bytes differ from the first analysis")
    if not ops.record(failures, "evaluate"):
        return analyze, peak, None
    cap.scored = metrics
    return analyze, peak, evaluate


def measure(name: str, seed: int, seconds: float) -> tuple[Ops, dict]:
    workload, captures = prepare(name, seed)
    ops = Ops()
    setup_log = captures[0].work / "setup.log"
    run_child(["-c", "import typeclust.cli"], setup_log)  # warm-up: bytecode, page cache
    setup, analyze, rss, evaluate = [], [], [], []
    # A round analyzes every capture, then the first one again, so that each
    # round repeats an analysis and checks determinism on its own.
    # The set-up processes are spread over the round, before the analyses.
    round_captures = [*captures, captures[0]]
    setups_before = Counter(len(round_captures) * j // SETUP_PER_ROUND
                            for j in range(SETUP_PER_ROUND))
    deadline = time.perf_counter() + seconds
    rounds = 0
    while not rounds or time.perf_counter() < deadline:
        rounds += 1
        for i, cap in enumerate(round_captures):
            for _ in range(setups_before[i]):
                wall, _, code = run_child(["-c", "import typeclust.cli"], setup_log)
                if ops.record([] if code == 0 else [f"set-up exit code {code}"], "setup"):
                    setup.append(wall)
            wall_a, peak, wall_e = analyze_and_evaluate(workload, cap, ops)
            if wall_a is not None:
                analyze.append(wall_a)
                rss.append(peak)
            if wall_e is not None:
                evaluate.append(wall_e)

    def median(values):
        return statistics.median(values) if values else 0.0

    def middle_mean(values):
        """Mean without the highest and the lowest value: of three, the median."""
        values = sorted(values)
        return statistics.mean(values[1:-1] if len(values) > 2 else values) if values else 0.0

    scored = [cap.scored for cap in captures if cap.scored]
    print(f"{name} seed {seed}: {rounds} rounds; analyze {analyze}; evaluate {evaluate}; "
          f"set-up {setup}; scores {scored}", file=sys.stderr)
    return ops, {
        "setup_s": (median(setup), "s"),
        "analyze_s": (median(analyze), "s"),
        "analyze_peak_rss_mb": (median(rss), "MB"),
        "evaluate_s": (median(evaluate), "s"),
        "f_score": (middle_mean([s["f_score"] for s in scored]), "ratio"),
        "coverage": (middle_mean([s["coverage"] for s in scored]), "ratio"),
    }


# ------------------------------------------------------------ per layer (traced)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _term_evals(lengths: list[int]) -> int:
    """Canberra terms the method needs: m*(M-m+1) per unordered pair, m <= M."""
    histogram = sorted(Counter(lengths).items())
    total = 0
    for i, (m, count_m) in enumerate(histogram):
        total += count_m * (count_m - 1) // 2 * m
        for big, count_big in histogram[i + 1 :]:
            total += count_m * count_big * m * (big - m + 1)
    return total


def _add(metric: str, value_of):
    def hook(tracer, args, kwargs, result):
        tracer.counts[metric] = tracer.counts.get(metric, 0) + value_of(args, kwargs, result)
    return hook


def _knn_hook(tracer, args, kwargs, result):
    tracer.counts.setdefault("knn_ks", set()).add(_arg(args, kwargs, 1, "k"))


def _evaluate_hook(tracer, args, kwargs, result):
    tracer.counts["evaluation.precision"] = result.precision
    tracer.counts["evaluation.recall"] = result.recall


def _cluster_delta(sign):
    return lambda args, kwargs, result: sign * (len(result.clusters) - len(_arg(args, kwargs, 1, "clustering").clusters))


# Only what the report JSON does not carry; the other counts are read from it.
HOOKS = {
    "autoconf.knn_dissimilarities": _knn_hook,
    "refinement.merge_pass": _add("refinement.merges", _cluster_delta(-1)),
    "refinement.split_pass": _add("refinement.splits", _cluster_delta(1)),
    "pipeline.evaluate_report": _evaluate_hook,
}

# metric -> functions it is built on; timings are layer self time
SELF_TIMES = {
    "traceio.load_s": ["traceio.load_pcap", "traceio.load_hexlines"],
    "traceio.dedup_s": ["traceio.deduplicate"],
    "segmentation.segment_s": ["segmentation.segment_heuristic", "segmentation.import_segmentation",
                               "segmentation.filter_analyzable"],
    "dissimilarity.unique_values_s": ["dissimilarity.unique_values"],
    "dissimilarity.build_matrix_s": ["dissimilarity.build_matrix"],
    "autoconf.select_epsilon_s": ["autoconf.select_epsilon"],
    "autoconf.retrim_s": ["autoconf.retrim_epsilon"],
    "autoconf.knn_s": ["autoconf.knn_dissimilarities"],
    "clustering.dbscan_s": ["clustering.dbscan"],
    "clustering.cluster_stats_s": ["clustering.cluster_stats"],
    "refinement.merge_s": ["refinement.merge_pass"],
    "refinement.split_s": ["refinement.split_pass"],
    "evaluation.evaluate_clustering_s": ["evaluation.evaluate_clustering"],
    "evaluation.label_overlap_s": ["evaluation.label_segments_by_overlap"],
    "report.build_s": ["pipeline.build_report"],
    "report.emit_s": ["report.emit_report"],
}
CALLS = {
    "autoconf.knn_calls": "autoconf.knn_dissimilarities",
    "clustering.dbscan_calls": "clustering.dbscan",
    "clustering.cluster_stats_calls": "clustering.cluster_stats",
    "refinement.link_calls": "refinement.link_segments",
}
HOOK_UNITS = {
    "refinement.merges": "count", "refinement.splits": "count",
    "evaluation.precision": "ratio", "evaluation.recall": "ratio",
}


def report_counts(report: bytes) -> dict[str, tuple[float, str]]:
    """Counts the analyze report carries: metadata, clusters and noise."""
    doc = json.loads(report)
    meta = doc["metadata"]
    values = [v for c in doc["clusters"] for v in c["values"]] + doc["noise"]
    return {
        "traceio.records": (meta["records"], "count"),
        "traceio.messages": (meta["messages"], "count"),
        "segmentation.segments": (meta["segments"], "count"),
        "segmentation.analyzable_segments": (
            meta["segments"] - meta["excluded_one_byte_segments"], "count"),
        "dissimilarity.values": (meta["unique_values"], "count"),
        "dissimilarity.term_evals": (_term_evals([len(v) // 2 for v in values]), "count"),
        "autoconf.retrims": (meta["retrim_count"], "count"),
        "clustering.clusters": (len(doc["clusters"]), "count"),
        "clustering.noise_values": (len(doc["noise"]), "count"),
        "report.json_bytes": (len(report), "bytes"),
    }


def layer_metrics(tracer: Tracer, report: bytes, overhead: float) -> dict:
    """Per-layer metrics; a metric whose functions were not found is absent."""
    own = tracer.layer_self()
    found = tracer.wrapped
    out = report_counts(report) if report else {}

    def self_time(names):
        return sum(own[s.id] for s in tracer.spans if s.name in names)

    for metric, names in SELF_TIMES.items():
        if any(n in found for n in names):
            out[metric] = (self_time(names), "s")
    for metric, name in CALLS.items():
        if name in found:
            out[metric] = (tracer.calls(name), "count")
    for metric, unit in HOOK_UNITS.items():
        if metric in tracer.counts:
            out[metric] = (tracer.counts[metric], unit)

    if "dissimilarity.values" in out:
        n = out["dissimilarity.values"][0]
        out["dissimilarity.matrix_mb"] = (n * n * 8 / 2**20, "MB")
    if "dissimilarity.term_evals" in out and out.get("dissimilarity.build_matrix_s", (0,))[0] > 0:
        out["dissimilarity.terms_per_s"] = (
            out["dissimilarity.term_evals"][0] / out["dissimilarity.build_matrix_s"][0], "1/s")
    if out.get("autoconf.knn_calls", (0,))[0] > 0:
        out["autoconf.knn_useful_ratio"] = (
            len(tracer.counts.get("knn_ks", ())) / out["autoconf.knn_calls"][0], "ratio")
    if out.get("refinement.link_calls", (0,))[0] > 0 and "refinement.merges" in out:
        out["refinement.merge_useful_ratio"] = (
            out["refinement.merges"][0] / out["refinement.link_calls"][0], "ratio")
    for layer in ("dissimilarity", "autoconf"):
        if layer in tracer.peak_mb:
            out[f"{layer}.peak_mb"] = (tracer.peak_mb[layer], "MB")

    for metric, name in (("pipeline.run_s", "pipeline.run"),
                         ("pipeline.evaluate_report_s", "pipeline.evaluate_report")):
        if name in found:
            out[metric] = (sum(s.duration for s in tracer.spans if s.name == name), "s")
    out["pipeline.self_s"] = (sum(own[s.id] for s in tracer.spans if s.layer == "pipeline"
                                  and (s.parent is None or tracer.spans[s.parent].layer != "pipeline")), "s")
    out["pipeline.tracing_overhead_s"] = (overhead, "s")
    return out


def traced(name: str, seed: int) -> tuple[Ops, dict]:
    sys.path.insert(0, str(SRC))
    from typeclust import cli

    workload, captures = prepare(name, seed, count=1)
    trace, expected, work = captures[0].trace, captures[0].expected, captures[0].work
    ops = Ops()

    def both_commands(tag: str) -> tuple[float, list[str], list[str], bytes]:
        report, metrics = work / f"{tag}.json", work / f"{tag}_metrics.json"
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code_a = cli.main(analyze_argv(trace, workload, report))
            code_e = cli.main(evaluate_argv(trace, workload, report, metrics)) if code_a == 0 else None
            wall = time.perf_counter() - start
        data, doc = read_json(report)
        fail_a = [f"analyze exit code {code_a}"] if code_a else (
            checks.check_report(doc, expected) if doc else ["no report JSON"])
        if code_e is None:
            fail_e = ["analyze failed, nothing to evaluate"]
        elif code_e:
            fail_e = [f"evaluate exit code {code_e}"]
        else:
            counted = checks.recount(checks.report_clusters(doc), expected)
            fail_e = checks.check_metrics(read_json(metrics)[1], counted, "evaluate")
        return wall, fail_a, fail_e, data

    # Untraced and traced passes alternate, starting and ending untraced, and
    # the fastest of each kind is compared, so warm-up and the host's slow
    # stretches are not counted as tracing overhead. The per-layer metrics
    # come from the fastest traced pass.
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    untraced_bytes = None
    best = None  # (wall, tracer, report bytes) of the fastest traced pass
    for tag in ("untraced", "traced", "untraced", "traced", "untraced"):
        tracer = Tracer(HOOKS)
        if tag == "traced":
            tracer.install()
        try:
            wall, fail_a, fail_e, data = both_commands(tag)
        finally:
            tracer.uninstall()
        walls[tag].append(wall)
        if tag == "traced" and (best is None or wall < best[0]):
            best = (wall, tracer, data)
        untraced_bytes = data if untraced_bytes is None else untraced_bytes
        if data != untraced_bytes:
            fail_a.append(f"{tag} report bytes differ from the first untraced run")
        ops.record(fail_a, f"{tag} analyze")
        ops.record(fail_e, f"{tag} evaluate")
    _, tracer, traced_bytes = best
    tracer.write(work / "spans.json")

    metrics = layer_metrics(tracer, traced_bytes, min(walls["traced"]) - min(walls["untraced"]))
    missing = [m for m in [*SELF_TIMES, *CALLS, *HOOK_UNITS] if m not in metrics]
    if missing:
        print(f"absent (function not found): {missing}", file=sys.stderr)
    return ops, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "typeclust" / "cli.py").is_file():
        print(f"typeclust sources not found under {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        ops, metrics = traced(args.workload, args.seed)
    else:
        ops, metrics = measure(args.workload, args.seed, args.seconds)
    for metric, (value, unit) in metrics.items():
        print(f"{metric:36s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Rebuild the baseline table of ROADMAP.md with one command.

    python3 bench/reference.py [--seed 1]

Rows are 500, 1000 and 2000 messages x segmenters (import on the NTP
trace, heuristic on the DHCP trace) x ``--threads`` 1 and 2. Each row is one
child process that generates its trace and runs ``analyze`` then ``evaluate`` in-process under
the tracer; stage times are the spans called directly by ``pipeline.run``.
The process wall time and peak RSS come from ``wait4`` of that child. This
is a reference, not a benchmark workload: it takes minutes at 2000 messages.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

from run import SRC, WORK, WORKLOADS, Workload, analyze_argv, evaluate_argv, run_child
from tracer import Tracer

STAGE_OF = {
    "pipeline.prepare_messages": "load",
    "pipeline.build_segmentation": "segment",
    "segmentation.filter_analyzable": "segment",
    "dissimilarity.unique_values": "values",
    "dissimilarity.build_matrix": "matrix",
    "autoconf.select_epsilon": "autoconf",
    "clustering.dbscan": "cluster",
    "autoconf.retrim_epsilon": "cluster",
    "refinement.merge_pass": "merge",
    "refinement.split_pass": "split",
    "evaluation.evaluate_clustering": "evaluate",
    "pipeline.build_report": "report",
    "report.emit_report": "report",
}
SIZES = (500, 1000, 2000)
STAGES = ["load", "segment", "values", "matrix", "autoconf", "cluster", "merge", "split",
          "evaluate", "report"]
GENERATORS = {w.segmenter: w.generate for w in WORKLOADS.values()}


def row(messages: int, segmenter: str, threads: int, seed: int) -> dict:
    """Stage seconds of one traced analyze, plus the evaluate command."""
    sys.path.insert(0, str(SRC))
    from typeclust import cli

    workload = Workload(GENERATORS[segmenter], messages, segmenter, threads)
    work = WORK / f"reference-{segmenter}-{messages}-{threads}"
    trace = workload.generate(work, seed, messages)
    report, metrics = work / "report.json", work / "metrics.json"
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(analyze_argv(trace, workload, report)),
                     cli.main(evaluate_argv(trace, workload, report, metrics))]
    finally:
        tracer.uninstall()
    if any(codes):
        raise SystemExit(f"typeclust exited with {codes}; logs in {work}")
    run_span = next(s for s in tracer.spans if s.name == "pipeline.run")
    out = dict.fromkeys(STAGES, 0.0)
    for span in tracer.spans:
        if span.parent == run_span.id and span.name in STAGE_OF:
            out[STAGE_OF[span.name]] += span.duration
    out["analyze"] = run_span.duration
    out["evaluate_cmd"] = sum(s.duration for s in tracer.spans if s.name == "pipeline.evaluate_report")
    out["n"] = json.loads(report.read_text())["metadata"]["unique_values"]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--row", nargs=3, metavar=("MESSAGES", "SEGMENTER", "THREADS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.row:
        messages, segmenter, threads = int(args.row[0]), args.row[1], int(args.row[2])
        print(json.dumps(row(messages, segmenter, threads, args.seed)))
        return 0

    columns = ["n", *STAGES, "analyze", "evaluate_cmd"]
    print("| messages | segmenter | threads | " + " | ".join(columns) + " | process | peak RSS |")
    print("|---" * (len(columns) + 5) + "|")
    WORK.mkdir(exist_ok=True)
    for messages in SIZES:
        for segmenter in ("import", "heuristic"):
            for threads in (1, 2):
                log = WORK / f"reference-{segmenter}-{messages}-{threads}.log"
                wall, rss, code = run_child(
                    [str(Path(__file__)), "--row", str(messages), segmenter, str(threads),
                     "--seed", str(args.seed)], log)
                if code:
                    print(f"row failed with exit code {code}, see {log}", file=sys.stderr)
                    return 1
                result = json.loads(log.read_text().splitlines()[-1])
                cells = [str(result["n"])] + [f"{result[c]:.2f} s" for c in columns[1:]]
                print(f"| {messages} | {segmenter} | {threads} | " + " | ".join(cells)
                      + f" | {wall:.1f} s | {rss:.0f} MB |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

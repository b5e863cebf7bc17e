"""Command-line interface: analyze, evaluate, and ecdf subcommands."""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import autoconf as ac
from . import pipeline as pl
from .errors import AnalysisError, EmptyAnalysisError, PipelineStageError
from .report import read_report, render_table

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EMPTY_ANALYSIS = 2


def _add_input_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="trace file to analyze")
    parser.add_argument("--format", choices=("pcap", "hex"), default="hex")
    parser.add_argument(
        "--filter",
        default="raw",
        help="udp:<port>, tcp:<port> or raw (pcap only; hex input is always raw)",
    )
    parser.add_argument(
        "--limit", type=int, default=None, help="truncate to N messages after dedup"
    )


def _add_segmenter_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--segmenter", choices=("heuristic", "import"), default="heuristic")
    parser.add_argument("--segments", default=None, help="segmentation JSON for --segmenter import")


def _add_autoconf_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kneedle-s", type=float, default=ac.DEFAULT_SENSITIVITY,
                        help="Kneedle sensitivity")
    parser.add_argument("--spline-s", type=float, default=ac.DEFAULT_SMOOTHING,
                        help="spline smoothing per fitted point")
    parser.add_argument("--epsilon-shift", type=float, default=0.0,
                        help="offset added to the detected knee")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="typeclust",
        description="Cluster binary protocol message segments into pseudo data types.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="run the full pipeline on a trace")
    _add_input_args(analyze)
    _add_segmenter_args(analyze)
    _add_autoconf_args(analyze)
    analyze.add_argument("--no-refine", action="store_true", help="skip cluster refinement")
    analyze.add_argument("--dump-matrix", default=None, help="write the dissimilarity matrix CSV")
    analyze.add_argument("--dump-ecdf", default=None, help="write k-NN ECDF diagnostics CSV")
    analyze.add_argument("--out-json", default=None, help="write the JSON report")
    analyze.add_argument("--out-table", default=None, help="write the text summary table")
    analyze.add_argument("--threads", type=int, default=1,
                         help="upper bound on matrix-build workers")

    evaluate = commands.add_parser(
        "evaluate", help="score an analysis report against a ground-truth segmentation"
    )
    evaluate.add_argument("--report", required=True, help="JSON report from analyze")
    _add_input_args(evaluate)
    _add_segmenter_args(evaluate)
    evaluate.add_argument("--truth", required=True, help="ground-truth segmentation JSON")
    evaluate.add_argument("--out-json", default=None, help="write metrics JSON")

    ecdf = commands.add_parser("ecdf", help="dump k-NN ECDF diagnostics for a trace")
    _add_input_args(ecdf)
    _add_segmenter_args(ecdf)
    ecdf.add_argument("--spline-s", type=float, default=ac.DEFAULT_SMOOTHING)
    ecdf.add_argument("--out", required=True, help="CSV output path")

    return parser


def _config_from_args(args: argparse.Namespace) -> pl.PipelineConfig:
    return pl.PipelineConfig(
        input=args.input,
        format=args.format,
        filter=args.filter,
        limit=args.limit,
        segmenter=args.segmenter,
        segments_path=args.segments,
        refine=not getattr(args, "no_refine", False),
        kneedle_sensitivity=getattr(args, "kneedle_s", ac.DEFAULT_SENSITIVITY),
        spline_smoothing=getattr(args, "spline_s", ac.DEFAULT_SMOOTHING),
        epsilon_shift=getattr(args, "epsilon_shift", 0.0),
        dump_matrix=getattr(args, "dump_matrix", None),
        dump_ecdf=getattr(args, "dump_ecdf", None),
        out_json=getattr(args, "out_json", None),
        out_table=getattr(args, "out_table", None),
        threads=getattr(args, "threads", 1),
    )


def _run_analyze(args: argparse.Namespace) -> int:
    result = pl.run(_config_from_args(args))
    sys.stdout.write(render_table(result.report))
    return EXIT_OK


def _run_evaluate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    metrics = pl.evaluate_report(read_report(args.report), config, args.truth)
    rounded = pl.round_metrics(metrics)
    if args.out_json:
        with open(args.out_json, "w", encoding="utf-8") as handle:
            json.dump(rounded.__dict__, handle, indent=2)
            handle.write("\n")
    sys.stdout.write(
        f"tp={rounded.tp} fp={rounded.fp} fn={rounded.fn} "
        f"precision={rounded.precision:.6g} recall={rounded.recall:.6g} "
        f"f_{rounded.beta:g}={rounded.f_score:.6g} coverage={rounded.coverage:.6g}\n"
    )
    return EXIT_OK


def _run_ecdf(args: argparse.Namespace) -> int:
    n = pl.run_ecdf(_config_from_args(args), args.out)
    sys.stdout.write(f"wrote ECDF diagnostics for n={n} values to {args.out}\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    handlers = {"analyze": _run_analyze, "evaluate": _run_evaluate, "ecdf": _run_ecdf}
    try:
        return handlers[args.command](args)
    except PipelineStageError as err:
        sys.stderr.write(f"error in stage {err.stage}: {err.original}\n")
        if isinstance(err.original, EmptyAnalysisError):
            return EXIT_EMPTY_ANALYSIS
        return EXIT_ERROR
    except EmptyAnalysisError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_EMPTY_ANALYSIS
    except (AnalysisError, OSError, ValueError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: analyze, evaluate, and ecdf subcommands."""

from __future__ import annotations

import argparse
import gc
import logging
import os
import sys
from pathlib import Path

# The one BLAS call, a least-squares fit on an m x 4 design in smooth_spline,
# gains nothing from threads, and starting an OpenBLAS pool cost each process
# 65-75 ms of CPU on a 2-vCPU host. The setting must precede numpy's first
# import; a caller that set the variable, or imported numpy first, keeps its pool.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import pipeline as pl
from .dissimilarity import _CHUNK_CELLS, write_matrix_csv
from .errors import (AnalysisError, EmptyAnalysisError, InsufficientMemoryError,
                     OutOfMemoryError, PipelineStageError)
from .report import emit_report, read_report, render_table, to_json, writing

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EMPTY_ANALYSIS = 2
EXIT_OUT_OF_MEMORY = 3

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MALLOC_ENVIRONMENT = ("MALLOC_ARENA_MAX", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


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
    analyze.add_argument("--no-refine", action="store_true", help="skip cluster refinement")
    analyze.add_argument("--dump-matrix", default=None, help="write the dissimilarity matrix CSV")
    analyze.add_argument("--out-json", default=None, help="write the JSON report")
    analyze.add_argument("--out-table", default=None, help="write the text summary table")
    analyze.add_argument("--threads", type=int, default=1,
                         help="upper bound on matrix-build workers, capped at the CPU count")

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
    ecdf.add_argument("--out", required=True, help="CSV output path")

    return parser


def _config_from_args(args: argparse.Namespace) -> pl.PipelineConfig:
    if args.segmenter == "import" and not args.segments:
        raise ValueError("--segments is required with the import segmenter")
    if args.segmenter == "heuristic" and args.segments is not None:
        raise ValueError("--segments applies only to --segmenter import")
    return pl.PipelineConfig(
        input=args.input,
        format=args.format,
        filter=args.filter,
        limit=args.limit,
        segments_path=args.segments,
        refine=not getattr(args, "no_refine", False),
        threads=getattr(args, "threads", 1),
    )


def _run_analyze(args: argparse.Namespace, config: pl.PipelineConfig) -> int:
    result = pl.run(config)
    if args.dump_matrix:
        with writing("matrix CSV", args.dump_matrix):
            write_matrix_csv(result.matrix, args.dump_matrix)
    emit_report(result.report, args.out_json, args.out_table)
    sys.stdout.write(render_table(result.report))
    return EXIT_OK


def _run_evaluate(args: argparse.Namespace, config: pl.PipelineConfig) -> int:
    metrics = pl.evaluate_report(read_report(args.report), config, args.truth)
    rounded = pl.round_metrics(metrics)
    if args.out_json:
        with writing("metrics JSON", args.out_json):
            Path(args.out_json).write_text(to_json(rounded), encoding="utf-8")
    sys.stdout.write(
        "tp={tp} fp={fp} fn={fn} precision={precision:.6g} recall={recall:.6g} "
        "f_{beta:g}={f_score:.6g} coverage={coverage:.6g}\n".format_map(rounded)
    )
    return EXIT_OK


def _run_ecdf(args: argparse.Namespace, config: pl.PipelineConfig) -> int:
    n, curves = pl.run_ecdf(config)
    with writing("ECDF CSV", args.out), open(args.out, "w", encoding="ascii") as out:
        out.write("k,x,y_raw,y_smoothed\n")
        for k, *columns in curves:  # one curve's floats at a time
            line = f"{k},%.6g,%.6g,%.6g\n"
            out.writelines(line % row for row in zip(*(column.tolist() for column in columns)))
    sys.stdout.write(f"wrote ECDF diagnostics for n={n} values to {args.out}\n")
    return EXIT_OK


def _fix_malloc_policy() -> None:
    """Fix glibc's malloc thresholds and arena count, unless the environment chose them.

    glibc raises its mmap threshold to the size of each mapped block it
    frees and trims the heap above twice that, so which of a chunk loop's
    temporaries return to the kernel, to be faulted in again on the next
    chunk, depends on what the run freed before. Fixed at two chunks of
    float64 (mapping) and eight (trimming), a chunk's temporaries stay in
    the heap. Setting either threshold stops glibc adjusting both and leaves
    the other at its low default, so both are set. One arena keeps a build
    worker's temporaries in the heap the calling thread reuses. A libc
    without ``mallopt`` is left as it is.
    """
    if any(name in os.environ for name in _MALLOC_ENVIRONMENT) or (
            "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return
    import ctypes  # here, so importing the CLI does not load it

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no such symbol, or no process handle
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    chunk = 8 * _CHUNK_CELLS
    for param, value in ((_M_ARENA_MAX, 1), (_M_MMAP_THRESHOLD, 2 * chunk),
                         (_M_TRIM_THRESHOLD, 8 * chunk)):
        mallopt(param, value)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exit_:
        # argparse exits 2 on a usage error, which would read as "too few
        # values"; --help exits 0
        return EXIT_OK if exit_.code == 0 else EXIT_ERROR
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    handlers = {"analyze": _run_analyze, "evaluate": _run_evaluate, "ecdf": _run_ecdf}
    try:
        config = _config_from_args(args)
    except ValueError as err:  # a flag the config rejects; a ValueError later is a defect
        sys.stderr.write(f"error: {err}\n")
        return EXIT_ERROR
    try:
        return handlers[args.command](args, config)
    except PipelineStageError as err:
        sys.stderr.write(f"error in stage {err.stage}: {err.original}\n")
        if isinstance(err.original, EmptyAnalysisError):
            return EXIT_EMPTY_ANALYSIS
        # the guard's refusal, or an allocation that failed inside the stage
        if isinstance(err.original, (InsufficientMemoryError, OutOfMemoryError)):
            return EXIT_OUT_OF_MEMORY
        return EXIT_ERROR
    except (AnalysisError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_ERROR


def entry(argv: list[str] | None = None) -> int:
    """The process entry point: ``main`` under the command line's process policy.

    Fixes the malloc policy, then freezes the collector's view of every
    object the imports left alive: they move to the permanent generation,
    so the command's collections, and the interpreter's at exit, walk only
    what the command itself created. No import-time object is garbage, so
    the freeze keeps nothing alive that a collection would free. ``main``
    itself leaves the allocator and the collector alone, so a caller that
    runs commands in its own process keeps its policy.
    """
    _fix_malloc_policy()
    gc.freeze()
    return main(argv)


if __name__ == "__main__":
    sys.exit(entry())

"""Byte identity of every output on the first bench capture of each workload.

``report_digests.json`` holds the SHA-256 of the ``analyze --out-json``
reports at ``--threads`` 1 and 2, the ``--out-table`` table of the
``--threads`` 1 run, the ``--no-refine`` report, the ``ecdf`` CSV, and the
``evaluate --out-json`` metrics and ``evaluate`` stdout line of two
generated captures: NTP generator seed 3 (1,000 messages, imported
segmentation) and DHCP generator seed 8 (1,200 messages, heuristic
segmenter), the first capture of each bench workload at bench seed 1. It
also holds the ``--threads`` 1 report and table, the ``ecdf`` CSV and the
``evaluate`` metrics and stdout of the Hadamard traces of 8 and 16
messages, whose k-NN curves are flat: they cover the fallback epsilon and
the failed re-trim, which the bench captures never reach. Of a 150-message
capture of DHCP generator seed 8 (heuristic segmenter, 490 values of
mixed lengths) it holds the ``--threads`` 1 report and the
``--dump-matrix`` CSV, the one output written in value order from the
matrix's length-sorted storage. The captures are written with relative
paths, because a report records the path of its input. A change that
moves a byte of any output fails here.
Rebuild the manifest with

    python3 tests/test_report_digests.py --write

and list every digest that changed, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import gen  # noqa: E402
from fixtures import hadamard_fixture  # noqa: E402

MANIFEST = Path(__file__).with_name("report_digests.json")


# the outputs hashed besides the --threads 1 report
EVERY = frozenset({"threads2", "no-refine", "table", "ecdf", "evaluate"})
FLAT = frozenset({"table", "ecdf", "evaluate"})
MATRIX = frozenset({"matrix"})


def bench_capture(generate, seed: int, messages: int, segmenter: str, outputs=EVERY):
    """A capture as bench/run.py generates its workloads, with the named outputs."""
    def write(directory: Path) -> tuple[list[str], Path, frozenset]:
        trace = generate(directory, seed, messages)
        args = ["--input", str(trace.path), "--format", trace.format, "--filter", trace.filter,
                "--segmenter", segmenter]
        if trace.limit is not None:
            args += ["--limit", str(trace.limit)]
        if segmenter == "import":
            args += ["--segments", str(trace.truth_path)]
        return args, trace.truth_path, outputs
    return write


def hadamard_capture(order: int):
    """The Hadamard trace of `order` messages, without the thread and no-refine variants."""
    def write(directory: Path) -> tuple[list[str], Path, frozenset]:
        trace, truth = hadamard_fixture(directory, order)
        args = ["--input", str(trace), "--format", "hex", "--segmenter", "import",
                "--segments", str(truth)]
        return args, truth, FLAT
    return write


# name -> capture writer; the first two are the bench workloads at bench seed 1
CAPTURES = {
    "ntp-import": bench_capture(gen.write_ntp_pcap, 3, 1000, "import"),
    "dhcp-heuristic": bench_capture(gen.write_dhcp_hex, 8, 1200, "heuristic"),
    "hadamard-8": hadamard_capture(8),  # 8-point curves, below Kneedle's minimum
    "hadamard-16": hadamard_capture(16),
    "dhcp-150": bench_capture(gen.write_dhcp_hex, 8, 150, "heuristic", MATRIX),
}


def versions() -> dict[str, str]:
    """The interpreter and numpy versions, which the digests were taken under."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def commands(name: str) -> tuple[dict[str, list[str]], list[str]]:
    """Writes capture ``name`` into the working directory and returns its commands.

    The map gives each command's argv by the output its last argument names;
    the list, the other outputs the first command writes.
    """
    args, truth, outputs = CAPTURES[name](Path(name))
    report, table = f"{name}/analyze-threads1.json", f"{name}/analyze-threads1.txt"
    matrix, evaluate = f"{name}/matrix.csv", f"{name}/evaluate.json"
    analyze = ["analyze", *args, "--threads", "1"]
    also = []
    if "table" in outputs:
        analyze += ["--out-table", table]
        also.append(table)
    if "matrix" in outputs:
        analyze += ["--dump-matrix", matrix]
        also.append(matrix)
    argvs = {report: [*analyze, "--out-json", report]}
    if "threads2" in outputs:
        output = f"{name}/analyze-threads2.json"
        argvs[output] = ["analyze", *args, "--threads", "2", "--out-json", output]
    if "no-refine" in outputs:
        output = f"{name}/no-refine.json"
        argvs[output] = ["analyze", *args, "--no-refine", "--out-json", output]
    if "ecdf" in outputs:
        output = f"{name}/ecdf.csv"
        argvs[output] = ["ecdf", *args, "--out", output]
    if "evaluate" in outputs:
        argvs[evaluate] = ["evaluate", "--report", report, *args, "--truth", str(truth),
                           "--out-json", evaluate]
    return argvs, also


def digests() -> dict[str, str]:
    """SHA-256 of every output, by relative path; generates and runs in the working directory."""
    from typeclust import cli

    found = {}
    for name in CAPTURES:
        argvs, also = commands(name)
        for output, argv in argvs.items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"typeclust {' '.join(argv)} exited with code {code}")
            found[output] = sha256(Path(output).read_bytes())
            if argv[0] == "evaluate":
                found[f"{name}/evaluate.stdout"] = sha256(stdout.getvalue().encode("utf-8"))
        found.update((path, sha256(Path(path).read_bytes())) for path in also)
    return found


def test_outputs_match_the_manifest(tmp_path, monkeypatch):
    manifest = json.loads(MANIFEST.read_text(encoding="ascii"))
    recorded = {key: manifest[key] for key in versions()}
    assert recorded == versions(), (
        f"the digests were recorded under {recorded} and this is {versions()}; "
        "rebuild them with --write and list the changed digests in CHANGES.md"
    )
    monkeypatch.chdir(tmp_path)
    assert digests() == manifest["digests"]


@pytest.mark.parametrize("name", ["ntp-import", "dhcp-heuristic"])
def test_cli_processes_match_the_manifest(tmp_path, monkeypatch, name):
    # pytest imported numpy before typeclust, so the in-process digests run on
    # the caller's BLAS threads; a `python -m typeclust.cli` child takes one
    from conftest import child_env  # imports typeclust, which --write finds only later

    manifest = json.loads(MANIFEST.read_text(encoding="ascii"))
    monkeypatch.chdir(tmp_path)
    argvs, also = commands(name)
    env = {k: v for k, v in child_env().items() if k != "OPENBLAS_NUM_THREADS"}
    found = {}
    for output in (f"{name}/analyze-threads1.json", f"{name}/ecdf.csv"):
        subprocess.run([sys.executable, "-m", "typeclust.cli", *argvs[output]], env=env,
                       check=True, capture_output=True)
        found[output] = sha256(Path(output).read_bytes())
    found.update((path, sha256(Path(path).read_bytes())) for path in also)
    assert found == {key: manifest["digests"][key] for key in found}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python3 {sys.argv[0]} --write")
    sys.path.insert(0, str(ROOT / "src"))
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            written = digests()
        finally:
            os.chdir(home)
    MANIFEST.write_text(json.dumps({**versions(), "digests": written}, indent=2) + "\n",
                        encoding="ascii")
    print(f"wrote {len(written)} digests to {MANIFEST}")

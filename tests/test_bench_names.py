"""The package functions the bench reads its per-layer metrics from exist.

``bench/tracer.py`` wraps functions by name, and a name it cannot find
only makes a metric absent. This test turns a rename into a failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import reference  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_every_function_the_bench_reads_is_wrapped():
    tracer = Tracer(run.HOOKS)
    tracer.install()
    tracer.uninstall()
    names = {name for names in run.SELF_TIMES.values() for name in names}
    names |= set(run.CALLS.values()) | set(run.HOOKS) | set(reference.STAGE_OF)
    assert sorted(names - tracer.wrapped) == []

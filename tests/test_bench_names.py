"""The package functions the bench reads its per-layer metrics from exist,
and the stage functions stay direct callees of ``pipeline.run``.

``bench/tracer.py`` wraps functions by name, and a name it cannot find
only makes a metric absent; ``bench/reference.py`` times a stage by the
spans whose parent is ``pipeline.run``, and a public function put between
them only makes a stage read 0. These tests turn either into a failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import reference  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

from fixtures import two_type_fixture  # noqa: E402
from typeclust import pipeline as pl  # noqa: E402


def test_every_function_the_bench_reads_is_wrapped():
    tracer = Tracer(run.HOOKS)
    tracer.install()
    tracer.uninstall()
    names = {name for names in run.SELF_TIMES.values() for name in names}
    names |= set(run.CALLS.values()) | set(run.HOOKS) | set(reference.STAGE_OF)
    assert sorted(names - tracer.wrapped) == []


@pytest.mark.parametrize("imported", [True, False], ids=["import", "heuristic"])
def test_stage_functions_are_called_by_run(tmp_path, imported):
    trace, truth = two_type_fixture(tmp_path)
    config = pl.PipelineConfig(input=str(trace), segments_path=str(truth) if imported else None)
    tracer = Tracer()
    tracer.install()
    try:
        pl.run(config)
    finally:
        tracer.uninstall()
    run_span = next(s for s in tracer.spans if s.name == "pipeline.run")
    staged = [s for s in tracer.spans if s.name in reference.STAGE_OF]
    assert [s.name for s in staged if s.parent != run_span.id] == []
    stages = {reference.STAGE_OF[s.name] for s in staged}
    expected = {"load", "segment", "values", "matrix", "autoconf", "cluster", "report"}
    assert stages >= expected | ({"evaluate"} if imported else set())

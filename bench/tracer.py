"""Spans and counts around the public functions of every typeclust module.

The tracer wraps functions from outside: it rebinds each public function of
each ``typeclust`` module, in every module namespace that holds it, to a
wrapper that records a span (name, start, end, parent) and, for some
functions, counts taken from the arguments and the result. Spans stay in
memory until :meth:`Tracer.write` dumps them. A function that no longer
exists is simply not wrapped, so the metrics built on it come out absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

# Called once per byte or per float; a span each would time the tracer.
SKIP = {"segmentation.texture_class", "report.sig6"}
# Report assembly lives in pipeline.py but belongs to the report layer.
LAYER_OF = {"pipeline.build_report": "report"}
# Layers whose tracemalloc peak is reported as <layer>.peak_mb.
PEAK_LAYERS = {"dissimilarity", "autoconf"}


def layer_of(name: str) -> str:
    return LAYER_OF.get(name, name.split(".", 1)[0])


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return layer_of(self.name)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Install with :meth:`install`, run the pipeline, then :meth:`uninstall`."""

    def __init__(self, hooks=None):
        # hooks: span name -> fn(tracer, args, kwargs, result) run after the call
        self.hooks = hooks or {}
        self.spans: list[Span] = []
        self.counts: dict[str, object] = {}
        self.peak_mb: dict[str, float] = {}
        self.wrapped: set[str] = set()
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import typeclust

        modules = [typeclust] + [
            importlib.import_module(f"typeclust.{info.name}")
            for info in pkgutil.iter_modules(typeclust.__path__)
        ]
        wrappers = {}
        for module in modules[1:]:
            short = module.__name__.rsplit(".", 1)[1]
            for name, obj in vars(module).items():
                qualified = f"{short}.{name}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and qualified not in SKIP
                ):
                    wrappers[obj] = self._wrap(qualified, obj)
                    self.wrapped.add(qualified)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._restore):
            setattr(module, name, obj)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        hook = self.hooks.get(name)
        layer = layer_of(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            measure_peak = layer in PEAK_LAYERS and not any(s.layer == layer for s in self._stack)
            if measure_peak:
                tracemalloc.start()
            span = Span(len(self.spans), name, parent.id if parent else None, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if measure_peak:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peak_mb[layer] = max(self.peak_mb.get(layer, 0.0), peak)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([vars(s) for s in self.spans]) + "\n")

    # ------------------------------------------------------------ analysis

    def layer_self(self) -> dict[int, float]:
        """Per span: its duration minus the time of descendant spans of other
        layers (the nearest such descendants, which cover the rest)."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        foreign: dict[int, float] = {}
        for span in reversed(self.spans):  # children always follow their parent
            foreign[span.id] = sum(
                c.duration if c.layer != span.layer else foreign[c.id]
                for c in children.get(span.id, ())
            )
        return {s.id: s.duration - foreign[s.id] for s in self.spans}

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

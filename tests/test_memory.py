"""The memory probe and the guard before the matrix is allocated.

The guard is tested by patching the probe: no test allocates memory to
find out how much there is.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from conftest import traced_peak, values_of
from typeclust import memory
from typeclust.dissimilarity import build_matrix
from typeclust.errors import AnalysisError, InsufficientMemoryError

MEMINFO = "MemTotal:       16000000 kB\nMemFree:         1000000 kB\nMemAvailable:    8000000 kB\n"


def fake_host(tmp_path: Path, cgroup: str, files: dict[str, str], meminfo=MEMINFO) -> tuple:
    """A /proc and a /sys/fs/cgroup with the given files; returns (proc, cgroups)."""
    proc, cgroups = tmp_path / "proc", tmp_path / "cgroup"
    (proc / "self").mkdir(parents=True)
    if meminfo is not None:
        (proc / "meminfo").write_text(meminfo)
    (proc / "self" / "cgroup").write_text(cgroup)
    for name, text in files.items():
        path = cgroups / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return proc, cgroups


class TestProbe:
    def test_cgroup_v2_headroom_caps_mem_available(self, tmp_path):
        proc, cgroups = fake_host(tmp_path, "0::/job/7\n", {
            "job/7/memory.max": "2147483648\n", "job/7/memory.current": "1073741824\n"})
        assert memory.available_memory(proc, cgroups) == 1 << 30

    def test_cgroup_v1_headroom_caps_mem_available(self, tmp_path):
        proc, cgroups = fake_host(
            tmp_path, "5:devices:/\n4:memory:/process_api/abc\n3:cpuset:/jobs\n0::/\n", {
                "memory/process_api/abc/memory.limit_in_bytes": "3000000000\n",
                "memory/process_api/abc/memory.usage_in_bytes": "1000000000\n"})
        assert memory.available_memory(proc, cgroups) == 2_000_000_000

    def test_an_unlimited_cgroup_leaves_mem_available(self, tmp_path):
        proc, cgroups = fake_host(tmp_path, "0::/job\n", {
            "job/memory.max": "max\n", "job/memory.current": "1073741824\n"})
        assert memory.available_memory(proc, cgroups) == 8_000_000 * 1024

    def test_a_large_cgroup_limit_leaves_mem_available(self, tmp_path):
        # cgroup v1 writes "no limit" as the largest page-aligned int64
        proc, cgroups = fake_host(tmp_path, "4:memory:/\n", {
            "memory/memory.limit_in_bytes": "9223372036854771712\n",
            "memory/memory.usage_in_bytes": "157921280\n"})
        assert memory.available_memory(proc, cgroups) == 8_000_000 * 1024

    def test_a_cgroup_alone_decides_without_meminfo(self, tmp_path):
        proc, cgroups = fake_host(tmp_path, "0::/\n", {
            "memory.max": "1000\n", "memory.current": "400\n"}, meminfo=None)
        assert memory.available_memory(proc, cgroups) == 600

    def test_nothing_readable_means_no_limit(self, tmp_path):
        # a cgroup named but not mounted, and no meminfo
        proc, cgroups = fake_host(tmp_path, "4:memory:/gone\n0::/gone\n", {}, meminfo=None)
        assert memory.available_memory(proc, cgroups) is None
        assert memory.available_memory(tmp_path / "absent", tmp_path / "absent") is None

    def test_this_host_reads_a_positive_figure_or_nothing(self):
        available = memory.available_memory()
        assert available is None or available > 0


class TestGuard:
    def test_a_matrix_that_does_not_fit_is_refused_before_it_is_built(self, monkeypatch):
        built = []
        monkeypatch.setattr(memory, "available_memory", lambda: 4096)
        monkeypatch.setattr("typeclust.dissimilarity._chunk", lambda *args: built.append(args))
        values = values_of([bytes([i, 255 - i, i]) for i in range(40)])
        with pytest.raises(InsufficientMemoryError) as caught:
            build_matrix(values)
        assert isinstance(caught.value, AnalysisError)
        assert built == []
        message = str(caught.value)
        assert message.startswith("40 unique values need ") and message.endswith(
            " MiB for the dissimilarity matrix, 0.0 MiB available")

    @pytest.mark.parametrize("available", [None, 1 << 40])
    def test_enough_memory_or_no_figure_builds(self, monkeypatch, available):
        monkeypatch.setattr(memory, "available_memory", lambda: available)
        assert build_matrix(values_of([b"ab", b"cd", b"ef"])).n == 3

    def test_the_estimate_covers_the_store(self, monkeypatch):
        asked = []
        monkeypatch.setattr("typeclust.dissimilarity.require_memory",
                            lambda n, needed: asked.append(needed))
        n = 300
        build_matrix(values_of([bytes([i // 256, i % 256, 7]) for i in range(n)]))
        assert asked and asked[-1] >= 8 * (n * (n - 1) // 2 + 1)

    @pytest.mark.parametrize("symbols, threads", [(2, 1), (256, 1), (2, 2), (256, 2)],
                             ids=["repeated-windows", "distinct-windows", "2-workers-repeated",
                                  "2-workers-distinct"])
    def test_the_estimate_covers_the_window_temporaries(self, monkeypatch, symbols, threads):
        # the 2-byte windows of four 3,000-byte values and of 150 24-byte
        # values, about 15 k, outweigh a store of 194 values: what the build
        # allocates, the windows and their sums included, stays within the
        # estimate, with two workers' chunks at once too. The 24-byte values'
        # chunks follow the 2-byte rows'
        asked = []
        monkeypatch.setattr("typeclust.dissimilarity.require_memory",
                            lambda n, needed: asked.append(needed))
        monkeypatch.setattr("typeclust.dissimilarity._cpus", lambda: 2)
        rng = np.random.default_rng(7)
        contents = [bytes([i, 255 - i]) for i in range(40)]
        contents += [bytes(rng.integers(0, symbols, size=3000).tolist()) for _ in range(4)]
        while len(contents) < 194:
            value = bytes(rng.integers(0, symbols, size=24).tolist())
            if value not in contents:
                contents.append(value)
        _, peak = traced_peak(build_matrix, values_of(contents), threads)
        n = len(contents)
        assert peak > 10 * 8 * (n * (n - 1) // 2 + 1)
        assert asked and asked[-1] >= peak

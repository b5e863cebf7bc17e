"""The memory this process may still allocate, checked before a large allocation."""

from __future__ import annotations

from pathlib import Path

from .errors import InsufficientMemoryError


def _headroom(directory: Path, limit: str, usage: str) -> int | None:
    """A cgroup's limit minus its usage, in bytes; None without a limit or a readable file."""
    try:
        cap = (directory / limit).read_text().strip()
        return None if cap == "max" else int(cap) - int((directory / usage).read_text())
    except (OSError, ValueError):
        return None


def available_memory(proc: Path = Path("/proc"),
                     cgroups: Path = Path("/sys/fs/cgroup")) -> int | None:
    """Bytes this process may still allocate, or None when nothing can be read.

    The least of ``MemAvailable`` in ``proc/meminfo`` and the headroom of
    each memory cgroup that ``proc/self/cgroup`` names: ``memory.max`` minus
    ``memory.current`` under cgroup v2, ``memory.limit_in_bytes`` minus
    ``memory.usage_in_bytes`` under v1 (mounted at ``cgroups/memory``).
    """
    figures = []
    try:
        figures += [int(line.split()[1]) * 1024
                    for line in (proc / "meminfo").read_text().splitlines()
                    if line.startswith("MemAvailable:")]
    except (OSError, ValueError, IndexError):
        pass
    try:
        lines = (proc / "self" / "cgroup").read_text().splitlines()
    except OSError:
        lines = []
    for line in lines:  # hierarchy-id:controllers:path
        _, controllers, path = line.split(":", 2)
        if not controllers:
            figures.append(_headroom(cgroups / path.lstrip("/"), "memory.max", "memory.current"))
        elif "memory" in controllers.split(","):
            figures.append(_headroom(cgroups / "memory" / path.lstrip("/"),
                                     "memory.limit_in_bytes", "memory.usage_in_bytes"))
    figures = [figure for figure in figures if figure is not None]
    return min(figures) if figures else None


def require_memory(values: int, needed: int) -> None:
    """Raise InsufficientMemoryError if ``needed`` bytes for ``values`` values are not available."""
    available = available_memory()
    if available is not None and needed > available:
        raise InsufficientMemoryError(values, needed, available)

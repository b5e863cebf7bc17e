"""Shared fixture builders: synthetic pcaps, traces, and matrices."""

from __future__ import annotations

import gc
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import squareform

import typeclust
from typeclust.clustering import Cluster, Clustering, dbscan
from typeclust.dissimilarity import DissimilarityMatrix, Values
from typeclust.segmentation import Segmentation


def child_env() -> dict[str, str]:
    """The environment of a child interpreter that imports this checkout's typeclust."""
    src = Path(typeclust.__file__).resolve().parents[1]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}


def build_pcap(
    payload_specs,
    little_endian: bool = False,
    network: int = 1,
) -> bytes:
    """Assemble a classic pcap with one Ethernet/IPv4 packet per spec.

    Each spec is (transport, sport, dport, payload) with transport "udp" or
    "tcp", or ("rawdata", bytes) for opaque packet data.
    """
    endian = "<" if little_endian else ">"
    out = bytearray(struct.pack(endian + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, network))
    for index, spec in enumerate(payload_specs):
        if spec[0] == "rawdata":
            packet = spec[1]
        else:
            transport, sport, dport, payload = spec
            packet = build_ethernet_packet(transport, sport, dport, payload)
        out += struct.pack(endian + "IIII", 1_600_000_000 + index, 0, len(packet), len(packet))
        out += packet
    return bytes(out)


def build_ethernet_packet(
    transport: str, sport: int, dport: int, payload: bytes, fragmented: bool = False,
    fragment_offset: int = 0,
) -> bytes:
    """One Ethernet/IPv4 packet; ``fragmented`` sets more-fragments, and a
    ``fragment_offset`` (in 8-byte units) makes it a later fragment."""
    if transport == "udp":
        seg = struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload
        proto = 17
    elif transport == "tcp":
        seg = struct.pack(">HHIIBBHHH", sport, dport, 1, 1, 5 << 4, 0x18, 8192, 0, 0) + payload
        proto = 6
    else:
        raise ValueError(transport)
    total = 20 + len(seg)
    flags_frag = (0x2000 if fragmented else 0) | fragment_offset
    ip = struct.pack(
        ">BBHHHBBHII", 0x45, 0, total, 1, flags_frag, 64, proto, 0, 0x0A000001, 0x0A000002
    ) + seg
    eth = b"\xaa" * 6 + b"\xbb" * 6 + struct.pack(">H", 0x0800)
    return eth + ip


def values_of(contents, counts=None) -> Values:
    """Values of distinct byte contents, each occurring ``counts[v]`` times
    (default once), whose segments are numbered consecutively in value order."""
    counts = np.ones(len(contents), dtype=np.int64) if counts is None else np.asarray(counts)
    return Values(list(contents), np.array([len(c) for c in contents], dtype=np.int64),
                  counts, np.arange(counts.sum()))


def condensed(square) -> np.ndarray:
    """The store of a square array: its upper triangle in scipy's ``squareform``
    layout, then the 0.0 that the diagonal reads; read-only."""
    d = np.append(squareform(np.asarray(square, dtype=np.float64), checks=False), 0.0)
    d.flags.writeable = False
    return d


def make_matrix(distances, member_counts=None) -> DissimilarityMatrix:
    """Wrap a symmetric distance array in a DissimilarityMatrix.

    Synthetic values get distinct two-byte contents and the requested number
    of member segments (default 1 each), indices of a segmentation in
    value order. The array is stored in value order.
    """
    n = len(distances)
    contents = [bytes([i // 256, i % 256]) for i in range(n)]
    return DissimilarityMatrix(values_of(contents, member_counts), condensed(distances),
                               np.arange(n))


def dbscan_of(matrix: DissimilarityMatrix, epsilon: float, min_samples: int) -> Clustering:
    """``dbscan`` given a k-NN table just as wide as ``min_samples`` needs."""
    return dbscan(matrix, epsilon, min_samples, matrix.nearest(max(1, min_samples - 1)))


def pairs_within(matrix: DissimilarityMatrix, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(heads, tails) of every pair ``matrix.within(eps)`` yields, its chunks joined in order."""
    heads, tails = zip(*matrix.within(eps))
    return np.concatenate(heads), np.concatenate(tails)


def segmentation_of(*rows) -> Segmentation:
    """Segments from (message, offset, bytes, truth type) rows, whose bytes
    are laid end to end in the joined data."""
    length = np.array([len(r[2]) for r in rows], dtype=np.int64)
    return Segmentation(
        "test", b"".join(r[2] for r in rows), np.array([r[0] for r in rows], dtype=np.int64),
        np.array([r[1] for r in rows], dtype=np.int64), length, np.cumsum(length) - length,
        np.array([r[3] for r in rows], dtype=object),
    )


def symmetric_random(n: int, rng: np.random.Generator, low=0.05, high=0.95) -> np.ndarray:
    """Random symmetric matrix with zero diagonal and positive off-diagonals."""
    d = rng.uniform(low, high, size=(n, n))
    d = np.triu(d, k=1)
    d = d + d.T
    return d


def two_blob_matrix(
    sizes=(12, 12),
    isolated: int = 6,
    intra=(0.049, 0.051),
    inter=(0.78, 0.84),
    seed: int = 7,
) -> np.ndarray:
    """Two tight blobs plus scattered points, all cross distances at inter scale."""
    rng = np.random.default_rng(seed)
    n = sum(sizes) + isolated
    d = rng.uniform(*inter, size=(n, n))
    start = 0
    for size in sizes:
        block = rng.uniform(*intra, size=(size, size))
        d[start : start + size, start : start + size] = block
        start += size
    d = np.triu(d, k=1)
    d = d + d.T
    return d


def traced_peak(call, *args):
    """(result, peak bytes) of ``call(*args)``, counting only what it allocates."""
    tracemalloc.start()
    try:
        result = call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def cluster_of(members) -> Cluster:
    return Cluster(sorted(members))


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture(scope="session", autouse=True)
def unfrozen_heap():
    """No test may leave the test process's heap frozen, as ``cli.entry`` freezes its own."""
    yield
    assert gc.get_freeze_count() == 0

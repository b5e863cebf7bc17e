"""Trace loading, protocol filtering, and payload de-duplication.

Supports two inputs: classic pcap captures (both endiannesses, Ethernet or
raw link) and plain hex-lines text files with one message per line.
"""

from __future__ import annotations

import logging
import re
import struct
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    EmptyTraceError,
    HexParseError,
    PcapFormatError,
    UnsupportedLinkTypeError,
)

logger = logging.getLogger(__name__)

PCAP_MAGIC = 0xA1B2C3D4
LINKTYPE_ETHERNET = 1
ETHERTYPE_IPV4 = 0x0800
IPPROTO_TCP = 6
IPPROTO_UDP = 17

_RECORD_HEADER_LEN = 16


@dataclass(frozen=True)
class ProtocolFilter:
    """Transport/port selector, or ``raw`` to keep whole packet data."""

    transport: str  # "udp" | "tcp" | "raw"
    port: int | None = None

    @classmethod
    def parse(cls, text: str) -> "ProtocolFilter":
        """Parse a CLI filter spec: ``udp:<port>``, ``tcp:<port>`` or ``raw``."""
        if text == "raw":
            return cls("raw")
        # ASCII digits only: str.isdigit takes "³", which int() refuses
        spec = re.fullmatch(r"(udp|tcp):0*(\d{1,5})", text, re.ASCII)
        if spec is None or int(spec[2]) > 65535:
            raise ValueError(f"invalid filter {text!r}; expected udp:<port> or tcp:<port>"
                             " with a port from 0 to 65535, or raw")
        return cls(spec[1], int(spec[2]))

    def __str__(self) -> str:
        return self.transport if self.port is None else f"{self.transport}:{self.port}"


@dataclass(frozen=True)
class RawTrace:
    """Filtered payloads of one capture, in original order."""

    records: tuple[bytes, ...]
    skipped_fragments: int = 0


def load_pcap(path: str | Path, flt: ProtocolFilter) -> RawTrace:
    """Load a classic pcap file and keep payloads matching the filter.

    For ``udp``/``tcp`` filters the payload is everything above the transport
    header of IPv4 packets whose source or destination port matches; the
    capture must use the Ethernet link type. For ``raw`` the whole packet
    data is kept regardless of link type. A record the capture's snapshot
    length cut short (``incl_len < orig_len``) is skipped, under every
    filter, with one warning for the whole file. Under ``udp``/``tcp`` so is a
    matching datagram shorter than its IPv4 total length or UDP length.
    """
    data = Path(path).read_bytes()
    if len(data) < 24:
        raise PcapFormatError(f"{path}: file too short for a pcap header")
    magic = struct.unpack(">I", data[:4])[0]
    if magic == PCAP_MAGIC:
        endian = ">"
    elif struct.unpack("<I", data[:4])[0] == PCAP_MAGIC:
        endian = "<"
    else:
        raise PcapFormatError(f"{path}: magic 0x{magic:08X} is not a classic pcap")
    header = struct.Struct(endian + "IHHiIII")
    _, _, _, _, _, _, network = header.unpack_from(data, 0)
    if flt.transport != "raw" and network != LINKTYPE_ETHERNET:
        raise UnsupportedLinkTypeError(
            f"{path}: link type {network} cannot be filtered by {flt}; only Ethernet is supported"
        )

    rec_header = struct.Struct(endian + "IIII")
    records: list[bytes] = []
    fragments = truncated = short = 0
    offset = 24
    while offset < len(data):
        if offset + _RECORD_HEADER_LEN > len(data):
            logger.warning("%s: truncated record header at byte %d, stopping", path, offset)
            break
        _, _, incl_len, orig_len = rec_header.unpack_from(data, offset)
        offset += _RECORD_HEADER_LEN
        if offset + incl_len > len(data):
            logger.warning("%s: truncated packet data at byte %d, stopping", path, offset)
            break
        packet = data[offset : offset + incl_len]
        offset += incl_len
        if incl_len < orig_len:
            truncated += 1
            continue
        if flt.transport == "raw":
            payload: bytes | None = packet
        else:
            payload, skipped = _transport_payload(packet, flt)
            fragments += skipped == "fragment"
            short += skipped == "short"
        if payload:
            records.append(payload)

    if truncated:
        logger.warning("%s: skipped %d packets cut short by the snapshot length", path, truncated)
    if short:
        logger.warning("%s: skipped %d packets shorter than their IPv4 or UDP length", path, short)
    if not records:
        raise EmptyTraceError(f"{path}: no packets match filter {flt}")
    return RawTrace(tuple(records), fragments)


def _transport_payload(packet: bytes, flt: ProtocolFilter) -> tuple[bytes | None, str | None]:
    """Unwrap Ethernet -> IPv4 -> UDP/TCP; returns (payload, skip reason or None).

    ``"fragment"`` skips an IPv4 fragment of the filter's transport: a first
    fragment only if one of its ports is the filter's (or it is too short to
    hold them), a later one always, as its ports are unknown without
    reassembly. ``"short"`` skips a matching datagram shorter than its IPv4
    total length or UDP length.
    """
    if len(packet) < 34:  # eth(14) + minimal ip(20)
        return None, None
    ethertype = struct.unpack(">H", packet[12:14])[0]
    if ethertype != ETHERTYPE_IPV4:
        return None, None
    ip = packet[14:]
    vihl = ip[0]
    ihl = (vihl & 0x0F) * 4
    if vihl >> 4 != 4 or ihl < 20 or len(ip) < ihl:
        return None, None
    total_len = struct.unpack(">H", ip[2:4])[0]
    if total_len < ihl:
        return None, None
    cut_short = total_len > len(ip)
    ip = ip[:total_len]  # trim Ethernet trailer padding
    proto = ip[9]
    if proto != (IPPROTO_UDP if flt.transport == "udp" else IPPROTO_TCP):
        return None, None
    segment = ip[ihl:]
    flags_frag = struct.unpack(">H", ip[6:8])[0]
    if flags_frag & 0x2000 or flags_frag & 0x1FFF:
        first = not flags_frag & 0x1FFF
        if first and len(segment) >= 4 and flt.port not in struct.unpack(">HH", segment[:4]):
            return None, None
        return None, "fragment"
    if flt.transport == "udp":
        if len(segment) < 8:
            return None, None
        sport, dport, udp_len = struct.unpack(">HHH", segment[:6])
        if flt.port in (sport, dport) and udp_len >= 8:
            if cut_short or udp_len > len(segment):
                return None, "short"
            return segment[8:udp_len], None
    else:
        if len(segment) < 20:
            return None, None
        sport, dport = struct.unpack(">HH", segment[:4])
        data_off = (segment[12] >> 4) * 4
        if flt.port in (sport, dport) and 20 <= data_off <= len(segment):
            return (None, "short") if cut_short else (segment[data_off:], None)
    return None, None


def load_hexlines(path: str | Path) -> RawTrace:
    """Load a text file with one hex-encoded message per line.

    Lines starting with ``#`` and blank lines are skipped, and whitespace
    inside a line is ignored, so ``aabb cc`` and ``aa bb cc`` are the same
    three bytes.
    """
    records: list[bytes] = []
    # undecodable bytes pass as lone surrogates, so they are reported by line
    with open(path, "r", encoding="ascii", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if not text.isascii():
                raise HexParseError("non-ASCII byte", lineno)
            digits = "".join(text.split())
            if len(digits) % 2 != 0:
                raise HexParseError(f"odd number of hex digits ({len(digits)})", lineno)
            try:
                payload = bytes.fromhex(digits)
            except ValueError:
                raise HexParseError(f"non-hex character in {text!r}", lineno) from None
            records.append(payload)
    if not records:
        raise EmptyTraceError(f"{path}: no messages found")
    return RawTrace(tuple(records))


def write_hexlines(payloads: list[bytes] | tuple[bytes, ...], path: str | Path) -> None:
    """Serialize payloads to the hex-lines format, one message per line."""
    with open(path, "w", encoding="ascii") as handle:
        for payload in payloads:
            handle.write(payload.hex())
            handle.write("\n")


def deduplicate(trace: RawTrace) -> list[bytes]:
    """The first occurrence of each distinct payload, in capture order.

    A message is its payload, and its id is its position in this list.
    """
    return list(dict.fromkeys(trace.records))

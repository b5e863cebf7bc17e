"""Trace loading, protocol filtering, and payload de-duplication.

Supports two inputs: classic pcap captures (both endiannesses, Ethernet or
raw link) and plain hex-lines text files with one message per line.
"""

from __future__ import annotations

import logging
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
        transport, sep, port = text.partition(":")
        if transport not in ("udp", "tcp") or not sep or not port.isdigit():
            raise ValueError(f"invalid filter {text!r}; expected udp:<port>, tcp:<port> or raw")
        return cls(transport, int(port))

    def __str__(self) -> str:
        return self.transport if self.port is None else f"{self.transport}:{self.port}"


@dataclass(frozen=True)
class RawTrace:
    """Filtered records of one capture, in original order."""

    source_path: str
    link_type: str  # "ethernet" | "raw-payload"
    records: tuple[tuple[float, bytes], ...]  # (timestamp, payload)
    skipped_fragments: int = 0


@dataclass(frozen=True)
class Message:
    """A de-duplicated payload; ids are consecutive from 0 after dedup."""

    id: int
    payload: bytes
    origin_record: int


def load_pcap(path: str | Path, flt: ProtocolFilter) -> RawTrace:
    """Load a classic pcap file and keep payloads matching the filter.

    For ``udp``/``tcp`` filters the payload is everything above the transport
    header of IPv4 packets whose source or destination port matches; the
    capture must use the Ethernet link type. For ``raw`` the whole packet
    data is kept regardless of link type.
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
    records: list[tuple[float, bytes]] = []
    fragments = 0
    offset = 24
    while offset < len(data):
        if offset + _RECORD_HEADER_LEN > len(data):
            logger.warning("%s: truncated record header at byte %d, stopping", path, offset)
            break
        ts_sec, ts_usec, incl_len, _ = rec_header.unpack_from(data, offset)
        offset += _RECORD_HEADER_LEN
        if offset + incl_len > len(data):
            logger.warning("%s: truncated packet data at byte %d, stopping", path, offset)
            break
        packet = data[offset : offset + incl_len]
        offset += incl_len
        timestamp = ts_sec + ts_usec / 1e6
        if flt.transport == "raw":
            payload: bytes | None = packet
        else:
            payload, fragmented = _transport_payload(packet, flt)
            fragments += fragmented
        if payload:
            records.append((timestamp, payload))

    if not records:
        raise EmptyTraceError(f"{path}: no packets match filter {flt}")
    link = "raw-payload" if flt.transport == "raw" else "ethernet"
    return RawTrace(str(path), link, tuple(records), fragments)


def _transport_payload(packet: bytes, flt: ProtocolFilter) -> tuple[bytes | None, int]:
    """Unwrap Ethernet -> IPv4 -> UDP/TCP; returns (payload, fragment_flag)."""
    if len(packet) < 34:  # eth(14) + minimal ip(20)
        return None, 0
    ethertype = struct.unpack(">H", packet[12:14])[0]
    if ethertype != ETHERTYPE_IPV4:
        return None, 0
    ip = packet[14:]
    vihl = ip[0]
    ihl = (vihl & 0x0F) * 4
    if vihl >> 4 != 4 or ihl < 20 or len(ip) < ihl:
        return None, 0
    total_len = struct.unpack(">H", ip[2:4])[0]
    if total_len < ihl:
        return None, 0
    if total_len < len(ip):  # trim Ethernet trailer padding
        ip = ip[:total_len]
    flags_frag = struct.unpack(">H", ip[6:8])[0]
    if flags_frag & 0x2000 or flags_frag & 0x1FFF:
        return None, 1
    proto = ip[9]
    segment = ip[ihl:]
    if flt.transport == "udp" and proto == IPPROTO_UDP:
        if len(segment) < 8:
            return None, 0
        sport, dport, udp_len = struct.unpack(">HHH", segment[:6])
        if flt.port in (sport, dport) and udp_len >= 8:
            return segment[8:udp_len], 0
    elif flt.transport == "tcp" and proto == IPPROTO_TCP:
        if len(segment) < 20:
            return None, 0
        sport, dport = struct.unpack(">HH", segment[:4])
        data_off = (segment[12] >> 4) * 4
        if flt.port in (sport, dport) and 20 <= data_off <= len(segment):
            return segment[data_off:], 0
    return None, 0


def load_hexlines(path: str | Path) -> RawTrace:
    """Load a text file with one hex-encoded message per line.

    Lines starting with ``#`` and blank lines are skipped; the record
    timestamp is the 1-based line number.
    """
    records: list[tuple[float, bytes]] = []
    # undecodable bytes pass as lone surrogates, so they are reported by line
    with open(path, "r", encoding="ascii", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if not text.isascii():
                raise HexParseError("non-ASCII byte", lineno)
            if len(text) % 2 != 0:
                raise HexParseError(f"odd number of hex digits ({len(text)})", lineno)
            try:
                payload = bytes.fromhex(text)
            except ValueError:
                raise HexParseError(f"non-hex character in {text!r}", lineno) from None
            records.append((float(lineno), payload))
    if not records:
        raise EmptyTraceError(f"{path}: no messages found")
    return RawTrace(str(path), "raw-payload", tuple(records))


def write_hexlines(payloads: list[bytes] | tuple[bytes, ...], path: str | Path) -> None:
    """Serialize payloads to the hex-lines format, one message per line."""
    with open(path, "w", encoding="ascii") as handle:
        for payload in payloads:
            handle.write(payload.hex())
            handle.write("\n")


def deduplicate(trace: RawTrace) -> list[Message]:
    """Keep the first occurrence of each distinct payload, in capture order."""
    seen: set[bytes] = set()
    messages: list[Message] = []
    for index, (_, payload) in enumerate(trace.records):
        if payload in seen:
            continue
        seen.add(payload)
        messages.append(Message(id=len(messages), payload=payload, origin_record=index))
    return messages

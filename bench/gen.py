"""Deterministic trace generators for the benchmark workloads.

Both generators take the seed as an argument and return the records of a
trace together with the ground-truth fields of every record. They write the
trace file and a ground-truth segmentation JSON; typeclust only ever sees
those files.

- NTP (RFC 5905): client/server exchanges in a classic pcap with
  Ethernet/IPv4/UDP framing, plus duplicate records, decoys on other UDP and
  TCP ports and IPv4 fragments.
- DHCP (RFC 2131): DISCOVER/OFFER/REQUEST/ACK exchanges in the hex-lines
  format, with options 53, 61, 12, 55, 50, 51, 54, 1, 3 and 255, plus a few
  retransmitted duplicates.
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass
from pathlib import Path

Fields = list[tuple[int, str]]  # (length, type) per field, in payload order

NTP_PORT = 123
_NTP_ERA_SECONDS = 3_990_000_000  # NTP seconds since 1900, late 2026
_SERVER_TABLE_SEED = 123
_STRATUM1_REFIDS = (b"GPS\x00", b"PPS\x00", b"GOES", b"DCF\x00")
_PARAMETERS = (1, 3, 6, 12, 15, 26, 28, 42, 51, 58, 59, 119, 121)
_WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    "india", "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
    "printer", "laptop", "desktop", "phone", "camera", "sensor", "gateway",
)


@dataclass
class Trace:
    """A generated trace file, its ground truth and the counts a loader must see."""

    path: Path
    truth_path: Path
    format: str  # "pcap" | "hex"
    filter: str
    limit: int | None
    records: int  # records the loader keeps under the filter, duplicates included
    skipped_fragments: int
    messages: list[tuple[bytes, Fields]]  # de-duplicated and limited, in capture order


def dedup_and_limit(
    records: list[tuple[bytes, Fields]], limit: int | None
) -> list[tuple[bytes, Fields]]:
    """First occurrence of every payload in capture order, then the limit."""
    seen: set[bytes] = set()
    kept = []
    for payload, fields in records:
        if payload not in seen:
            seen.add(payload)
            kept.append((payload, fields))
    return kept if limit is None else kept[:limit]


def write_truth(path: Path, messages: list[tuple[bytes, Fields]]) -> None:
    entries = [
        {"payload": payload.hex(), "fields": [{"len": n, "type": t} for n, t in fields]}
        for payload, fields in messages
    ]
    path.write_text(json.dumps({"segmenter": "ground-truth", "messages": entries}) + "\n")


# --------------------------------------------------------------------- NTP


def _ntp_timestamp(rnd: random.Random, seconds: float) -> bytes:
    return struct.pack(">II", int(seconds), rnd.getrandbits(32))


def _ntp_short(value: float) -> bytes:
    return struct.pack(">I", int(value * 65536) & 0xFFFFFFFF)


def _ipv4(rnd: random.Random, first: int) -> bytes:
    return bytes([first, rnd.randrange(256), rnd.randrange(256), rnd.randrange(1, 255)])


def _ntp_packet(mode, stratum, poll, precision, delay, dispersion, refid, ref, org, rcv, xmt):
    payload = (
        bytes([(4 << 3) | mode, stratum, poll & 0xFF, precision & 0xFF])
        + delay + dispersion + refid + ref + org + rcv + xmt
    )
    refid_type = "chars" if refid in _STRATUM1_REFIDS else "ipv4"
    fields = [
        (1, "flags"), (1, "stratum"), (1, "poll"), (1, "precision"),
        (4, "root_delay"), (4, "root_dispersion"), (4, refid_type),
        (8, "timestamp"), (8, "timestamp"), (8, "timestamp"), (8, "timestamp"),
    ]
    return payload, fields


def ntp_records(seed: int, exchanges: int) -> list[tuple[bytes, Fields]]:
    """NTP messages in capture order: a mode 3 request and a mode 4 reply
    per exchange, every 25th record repeated as a retransmission."""
    rnd = random.Random(_SERVER_TABLE_SEED)  # the servers are the fixed environment
    servers = []
    for index in range(8):
        stratum = 1 if index < 3 else 2 + index % 2
        servers.append({
            "stratum": stratum,
            "refid": _STRATUM1_REFIDS[index % 4] if stratum == 1 else _ipv4(rnd, 10),
            "precision": -rnd.randrange(18, 24),
            "delay": rnd.uniform(0.0, 0.05) if stratum > 1 else 0.0,
            "dispersion": rnd.uniform(0.0005, 0.02),
            "ref": 0.0,
        })
    clients = [
        {"sntp": index % 3 != 0, "poll": rnd.choice((6, 7, 8, 10)), "server": index % 8}
        for index in range(48)
    ]
    rnd = random.Random(seed)
    now = _NTP_ERA_SECONDS + rnd.uniform(0, 86_400)
    zero4, zero8 = bytes(4), bytes(8)
    records: list[tuple[bytes, Fields]] = []
    for exchange in range(exchanges):
        now += rnd.uniform(0.02, 3.0)
        client = clients[rnd.randrange(len(clients))]
        server = servers[client["server"]]
        if exchange % 16 == 0 or server["ref"] == 0.0:
            server["ref"] = now - rnd.uniform(1, 60)
        client_xmt = _ntp_timestamp(rnd, now)
        if client["sntp"]:
            request = _ntp_packet(3, 0, client["poll"], 0, zero4, zero4, zero4,
                                  zero8, zero8, zero8, client_xmt)
        else:
            request = _ntp_packet(
                3, server["stratum"] + 1, client["poll"], -20,
                _ntp_short(server["delay"] + rnd.uniform(0.001, 0.03)),
                _ntp_short(rnd.uniform(0.01, 0.2)),
                _ipv4(rnd, 192), _ntp_timestamp(rnd, now - rnd.uniform(10, 600)),
                zero8, zero8, client_xmt,
            )
        received = now + rnd.uniform(0.0005, 0.05)
        reply = _ntp_packet(
            4, server["stratum"], client["poll"], server["precision"],
            _ntp_short(server["delay"]),
            _ntp_short(server["dispersion"] + (now - server["ref"]) * 15e-6),
            server["refid"], _ntp_timestamp(rnd, server["ref"]), client_xmt,
            _ntp_timestamp(rnd, received),
            _ntp_timestamp(rnd, received + rnd.uniform(1e-5, 1e-4)),
        )
        for record in (request, reply):
            records.append(record)
            if len(records) % 25 == 0:
                records.append(record)
    return records


def _checksum(header: bytes) -> int:
    total = sum(struct.unpack(f">{len(header) // 2}H", header))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _ethernet_ipv4(proto: int, src: bytes, dst: bytes, body: bytes, ident: int,
                   flags_fragment: int = 0) -> bytes:
    header = struct.pack(">BBHHHBBH4s4s", 0x45, 0, 20 + len(body), ident & 0xFFFF,
                         flags_fragment, 64, proto, 0, src, dst)
    header = header[:10] + struct.pack(">H", _checksum(header)) + header[12:]
    return bytes(6) + bytes([2, 0, 0, 0, 0, 1]) + b"\x08\x00" + header + body


def _udp(sport: int, dport: int, payload: bytes) -> bytes:
    return struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload


def _tcp(sport: int, dport: int, payload: bytes) -> bytes:
    return struct.pack(">HHIIBBHHH", sport, dport, 1, 1, 5 << 4, 0x18, 65535, 0, 0) + payload


def write_ntp_pcap(directory: Path, seed: int, messages: int) -> Trace:
    """NTP pcap of `messages` distinct messages after de-duplication.

    Decoys (UDP 53 and 1230, TCP 80 and 123) follow every 10th NTP record,
    and three IPv4 fragments of port-123 traffic are inserted. The capture
    holds a few more distinct NTP messages than `messages`, so the limit
    applies after de-duplication.
    """
    rnd = random.Random(seed ^ 0x5EED)
    records = ntp_records(seed, exchanges=messages // 2 + 16)
    kept = dedup_and_limit(records, messages)
    server_ip, client_ip = bytes([10, 0, 0, 1]), bytes([10, 0, 1, 2])
    fragment_at = {len(records) // 4, len(records) // 2, 3 * len(records) // 4}
    packets: list[bytes] = []
    for index, (payload, _) in enumerate(records):
        mode = payload[0] & 7
        sport, dport = (50_000 + index % 97, NTP_PORT) if mode == 3 else (NTP_PORT, 50_000 + index % 97)
        packets.append(_ethernet_ipv4(17, client_ip, server_ip, _udp(sport, dport, payload), index))
        if index % 10 == 9:
            decoy = bytes(rnd.randrange(256) for _ in range(rnd.randrange(12, 60)))
            kind = (index // 10) % 4
            if kind == 0:
                body, proto = _udp(53_000, 53, decoy), 17
            elif kind == 1:
                body, proto = _udp(1230, 40_000, decoy), 17
            elif kind == 2:
                body, proto = _tcp(40_001, 80, decoy), 6
            else:
                body, proto = _tcp(40_002, NTP_PORT, decoy), 6  # TCP is not the udp:123 filter
            packets.append(_ethernet_ipv4(proto, client_ip, server_ip, body, 60_000 + index))
        if index in fragment_at:
            first = _udp(40_003, NTP_PORT, payload)[:24]
            packets.append(_ethernet_ipv4(17, client_ip, server_ip, first, 61_000 + index, 0x2000))
    out = bytearray(struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
    for index, packet in enumerate(packets):
        out += struct.pack(">IIII", 1_790_000_000 + index // 50, (index % 50) * 20_000,
                           len(packet), len(packet))
        out += packet
    directory.mkdir(parents=True, exist_ok=True)
    path, truth = directory / "ntp.pcap", directory / "ntp_truth.json"
    path.write_bytes(bytes(out))
    write_truth(truth, kept)
    return Trace(path, truth, "pcap", f"udp:{NTP_PORT}", messages, len(records),
                 len(fragment_at), kept)


# -------------------------------------------------------------------- DHCP


def _dhcp_option(code: int, value: bytes, value_type: str) -> tuple[bytes, Fields]:
    return bytes([code, len(value)]) + value, [(1, "option_code"), (1, "option_length"),
                                               (len(value), value_type)]


def _dhcp_message(op, xid, secs, flags, ciaddr, yiaddr, siaddr, mac, options):
    payload = (
        bytes([op, 1, 6, 0]) + xid + struct.pack(">HH", secs, flags)
        + ciaddr + yiaddr + siaddr + bytes(4) + mac + bytes(10) + bytes(64) + bytes(128)
        + b"\x63\x82\x53\x63"
    )
    fields: Fields = [
        (1, "op"), (1, "htype"), (1, "hlen"), (1, "hops"), (4, "xid"), (2, "secs"),
        (2, "flags"), (4, "ipv4"), (4, "ipv4"), (4, "ipv4"), (4, "ipv4"), (6, "mac"),
        (10, "padding"), (64, "sname"), (128, "file"), (4, "magic_cookie"),
    ]
    for option_bytes, option_fields in options:
        payload += option_bytes
        fields += option_fields
    return payload + b"\xff", fields + [(1, "option_code")]


def dhcp_records(seed: int, transactions: int) -> list[tuple[bytes, Fields]]:
    """DISCOVER, OFFER, REQUEST and ACK per transaction, each from a new
    client; every 20th DISCOVER is retransmitted unchanged."""
    rnd = random.Random(seed)
    server_id = bytes([192, 168, 1, 1])
    mask, router = bytes([255, 255, 255, 0]), bytes([192, 168, 1, 254])
    zero = bytes(4)
    records: list[tuple[bytes, Fields]] = []
    for transaction in range(transactions):
        mac = bytes([0x02] + [rnd.randrange(256) for _ in range(5)])
        host = f"{rnd.choice(_WORDS)}-{rnd.randrange(10 ** rnd.randrange(1, 5))}".encode()
        params = bytes(sorted(rnd.sample(_PARAMETERS, rnd.randrange(4, 11))))
        offered = bytes([10, 20, rnd.randrange(256), rnd.randrange(1, 255)])
        flags = 0x8000 if rnd.random() < 0.3 else 0
        xid = rnd.getrandbits(32).to_bytes(4, "big")
        secs = rnd.randrange(0, 8)
        lease = struct.pack(">I", rnd.choice((3600, 7200, 43200, 86400)))
        client_id = _dhcp_option(61, b"\x01" + mac, "client_id")
        host_name = _dhcp_option(12, host, "hostname")
        request_list = _dhcp_option(55, params, "parameter_list")
        discover = _dhcp_message(1, xid, secs, flags, zero, zero, zero, mac, [
            _dhcp_option(53, b"\x01", "message_type"), client_id, host_name, request_list,
        ])
        server_options = [
            _dhcp_option(54, server_id, "ipv4"), _dhcp_option(51, lease, "lease_time"),
            _dhcp_option(1, mask, "ipv4"), _dhcp_option(3, router, "ipv4"),
        ]
        offer = _dhcp_message(2, xid, 0, flags, zero, offered, server_id, mac,
                              [_dhcp_option(53, b"\x02", "message_type")] + server_options)
        request = _dhcp_message(1, xid, secs + rnd.randrange(0, 3), flags, zero, zero, zero, mac, [
            _dhcp_option(53, b"\x03", "message_type"), client_id, host_name,
            _dhcp_option(50, offered, "ipv4"), _dhcp_option(54, server_id, "ipv4"),
            request_list,
        ])
        ack = _dhcp_message(2, xid, 0, flags, zero, offered, server_id, mac,
                            [_dhcp_option(53, b"\x05", "message_type")] + server_options)
        records.append(discover)
        if transaction % 20 == 0:
            records.append(discover)
        records += [offer, request, ack]
    return records


def write_dhcp_hex(directory: Path, seed: int, messages: int) -> Trace:
    """DHCP hex-lines trace of `messages` distinct messages (a multiple of 4)."""
    records = dhcp_records(seed, transactions=messages // 4)
    kept = dedup_and_limit(records, None)
    directory.mkdir(parents=True, exist_ok=True)
    path, truth = directory / "dhcp.hex", directory / "dhcp_truth.json"
    path.write_text("# DHCP (RFC 2131) exchanges\n"
                    + "".join(payload.hex() + "\n" for payload, _ in records))
    write_truth(truth, kept)
    return Trace(path, truth, "hex", "raw", None, len(records), 0, kept)

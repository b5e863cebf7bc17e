"""Trace loading, filtering, and payload de-duplication."""

from __future__ import annotations

import logging
import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import build_pcap, build_ethernet_packet
from typeclust.errors import (
    AnalysisError,
    EmptyTraceError,
    HexParseError,
    PcapFormatError,
    UnsupportedLinkTypeError,
)
from typeclust.traceio import (
    ProtocolFilter,
    RawTrace,
    deduplicate,
    load_hexlines,
    load_pcap,
    write_hexlines,
)


def test_filter_parse():
    assert ProtocolFilter.parse("udp:123") == ProtocolFilter("udp", 123)
    assert ProtocolFilter.parse("tcp:445") == ProtocolFilter("tcp", 445)
    assert ProtocolFilter.parse("raw") == ProtocolFilter("raw")
    with pytest.raises(ValueError):
        ProtocolFilter.parse("icmp:1")
    with pytest.raises(ValueError):
        ProtocolFilter.parse("udp")
    # a port is 0 to 65535 in ASCII decimal digits; "³" passes str.isdigit
    for text in ("udp:³", "udp:65536", "tcp:99999", "udp:" + "0" * 5000 + "65536",
                 "udp:" + "9" * 5000, "udp:+80", "tcp: 80"):
        with pytest.raises(ValueError, match="invalid filter"):
            ProtocolFilter.parse(text)
    assert ProtocolFilter.parse("tcp:65535") == ProtocolFilter("tcp", 65535)
    assert ProtocolFilter.parse("udp:" + "0" * 5000) == ProtocolFilter("udp", 0)


class TestLoadPcap:
    def test_filter_passes_all_matching(self, tmp_path):
        payloads = [b"\x01\x02", b"\x03\x04\x05", b"\x06"]
        pcap = tmp_path / "ntp.pcap"
        pcap.write_bytes(build_pcap([("udp", 123, 123, p) for p in payloads]))
        trace = load_pcap(pcap, ProtocolFilter("udp", 123))
        assert list(trace.records) == payloads

    def test_filter_excludes_other_ports(self, tmp_path):
        pcap = tmp_path / "mix.pcap"
        pcap.write_bytes(
            build_pcap(
                [
                    ("udp", 40000, 123, b"ntp-payload"),
                    ("udp", 40001, 53, b"dns-a"),
                    ("udp", 53, 40002, b"dns-b"),
                ]
            )
        )
        trace = load_pcap(pcap, ProtocolFilter("udp", 53))
        assert trace.records == (b"dns-a", b"dns-b")

    def test_little_endian_capture(self, tmp_path):
        pcap = tmp_path / "le.pcap"
        pcap.write_bytes(build_pcap([("udp", 9, 123, b"swapped")], little_endian=True))
        trace = load_pcap(pcap, ProtocolFilter("udp", 123))
        assert trace.records[0] == b"swapped"

    def test_tcp_payload_extraction(self, tmp_path):
        pcap = tmp_path / "tcp.pcap"
        pcap.write_bytes(build_pcap([("tcp", 1024, 445, b"smb-bytes")]))
        trace = load_pcap(pcap, ProtocolFilter("tcp", 445))
        assert trace.records[0] == b"smb-bytes"

    def test_raw_filter_keeps_whole_packets(self, tmp_path):
        packet = build_ethernet_packet("udp", 1, 2, b"xy")
        pcap = tmp_path / "raw.pcap"
        pcap.write_bytes(build_pcap([("rawdata", packet)], network=147))
        trace = load_pcap(pcap, ProtocolFilter("raw"))
        assert trace.records[0] == packet

    def test_bad_magic_is_format_error(self, tmp_path):
        bad = tmp_path / "bad.pcap"
        bad.write_bytes(b"\x00" * 64)
        with pytest.raises(PcapFormatError):
            load_pcap(bad, ProtocolFilter("udp", 1))

    def test_short_file_is_format_error(self, tmp_path):
        bad = tmp_path / "short.pcap"
        bad.write_bytes(b"\xa1\xb2\xc3\xd4")
        with pytest.raises(PcapFormatError):
            load_pcap(bad, ProtocolFilter("udp", 1))

    def test_non_ethernet_link_rejected_for_transport_filter(self, tmp_path):
        pcap = tmp_path / "dlt.pcap"
        pcap.write_bytes(build_pcap([("udp", 1, 99, b"zz")], network=101))
        with pytest.raises(UnsupportedLinkTypeError):
            load_pcap(pcap, ProtocolFilter("udp", 99))

    def test_no_matches_is_empty_trace(self, tmp_path):
        pcap = tmp_path / "none.pcap"
        pcap.write_bytes(build_pcap([("udp", 1, 123, b"x1")]))
        with pytest.raises(EmptyTraceError):
            load_pcap(pcap, ProtocolFilter("udp", 9999))

    def test_fragmented_packets_skipped_and_counted(self, tmp_path):
        frag = build_ethernet_packet("udp", 5, 7, b"frag", fragmented=True)
        pcap = tmp_path / "frag.pcap"
        pcap.write_bytes(
            build_pcap([("rawdata", frag), ("udp", 5, 7, b"whole")])
        )
        trace = load_pcap(pcap, ProtocolFilter("udp", 7))
        assert trace.records == (b"whole",)
        assert trace.skipped_fragments == 1

    @pytest.mark.parametrize("fragment, counted", [
        (build_ethernet_packet("udp", 5, 9, b"frag", fragmented=True), 0),
        (build_ethernet_packet("udp", 5, 123, b"frag", fragmented=True), 1),
        # a later fragment's bytes hold no ports, whatever they look like
        (build_ethernet_packet("udp", 5, 9, b"frag", fragment_offset=3), 1),
        (build_ethernet_packet("tcp", 5, 123, b"frag", fragmented=True), 0),
    ], ids=["udp-9-first", "udp-123-first", "udp-later", "tcp-123-first"])
    def test_only_fragments_the_filter_could_match_are_counted(
        self, tmp_path, fragment, counted
    ):
        pcap = tmp_path / "frag.pcap"
        pcap.write_bytes(build_pcap([("rawdata", fragment), ("udp", 5, 123, b"whole")]))
        trace = load_pcap(pcap, ProtocolFilter("udp", 123))
        assert trace.records == (b"whole",)
        assert trace.skipped_fragments == counted

    @pytest.mark.parametrize("flt", ["udp:123", "raw"])
    def test_records_cut_short_by_the_snaplen_are_skipped(self, tmp_path, caplog, flt):
        payload = bytes(range(48))
        whole = build_ethernet_packet("udp", 4, 123, payload)
        cut = whole[: len(whole) - 38]  # 10 of the 48 payload bytes captured
        pcap = tmp_path / "snaplen.pcap"
        pcap.write_bytes(build_pcap([("rawdata", whole)])
                         + struct.pack(">IIII", 1_600_000_001, 0, len(cut), len(whole)) + cut)
        with caplog.at_level(logging.WARNING, logger="typeclust.traceio"):
            trace = load_pcap(pcap, ProtocolFilter.parse(flt))
        assert trace.records == (whole if flt == "raw" else payload,)
        assert trace.skipped_fragments == 0
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("WARNING", f"{pcap}: skipped 1 packets cut short by the snapshot length")
        ]

    @pytest.mark.parametrize("flt, ip_extra, udp_extra", [
        ("udp:123", 8, 8), ("udp:123", 0, 8), ("tcp:80", 8, 0)])
    def test_datagrams_longer_than_their_record_are_skipped(
        self, tmp_path, caplog, flt, ip_extra, udp_extra
    ):
        payload = bytes(range(48))
        whole = build_ethernet_packet(flt[:3], 4, int(flt[4:]), payload)
        # the same packet, captured whole, claiming 8 more bytes than it holds
        overstated = bytearray(whole)
        for offset, extra in ((16, ip_extra), (38, udp_extra)):  # IPv4 total, UDP length
            if extra:
                struct.pack_into(">H", overstated, offset,
                                 struct.unpack_from(">H", whole, offset)[0] + extra)
        pcap = tmp_path / "overstated.pcap"
        pcap.write_bytes(build_pcap([("rawdata", whole), ("rawdata", bytes(overstated))]))
        with caplog.at_level(logging.WARNING, logger="typeclust.traceio"):
            trace = load_pcap(pcap, ProtocolFilter.parse(flt))
        assert trace.records == (payload,)
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("WARNING", f"{pcap}: skipped 1 packets shorter than their IPv4 or UDP length")
        ]

    @pytest.mark.parametrize("transport, offset, fmt, value", [
        ("udp", 12, ">H", 0x86DD),  # an IPv6 ethertype
        ("udp", 14, ">B", 0x65),  # IPv4 header of version 6
        ("udp", 14, ">B", 0x44),  # an IHL of 16 bytes
        ("udp", 16, ">H", 19),  # a total length below the IHL
        ("udp", 16, ">H", 20 + 7),  # a 7-byte UDP segment
        ("tcp", 16, ">H", 20 + 19),  # a 19-byte TCP segment
    ], ids=["ethertype", "version", "ihl", "total-length", "udp-segment", "tcp-segment"])
    def test_packets_that_hold_no_datagram_are_skipped_silently(
        self, tmp_path, caplog, transport, offset, fmt, value
    ):
        frame = bytearray(build_ethernet_packet(transport, 5, 123, b"skip"))
        struct.pack_into(fmt, frame, offset, value)
        pcap = tmp_path / "malformed.pcap"
        pcap.write_bytes(build_pcap([("rawdata", bytes(frame)), (transport, 5, 123, b"whole")]))
        with caplog.at_level(logging.WARNING, logger="typeclust.traceio"):
            trace = load_pcap(pcap, ProtocolFilter(transport, 123))
        assert trace.records == (b"whole",)
        assert trace.skipped_fragments == 0
        assert caplog.records == []

    def test_ethernet_padding_trimmed(self, tmp_path):
        # pad the frame past the IP total length, as a real NIC would
        packet = build_ethernet_packet("udp", 3, 123, b"ab") + b"\x00" * 18
        pcap = tmp_path / "pad.pcap"
        pcap.write_bytes(build_pcap([("rawdata", packet)]))
        trace = load_pcap(pcap, ProtocolFilter("udp", 123))
        assert trace.records[0] == b"ab"


class TestLoadHexlines:
    def test_two_messages(self, tmp_path):
        path = tmp_path / "t.hex"
        path.write_text("0001\nff\n")
        trace = load_hexlines(path)
        assert trace.records == (b"\x00\x01", b"\xff")

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "t.hex"
        path.write_text("# header\n\n0a0b\n")
        trace = load_hexlines(path)
        assert trace.records == (b"\x0a\x0b",)

    def test_comment_only_file_is_empty_trace(self, tmp_path):
        path = tmp_path / "t.hex"
        path.write_text("# nothing here\n")
        with pytest.raises(EmptyTraceError):
            load_hexlines(path)

    def test_odd_digit_count_reports_line(self, tmp_path):
        path = tmp_path / "t.hex"
        path.write_text("00\nabc\n")
        with pytest.raises(HexParseError) as err:
            load_hexlines(path)
        assert err.value.line_number == 2

    @pytest.mark.parametrize("line", ["aabb cc", "aa bb cc", " aa\tbbcc "])
    def test_whitespace_inside_a_line_is_ignored(self, tmp_path, line):
        path = tmp_path / "t.hex"
        path.write_text(f"{line}\n")
        assert load_hexlines(path).records == (b"\xaa\xbb\xcc",)

    def test_odd_digit_count_counts_hex_digits_only(self, tmp_path):
        path = tmp_path / "t.hex"
        path.write_text("aa bb c\n")
        with pytest.raises(HexParseError, match=r"odd number of hex digits \(5\)") as err:
            load_hexlines(path)
        assert err.value.line_number == 1

    def test_non_hex_character_reports_line(self, tmp_path):
        path = tmp_path / "t.hex"
        path.write_text("00\n11\nzz\n")
        with pytest.raises(HexParseError) as err:
            load_hexlines(path)
        assert err.value.line_number == 3

    def test_non_ascii_byte_reports_line(self, tmp_path):
        path = tmp_path / "t.hex"
        path.write_bytes(b"# caf\xc3\xa9 comments may hold any byte\n00\n1\xff\n")
        with pytest.raises(HexParseError, match="non-ASCII") as err:
            load_hexlines(path)
        assert err.value.line_number == 3

    def test_thousand_line_fixture_loads_in_order(self, tmp_path):
        rnd = random.Random(42)
        payloads = [bytes([rnd.randrange(256) for _ in range(8)]) for _ in range(1000)]
        path = tmp_path / "big.hex"
        write_hexlines(payloads, path)
        trace = load_hexlines(path)
        assert len(trace.records) == 1000
        assert list(trace.records) == payloads


class TestDeduplicate:
    def _trace(self, payloads):
        return RawTrace(tuple(payloads))

    def test_first_occurrence_kept(self):
        messages = deduplicate(self._trace([b"A1", b"B2", b"A1"]))
        assert messages == [b"A1", b"B2"]

    def test_all_distinct_is_identity(self):
        payloads = [b"aa", b"bb", b"cc"]
        messages = deduplicate(self._trace(payloads))
        assert messages == payloads

    def test_randomized_fixture_with_known_duplicates(self):
        # 163 distinct payloads, 37 seeded re-insertions -> 200 records total
        rnd = random.Random(7)
        distinct = set()
        while len(distinct) < 163:
            distinct.add(bytes([rnd.randrange(256) for _ in range(6)]))
        payloads = sorted(distinct)
        for _ in range(37):
            payloads.insert(rnd.randrange(len(payloads) + 1), payloads[rnd.randrange(163)])
        assert len(payloads) == 200
        expected = len(set(payloads))  # brute-force count
        assert expected == 163
        assert len(deduplicate(self._trace(payloads))) == expected

    def test_idempotent_and_payload_set_preserved(self, rng):
        payloads = [bytes(rng.integers(0, 4, size=3).tolist()) for _ in range(50)]
        trace = self._trace(payloads)
        messages = deduplicate(trace)
        assert len(messages) <= len(trace.records)
        assert set(messages) == set(payloads)
        assert deduplicate(RawTrace(tuple(messages))) == messages


def test_pcap_to_hexlines_round_trip(tmp_path):
    payloads = [b"\x01\x02\x03", b"\xff\xfe", b"hello world"]
    pcap = tmp_path / "rt.pcap"
    pcap.write_bytes(build_pcap([("udp", 123, 123, p) for p in payloads]))
    trace = load_pcap(pcap, ProtocolFilter("udp", 123))
    hexfile = tmp_path / "rt.hex"
    write_hexlines(trace.records, hexfile)
    assert load_hexlines(hexfile).records == trace.records


FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


# Packets that reach every branch of the Ethernet/IPv4/UDP/TCP unwrapping:
# arbitrary bytes after an Ethernet header that announces IPv4 half the time.
packets = st.one_of(
    st.binary(max_size=80),
    st.binary(max_size=60).map(lambda tail: b"\xaa" * 12 + b"\x08\x00\x45" + tail),
    st.builds(build_ethernet_packet, st.sampled_from(["udp", "tcp"]), st.sampled_from([53, 123]),
              st.sampled_from([53, 123]), st.binary(max_size=20)).flatmap(
        lambda packet: st.integers(0, len(packet)).map(lambda cut: packet[:cut])),
)


@st.composite
def pcap_files(draw) -> bytes:
    endian = draw(st.sampled_from("<>"))
    network = draw(st.sampled_from([1, 101, 0xFFFFFFFF]))
    out = bytearray(struct.pack(endian + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, network))
    record = struct.Struct(endian + "IIII")
    for packet in draw(st.lists(packets, max_size=6)):
        out += record.pack(0, 0, len(packet), len(packet)) + packet
    return bytes(out) + draw(st.binary(max_size=20))  # a truncated record, maybe


# Hex-lines files: arbitrary bytes, or runs of hex digits, stray characters and line ends.
hexline_files = st.one_of(
    st.binary(max_size=200),
    st.lists(st.sampled_from([b"00", b"ff", b"a", b"#", b" ", b"\n", b"\r", b"\xff", b"zz"]),
             max_size=30).map(b"".join),
)


class TestLoaderFuzzing:
    @FUZZ
    @given(data=st.one_of(st.binary(max_size=200), pcap_files()),
           flt=st.sampled_from(["raw", "udp:123", "tcp:53"]))
    def test_pcap_loader_raises_only_analysis_errors(self, tmp_path, data, flt):
        path = tmp_path / "fuzz.pcap"
        path.write_bytes(data)
        try:
            trace = load_pcap(path, ProtocolFilter.parse(flt))
        except AnalysisError:
            return
        assert trace.records and all(trace.records)

    @FUZZ
    @given(data=hexline_files)
    def test_hexlines_loader_raises_only_analysis_errors(self, tmp_path, data):
        path = tmp_path / "fuzz.hex"
        path.write_bytes(data)
        try:
            trace = load_hexlines(path)
        except AnalysisError:
            return
        assert trace.records

"""The chunk decoder against the per-packet oracle, on generated pcaps.

Ingest decodes whole chunks in array operations (``decode_chunk``) and
falls back to :func:`decode_packet` only for packets outside the simple
shape.  These properties write arbitrary frame lists as pcap files —
both byte orders, raw-IP and Ethernet link types, odd record lengths,
link trailers after odd segments, snaplen truncation, IP options, bad
IP header and total lengths, non-TCP and non-IP packets, malformed
TCP options and flipped checksum bytes — and require the reader to yield exactly what ``decode_packet``
gives frame by frame, down to error kinds, messages and
``IngestStats``, for any chunk and decode-span size.
"""

import struct
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream import IngestStats, iter_pcap
from repro.stream import reader as reader_module
from repro.trace import wire
from repro.trace.pcap import LINKTYPE_ETHERNET, LINKTYPE_RAW, PCAP_MAGIC
from repro.trace.wire import (
    AddressMap,
    PacketDecodeError,
    decode_chunk,
    decode_packet,
    internet_checksum,
)

IPS = ["10.0.0.1", "10.0.0.2", "192.168.7.200", "172.16.0.9"]
ETHERNET_HEADER = bytes(range(12)) + b"\x08\x00"


def sized_binary(most: int) -> st.SearchStrategy[bytes]:
    """Bytes of a length drawn evenly from 0..*most* (odd ones too)."""
    return st.integers(0, most).flatmap(
        lambda n: st.binary(min_size=n, max_size=n))


#: True about one draw in six: each fault below is common enough that
#: every example meets several, rare enough that many packets stay in
#: the shape the array path decodes.
sometimes = st.integers(0, 5).map(lambda n: n == 0)

mss_option = st.integers(0, 0xFFFF).map(
    lambda mss: struct.pack("!BBH", 2, 4, mss))
options = st.one_of(
    st.just(b""), st.just(b""), mss_option, mss_option,
    mss_option.map(lambda mss: b"\x01\x01" + mss + b"\x00\x00"),
    # An MSS kind with every length near the right one.
    st.tuples(st.integers(0, 5), st.binary(min_size=2, max_size=2)).map(
        lambda option: bytes([2, option[0]]) + option[1]),
    # Option bytes from kinds and lengths that matter: end, no-op,
    # MSS with a wrong length, zero, short and overrunning lengths.
    st.sampled_from([4, 8]).flatmap(lambda n: st.lists(
        st.sampled_from([0, 1, 2, 3, 4, 8, 255]), min_size=n,
        max_size=n).map(bytes)))


@st.composite
def frames(draw) -> tuple[bytes, int | None]:
    """One IPv4 datagram plus link trailer, and where snaplen cuts the
    captured frame (None: captured whole)."""
    src, dst = (bytes(int(part) for part in draw(st.sampled_from(IPS))
                      .split(".")) for _ in range(2))
    tcp_options = draw(options)
    tcp = struct.pack("!HHIIBBHHH",
                      draw(st.sampled_from([80, 1024, 40000])),
                      draw(st.sampled_from([80, 1024, 40000])),
                      draw(st.integers(0, 2**32 - 1)),
                      draw(st.integers(0, 2**32 - 1)),
                      (20 + len(tcp_options)) // 4 << 4,
                      draw(st.integers(0, 255)), draw(st.integers(0, 0xFFFF)),
                      0, 0) + tcp_options + draw(sized_binary(41))
    checksum = internet_checksum(
        src + dst + struct.pack("!BBH", 0, 6, len(tcp)) + tcp)
    tcp = tcp[:16] + struct.pack("!H", checksum) + tcp[18:]
    if draw(sometimes):
        # Damage one segment byte after checksumming.
        at = draw(st.integers(0, len(tcp) - 1))
        damaged = tcp[at] ^ draw(st.integers(1, 255))
        tcp = tcp[:at] + bytes([damaged]) + tcp[at + 1:]
    ip_options = b"\x01\x01\x01\x00" if draw(sometimes) else b""
    total_len = 20 + len(ip_options) + len(tcp)
    if draw(sometimes):
        # The IP length lies: it claims less, or more than was sent.
        total_len = draw(st.one_of(st.integers(0, total_len),
                                   st.integers(total_len + 1,
                                               total_len + 8)))
    version = 6 if draw(sometimes) else 4
    ihl = 5 + len(ip_options) // 4
    if draw(sometimes):
        ihl = draw(st.integers(0, 4))       # below the IPv4 minimum
    protocol = draw(st.sampled_from([17, 1])) if draw(sometimes) else 6
    ip = struct.pack("!BBHHHBBH4s4s", version << 4 | ihl,
                     0, total_len, draw(st.integers(0, 0xFFFF)), 0, 64,
                     protocol, 0, src, dst) + ip_options
    datagram = ip + tcp + draw(sized_binary(7))       # link trailer
    cut = None
    if draw(sometimes):
        cut = draw(st.integers(0, len(datagram) + len(ETHERNET_HEADER)))
    return datagram, cut


captures = st.fixed_dictionaries({
    "frames": st.lists(frames(), min_size=4, max_size=40),
    "endian": st.sampled_from([">", "<"]),
    "ethernet": st.booleans(),
    "times": st.lists(st.tuples(st.integers(0, 2**32 - 1),
                                st.integers(0, 999_999)),
                      min_size=40, max_size=40),
    "chunk_bytes": st.sampled_from([64, 200, 1024,
                                    reader_module.CHUNK_BYTES]),
    "span_bytes": st.sampled_from([64, 300, wire.DECODE_SPAN_BYTES]),
})


def addresses() -> AddressMap:
    names = AddressMap()
    names.ip_for("alpha")       # 10.0.0.1
    names.ip_for("beta")        # 10.0.0.2
    return names


def pcap_records(capture) -> tuple[bytes, list[int], list[tuple]]:
    """The records' bytes, their offsets, and per record
    ``(incl_len, outcome)`` as decode_packet gives it."""
    link = ETHERNET_HEADER if capture["ethernet"] else b""
    names = addresses()
    blob = b""
    offsets, expected = [], []
    for (datagram, cut), (seconds, micros) in zip(capture["frames"],
                                                  capture["times"]):
        frame = link + datagram
        captured = frame[:cut]
        offsets.append(len(blob))
        blob += struct.pack(capture["endian"] + "IIII", seconds, micros,
                            len(captured), len(frame)) + captured
        try:
            outcome = decode_packet(captured[len(link):],
                                    seconds + micros / 1e6, names,
                                    verify_checksum=cut is None
                                    or cut >= len(frame))
        except PacketDecodeError as error:
            outcome = error
        expected.append((len(captured), outcome))
    return blob, offsets, expected


def same(outcome, reference) -> bool:
    if isinstance(reference, PacketDecodeError):
        return (isinstance(outcome, PacketDecodeError)
                and (outcome.kind, str(outcome))
                == (reference.kind, str(reference)))
    return outcome == reference


@settings(max_examples=120, deadline=None)
@given(capture=captures)
def test_decode_chunk_matches_decode_packet(capture):
    blob, offsets, expected = pcap_records(capture)
    strip = len(ETHERNET_HEADER) if capture["ethernet"] else 0
    with mock.patch.object(wire, "DECODE_SPAN_BYTES",
                           capture["span_bytes"]):
        decoded = list(decode_chunk(blob, offsets, capture["endian"], strip,
                                    addresses()))
    assert [incl_len for incl_len, _ in decoded] \
        == [incl_len for incl_len, _ in expected]
    for (_, outcome), (_, want) in zip(decoded, expected):
        assert same(outcome, want), (outcome, want)


@settings(max_examples=120, deadline=None)
@given(capture=captures)
def test_reader_matches_decode_packet(capture):
    blob, _, expected = pcap_records(capture)
    want = IngestStats()
    records = []
    for index, (incl_len, outcome) in enumerate(expected):
        want.packets_seen += 1
        want.bytes_seen += incl_len
        if isinstance(outcome, PacketDecodeError):
            if outcome.kind == "non-tcp":
                want.non_tcp_packets += 1
                want.warn("non-tcp", str(outcome), index)
            else:
                want.decode_errors += 1
                want.warn("decode-error", str(outcome), index)
        else:
            want.records_decoded += 1
            records.append(outcome)

    linktype = LINKTYPE_ETHERNET if capture["ethernet"] else LINKTYPE_RAW
    header = struct.pack(capture["endian"] + "IHHiIII", PCAP_MAGIC, 2, 4, 0,
                         0, 65535, linktype)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "capture.pcap"
        path.write_bytes(header + blob)
        stats = IngestStats()
        with mock.patch.object(reader_module, "CHUNK_BYTES",
                               capture["chunk_bytes"]), \
                mock.patch.object(wire, "DECODE_SPAN_BYTES",
                                  capture["span_bytes"]):
            got = list(iter_pcap(path, addresses=addresses(), stats=stats))
    assert got == records
    assert stats.to_dict() == want.to_dict()
    assert [(w.kind, w.detail, w.packet_index) for w in stats.warnings] \
        == [(w.kind, w.detail, w.packet_index) for w in want.warnings]

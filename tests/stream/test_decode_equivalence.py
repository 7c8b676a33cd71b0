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

import json
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


def outcomes(decoded) -> list[tuple]:
    """A decoded chunk as per record ``(incl_len, outcome)``: each
    error at its position, each row's record in between."""
    errors = dict(decoded.errors)
    rows = iter(decoded.packets.records())
    return [(incl_len, errors[i] if i in errors else next(rows))
            for i, incl_len in enumerate(decoded.incl_len.tolist())]


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
        decoded = outcomes(decode_chunk(blob, offsets, capture["endian"],
                                        strip, addresses()))
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


# ---------------------------------------------------------------------------
# The column path against the record path it replaced.
#
# Decode ends in packet columns, the flow table demultiplexes rows and
# a trace is born from a flow's rows.  The oracles below are the
# record-path code this replaced, kept here as it was: ``TraceColumns``
# filled by one loop over records, with flow ids by first occurrence,
# and a flow table fed one record at a time.


def record_columns(records) -> dict:
    """Oracle: the per-record fill loop and flow-id assignment."""
    flows, index, ids = [], {}, []
    for record in records:
        key = (record.src, record.dst)
        if key not in index:
            index[key] = len(flows)
            flows.append(record.flow)
        ids.append(index[key])
    return {
        "flows": flows, "flow_ids": ids,
        "timestamp": [r.timestamp for r in records],
        "seq": [r.seq for r in records], "ack": [r.ack for r in records],
        "flags": [r.flags for r in records],
        "payload": [r.payload for r in records],
        "window": [r.window for r in records],
        "mss_option": [-1 if r.mss_option is None else r.mss_option
                       for r in records],
        "corrupted": [r.corrupted for r in records],
        "packet_id": [r.packet_id for r in records],
        "seq_end": [r.seq_end for r in records],
    }


def record_demux(records, stats) -> list[dict]:
    """Oracle: the record-at-a-time flow table, with its defaults."""
    from repro.packets import ACK, FIN, RST, SYN
    from repro.stream.flowtable import (
        DEFAULT_IDLE_TIMEOUT, DEFAULT_MAX_FLOWS, DEFAULT_TIME_WAIT,
        EXPIRY_GRANULARITY, ConnectionKey)

    live: dict = {}
    done: list[dict] = []
    last_expiry = None

    def retire(flow, reason):
        flow["close_reason"] = reason
        del live[flow["key"]]
        stats.flow_retired(reason)
        done.append(flow)

    for record in records:
        now = record.timestamp
        if last_expiry is None or now - last_expiry >= EXPIRY_GRANULARITY:
            last_expiry = now
            for flow in list(live.values()):
                if flow["closing_at"] is not None \
                        and now - flow["closing_at"] >= DEFAULT_TIME_WAIT:
                    retire(flow, flow["close_pending"])
                elif now - flow["last_seen"] >= DEFAULT_IDLE_TIMEOUT:
                    retire(flow, "idle")
        key = ConnectionKey.of(record.src, record.dst)
        flow = live.get(key)
        if flow is not None and flow["closing_at"] is not None \
                and record.flags & (SYN | ACK) == SYN:
            retire(flow, flow["close_pending"] or "fin")
            flow = None
        if flow is None:
            if not record.flags & SYN:
                stats.orphan_packets += 1
                continue
            flow = {"key": key, "index": stats.flows_opened,
                    "records": [], "saw_syn": False, "fins": set(),
                    "closing_at": None, "close_pending": "",
                    "last_seen": now}
            live[key] = flow
            stats.flow_opened()
            while len(live) > DEFAULT_MAX_FLOWS:
                retire(next(iter(live.values())), "evicted")
        else:
            del live[key]
            live[key] = flow
        flow["records"].append(record)
        flow["last_seen"] = now
        if record.flags & SYN:
            flow["saw_syn"] = True
        if record.flags & RST:
            flow["close_pending"], flow["closing_at"] = "rst", now
        elif record.flags & FIN:
            flow["fins"].add(record.flow)
        elif len(flow["fins"]) >= 2 and record.is_pure_ack:
            flow["close_pending"], flow["closing_at"] = "fin", now
    for flow in sorted(live.values(), key=lambda f: f["index"]):
        retire(flow, flow["close_pending"] or "eof")
    return sorted(done, key=lambda f: f["index"])


def assert_column_path_matches(path, addresses=None):
    from repro.stream import demux_pcap, iter_pcap_columns
    from repro.trace.columns import PacketColumns
    from repro.trace.record import Trace

    reference_stats = IngestStats()
    records = list(iter_pcap(path, addresses=addresses,
                             stats=reference_stats))
    want = record_columns(records)
    packets = PacketColumns.concat(list(iter_pcap_columns(
        path, addresses=addresses)))
    trace = Trace.from_columns(packets)
    columns = trace.columns()
    assert columns.flows == want["flows"]
    assert columns.flow_ids.tolist() == want["flow_ids"]
    for name in ("timestamp", "seq", "ack", "flags", "payload", "window",
                 "mss_option", "corrupted", "seq_end"):
        assert getattr(columns, name).tolist() == want[name], name
    assert packets.packet_id.tolist() == want["packet_id"]
    assert trace._records is None           # nothing built them yet
    assert trace.records == records

    expected = record_demux(records, reference_stats)
    stats = IngestStats()
    flows = list(demux_pcap(path, addresses=addresses, stats=stats))
    assert [(f.index, str(f.key), f.close_reason, f.saw_syn,
             f.packet_count) for f in flows] \
        == [(f["index"], str(f["key"]), f["close_reason"], f["saw_syn"],
             len(f["records"])) for f in expected]
    for flow, reference in zip(flows, expected):
        assert flow.to_trace().records == reference["records"]
    assert stats.to_dict() == reference_stats.to_dict()
    assert [(w.kind, w.detail, w.packet_index) for w in stats.warnings] \
        == [(w.kind, w.detail, w.packet_index)
            for w in reference_stats.warnings]


def test_columns_match_records_on_fuzz_captures(tmp_path):
    from repro.fuzz.generator import iter_plans
    from repro.fuzz.ingredients import render_pcap
    from repro.fuzz.runner import build_capture

    for plan in iter_plans(0, 60):
        frames, names, _key, _label = build_capture(plan)
        path = tmp_path / f"plan-{plan.seed}.pcap"
        path.write_bytes(render_pcap(frames))
        assert_column_path_matches(path, names)


def interleaved_trace():
    """Six connections interleaved, each client on an address whose
    text sorts before the server's while its number sorts after
    (``10.0.0.1x`` against ``10.0.0.9``)."""
    from dataclasses import replace

    from repro.harness.corpus import interleave_traces
    from repro.packets import Endpoint
    from tests.conftest import cached_transfer

    traces, labels = [], []
    for i, (label, scenario) in enumerate([
            ("reno", "wan"), ("linux-1.0", "wan-lossy"), ("tahoe", "lan"),
            ("reno", "wan-lossy"), ("solaris-2.4", "wan"),
            ("linux-1.0", "lan")]):
        transfer = cached_transfer(label, scenario, data_size=8192)
        trace = transfer.sender_trace if i % 2 else transfer.receiver_trace
        client = trace.records[0].src.addr

        def move(endpoint, client=client, i=i):
            host = f"10.0.0.{10 + i}" if endpoint.addr == client \
                else "10.0.0.9"
            return Endpoint(host, endpoint.port)

        traces.append(replace(trace, records=[
            replace(r, src=move(r.src), dst=move(r.dst))
            for r in trace.records]))
        labels.append(label)
    return interleave_traces(traces, labels, start_interval=0.05).trace


def to_ethernet(blob: bytes) -> bytes:
    """A raw-IP pcap (big-endian) re-framed with Ethernet headers."""
    header = bytearray(blob[:24])
    header[20:24] = struct.pack(">I", LINKTYPE_ETHERNET)
    out, at = [bytes(header)], 24
    while at + 16 <= len(blob):
        seconds, micros, incl_len, orig_len = struct.unpack(
            ">IIII", blob[at:at + 16])
        out.append(struct.pack(">IIII", seconds, micros,
                               incl_len + len(ETHERNET_HEADER),
                               orig_len + len(ETHERNET_HEADER)))
        out.append(ETHERNET_HEADER + blob[at + 16:at + 16 + incl_len])
        at += 16 + incl_len
    return b"".join(out)


def test_columns_match_records_on_interleaved_captures(tmp_path):
    from repro.trace.pcap import write_pcap

    trace = interleaved_trace()
    big = tmp_path / "big.pcap"
    write_pcap(trace, big)
    write_pcap(trace, tmp_path / "little.pcap", byte_order="little")
    write_pcap(trace, tmp_path / "snap64.pcap", snaplen=64)
    blob = big.read_bytes()
    (tmp_path / "ethernet.pcap").write_bytes(to_ethernet(blob))
    (tmp_path / "torn.pcap").write_bytes(blob[:-7])
    (tmp_path / "torn-header.pcap").write_bytes(
        blob + struct.pack(">II", 1, 2))
    for name in ("big", "little", "snap64", "ethernet", "torn",
                 "torn-header"):
        assert_column_path_matches(tmp_path / f"{name}.pcap")
    # Many chunks and spans: rows of one flow cross batch boundaries.
    with mock.patch.object(reader_module, "CHUNK_BYTES", 4096), \
            mock.patch.object(wire, "DECODE_SPAN_BYTES", 1024):
        assert_column_path_matches(big)


def test_stream_analysis_builds_records_only_where_read(tmp_path,
                                                       record_builds):
    """Decode, demux and column building build no ``TraceRecord``; a
    whole streamed analysis of a clean capture builds only the
    handshake records pass one reads (a sender flow's SYN and SYN-ACK,
    a receiver flow's SYN)."""
    from repro.pipeline.runner import BatchItem, analyze_item_stream
    from repro.stream import demux_pcap
    from repro.trace.pcap import write_pcap

    path = tmp_path / "capture.pcap"
    write_pcap(interleaved_trace(), path)
    built = record_builds
    built.clear()                 # count only from the decode on
    flows = list(demux_pcap(path))
    for flow in flows:
        flow.to_trace().columns()
    assert len(flows) == 6 and built == []

    lines = analyze_item_stream(BatchItem(path.name, path))
    vantages = [json.loads(line.line)["vantage"] for line in lines]
    assert "receiver" in vantages and "sender" in vantages
    assert len(built) == sum(2 if vantage == "sender" else 1
                             for vantage in vantages)

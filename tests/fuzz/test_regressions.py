"""Fuzzer-found regressions, pinned.

Each test here reconstructs — via the fuzz manglers, exactly as the
fuzzer generates them — a wire shape that used to break the pipeline:

- a truncated MSS option escaped the option walk as a bare
  ``struct.error``, crashing streaming ingest instead of being
  counted as a decode error;
- a zero-length TCP option stalled the walk forever (guarded by the
  same fix);
- link-layer trailer padding leaked into checksum verification, so
  every padded frame was falsely reported corrupted;
- RST+ACK segments were counted as acknowledgments by
  ``Trace.acks()``, corrupting ack-policy analysis of aborted
  connections.
"""

import random

import pytest

from repro.fuzz.ingredients import (
    Frame,
    pad_frames,
    render_pcap,
    rst_abort,
    truncate_mss_frames,
    wrap_sequences,
    zero_length_options,
)
from repro.packets import ACK, RST, SYN, Endpoint
from repro.stream.demux import analyze_stream
from repro.stream.stats import IngestStats
from repro.trace.record import Trace, TraceRecord
from repro.trace.wire import (
    AddressMap,
    PacketDecodeError,
    decode_packet,
    encode_record,
)

from tests.fuzz.test_ingredients import transfer_trace


def syn_packet(addresses: AddressMap) -> bytes:
    record = TraceRecord(timestamp=0.0, src=Endpoint("sender", 1024),
                         dst=Endpoint("receiver", 9000), seq=100, ack=0,
                         flags=SYN, payload=0, window=8192,
                         mss_option=1460)
    return encode_record(record, addresses)


class TestTruncatedMssOption:
    """The minimized reproducer is a single SYN whose option area
    reads nop, nop, then an MSS option with no room for its body."""

    def test_decode_raises_classified_error_not_struct_error(self):
        addresses = AddressMap()
        frame, = truncate_mss_frames([Frame(0.0, syn_packet(addresses))],
                                     random.Random(0), 1.0)
        with pytest.raises(PacketDecodeError) as caught:
            decode_packet(frame.data, 0.0, addresses)
        assert caught.value.kind == "malformed"

    def test_bare_option_area_cut_mid_body(self):
        # The literal byte shape from the bug report: an MSS option
        # (kind=2, length=4) whose body runs past the option area —
        # the walk must not read beyond it.
        addresses = AddressMap()
        packet = bytearray(syn_packet(addresses))
        packet[40:44] = b"\x01\x02\x04\x05"  # nop, then MSS len 4 cut short
        with pytest.raises(PacketDecodeError):
            decode_packet(bytes(packet), 0.0, addresses)

    def test_streaming_ingest_counts_instead_of_crashing(self, tmp_path):
        addresses = AddressMap()
        frames = [Frame(r.timestamp, encode_record(r, addresses))
                  for r in transfer_trace()]
        mangled = truncate_mss_frames(frames, random.Random(0), 1.0)
        path = tmp_path / "truncated-mss.pcap"
        path.write_bytes(render_pcap(mangled))
        stats = IngestStats()
        # Pre-fix this raised struct.error out of the whole pipeline.
        list(analyze_stream(path, identify=False, stats=stats,
                            addresses=addresses))
        assert stats.decode_errors == 2       # both option-carrying SYNs
        assert stats.records_decoded == len(frames) - 2


class TestZeroLengthOption:
    def test_decode_raises_instead_of_looping(self):
        addresses = AddressMap()
        frame, = zero_length_options([Frame(0.0, syn_packet(addresses))],
                                     random.Random(0), 1.0)
        with pytest.raises(PacketDecodeError) as caught:
            decode_packet(frame.data, 0.0, addresses)
        assert "invalid length 0" in str(caught.value)


class TestTrailerPadding:
    def test_padded_frame_is_not_reported_corrupted(self):
        addresses = AddressMap()
        frames = [Frame(r.timestamp, encode_record(r, addresses))
                  for r in transfer_trace()]
        padded = pad_frames(frames, random.Random(1), pad_fraction=1.0)
        for frame in padded:
            decoded = decode_packet(frame.data, frame.timestamp, addresses)
            # Pre-fix the padding was checksummed as segment bytes and
            # every padded frame came back corrupted.
            assert not decoded.corrupted

    def test_padding_does_not_inflate_payload(self):
        addresses = AddressMap()
        frames = [Frame(r.timestamp, encode_record(r, addresses))
                  for r in transfer_trace()]
        padded = pad_frames(frames, random.Random(1), pad_fraction=1.0)
        for original, frame in zip(transfer_trace(), padded):
            decoded = decode_packet(frame.data, frame.timestamp, addresses)
            assert decoded.payload == original.payload


class TestSequenceWraparound:
    """A transfer crossing 2**32 mid-flight is perfectly legal TCP
    (the ISN is random); any raw sequence-number comparison in the
    pipeline would shatter the flow or crash on it.  Modular
    arithmetic (``seq_diff``/``seq_lt``) must carry it whole."""

    def test_wrapped_transfer_stays_one_whole_flow(self, tmp_path):
        addresses = AddressMap()
        trace = wrap_sequences(transfer_trace(), random.Random(0))
        frames = [Frame(r.timestamp, encode_record(r, addresses))
                  for r in trace.records]
        path = tmp_path / "wrap.pcap"
        path.write_bytes(render_pcap(frames))
        stats = IngestStats()
        reports = list(analyze_stream(path, identify=False, stats=stats,
                                      addresses=addresses))
        assert stats.records_decoded == len(trace)
        assert len(reports) == 1
        report = reports[0]
        assert report.error is None
        assert len(report.flow.records) == len(trace)


class TestRstExcludedFromAcks:
    def test_rst_abort_trace_yields_no_rst_acks(self):
        trace = rst_abort(transfer_trace(), random.Random(0))
        assert any(r.is_rst for r in trace)
        assert all(not r.is_rst for r in trace.acks())

    def test_hand_built_rst_ack_is_not_an_ack(self):
        sender = Endpoint("sender", 1024)
        receiver = Endpoint("receiver", 9000)
        records = [
            TraceRecord(timestamp=0.0, src=sender, dst=receiver, seq=0,
                        ack=0, flags=SYN, payload=0, window=8192),
            TraceRecord(timestamp=0.1, src=sender, dst=receiver, seq=1,
                        ack=1, flags=ACK, payload=512, window=8192),
            TraceRecord(timestamp=0.2, src=receiver, dst=sender, seq=1,
                        ack=513, flags=ACK, payload=0, window=8192),
            TraceRecord(timestamp=0.3, src=receiver, dst=sender, seq=1,
                        ack=513, flags=RST | ACK, payload=0, window=0),
        ]
        trace = Trace(records=records)
        acks = trace.acks()
        assert len(acks) == 1
        assert not acks[0].is_rst

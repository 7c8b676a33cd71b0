"""Incremental pcap reading: equivalence, damage tolerance, stats."""

import gc
import struct
import tracemalloc

import pytest

from repro.stream import IncrementalPcapReader, IngestStats, iter_pcap
from repro.harness.corpus import interleave_traces
from repro.stream import reader as reader_module
from repro.trace.pcap import read_pcap, write_pcap
from repro.trace.record import Trace, TraceRecord
from repro.trace.wire import AddressMap
from repro.packets import ACK, SYN, Endpoint

from tests.conftest import cached_transfer


@pytest.fixture
def wan_trace():
    return cached_transfer("reno").sender_trace


def _udp_packet() -> bytes:
    """A well-formed IPv4/UDP datagram (cross-traffic)."""
    payload = b"dns?" * 4
    udp = struct.pack("!HHHH", 53, 5353, 8 + len(payload), 0) + payload
    header = struct.pack("!BBHHHBBH4s4s", 0x45, 0, 20 + len(udp), 7, 0,
                         64, 17, 0, bytes([10, 0, 0, 1]),
                         bytes([10, 0, 0, 2]))
    return header + udp


def _append_packet(path, data: bytes, timestamp: float = 0.0) -> None:
    """Append one big-endian record to an existing big-endian pcap."""
    seconds = int(timestamp)
    micros = int(round((timestamp - seconds) * 1e6))
    with open(path, "ab") as handle:
        handle.write(struct.pack(">IIII", seconds, micros,
                                 len(data), len(data)))
        handle.write(data)


class TestEquivalence:
    @pytest.mark.parametrize("byte_order", ["big", "little"])
    def test_matches_eager_reader_both_orders(self, wan_trace, tmp_path,
                                              byte_order):
        path = tmp_path / "t.pcap"
        addresses = AddressMap()
        write_pcap(wan_trace, path, addresses=addresses,
                   byte_order=byte_order)
        assert list(iter_pcap(path, addresses=addresses)) \
            == read_pcap(path, addresses=addresses).records

    def test_is_a_lazy_generator(self, wan_trace, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(wan_trace, path)
        iterator = iter_pcap(path)
        first = next(iterator)
        assert first.is_syn
        iterator.close()

    def test_stats_count_decodes(self, wan_trace, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(wan_trace, path)
        stats = IngestStats()
        records = list(iter_pcap(path, stats=stats))
        assert stats.packets_seen == len(wan_trace)
        assert stats.records_decoded == len(records) == len(wan_trace)
        assert stats.bytes_seen > 0
        assert stats.warnings_total == 0


class TestDamageTolerance:
    def test_non_pcap_still_raises(self, tmp_path):
        path = tmp_path / "bogus.pcap"
        path.write_bytes(b"not a pcap file at all........")
        with pytest.raises(ValueError):
            list(iter_pcap(path))

    def test_udp_cross_traffic_counted_and_skipped(self, wan_trace,
                                                   tmp_path):
        path = tmp_path / "mixed.pcap"
        write_pcap(wan_trace, path)
        _append_packet(path, _udp_packet(), timestamp=999.0)
        stats = IngestStats()
        records = list(iter_pcap(path, stats=stats))
        assert len(records) == len(wan_trace)
        assert stats.non_tcp_packets == 1
        assert any(w.kind == "non-tcp" for w in stats.warnings)

    def test_malformed_packet_counted_as_decode_error(self, wan_trace,
                                                      tmp_path):
        path = tmp_path / "mangled.pcap"
        write_pcap(wan_trace, path)
        _append_packet(path, b"\x45\x00\x00", timestamp=999.0)
        stats = IngestStats()
        records = list(iter_pcap(path, stats=stats))
        assert len(records) == len(wan_trace)
        assert stats.decode_errors == 1
        assert any(w.kind == "decode-error" for w in stats.warnings)

    def test_truncated_final_record_yields_partial_result(self, tmp_path):
        record = TraceRecord(timestamp=1.0,
                             src=Endpoint("sender", 1024),
                             dst=Endpoint("receiver", 9000),
                             seq=100, ack=1, flags=ACK, payload=512,
                             window=8192)
        path = tmp_path / "cut.pcap"
        write_pcap(Trace(records=[record]), path)
        data = path.read_bytes()
        # Keep the 40 header bytes of the one record, drop its payload.
        path.write_bytes(data[:24 + 16 + 40])
        stats = IngestStats()
        loaded = list(iter_pcap(path, stats=stats))
        assert len(loaded) == 1
        assert loaded[0].payload == 512   # from the IP total length
        assert not loaded[0].corrupted    # checksum can't be verified
        assert stats.truncated_records == 1
        assert any(w.kind == "truncated-record" for w in stats.warnings)

    def test_truncation_mid_headers_drops_record_with_warning(
            self, wan_trace, tmp_path):
        path = tmp_path / "cut.pcap"
        write_pcap(wan_trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])   # leaves < a TCP header
        stats = IngestStats()
        loaded = list(iter_pcap(path, stats=stats))
        assert len(loaded) == len(wan_trace) - 1
        assert stats.truncated_records == 1

    def test_truncated_record_header_warns(self, wan_trace, tmp_path):
        path = tmp_path / "cut.pcap"
        write_pcap(wan_trace, path)
        data = path.read_bytes()
        # Cut inside the final record's 16-byte per-packet header.
        final_start = len(data) - 16 - 40
        path.write_bytes(data[:final_start + 7])
        stats = IngestStats()
        loaded = list(iter_pcap(path, stats=stats))
        assert len(loaded) == len(wan_trace) - 1
        assert any(w.kind == "truncated-record" for w in stats.warnings)


class TestIncrementalReader:
    """The pollable reader behind ``tcpanaly serve``: a half-written
    trailing record is *pending bytes*, not damage, until finalize."""

    def test_partial_trailing_record_is_retried_not_warned(
            self, wan_trace, tmp_path):
        path = tmp_path / "grow.pcap"
        write_pcap(wan_trace, path)
        data = path.read_bytes()
        cut = len(data) - 25              # inside the final record
        path.write_bytes(data[:cut])
        stats = IngestStats()
        reader = IncrementalPcapReader(path, stats=stats)
        records = list(reader.poll())
        assert len(records) == len(wan_trace) - 1
        assert stats.truncated_records == 0   # pending, not truncated
        assert reader.resume_offset < cut     # parked before the partial
        # The rest of the record lands: the same offset now parses.
        with open(path, "ab") as handle:
            handle.write(data[cut:])
        records.extend(reader.poll())
        assert len(records) == len(wan_trace)
        assert reader.resume_offset == len(data)
        reader.close()

    def test_chunked_polls_match_one_shot_read(self, wan_trace, tmp_path):
        whole = tmp_path / "whole.pcap"
        addresses = AddressMap()
        write_pcap(wan_trace, whole, addresses=addresses)
        data = whole.read_bytes()
        path = tmp_path / "grow.pcap"
        path.write_bytes(b"")
        reader = IncrementalPcapReader(path, addresses=addresses)
        records = []
        for start in range(0, len(data), 700):
            with open(path, "ab") as handle:
                handle.write(data[start:start + 700])
            records.extend(reader.poll())
        records.extend(reader.finalize())
        reader.close()
        assert records == list(iter_pcap(whole, addresses=addresses))

    @pytest.mark.parametrize("chunk", [8, 40])
    def test_records_larger_than_a_chunk(self, wan_trace, tmp_path,
                                         monkeypatch, chunk):
        """A chunk smaller than one record widens the read to that
        record; what a poll yields and commits does not change."""
        whole = tmp_path / "whole.pcap"
        addresses = AddressMap()
        write_pcap(wan_trace, whole, addresses=addresses)
        _append_packet(whole, _udp_packet(), 99.0)
        data = whole.read_bytes()

        def ingest(step):
            path = tmp_path / "grow.pcap"
            path.write_bytes(b"")
            stats = IngestStats()
            reader = IncrementalPcapReader(path, addresses=addresses,
                                           stats=stats)
            records, offsets = [], []
            for start in range(0, len(data), step):
                with open(path, "ab") as handle:
                    handle.write(data[start:start + step])
                records.extend(reader.poll())
                offsets.append(reader.resume_offset)
            records.extend(reader.finalize())
            reader.close()
            return records, stats.to_dict(), offsets

        for step in (len(data), 700):     # complete file, growing file
            default = ingest(step)
            with monkeypatch.context() as patch:
                patch.setattr(reader_module, "CHUNK_BYTES", chunk)
                assert ingest(step) == default
        assert default[1]["non_tcp_packets"] == 1

    def test_finalize_applies_end_of_capture_semantics(self, wan_trace,
                                                       tmp_path):
        path = tmp_path / "cut.pcap"
        write_pcap(wan_trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])      # final record cut mid-headers
        stats = IngestStats()
        reader = IncrementalPcapReader(path, stats=stats)
        records = list(reader.poll())
        assert stats.truncated_records == 0
        list(reader.finalize())
        reader.close()
        assert len(records) == len(wan_trace) - 1
        assert stats.truncated_records == 1
        assert any(w.kind == "truncated-record" for w in stats.warnings)

    def test_file_may_not_exist_yet(self, wan_trace, tmp_path):
        path = tmp_path / "later.pcap"
        reader = IncrementalPcapReader(path)
        assert list(reader.poll()) == []
        assert reader.resume_offset == 0
        write_pcap(wan_trace, path)
        assert len(list(reader.poll())) == len(wan_trace)
        reader.close()

    def test_bad_magic_raises_value_error(self, tmp_path):
        path = tmp_path / "bogus.pcap"
        path.write_bytes(b"x" * 64)
        reader = IncrementalPcapReader(path)
        with pytest.raises(ValueError):
            list(reader.poll())
        reader.close()


class TestUnknownLinkType:
    def _with_linktype(self, path, linktype: int) -> None:
        data = bytearray(path.read_bytes())
        data[20:24] = struct.pack(">I", linktype)
        path.write_bytes(bytes(data))

    def test_strict_mode_raises(self, wan_trace, tmp_path):
        path = tmp_path / "odd.pcap"
        write_pcap(wan_trace, path)
        self._with_linktype(path, 999)
        with pytest.raises(ValueError, match="unsupported link type"):
            read_pcap(path)

    def test_tolerant_mode_warns_and_decodes_raw(self, wan_trace,
                                                 tmp_path):
        path = tmp_path / "odd.pcap"
        write_pcap(wan_trace, path)
        self._with_linktype(path, 999)
        stats = IngestStats()
        records = list(iter_pcap(path, stats=stats))
        # The payloads are raw IP, so the best-effort decode succeeds.
        assert len(records) == len(wan_trace)
        assert any(w.kind == "unknown-linktype" for w in stats.warnings)


class TestWarningCap:
    def test_warnings_capped_but_counted(self, tmp_path, wan_trace):
        path = tmp_path / "noisy.pcap"
        write_pcap(wan_trace, path)
        for i in range(10):
            _append_packet(path, _udp_packet(), timestamp=999.0 + i)
        stats = IngestStats(max_warnings=3)
        list(iter_pcap(path, stats=stats))
        assert len(stats.warnings) == 3
        assert stats.warnings_total == 10
        assert stats.non_tcp_packets == 10


class TestDecodeTransient:
    # tracemalloc peak of list(iter_pcap(path)) per capture byte on a
    # 2.4 MB interleaved capture: 10.9 when each chunk's packets were
    # copied, joined and prefix-summed; 1.96 decoding in place, where
    # the chunk itself and the returned records are most of it.
    MAX_PEAK_PER_CAPTURE_BYTE = 3.0

    def test_decoding_allocates_little_beside_the_chunk(self, wan_trace,
                                                        tmp_path):
        copies = 40
        capture = interleave_traces([wan_trace] * copies, ["reno"] * copies)
        path = tmp_path / "interleaved.pcap"
        write_pcap(capture.trace, path)
        size = path.stat().st_size
        assert size >= 1 << 20
        gc.collect()
        tracemalloc.start()
        try:
            records = list(iter_pcap(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == len(capture.trace)
        assert peak / size < self.MAX_PEAK_PER_CAPTURE_BYTE

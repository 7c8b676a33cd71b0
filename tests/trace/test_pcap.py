"""pcap container round-trips."""

import struct

import pytest

from repro.trace.pcap import pcap_chunks, read_pcap, write_pcap
from repro.trace.wire import AddressMap

from tests.conftest import cached_transfer


@pytest.fixture
def wan_trace():
    return cached_transfer("reno").sender_trace


class TestRoundTrip:
    def test_record_count_preserved(self, wan_trace, tmp_path):
        path = tmp_path / "trace.pcap"
        write_pcap(wan_trace, path)
        assert len(read_pcap(path)) == len(wan_trace)

    def test_headers_preserved(self, wan_trace, tmp_path):
        path = tmp_path / "trace.pcap"
        addresses = AddressMap()
        write_pcap(wan_trace, path, addresses=addresses)
        loaded = read_pcap(path, addresses=addresses)
        for original, decoded in zip(wan_trace, loaded):
            assert decoded.seq == original.seq
            assert decoded.ack == original.ack
            assert decoded.flags == original.flags
            assert decoded.payload == original.payload
            assert decoded.src == original.src

    def test_timestamps_preserved_to_microseconds(self, wan_trace, tmp_path):
        path = tmp_path / "trace.pcap"
        write_pcap(wan_trace, path)
        for original, decoded in zip(wan_trace, read_pcap(path)):
            assert decoded.timestamp == pytest.approx(original.timestamp,
                                                      abs=2e-6)

    def test_analysis_works_on_reloaded_trace(self, wan_trace, tmp_path):
        from repro.core import analyze_sender
        from repro.tcp.catalog import get_behavior
        path = tmp_path / "trace.pcap"
        addresses = AddressMap()
        write_pcap(wan_trace, path, addresses=addresses)
        loaded = read_pcap(path, addresses=addresses)
        analysis = analyze_sender(loaded, get_behavior("reno"))
        assert analysis.violation_count == 0

    def test_snaplen_truncates(self, wan_trace, tmp_path):
        path = tmp_path / "trace.pcap"
        write_pcap(wan_trace, path, snaplen=60)
        loaded = read_pcap(path)
        assert len(loaded) == len(wan_trace)
        # payload length still read from the IP header's total length
        assert any(r.payload > 0 for r in loaded)

    def test_snaplen_disables_checksum_verification(self, tmp_path):
        transfer = cached_transfer("reno", "lossy-corrupting", seed=1)
        path = tmp_path / "trace.pcap"
        write_pcap(transfer.receiver_trace, path, snaplen=60)
        loaded = read_pcap(path)
        assert not any(r.corrupted for r in loaded)

    def test_full_capture_preserves_corruption(self, tmp_path):
        transfer = cached_transfer("reno", "lossy-corrupting", seed=1)
        path = tmp_path / "trace.pcap"
        write_pcap(transfer.receiver_trace, path)
        loaded = read_pcap(path)
        original_corrupt = sum(r.corrupted for r in transfer.receiver_trace)
        assert sum(r.corrupted for r in loaded) == original_corrupt > 0


class TestByteOrders:
    @pytest.mark.parametrize("byte_order", ["big", "little"])
    def test_round_trip_under_both_orders(self, wan_trace, tmp_path,
                                          byte_order):
        path = tmp_path / f"{byte_order}.pcap"
        addresses = AddressMap()
        write_pcap(wan_trace, path, addresses=addresses,
                   byte_order=byte_order)
        loaded = read_pcap(path, addresses=addresses)
        assert len(loaded) == len(wan_trace)
        for original, decoded in zip(wan_trace, loaded):
            assert decoded.seq == original.seq
            assert decoded.timestamp == pytest.approx(original.timestamp,
                                                      abs=2e-6)

    def test_little_endian_magic_is_swapped_on_disk(self, wan_trace,
                                                    tmp_path):
        path = tmp_path / "le.pcap"
        write_pcap(wan_trace, path, byte_order="little")
        magic, = struct.unpack(">I", path.read_bytes()[:4])
        assert magic == 0xD4C3B2A1

    def test_unknown_byte_order_rejected(self, wan_trace, tmp_path):
        with pytest.raises(ValueError):
            write_pcap(wan_trace, tmp_path / "x.pcap", byte_order="middle")
        assert not (tmp_path / "x.pcap").exists()


class TestFileFormat:
    def test_magic_and_linktype(self, wan_trace, tmp_path):
        path = tmp_path / "trace.pcap"
        write_pcap(wan_trace, path)
        header = path.read_bytes()[:24]
        magic, = struct.unpack("!I", header[:4])
        assert magic == 0xA1B2C3D4
        linktype, = struct.unpack("!I", header[20:24])
        assert linktype == 101  # LINKTYPE_RAW

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bogus.pcap"
        path.write_bytes(b"not a pcap file at all........")
        with pytest.raises(ValueError):
            read_pcap(path)

    def test_rejects_short_file(self, tmp_path):
        path = tmp_path / "short.pcap"
        path.write_bytes(b"\xa1\xb2")
        with pytest.raises(ValueError):
            read_pcap(path)

    def test_truncated_final_packet_tolerated(self, wan_trace, tmp_path):
        path = tmp_path / "trace.pcap"
        write_pcap(wan_trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        loaded = read_pcap(path)
        assert len(loaded) == len(wan_trace) - 1

    def test_final_packet_cut_after_headers_kept_as_partial(self, tmp_path):
        """A trailing record that keeps its headers survives the cut."""
        transfer = cached_transfer("reno")
        trace = transfer.sender_trace
        # Find a trailing data packet layout: rewrite the file so it
        # ends right after the final record's 40 header bytes.
        path = tmp_path / "trace.pcap"
        data_record = next(r for r in reversed(trace.records)
                           if r.payload > 0)
        from repro.trace.record import Trace
        write_pcap(Trace(records=[*trace.records[:3], data_record]), path)
        whole = path.read_bytes()
        cut = len(whole) - data_record.payload
        path.write_bytes(whole[:cut])
        loaded = read_pcap(path)
        assert len(loaded) == 4
        assert loaded[-1].payload == data_record.payload
        assert not loaded[-1].corrupted   # checksum unverifiable


class TestFraming:
    """The one record framer every pcap writer goes through."""

    @staticmethod
    def record_header(frame, byte_order="big"):
        blob = b"".join(pcap_chunks([frame], byte_order=byte_order))
        assert blob[40:] == frame[1]    # after the 24 + 16 header bytes
        prefix = ">" if byte_order == "big" else "<"
        return struct.unpack(prefix + "IIII", blob[24:40])

    @pytest.mark.parametrize("byte_order", ["big", "little"])
    def test_whole_frame_declares_its_own_length(self, byte_order):
        assert self.record_header((2.25, b"x" * 40, None, None),
                                  byte_order) == (2, 250000, 40, 40)

    def test_honest_truncation_keeps_the_original_length(self):
        assert self.record_header((0.0, b"x" * 28, 60, None)) \
            == (0, 0, 28, 60)

    def test_torn_record_declares_more_than_follows(self):
        assert self.record_header((0.0, b"x" * 10, None, 16)) \
            == (0, 0, 16, 16)

    def test_microsecond_rounding_carries_into_seconds(self):
        assert self.record_header((4.9999996, b"", None, None)) \
            == (5, 0, 0, 0)

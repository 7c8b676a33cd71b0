"""Tailing a growing capture: incremental consumption, honest lag."""

import pytest

from repro.serve import CaptureTailer
from repro.serve import tailer as tailer_module
from repro.trace.pcap import write_pcap
from repro.trace.wire import AddressMap

from tests.conftest import cached_transfer


@pytest.fixture
def capture_bytes(tmp_path):
    trace = cached_transfer("reno").sender_trace
    path = tmp_path / "whole.pcap"
    write_pcap(trace, path, addresses=AddressMap())
    return path.read_bytes(), len(trace)


class TestCaptureTailer:
    def test_source_defaults_to_the_file_name(self, tmp_path):
        tailer = CaptureTailer(tmp_path / "eth0.pcap")
        assert tailer.source == "eth0.pcap"

    def test_chunked_growth_consumes_everything(self, tmp_path,
                                                capture_bytes):
        data, total = capture_bytes
        path = tmp_path / "grow.pcap"
        path.write_bytes(b"")
        tailer = CaptureTailer(path)
        for start in range(0, len(data), 1000):
            with open(path, "ab") as handle:
                handle.write(data[start:start + 1000])
            tailer.poll()
        flows = tailer.finalize()
        assert tailer.records_consumed == total
        assert tailer.ingest_lag == 0
        assert len(flows) == 1
        assert len(flows[0].packets().records()) == total

    def test_partial_trailing_record_keeps_lag_honest(self, tmp_path,
                                                      capture_bytes):
        data, total = capture_bytes
        path = tmp_path / "grow.pcap"
        cut = len(data) - 25          # inside the final record
        path.write_bytes(data[:cut])
        tailer = CaptureTailer(path)
        tailer.poll()
        assert tailer.records_consumed == total - 1
        assert tailer.ingest_lag > 0  # the partial bytes are pending
        with open(path, "ab") as handle:
            handle.write(data[cut:])
        tailer.poll()
        assert tailer.records_consumed == total
        assert tailer.ingest_lag == 0

    def test_records_per_poll_bounds_one_poll(self, tmp_path,
                                              capture_bytes, monkeypatch):
        data, total = capture_bytes
        path = tmp_path / "big.pcap"
        path.write_bytes(data)
        monkeypatch.setattr(tailer_module, "RECORDS_PER_POLL", 10)
        tailer = CaptureTailer(path)
        tailer.poll()
        assert tailer.records_consumed == 10
        assert tailer.ingest_lag > 0
        while tailer.records_consumed < total:
            before = tailer.records_consumed
            tailer.poll()
            assert tailer.records_consumed > before

    def test_non_pcap_source_fails_once_not_forever(self, tmp_path):
        path = tmp_path / "bogus.pcap"
        path.write_bytes(b"this is not a capture file, sorry...")
        tailer = CaptureTailer(path)
        assert tailer.poll() == []
        assert tailer.failed is not None
        assert tailer.poll() == []    # quarantined: no further reads

    def test_not_yet_existing_file_polls_empty(self, tmp_path,
                                               capture_bytes):
        data, total = capture_bytes
        path = tmp_path / "later.pcap"
        tailer = CaptureTailer(path)
        assert tailer.poll() == []
        assert tailer.ingest_lag == 0
        path.write_bytes(data)
        tailer.poll()
        assert tailer.records_consumed == total


class TestTailerFailureClassification:
    def test_truncation_in_place_is_a_rotated_failure(self, tmp_path,
                                                      capture_bytes):
        data, _total = capture_bytes
        path = tmp_path / "rot.pcap"
        path.write_bytes(data)
        tailer = CaptureTailer(path)
        tailer.poll()
        assert tailer.records_consumed > 0
        # logrotate-style copytruncate: the file shrinks under us.
        path.write_bytes(data[:50])
        assert tailer.poll() == []
        assert tailer.rotated
        assert tailer.failed is not None
        assert tailer.failed.kind == "io"

    def test_recreation_with_new_inode_is_rotated(self, tmp_path,
                                                  capture_bytes):
        data, _total = capture_bytes
        path = tmp_path / "rot.pcap"
        path.write_bytes(data[:2000])
        tailer = CaptureTailer(path)
        tailer.poll()
        # Replace with a different, *larger* file: size alone cannot
        # catch this — the inode comparison must.
        path.unlink()
        path.write_bytes(b"\x00" * (len(data) + 4096))
        assert tailer.poll() == []
        assert tailer.rotated

    def test_deleted_mid_tail_quarantines_as_io(self, tmp_path,
                                                capture_bytes):
        data, _total = capture_bytes
        path = tmp_path / "gone.pcap"
        path.write_bytes(data)
        tailer = CaptureTailer(path)
        tailer.poll()
        path.unlink()
        assert tailer.poll() == []
        assert tailer.failed is not None
        assert tailer.failed.kind == "io"
        assert not tailer.rotated         # deletion is not rotation
        assert tailer.poll() == []        # quarantined: stays failed

    def test_growth_is_never_mistaken_for_rotation(self, tmp_path,
                                                   capture_bytes):
        data, total = capture_bytes
        path = tmp_path / "grow.pcap"
        path.write_bytes(data[:2000])
        tailer = CaptureTailer(path)
        tailer.poll()
        with open(path, "ab") as handle:
            handle.write(data[2000:])
        tailer.poll()
        assert tailer.failed is None
        assert not tailer.rotated
        tailer.finalize()
        assert tailer.records_consumed == total

    def test_decode_storm_is_quarantined_not_retried(self, tmp_path):
        from repro.harness.faults import decode_storm_bytes
        path = tmp_path / "storm.pcap"
        path.write_bytes(decode_storm_bytes(records=256))
        tailer = CaptureTailer(path)
        assert tailer.poll() == []
        assert tailer.failed is not None
        assert tailer.failed.kind == "decode"
        assert "decode storm" in str(tailer.failed)

    def test_a_few_leading_decode_errors_are_not_a_storm(self, tmp_path,
                                                         capture_bytes):
        import struct
        data, total = capture_bytes
        path = tmp_path / "noisy.pcap"
        # 8 garbage records (well under the threshold), then the real
        # capture's records: the tailer must keep going.  Noise is
        # framed in the capture's own (big-endian) record format, with
        # an IP version nibble of 0 so every packet decode-errors.
        noise = b""
        for index in range(8):
            payload = bytes((index * 37 + j) % 256 for j in range(40))
            payload = b"\x00" + payload[1:]
            noise += struct.pack(">IIII", 0, index,
                                 len(payload), len(payload)) + payload
        header_len = 24
        path.write_bytes(data[:header_len] + noise + data[header_len:])
        tailer = CaptureTailer(path)
        tailer.poll()
        assert tailer.failed is None
        assert tailer.stats.decode_errors == 8
        assert tailer.records_consumed == total

    def test_shed_retires_oldest_flows_early(self, tmp_path,
                                             capture_bytes):
        data, _total = capture_bytes
        path = tmp_path / "shed.pcap"
        path.write_bytes(data[:len(data) // 2])
        tailer = CaptureTailer(path)
        tailer.poll()
        assert tailer.live_flows == 1
        shed = tailer.shed(5)
        assert len(shed) == 1
        assert shed[0].close_reason == "shed"
        assert tailer.live_flows == 0

    def test_drain_open_flows_for_rotation_restart(self, tmp_path,
                                                   capture_bytes):
        data, _total = capture_bytes
        path = tmp_path / "rot.pcap"
        path.write_bytes(data)
        tailer = CaptureTailer(path)
        tailer.poll()
        path.write_bytes(data[:50])       # rotate in place
        tailer.poll()
        assert tailer.rotated
        flows = tailer.drain_open_flows()
        assert len(flows) == 1            # the half-tailed flow
        assert flows[0].packets().records()

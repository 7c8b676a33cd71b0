"""Per-connection statistics."""

import pytest

from repro.analysis.connstats import connection_stats
from repro.trace.record import Trace

from tests.conftest import cached_transfer


class TestConnectionStats:
    def test_clean_transfer_numbers(self):
        transfer = cached_transfer("reno")
        stats = connection_stats(transfer.sender_trace)
        assert stats.unique_bytes == 51200
        assert stats.retransmitted_packets == 0
        assert stats.goodput_ratio == 1.0
        assert stats.syn_count == 1
        assert stats.fin_seen and not stats.rst_seen
        assert stats.throughput == pytest.approx(
            51200 / stats.duration)

    def test_lossy_transfer_accounts_retransmissions(self):
        transfer = cached_transfer("linux-1.0", "wan-lossy", seed=3)
        stats = connection_stats(transfer.sender_trace)
        assert stats.unique_bytes == 51200
        assert stats.retransmitted_packets > 50
        assert stats.goodput_ratio < 0.75
        sender = transfer.result.sender
        assert stats.total_data_packets == sender.stats_data_packets

    def test_rtt_samples_match_path(self):
        transfer = cached_transfer("reno")
        stats = connection_stats(transfer.sender_trace)
        # wan scenario: RTT floor ~71 ms; delayed acks stretch the max.
        assert 0.060 <= stats.rtt_min <= 0.090
        assert stats.rtt_min <= stats.rtt_median <= stats.rtt_max

    def test_burst_measured(self):
        # Net/3's bug gives a huge burst; normal slow start does not.
        from dataclasses import replace
        from repro.capture.filter import PacketFilter, attach_at_host
        from repro.netsim.engine import Engine
        from repro.netsim.network import build_path
        from repro.tcp.catalog import get_behavior
        from repro.tcp.connection import run_bulk_transfer
        engine = Engine()
        path = build_path(engine)
        packet_filter = PacketFilter(vantage="sender")
        attach_at_host(path.sender, packet_filter)
        no_option = replace(get_behavior("reno"), offers_mss_option=False)
        run_bulk_transfer(get_behavior("net3"), no_option,
                          data_size=51200, receiver_buffer=16384, path=path)
        stats = connection_stats(packet_filter.trace())
        assert stats.max_burst >= 25

    def test_idle_time_counted(self):
        transfer = cached_transfer("solaris-2.4", "transatlantic",
                                   data_size=20480)
        stats = connection_stats(transfer.sender_trace)
        assert stats.idle_time >= 0.0

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            connection_stats(Trace())

    def test_render_mentions_key_numbers(self):
        stats = connection_stats(cached_transfer("reno").sender_trace)
        text = stats.render()
        assert "51200 unique bytes" in text
        assert "rtt" in text


"""Per-connection statistics."""

import pytest

from repro.analysis.connstats import (
    BURST_WINDOW,
    IDLE_THRESHOLD,
    ConnectionStats,
    connection_stats,
)
from repro.tcp.catalog import CATALOG
from repro.trace.record import Trace
from repro.units import seq_diff, seq_ge, seq_gt

from tests.conftest import cached_transfer


def record_loop_stats(trace: Trace) -> ConnectionStats:
    """Oracle for ``connection_stats``: the per-record loop it replaced,
    reading ``record.flow`` and the other record properties."""
    if not trace.records:
        raise ValueError("empty trace")
    flow = trace.primary_flow()
    reverse = flow.reversed()
    stats = ConnectionStats(flow=flow)

    records = trace.records
    stats.duration = records[-1].timestamp - records[0].timestamp

    highest_sent = None
    total_data_bytes = 0
    burst = []
    previous_time = None
    rtt_samples = []
    pending = []   # (seq_end, first-send time)
    seen_starts = set()

    for record in records:
        if previous_time is not None:
            gap = record.timestamp - previous_time
            if gap > IDLE_THRESHOLD:
                stats.idle_time += gap
        previous_time = record.timestamp

        if record.flow == flow:
            if record.is_syn:
                stats.syn_count += 1
            if record.is_fin:
                stats.fin_seen = True
            if record.is_rst:
                stats.rst_seen = True
            if record.payload > 0:
                stats.total_data_packets += 1
                total_data_bytes += record.payload
                if record.seq in seen_starts or (
                        highest_sent is not None
                        and seq_gt(highest_sent, record.seq)):
                    stats.retransmitted_packets += 1
                else:
                    pending.append((record.seq_end, record.timestamp))
                seen_starts.add(record.seq)
                if highest_sent is None or seq_gt(record.seq_end,
                                                  highest_sent):
                    if highest_sent is not None:
                        stats.unique_bytes += seq_diff(record.seq_end,
                                                       highest_sent)
                    else:
                        stats.unique_bytes += record.payload
                    highest_sent = record.seq_end
                burst = [t for t in burst
                         if record.timestamp - t <= BURST_WINDOW]
                burst.append(record.timestamp)
                stats.max_burst = max(stats.max_burst, len(burst))
        elif record.flow == reverse and record.has_ack \
                and not record.is_syn:
            stats.acks += 1
            while pending and seq_ge(record.ack, pending[0][0]):
                seq_end, sent_at = pending.pop(0)
                rtt_samples.append(record.timestamp - sent_at)

    if stats.duration > 0:
        stats.throughput = stats.unique_bytes / stats.duration
    if total_data_bytes > 0:
        stats.goodput_ratio = stats.unique_bytes / total_data_bytes
    if rtt_samples:
        ordered = sorted(rtt_samples)
        stats.rtt_min = ordered[0]
        stats.rtt_median = ordered[len(ordered) // 2]
        stats.rtt_max = ordered[-1]
    return stats


def assert_matches_record_loop(got: ConnectionStats,
                               want: ConnectionStats) -> None:
    assert got == want                  # every field, floats exactly
    assert got.render() == want.render()


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



class TestColumnWalkMatchesRecordLoop:
    """``connection_stats`` walks columns; the record loop it replaced
    (:func:`record_loop_stats`) must compute the same stats."""

    @pytest.mark.parametrize("implementation", sorted(CATALOG))
    def test_catalog_stacks_on_wan_lossy(self, implementation):
        transfer = cached_transfer(implementation, "wan-lossy")
        for trace in (transfer.sender_trace, transfer.receiver_trace):
            assert_matches_record_loop(connection_stats(trace),
                                       record_loop_stats(trace))

    def test_every_flow_of_the_fuzz_captures(self, tmp_path):
        from repro.fuzz.generator import iter_plans
        from repro.fuzz.ingredients import render_pcap
        from repro.fuzz.runner import build_capture
        from repro.stream import demux_pcap

        flows = 0
        for plan in iter_plans(0, 60):
            frames, addresses, _key, _impl = build_capture(plan)
            path = tmp_path / f"plan-{plan.seed}.pcap"
            path.write_bytes(render_pcap(frames))
            for flow in demux_pcap(path, addresses=addresses):
                # Two traces: the oracle's record reads must not feed
                # the column walk.
                assert_matches_record_loop(
                    connection_stats(flow.to_trace()),
                    record_loop_stats(flow.to_trace()))
                flows += 1
        assert flows >= 60

"""Serve metrics: rolling windows, payload accounting, snapshots."""

import pytest

from repro.packets import ACK, Endpoint
from repro.serve import RollingWindow, ServeMetrics, flow_retransmission_rate
from repro.trace.record import Trace, TraceRecord


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestRollingWindow:
    def test_rejects_nonpositive_span(self):
        with pytest.raises(ValueError):
            RollingWindow(span=0.0)

    def test_old_observations_fall_off(self):
        clock = FakeClock()
        window = RollingWindow(span=10.0, clock=clock)
        window.observe("a")
        clock.now = 5.0
        window.observe("b")
        assert window.values() == ["a", "b"]
        clock.now = 10.5           # "a" is now 10.5s old, past the span
        assert window.values() == ["b"]
        assert len(window) == 1

    def test_counts_tally_discrete_labels(self):
        window = RollingWindow(span=100.0, clock=FakeClock())
        for label in ("reno", "tahoe", "reno"):
            window.observe(label)
        assert window.counts() == {"reno": 2, "tahoe": 1}

    def test_mean_of_numeric_observations(self):
        window = RollingWindow(span=100.0, clock=FakeClock())
        assert window.mean() is None
        window.observe(0.0)
        window.observe(0.5)
        assert window.mean() == 0.25


class TestServeMetrics:
    def test_identified_payload_tallies_the_best_fit(self):
        metrics = ServeMetrics(clock=FakeClock())
        metrics.observe_payload({
            "trace": "cap.pcap#flow-0000",
            "identification": {"best": "reno", "best_category": "close"},
        })
        assert metrics.flows_completed == 1
        assert metrics.identifications.counts() == {"reno": 1}

    def test_non_close_best_counts_as_no_fit(self):
        metrics = ServeMetrics(clock=FakeClock())
        metrics.observe_payload({
            "identification": {"best": "reno", "best_category": "imperfect"},
        })
        assert metrics.identifications.counts() == {"(no close fit)": 1}

    def test_error_payload_tallies_quarantine_kind(self):
        metrics = ServeMetrics(clock=FakeClock())
        metrics.observe_payload({"trace": "x", "error_kind": "decode",
                                 "error": "boom"})
        assert metrics.flows_quarantined == 1
        assert metrics.quarantines.counts() == {"decode": 1}
        assert metrics.identifications.counts() == {}

    def test_snapshot_is_json_shaped_and_stable(self):
        import json

        clock = FakeClock()
        metrics = ServeMetrics(window=60.0, clock=clock)
        metrics.records_ingested = 7
        metrics.paused = True
        clock.now = 2.0
        snapshot = json.loads(json.dumps(metrics.to_dict()))
        assert snapshot["uptime_seconds"] == 2.0
        assert snapshot["counters"]["records_ingested"] == 7
        assert snapshot["gauges"]["paused"] is True
        assert snapshot["rolling"]["window_seconds"] == 60.0

    def test_retirement_hook_tallies_close_reasons(self):
        class FlowStub:
            close_reason = "fin"

            def to_trace(self):
                return Trace()

        metrics = ServeMetrics(clock=FakeClock())
        metrics.observe_retirement(FlowStub())
        metrics.observe_retirement(FlowStub())
        assert metrics.retirements.counts() == {"fin": 2}
        assert metrics.retransmission_rates.values() == [0.0, 0.0]


class TestFlowRetransmissionRate:
    SRC = Endpoint("sender", 1024)
    DST = Endpoint("receiver", 9000)

    def rec(self, seq: int, payload: int = 512) -> TraceRecord:
        return TraceRecord(timestamp=0.0, src=self.SRC, dst=self.DST,
                           seq=seq, ack=0, flags=ACK, payload=payload,
                           window=8192)

    def test_zero_without_data_packets(self):
        assert flow_retransmission_rate(
            Trace(records=[self.rec(0, payload=0)])) == 0.0
        assert flow_retransmission_rate(Trace()) == 0.0

    def test_counts_resent_sequence_numbers(self):
        records = [self.rec(0), self.rec(512), self.rec(0), self.rec(1024)]
        assert flow_retransmission_rate(Trace(records=records)) \
            == pytest.approx(0.25)

    def test_directions_are_independent(self):
        forward = self.rec(0)
        backward = TraceRecord(timestamp=0.0, src=self.DST, dst=self.SRC,
                               seq=0, ack=0, flags=ACK, payload=512,
                               window=8192)
        assert flow_retransmission_rate(
            Trace(records=[forward, backward])) == 0.0

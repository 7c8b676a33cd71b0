"""Flow-table lifecycle: birth, retirement, eviction, bounded memory."""

import pytest

from repro.packets import ACK, FIN, RST, SYN, Endpoint
from repro.stream import ConnectionKey, FlowTable, IngestStats
from repro.stream.flowtable import demux_records
from repro.trace.record import TraceRecord

SERVER = Endpoint("server", 80)


def client(i: int) -> Endpoint:
    return Endpoint("client", 40000 + i)


def rec(t: float, src: Endpoint, dst: Endpoint, flags: int = ACK,
        seq: int = 0, ack: int = 0, payload: int = 0) -> TraceRecord:
    return TraceRecord(timestamp=t, src=src, dst=dst, seq=seq, ack=ack,
                       flags=flags, payload=payload, window=65535)


def handshake(t: float, a: Endpoint, b: Endpoint) -> list[TraceRecord]:
    return [rec(t, a, b, flags=SYN),
            rec(t + 0.01, b, a, flags=SYN | ACK, ack=1),
            rec(t + 0.02, a, b, flags=ACK, seq=1, ack=1)]


def teardown(t: float, a: Endpoint, b: Endpoint,
             seq: int = 1) -> list[TraceRecord]:
    return [rec(t, a, b, flags=FIN | ACK, seq=seq, ack=1),
            rec(t + 0.01, b, a, flags=FIN | ACK, seq=1, ack=seq + 1),
            rec(t + 0.02, a, b, flags=ACK, seq=seq + 1, ack=2)]


class TestConnectionKey:
    def test_both_directions_share_a_key(self):
        a, b = client(0), SERVER
        assert ConnectionKey.of(a, b) == ConnectionKey.of(b, a)

    def test_distinct_ports_distinct_keys(self):
        assert ConnectionKey.of(client(0), SERVER) \
            != ConnectionKey.of(client(1), SERVER)


class TestLifecycle:
    def test_fin_handshake_retires_after_time_wait(self):
        stats = IngestStats()
        table = FlowTable(time_wait=2.0, stats=stats)
        a = client(0)
        for record in handshake(0.0, a, SERVER) + teardown(1.0, a, SERVER):
            assert table.add(record) == []
        # A later packet on another connection advances the clock past
        # the time-wait and flushes the closed flow.
        completed = table.add(rec(10.0, client(1), SERVER, flags=SYN))
        assert len(completed) == 1
        flow, = completed
        assert flow.close_reason == "fin"
        assert flow.saw_syn
        assert len(flow.packets().records()) == 6
        assert stats.retired_by_reason == {"fin": 1}

    def test_rst_retires_after_time_wait(self):
        table = FlowTable(time_wait=0.5)
        a = client(0)
        for record in handshake(0.0, a, SERVER):
            table.add(record)
        table.add(rec(1.0, SERVER, a, flags=RST | ACK, ack=1))
        completed = table.add(rec(5.0, client(1), SERVER, flags=SYN))
        assert [f.close_reason for f in completed] == ["rst"]

    def test_idle_timeout_retires(self):
        stats = IngestStats()
        table = FlowTable(idle_timeout=10.0, stats=stats)
        for record in handshake(0.0, client(0), SERVER):
            table.add(record)
        completed = table.add(rec(100.0, client(1), SERVER, flags=SYN))
        assert [f.close_reason for f in completed] == ["idle"]
        assert stats.retired_by_reason == {"idle": 1}

    def test_drain_emits_remaining_in_birth_order(self):
        table = FlowTable()
        for i in (2, 0, 1):
            table.add(rec(float(i), client(i), SERVER, flags=SYN))
        flows = table.drain()
        assert [f.packets().records()[0].src for f in flows] \
            == [client(2), client(0), client(1)]
        assert all(f.close_reason == "eof" for f in flows)

    def test_port_reuse_starts_a_new_flow(self):
        table = FlowTable(time_wait=60.0)
        a = client(0)
        for record in handshake(0.0, a, SERVER) + teardown(1.0, a, SERVER):
            table.add(record)
        # Same 4-tuple, fresh SYN, well inside the time-wait window.
        completed = table.add(rec(2.0, a, SERVER, flags=SYN))
        assert [f.close_reason for f in completed] == ["fin"]
        flows = table.drain()
        assert len(flows) == 1
        assert len(flows[0].packets().records()) == 1


class TestRetirementReturns:
    """Every retired flow comes back from the call that retired it,
    exactly once — what the serve daemon's per-flow aggregates count."""

    def test_every_retired_flow_is_returned_exactly_once(self):
        stats = IngestStats()
        table = FlowTable(max_flows=3, idle_timeout=30.0, time_wait=2.0,
                          stats=stats)
        returned = []
        # Flow 0 closes while flows 1 and 2 open.
        for record in (handshake(0.0, client(0), SERVER)
                       + teardown(1.0, client(0), SERVER)
                       + handshake(1.5, client(1), SERVER)
                       + handshake(1.6, client(2), SERVER)):
            returned += table.add(record)
        # Time-wait passes: flow 0 retires by teardown when flow 3
        # opens.  Flow 4's SYN then exceeds the cap and evicts the
        # least active flow, flow 1.
        returned += table.add(rec(5.0, client(3), SERVER, flags=SYN))
        returned += table.add(rec(5.1, client(4), SERVER, flags=SYN))
        for i in (2, 3, 4):
            returned += table.add(rec(20.0 + i, client(i), SERVER,
                                      seq=1, payload=10))
        # Flow 5 arrives after flow 2 has been idle 30 s; flow 3 is
        # then shed and flows 4 and 5 drain at end of stream.
        returned += table.add(rec(52.5, client(5), SERVER, flags=SYN))
        returned += table.shed(1)
        returned += table.drain()

        assert [(f.index, f.close_reason) for f in returned] == [
            (0, "fin"), (1, "evicted"), (2, "idle"), (3, "shed"),
            (4, "eof"), (5, "eof")]
        assert len({id(f) for f in returned}) == len(returned)
        assert stats.flows_retired == stats.flows_opened == 6
        assert table.live_flows == 0


class TestRetirementCallback:
    """The call that retires a flow hands it back to its caller, once,
    whatever the path — where the serve daemon's rolling aggregates
    now read retirements from, in place of a retirement hook."""

    def test_fires_on_teardown_retirement(self):
        retired = []
        table = FlowTable()
        a = client(0)
        for record in handshake(0.0, a, SERVER) + teardown(1.0, a, SERVER):
            retired += table.add(record)
        # A later record pushes the closed flow past time-wait.
        b = client(1)
        retired += table.add(rec(10.0, b, SERVER, flags=SYN))
        assert len(retired) == 1
        assert retired[0].close_reason == "fin"

    def test_fires_on_drain_and_eviction(self):
        retired = []
        table = FlowTable(max_flows=2)
        for i in range(3):
            for record in handshake(float(i), client(i), SERVER):
                retired += table.add(record)
        assert len(retired) == 1              # LRU eviction
        assert retired[0].close_reason == "evicted"
        retired += table.drain()
        assert len(retired) == 3
        assert {flow.close_reason for flow in retired[1:]} == {"eof"}


class TestOrphans:
    def test_non_syn_stray_is_counted_not_admitted(self):
        stats = IngestStats()
        table = FlowTable(stats=stats)
        table.add(rec(0.0, client(0), SERVER, seq=500, payload=100))
        assert table.live_flows == 0
        assert stats.orphan_packets == 1

    def test_syn_only_false_admits_midcapture_flows(self):
        stats = IngestStats()
        table = FlowTable(syn_only=False, stats=stats)
        table.add(rec(0.0, client(0), SERVER, seq=500, payload=100))
        assert table.live_flows == 1
        flow, = table.drain()
        assert not flow.saw_syn


class TestEviction:
    def test_lru_cap_bounds_live_flows(self):
        stats = IngestStats()
        table = FlowTable(max_flows=2, stats=stats)
        evicted = []
        for i in range(5):
            evicted += table.add(rec(i * 0.01, client(i), SERVER,
                                     flags=SYN))
        assert table.live_flows == 2
        assert stats.flows_evicted == 3
        assert all(f.close_reason == "evicted" for f in evicted)
        # Oldest-first eviction order.
        assert [f.packets().records()[0].src for f in evicted] \
            == [client(0), client(1), client(2)]

    def test_activity_refreshes_lru_position(self):
        table = FlowTable(max_flows=2)
        table.add(rec(0.00, client(0), SERVER, flags=SYN))
        table.add(rec(0.01, client(1), SERVER, flags=SYN))
        # Touch flow 0 so flow 1 becomes the LRU victim.
        table.add(rec(0.02, client(0), SERVER, seq=1, payload=10))
        evicted = table.add(rec(0.03, client(2), SERVER, flags=SYN))
        assert [f.packets().records()[0].src for f in evicted] == [client(1)]

    def test_peak_live_flows_tracked(self):
        stats = IngestStats()
        table = FlowTable(stats=stats)
        for i in range(4):
            table.add(rec(i * 0.01, client(i), SERVER, flags=SYN))
        table.drain()
        assert stats.peak_live_flows == 4
        assert stats.live_flows == 0
        assert stats.flows_opened == stats.flows_retired == 4

    def test_max_flows_must_be_positive(self):
        with pytest.raises(ValueError):
            FlowTable(max_flows=0)


class TestDemuxRecords:
    def test_streams_flows_lazily_in_completion_order(self):
        records = (handshake(0.0, client(0), SERVER)
                   + handshake(0.05, client(1), SERVER)
                   + teardown(1.0, client(0), SERVER)
                   + [rec(50.0, client(1), SERVER, seq=1, payload=10)])
        flows = list(demux_records(records, time_wait=2.0))
        assert len(flows) == 2
        # Flow 0 completed mid-stream (fin + time-wait), flow 1 at eof.
        assert flows[0].close_reason == "fin"
        assert flows[1].close_reason == "eof"


class TestTeardownEdges:
    """Edge cases the adversarial fuzzer exercises: abortive closes,
    4-tuple reuse inside time-wait, and post-close stragglers."""

    def test_fin_rst_in_one_segment_closes_as_rst(self):
        stats = IngestStats()
        table = FlowTable(time_wait=2.0, stats=stats)
        a = client(0)
        for record in handshake(0.0, a, SERVER):
            table.add(record)
        # An abortive-close middlebox folds FIN and RST together; the
        # abort wins over the orderly-close interpretation.
        table.add(rec(1.0, a, SERVER, flags=FIN | RST | ACK, seq=1, ack=1))
        completed = table.add(rec(10.0, client(1), SERVER, flags=SYN))
        flow, = completed
        assert flow.close_reason == "rst"
        assert len(flow.packets().records()) == 4

    def test_syn_reuse_during_rst_time_wait(self):
        table = FlowTable(time_wait=60.0)
        a = client(0)
        for record in handshake(0.0, a, SERVER):
            table.add(record)
        table.add(rec(1.0, SERVER, a, flags=RST | ACK, ack=1))
        # Fresh SYN on the same 4-tuple well inside the time-wait: the
        # reset connection must retire, not absorb the new handshake.
        completed = table.add(rec(2.0, a, SERVER, flags=SYN))
        assert [f.close_reason for f in completed] == ["rst"]
        flow, = table.drain()
        assert flow.saw_syn
        assert len(flow.packets().records()) == 1

    def test_data_after_closing_stays_attached(self):
        table = FlowTable(time_wait=2.0)
        a = client(0)
        for record in handshake(0.0, a, SERVER) + teardown(1.0, a, SERVER):
            table.add(record)
        # A straggling in-flight data packet lands after the teardown
        # completed but inside time-wait: it belongs to the closed
        # connection, and must not resurrect it.
        table.add(rec(1.5, a, SERVER, seq=1, payload=100))
        completed = table.add(rec(10.0, client(1), SERVER, flags=SYN))
        flow, = completed
        assert flow.close_reason == "fin"
        assert flow.packets().records()[-1].payload == 100
        assert flow.closing_at == pytest.approx(1.02)

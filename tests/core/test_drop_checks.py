"""Each §3.1.1 drop check against a hand-crafted trace.

Crafted in the tcpdump text format (also exercising the parser) so
each check's trigger condition is explicit and minimal.
"""

import dataclasses
import time

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calibrate.drops import (
    DropEvidence,
    check_ack_for_unseen_data,
    check_ack_regression,
    check_dup_acks_without_cause,
    check_retransmission_of_unseen,
    check_sequence_gap,
    check_stretch_ack_gap,
    run_drop_checks,
)
from repro.packets import ACK, FIN, SYN, Endpoint, FlowKey
from repro.tcp.catalog import get_behavior
from repro.trace.record import Trace, TraceRecord
from repro.trace.text import parse_trace
from repro.units import SEQ_SPACE, seq_gt, seq_le

SENDER_PREFIX = """\
0.000000 sender.1024 > receiver.9000: S 0:1(0) win 65535 <mss 512>
0.070000 receiver.9000 > sender.1024: S. 0:1(0) ack 1 win 65535 <mss 512>
0.070500 sender.1024 > receiver.9000: . 1:1(0) ack 1 win 65535
"""


def sender_trace(body: str):
    trace = parse_trace(SENDER_PREFIX + body, vantage="sender")
    return trace, trace.primary_flow()


def receiver_trace(body: str):
    trace = parse_trace(SENDER_PREFIX + body, vantage="receiver")
    return trace, trace.primary_flow()


class TestAckForUnseenData:
    def test_fires_when_ack_exceeds_recorded_sends(self):
        trace, flow = sender_trace(
            "0.071000 sender.1024 > receiver.9000: . 1:513(512) ack 1 win 65535\n"
            "0.150000 receiver.9000 > sender.1024: . 1:1(0) ack 1025 win 65535\n")
        evidence = check_ack_for_unseen_data(trace, flow)
        assert len(evidence) == 1
        assert "1025" in evidence[0].detail

    def test_quiet_when_consistent(self):
        trace, flow = sender_trace(
            "0.071000 sender.1024 > receiver.9000: . 1:513(512) ack 1 win 65535\n"
            "0.150000 receiver.9000 > sender.1024: . 1:1(0) ack 513 win 65535\n")
        assert check_ack_for_unseen_data(trace, flow) == []

    def test_reports_each_gap_once(self):
        trace, flow = sender_trace(
            "0.071000 sender.1024 > receiver.9000: . 1:513(512) ack 1 win 65535\n"
            "0.150000 receiver.9000 > sender.1024: . 1:1(0) ack 1025 win 65535\n"
            "0.160000 receiver.9000 > sender.1024: . 1:1(0) ack 1025 win 65535\n")
        assert len(check_ack_for_unseen_data(trace, flow)) == 1


class TestSequenceGap:
    def test_fires_on_skipped_sequence_space(self):
        trace, flow = sender_trace(
            "0.071000 sender.1024 > receiver.9000: . 1:513(512) ack 1 win 65535\n"
            "0.072000 sender.1024 > receiver.9000: . 1025:1537(512) ack 1 win 65535\n")
        evidence = check_sequence_gap(trace, flow)
        assert len(evidence) == 1
        assert "512 bytes unrecorded" in evidence[0].detail

    def test_quiet_on_contiguous_sends(self):
        trace, flow = sender_trace(
            "0.071000 sender.1024 > receiver.9000: . 1:513(512) ack 1 win 65535\n"
            "0.072000 sender.1024 > receiver.9000: . 513:1025(512) ack 1 win 65535\n")
        assert check_sequence_gap(trace, flow) == []

    def test_quiet_on_retransmission(self):
        trace, flow = sender_trace(
            "0.071000 sender.1024 > receiver.9000: . 1:513(512) ack 1 win 65535\n"
            "0.072000 sender.1024 > receiver.9000: . 513:1025(512) ack 1 win 65535\n"
            "1.500000 sender.1024 > receiver.9000: . 1:513(512) ack 1 win 65535\n")
        assert check_sequence_gap(trace, flow) == []


class TestAckRegression:
    def test_fires_when_acks_go_backwards(self):
        trace, flow = receiver_trace(
            "0.071000 sender.1024 > receiver.9000: . 1:513(512) ack 1 win 65535\n"
            "0.072000 sender.1024 > receiver.9000: . 513:1025(512) ack 1 win 65535\n"
            "0.100000 receiver.9000 > sender.1024: . 1:1(0) ack 1025 win 65535\n"
            "0.110000 receiver.9000 > sender.1024: . 1:1(0) ack 513 win 65535\n")
        evidence = check_ack_regression(trace, flow)
        assert len(evidence) == 1

    def test_quiet_on_monotone_acks(self):
        trace, flow = receiver_trace(
            "0.071000 sender.1024 > receiver.9000: . 1:513(512) ack 1 win 65535\n"
            "0.100000 receiver.9000 > sender.1024: . 1:1(0) ack 513 win 65535\n"
            "0.110000 receiver.9000 > sender.1024: . 1:1(0) ack 513 win 65535\n")
        assert check_ack_regression(trace, flow) == []


class TestDupAcksWithoutCause:
    def test_fires_on_unprovoked_dup(self):
        trace, flow = receiver_trace(
            "0.071000 sender.1024 > receiver.9000: . 1:513(512) ack 1 win 65535\n"
            "0.100000 receiver.9000 > sender.1024: . 1:1(0) ack 513 win 65535\n"
            "0.200000 receiver.9000 > sender.1024: . 1:1(0) ack 513 win 65535\n")
        evidence = check_dup_acks_without_cause(trace, flow)
        assert len(evidence) == 1

    def test_quiet_when_arrival_provokes(self):
        trace, flow = receiver_trace(
            "0.071000 sender.1024 > receiver.9000: . 1:513(512) ack 1 win 65535\n"
            "0.100000 receiver.9000 > sender.1024: . 1:1(0) ack 513 win 65535\n"
            "0.150000 sender.1024 > receiver.9000: . 1025:1537(512) ack 1 win 65535\n"
            "0.151000 receiver.9000 > sender.1024: . 1:1(0) ack 513 win 65535\n")
        assert check_dup_acks_without_cause(trace, flow) == []

    def test_fin_counts_as_provocation(self):
        trace, flow = receiver_trace(
            "0.071000 sender.1024 > receiver.9000: . 1:513(512) ack 1 win 65535\n"
            "0.100000 receiver.9000 > sender.1024: . 1:1(0) ack 513 win 65535\n"
            "0.150000 sender.1024 > receiver.9000: F. 1025:1026(0) ack 1 win 65535\n"
            "0.151000 receiver.9000 > sender.1024: . 1:1(0) ack 513 win 65535\n")
        assert check_dup_acks_without_cause(trace, flow) == []


class TestStretchAckGap:
    def test_fires_when_ack_covers_unseen_arrivals(self):
        trace, flow = receiver_trace(
            "0.071000 sender.1024 > receiver.9000: . 1:513(512) ack 1 win 65535\n"
            "0.100000 receiver.9000 > sender.1024: . 1:1(0) ack 1025 win 65535\n")
        evidence = check_stretch_ack_gap(trace, flow)
        assert len(evidence) == 1

    def test_out_of_order_arrivals_assemble(self):
        trace, flow = receiver_trace(
            "0.071000 sender.1024 > receiver.9000: . 513:1025(512) ack 1 win 65535\n"
            "0.072000 sender.1024 > receiver.9000: . 1:513(512) ack 1 win 65535\n"
            "0.100000 receiver.9000 > sender.1024: . 1:1(0) ack 1025 win 65535\n")
        assert check_stretch_ack_gap(trace, flow) == []

    def test_resync_then_merge_at_next_arrival(self):
        # The gap ack resyncs the frontier to 1537; the waiting segment
        # 1537:2049 merges only when the next arrival comes in.
        trace, flow = receiver_trace(
            "0.071000 sender.1024 > receiver.9000: . 1:513(512) ack 1 win 65535\n"
            "0.072000 sender.1024 > receiver.9000: . 1537:2049(512) ack 1 win 65535\n"
            "0.100000 receiver.9000 > sender.1024: . 1:1(0) ack 1537 win 65535\n"
            "0.110000 receiver.9000 > sender.1024: . 1:1(0) ack 2049 win 65535\n"
            "0.120000 sender.1024 > receiver.9000: . 513:1025(512) ack 1 win 65535\n"
            "0.130000 receiver.9000 > sender.1024: . 1:1(0) ack 2049 win 65535\n")
        evidence = check_stretch_ack_gap(trace, flow)
        assert [e.time for e in evidence] == [0.1, 0.11]
        assert evidence[1].detail.endswith("(recorded through 1537)")


# --- check 7 against the quadratic fixpoint merge it replaced ----------------

def quadratic_stretch_ack_gap(trace, flow) -> list[DropEvidence]:
    """Test oracle: check 7 as a rescan-until-fixpoint merge, O(n**2)."""
    evidence = []
    reverse = flow.reversed()
    rcv_high = None
    seen: list[tuple[int, int]] = []
    for record in trace:
        if record.flow == flow and (record.payload > 0 or record.is_syn
                                    or record.is_fin):
            seen.append((record.seq, record.seq_end))
            if rcv_high is None:
                rcv_high = record.seq_end
            changed = True
            while changed:
                changed = False
                for start, end in seen:
                    if seq_le(start, rcv_high) and seq_gt(end, rcv_high):
                        rcv_high = end
                        changed = True
        elif record.flow == reverse and record.has_ack and not record.is_syn:
            if rcv_high is not None and seq_gt(record.ack, rcv_high):
                evidence.append(DropEvidence(
                    "stretch_ack_gap", record.timestamp,
                    f"ack {record.ack} covers data never recorded "
                    f"arriving (recorded through {rcv_high})", record))
                rcv_high = record.ack
    return evidence


SENDER = Endpoint("sender", 1024)
RECEIVER = Endpoint("receiver", 9000)
DATA_FLOW = FlowKey(SENDER, RECEIVER)


def arrival(seq, payload, flags=ACK):
    return TraceRecord(0.0, SENDER, RECEIVER, seq % SEQ_SPACE, 1, flags,
                       payload, 65535)


def ack_record(ack, flags=ACK):
    return TraceRecord(0.0, RECEIVER, SENDER, 1, ack % SEQ_SPACE, flags,
                       0, 65535)


def stamped(records) -> Trace:
    return Trace([r.with_timestamp(i * 0.001) for i, r in enumerate(records)],
                 vantage="receiver")


@st.composite
def receiver_traces(draw):
    """A receiver trace: SYN, MSS segments and FIN, plus overlapping
    resends and exact duplicates, permuted, some dropped, with acks
    (some beyond anything that arrived) interleaved."""
    isn = draw(st.one_of(st.integers(SEQ_SPACE - 65536, SEQ_SPACE - 1),
                         st.integers(0, SEQ_SPACE - 1)))
    mss = draw(st.sampled_from([1, 3, 512]))
    count = draw(st.integers(0, 20))
    total = count * mss
    segments = ([arrival(isn, 0, SYN)]
                + [arrival(isn + 1 + i * mss, mss) for i in range(count)]
                + [arrival(isn + 1 + total, 0, FIN | ACK)])
    segments += [arrival(isn + start, length) for start, length in draw(
        st.lists(st.tuples(st.integers(1, 1 + total),
                           st.integers(1, 3 * mss)), max_size=6))]
    segments += [segments[i] for i in draw(
        st.lists(st.integers(0, len(segments) - 1), max_size=4))]
    order = draw(st.permutations(segments))
    keep = draw(st.lists(st.booleans(), min_size=len(order),
                         max_size=len(order)))
    arrivals = [record for record, kept in zip(order, keep) if kept]
    acks = draw(st.lists(
        st.tuples(st.integers(0, len(arrivals)),
                  st.integers(0, 2 + total + 2 * mss), st.booleans()),
        max_size=12))
    records = []
    for position in range(len(arrivals) + 1):
        records += [ack_record(isn + offset, SYN | ACK if syn else ACK)
                    for at, offset, syn in acks if at == position]
        records += arrivals[position:position + 1]
    return stamped(records)


@given(receiver_traces())
@settings(max_examples=300, deadline=None)
def test_frontier_matches_quadratic_oracle(trace):
    assert check_stretch_ack_gap(trace, DATA_FLOW) == \
        quadratic_stretch_ack_gap(trace, DATA_FLOW)


def shifted(trace: Trace, isn: int) -> Trace:
    """Move the data direction's sequence space so it starts at *isn*."""
    flow = trace.primary_flow()
    delta = isn - trace.records[0].seq
    return Trace([
        dataclasses.replace(r, seq=(r.seq + delta) % SEQ_SPACE)
        if r.flow == flow else
        dataclasses.replace(r, ack=(r.ack + delta) % SEQ_SPACE)
        for r in trace], vantage=trace.vantage)


@pytest.mark.parametrize("isn", [None, SEQ_SPACE - 20000])
@pytest.mark.parametrize("label", ["reno", "linux-1.0"])
def test_frontier_matches_oracle_on_gapped_transfers(transfer_factory,
                                                     label, isn):
    trace = transfer_factory(label, "wan-lossy",
                             data_size=65536).receiver_trace
    flow = trace.primary_flow()
    data = [i for i, r in enumerate(trace) if r.flow == flow
            and r.payload > 0]
    gapped = Trace([r for i, r in enumerate(trace) if i not in data[5::9]],
                   vantage=trace.vantage)
    if isn is not None:
        gapped = shifted(gapped, isn)
    evidence = check_stretch_ack_gap(gapped, flow)
    assert evidence
    assert evidence == quadratic_stretch_ack_gap(gapped, flow)


@pytest.mark.parametrize("head_first", [False, True])
def test_frontier_is_not_quadratic(head_first):
    # 20,000 one-MSS arrivals in reverse order: the fixpoint rescan
    # takes minutes here.  With the head first, every later arrival
    # waits above the frontier until the last one closes the gap.
    mss, count = 512, 20000
    segments = [arrival(1 + i * mss, mss) for i in range(count)]
    order = segments[:1] + segments[:0:-1] if head_first else segments[::-1]
    trace = stamped(order + [ack_record(1 + count * mss)])
    started = time.perf_counter()
    evidence = check_stretch_ack_gap(trace, DATA_FLOW)
    elapsed = time.perf_counter() - started
    assert evidence == []
    assert elapsed < 5.0


class TestRetransmissionOfUnseen:
    def test_fires_when_original_missing(self):
        trace, flow = sender_trace(
            "0.071000 sender.1024 > receiver.9000: . 1:513(512) ack 1 win 65535\n"
            "0.072000 sender.1024 > receiver.9000: . 513:1025(512) ack 1 win 65535\n"
            "1.000000 sender.1024 > receiver.9000: . 257:769(512) ack 1 win 65535\n")
        evidence = check_retransmission_of_unseen(trace, flow)
        assert len(evidence) == 1

    def test_quiet_for_normal_retransmission(self):
        trace, flow = sender_trace(
            "0.071000 sender.1024 > receiver.9000: . 1:513(512) ack 1 win 65535\n"
            "0.072000 sender.1024 > receiver.9000: . 513:1025(512) ack 1 win 65535\n"
            "1.000000 sender.1024 > receiver.9000: . 1:513(512) ack 1 win 65535\n")
        assert check_retransmission_of_unseen(trace, flow) == []


class TestVantageGating:
    def test_sender_checks_only_at_sender(self):
        # A receiver-side trace with a data gap: a NETWORK drop, not a
        # filter drop — the gap check must not run there.
        trace, flow = receiver_trace(
            "0.071000 sender.1024 > receiver.9000: . 1:513(512) ack 1 win 65535\n"
            "0.072000 sender.1024 > receiver.9000: . 1025:1537(512) ack 1 win 65535\n"
            "0.073000 receiver.9000 > sender.1024: . 1:1(0) ack 513 win 65535\n")
        evidence = run_drop_checks(trace, get_behavior("reno"),
                                   vantage="receiver")
        assert all(e.check != "sequence_gap" for e in evidence)

    def test_explicit_vantage_overrides_metadata(self):
        trace, flow = sender_trace(
            "0.071000 sender.1024 > receiver.9000: . 1:513(512) ack 1 win 65535\n"
            "0.072000 sender.1024 > receiver.9000: . 1025:1537(512) ack 1 win 65535\n")
        as_sender = run_drop_checks(trace, vantage="sender")
        as_receiver = run_drop_checks(trace, vantage="receiver")
        assert any(e.check == "sequence_gap" for e in as_sender)
        assert all(e.check != "sequence_gap" for e in as_receiver)

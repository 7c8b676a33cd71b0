"""Pass one's replay rows mirror its records, kernel and oracle alike.

Every candidate replay reads plain rows instead of records: sender data
rows ``(timestamp, seq, seq_end, payload)``, sender ack rows
``(timestamp, ack, window, payload)``, and receiver event rows
``(timestamp, inbound, seq, ack, window, payload, fin)``.  The pass-one
kernels build them from column slices, their oracles
(``tests/core/kernel_oracles.py``) in a record scan; both must give
exactly what the records say — same values, same Python types —
including SYN/FIN sequence accounting and sequence numbers that wrap
past 2**32.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.receiver.analyzer import extract_receiver_pass_one
from repro.core.sender.analyzer import extract_pass_one
from repro.packets import ACK, FIN, SYN, Endpoint
from repro.trace.record import Trace, TraceRecord

from tests.conftest import cached_transfer
from tests.core.kernel_oracles import receiver_pass_one, sender_pass_one

SENDER = Endpoint("sender", 1024)
RECEIVER = Endpoint("receiver", 9000)

#: One generated packet after the handshake: direction, sequence
#: offset, ack offset, flags, payload, window, time step.
packets = st.lists(st.tuples(
    st.booleans(),
    st.integers(min_value=0, max_value=70_000),
    st.integers(min_value=0, max_value=70_000),
    st.sampled_from([ACK, ACK | FIN, SYN, SYN | ACK, FIN, 0]),
    st.integers(min_value=0, max_value=1460),
    st.integers(min_value=0, max_value=65535),
    st.floats(min_value=0.0, max_value=0.5)), max_size=40)

#: Initial sequence numbers, weighted toward the top of the space so
#: the generated offsets wrap past 2**32.
isns = st.one_of(st.integers(min_value=2**32 - 70_000,
                             max_value=2**32 - 1),
                 st.integers(min_value=0, max_value=2**32 - 1))


def build_trace(iss: int, irs: int, body) -> Trace:
    records = [
        TraceRecord(0.0, SENDER, RECEIVER, iss, 0, SYN, 0, 65535,
                    mss_option=512),
        TraceRecord(0.05, RECEIVER, SENDER, irs, (iss + 1) % 2**32,
                    SYN | ACK, 0, 65535, mss_option=1460),
    ]
    time = 0.05
    for outbound, seq_off, ack_off, flags, payload, window, step in body:
        time += step
        if outbound:
            src, dst, seq, ack = SENDER, RECEIVER, iss, irs
        else:
            src, dst, seq, ack = RECEIVER, SENDER, irs, iss
        records.append(TraceRecord(
            time, src, dst, (seq + seq_off) % 2**32,
            (ack + ack_off) % 2**32, flags, payload, window))
    # A data-carrying sender packet keeps the sender the primary flow.
    records.append(TraceRecord(time + 0.01, SENDER, RECEIVER,
                               (iss + 1) % 2**32, (irs + 1) % 2**32, ACK,
                               1460 * (len(body) + 1), 65535))
    return Trace(records=records)


def typed(rows):
    """Rows with each value's type alongside, so 1 == 1.0 or a numpy
    scalar standing in for an int cannot pass unnoticed."""
    return [[(type(value), value) for value in row] for row in rows]


@settings(max_examples=60, deadline=None)
@given(iss=isns, irs=isns, body=packets)
def test_rows_mirror_records(iss, irs, body):
    trace = build_trace(iss, irs, body)
    sender = extract_pass_one(trace)
    receiver = extract_receiver_pass_one(trace)
    assert typed(sender.data_rows) == typed(
        [(r.timestamp, r.seq, r.seq_end, r.payload) for r in sender.data])
    assert typed(sender.ack_rows) == typed(
        [(r.timestamp, r.ack, r.window, r.payload) for r in sender.acks])
    assert typed(receiver.rows) == typed(
        [(r.timestamp, r.flow == receiver.flow, r.seq, r.ack, r.window,
          r.payload, r.is_fin) for r in receiver.events])


@settings(max_examples=30, deadline=None)
@given(iss=isns, irs=isns, body=packets)
def test_backends_build_the_same_rows(iss, irs, body):
    def rows(sender_pass, receiver_pass):
        trace = build_trace(iss, irs, body)
        sender = sender_pass(trace)
        receiver = receiver_pass(trace)
        return (sender.facts, typed(sender.data_rows),
                typed(sender.ack_rows), typed(receiver.rows))

    assert rows(extract_pass_one, extract_receiver_pass_one) \
        == rows(sender_pass_one, receiver_pass_one)


@pytest.mark.parametrize("implementation,scenario", [
    ("reno", "wan-lossy"), ("linux-1.0", "wan-lossy"), ("tahoe", "wan"),
])
def test_kernels_match_oracles_on_transfers(implementation, scenario):
    """Whole pass-one results, facts included, on simulated transfers
    long enough to ramp past the early-flight window."""
    transfer = cached_transfer(implementation, scenario, seed=1)
    for trace in (transfer.sender_trace, transfer.receiver_trace):
        assert extract_pass_one(trace) == sender_pass_one(trace)
        assert extract_receiver_pass_one(trace) == receiver_pass_one(trace)

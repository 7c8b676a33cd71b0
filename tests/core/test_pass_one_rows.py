"""Pass one's replay rows mirror its records, on both trace backends.

Every candidate replay reads plain rows instead of records: sender data
rows ``(timestamp, seq, seq_end, payload)``, sender ack rows
``(timestamp, ack, window, payload)``, and receiver event rows
``(timestamp, inbound, seq, ack, window, payload, fin)``.  The numpy
backend builds them from column slices, the pure-Python backend in its
record scan; both must give exactly what the records say — same
values, same Python types — including SYN/FIN sequence accounting and
sequence numbers that wrap past 2**32.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.receiver.analyzer import extract_receiver_pass_one
from repro.core.sender.analyzer import extract_pass_one
from repro.packets import ACK, FIN, SYN, Endpoint
from repro.trace import columns as trace_columns
from repro.trace.record import Trace, TraceRecord

BACKENDS = ["python"] + (["numpy"] if trace_columns.numpy_available()
                         else [])
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


def on_backend(backend, function):
    trace_columns.set_backend(backend)
    try:
        return function()
    finally:
        trace_columns.set_backend(None)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(iss=isns, irs=isns, body=packets)
def test_rows_mirror_records(backend, iss, irs, body):
    trace = build_trace(iss, irs, body)

    def rows():
        sender = extract_pass_one(trace)
        receiver = extract_receiver_pass_one(trace)
        return sender, receiver

    sender, receiver = on_backend(backend, rows)
    assert typed(sender.data_rows) == typed(
        [(r.timestamp, r.seq, r.seq_end, r.payload) for r in sender.data])
    assert typed(sender.ack_rows) == typed(
        [(r.timestamp, r.ack, r.window, r.payload) for r in sender.acks])
    assert typed(receiver.rows) == typed(
        [(r.timestamp, r.flow == receiver.flow, r.seq, r.ack, r.window,
          r.payload, r.is_fin) for r in receiver.events])


@pytest.mark.skipif(len(BACKENDS) < 2, reason="numpy not installed")
@settings(max_examples=30, deadline=None)
@given(iss=isns, irs=isns, body=packets)
def test_backends_build_the_same_rows(iss, irs, body):
    def rows():
        trace = build_trace(iss, irs, body)
        sender = extract_pass_one(trace)
        receiver = extract_receiver_pass_one(trace)
        return (typed(sender.data_rows), typed(sender.ack_rows),
                typed(receiver.rows))

    assert on_backend("python", rows) == on_backend("numpy", rows)

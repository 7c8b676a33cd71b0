"""F2 — Figure 2: vantage-point ambiguity.

The paper's Figure 2 shows a sender-side trace in which the filter
records an ack covering sequence 54,273 — and *then* records the TCP
retransmitting 52,737 and 53,249, data that ack already covered.
Neither the filter nor the TCP erred: the filter's vantage point is
slightly upstream of the TCP's processing, so the ack was on record
before the TCP acted on its older state (§3.2).

We reproduce the situation by taking a simulated trace containing a
timeout retransmission and moving the covering ack's record to its
wire-arrival position just ahead of the retransmission — exactly the
filter-sees-it-first timing the paper describes.  The assertions
check tcpanaly's coping machinery: the *lazy* liberation analyzer
explains the trace completely, while an eager design (feed every
recorded ack before explaining each send — the abandoned one-pass
approach of §4) declares an impossible retransmission.
"""

from repro.core.calibrate import calibrate_trace
from repro.core.sender.analyzer import analyze_sender
from repro.harness.scenarios import traced_transfer
from repro.tcp.catalog import get_behavior
from repro.trace.record import Trace
from repro.units import seq_ge

from benchmarks.conftest import emit


def make_figure2_trace():
    """A tahoe trace whose covering ack is recorded just before the
    timeout retransmission it covers (filter upstream of the TCP)."""
    transfer = traced_transfer(get_behavior("tahoe"), "wan-lossy",
                               data_size=51200, seed=3)
    trace = transfer.sender_trace
    flow = trace.primary_flow()
    records = list(trace.records)

    # Locate the first retransmission (a data packet revisiting old
    # sequence space) and the first ack after it covering its data.
    highest = None
    rexmit_index = None
    for i, record in enumerate(records):
        if record.flow != flow or record.payload == 0:
            continue
        if highest is not None and seq_ge(highest, record.seq_end):
            rexmit_index = i
            break
        highest = record.seq_end if highest is None else max(
            highest, record.seq_end)
    assert rexmit_index is not None, "no retransmission in the base trace"
    rexmit = records[rexmit_index]
    ack_index = next(
        i for i in range(rexmit_index + 1, len(records))
        if records[i].flow == flow.reversed() and records[i].has_ack
        and seq_ge(records[i].ack, rexmit.seq_end))

    # Record the ack at its wire-arrival position: just before the
    # retransmission the (slow) TCP emitted from its older state.
    ack = records.pop(ack_index)
    early = ack.with_timestamp(rexmit.timestamp - 0.0005)
    records.insert(rexmit_index, early)
    edited = Trace(records=records, vantage="sender",
                   filter_name=trace.filter_name,
                   reported_drops=trace.reported_drops)
    return edited, rexmit_index


def eager_first_inconsistency(trace):
    """The abandoned §4 one-pass design: process every recorded ack
    before each data packet; report the first impossible send."""
    from repro.core.sender.analyzer import (
        _Replay, SenderAnalysis, extract_pass_one)
    pass_one = extract_pass_one(trace)
    behavior = get_behavior("tahoe")
    state = _Replay(pass_one, behavior,
                    SenderAnalysis("tahoe", behavior, pass_one.facts))
    for record, row in zip(pass_one.data, pass_one.data_rows):
        while state.acks_available_by(row[0]):
            state.feed_ack()
        classification = state.try_explain(record, row)
        if classification is None:
            return record
        state.apply(classification, row)
    return None


def run_figure2():
    trace, rexmit_index = make_figure2_trace()
    lazy = analyze_sender(trace, get_behavior("tahoe"))
    calibration = calibrate_trace(trace, get_behavior("tahoe"))
    eager_failure = eager_first_inconsistency(trace)
    return trace, rexmit_index, lazy, calibration, eager_failure


def test_fig2_vantage_point():
    trace, rexmit_index, lazy, calibration, eager_failure = run_figure2()

    base = trace.start_time
    excerpt = [
        "  " + trace.records[i].describe(base)
        + (" <-- ack recorded first" if i == rexmit_index else "")
        + (" <-- 'impossible' retransmission" if i == rexmit_index + 1
           else "")
        for i in range(max(rexmit_index - 3, 0),
                       min(rexmit_index + 4, len(trace.records)))
    ]
    emit("Figure 2: vantage-point ambiguity", excerpt + [
        f"lazy (tcpanaly) analysis: {lazy.summary()}",
        f"eager one-pass analysis: first inconsistency at "
        f"{'none' if eager_failure is None else eager_failure.describe(base)}",
        f"calibration: {calibration.summary()}",
        "(paper: the ambiguity forced abandoning one-pass generic "
        "analysis, §4)",
    ])

    # Shape: tcpanaly's pending-liberation design absorbs the
    # inversion; the eager design cannot explain the retransmission.
    assert lazy.violation_count == 0
    assert eager_failure is not None
    assert not calibration.drop_evidence

"""Filter-drop self-consistency checks (§3.1.1).

Filters cannot be trusted to report their own drops, so tcpanaly
infers them.  The key discipline: never mistake a *network* drop for a
*filter* drop.  TCP's reliability is the lever — a correct TCP repairs
real losses (retransmissions, dup acks) but reacts not at all to
filter drops, because the packets really were delivered.

Eight checks, each looking for a TCP apparently sending at an
inappropriate time or failing to send at an appropriate one:

1.  ``ack_for_unseen_data`` — an inbound ack acknowledges data the
    trace never shows being sent.
2.  ``sequence_gap`` — the sender's data stream skips sequence space
    it never sent before; senders cannot skip ahead.
3.  ``window_violation`` — data sent beyond the congestion/offered
    window as computed for the traced implementation; requires the
    behavior model, and is the most powerful check (§3.1.1).
4.  ``fast_retransmit_without_dups`` — a fast retransmission appears
    but the trace records fewer duplicate acks than the threshold.
5.  ``ack_regression`` — an endpoint's cumulative ack goes backwards;
    rcv_nxt is monotone, so records are missing or reordered.
6.  ``dup_acks_without_cause`` — duplicate acks recorded without any
    out-of-order arrival to provoke them (receiver vantage).
7.  ``stretch_ack_gap`` — an outbound ack advances over data the
    receiver-side trace never shows arriving.
8.  ``retransmission_of_unseen`` — a retransmitted segment whose
    original transmission never appears in the trace.

With the columnar backend each check first runs a vectorized *screen*
over the arrays.  For checks whose per-record state is a plain running
maximum (1, 2, 5, 6, 8) the screen is exact — it finds evidence iff
the loop would — so the original loop (which builds the evidence
objects) only runs when there is evidence to report, which calibrated
traces almost never have.  Check 4's screen is a conservative superset
(any retransmission at all).  Check 7 has no cheap vector bound, so it
stays unscreened scalar code on both backends; its receiver-side
contiguity merge is an O(n log n) heap frontier.  The frontier is an
unwrapped integer, so like ``columns.rel`` it assumes every arrival and
ack lies within 2**31 of it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.tcp.params import TCPBehavior
from repro.trace.columns import numpy_module
from repro.trace.record import Trace, TraceRecord
from repro.units import seq_diff, seq_gt, seq_lt

#: Sentinel for "no sequence value yet" in screen running maxima —
#: far below any unwrapped sequence number.
_FLOOR = -(2**62)


@dataclass(frozen=True)
class DropEvidence:
    """One piece of evidence that the filter dropped packets."""

    check: str
    time: float
    detail: str
    record: TraceRecord | None = None


def run_drop_checks(trace: Trace,
                    behavior: TCPBehavior | None = None,
                    vantage: str | None = None,
                    sender_analysis=None) -> list[DropEvidence]:
    """Run the checks valid at this trace's vantage point.

    Vantage matters (§3.2): a sequence gap at the *sender* proves the
    filter missed a send (senders cannot skip sequence space), but at
    the *receiver* it is an ordinary network drop; an unprovoked dup
    ack proves drops only at the receiver; and so on.  The behavior-
    dependent checks (window violation, fast-retransmit dup counting)
    need *behavior* and are skipped without it.  *sender_analysis*
    supplies an already-computed replay of (*trace*, *behavior*) so
    the window-violation check need not run its own.
    """
    if not trace.records:
        return []
    try:
        flow = trace.primary_flow()
    except ValueError:
        return []
    from repro.core.vantage import infer_vantage
    if vantage is None:
        vantage = infer_vantage(trace)

    evidence: list[DropEvidence] = []
    if vantage == "sender":
        evidence += check_ack_for_unseen_data(trace, flow)
        evidence += check_sequence_gap(trace, flow)
        evidence += check_retransmission_of_unseen(trace, flow)
        if behavior is not None:
            evidence += check_window_violation(trace, flow, behavior,
                                               sender_analysis)
            evidence += check_fast_retransmit_without_dups(trace, flow,
                                                           behavior)
    else:
        evidence += check_stretch_ack_gap(trace, flow)
        evidence += check_dup_acks_without_cause(trace, flow)
        evidence += check_ack_regression(trace, flow)
    evidence.sort(key=lambda e: e.time)
    return evidence


def check_ack_for_unseen_data(trace: Trace, flow) -> list[DropEvidence]:
    """Check 1: acks acknowledging data the trace never recorded."""
    columns = trace.columns()
    if columns.is_vector and not _screen_ack_for_unseen(columns, flow):
        return []
    evidence = []
    highest_sent = None
    for record in trace:
        if record.flow == flow and (record.payload > 0 or record.is_syn
                                    or record.is_fin):
            if highest_sent is None or seq_gt(record.seq_end, highest_sent):
                highest_sent = record.seq_end
        elif record.flow == flow.reversed() and record.has_ack \
                and not record.is_syn:
            if highest_sent is not None and seq_gt(record.ack, highest_sent):
                evidence.append(DropEvidence(
                    "ack_for_unseen_data", record.timestamp,
                    f"ack {record.ack} exceeds highest recorded data "
                    f"{highest_sent}", record))
                highest_sent = record.ack  # resync; report each gap once
    return evidence


def check_sequence_gap(trace: Trace, flow) -> list[DropEvidence]:
    """Check 2: the data stream skips never-before-sent sequence space."""
    columns = trace.columns()
    if columns.is_vector and not _screen_sequence_gap(columns, flow):
        return []
    evidence = []
    highest_sent = None
    for record in trace:
        if record.flow != flow or record.payload == 0:
            continue
        if highest_sent is not None and seq_gt(record.seq, highest_sent):
            evidence.append(DropEvidence(
                "sequence_gap", record.timestamp,
                f"data jumps from {highest_sent} to {record.seq} "
                f"({seq_diff(record.seq, highest_sent)} bytes unrecorded)",
                record))
        if highest_sent is None or seq_gt(record.seq_end, highest_sent):
            highest_sent = record.seq_end
    return evidence


def check_ack_regression(trace: Trace, flow) -> list[DropEvidence]:
    """Check 5: cumulative acknowledgements are monotone."""
    columns = trace.columns()
    if columns.is_vector and not _screen_ack_regression(columns, flow):
        return []
    evidence = []
    highest_ack = None
    reverse = flow.reversed()
    for record in trace:
        if record.flow != reverse or not record.has_ack or record.is_syn:
            continue
        if highest_ack is not None and seq_lt(record.ack, highest_ack):
            evidence.append(DropEvidence(
                "ack_regression", record.timestamp,
                f"ack regressed from {highest_ack} to {record.ack}", record))
        if highest_ack is None or seq_gt(record.ack, highest_ack):
            highest_ack = record.ack
    return evidence


def check_dup_acks_without_cause(trace: Trace, flow) -> list[DropEvidence]:
    """Check 6: duplicate acks must be provoked by data arrivals.

    At the receiver's vantage every dup ack follows the arrival that
    provoked it (out-of-order or duplicate data).  A dup ack with no
    arrival since the previous ack means an arrival went unrecorded.
    At the sender's vantage arrivals are invisible, so the check is
    only meaningful for receiver-side traces; it keys on whether the
    trace shows any data *arriving* at the acking endpoint.
    """
    columns = trace.columns()
    if columns.is_vector and not _screen_dup_acks(columns, flow):
        return []
    evidence = []
    reverse = flow.reversed()
    arrivals_since_ack = 0
    last_ack = None
    saw_arrival = False
    for record in trace:
        if record.flow == flow and (record.payload > 0 or record.is_fin):
            arrivals_since_ack += 1
            saw_arrival = True
        elif record.flow == reverse and record.has_ack and not record.is_syn:
            if (saw_arrival and last_ack is not None
                    and record.ack == last_ack and record.payload == 0
                    and arrivals_since_ack == 0 and not record.is_fin):
                evidence.append(DropEvidence(
                    "dup_acks_without_cause", record.timestamp,
                    f"duplicate ack {record.ack} with no recorded arrival "
                    f"to provoke it", record))
            last_ack = record.ack
            arrivals_since_ack = 0
    return evidence


def check_stretch_ack_gap(trace: Trace, flow) -> list[DropEvidence]:
    """Check 7: an ack advancing over data never recorded arriving.

    Receiver-vantage version of check 1: the acking endpoint's own
    outbound acks can only cover data the trace shows arriving.

    The contiguous arrival boundary is a reassembly frontier.  Each
    arrival joins a min-heap keyed by its start, unwrapped against the
    frontier; after each arrival, every waiting segment starting at or
    below the frontier is popped and raises it to its end.  The
    frontier only rises (merges and evidence resyncs both move it up),
    so a popped segment can never move it again and is dropped for
    good.  Each arrival is pushed and popped once: O(n log n).
    """
    evidence = []
    reverse = flow.reversed()
    rcv_high = None    # highest contiguous arrival boundary seen
    high = 0           # rcv_high unwrapped: an integer that only rises
    # (start, end, raw end) of arrivals not yet merged, unwrapped
    waiting: list[tuple[int, int, int]] = []
    for record in trace:
        if record.flow == flow and (record.payload > 0 or record.is_syn
                                    or record.is_fin):
            if rcv_high is None:
                rcv_high = record.seq_end
                continue
            heapq.heappush(waiting, (high + seq_diff(record.seq, rcv_high),
                                     high + seq_diff(record.seq_end, rcv_high),
                                     record.seq_end))
            while waiting and waiting[0][0] <= high:
                _, end, raw_end = heapq.heappop(waiting)
                if end > high:
                    high, rcv_high = end, raw_end
        elif record.flow == reverse and record.has_ack and not record.is_syn:
            if rcv_high is not None and seq_gt(record.ack, rcv_high):
                evidence.append(DropEvidence(
                    "stretch_ack_gap", record.timestamp,
                    f"ack {record.ack} covers data never recorded "
                    f"arriving (recorded through {rcv_high})", record))
                high += seq_diff(record.ack, rcv_high)
                rcv_high = record.ack
    return evidence


def check_retransmission_of_unseen(trace: Trace, flow) -> list[DropEvidence]:
    """Check 8: a segment is re-sent whose original never appears.

    A retransmission is identifiable as data below the highest sent
    sequence; its start must match some earlier record's start.
    """
    columns = trace.columns()
    if columns.is_vector and not _screen_retransmission_of_unseen(columns,
                                                                  flow):
        return []
    evidence = []
    highest_sent = None
    starts_seen: set[int] = set()
    for record in trace:
        if record.flow != flow or record.payload == 0:
            continue
        if (highest_sent is not None and seq_lt(record.seq, highest_sent)
                and record.seq not in starts_seen):
            evidence.append(DropEvidence(
                "retransmission_of_unseen", record.timestamp,
                f"retransmission of {record.seq} whose original "
                f"transmission is unrecorded", record))
        starts_seen.add(record.seq)
        if highest_sent is None or seq_gt(record.seq_end, highest_sent):
            highest_sent = record.seq_end
    return evidence


# ---------------------------------------------------------------------------
# Columnar screens.  Each answers "could the corresponding loop find any
# evidence?" from the arrays alone.  Sequence values are unwrapped
# relative to the first relevant record (``columns.rel``), under the
# same <2**31-span assumption the modular helpers make.
# ---------------------------------------------------------------------------


def _screen_ack_for_unseen(columns, flow) -> bool:
    """Exact vector form of check 1's running maximum.

    ``highest_sent`` is a running max over sent-segment ends and
    evidence-resync acks; non-evidence acks never exceed it, so a
    running max over *all* post-first-send contributions is identical
    state, and evidence exists iff some ack strictly exceeds the
    maximum of everything before it.
    """
    np = numpy_module()
    fid = columns.flow_id(flow)
    rid = columns.reverse_id(fid)
    ids = columns.flow_ids
    sent = (ids == fid) & (columns.is_data | columns.is_syn | columns.is_fin)
    if rid < 0 or not sent.any():
        return False
    ackr = (ids == rid) & columns.has_ack & ~columns.is_syn
    if not ackr.any():
        return False
    base = int(columns.seq[int(np.flatnonzero(sent)[0])])
    floor = np.int64(_FLOOR)
    contrib = np.full(columns.n, floor)
    contrib[sent] = columns.rel(columns.seq_end[sent], base)
    seen = np.cumsum(sent) > 0
    sent_before = np.concatenate(([False], seen[:-1]))
    live_ack = ackr & sent_before       # acks before any send never count
    contrib[live_ack] = columns.rel(columns.ack[live_ack], base)
    running = np.maximum.accumulate(contrib)
    running_excl = np.concatenate(([floor], running[:-1]))
    return bool(np.any(live_ack
                       & (columns.rel(columns.ack, base) > running_excl)))


def _screen_sequence_gap(columns, flow) -> bool:
    """Exact vector form of check 2: data start above the prior max end."""
    np = numpy_module()
    idx = columns.indices("data", columns.flow_id(flow))
    if len(idx) < 2:
        return False
    base = int(columns.seq[int(idx[0])])
    seq = columns.rel(columns.seq[idx], base)
    end = columns.rel(columns.seq_end[idx], base)
    running = np.maximum.accumulate(end)
    return bool(np.any(seq[1:] > running[:-1]))


def _screen_ack_regression(columns, flow) -> bool:
    """Exact vector form of check 5: an ack below the prior ack max."""
    np = numpy_module()
    fid = columns.flow_id(flow)
    rid = columns.reverse_id(fid)
    if rid < 0:
        return False
    ids = columns.flow_ids
    idx = np.flatnonzero((ids == rid) & columns.has_ack & ~columns.is_syn)
    if idx.size < 2:
        return False
    ack = columns.rel(columns.ack[idx], int(columns.ack[int(idx[0])]))
    running = np.maximum.accumulate(ack)
    return bool(np.any(ack[1:] < running[:-1]))


def _screen_dup_acks(columns, flow) -> bool:
    """Exact vector form of check 6 over the event subsequence.

    ``arrivals_since_ack == 0`` with ``last_ack`` set means the
    previous *event* (arrival or ack) was an ack, so a candidate is an
    ack event whose immediate predecessor event is an ack with the
    same value, after at least one arrival, zero-payload and not FIN.
    """
    np = numpy_module()
    fid = columns.flow_id(flow)
    rid = columns.reverse_id(fid)
    if rid < 0:
        return False
    ids = columns.flow_ids
    arrival = (ids == fid) & (columns.is_data | columns.is_fin)
    ackm = (ids == rid) & columns.has_ack & ~columns.is_syn
    events = np.flatnonzero(arrival | ackm)
    if events.size < 3 or not arrival.any():
        return False
    is_ack_event = ackm[events]
    ack_values = columns.ack[events]
    prev_is_ack = np.concatenate(([False], is_ack_event[:-1]))
    prev_ack = np.concatenate(([np.int64(-1)], ack_values[:-1]))
    arrivals = np.cumsum(~is_ack_event)
    arrival_before = np.concatenate(([False], arrivals[:-1] > 0))
    return bool(np.any(is_ack_event & prev_is_ack & arrival_before
                       & (ack_values == prev_ack)
                       & (columns.payload[events] == 0)
                       & ~columns.is_fin[events]))


def _screen_retransmission_of_unseen(columns, flow) -> bool:
    """Exact vector form of check 8: a first-occurrence start below the
    prior max end is a retransmission whose original is unrecorded."""
    np = numpy_module()
    idx = columns.indices("data", columns.flow_id(flow))
    if len(idx) < 2:
        return False
    base = int(columns.seq[int(idx[0])])
    seq = columns.rel(columns.seq[idx], base)
    end = columns.rel(columns.seq_end[idx], base)
    running_excl = np.concatenate(([np.int64(_FLOOR)],
                                   np.maximum.accumulate(end)[:-1]))
    first_occurrence = np.zeros(len(idx), dtype=bool)
    first_occurrence[np.unique(seq, return_index=True)[1]] = True
    return bool(np.any(first_occurrence & (seq < running_excl)))


def _screen_fast_retransmit(columns, flow) -> bool:
    """Conservative screen for check 4: evidence needs at least one
    retransmitted data segment and some inbound acks."""
    np = numpy_module()
    fid = columns.flow_id(flow)
    rid = columns.reverse_id(fid)
    if rid < 0:
        return False
    ids = columns.flow_ids
    if not (((ids == rid) & columns.has_ack & ~columns.is_syn).any()):
        return False
    idx = columns.indices("data", fid)
    if len(idx) < 2:
        return False
    base = int(columns.seq[int(idx[0])])
    seq = columns.rel(columns.seq[idx], base)
    end = columns.rel(columns.seq_end[idx], base)
    running = np.maximum.accumulate(end)
    return bool(np.any(seq[1:] < running[:-1]))


def check_window_violation(trace: Trace, flow,
                           behavior: TCPBehavior,
                           sender_analysis=None) -> list[DropEvidence]:
    """Check 3: data beyond the computed congestion window (§3.1.1).

    The most powerful check: it requires understanding exactly how the
    traced implementation manages its congestion window, which the
    sender analyzer provides.  A violation here, on a trace whose
    implementation is otherwise known-good, indicates the filter
    dropped the ack(s) that would have opened the window.
    """
    if sender_analysis is not None:
        analysis = sender_analysis
    else:
        from repro.core.sender.analyzer import TraceUnusable, analyze_sender
        try:
            analysis = analyze_sender(trace, behavior)
        except (TraceUnusable, ValueError):
            return []
    return [DropEvidence("window_violation", v.record.timestamp,
                         v.note, v.record)
            for v in analysis.violations]


def check_fast_retransmit_without_dups(trace: Trace, flow,
                                       behavior: TCPBehavior
                                       ) -> list[DropEvidence]:
    """Check 4: fast retransmissions need their duplicate acks.

    If the traced TCP fast-retransmits (re-sends snd_una without a
    timeout-scale pause) but the trace shows fewer dup acks than the
    implementation's threshold, the filter missed acks.
    """
    if not behavior.fast_retransmit:
        return []
    columns = trace.columns()
    if columns.is_vector and not _screen_fast_retransmit(columns, flow):
        return []
    evidence = []
    reverse = flow.reversed()
    highest_sent = None
    last_advance_time = None
    dup_count = 0
    dup_level = None
    for record in trace:
        if record.flow == reverse and record.has_ack and not record.is_syn:
            if dup_level is not None and record.ack == dup_level \
                    and record.payload == 0:
                dup_count += 1
            else:
                dup_level = record.ack
                dup_count = 0
                last_advance_time = record.timestamp
        elif record.flow == flow and record.payload > 0:
            if highest_sent is not None and seq_lt(record.seq, highest_sent):
                quick = (last_advance_time is not None
                         and record.timestamp - last_advance_time < 0.15)
                if (quick and dup_level is not None
                        and record.seq == dup_level
                        and 0 < dup_count < behavior.dup_ack_threshold):
                    evidence.append(DropEvidence(
                        "fast_retransmit_without_dups", record.timestamp,
                        f"fast retransmission of {record.seq} after only "
                        f"{dup_count} recorded dup acks "
                        f"(threshold {behavior.dup_ack_threshold})", record))
            if highest_sent is None or seq_gt(record.seq_end, highest_sent):
                highest_sent = record.seq_end
    return evidence

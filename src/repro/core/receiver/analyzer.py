"""Receiver analysis: acking policy, gratuitous acks, corruption (§7, §9).

Given a trace captured at (or near) the data *receiver*, replay the
arrivals against a model of the receiving TCP, track ack obligations,
and explain every outbound ack:

* its class — **delayed** (acks < 2 full-sized segments), **normal**
  (exactly 2), or **stretch** (> 2), per §9.1;
* its generation delay — ack time minus the oldest obligation it
  discharges (§9.3's "response delays");
* or **gratuitous** — discharging nothing and changing nothing, the
  signature of analyzer confusion or measurement error (§7).

Corrupted arrivals are handled two ways, as in the paper: when the
filter captured whole packets, checksums identify them directly
(``record.corrupted``); for header-only traces the analyzer *infers*
a discard when data the trace shows arriving is never acknowledged
before the same data arrives again (§7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.packets import FlowKey
from repro.tcp.params import TCPBehavior
from repro.trace.columns import RecordRows
from repro.trace.record import Trace, TraceRecord
from repro.units import seq_diff, seq_gt, seq_le

from repro.core.receiver.obligations import (
    MAX_ACK_DELAY,
    AckObligation,
    ObligationTracker,
)

#: Grace period for mandatory (immediate) acks: covers kernel response
#: delay, vantage-point slop, and interval-timer policies whose
#: "immediate" path still rides a ~50 ms timer.
MANDATORY_ACK_DEADLINE = 0.075


@dataclass(frozen=True, slots=True)
class AckExplanation:
    """The analyzer's account of one outbound ack.

    It names the ack by position in pass one's ``events`` timeline;
    the ``TraceRecord`` is built only when :attr:`record` is read.
    """

    #: Pass one's event timeline (``ReceiverPassOne.events``).
    events: Sequence[TraceRecord] = field(repr=False)
    #: The ack's index in ``events``.
    position: int
    kind: str                  # delayed / normal / stretch / dup /
    #                            window_update / fin_ack / gratuitous
    acked_bytes: int = 0
    generation_delay: float | None = None
    note: str = ""
    #: Reasons of the obligations this ack discharged (in_sequence,
    #: out_of_sequence, hole_fill, old_data, probe, fin).
    discharged_reasons: tuple[str, ...] = ()

    @property
    def record(self) -> TraceRecord:
        return self.events[self.position]


@dataclass
class ReceiverAnalysis:
    """Everything the receiver analysis learned from one trace."""

    implementation: str
    behavior: TCPBehavior
    explanations: list[AckExplanation] = field(default_factory=list)
    gratuitous: list[AckExplanation] = field(default_factory=list)
    missed_obligations: list[AckObligation] = field(default_factory=list)
    verified_corrupt: list[TraceRecord] = field(default_factory=list)
    inferred_corrupt: list[TraceRecord] = field(default_factory=list)
    delay_ceiling_violations: list[AckExplanation] = field(
        default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: The data sender's full segment size (from its SYN MSS option).
    full_size: int = 536
    #: Whether the acking policy could have changed this replay: some
    #: obligation whose ``mandatory`` flag the policy decides was
    #: still pending more than :data:`MANDATORY_ACK_DEADLINE` after it
    #: was incurred (``ObligationTracker.policy_mattered``).  When
    #: False, every policy replays this trace identically.
    policy_mattered: bool = False

    def counts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self.explanations:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return counts

    def delays_for(self, kind: str) -> list[float]:
        return [e.generation_delay for e in self.explanations
                if e.kind == kind and e.generation_delay is not None]

    @property
    def ack_count(self) -> int:
        return len(self.explanations)

    def summary(self) -> str:
        kinds = ", ".join(f"{k}={v}" for k, v in
                          sorted(self.counts_by_kind().items()))
        return (f"{self.implementation} receiver: {self.ack_count} acks "
                f"({kinds}); {len(self.gratuitous)} gratuitous; "
                f"{len(self.verified_corrupt)} verified + "
                f"{len(self.inferred_corrupt)} inferred corrupt arrivals")


@dataclass(slots=True)
class ReceiverPassOne:
    """Candidate-independent facts about a receiver-side trace.

    The receiver replay depends on the candidate only through its
    acking-policy fields; everything here — flow, sender segment size,
    discarded arrivals, the arrival/ack event timeline — is computed
    once per trace by :func:`extract_receiver_pass_one` and shared
    across all candidate replays.
    """

    flow: FlowKey
    full_size: int
    syn_seq: int
    #: Arrivals and outbound acks in trace order (records built when
    #: read: a ``RecordRows`` view in production).
    events: Sequence[TraceRecord]
    #: ``events`` as plain ``(timestamp, inbound, seq, ack, window,
    #: payload, fin)`` rows, index for index: what every replay step
    #: reads.  ``inbound`` marks an arrival on the data flow; the rest
    #: are the receiver's outbound acks.
    rows: list[tuple[float, bool, int, int, int, int, bool]]
    discarded: frozenset[int]
    verified_corrupt: list[TraceRecord]
    inferred_corrupt: list[TraceRecord]
    headers_only: bool


def extract_receiver_pass_one(trace: Trace,
                              headers_only: bool = False) -> ReceiverPassOne:
    """Pass one of receiver analysis: facts and the event timeline,
    with the discard/event scans run as column kernels."""
    from repro.core.receiver import corruption
    columns = trace.columns()
    primary = columns.primary_flow_id()
    flow = columns.flows[primary]
    in_flow = columns.flow_ids == primary
    syn_i = columns.first_index(in_flow & columns.is_syn
                                & ~columns.has_ack)
    if syn_i < 0:
        raise ValueError("trace does not contain the connection SYN")
    syn = columns.record(syn_i)
    full_size = syn.mss_option if syn.mss_option is not None else 536
    verified_corrupt: list[TraceRecord] = []
    inferred_corrupt: list[TraceRecord] = []
    if headers_only:
        # Discard inference walks forward from each arrival until the
        # next covering ack or retransmission — inherently sequential
        # and rare (header-only captures only); the loop stays.
        inferred_corrupt = corruption.inferred_discards(trace, flow)
        discarded = frozenset(r.packet_id for r in inferred_corrupt)
    else:
        verified_corrupt = columns.records_at(
            np.flatnonzero(in_flow & columns.corrupted))
        discarded = frozenset(r.packet_id for r in verified_corrupt)
    reverse_fid = columns.reverse_id(primary)
    event_mask = in_flow & (columns.is_data | columns.is_fin)
    if reverse_fid >= 0:
        event_mask = event_mask | ((columns.flow_ids == reverse_fid)
                                   & columns.has_ack & ~columns.is_syn)
    event_idx = np.flatnonzero(event_mask)
    rows = list(zip(columns.timestamp[event_idx].tolist(),
                    in_flow[event_idx].tolist(),
                    columns.seq[event_idx].tolist(),
                    columns.ack[event_idx].tolist(),
                    columns.window[event_idx].tolist(),
                    columns.payload[event_idx].tolist(),
                    columns.is_fin[event_idx].tolist()))
    return ReceiverPassOne(
        flow=flow, full_size=full_size, syn_seq=syn.seq,
        events=RecordRows(columns, event_idx.tolist()), rows=rows,
        discarded=discarded, verified_corrupt=verified_corrupt,
        inferred_corrupt=inferred_corrupt, headers_only=headers_only)


def analyze_receiver(trace: Trace | None, behavior: TCPBehavior,
                     implementation: str | None = None,
                     headers_only: bool = False, *,
                     pass_one: ReceiverPassOne | None = None
                     ) -> ReceiverAnalysis:
    """Analyze *trace*'s receiver behavior against *behavior*.

    ``pass_one`` supplies precomputed shared facts (*trace* may then
    be ``None``; its ``headers_only`` choice wins).
    """
    if pass_one is None:
        if trace is None:
            raise TypeError("analyze_receiver needs a trace or a pass_one")
        pass_one = extract_receiver_pass_one(trace, headers_only)
    analysis = ReceiverAnalysis(
        implementation=implementation or behavior.label(),
        behavior=behavior)
    full_size = pass_one.full_size
    analysis.full_size = full_size
    analysis.verified_corrupt = list(pass_one.verified_corrupt)
    analysis.inferred_corrupt = list(pass_one.inferred_corrupt)
    discarded = pass_one.discarded

    rcv_nxt = (pass_one.syn_seq + 1) % 2**32
    last_ack_value = rcv_nxt
    last_window: int | None = None
    ooo: list[tuple[int, int]] = []
    tracker = ObligationTracker()
    fin_rcv_seq: int | None = None

    mandatory_hole_fill = behavior.immediate_ack_on_hole_fill
    ack_on_consumption = behavior.ack_on_consumption
    last_arrival_time = float("-inf")
    events = pass_one.events
    for position, (time, inbound, seq, ack, window, payload, fin) in \
            enumerate(pass_one.rows):
        if tracker.pending:
            tracker.expire(time, MANDATORY_ACK_DEADLINE)
        if inbound:
            if discarded and events[position].packet_id in discarded:
                continue  # the kernel dropped it before TCP saw it
            last_arrival_time = time
            if payload == 1 and last_window == 0:
                # A zero-window probe: rejected, but acked (mandatory).
                tracker.incur(AckObligation(
                    time, mandatory=True, reason="probe",
                    covering_ack=rcv_nxt))
                continue
            rcv_nxt, ooo, fin_rcv_seq = _arrival(
                time, seq, payload, fin, rcv_nxt, ooo, tracker,
                full_size, last_ack_value, fin_rcv_seq,
                mandatory_hole_fill, ack_on_consumption)
        else:
            last_ack_value, last_window = _outbound_ack(
                events, position, time, ack, window, rcv_nxt, last_ack_value,
                last_window, tracker, full_size, fin_rcv_seq, analysis,
                last_arrival_time)

    tracker.expire(float("inf"), MANDATORY_ACK_DEADLINE)
    analysis.missed_obligations = tracker.missed
    analysis.policy_mattered = tracker.policy_mattered
    return analysis


def _arrival(time: float, seg_start: int, payload: int, fin: bool,
             rcv_nxt: int, ooo: list[tuple[int, int]],
             tracker: ObligationTracker, full_size: int,
             last_ack_value: int, fin_rcv_seq: int | None,
             mandatory_hole_fill: bool = True,
             ack_on_consumption: bool = False):
    """Update the receiver replica for one data packet arriving at
    *time* and incur the corresponding obligation."""
    seg_end = (seg_start + payload + (1 if fin else 0)) % 2**32
    if fin:
        fin_rcv_seq = seg_end

    if seq_le(seg_end, rcv_nxt):
        tracker.incur(AckObligation(time, mandatory=True, reason="old_data",
                                    covering_ack=rcv_nxt))
        return rcv_nxt, ooo, fin_rcv_seq

    if seq_gt(seg_start, rcv_nxt):
        if (seg_start, seg_end) not in ooo:
            ooo.append((seg_start, seg_end))
            ooo.sort(key=lambda iv: seq_diff(iv[0], rcv_nxt))
        tracker.incur(AckObligation(time, mandatory=True,
                                    reason="out_of_sequence",
                                    covering_ack=rcv_nxt))
        return rcv_nxt, ooo, fin_rcv_seq

    new_bytes = seq_diff(seg_end, rcv_nxt)
    rcv_nxt = seg_end
    filled_hole = False
    while ooo and seq_le(ooo[0][0], rcv_nxt):
        start, end = ooo.pop(0)
        if seq_gt(end, rcv_nxt):
            new_bytes += seq_diff(end, rcv_nxt)
            rcv_nxt = end
        filled_hole = True

    if fin or (fin_rcv_seq is not None and rcv_nxt == fin_rcv_seq):
        tracker.incur(AckObligation(time, mandatory=True, reason="fin",
                                    covering_ack=rcv_nxt,
                                    new_bytes=new_bytes))
    elif filled_hole:
        # Whether a hole fill demands an immediate ack is itself an
        # implementation behavior (the Solaris 2.3 bug treats it as
        # optional, §8.6); the candidate's flag decides.
        tracker.incur(AckObligation(time, mandatory=mandatory_hole_fill,
                                    reason="hole_fill",
                                    covering_ack=rcv_nxt,
                                    new_bytes=new_bytes,
                                    policy_dependent=True))
    else:
        unacked = seq_diff(rcv_nxt, last_ack_value)
        # Consumption-acking stacks (§9.1) generate the two-segment ack
        # only when the application reads — invisible from the trace —
        # so the obligation stays optional (the 500 ms ceiling still
        # applies).
        two_segments = unacked >= 2 * full_size
        tracker.incur(AckObligation(time,
                                    mandatory=(two_segments
                                               and not ack_on_consumption),
                                    reason="in_sequence",
                                    covering_ack=rcv_nxt,
                                    new_bytes=new_bytes,
                                    policy_dependent=two_segments))
    return rcv_nxt, ooo, fin_rcv_seq


def _outbound_ack(events: Sequence[TraceRecord], position: int,
                  time: float, ack: int, window: int,
                  rcv_nxt: int, last_ack_value: int,
                  last_window: int | None, tracker: ObligationTracker,
                  full_size: int, fin_rcv_seq: int | None,
                  analysis: ReceiverAnalysis,
                  last_arrival_time: float = float("-inf")):
    """Explain one observed outbound ack (``events[position]``, whose
    time, ack number and window the caller has unpacked)."""
    acked = seq_diff(ack, last_ack_value)
    window_changed = last_window is not None and window != last_window
    oldest = tracker.oldest_pending_time()
    discharged = tracker.discharge(time)
    delay = (time - oldest) if oldest is not None else None
    reasons = tuple(o.reason for o in discharged)

    if acked <= 0:
        if discharged and any(o.reason in ("out_of_sequence", "old_data",
                                           "probe")
                              for o in discharged):
            explanation = AckExplanation(
                events, position, "dup", acked_bytes=0,
                generation_delay=delay, discharged_reasons=reasons)
        elif window_changed:
            explanation = AckExplanation(events, position, "window_update",
                                         generation_delay=delay,
                                         discharged_reasons=reasons)
        elif fin_rcv_seq is not None and ack == fin_rcv_seq:
            explanation = AckExplanation(events, position, "fin_ack",
                                         generation_delay=delay,
                                         discharged_reasons=reasons)
        elif time - last_arrival_time <= 0.010:
            # Vantage-point slop (§3.2): the filter recorded another
            # arrival just before this ack left, so the TCP may have
            # emitted this ack for an obligation the previous ack
            # appeared (to us) to have discharged already.
            explanation = AckExplanation(
                events, position, "dup", acked_bytes=0,
                note="response to an arrival within vantage slop")
        else:
            explanation = AckExplanation(
                events, position, "gratuitous",
                note="no obligation, no window change")
            analysis.gratuitous.append(explanation)
    elif fin_rcv_seq is not None and ack == fin_rcv_seq:
        explanation = AckExplanation(
            events, position, "fin_ack", acked_bytes=acked,
            generation_delay=delay, discharged_reasons=reasons)
    elif acked < 2 * full_size:
        explanation = AckExplanation(
            events, position, "delayed", acked_bytes=acked,
            generation_delay=delay, discharged_reasons=reasons)
    elif acked < 3 * full_size:
        explanation = AckExplanation(
            events, position, "normal", acked_bytes=acked,
            generation_delay=delay, discharged_reasons=reasons)
    else:
        explanation = AckExplanation(
            events, position, "stretch", acked_bytes=acked,
            generation_delay=delay, discharged_reasons=reasons)

    analysis.explanations.append(explanation)
    if delay is not None and delay > MAX_ACK_DELAY:
        analysis.delay_ceiling_violations.append(explanation)
    return (ack if seq_gt(ack, last_ack_value) else last_ack_value), window

"""Filter-resequencing detection (§3.1.3).

Resequencing — the filter recording packets in an order that does not
reflect the network — destroys cause-and-effect analysis, so tcpanaly
must notice it and distrust the trace.  Three situations give it away:

(i)   a data packet sent after a lengthy lull, followed *very shortly*
      by an ack — the real cause, recorded too late;
(ii)  a data packet sent in violation of the congestion or offered
      window, shortly followed by an ack that would have permitted it
      (this one needs the behavior model, and is delegated to the
      sender analyzer's look-ahead);
(iii) an ack for data that has not yet arrived — which then arrives
      very shortly afterward (receiver vantage).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tcp.params import TCPBehavior
from repro.trace.record import Trace, TraceRecord
from repro.units import seq_ge, seq_gt

#: "Very shortly": resequencing events involve time scales of a few
#: hundred microseconds to a few milliseconds (§3.1.3).
SHORTLY = 0.010
#: "A lengthy lull" before the suspicious data packet.
LULL = 0.100


@dataclass(frozen=True)
class ResequencingEvent:
    """One detected inversion of recorded cause and effect."""

    situation: str             # "lull_then_ack" (i), "window_then_ack" (ii),
    #                            "ack_before_arrival" (iii)
    time: float
    data_record: TraceRecord | None
    ack_record: TraceRecord | None
    detail: str = ""


def detect_resequencing(trace: Trace,
                        behavior: TCPBehavior | None = None,
                        vantage: str | None = None,
                        sender_analysis=None) -> list[ResequencingEvent]:
    """Run the resequencing detectors applicable at this vantage.

    *sender_analysis* supplies an already-computed replay of (*trace*,
    *behavior*) so situation (ii) need not run its own.
    """
    if not len(trace):
        return []
    try:
        flow = trace.primary_flow()
    except ValueError:
        return []
    from repro.core.vantage import infer_vantage
    if vantage is None:
        vantage = infer_vantage(trace)
    if vantage == "sender":
        events = detect_lull_then_ack(trace, flow)
        if behavior is not None:
            events += detect_window_then_ack(trace, behavior,
                                             sender_analysis)
    else:
        events = detect_ack_before_arrival(trace, flow)
    events.sort(key=lambda e: e.time)
    return events


def detect_lull_then_ack(trace: Trace, flow) -> list[ResequencingEvent]:
    """Situation (i): data after a lull, trailed closely by an ack.

    A sender that has been idle sends *because something arrived*;
    if the arrival is recorded just after instead, the filter
    reordered them.
    """
    events = []
    lulled = _lulled_data_indices(trace, flow)
    if not lulled:
        return events
    # Column rows, not records: a record is built only for an event.
    columns = trace.columns()
    rid = columns.reverse_id(columns.flow_id(flow))
    inbound_ack = ((columns.flow_ids == rid) & columns.has_ack).tolist()
    ts = columns.timestamp.tolist()
    seq = columns.seq.tolist()
    ack = columns.ack.tolist()
    for i in lulled:
        # Was there an inbound advancing ack *just before* that
        # explains the send?  If so, no anomaly.
        explained = any(inbound_ack[j] and ts[i] - ts[j] <= LULL
                        for j in range(max(0, i - 6), i))
        if explained:
            continue
        for j in range(i + 1, min(i + 6, columns.n)):
            if ts[j] - ts[i] > SHORTLY:
                break
            if inbound_ack[j] and seq_ge(ack[j], seq[i]):
                events.append(ResequencingEvent(
                    "lull_then_ack", ts[i], columns.record(i),
                    columns.record(j),
                    f"data at {ts[i]:.6f} after "
                    f"a lull; liberating ack recorded "
                    f"{(ts[j] - ts[i]) * 1e6:.0f} us "
                    f"later"))
                break
    return events


def _lulled_data_indices(trace: Trace, flow) -> list[int]:
    """Record indices of the flow's data packets sent after a > LULL
    gap since the previous data packet — situation (i)'s candidates.
    Lulls are rare, so finding them vectorially skips the per-record
    walk for almost every trace."""
    columns = trace.columns()
    idx = columns.indices("data", columns.flow_id(flow))
    if len(idx) < 2:
        return []
    ts = columns.timestamp[idx]
    return [int(i) for i in idx[np.flatnonzero(np.diff(ts) > LULL) + 1]]


def detect_ack_before_arrival(trace: Trace, flow) -> list[ResequencingEvent]:
    """Situation (iii): an ack for data recorded as arriving later.

    Only meaningful at the receiver's vantage, where the trace shows
    the acked data arriving; the outbound ack must never precede the
    arrival it acknowledges.
    """
    columns = trace.columns()
    if not _screen_ack_before_arrival(columns, flow):
        return []
    events = []
    # Column rows, not records: a record is built only for an event.
    # The screen passed, so both directions are in the trace.
    fid = columns.flow_id(flow)
    rid = columns.reverse_id(fid)
    ids = columns.flow_ids
    arrival = ((ids == fid) & (columns.is_data | columns.is_syn)).tolist()
    outbound_ack = ((ids == rid) & columns.has_ack
                    & ~columns.is_syn).tolist()
    data = ((ids == fid) & columns.is_data).tolist()
    ts = columns.timestamp.tolist()
    seq_end = columns.seq_end.tolist()
    ack = columns.ack.tolist()
    rcv_high: int | None = None
    for i in range(columns.n):
        if arrival[i]:
            if rcv_high is None or seq_gt(seq_end[i], rcv_high):
                rcv_high = seq_end[i]
        elif outbound_ack[i]:
            if rcv_high is None or not seq_gt(ack[i], rcv_high):
                continue
            # The ack covers unseen data: does it arrive very shortly?
            for j in range(i + 1, min(i + 6, columns.n)):
                if ts[j] - ts[i] > SHORTLY:
                    break
                if data[j] and seq_ge(seq_end[j], ack[i]):
                    events.append(ResequencingEvent(
                        "ack_before_arrival", ts[i], columns.record(j),
                        columns.record(i),
                        f"ack {ack[i]} precedes the arrival it "
                        f"acknowledges by "
                        f"{(ts[j] - ts[i]) * 1e6:.0f} "
                        f"us"))
                    rcv_high = ack[i]
                    break
    return events


def _screen_ack_before_arrival(columns, flow) -> bool:
    """Superset screen for situation (iii): candidates are acks above
    the running max of arrival ends.  The loop's resync only *raises*
    ``rcv_high``, so the arrival-only running max is a lower bound and
    every real event is a candidate."""
    fid = columns.flow_id(flow)
    rid = columns.reverse_id(fid)
    ids = columns.flow_ids
    arrival = (ids == fid) & (columns.is_data | columns.is_syn)
    if rid < 0 or not arrival.any():
        return False
    ackm = (ids == rid) & columns.has_ack & ~columns.is_syn
    if not ackm.any():
        return False
    base = int(columns.seq[int(np.flatnonzero(arrival)[0])])
    floor = np.int64(-(2**62))
    contrib = np.full(columns.n, floor)
    contrib[arrival] = columns.rel(columns.seq_end[arrival], base)
    running = np.maximum.accumulate(contrib)
    running_excl = np.concatenate(([floor], running[:-1]))
    arrived_before = np.concatenate(([False],
                                     (np.cumsum(arrival) > 0)[:-1]))
    return bool(np.any(ackm & arrived_before
                       & (columns.rel(columns.ack, base) > running_excl)))


def detect_window_then_ack(trace: Trace,
                           behavior: TCPBehavior,
                           sender_analysis=None) -> list[ResequencingEvent]:
    """Situation (ii): window-violating data explained by a
    just-after ack — found by the sender analyzer's look-ahead."""
    if sender_analysis is not None:
        analysis = sender_analysis
    else:
        from repro.core.sender.analyzer import TraceUnusable, analyze_sender
        try:
            analysis = analyze_sender(trace, behavior)
        except (TraceUnusable, ValueError):
            return []
    return [
        ResequencingEvent("window_then_ack", clue.record.timestamp,
                          clue.record, None, clue.note)
        for clue in analysis.resequencing_clues
    ]

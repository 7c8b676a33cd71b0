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
    if not trace.records:
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
    records = trace.records
    reverse = flow.reversed()
    for i in _lulled_data_indices(trace, flow):
        record = records[i]
        # Was there an inbound advancing ack *just before* that
        # explains the send?  If so, no anomaly.
        explained = any(
            earlier.flow == reverse and earlier.has_ack
            and record.timestamp - earlier.timestamp <= LULL
            for earlier in records[max(0, i - 6):i])
        if explained:
            continue
        for later in records[i + 1:i + 6]:
            if later.timestamp - record.timestamp > SHORTLY:
                break
            if (later.flow == reverse and later.has_ack
                    and seq_ge(later.ack, record.seq)):
                events.append(ResequencingEvent(
                    "lull_then_ack", record.timestamp, record, later,
                    f"data at {record.timestamp:.6f} after "
                    f"a lull; liberating ack recorded "
                    f"{(later.timestamp - record.timestamp) * 1e6:.0f} us "
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
    records = trace.records
    # Flow ids, not ``record.flow``, which builds a FlowKey per record.
    # The screen passed, so both directions are in the trace.
    ids = columns.flow_ids.tolist()
    fid = columns.flow_id(flow)
    rid = columns.reverse_id(fid)
    rcv_high: int | None = None
    for i, record in enumerate(records):
        if ids[i] == fid and (record.payload > 0 or record.is_syn):
            if rcv_high is None or seq_gt(record.seq_end, rcv_high):
                rcv_high = record.seq_end
        elif (ids[i] == rid and record.has_ack
              and not record.is_syn):
            if rcv_high is None or not seq_gt(record.ack, rcv_high):
                continue
            # The ack covers unseen data: does it arrive very shortly?
            for j in range(i + 1, min(i + 6, len(records))):
                later = records[j]
                if later.timestamp - record.timestamp > SHORTLY:
                    break
                if (ids[j] == fid and later.payload > 0
                        and seq_ge(later.seq_end, record.ack)):
                    events.append(ResequencingEvent(
                        "ack_before_arrival", record.timestamp, later,
                        record,
                        f"ack {record.ack} precedes the arrival it "
                        f"acknowledges by "
                        f"{(later.timestamp - record.timestamp) * 1e6:.0f} "
                        f"us"))
                    rcv_high = record.ack
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

"""Measurement-duplicate ("addition") detection and removal (§3.1.2).

The IRIX 5.2/5.3 filters copied outgoing packets to the filter twice:
once when the OS scheduled them (bogus, early timing at the OS's
internal rate) and once when they departed onto the Ethernet
(accurate, rate-limited timing) — Figure 1 of the paper.

A measurement duplicate differs from a genuine TCP retransmission or
network duplication in its signature: header-identical, recorded a few
hundred microseconds to a few milliseconds apart, with *no intervening
reverse-direction traffic* that could have provoked a retransmission.
tcpanaly copes by discarding the later copy; so do we.

:func:`slope_analysis` extracts the two apparent data rates (the
diagnostic evidence of Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.record import Trace, TraceRecord
from repro.units import seq_diff

#: Copies further apart than this are not measurement duplicates —
#: even the fastest genuine retransmissions (Solaris's broken timer)
#: take ≥ ~200 ms.
DUPLICATE_WINDOW = 0.050


@dataclass(frozen=True)
class DuplicateEvent:
    """A detected measurement duplicate: the pair of records."""

    first: TraceRecord
    second: TraceRecord

    @property
    def spacing(self) -> float:
        return self.second.timestamp - self.first.timestamp


def _header_key(record: TraceRecord) -> tuple:
    return (record.src, record.dst, record.seq, record.ack, record.flags,
            record.payload, record.window, record.mss_option)


def detect_duplicates(trace: Trace, vantage: str | None = None,
                      behavior=None) -> list[DuplicateEvent]:
    """Find measurement-duplicate pairs in recording order.

    Only packets *outbound from the vantage host* are candidates: the
    double-copy defect occurs in the sending machine's own output path
    (§3.1.2).  A repeat is genuine TCP traffic — not a measurement
    artifact — when something could have *provoked* it:

    * a repeated outbound **ack** is a duplicate ack whenever any data
      arrived between the copies (receivers ack what arrives);
    * a repeated outbound **data** packet is a retransmission whenever
      an inbound dup-ack train reached the implementation's trigger
      threshold between the copies — three for fast retransmit, a
      single dup ack for Linux 1.0's flight bursts (§8.5).  Knowing
      the traced implementation (*behavior*) sharpens this; without
      it the standard threshold of three is assumed.

    Timeout-driven repeats need no inbound traffic but sit at RTO
    scale, outside the 50 ms window.
    """
    if not len(trace):
        return []
    from repro.core.vantage import infer_vantage
    if vantage is None:
        vantage = infer_vantage(trace)
    try:
        flow = trace.primary_flow()
    except ValueError:
        return []
    outbound_flow = flow if vantage == "sender" else flow.reversed()
    columns = trace.columns()
    outbound = columns.flow_id(outbound_flow)
    if not _has_close_header_repeat(columns, outbound):
        return []
    if behavior is not None and behavior.dup_ack_triggers_flight_retransmit:
        dup_trigger = 1
    elif behavior is not None:
        dup_trigger = behavior.dup_ack_threshold
    else:
        dup_trigger = 3

    events: list[DuplicateEvent] = []
    records = trace.records
    # Flow ids, not ``record.flow``, which builds a FlowKey per record.
    ids = columns.flow_ids.tolist()
    claimed: set[int] = set()       # indices already matched as a copy
    for i, first in enumerate(records):
        if i in claimed or ids[i] != outbound:
            continue
        key = _header_key(first)
        intervening_dups = 0
        last_inbound_ack: int | None = None
        provoked = False
        for j in range(i + 1, len(records)):
            second = records[j]
            if second.timestamp - first.timestamp > DUPLICATE_WINDOW:
                break
            if j in claimed:
                continue
            if _header_key(second) != key:
                if ids[j] == outbound:
                    continue
                if first.payload == 0 and (second.payload > 0
                                           or second.is_fin):
                    provoked = True   # data arrival explains an ack repeat
                elif first.payload > 0 and second.has_ack \
                        and second.payload == 0:
                    if second.ack == last_inbound_ack:
                        intervening_dups += 1
                    else:
                        last_inbound_ack = second.ack
                        intervening_dups = 1
                    if intervening_dups >= dup_trigger:
                        provoked = True
                if provoked:
                    break
                continue
            events.append(DuplicateEvent(first, second))
            claimed.add(j)
            break
    return events


def _has_close_header_repeat(columns, fid) -> bool:
    """Superset screen for the quadratic pair matcher: does *any*
    header-identical outbound pair sit within DUPLICATE_WINDOW?

    Sorting the flow's records by header key (timestamp last) puts
    identical headers into runs ordered by time; any qualifying pair
    implies an adjacent sorted pair within the window.  Provocation
    analysis only *removes* matches, so no-repeat means no duplicates.
    """
    idx = columns.indices("flow", fid)    # src/dst constant within a flow
    if len(idx) < 2:
        return False
    ts = columns.timestamp[idx]
    key_columns = (columns.seq[idx], columns.ack[idx], columns.flags[idx],
                   columns.payload[idx], columns.window[idx],
                   columns.mss_option[idx])
    order = np.lexsort((ts,) + key_columns)
    same = np.ones(len(idx) - 1, dtype=bool)
    for column in key_columns:
        in_order = column[order]
        same &= in_order[1:] == in_order[:-1]
    ts_in_order = ts[order]
    return bool(np.any(same
                       & (ts_in_order[1:] - ts_in_order[:-1]
                          <= DUPLICATE_WINDOW)))


def remove_duplicates(trace: Trace,
                      duplicates: list[DuplicateEvent] | None = None
                      ) -> Trace:
    """Return a trace with each duplicate's *later* copy discarded."""
    if duplicates is None:
        duplicates = detect_duplicates(trace)
    if not duplicates:
        return trace
    # Records are frozen dataclasses; identify later copies by identity.
    later = {id(event.second) for event in duplicates}
    return Trace(records=[r for r in trace.records if id(r) not in later],
                 vantage=trace.vantage, filter_name=trace.filter_name,
                 reported_drops=trace.reported_drops)


@dataclass
class SlopeAnalysis:
    """The two apparent data rates of a duplicated trace (Figure 1)."""

    first_copy_rate: float     # bytes/sec of the early (bogus) copies
    second_copy_rate: float    # bytes/sec of the late (wire-true) copies
    pairs: int


def slope_analysis(trace: Trace,
                   duplicates: list[DuplicateEvent] | None = None
                   ) -> SlopeAnalysis | None:
    """Estimate the data rates of the early and late copy streams.

    Only bursts tell the two slopes apart, so rates are measured
    across consecutive duplicate pairs recorded close together.
    Returns None when there are too few duplicates to measure.
    """
    if duplicates is None:
        duplicates = detect_duplicates(trace)
    data_pairs = [d for d in duplicates if d.first.payload > 0]
    if len(data_pairs) < 3:
        return None
    first_rates = []
    second_rates = []
    for previous, current in zip(data_pairs, data_pairs[1:]):
        gap_first = current.first.timestamp - previous.first.timestamp
        gap_second = current.second.timestamp - previous.second.timestamp
        advance = seq_diff(current.first.seq, previous.first.seq)
        if advance <= 0:
            continue
        if 0 < gap_first < 0.25:
            first_rates.append(advance / gap_first)
        if 0 < gap_second < 0.25:
            second_rates.append(advance / gap_second)
    if not first_rates or not second_rates:
        return None
    first_rates.sort()
    second_rates.sort()
    return SlopeAnalysis(
        first_copy_rate=first_rates[len(first_rates) // 2],
        second_copy_rate=second_rates[len(second_rates) // 2],
        pairs=len(data_pairs))

"""Per-record oracles for the column kernels, and an oracle mode.

Pass one, time-travel detection, vantage inference and the lull scan
of resequencing situation (i) run as numpy kernels over a trace's
columns (``repro.trace.columns``).  The per-record loops they replaced
live on here, unchanged in substance, as the equivalence oracle: each
one computes what its kernel must compute.  Calibration checks keep
their loops in production behind vectorized *screens*; bypassing the
screens runs those loops on every trace.

:func:`oracle_mode` swaps every reference to a kernel for its oracle
and makes every screen answer "maybe", so a whole pipeline run in
oracle mode is the scalar reference for the same run in production.

Not collected: the file name has no ``test_`` prefix.
"""

from __future__ import annotations

import sys
from collections import Counter

from repro.core import vantage
from repro.core.calibrate import additions, drops, resequencing, timing
from repro.core.calibrate.resequencing import LULL
from repro.core.calibrate.timing import TimeTravelEvent
from repro.core.receiver import analyzer as receiver_analyzer
from repro.core.receiver import corruption
from repro.core.receiver.analyzer import ReceiverPassOne
from repro.core.sender import analyzer as sender_analyzer
from repro.core.sender.analyzer import (
    EARLY_RAMP_PACKETS,
    ConnectionFacts,
    SenderPassOne,
    TraceUnusable,
    _handshake_mss,
)
from repro.core.vantage import LOCAL_RESPONSE
from repro.trace.record import Trace, TraceRecord
from repro.units import seq_diff, seq_gt


def sender_pass_one(trace: Trace) -> SenderPassOne:
    """Oracle for ``extract_pass_one``: one scan over the records."""
    flow = trace.primary_flow()
    reverse = flow.reversed()
    syn = next((r for r in trace if r.flow == flow and r.is_syn
                and not r.has_ack), None)
    synack = next((r for r in trace if r.flow == reverse and r.is_syn
                   and r.has_ack), None)
    if syn is None or synack is None:
        raise TraceUnusable("trace does not contain the SYN handshake")

    offered_mss, peer_offered, negotiated = _handshake_mss(syn, synack)
    synack_time = synack.timestamp

    highest_sent = (syn.seq + 1) % 2**32
    highest_ack = highest_sent
    max_in_flight = 0
    early_peak_flight = 0
    total_data = 0
    data_count = 0
    syn_count = 0
    fin_seen = False
    data: list[TraceRecord] = []
    acks: list[TraceRecord] = []
    data_rows: list[tuple[float, int, int, int]] = []
    ack_rows: list[tuple[float, int, int, int]] = []
    for record in trace:
        if record.flow == flow:
            if record.payload > 0:
                end = record.seq_end
                data.append(record)
                data_rows.append((record.timestamp, record.seq, end,
                                  record.payload))
                data_count += 1
                if seq_gt(end, highest_sent):
                    total_data += seq_diff(end, highest_sent)
                    highest_sent = end
                in_flight = seq_diff(highest_sent, highest_ack)
                if in_flight > max_in_flight:
                    max_in_flight = in_flight
                if (data_count <= EARLY_RAMP_PACKETS
                        and in_flight > early_peak_flight):
                    early_peak_flight = in_flight
            if record.is_syn and not record.has_ack:
                syn_count += 1
            if record.is_fin:
                fin_seen = True
        elif record.flow == reverse and record.has_ack:
            if not record.is_syn and record.timestamp >= synack_time:
                acks.append(record)
                ack_rows.append((record.timestamp, record.ack,
                                 record.window, record.payload))
            if seq_gt(record.ack, highest_ack):
                highest_ack = record.ack
    facts = ConnectionFacts(
        flow=flow, iss=syn.seq, irs=synack.seq, offered_mss=offered_mss,
        negotiated_mss=negotiated, peer_offered_mss_option=peer_offered,
        synack_time=synack_time,
        initial_offered_window=synack.window,
        max_in_flight=max_in_flight, total_data=total_data,
        data_count=data_count, fin_seen=fin_seen,
        offered_mss_option=syn.mss_option is not None,
        syn_count=max(syn_count, 1),
        early_peak_flight=early_peak_flight)
    return SenderPassOne(facts=facts, data=data, acks=acks,
                         data_rows=data_rows, ack_rows=ack_rows)


def receiver_pass_one(trace: Trace,
                      headers_only: bool = False) -> ReceiverPassOne:
    """Oracle for ``extract_receiver_pass_one``: one scan over the
    records, discards found by ``corruption``'s record walks."""
    flow = trace.primary_flow()           # the data direction (inbound here)
    reverse = flow.reversed()
    syn = next((r for r in trace if r.flow == flow and r.is_syn
                and not r.has_ack), None)
    if syn is None:
        raise ValueError("trace does not contain the connection SYN")
    full_size = syn.mss_option if syn.mss_option is not None else 536
    verified_corrupt: list[TraceRecord] = []
    inferred_corrupt: list[TraceRecord] = []
    if headers_only:
        inferred_corrupt = corruption.inferred_discards(trace, flow)
        discarded = frozenset(r.packet_id for r in inferred_corrupt)
    else:
        verified_corrupt = corruption.verified_discards(trace, flow)
        discarded = frozenset(r.packet_id for r in verified_corrupt)
    events: list[TraceRecord] = []
    rows: list[tuple[float, bool, int, int, int, int, bool]] = []
    for r in trace:
        inbound = r.flow == flow
        if ((inbound and (r.payload > 0 or r.is_fin))
                or (r.flow == reverse and r.has_ack and not r.is_syn)):
            events.append(r)
            rows.append((r.timestamp, inbound, r.seq, r.ack, r.window,
                         r.payload, r.is_fin))
    return ReceiverPassOne(
        flow=flow, full_size=full_size, syn_seq=syn.seq, events=events,
        rows=rows, discarded=discarded, verified_corrupt=verified_corrupt,
        inferred_corrupt=inferred_corrupt, headers_only=headers_only)


def detect_time_travel(trace: Trace) -> list[TimeTravelEvent]:
    """Oracle for ``detect_time_travel``: compare each adjacent pair."""
    records = trace.records
    events = []
    for i in range(1, len(records)):
        before, after = records[i - 1], records[i]
        if after.timestamp < before.timestamp:
            events.append(TimeTravelEvent(i, before, after))
    return events


def infer_vantage(trace: Trace) -> str:
    """Oracle for ``infer_vantage``: count kernel-speed responses
    pair by pair."""
    if trace.vantage in ("sender", "receiver"):
        return trace.vantage
    try:
        flow = trace.primary_flow()
    except ValueError:
        return "sender"
    reverse = flow.reversed()
    ack_to_data = 0
    data_to_ack = 0
    records = trace.records
    for previous, current in zip(records, records[1:]):
        gap = current.timestamp - previous.timestamp
        if gap > LOCAL_RESPONSE or gap < 0:
            continue
        if (previous.flow == reverse and previous.has_ack
                and current.flow == flow and current.payload > 0):
            ack_to_data += 1
        elif (previous.flow == flow and previous.payload > 0
              and current.flow == reverse and current.has_ack):
            data_to_ack += 1
    return "sender" if ack_to_data >= data_to_ack else "receiver"


def lulled_data_indices(trace: Trace, flow) -> list[int]:
    """Oracle for ``_lulled_data_indices``: walk the flow's data."""
    out = []
    last_send: float | None = None
    for i, record in enumerate(trace.records):
        if record.flow != flow or record.payload == 0:
            continue
        if last_send is not None and record.timestamp - last_send > LULL:
            out.append(i)
        last_send = record.timestamp
    return out


#: Each production kernel, mapped to its oracle.
KERNELS = {
    sender_analyzer.extract_pass_one: sender_pass_one,
    receiver_analyzer.extract_receiver_pass_one: receiver_pass_one,
    timing.detect_time_travel: detect_time_travel,
    vantage.infer_vantage: infer_vantage,
    resequencing._lulled_data_indices: lulled_data_indices,
}

#: (module, name) of every screen in front of a calibration loop.
SCREENS = ([(drops, name) for name in vars(drops)
            if name.startswith("_screen_")]
           + [(resequencing, name) for name in vars(resequencing)
              if name.startswith("_screen_")]
           + [(additions, "_has_close_header_repeat")])


def kernel_references() -> list[tuple[str, str]]:
    """(module, attribute) of every loaded binding of a production
    kernel."""
    # Identity, not equality; KERNELS keeps the ids from being reused.
    kernel_ids = {id(kernel) for kernel in KERNELS}
    found = []
    for module_name, module in list(sys.modules.items()):
        for name, value in list(getattr(module, "__dict__", {}).items()):
            if id(value) in kernel_ids:
                found.append((module_name, name))
    return found


def oracle_mode(monkeypatch) -> Counter:
    """Run the scalar reference until *monkeypatch* undoes it.

    Every loaded binding of a kernel is rebound to its oracle (so a
    new import site cannot escape), and every screen returns True.
    Returns a counter of screen calls by name, filled as the screens
    are bypassed.
    """
    for module_name, name in kernel_references():
        module = sys.modules[module_name]
        monkeypatch.setattr(module, name, KERNELS[getattr(module, name)])
    bypassed: Counter = Counter()
    for module, name in SCREENS:
        monkeypatch.setattr(module, name, _bypass(name, bypassed))
    return bypassed


def _bypass(name: str, bypassed: Counter):
    def screen(*_args) -> bool:
        bypassed[name] += 1
        return True
    return screen

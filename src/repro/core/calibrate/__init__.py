"""Packet-filter calibration: detecting measurement errors (§3).

Before any behavioral conclusion can be trusted, the trace itself must
be vetted.  :func:`calibrate_trace` runs the full battery:

* filter **drop** self-consistency checks (§3.1.1) — eight checks, all
  variations of "the TCP sent at an inappropriate time or failed to
  send at an appropriate one";
* measurement **duplicate** detection and removal (§3.1.2);
* **resequencing** detection (§3.1.3) — three situations;
* **timing** checks (§3.1.4) — time travel within one trace, and
  relative skew / step adjustments across a trace pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tcp.params import TCPBehavior
from repro.trace.record import Trace

from repro.core.calibrate.drops import DropEvidence, run_drop_checks
from repro.core.calibrate.additions import (
    DuplicateEvent,
    detect_duplicates,
    remove_duplicates,
)
from repro.core.calibrate.resequencing import (
    ResequencingEvent,
    detect_resequencing,
)
from repro.core.calibrate.timing import (
    ClockAdjustment,
    TimeTravelEvent,
    PairedTimingAnalysis,
    analyze_trace_pair,
    detect_time_travel,
)


@dataclass
class CalibrationReport:
    """Everything the calibration battery found wrong with a trace."""

    drop_evidence: list[DropEvidence] = field(default_factory=list)
    duplicates: list[DuplicateEvent] = field(default_factory=list)
    #: Isolated header-identical pairs too few to establish the
    #: duplication phenomenon (which copies *every* outbound packet);
    #: left in the trace and reported separately.
    ambiguous_duplicates: list[DuplicateEvent] = field(default_factory=list)
    resequencing: list[ResequencingEvent] = field(default_factory=list)
    time_travel: list[TimeTravelEvent] = field(default_factory=list)
    pair_analysis: PairedTimingAnalysis | None = None
    reported_drops: int | None = None

    @property
    def clean(self) -> bool:
        """No measurement errors detected."""
        pair_issues = (self.pair_analysis is not None
                       and (self.pair_analysis.adjustments
                            or self.pair_analysis.skew_detected))
        return not (self.drop_evidence or self.duplicates
                    or self.resequencing or self.time_travel or pair_issues)

    def summary(self) -> str:
        parts = [
            f"drop evidence: {len(self.drop_evidence)}",
            f"duplicates: {len(self.duplicates)}",
            f"resequencing: {len(self.resequencing)}",
            f"time travel: {len(self.time_travel)}",
        ]
        if self.reported_drops is not None:
            parts.append(f"filter-reported drops: {self.reported_drops}")
        if self.pair_analysis is not None:
            parts.append(f"relative skew: "
                         f"{self.pair_analysis.relative_skew_ppm:+.1f} ppm"
                         f", adjustments: "
                         f"{len(self.pair_analysis.adjustments)}")
        return "; ".join(parts)


def calibrate_trace(trace: Trace, behavior: TCPBehavior | None = None,
                    peer_trace: Trace | None = None, *,
                    sender_analysis=None,
                    vantage: str | None = None) -> CalibrationReport:
    """Run every calibration check applicable to *trace*.

    ``behavior`` enables the behavior-dependent drop and resequencing
    checks (the most powerful ones need to know how the traced TCP
    manages its congestion window — §3.1.1).  ``peer_trace`` enables
    the paired-trace timing analysis (§3.1.4).  ``sender_analysis``
    optionally supplies an already-computed sender replay of
    (*trace*, *behavior*) so those checks reuse it instead of
    replaying again — only honoured if duplicate removal leaves the
    trace untouched, since the replay must match the cleaned trace.
    ``vantage`` optionally supplies ``infer_vantage(trace)``; it is
    reused for the cleaned trace only if that is *trace* itself.
    """
    report = CalibrationReport(reported_drops=trace.reported_drops)
    report.time_travel = detect_time_travel(trace)
    pairs = detect_duplicates(trace, vantage=vantage, behavior=behavior)
    # The §3.1.2 duplication defect copies *every* outbound packet, so
    # a handful of header-identical pairs (genuine dup acks or
    # back-to-back retransmissions) does not establish it.  Demand a
    # substantial fraction of the trace before declaring additions.
    if len(pairs) >= max(3, len(trace) // 10):
        report.duplicates = pairs
    else:
        report.ambiguous_duplicates = pairs
    # Duplicates confuse every downstream check: work on the cleaned
    # trace from here on, as tcpanaly does (it discards later copies).
    cleaned = remove_duplicates(trace, report.duplicates)
    shared = sender_analysis if cleaned is trace else None
    # The behavior-dependent checks at the sender's vantage (window
    # violation, window-then-ack resequencing) both need the same
    # sender replay of the cleaned trace: compute it once here rather
    # than letting each check replay independently.
    if vantage is None or cleaned is not trace:
        from repro.core.vantage import infer_vantage
        vantage = infer_vantage(cleaned)
    if shared is None and behavior is not None and vantage == "sender" \
            and len(cleaned):
        from repro.core.sender.analyzer import TraceUnusable, analyze_sender
        try:
            shared = analyze_sender(cleaned, behavior)
        except (TraceUnusable, ValueError):
            shared = None
    report.resequencing = detect_resequencing(cleaned, behavior,
                                              vantage=vantage,
                                              sender_analysis=shared)
    report.drop_evidence = run_drop_checks(cleaned, behavior,
                                           vantage=vantage,
                                           sender_analysis=shared)
    if peer_trace is not None:
        report.pair_analysis = analyze_trace_pair(cleaned, peer_trace)
    return report


__all__ = [
    "CalibrationReport",
    "calibrate_trace",
    "DropEvidence",
    "run_drop_checks",
    "DuplicateEvent",
    "detect_duplicates",
    "remove_duplicates",
    "ResequencingEvent",
    "detect_resequencing",
    "ClockAdjustment",
    "TimeTravelEvent",
    "PairedTimingAnalysis",
    "analyze_trace_pair",
    "detect_time_travel",
]

"""Human-readable diagnosis reports.

Collects the calibration, sender, receiver, and identification results
for one trace (or trace pair) into the kind of report tcpanaly printed:
measurement-error findings first (nothing downstream is trustworthy
without them), then behavioral findings, then the fit ranking.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tcp.params import TCPBehavior
from repro.trace.record import Trace

from repro.core.calibrate import CalibrationReport, calibrate_trace
from repro.core.engine import IdentificationEngine
from repro.errors import stage
from repro.core.fit import FitReport, ReceiverFit
from repro.core.receiver.analyzer import (
    ReceiverAnalysis,
    analyze_receiver,
    extract_receiver_pass_one,
)
from repro.core.sender.analyzer import (
    SenderAnalysis,
    TraceUnusable,
    analyze_sender,
    extract_pass_one,
)
from repro.core.vantage import infer_vantage

#: Engine shared by callers that do not thread their own through —
#: built lazily so importing this module costs nothing extra.
_default_engine: IdentificationEngine | None = None


def default_engine() -> IdentificationEngine:
    global _default_engine
    if _default_engine is None:
        _default_engine = IdentificationEngine()
    return _default_engine


@dataclass
class TraceReport:
    """A full tcpanaly-style report for one trace."""

    vantage: str
    calibration: CalibrationReport
    sender: SenderAnalysis | None = None
    receiver: ReceiverAnalysis | None = None
    identification: FitReport | None = None
    receiver_identification: list[ReceiverFit] | None = None

    def render(self) -> str:
        lines = [f"=== tcpanaly report (vantage: {self.vantage}) ==="]
        lines.append("-- measurement calibration --")
        lines.append(self.calibration.summary())
        if self.calibration.resequencing:
            lines.append("NOTE: resequencing detected; recorded "
                         "cause-and-effect is untrustworthy")
        if self.sender is not None:
            lines.append("-- sender behavior --")
            lines.append(self.sender.summary())
            first = self.sender.first_violation()
            if first is not None:
                lines.append(f"first violation at t={first.record.timestamp:.6f}: "
                             f"{first.note}")
            for note in self.sender.notes:
                lines.append(f"note: {note}")
            if self.sender.inferred_quenches:
                lines.append(f"inferred source quenches at "
                             f"{[f'{t:.3f}' for t in self.sender.inferred_quenches]}")
        if self.receiver is not None:
            lines.append("-- receiver behavior --")
            lines.append(self.receiver.summary())
            if self.receiver.delay_ceiling_violations:
                lines.append(f"{len(self.receiver.delay_ceiling_violations)} "
                             f"acks exceeded the 500 ms ceiling")
        if self.identification is not None:
            lines.append("-- implementation identification --")
            lines.append(self.identification.summary())
        if self.receiver_identification is not None:
            lines.append("-- receiver acking-policy identification --")
            for fit in self.receiver_identification:
                notes = "; ".join(fit.inconsistencies)
                lines.append(f"  {fit.implementation:16s} "
                             f"{fit.category:10s} {notes}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """A JSON-serializable summary of the whole report.

        Deterministic for a given trace and catalog — the batch
        pipeline writes exactly this to its JSONL output and journal,
        so parallel, sequential, and resumed runs agree byte-for-byte.
        """
        calibration = self.calibration
        summary: dict = {
            "vantage": self.vantage,
            "calibration": {
                "clean": calibration.clean,
                "drop_evidence": len(calibration.drop_evidence),
                "duplicates": len(calibration.duplicates),
                "resequencing": len(calibration.resequencing),
                "time_travel": len(calibration.time_travel),
            },
        }
        if self.identification is not None:
            summary["identification"] = self.identification.to_dict()
        if self.receiver_identification is not None:
            fits = self.receiver_identification
            close = [f.implementation for f in fits
                     if f.category == "close"]
            summary["receiver_identification"] = {
                "close": close,
                "fits": [fit.to_dict() for fit in fits],
            }
        return summary


def analyze_trace(trace: Trace, behavior: TCPBehavior | None = None,
                  peer_trace: Trace | None = None,
                  identify: bool = False,
                  headers_only: bool = False,
                  engine: IdentificationEngine | None = None) -> TraceReport:
    """Run the full analysis pipeline on one trace.

    With *behavior* the behavior-specific checks run; with *identify*
    every catalog implementation is ranked — by congestion behavior
    for sender traces, by acking policy for receiver traces.  The
    analysis appropriate to the trace's vantage is chosen
    automatically.

    Pass-one fact extraction runs **once** per trace: the behavior
    check and the identification engine replay against the same shared
    facts.  *engine* threads a caller-owned
    :class:`~repro.core.engine.IdentificationEngine` through; by
    default the module-level shared engine (which holds no per-trace
    state) serves every trace and flow in the process.
    """
    vantage = infer_vantage(trace)
    want_analysis = behavior is not None or identify
    sender_pass_one = receiver_pass_one = None
    # Each stage tags an exception escaping it with the stage's name,
    # so the pipeline's quarantine payload can say *where* a
    # pathological trace broke the model, not just that it did.
    if want_analysis and vantage == "sender":
        with stage("sender pass one"):
            try:
                sender_pass_one = extract_pass_one(trace)
            except (TraceUnusable, ValueError):
                pass
    elif want_analysis:
        with stage("receiver pass one"):
            try:
                receiver_pass_one = extract_receiver_pass_one(
                    trace, headers_only)
            except ValueError:
                pass
    sender_analysis = None
    if behavior is not None and vantage == "sender" \
            and sender_pass_one is not None:
        with stage("sender analysis"):
            sender_analysis = analyze_sender(None, behavior,
                                             pass_one=sender_pass_one)
    # Calibration's behavior-dependent checks reuse the replay above
    # instead of re-running the sender analyzer on the same trace.
    with stage("calibration"):
        calibration = calibrate_trace(trace, behavior, peer_trace,
                                      sender_analysis=sender_analysis,
                                      vantage=vantage)
    report = TraceReport(vantage=vantage, calibration=calibration,
                         sender=sender_analysis)
    if behavior is not None and vantage != "sender" \
            and receiver_pass_one is not None:
        with stage("receiver analysis"):
            report.receiver = analyze_receiver(
                None, behavior, headers_only=headers_only,
                pass_one=receiver_pass_one)
    if identify:
        if engine is None:
            engine = default_engine()
        with stage("identification"):
            if vantage == "sender":
                report.identification = engine.identify_sender(
                    trace, pass_one=sender_pass_one)
            elif headers_only and receiver_pass_one is not None:
                # Identification always replays the full-content trace
                # semantics; a headers-only pass one is not equivalent.
                report.receiver_identification = \
                    engine.identify_receiver(trace)
            else:
                report.receiver_identification = engine.identify_receiver(
                    trace, pass_one=receiver_pass_one)
    return report

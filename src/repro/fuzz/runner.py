"""Run fuzz scenarios through the full pipeline and judge the outcome.

The oracle is deliberately closed.  Every scenario ends in exactly one
of these outcomes:

PASS
    ``identified``            the true implementation is in the close set
    ``near-miss``             truth ranked imperfect (damage cost evidence,
                              the analyzer stayed honest about fit quality)
    ``no-close-fit``          nothing fit closely — an honest refusal
    ``misidentified-flagged`` wrong answer, but calibration flagged the
                              trace as damaged measurement
    ``quarantined:<kind>``    the flow errored with a *classified*
                              :class:`~repro.errors.AnalysisError`
    ``consumed``              the primary connection never formed a flow,
                              and the ingest counters account for every
                              discarded packet

FAIL (fuzzer-found bug)
    ``misidentified``         truth ranked incorrect/unusable while an
                              impostor fit closely on a trace calibration
                              called *clean* — a silent wrong answer
    ``unclassified``          an exception escaped the pipeline instead
                              of quarantining
    ``silently-lost``         the primary connection vanished with no
                              counter explaining where it went

Everything here is deterministic: the simulation, the mangling RNG
substreams (one per mangler, keyed off the plan seed), and the
analysis.  A failing seed reproduces anywhere.
"""

from __future__ import annotations

import json
import random
import tempfile
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path as FilePath

from repro.capture import (
    DropInjector,
    DuplicationInjector,
    PacketFilter,
    ResequencingInjector,
)
from repro.fuzz.generator import ScenarioPlan, iter_plans
from repro.fuzz.ingredients import (
    FILE_MANGLERS,
    FRAME_MANGLERS,
    RECORD_MANGLERS,
    Frame,
    render_pcap,
)
from repro.fuzz.minimize import minimize_frames
from repro.harness.corpus import get_behavior, interleave_traces
from repro.harness.scenarios import traced_transfer
from repro.stream.demux import analyze_stream
from repro.stream.flowtable import ConnectionKey
from repro.stream.stats import IngestStats
from repro.trace.record import Trace
from repro.trace.wire import AddressMap, encode_record

FAIL_OUTCOMES = frozenset({"misidentified", "unclassified",
                           "silently-lost"})


@dataclass
class FuzzOutcome:
    """One scenario's verdict, plus the artifacts needed to replay it."""

    plan: ScenarioPlan
    outcome: str
    detail: str = ""
    #: The exact mangled frames analyzed (kept for minimization).
    frames: list[Frame] = field(default_factory=list, repr=False)
    addresses: AddressMap | None = field(default=None, repr=False)
    truth_key: ConnectionKey | None = field(default=None, repr=False)
    truth_implementation: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome not in FAIL_OUTCOMES

    def to_dict(self) -> dict:
        return {
            "plan": self.plan.to_dict(),
            "outcome": self.outcome,
            "ok": self.ok,
            "detail": self.detail,
            "truth_implementation": self.truth_implementation,
        }


def _build_filter(plan: ScenarioPlan) -> PacketFilter | None:
    """The misbehaving packet filter the plan asks for, if any."""
    if not plan.filter_faults:
        return None
    rng = random.Random(f"filter-{plan.seed}")
    kwargs = {}
    if "drops" in plan.filter_faults:
        kwargs["drops"] = DropInjector(rate=rng.uniform(0.01, 0.05),
                                       seed=plan.seed)
    if "duplication" in plan.filter_faults:
        kwargs["duplication"] = DuplicationInjector()
    if "resequencing" in plan.filter_faults:
        kwargs["resequencing"] = ResequencingInjector(seed=plan.seed)
    return PacketFilter(name="fuzz-filter", vantage=plan.vantage, **kwargs)


def build_capture(plan: ScenarioPlan) -> tuple[list[Frame], AddressMap,
                                               ConnectionKey, str]:
    """Simulate, mangle, and encode *plan* into analyzable frames.

    Returns ``(frames, addresses, truth_key, truth_implementation)``;
    the address map must be shared with the decode side so symbolic
    host names round-trip.
    """
    fuzz_filter = _build_filter(plan)
    transfer = traced_transfer(
        get_behavior(plan.implementation),
        scenario=plan.scenario,
        data_size=plan.data_size,
        seed=plan.seed,
        sender_filter=fuzz_filter if plan.vantage == "sender" else None,
        receiver_filter=fuzz_filter if plan.vantage == "receiver" else None,
        max_duration=plan.max_duration)
    primary = (transfer.sender_trace if plan.vantage == "sender"
               else transfer.receiver_trace)

    for name in plan.record_manglers:
        rng = random.Random(f"record-{plan.seed}-{name}")
        primary = RECORD_MANGLERS[name](primary, rng)

    traces: list[Trace] = [primary]
    labels: list[str] = [plan.implementation]
    for i, cross_impl in enumerate(plan.cross_connections):
        cross = traced_transfer(get_behavior(cross_impl),
                                scenario=plan.scenario,
                                data_size=min(plan.data_size, 8192),
                                seed=plan.seed + 101 + i,
                                max_duration=plan.max_duration)
        traces.append(cross.sender_trace if plan.vantage == "sender"
                      else cross.receiver_trace)
        labels.append(cross_impl)

    capture = interleave_traces(traces, labels)
    truth = capture.flows[0]
    truth_key = ConnectionKey.of(truth.client, truth.server)

    # Packet ids come from a process-global counter, and they encode
    # into the IP identification field — canonicalize them (preserving
    # duplicate identity: filter-duplicated records share an id) so
    # the capture's bytes are a pure function of the plan.
    ids: dict[int, int] = {}
    records = [replace(record,
                       packet_id=ids.setdefault(record.packet_id,
                                                len(ids) + 1))
               for record in capture.trace.records]

    addresses = AddressMap()
    frames = [Frame(record.timestamp, encode_record(record, addresses))
              for record in records]

    for name in plan.frame_manglers:
        rng = random.Random(f"frame-{plan.seed}-{name}")
        frames = FRAME_MANGLERS[name](frames, rng)
    for name in plan.file_manglers:
        rng = random.Random(f"file-{plan.seed}-{name}")
        frames = FILE_MANGLERS[name](frames, rng)
    return frames, addresses, truth_key, truth.implementation


def _fits_of(report) -> list[tuple[str, str]]:
    """(implementation, category) pairs from either identification."""
    if report.identification is not None:
        return [(f.implementation, f.category)
                for f in report.identification.fits]
    if report.receiver_identification is not None:
        return [(f.implementation, f.category)
                for f in report.receiver_identification]
    return []


def evaluate_capture(path: str | FilePath,
                     addresses: AddressMap,
                     truth_key: ConnectionKey,
                     truth_implementation: str) -> tuple[str, str]:
    """Push one written capture through the pipeline; judge it.

    Returns ``(outcome, detail)`` per the module-level oracle.
    """
    stats = IngestStats()
    try:
        reports = list(analyze_stream(path, identify=True, stats=stats,
                                      addresses=addresses))
    except Exception as error:  # noqa: BLE001 - the gate itself
        trace_tail = traceback.format_exc(limit=3)
        return ("unclassified",
                f"{type(error).__name__}: {error} escaped the pipeline\n"
                f"{trace_tail}")

    matching = [r for r in reports if r.flow.key == truth_key]
    if not matching:
        accounted = (stats.decode_errors + stats.truncated_records
                     + stats.non_tcp_packets + stats.orphan_packets)
        if accounted > 0 or stats.packets_seen == 0:
            return ("consumed",
                    f"primary flow absent; ingest accounted "
                    f"{accounted} discarded packet(s)")
        return ("silently-lost",
                f"primary flow {truth_key} missing and ingest counters "
                f"account for nothing "
                f"({stats.packets_seen} packets seen)")

    # 4-tuple reuse can split the connection across several flows;
    # the one carrying the most records is the connection proper.
    flow_report = max(matching, key=lambda r: r.flow.packet_count)
    if flow_report.error is not None:
        return (f"quarantined:{flow_report.error.kind}",
                flow_report.error.message)

    report = flow_report.report
    fits = _fits_of(report)
    close = [impl for impl, category in fits if category == "close"]
    truth_category = dict(fits).get(truth_implementation, "absent")

    if truth_implementation in close:
        return ("identified",
                f"close set of {len(close)} contains "
                f"{truth_implementation}")
    if not close:
        return ("no-close-fit",
                f"honest refusal; truth ranked {truth_category}")
    if truth_category == "imperfect":
        return ("near-miss",
                f"truth ranked imperfect; close set {close[:4]}")
    if not report.calibration.clean:
        return ("misidentified-flagged",
                f"truth ranked {truth_category} vs close {close[:4]}, "
                f"but calibration flagged the trace "
                f"({report.calibration.summary()})")
    return ("misidentified",
            f"calibration-clean trace: truth {truth_implementation} "
            f"ranked {truth_category} while {close[:4]} fit closely")


def run_scenario(plan: ScenarioPlan,
                 workdir: str | FilePath | None = None) -> FuzzOutcome:
    """Build and judge one scenario end to end."""
    frames, addresses, truth_key, truth_impl = build_capture(plan)
    outcome, detail = _judge_frames(frames, addresses, truth_key,
                                    truth_impl, workdir)
    return FuzzOutcome(plan=plan, outcome=outcome, detail=detail,
                       frames=frames, addresses=addresses,
                       truth_key=truth_key,
                       truth_implementation=truth_impl)


def _judge_frames(frames: list[Frame], addresses: AddressMap,
                  truth_key: ConnectionKey, truth_impl: str,
                  workdir: str | FilePath | None) -> tuple[str, str]:
    data = render_pcap(frames)
    if workdir is not None:
        path = FilePath(workdir) / "scenario.pcap"
        path.write_bytes(data)
        return evaluate_capture(path, addresses, truth_key, truth_impl)
    with tempfile.NamedTemporaryFile(suffix=".pcap") as handle:
        handle.write(data)
        handle.flush()
        return evaluate_capture(handle.name, addresses, truth_key,
                                truth_impl)


def minimize_outcome(outcome: FuzzOutcome,
                     max_probes: int = 200) -> list[Frame]:
    """Shrink a failing outcome's capture, preserving its signature.

    The signature is the outcome string plus (for unclassified
    escapes) the exception type's name, so minimization cannot drift
    from the bug being chased onto a different one.
    """
    signature = (outcome.outcome, outcome.detail.split(":", 1)[0]
                 if outcome.outcome == "unclassified" else "")

    def still_fails(candidate: list[Frame]) -> bool:
        result, detail = _judge_frames(candidate, outcome.addresses,
                                       outcome.truth_key,
                                       outcome.truth_implementation,
                                       workdir=None)
        got = (result, detail.split(":", 1)[0]
               if result == "unclassified" else "")
        return got == signature

    return minimize_frames(outcome.frames, still_fails,
                           max_probes=max_probes)


@dataclass
class SweepReport:
    """The verdict of one corpus-of-horrors sweep."""

    base_seed: int
    count: int
    outcomes: dict[str, int] = field(default_factory=dict)
    failures: list[FuzzOutcome] = field(default_factory=list)
    reproducers: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "base_seed": self.base_seed,
            "count": self.count,
            "passed": self.passed,
            "outcomes": dict(sorted(self.outcomes.items())),
            "failures": [f.to_dict() for f in self.failures],
            "reproducers": list(self.reproducers),
        }

    def summary(self) -> str:
        lines = [f"fuzz sweep: {self.count} scenarios from seed "
                 f"{self.base_seed} -> "
                 f"{'PASS' if self.passed else 'FAIL'}"]
        for outcome, tally in sorted(self.outcomes.items()):
            lines.append(f"  {outcome:24s} {tally:4d}")
        for failure in self.failures:
            lines.append(f"  FAIL seed={failure.plan.seed} "
                         f"{failure.outcome}: {failure.detail}")
            lines.append(f"       {failure.plan.describe()}")
        if self.reproducers:
            lines.append("  reproducers: " + ", ".join(self.reproducers))
        return "\n".join(lines)


def run_sweep(base_seed: int, count: int,
              reproducer_dir: str | FilePath | None = None,
              minimize: bool = True,
              progress=None) -> SweepReport:
    """Run *count* seeded scenarios; minimize and save every failure.

    *progress* (an optional callable taking each FuzzOutcome) lets the
    CLI stream per-scenario lines without this layer knowing about
    output formats.
    """
    report = SweepReport(base_seed=base_seed, count=count)
    for plan in iter_plans(base_seed, count):
        outcome = run_scenario(plan)
        report.outcomes[outcome.outcome] = \
            report.outcomes.get(outcome.outcome, 0) + 1
        if progress is not None:
            progress(outcome)
        if outcome.ok:
            continue
        report.failures.append(outcome)
        if reproducer_dir is None:
            continue
        directory = FilePath(reproducer_dir)
        directory.mkdir(parents=True, exist_ok=True)
        frames = outcome.frames
        if minimize:
            try:
                frames = minimize_outcome(outcome)
            except ValueError:
                # Flaky against re-analysis (should not happen: the
                # pipeline is deterministic) — keep the full capture.
                frames = outcome.frames
        stem = f"repro-seed{plan.seed}"
        pcap_path = directory / f"{stem}.pcap"
        pcap_path.write_bytes(render_pcap(frames))
        meta = outcome.to_dict()
        meta["minimized_frames"] = len(frames)
        meta["original_frames"] = len(outcome.frames)
        (directory / f"{stem}.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n")
        report.reproducers.append(str(pcap_path))
    return report

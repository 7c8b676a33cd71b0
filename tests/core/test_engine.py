"""The identification engine's one promise: same answer, less work.

The engine (repro.core.engine) shares pass-one facts, replays each
behavior-equivalence class once — and each trace-conditioned replay
key once per trace — prefilters statically impossible candidates,
and aborts hopeless replays: every trick is only admissible because
the resulting ranking is identical to the exhaustive oracle's.  These
tests pin that equivalence across the catalog, the scenario corpus
and fuzz plans, audit the read sites the trace-conditioned rules and
the one-receiver-replay rule rest on, plus the engine-specific
behaviors (abort marking, pruning, determinism) and the slots
regression for the hot dataclasses.
"""

from __future__ import annotations

import ast
import dataclasses
import enum
import inspect
import json
import random
from pathlib import Path

import pytest

import repro.core.engine as engine_module
from repro.core.engine import (
    LULL_S,
    REPLAY_RULES,
    IdentificationEngine,
    prefilter_reason,
    receiver_score_signature,
    receiver_signature,
    replay_conditions,
    replay_key,
    reuses_replay,
    sender_signature,
)
from repro.core.fit import (
    SCORE_SATURATION,
    identify_implementation,
    identify_receiver,
)
from repro.core import fit as fit_module
from repro.core.receiver import analyzer as receiver_analyzer
from repro.core.receiver.analyzer import (
    MANDATORY_ACK_DEADLINE,
    analyze_receiver,
    extract_receiver_pass_one,
)
from repro.core.receiver.obligations import (
    MAX_ACK_DELAY,
    AckObligation,
    ObligationTracker,
)
from repro.core.report import analyze_trace
from repro.core.sender import analyzer, windows
from repro.core.sender.analyzer import SenderPassOne, extract_pass_one
from repro.fuzz.generator import iter_plans
from repro.fuzz.ingredients import RECORD_MANGLERS
from repro.fuzz.runner import _build_filter
from repro.harness.scenarios import traced_transfer
from repro.tcp import params, timers
from repro.tcp.catalog import CATALOG, get_behavior
from repro.tcp.params import QuenchResponse, TCPBehavior
from repro.trace.record import TraceRecord
from repro.trace.text import parse_trace

from tests.conftest import cached_transfer
from tests.core.test_receiver_golden import _pin as _receiver_pin
from tests.core.test_replay_golden import QUENCH_FIXTURE, _pin


def ranking(fits):
    return [(fit.implementation, fit.category) for fit in fits]


SENDER_CASES = [
    ("reno", "wan"),
    ("reno", "wan-lossy"),
    ("tahoe", "wan-lossy"),
    ("linux-1.0", "wan-lossy"),
    ("linux-2.0.30", "wan"),
    ("solaris-2.4", "transatlantic"),
    ("windows-95", "wan"),
    ("irix-6.2", "wan-lossy"),
]


class TestSenderEquivalence:
    @pytest.mark.parametrize("implementation,scenario", SENDER_CASES)
    def test_ranking_and_categories_match_exhaustive(
            self, implementation, scenario):
        trace = cached_transfer(implementation, scenario).sender_trace
        exhaustive = identify_implementation(trace)
        engine = IdentificationEngine().identify_sender(trace)
        assert ranking(engine.fits) == ranking(exhaustive.fits)

    @pytest.mark.parametrize("implementation,scenario", SENDER_CASES)
    def test_completed_scores_match_exhaustive(self, implementation,
                                               scenario):
        trace = cached_transfer(implementation, scenario).sender_trace
        exhaustive_scores = {fit.implementation: fit.score
                             for fit in identify_implementation(trace).fits}
        for fit in IdentificationEngine().identify_sender(trace).fits:
            if fit.aborted or fit.pruned_reason:
                # Cut-short scores are lower bounds, already past the
                # point where the rank key saturates.
                assert fit.score >= SCORE_SATURATION or fit.analysis is None
            else:
                assert fit.score == exhaustive_scores[fit.implementation]

    def test_engine_switches_do_not_change_the_ranking(self):
        trace = cached_transfer("reno", "wan-lossy").sender_trace
        expected = ranking(identify_implementation(trace).fits)
        for switches in ({"prefilter": False}, {"early_abort": False},
                         {"share_replays": False}):
            engine = IdentificationEngine(**switches)
            assert ranking(engine.identify_sender(trace).fits) == expected

    def test_unusable_trace_ranks_everything_unusable(self):
        transfer = cached_transfer("reno", "wan")
        records = [r for r in transfer.sender_trace if not r.is_syn]
        trace = dataclasses.replace(transfer.sender_trace, records=records)
        report = IdentificationEngine().identify_sender(trace)
        assert all(fit.category == "unusable" for fit in report.fits)
        assert ranking(report.fits) == ranking(
            identify_implementation(trace).fits)


def receiver_fits(fits):
    return [(f.implementation, f.category, f.score, f.inconsistencies)
            for f in fits]


#: One receiver trace per catalog stack and scenario.  osf1-1.3a/wan
#: is policy-sensitive: its acking policy decides a pending
#: obligation, so every receiver class replays it.
RECEIVER_CASES = [(implementation, scenario)
                  for scenario in ("wan-lossy", "wan")
                  for implementation in sorted(CATALOG)]
RECEIVER_PLANS = [plan for plan in iter_plans(0, 40)
                  if plan.vantage == "receiver"]


class TestReceiverEquivalence:
    @pytest.mark.parametrize("implementation,scenario", RECEIVER_CASES)
    def test_fits_match_exhaustive_exactly(self, implementation, scenario):
        trace = cached_transfer(implementation, scenario).receiver_trace
        exhaustive = identify_receiver(trace)
        engine = IdentificationEngine().identify_receiver(trace)
        assert receiver_fits(engine) == receiver_fits(exhaustive)

    @pytest.mark.parametrize("plan", RECEIVER_PLANS,
                             ids=lambda plan: f"seed{plan.seed}")
    def test_fuzz_plans_match_exhaustive_exactly(self, plan):
        trace = _plan_trace(plan)
        assert receiver_fits(IdentificationEngine().identify_receiver(
            trace)) == receiver_fits(identify_receiver(trace))

    def test_receiver_classes_collapse_the_catalog(self):
        signatures = {receiver_signature(b) for b in CATALOG.values()}
        assert len(signatures) < len(CATALOG) // 2

    def test_every_member_gets_its_own_fit(self):
        trace = cached_transfer("reno", "wan-lossy").receiver_trace
        fits = IdentificationEngine().identify_receiver(trace)
        assert sorted(fit.implementation for fit in fits) == sorted(CATALOG)
        lists = [fit.inconsistencies for fit in fits]
        assert len({id(inconsistencies) for inconsistencies in lists}) \
            == len(lists)


LATE_HOLE_FILL_ACK = """\
0.000000 sender.1024 > receiver.9000: S 0:1(0) win 65535 <mss 512>
0.000100 receiver.9000 > sender.1024: S. 0:1(0) ack 1 win 65535 <mss 512>
0.050000 sender.1024 > receiver.9000: . 1:513(512) ack 1 win 65535
0.050100 sender.1024 > receiver.9000: . 1025:1537(512) ack 1 win 65535
0.050200 receiver.9000 > sender.1024: . 1:1(0) ack 513 win 65535
0.100000 sender.1024 > receiver.9000: . 513:1025(512) ack 1 win 65535
0.200000 receiver.9000 > sender.1024: . 1:1(0) ack 1537 win 65535
"""


class TestReceiverReplaySharing:
    """One receiver replay per trace unless the acking policy decided
    an obligation; scoring once per scoring class."""

    @staticmethod
    def _count(monkeypatch, engine, trace):
        """The candidates ``analyze_receiver`` replays for *trace*."""
        calls = []
        real = engine_module.analyze_receiver

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "analyze_receiver", counting)
        engine.identify_receiver(trace)
        return calls

    def test_policy_blind_trace_replays_once(self, monkeypatch):
        trace = cached_transfer("reno", "wan-lossy").receiver_trace
        assert len(self._count(monkeypatch, IdentificationEngine(),
                               trace)) == 1

    def test_policy_sensitive_trace_replays_every_class(self, monkeypatch):
        engine = IdentificationEngine()
        trace = cached_transfer("osf1-1.3a", "wan").receiver_trace
        calls = self._count(monkeypatch, engine, trace)
        assert len(engine._receiver_groups) == 3
        assert calls == [group[0] for group in engine._receiver_groups]

    def test_unshared_engine_replays_every_candidate(self, monkeypatch):
        trace = cached_transfer("reno", "wan-lossy").receiver_trace
        calls = self._count(monkeypatch,
                            IdentificationEngine(share_replays=False), trace)
        assert calls == sorted(CATALOG)

    def test_late_hole_fill_ack_replays_every_class(self, monkeypatch):
        # The hole fill at 0.100 is acked 100 ms later: past the
        # mandatory deadline, so only stacks that delay hole-fill acks
        # still owe it.  No catalog transfer delays one that long.
        trace = parse_trace(LATE_HOLE_FILL_ACK, vantage="receiver")
        assert self._assert_flag_is_sound(trace)
        engine = IdentificationEngine()
        assert len(self._count(monkeypatch, engine, trace)) \
            == len(engine._receiver_groups)
        assert receiver_fits(engine.identify_receiver(trace)) \
            == receiver_fits(identify_receiver(trace))

    def test_scoring_runs_once_per_scoring_class(self, monkeypatch):
        engine = IdentificationEngine()
        calls = []
        real = engine_module.score_receiver_policy

        def counting(analysis, behavior):
            calls.append(receiver_score_signature(behavior))
            return real(analysis, behavior)

        monkeypatch.setattr(engine_module, "score_receiver_policy",
                            counting)
        engine.identify_receiver(
            cached_transfer("reno", "wan-lossy").receiver_trace)
        assert len(calls) == len(set(calls)) < len(CATALOG)
        assert set(calls) == {receiver_score_signature(b)
                              for b in CATALOG.values()}

    @staticmethod
    def _assert_flag_is_sound(trace) -> bool:
        """The flag the sharing rests on: every class's replay sets it
        alike, and when it is unset they all pin identically.  Returns
        the flag."""
        try:
            pass_one = extract_receiver_pass_one(trace)
        except ValueError:
            return False
        analyses = [analyze_receiver(None, CATALOG[group[0]], group[0],
                                     pass_one=pass_one)
                    for group in IdentificationEngine()._receiver_groups]
        flags = {analysis.policy_mattered for analysis in analyses}
        assert len(flags) == 1
        pins = {json.dumps(_receiver_pin(analysis), sort_keys=True)
                for analysis in analyses}
        assert flags == {True} or len(pins) == 1
        return flags == {True}

    @pytest.mark.parametrize("implementation,scenario", RECEIVER_CASES)
    def test_flag_is_sound_on_the_catalog(self, implementation, scenario):
        trace = cached_transfer(implementation, scenario).receiver_trace
        mattered = self._assert_flag_is_sound(trace)
        assert mattered == (implementation == "osf1-1.3a")

    @pytest.mark.parametrize("plan", RECEIVER_PLANS,
                             ids=lambda plan: f"seed{plan.seed}")
    def test_flag_is_sound_on_fuzz_plans(self, plan):
        self._assert_flag_is_sound(_plan_trace(plan))

    def test_tracker_flags_only_a_policy_dependent_obligation_past_the_deadline(
            self):
        def tracker(policy_dependent):
            tracked = ObligationTracker()
            tracked.incur(AckObligation(0.0, mandatory=False,
                                        reason="in_sequence",
                                        covering_ack=1,
                                        policy_dependent=policy_dependent))
            return tracked

        at_deadline = tracker(True)
        at_deadline.expire(MANDATORY_ACK_DEADLINE, MANDATORY_ACK_DEADLINE)
        assert not at_deadline.policy_mattered
        past = tracker(True)
        past.expire(MANDATORY_ACK_DEADLINE + 0.001, MANDATORY_ACK_DEADLINE)
        assert past.policy_mattered and past.pending
        fixed = tracker(False)
        fixed.expire(float("inf"), MANDATORY_ACK_DEADLINE)
        assert not fixed.policy_mattered and fixed.missed


class TestEarlyAbort:
    def test_hopeless_candidates_are_marked_aborted(self, monkeypatch):
        calls = []
        real = engine_module.analyze_sender

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "analyze_sender", counting)
        trace = cached_transfer("reno", "wan-lossy").sender_trace
        report = IdentificationEngine().identify_sender(trace)
        # The work gate: the exhaustive loop replays every catalog
        # entry; sharing, pruning and aborting must replay fewer.
        assert len(calls) < len(CATALOG)
        assert report.best.category == "close"
        aborted = [fit for fit in report.fits if fit.aborted]
        assert aborted, "wan-lossy reno should make some candidates abort"
        for fit in aborted:
            assert fit.category == "incorrect"
            assert fit.score >= SCORE_SATURATION
            assert fit.analysis is not None
            assert fit.analysis.replay_aborted
            payload = fit.to_dict()
            assert payload["aborted"] is True
            assert payload["score_lower_bound"] == fit.score

    def test_abort_disabled_leaves_no_marks(self):
        trace = cached_transfer("reno", "wan-lossy").sender_trace
        report = IdentificationEngine(
            early_abort=False).identify_sender(trace)
        assert not any(fit.aborted for fit in report.fits)


class TestPrefilter:
    def test_mss_prefilter_rule(self):
        facts = extract_pass_one(
            cached_transfer("reno", "wan").sender_trace).facts
        assert facts.offered_mss_option
        reno = get_behavior("reno")
        assert prefilter_reason(facts, reno) == ""
        no_mss = dataclasses.replace(reno, offers_mss_option=False)
        assert "MSS option" in prefilter_reason(facts, no_mss)

    def test_pruned_candidate_leaves_survivors_unchanged(self):
        trace = cached_transfer("reno", "wan").sender_trace
        reno = get_behavior("reno")
        candidates = {
            "reno": reno,
            "tahoe": get_behavior("tahoe"),
            "mss-less": dataclasses.replace(reno, offers_mss_option=False),
        }
        report = IdentificationEngine(candidates).identify_sender(trace)
        by_name = {fit.implementation: fit for fit in report.fits}
        pruned = by_name["mss-less"]
        assert pruned.pruned_reason
        assert pruned.category == "incorrect"
        assert pruned.analysis is None
        assert pruned.to_dict()["pruned_reason"] == pruned.pruned_reason
        # Survivors carry exactly the categories and scores the
        # exhaustive path assigns them.
        surviving = {n: b for n, b in candidates.items() if n != "mss-less"}
        exhaustive = identify_implementation(trace, surviving)
        for fit in exhaustive.fits:
            assert by_name[fit.implementation].category == fit.category
            assert by_name[fit.implementation].score == fit.score

    def test_prefilters_never_fire_on_the_catalog(self):
        # The shipped rules are definitional; every real catalog entry
        # offers an MSS option and tolerates a handful of SYNs, so on
        # catalog candidates the engine must rely on replay alone.
        facts = extract_pass_one(
            cached_transfer("reno", "wan").sender_trace).facts
        assert all(prefilter_reason(facts, behavior) == ""
                   for behavior in CATALOG.values())


class TestDeterminism:
    def test_equal_scores_rank_by_name_in_both_paths(self):
        trace = cached_transfer("reno", "wan").sender_trace
        reno = get_behavior("reno")
        candidates = {"zz-twin": reno, "aa-twin": reno}
        exhaustive = identify_implementation(trace, candidates)
        engine = IdentificationEngine(candidates).identify_sender(trace)
        assert [f.implementation for f in exhaustive.fits] \
            == ["aa-twin", "zz-twin"]
        assert ranking(engine.fits) == ranking(exhaustive.fits)
        assert engine.fits[0].score == engine.fits[1].score

    def test_shared_replays_relabel_for_every_member(self):
        trace = cached_transfer("tahoe", "wan").sender_trace
        engine = IdentificationEngine()
        groups = {tuple(g) for g in engine._sender_groups if len(g) > 1}
        assert ("sunos-4.1.3", "tahoe") in groups
        report = engine.identify_sender(trace)
        for fit in report.fits:
            if fit.analysis is not None:
                assert fit.analysis.implementation == fit.implementation

    def test_relabelled_copies_carry_the_mean_delay(self):
        # Cached when the replay finishes; a copy never recomputes it.
        trace = cached_transfer("tahoe", "wan-lossy").sender_trace
        for fit in IdentificationEngine().identify_sender(trace).fits:
            if fit.analysis is not None:
                delays = fit.analysis.response_delays
                assert vars(fit.analysis)["mean_response_delay"] == (
                    sum(delays) / len(delays) if delays else 0.0)

    def test_sender_classes_are_nontrivial(self):
        signatures = {sender_signature(b) for b in CATALOG.values()}
        assert len(signatures) < len(CATALOG)


class TestSharedPassOne:
    def test_analyze_trace_extracts_facts_exactly_once(self, monkeypatch):
        import repro.core.report as report_module
        import repro.core.sender.analyzer as analyzer_module
        calls = []
        real = analyzer_module.extract_pass_one

        def counting(trace):
            calls.append(trace)
            return real(trace)

        monkeypatch.setattr(analyzer_module, "extract_pass_one", counting)
        monkeypatch.setattr(report_module, "extract_pass_one", counting)
        trace = cached_transfer("reno", "wan").sender_trace
        report = analyze_trace(trace, get_behavior("reno"), identify=True)
        assert report.sender is not None
        assert report.identification is not None
        assert len(calls) == 1

    def test_analyze_trace_uses_the_engine_path(self, monkeypatch):
        import repro.core.fit as fit_module

        def forbidden(*args, **kwargs):
            raise AssertionError("exhaustive path used for identification")

        monkeypatch.setattr(fit_module, "identify_implementation", forbidden)
        monkeypatch.setattr(fit_module, "identify_receiver", forbidden)
        transfer = cached_transfer("reno", "wan")
        sender = analyze_trace(transfer.sender_trace, identify=True)
        assert sender.identification is not None
        assert sender.identification.best.category == "close"
        receiver = analyze_trace(transfer.receiver_trace, identify=True)
        assert receiver.receiver_identification is not None

    def test_report_matches_pre_engine_shape(self):
        trace = cached_transfer("reno", "wan").sender_trace
        report = analyze_trace(trace, identify=True)
        payload = report.to_dict()
        assert payload["identification"]["best"] == \
            identify_implementation(trace).best.implementation


def _analysis(analysis) -> tuple | None:
    """The pinned analysis plus every classification's explanation."""
    if analysis is None:
        return None
    return (_pin(analysis),
            [(c.kind, c.response_delay, c.note, c.flight)
             for c in analysis.classifications])


def _snapshot(report) -> list:
    """Everything a fit reports, plus its analysis."""
    return [(fit.to_dict(), _analysis(fit.analysis)) for fit in report.fits]


def _plan_trace(plan):
    """A fuzz plan's trace at its vantage, filter faults and record
    manglers applied as the sweep applies them."""
    sender = plan.vantage == "sender"
    fuzz_filter = _build_filter(plan)
    transfer = traced_transfer(
        get_behavior(plan.implementation), scenario=plan.scenario,
        data_size=plan.data_size, seed=plan.seed,
        sender_filter=fuzz_filter if sender else None,
        receiver_filter=None if sender else fuzz_filter,
        max_duration=plan.max_duration)
    trace = transfer.sender_trace if sender else transfer.receiver_trace
    for name in plan.record_manglers:
        trace = RECORD_MANGLERS[name](
            trace, random.Random(f"record-{plan.seed}-{name}"))
    return trace


SWEEP_STACKS = ["reno", "tahoe", "net3", "linux-1.0", "linux-2.0.30",
                "solaris-2.4", "trumpet-2.0b", "windows-95"]


def _flip(value):
    """Some other value of the same type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, enum.Enum):
        members = list(type(value))
        return members[(members.index(value) + 1) % len(members)]
    if value is None:
        return 4
    if isinstance(value, int):
        return value + 1
    return value * 1.5


#: Four stacks plus, per stack, one variant per field some rule drops:
#: a rule that drops a field the trace does make the replay read
#: merges a variant with its stack and diverges from the oracle.
VARIANTS = {
    f"{name}+{field}" if field else name:
        dataclasses.replace(behavior, **{field: _flip(getattr(behavior,
                                                              field))})
        if field else behavior
    for name in ("reno", "tahoe", "linux-1.0", "solaris-2.4")
    for behavior in [get_behavior(name)]
    for field in ("", *(field for rule in REPLAY_RULES.values()
                        for field in rule.fields))
}


class TestTraceConditionedKeys:
    """Sharing replays across trace-conditioned keys changes nothing
    but the number of replays: every fit and every pinned analysis
    matches the per-class oracle (``share_replays=False``)."""

    @pytest.mark.parametrize("plan", [
        plan for plan in iter_plans(0, 40) if plan.vantage == "sender"],
        ids=lambda plan: f"seed{plan.seed}")
    def test_fuzz_plans_match_the_per_class_oracle(self, plan):
        trace = _plan_trace(plan)
        shared = IdentificationEngine().identify_sender(trace)
        oracle = IdentificationEngine(
            share_replays=False).identify_sender(trace)
        assert _snapshot(shared) == _snapshot(oracle)

    @pytest.mark.parametrize("candidates", [CATALOG, VARIANTS],
                             ids=["catalog", "variants"])
    @pytest.mark.parametrize("scenario",
                             ["lan", "wan-lossy", "congested",
                              "transatlantic"])
    def test_catalog_sweep_matches_the_per_class_oracle(self, scenario,
                                                        candidates):
        engine = IdentificationEngine(candidates)
        oracle = IdentificationEngine(candidates, share_replays=False)
        for implementation in SWEEP_STACKS:
            trace = cached_transfer(implementation, scenario,
                                    data_size=24576).sender_trace
            pass_one = extract_pass_one(trace)
            assert _snapshot(engine.identify_sender(pass_one=pass_one)) \
                == _snapshot(oracle.identify_sender(pass_one=pass_one)), \
                implementation

    @pytest.mark.parametrize("source", ["quench-fixture",
                                        "reno-wan-lossy-96k"])
    def test_variants_where_quench_and_timeout_rules_bite(self, source):
        # A committed quench trial; timeouts after dup-ack runs, where
        # clear_dupacks_on_timeout matters.
        if source == "quench-fixture":
            trace = parse_trace(QUENCH_FIXTURE.read_text(),
                                vantage="sender")
        else:
            trace = cached_transfer("reno", "wan-lossy",
                                    data_size=98304).sender_trace
        pass_one = extract_pass_one(trace)
        shared = IdentificationEngine(VARIANTS).identify_sender(
            pass_one=pass_one)
        oracle = IdentificationEngine(
            VARIANTS, share_replays=False).identify_sender(pass_one=pass_one)
        assert _snapshot(shared) == _snapshot(oracle)

    def test_clean_lan_trace_replays_fewer_than_its_static_classes(
            self, monkeypatch):
        engine = IdentificationEngine()
        trace = cached_transfer("reno", "lan", data_size=24576).sender_trace
        pass_one = extract_pass_one(trace)
        conditions = replay_conditions(pass_one)
        assert not conditions.retransmits and conditions.max_dupacks == 0
        calls = []
        real = engine_module.analyze_sender

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "analyze_sender", counting)
        engine.identify_sender(pass_one=pass_one)
        # Static classes alone replay every class: the catalog
        # prefilters nothing here.
        assert len(calls) < len(engine._sender_groups)

    def test_a_later_lower_bound_replays_instead_of_reusing(self):
        # Stretching a clean LAN trace's clock turns every response
        # delay huge without adding a violation.  "a-wide" opens wide
        # and completes first with a huge score; "b-twin" (ssthresh of
        # two segments) then completes under that bound with many
        # violations; "c-true" completes with none and lowers the bound;
        # "d-twin" differs from "b-twin" only in a field this trace
        # never reads, so it shares b-twin's key, but under the lower
        # bound its own replay aborts.
        transfer = cached_transfer("reno", "lan", data_size=96 * 1024)
        trace = transfer.sender_trace
        trace = dataclasses.replace(trace, records=[
            dataclasses.replace(record, timestamp=record.timestamp * 1e5)
            for record in trace.records])
        base = dataclasses.replace(
            get_behavior("reno"),
            quench_response=QuenchResponse.DECREMENT_CWND)
        twin = dataclasses.replace(base, initial_ssthresh_segments=2)
        candidates = {
            "a-wide": dataclasses.replace(base, initial_cwnd_segments=64),
            "b-twin": twin,
            "c-true": base,
            "d-twin": dataclasses.replace(
                twin, fencepost_bug=not twin.fencepost_bug),
        }
        pass_one = extract_pass_one(trace)
        conditions = replay_conditions(pass_one)
        assert replay_key(twin, conditions) == \
            replay_key(candidates["d-twin"], conditions)
        shared = IdentificationEngine(candidates).identify_sender(
            pass_one=pass_one)
        oracle = IdentificationEngine(
            candidates, share_replays=False).identify_sender(
                pass_one=pass_one)
        fits = {fit.implementation: fit for fit in shared.fits}
        assert not fits["b-twin"].aborted
        assert fits["d-twin"].aborted
        assert fits["d-twin"].analysis.notes[0].startswith(
            "replay aborted")
        assert _snapshot(shared) == _snapshot(oracle)

    def test_reuse_predicate(self):
        analysis = analyze_trace(
            cached_transfer("reno", "wan").sender_trace,
            get_behavior("reno")).sender
        completed = dataclasses.replace(analysis, violations=[None] * 12)
        assert reuses_replay(completed, 500.0, 120.0, floor=1)
        assert not reuses_replay(completed, 500.0, 100.0, floor=1)
        assert reuses_replay(completed, 500.0, 100.0, floor=12)
        assert reuses_replay(completed, None, None, floor=1)
        aborted = dataclasses.replace(completed, replay_aborted=True)
        assert reuses_replay(aborted, 100.0, 100.0, floor=1)
        assert not reuses_replay(aborted, 120.0, 100.0, floor=1)


def _pass_one(iss: int, data_rows, ack_rows=(),
              synack_time: float = 0.0) -> SenderPassOne:
    facts = extract_pass_one(cached_transfer("reno", "wan").sender_trace).facts
    facts = dataclasses.replace(facts, iss=iss, synack_time=synack_time)
    return SenderPassOne(facts=facts, data=[], acks=[],
                         data_rows=list(data_rows), ack_rows=list(ack_rows))


def _rows(iss: int, *starts: int, size: int = 100, gap: float = 0.001):
    """Data rows of *size* bytes at offsets *starts* from iss+1."""
    return [(0.01 + i * gap, (iss + 1 + s) % 2**32,
             (iss + 1 + s + size) % 2**32, size)
            for i, s in enumerate(starts)]


class TestReplayConditions:
    @pytest.mark.parametrize("iss", [1000, 2**32 - 250])
    def test_resend_below_the_high_end_is_a_retransmission(self, iss):
        # The second ISS puts the wrap inside the transfer.
        clean = replay_conditions(_pass_one(iss, _rows(iss, 0, 100, 200)))
        assert not clean.retransmits
        resend = replay_conditions(_pass_one(iss, _rows(iss, 0, 100, 200,
                                                        100, 300)))
        assert resend.retransmits

    def test_first_ack_at_a_value_never_counts_as_a_dup(self):
        iss = 2**32 - 50
        first = (iss + 1) % 2**32
        acks = [(0.1, (first + 100) % 2**32, 8192, 0),   # advancing
                (0.2, (first + 100) % 2**32, 8192, 0),
                (0.3, (first + 100) % 2**32, 8192, 7),   # carries data
                (0.4, (first + 100) % 2**32, 8192, 0),
                (0.5, (first + 200) % 2**32, 8192, 5)]   # first at 200
        assert replay_conditions(
            _pass_one(iss, _rows(iss, 0), acks)).max_dupacks == 2
        # snd_una starts at iss+1, so every pure ack there counts.
        at_start = [(0.1, first, 8192, 0)] * 3
        assert replay_conditions(
            _pass_one(iss, _rows(iss, 0), at_start)).max_dupacks == 3
        assert replay_conditions(_pass_one(iss, _rows(iss, 0))
                                 ).max_dupacks == 0

    def test_gap_of_exactly_the_lull_threshold_is_a_lull(self):
        assert 0.05 - 0.0 == LULL_S
        rows = _rows(0, 0, 100)
        at = [(0.05, *rows[0][1:]), (0.051, *rows[1][1:])]
        assert replay_conditions(_pass_one(0, at)).lull
        below = [(0.0499, *rows[0][1:]), (0.051, *rows[1][1:])]
        assert not replay_conditions(_pass_one(0, below)).lull
        later = [(0.01, *rows[0][1:]), (0.25, *rows[1][1:])]
        assert replay_conditions(_pass_one(0, later)).lull


#: The modules whose behavior reads the replay rules must account for.
REPLAY_MODULES = {"windows": windows, "analyzer": analyzer,
                  "params": params, "timers": timers}


class _Sites(ast.NodeVisitor):
    """``behavior.<field>`` reads and calls, by enclosing qualname."""

    def __init__(self, module: str):
        self.scope = [module]
        self.reads: list[tuple[str, str]] = []
        self.calls: list[tuple[str, str]] = []

    def _nested(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _nested

    def visit_Attribute(self, node: ast.Attribute) -> None:
        value = node.value
        if (isinstance(value, ast.Name) and value.id == "behavior") or (
                isinstance(value, ast.Attribute)
                and value.attr == "behavior"):
            self.reads.append((node.attr, ".".join(self.scope)))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name:
            self.calls.append((name, ".".join(self.scope)))
        self.generic_visit(node)


def _scan() -> _Sites:
    sites = _Sites("")
    for name, module in REPLAY_MODULES.items():
        visitor = _Sites(name)
        visitor.visit(ast.parse(inspect.getsource(module)))
        sites.reads += visitor.reads
        sites.calls += visitor.calls
    return sites


def _function(module, qualname: str):
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.FunctionDef) and node.name == qualname:
            return node
    raise LookupError(qualname)


class TestReplayRuleAudit:
    """Each rule's proof covers the read sites its table entry names;
    a new read site must fail here, not silently break exactness."""

    def test_rule_fields_are_sender_replay_fields(self):
        fields = {field.name for field in dataclasses.fields(TCPBehavior)}
        for name, rule in REPLAY_RULES.items():
            for field in rule.fields:
                assert field in fields, (name, field)
                assert field in engine_module._SENDER_FIELDS, (name, field)

    @pytest.mark.parametrize("rule", sorted(REPLAY_RULES))
    def test_dropped_fields_are_read_only_at_the_named_sites(self, rule):
        entry = REPLAY_RULES[rule]
        reads = [(field, site) for field, site in _scan().reads
                 if field in entry.fields]
        assert reads, f"{rule}: no read site left; drop the rule"
        stray = [(field, site) for field, site in reads
                 if site not in entry.sites]
        assert not stray, f"{rule}: unaccounted read sites {stray}"

    @pytest.mark.parametrize("rule", sorted(REPLAY_RULES))
    def test_shared_helpers_are_called_only_from_named_sites(self, rule):
        # The tcp helpers read the fields for whoever calls them, so
        # a rule's proof covers them only through their callers.
        entry = REPLAY_RULES[rule]
        helpers = {site.split(".")[1] for site in entry.sites
                   if site.split(".")[0] in ("params", "timers")
                   and site.count(".") == 1}
        stray = [(helper, caller) for helper, caller in _scan().calls
                 if helper in helpers and caller not in entry.sites]
        assert not stray, f"{rule}: unaccounted helper calls {stray}"

    def test_engine_mirrors_the_replay_guards(self):
        # The lull condition mirrors _quench_inference's gap test and
        # the reuse predicate _replay's category-"incorrect" floor.
        lull_test = next(
            node for node in ast.walk(_function(analyzer,
                                                "_quench_inference"))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "max")
        assert ast.unparse(lull_test.args[0]) == "LULL_S"
        assert LULL_S is analyzer.LULL_S == 0.05
        floor = next(
            node for node in ast.walk(_function(analyzer, "_replay"))
            if isinstance(node, ast.Assign)
            and getattr(node.targets[0], "id", None) == "incorrect_floor")
        assert ast.unparse(floor.value) == "max(1, n_rows // 50)"
        assert "max(1, len(pass_one.data_rows) // 50)" in inspect.getsource(
            IdentificationEngine.identify_sender)


class TestLullGuard:
    """Replays that never reach a lull step share under their lull-free
    keys (``IdentificationEngine.identify_sender``); the proof rests on
    the read sites audited here."""

    def test_quench_inference_has_one_call_site_behind_the_flag(self):
        calls = [site for name, site in _scan().calls
                 if name == "_quench_inference"]
        assert calls == ["analyzer._replay"]
        guards = [node for node in ast.walk(_function(analyzer, "_replay"))
                  if isinstance(node, ast.If)
                  and any(isinstance(call, ast.Call)
                          and getattr(call.func, "id", None)
                          == "_quench_inference"
                          for call in ast.walk(node))]
        guard = guards[-1]      # the innermost enclosing test
        assert ast.unparse(guard.test) == \
            "time - state.last_send_time >= LULL_S"
        first = guard.body[0]
        assert ast.unparse(first) == "analysis.lull_reached = True"

    def test_apply_quench_is_called_only_from_quench_inference(self):
        assert [site for name, site in _scan().calls
                if name == "apply_quench"] == ["analyzer._quench_inference"]

    def test_srtt_is_read_only_by_quench_inference(self):
        sites = []
        for module, tree in _source_tree().items():
            if not module.startswith("core."):
                continue
            visitor = _AttributeLoads(module, "srtt")
            visitor.visit(tree)
            sites += [site for _, site in visitor.reads]
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and node.value == "srtt":
                    sites.append("string")
        assert sites == ["string"]
        assert '"srtt"' in inspect.getsource(analyzer._quench_inference)

    def test_gap_without_an_overdue_send_shares_lull_free_keys(
            self, monkeypatch):
        # Every flight of a clean WAN transfer waits a round trip, so
        # the trace has lulls, but no send is ever overdue: no replay
        # reaches a lull step, and classes that differ only in their
        # quench response or (without retransmissions) RTO style share.
        trace = cached_transfer("reno", "wan", data_size=24576).sender_trace
        pass_one = extract_pass_one(trace)
        conditions = replay_conditions(pass_one)
        assert conditions.lull and not conditions.retransmits
        engine = IdentificationEngine()
        replayed = []
        real = engine_module.analyze_sender

        def counting(*args, **kwargs):
            analysis = real(*args, **kwargs)
            replayed.append(analysis)
            return analysis

        monkeypatch.setattr(engine_module, "analyze_sender", counting)
        shared = engine.identify_sender(pass_one=pass_one)
        assert not any(analysis.lull_reached for analysis in replayed)
        groups = [group[0] for group in engine._sender_groups]
        full = {replay_key(engine.candidates[name], conditions)
                for name in groups}
        quiet = {replay_key(engine.candidates[name],
                            conditions._replace(lull=False))
                 for name in groups}
        assert len(replayed) == len(quiet) < len(full)
        oracle = IdentificationEngine(
            share_replays=False).identify_sender(pass_one=pass_one)
        assert _snapshot(shared) == _snapshot(oracle)

    def test_a_replay_that_reaches_a_lull_is_not_shared_quietly(self):
        # The quench fixture commits a quench trial: its replays reach a
        # lull step, and every fit still matches the per-class oracle.
        trace = parse_trace(QUENCH_FIXTURE.read_text(), vantage="sender")
        pass_one = extract_pass_one(trace)
        analysis = analyzer.analyze_sender(None, get_behavior("reno"),
                                           pass_one=pass_one)
        assert analysis.lull_reached
        shared = IdentificationEngine(VARIANTS).identify_sender(
            pass_one=pass_one)
        oracle = IdentificationEngine(
            VARIANTS, share_replays=False).identify_sender(pass_one=pass_one)
        assert _snapshot(shared) == _snapshot(oracle)


class _AttributeLoads(_Sites):
    """Loads of ``<expr>.<attr>`` for one attribute name, by enclosing
    qualname."""

    def __init__(self, module: str, attr: str):
        super().__init__(module)
        self.attr = attr

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == self.attr and isinstance(node.ctx, ast.Load):
            self.reads.append((node.attr, ".".join(self.scope)))
        self.generic_visit(node)


def _source_tree() -> dict[str, ast.Module]:
    """Every module of the ``repro`` package, parsed, by dotted name."""
    root = Path(engine_module.__file__).parents[1]
    return {".".join(path.relative_to(root).with_suffix("").parts):
            ast.parse(path.read_text())
            for path in sorted(root.rglob("*.py"))}


class TestReceiverSharingAudit:
    """The receiver sharing rule's proof (``identify_receiver``) and
    the scoring classes rest on these read sites."""

    def test_mandatory_is_read_only_by_expire(self):
        sites = []
        for module, tree in _source_tree().items():
            visitor = _AttributeLoads(module, "mandatory")
            visitor.visit(tree)
            sites += [site for _, site in visitor.reads]
        assert sites == ["core.receiver.obligations.ObligationTracker.expire"]

    def test_computed_mandatory_flags_declare_their_policy_dependence(self):
        # A constant flag is the same under every policy; a computed one
        # must say whether the candidate's policy decided it.
        for node in ast.walk(ast.parse(inspect.getsource(
                receiver_analyzer))):
            if not (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "AckObligation"):
                continue
            keywords = {k.arg: k.value for k in node.keywords}
            if not isinstance(keywords["mandatory"], ast.Constant):
                assert "policy_dependent" in keywords, ast.unparse(node)

    def test_replay_reads_only_the_receiver_fields(self):
        visitor = _Sites("analyzer")
        visitor.visit(ast.parse(inspect.getsource(receiver_analyzer)))
        fields = {field for field, _ in visitor.reads} - {"label"}
        assert fields == set(engine_module._RECEIVER_RELEVANT)

    def test_scoring_reads_only_the_declared_fields(self):
        scoring = ("score_receiver_policy", "_expected_delay_ceiling")
        visitor = _Sites("fit")
        visitor.visit(ast.parse(inspect.getsource(fit_module)))
        fields = {field for field, site in visitor.reads
                  if site.split(".")[-1] in scoring}
        assert fields == set(engine_module._RECEIVER_SCORED)
        # ... and the behavior escapes nowhere else.
        for name in scoring:
            function = _function(fit_module, name)
            parents = {child: node for node in ast.walk(function)
                       for child in ast.iter_child_nodes(node)}
            for node in ast.walk(function):
                if isinstance(node, ast.Name) and node.id == "behavior":
                    parent = parents[node]
                    assert isinstance(parent, ast.Attribute) or (
                        isinstance(parent, ast.Call)
                        and getattr(parent.func, "id", None)
                        == "_expected_delay_ceiling"), ast.unparse(parent)

    def test_mandatory_deadline_is_the_shorter(self):
        # Below the mandatory deadline both deadlines keep an
        # obligation pending, whichever flag it carries.
        assert MANDATORY_ACK_DEADLINE < MAX_ACK_DELAY


class TestSlots:
    def test_trace_record_rejects_stray_attributes(self):
        record = cached_transfer("reno", "wan").sender_trace.records[0]
        assert not hasattr(record, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            object.__setattr__(record, "stray", 1)

    def test_flow_rejects_stray_attributes(self):
        from repro.stream.flowtable import ConnectionKey, Flow
        endpoints = cached_transfer("reno", "wan").sender_trace.records[0]
        key = ConnectionKey.of(endpoints.src, endpoints.dst)
        flow = Flow(key=key, index=0)
        assert not hasattr(flow, "__dict__")
        with pytest.raises(AttributeError):
            flow.stray = 1

    def test_classification_is_slotted(self):
        from repro.core.sender.analyzer import Classification
        record = cached_transfer("reno", "wan").sender_trace.records[0]
        classification = Classification([record], 0, "new")
        assert not hasattr(classification, "__dict__")
        assert classification.record is record

    def test_slotted_records_still_pickle(self):
        # Batch workers ship traces across process boundaries.
        import pickle
        record = cached_transfer("reno", "wan").sender_trace.records[0]
        assert pickle.loads(pickle.dumps(record)) == record

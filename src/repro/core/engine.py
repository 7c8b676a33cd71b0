"""The identification engine: shared-pass candidate fitting (§5, §6).

:func:`repro.core.fit.identify_implementation` is the paper's loop at
its most literal — every catalog entry gets a full, independent
analysis — and it is the tool's hottest path.  This module produces
the *same ranking* with far less work, by exploiting structure the
exhaustive loop ignores:

* **Shared pass one.**  Fact extraction (§6.2 window inference input,
  MSS negotiation, the data/ack timelines) is candidate-independent;
  the engine computes it once per trace and hands the same
  :class:`~repro.core.sender.analyzer.SenderPassOne` /
  :class:`~repro.core.receiver.analyzer.ReceiverPassOne` to every
  candidate's pass-two replay.

* **Replay equivalence classes.**  Two candidates whose behaviors
  differ only in fields the sender replay never reads (acking policy,
  connection-establishment timers, labels) replay identically, so the
  engine replays each class once and relabels the analysis for the
  other members.  The receiver replay reads just two policy fields,
  and only through obligations it can prove never mattered, so most
  traces need one receiver replay for the whole catalog (see
  :meth:`IdentificationEngine.identify_receiver`).  Receiver scoring
  reads four behavior fields, so it runs once per distinct four per
  replay.

* **Trace-conditioned replay keys.**  Many sender fields are read
  only after an event a given trace provably never triggers: a
  retransmission, a run of duplicate acks, a sending lull.  One scan
  of pass one's rows gives a trace's :class:`ReplayConditions`; under
  them each rule of :data:`REPLAY_RULES` drops fields whose every
  read site is unreachable or cannot change any model state, note or
  snapshot text, and the four initial-window fields become the
  derived initial cwnd and ssthresh.  Static classes whose
  *trace-conditioned* keys (:func:`replay_key`) agree share one
  replay per trace: a memo that lives for one
  :meth:`IdentificationEngine.identify_sender` call maps each key to
  the replay and the bound it ran under, and a later class reuses it
  only when its own bound would not have cut the replay differently
  (:func:`reuses_replay`).

* **Static prefilters.**  A candidate whose fixed signature
  contradicts the facts (it never offers an MSS option but the traced
  SYN carries one; the trace shows more connection SYNs than its
  retry limit allows) is disqualified without replaying at all.
  These rules assert *definitional* contradictions the replay itself
  cannot see, so a pruned candidate ranks as incorrect by fiat.

* **Branch-and-bound early abort.**  Violations score 10 points each
  and only ever accumulate (outside quench trials, whose rollback can
  retract them), so a replay whose running violation count alone
  pushes the score past :data:`~repro.core.fit.SCORE_SATURATION` —
  where the rank key saturates and ties break on name — and past the
  category-"incorrect" floor can stop: finishing it cannot change the
  ranking or any category.  Candidates are ordered best-first (a
  cheap ramp-shape signature) so a good fit completes early and the
  hopeless majority aborts within a few dozen violations.

The equivalence suite (tests/core/test_engine.py) holds the engine to
byte-identical rankings and categories against the exhaustive oracle
across the scenario corpus.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, NamedTuple

from repro.tcp.catalog import CATALOG
from repro.tcp.params import (
    MAX_WINDOW,
    QuenchResponse,
    TCPBehavior,
    initial_cwnd,
    initial_ssthresh,
)
from repro.trace.record import Trace

from repro.core.fit import (
    SCORE_SATURATION,
    CandidateFit,
    FitReport,
    ReceiverFit,
    categorize,
    rank_key,
    score_receiver_policy,
)
from repro.core.receiver.analyzer import (
    ReceiverPassOne,
    analyze_receiver,
    extract_receiver_pass_one,
)
from repro.core.sender.analyzer import (
    LULL_S,
    ConnectionFacts,
    SenderAnalysis,
    SenderPassOne,
    TraceUnusable,
    analyze_sender,
    extract_pass_one,
)

#: TCPBehavior fields the sender replay never reads: identity labels,
#: receiver acking policy, connection-establishment and persist
#: timers, and fields consumed only by scoring or prefilters.  Two
#: behaviors equal on every *other* field replay identically.
_SENDER_IRRELEVANT = frozenset({
    "name", "version", "lineage",
    "ack_policy", "ack_every_segments", "delayed_ack_timeout",
    "ack_on_consumption", "immediate_ack_on_hole_fill",
    "response_delay",
    "initial_syn_timeout", "syn_backoff_factor", "max_syn_retries",
    "persist_interval", "persist_backoff", "max_persist_interval",
    "max_data_retries", "sends_rst_on_abort",
    "offers_mss_option",
})

#: The only TCPBehavior fields the receiver *replay* reads
#: (:func:`repro.core.receiver.analyzer._arrival`).
_RECEIVER_RELEVANT = ("immediate_ack_on_hole_fill", "ack_on_consumption")

#: The only TCPBehavior fields receiver *scoring* reads
#: (:func:`repro.core.fit.score_receiver_policy` and its
#: ``_expected_delay_ceiling``); tests/core/test_engine.py audits it.
_RECEIVER_SCORED = ("ack_policy", "delayed_ack_timeout",
                    "ack_every_segments", "immediate_ack_on_hole_fill")


#: The fields a sender replay may read, in declaration order.
_SENDER_FIELDS = tuple(field.name for field in dataclasses.fields(TCPBehavior)
                       if field.name not in _SENDER_IRRELEVANT)


def sender_signature(behavior: TCPBehavior) -> tuple:
    """Hashable key under which sender replays are interchangeable."""
    return tuple(getattr(behavior, f.name)
                 for f in dataclasses.fields(behavior)
                 if f.name not in _SENDER_IRRELEVANT)


def receiver_signature(behavior: TCPBehavior) -> tuple:
    """Hashable key under which receiver replays are interchangeable."""
    return tuple(getattr(behavior, f) for f in _RECEIVER_RELEVANT)


def receiver_score_signature(behavior: TCPBehavior) -> tuple:
    """Hashable key under which receiver scores are interchangeable:
    candidates equal on it score any one analysis identically."""
    return tuple(getattr(behavior, f) for f in _RECEIVER_SCORED)


_SLOW_START_RESPONSES = (QuenchResponse.SLOW_START,
                         QuenchResponse.SLOW_START_HALVE_SSTHRESH)


class ReplayConditions(NamedTuple):
    """What one trace can make a sender replay read (see
    :func:`replay_conditions`).

    Replay keys depend on the trace through these fields alone, so
    traces with equal conditions share their keys.  A named tuple:
    immutable, hashable, and cheap to build once per trace.
    """

    #: Some data row starts below the highest ``seq_end`` before it.
    retransmits: bool
    #: An upper bound on ``SenderModel.dupacks`` at every replay step.
    max_dupacks: int
    #: Some send follows the one before it (or the SYN-ack) by at
    #: least :data:`LULL_S`.
    lull: bool
    #: The handshake facts the initial window derives from.
    negotiated_mss: int
    offered_mss: int
    peer_offered_mss_option: bool

    def fast_retransmits(self, behavior: TCPBehavior) -> bool:
        """Can dup acks reach *behavior*'s fast-retransmit threshold?"""
        return (behavior.fast_retransmit
                and not behavior.dup_ack_triggers_flight_retransmit
                and self.max_dupacks >= behavior.dup_ack_threshold)

    def retransmission_possible(self, behavior: TCPBehavior) -> bool:
        return self.retransmits or self.fast_retransmits(behavior)

    def ssthresh_cut_possible(self, behavior: TCPBehavior) -> bool:
        return (self.retransmission_possible(behavior)
                or (self.lull and behavior.quench_response
                    is QuenchResponse.SLOW_START_HALVE_SSTHRESH))

    def reads_srtt(self, behavior: TCPBehavior) -> bool:
        """Can a quench trial's lull test read the estimator's srtt?"""
        return self.lull and behavior.quench_response in _SLOW_START_RESPONSES

    def initial_window(self, behavior: TCPBehavior) -> tuple[int, int]:
        """``SenderModel``'s initial (cwnd, ssthresh) on this trace."""
        return (initial_cwnd(behavior, self.negotiated_mss,
                             self.offered_mss, self.peer_offered_mss_option),
                initial_ssthresh(behavior, self.negotiated_mss,
                                 self.peer_offered_mss_option))


def replay_conditions(pass_one: SenderPassOne) -> ReplayConditions:
    """One O(rows) scan of pass one's data and ack rows.

    * ``retransmits``: without one, ``seq >= snd_nxt`` on every step
      (``snd_nxt`` never passes the highest end seen, and only a
      timeout or a Tahoe collapse rolls it back), so ``try_explain``'s
      out-of-band retransmission branch never runs.
    * ``max_dupacks``: per ack value *v*, the pure acks carrying *v*,
      not counting the first ack row carrying *v* whatever its payload
      (``snd_una`` reaches *v* only through an advancing ack carrying
      *v*), except at ``iss+1``, where ``snd_una`` starts.  The maximum
      over *v*: acks are fed in order, and a quench rollback restores
      the model together with the ack cursor.
    * ``lull``: ``last_send_time`` is always the previous row's time
      (the SYN-ack's before the first), so without a gap of
      :data:`LULL_S` no quench trial ever starts.
    """
    facts = pass_one.facts
    high = (facts.iss + 1) % 2**32
    retransmits = False
    lull = False
    last_time = facts.synack_time
    for time, seq, end, _ in pass_one.data_rows:
        if (seq - high) % 2**32 >= 2**31:
            retransmits = True
        if 0 < (end - high) % 2**32 < 2**31:
            high = end
        if time - last_time >= LULL_S:
            lull = True
        last_time = time
    dups = {(facts.iss + 1) % 2**32: 0}
    for _, ack, _, payload in pass_one.ack_rows:
        count = dups.get(ack)
        if count is None:
            dups[ack] = 0
        elif payload == 0:
            dups[ack] = count + 1
    return ReplayConditions(retransmits, max(dups.values()), lull,
                            facts.negotiated_mss, facts.offered_mss,
                            facts.peer_offered_mss_option)


class ReplayRule(NamedTuple):
    """Fields a sender replay provably never lets matter on a trace.

    When ``applies(conditions, behavior)`` holds, every read of
    ``fields`` is unreachable or cannot change any model state, note
    or ``model.snapshot()`` text.  ``sites`` names every function that
    reads them, directly or (for the shared ``params``/``timers``
    helpers) as the helper's caller, as ``module.qualname`` in
    ``core.sender.windows``, ``core.sender.analyzer``, ``tcp.params``
    and ``tcp.timers``; tests/core/test_engine.py audits the list.
    """

    fields: tuple[str, ...]
    sites: tuple[str, ...]
    applies: Callable[[ReplayConditions, TCPBehavior], bool]


#: The trace-conditioned key rules, each with its proof.
REPLAY_RULES: dict[str, ReplayRule] = {
    # ``SenderModel.__init__`` is the only reader, through the two
    # helpers; the key carries their results instead.  (mss_confusion
    # stays: ``effective_mss`` adds 4 to every later increase.)
    "initial state": ReplayRule(
        ("initial_ssthresh_segments", "initial_cwnd_segments",
         "uninitialized_cwnd_bug", "cwnd_init_from_offered_mss"),
        ("params.initial_cwnd", "params.initial_ssthresh",
         "windows.SenderModel.__init__"),
        lambda conditions, behavior: True),
    # dupacks never reaches the threshold, so ``_duplicate`` changes
    # nothing past its counter: expected_fast_rexmit and
    # in_fast_recovery stay False, and ``_deflate`` never runs.
    "no fast retransmit": ReplayRule(
        ("fast_retransmit", "dup_ack_threshold", "fast_recovery",
         "fast_recovery_disabled_by_bug", "header_prediction_bug",
         "fencepost_bug"),
        ("windows.SenderModel._duplicate", "windows.SenderModel._deflate",
         "analyzer._Replay.try_explain"),
        lambda conditions, behavior:
            not conditions.fast_retransmits(behavior)),
    # ``_duplicate`` never runs and dupacks stays 0.
    "no dup acks": ReplayRule(
        ("dupack_updates_cwnd", "dup_ack_triggers_flight_retransmit"),
        ("windows.SenderModel._duplicate", "analyzer._Replay.try_explain"),
        lambda conditions, behavior: conditions.max_dupacks == 0),
    # ``apply_timeout`` needs an out-of-band retransmission; with no dup
    # acks the state it would clear is already clear.
    "no timeout": ReplayRule(
        ("clear_dupacks_on_timeout",),
        ("windows.SenderModel.apply_timeout",),
        lambda conditions, behavior:
            not conditions.retransmits or conditions.max_dupacks == 0),
    # No out-of-band branch, hence no timeout, and every in-window send
    # is "new" (seq never falls below highest_sent); with no fast
    # retransmit either, nothing calls mark_retransmitted.  So the RTO
    # is never asked for, no sample is for retransmitted data, and
    # rexmit_epoch (hence the quirk) stays False.
    "no retransmission": ReplayRule(
        ("rexmit_packet_after_ack", "retransmit_whole_flight",
         "initial_rto", "min_rto", "max_rto", "backoff_factor",
         "rto_collapse_on_rexmit_ack"),
        ("windows.SenderModel._advance", "windows.SenderModel.apply_timeout",
         "analyzer._Replay.try_explain", "timers.RTOEstimator.rto",
         "timers.JacobsonEstimator.base_rto",
         "timers.SolarisEstimator.__init__",
         "timers.SolarisEstimator.sample",
         "timers.Linux10Estimator.base_rto",
         "timers.TrumpetEstimator.base_rto"),
        lambda conditions, behavior:
            not conditions.retransmission_possible(behavior)),
    # As above, and the estimator's only other output, the srtt the
    # lull test reads (only Jacobson has one), is never read either.
    "no RTO estimate": ReplayRule(
        ("rto_style",),
        ("timers.make_estimator", "windows.SenderModel.__init__"),
        lambda conditions, behavior:
            not conditions.retransmission_possible(behavior)
            and not conditions.reads_srtt(behavior)),
    # ``cut_ssthresh`` runs only on fast retransmit, timeout or a
    # halving quench.
    "no ssthresh cut": ReplayRule(
        ("ssthresh_rounding", "ssthresh_min_segments"),
        ("params.cut_ssthresh", "windows.SenderModel._duplicate",
         "windows.SenderModel.apply_timeout",
         "windows.SenderModel.apply_quench"),
        lambda conditions, behavior:
            not conditions.ssthresh_cut_possible(behavior)),
    # ssthresh keeps its initial value above MAX_WINDOW (no cut, and
    # no fast recovery to inflate cwnd past it), so congestion
    # avoidance is never entered from cwnd < MAX_WINDOW, and a step
    # from a huge cwnd clamps to MAX_WINDOW either way.
    "no congestion avoidance": ReplayRule(
        ("increase_rule", "ca_on_equal"),
        ("params.increase_cwnd", "params.in_congestion_avoidance",
         "windows.SenderModel._advance", "windows.SenderModel._duplicate"),
        lambda conditions, behavior:
            not conditions.ssthresh_cut_possible(behavior)
            and conditions.initial_window(behavior)[1] > MAX_WINDOW),
    # ``_replay`` never calls ``_quench_inference``, the one reader of
    # quench_response and the one caller of ``apply_quench``.  (A
    # replay that never reaches a lull step, even on a trace with a
    # lull, shares the same way: see the lull-free keys in
    # ``IdentificationEngine.identify_sender``.)
    "no lull": ReplayRule(
        ("quench_response",),
        ("windows.SenderModel.apply_quench", "analyzer._quench_inference"),
        lambda conditions, behavior: not conditions.lull),
}

#: Stands in the replay key for a field a rule dropped.
_DROPPED = "dropped"

#: How many distinct ReplayConditions an engine keeps keys for; past
#: this the memo starts over, so odd traffic cannot grow it unbounded.
_KEYED_CONDITIONS = 256


def replay_key(behavior: TCPBehavior, conditions: ReplayConditions) -> tuple:
    """*behavior*'s trace-conditioned replay key: behaviors with equal
    keys replay any trace with these *conditions* identically."""
    dropped: set[str] = set()
    for rule in REPLAY_RULES.values():
        if rule.applies(conditions, behavior):
            dropped.update(rule.fields)
    return (conditions.initial_window(behavior),
            tuple(_DROPPED if name in dropped else getattr(behavior, name)
                  for name in _SENDER_FIELDS))


def reuses_replay(analysis: SenderAnalysis, replayed_bound: float | None,
                  bound: float | None, floor: int) -> bool:
    """Would replaying under *bound* give exactly *analysis*, which ran
    under *replayed_bound*?

    A completed replay would not abort under *bound* either unless its
    final violation count ``V`` passes the abort test: outside quench
    trials the checked count only grows, up to ``V``.  An aborted one
    stopped where its own bound cut it, so only an equal bound does.
    *floor* is ``_replay``'s category-"incorrect" floor.
    """
    if analysis.replay_aborted:
        return replayed_bound == bound
    violations = analysis.violation_count
    return bound is None or not (violations > floor
                                 and violations * 10.0 > bound)


def prefilter_reason(facts: ConnectionFacts,
                     behavior: TCPBehavior) -> str:
    """Why *behavior* is statically impossible for *facts* ("" if not).

    Only definitional contradictions belong here — facts the replay
    does not check, where the behavior admits no trace that looks
    like this one.
    """
    if facts.offered_mss_option and not behavior.offers_mss_option:
        return ("trace SYN carries an MSS option; candidate never "
                "offers one")
    if facts.syn_count > behavior.max_syn_retries + 1:
        return (f"trace shows {facts.syn_count} connection SYNs; "
                f"candidate retries at most {behavior.max_syn_retries} "
                f"times")
    return ""


def prefit_penalty(facts: ConnectionFacts, behavior: TCPBehavior) -> int:
    """Best-first ordering heuristic: 0 = promising, 1 = doubtful.

    A stack whose initial ssthresh is a single segment ramps linearly
    from the start, so its early flight stays small; an exponential
    opener blows past a few segments within the first few sends.
    Ordering only — never affects the ranking, just how soon a good
    fit completes and arms the early-abort bound.
    """
    slow_opener = behavior.initial_ssthresh_segments == 1
    looks_slow = (facts.early_peak_flight
                  <= 4 * max(facts.negotiated_mss, 1))
    return 0 if slow_opener == looks_slow else 1


class IdentificationEngine:
    """Shared-pass, pruning, early-aborting candidate identification.

    Stateless between traces apart from the candidate grouping and a
    bounded memo of replay keys per :class:`ReplayConditions`, so a
    single instance threads safely through a whole batch or stream
    run.  The switches exist for the equivalence suite and ablation
    benchmarks; production callers use the defaults.
    """

    def __init__(self, candidates: dict[str, TCPBehavior] | None = None, *,
                 prefilter: bool = True, early_abort: bool = True,
                 share_replays: bool = True):
        self.candidates = dict(candidates or CATALOG)
        self.prefilter = prefilter
        self.early_abort = early_abort
        self.share_replays = share_replays
        names = sorted(self.candidates)
        if share_replays:
            sender_groups: dict[tuple, list[str]] = {}
            receiver_groups: dict[tuple, list[str]] = {}
            for name in names:
                behavior = self.candidates[name]
                sender_groups.setdefault(
                    sender_signature(behavior), []).append(name)
                receiver_groups.setdefault(
                    receiver_signature(behavior), []).append(name)
            self._sender_groups = list(sender_groups.values())
            self._receiver_groups = list(receiver_groups.values())
            #: ReplayConditions -> {candidate: replay key}.
            self._keys: dict[ReplayConditions, dict[str, tuple]] = {}
        else:
            self._sender_groups = [[name] for name in names]
            self._receiver_groups = [[name] for name in names]
        self._receiver_names = names
        self._score_keys = {name: receiver_score_signature(behavior)
                            for name, behavior in self.candidates.items()}

    # -- sender side -------------------------------------------------------

    def identify_sender(self, trace: Trace | None = None, *,
                        pass_one: SenderPassOne | None = None) -> FitReport:
        """Rank every candidate against the trace (engine path)."""
        if pass_one is None:
            try:
                pass_one = extract_pass_one(trace)
            except (TraceUnusable, ValueError):
                return self._all_unusable()
        facts = pass_one.facts

        fits: list[CandidateFit] = []
        runnable: list[list[str]] = []
        for group in self._sender_groups:
            # Prefilter per member: the rules read exactly the fields
            # the replay signature excludes, so one replay class can
            # contain both pruned and surviving candidates.
            survivors = []
            for name in group:
                reason = ""
                if self.prefilter:
                    reason = prefilter_reason(facts, self.candidates[name])
                if reason:
                    fits.append(CandidateFit(name, "incorrect",
                                             pruned_reason=reason))
                else:
                    survivors.append(name)
            if survivors:
                runnable.append(survivors)
        runnable.sort(key=lambda group: (
            prefit_penalty(facts, self.candidates[group[0]]), group[0]))

        # Trace-conditioned replay sharing: key -> (analysis, bound).
        # A replay that never reached a lull step (``lull_reached``
        # unset) is also shared under its lull-free key, the key as if
        # the trace had no lull.  Proof: two classes with equal
        # lull-free keys differ only in fields that rule proofs under
        # ``lull=False`` confine to ``_quench_inference`` and
        # ``apply_quench``, or to the estimator's srtt (read only by
        # ``_quench_inference``) and RTO (the lull-free key keeps
        # rto_style whenever a retransmission is possible).
        # ``_replay`` calls ``_quench_inference`` only at a step that
        # sets ``lull_reached``, and sets it from replay state alone.
        # So both replays hold equal state step for step until the
        # first such step, reach it alike, and if one never reaches
        # it, neither does, and neither ever reads a field they differ
        # in: they are the same replay.
        if self.share_replays:
            conditions = replay_conditions(pass_one)
            keys = self._replay_keys(conditions)
            quiet_keys = self._replay_keys(conditions._replace(lull=False))
        else:
            keys = quiet_keys = None
        replays: dict[tuple, tuple[SenderAnalysis, float | None]] = {}
        quiet: dict[tuple, tuple[SenderAnalysis, float | None]] = {}
        # _replay's category-"incorrect" floor, for reuses_replay.
        floor = max(1, len(pass_one.data_rows) // 50)
        best_completed: float | None = None
        for group in runnable:
            behavior = self.candidates[group[0]]
            bound: float | None = None
            if self.early_abort:
                bound = (SCORE_SATURATION if best_completed is None
                         else max(best_completed, SCORE_SATURATION))
            analysis = None
            if keys is not None:
                key, quiet_key = keys[group[0]], quiet_keys[group[0]]
                for shared in (replays.get(key), quiet.get(quiet_key)):
                    if shared is not None and reuses_replay(*shared, bound,
                                                            floor):
                        analysis = shared[0]
                        break
            if analysis is None:
                analysis = analyze_sender(None, behavior, group[0],
                                          pass_one=pass_one,
                                          abort_score=bound)
                if keys is not None:
                    replays[key] = (analysis, bound)
                    if not analysis.lull_reached:
                        quiet[quiet_key] = (analysis, bound)
            if analysis.replay_aborted:
                lower_bound = analysis.violation_count * 10.0
                for name in group:
                    labelled = self._relabel(analysis, name)
                    fits.append(CandidateFit(name, "incorrect", labelled,
                                             lower_bound, aborted=True))
                continue
            score = (analysis.violation_count * 10.0
                     + analysis.mean_response_delay)
            category = categorize(analysis)
            for name in group:
                labelled = self._relabel(analysis, name)
                fits.append(CandidateFit(name, category, labelled, score))
            if best_completed is None or score < best_completed:
                best_completed = score
        fits.sort(key=rank_key)
        return FitReport(fits=fits)

    def _replay_keys(self, conditions: ReplayConditions
                     ) -> dict[str, tuple]:
        """Every candidate's replay key under *conditions*, computed
        once per distinct conditions: flows of one capture mostly
        repeat a handful."""
        keys = self._keys.get(conditions)
        if keys is None:
            if len(self._keys) >= _KEYED_CONDITIONS:
                self._keys.clear()
            keys = self._keys[conditions] = {
                name: replay_key(behavior, conditions)
                for name, behavior in self.candidates.items()}
        return keys

    def _relabel(self, analysis, name: str):
        """A shared analysis, relabelled for *name*.

        A shallow field-level copy: the classification lists are
        shared (read-only downstream), only the identity differs.  The
        instance dict is copied directly (the analyses are plain
        dataclasses): ``dataclasses.replace`` costs several times more,
        and most candidates of a clean trace take this path.
        """
        if name == analysis.implementation:
            return analysis
        cls = type(analysis)
        labelled = cls.__new__(cls)
        labelled.__dict__.update(analysis.__dict__, implementation=name,
                                 behavior=self.candidates[name])
        return labelled

    def _all_unusable(self) -> FitReport:
        fits = [CandidateFit(name, "unusable")
                for name in sorted(self.candidates)]
        return FitReport(fits=fits)

    # -- receiver side -----------------------------------------------------

    def identify_receiver(self, trace: Trace | None = None, *,
                          pass_one: ReceiverPassOne | None = None,
                          headers_only: bool = False) -> list[ReceiverFit]:
        """Rank candidates by receiver acking policy (engine path)."""
        if pass_one is None:
            try:
                pass_one = extract_receiver_pass_one(trace, headers_only)
            except ValueError:
                return [ReceiverFit(name, "unusable")
                        for name in sorted(self.candidates)]
        # One replay for every class, unless the policy mattered.  The
        # policy fields (_RECEIVER_RELEVANT) reach the replay only
        # through AckObligation.mandatory, and only on a hole fill or
        # an in-sequence arrival with unacked >= 2 * full_size; _arrival
        # marks exactly those obligations policy_dependent, and every
        # other obligation's flag is the same under every policy.
        # ``mandatory`` is read only by ObligationTracker.expire (the
        # audit in tests/core/test_engine.py), which moves an obligation
        # to ``missed`` once its age passes MANDATORY_ACK_DEADLINE if
        # mandatory, else MAX_ACK_DELAY, the longer one: at an age up to
        # MANDATORY_ACK_DEADLINE both keep it pending.  So replays under
        # any two policies hold equal state and append equal
        # explanations, gratuitous acks and ceiling violations step for
        # step, until an expire call finds a policy-dependent obligation
        # older than that; the tracker then sets policy_mattered, in
        # every replay alike.  The final expire(inf) is such a call for
        # anything still pending, so unset, the flag also means no
        # policy-dependent obligation, whose ``mandatory`` differs, is
        # on the missed list.  Hence an unset flag on the first class's
        # replay means every class replays this trace identically.
        groups = self._receiver_groups
        first = analyze_receiver(None, self.candidates[groups[0][0]],
                                 groups[0][0], pass_one=pass_one)
        if self.share_replays and not first.policy_mattered:
            replays = [(first, self._receiver_names)]
        else:
            replays = [(first, groups[0])] + [
                (analyze_receiver(None, self.candidates[group[0]],
                                  group[0], pass_one=pass_one), group)
                for group in groups[1:]]
        fits: list[ReceiverFit] = []
        for analysis, names in replays:
            # Scoring reads the analysis and _RECEIVER_SCORED only;
            # each member gets its own fit and inconsistency list.
            scored: dict[tuple, ReceiverFit] = {}
            for name in names:
                key = self._score_keys[name]
                fit = scored.get(key)
                if fit is None:
                    fit = scored[key] = score_receiver_policy(
                        analysis, self.candidates[name])
                fits.append(ReceiverFit(name, fit.category, fit.score,
                                        list(fit.inconsistencies)))
        fits.sort(key=lambda f: (f.score, f.implementation))
        return fits

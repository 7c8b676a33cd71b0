"""Sender analysis: data liberations, response delays, violations (§6).

The central algorithm.  For a trace captured at (or near) the sender,
and a candidate implementation, we replay the candidate's window state
(:class:`~repro.core.sender.windows.SenderModel`) against the trace
and explain every observed data transmission:

* an *in-window send* (new data or go-back-N resend) matched against
  the window ledger, yielding a liberation time and a response delay;
* an *exceptional retransmission* — fast retransmit, timeout, a
  Linux-style whole-flight burst, or the Solaris
  retransmit-after-the-ack quirk;
* a *filter gap* — a send the real sender could never skip to,
  implying the filter dropped records; or
* a *window violation* — inexplicable under the candidate, the
  signature of either measurement error or a wrong candidate (§6.1).

Vantage-point ambiguity (§3.2) is handled by **lazy ack consumption**:
recorded acks are fed to the model only as needed to explain each data
packet, so an ack the filter recorded before the TCP acted on an
earlier one does not confuse cause and effect.  A bounded *look-ahead*
over acks recorded just after an inexplicable packet detects filter
resequencing (§3.1.3).  The paper's one-pass generic-analysis design
failed for exactly these reasons (§4); this module is the two-pass,
implementation-specific design it settled on: pass one extracts
connection facts (including the §6.2 sender-window inference), pass
two replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.packets import FlowKey
from repro.tcp.params import QuenchResponse, TCPBehavior
from repro.trace.record import Trace, TraceRecord
from repro.units import seq_diff, seq_ge, seq_gt, seq_le

from repro.core.sender.windows import SenderModel

#: How far past an inexplicable data packet to look for the ack that
#: would explain it (filter resequencing events span a few msec).
RESEQUENCING_LOOKAHEAD = 0.025
#: How many look-ahead acks to try before giving up.
RESEQUENCING_MAX_ACKS = 4
#: Fraction of the estimated RTO at which a snd_una retransmission is
#: accepted as a plausible timeout.
TIMEOUT_TOLERANCE = 0.5
#: A response delay beyond this long (and an otherwise-unexplained
#: sending lull) triggers source-quench inference for capable stacks.
QUENCH_DELAY_THRESHOLD = 0.1
#: Window within which the Solaris retransmit-after-ack quirk fires.
QUIRK_WINDOW = 0.05


@dataclass(frozen=True, slots=True)
class Classification:
    """The analyzer's explanation of one observed data packet."""

    record: TraceRecord
    kind: str                        # new/goback/fast_retransmit/timeout/
    #                                  flight/quirk/filter_gap/violation
    response_delay: float | None = None
    note: str = ""
    #: Bytes in flight (relative to the model's snd_una) after this
    #: send — used by the §6.2 sender-window inference.
    flight: int = 0


#: How many leading data packets the early-ramp statistic covers.
EARLY_RAMP_PACKETS = 10


@dataclass(slots=True)
class ConnectionFacts:
    """Pass-one facts about the traced connection."""

    flow: FlowKey
    iss: int
    irs: int
    offered_mss: int
    negotiated_mss: int
    peer_offered_mss_option: bool
    synack_time: float
    initial_offered_window: int
    max_in_flight: int
    total_data: int
    data_count: int
    fin_seen: bool
    #: Whether the traced sender's own SYN carried an MSS option —
    #: a static signature the identification engine prefilters on.
    offered_mss_option: bool = True
    #: Number of connection-opening SYNs the sender transmitted.
    syn_count: int = 1
    #: Peak bytes in flight over the first ``EARLY_RAMP_PACKETS`` data
    #: packets: separates slow-starting stacks (initial ssthresh of
    #: one segment) from exponential openers, cheaply.
    early_peak_flight: int = 0


@dataclass(slots=True)
class SenderPassOne:
    """Everything candidate-independent about a sender-side trace.

    Pass one of the paper's two-pass design (§6), made explicit: the
    connection facts plus the data/ack event timelines every
    candidate's pass-two replay consumes.  Computed once per trace by
    :func:`extract_pass_one` and shared — read-only — across all
    candidate replays, instead of being re-derived per candidate.
    """

    facts: ConnectionFacts
    #: Primary-flow data packets, in trace order.
    data: list[TraceRecord]
    #: Reverse-direction acks at/after the SYN-ack, in trace order.
    acks: list[TraceRecord]


@dataclass
class SenderAnalysis:
    """Everything the sender analysis learned from one trace."""

    implementation: str
    behavior: TCPBehavior
    facts: ConnectionFacts
    classifications: list[Classification] = field(default_factory=list)
    violations: list[Classification] = field(default_factory=list)
    resequencing_clues: list[Classification] = field(default_factory=list)
    filter_gaps: list[Classification] = field(default_factory=list)
    inferred_quenches: list[float] = field(default_factory=list)
    inferred_sender_window: int | None = None
    notes: list[str] = field(default_factory=list)
    #: True when branch-and-bound identification cut this replay short;
    #: violation/delay tallies are then lower bounds, not final values.
    replay_aborted: bool = False

    @property
    def response_delays(self) -> list[float]:
        return [c.response_delay for c in self.classifications
                if c.response_delay is not None and c.response_delay >= 0]

    @property
    def min_response_delay(self) -> float:
        delays = self.response_delays
        return min(delays) if delays else 0.0

    @property
    def mean_response_delay(self) -> float:
        delays = self.response_delays
        return sum(delays) / len(delays) if delays else 0.0

    @property
    def max_response_delay(self) -> float:
        delays = self.response_delays
        return max(delays) if delays else 0.0

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def counts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for c in self.classifications:
            counts[c.kind] = counts.get(c.kind, 0) + 1
        return counts

    def first_violation(self) -> Classification | None:
        return self.violations[0] if self.violations else None

    def summary(self) -> str:
        kinds = ", ".join(f"{k}={v}" for k, v in
                          sorted(self.counts_by_kind().items()))
        return (f"{self.implementation}: {len(self.classifications)} data "
                f"packets ({kinds}); {self.violation_count} violations; "
                f"response delay min/mean/max = "
                f"{self.min_response_delay * 1e3:.2f}/"
                f"{self.mean_response_delay * 1e3:.2f}/"
                f"{self.max_response_delay * 1e3:.2f} ms")


class TraceUnusable(ValueError):
    """The trace lacks what sender analysis needs (handshake, data)."""


def extract_pass_one(trace: Trace) -> SenderPassOne:
    """Pass one: facts plus the data/ack timelines, in a single scan.

    Candidate-independent, so identification computes this once and
    replays every catalog entry against the same result.  With the
    numpy trace backend the scan runs as column kernels
    (:func:`_extract_pass_one_vector`); the per-record loop below is
    the pure-Python fallback and the equivalence oracle.
    """
    columns = trace.columns()
    if columns.is_vector:
        return _extract_pass_one_vector(trace, columns)
    flow = trace.primary_flow()
    reverse = flow.reversed()
    syn = next((r for r in trace if r.flow == flow and r.is_syn
                and not r.has_ack), None)
    synack = next((r for r in trace if r.flow == reverse and r.is_syn
                   and r.has_ack), None)
    if syn is None or synack is None:
        raise TraceUnusable("trace does not contain the SYN handshake")

    offered_mss = syn.mss_option if syn.mss_option is not None else 536
    peer_offered = synack.mss_option is not None
    negotiated = min(offered_mss,
                     synack.mss_option if peer_offered else 536)
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
    for record in trace:
        if record.flow == flow:
            if record.payload > 0:
                data.append(record)
                data_count += 1
                if seq_gt(record.seq_end, highest_sent):
                    total_data += seq_diff(record.seq_end, highest_sent)
                    highest_sent = record.seq_end
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
    return SenderPassOne(facts=facts, data=data, acks=acks)


def _extract_pass_one_vector(trace: Trace, columns) -> SenderPassOne:
    """The column-kernel twin of the :func:`extract_pass_one` loop.

    Sequence arithmetic runs on int64 values unwrapped around the ISS
    (``columns.rel``), where running maxima reproduce the modular
    ``seq_gt`` chain exactly for any trace spanning < 2**31 bytes of
    sequence space — the same window the modular helpers assume.
    """
    from repro.trace.columns import numpy_module
    np = numpy_module()
    primary = columns.primary_flow_id()
    in_primary = columns.flow_ids == primary
    syn_i = columns.first_index(in_primary & columns.is_syn
                                & ~columns.has_ack)
    reverse_fid = columns.reverse_id(primary)
    synack_i = -1
    if reverse_fid >= 0:
        reverse_ack = ((columns.flow_ids == reverse_fid)
                       & columns.has_ack)
        synack_i = columns.first_index(reverse_ack & columns.is_syn)
    if syn_i < 0 or synack_i < 0:
        raise TraceUnusable("trace does not contain the SYN handshake")
    syn = columns.records[syn_i]
    synack = columns.records[synack_i]

    offered_mss = syn.mss_option if syn.mss_option is not None else 536
    peer_offered = synack.mss_option is not None
    negotiated = min(offered_mss,
                     synack.mss_option if peer_offered else 536)
    synack_time = synack.timestamp

    base = syn.seq
    data_mask = in_primary & columns.is_data
    data_idx = np.flatnonzero(data_mask)
    max_in_flight = 0
    early_peak_flight = 0
    total_data = 0
    if data_idx.size:
        rel_end = columns.rel(columns.seq_end[data_idx], base)
        # Running highest_sent over data packets, floored at iss+1.
        highest_sent = np.maximum(np.maximum.accumulate(rel_end), 1)
        total_data = int(highest_sent[-1] - 1)
        # Running highest_ack *before* each record: reverse-direction
        # ack values contribute at their own index, so an exclusive
        # prefix maximum (floored at iss+1) gives the value the loop
        # holds when it reaches any given row.
        contributions = np.full(columns.n, np.int64(-2**62))
        ack_rows = np.flatnonzero(reverse_ack)
        contributions[ack_rows] = columns.rel(columns.ack[ack_rows], base)
        highest_ack_before = np.maximum.accumulate(
            np.concatenate((np.ones(1, dtype=np.int64),
                            contributions[:-1])))
        in_flight = highest_sent - highest_ack_before[data_idx]
        max_in_flight = max(0, int(in_flight.max()))
        early_peak_flight = max(0, int(in_flight[:EARLY_RAMP_PACKETS].max()))
    syn_count = int(np.count_nonzero(in_primary & columns.is_syn
                                     & ~columns.has_ack))
    fin_seen = bool(np.any(in_primary & columns.is_fin))
    ack_idx = np.flatnonzero(reverse_ack & ~columns.is_syn
                             & (columns.timestamp >= synack_time))
    facts = ConnectionFacts(
        flow=columns.flows[primary], iss=syn.seq, irs=synack.seq,
        offered_mss=offered_mss, negotiated_mss=negotiated,
        peer_offered_mss_option=peer_offered, synack_time=synack_time,
        initial_offered_window=synack.window,
        max_in_flight=max_in_flight, total_data=total_data,
        data_count=int(data_idx.size), fin_seen=fin_seen,
        offered_mss_option=syn.mss_option is not None,
        syn_count=max(syn_count, 1),
        early_peak_flight=early_peak_flight)
    return SenderPassOne(facts=facts,
                         data=columns.records_at(data_idx),
                         acks=columns.records_at(ack_idx))


def extract_facts(trace: Trace) -> ConnectionFacts:
    """Pass one: connection parameters and flight statistics."""
    return extract_pass_one(trace).facts


def analyze_sender(trace: Trace | None, behavior: TCPBehavior,
                   implementation: str | None = None, *,
                   pass_one: SenderPassOne | None = None,
                   abort_score: float | None = None) -> SenderAnalysis:
    """Analyze *trace*'s sender behavior against *behavior* (§6).

    ``pass_one`` supplies precomputed shared facts (*trace* may then be
    ``None``); ``abort_score`` enables branch-and-bound early abort —
    the replay stops, marking ``replay_aborted``, once the running
    violation count alone proves the fit score must exceed it.
    """
    if pass_one is None:
        if trace is None:
            raise TypeError("analyze_sender needs a trace or a pass_one")
        pass_one = extract_pass_one(trace)
    analysis = SenderAnalysis(
        implementation=implementation or behavior.label(),
        behavior=behavior, facts=pass_one.facts)
    _replay(pass_one, behavior, analysis, abort_score=abort_score)
    if not analysis.replay_aborted:
        _infer_sender_window(behavior, pass_one.facts, analysis)
    return analysis


# ---------------------------------------------------------------------------
# Pass two: the replay.
# ---------------------------------------------------------------------------


class _Replay:
    """Working state for one replay pass."""

    def __init__(self, pass_one: SenderPassOne, behavior: TCPBehavior,
                 analysis: SenderAnalysis):
        facts = pass_one.facts
        self.behavior = behavior
        self.facts = facts
        self.analysis = analysis
        self.model = SenderModel(
            behavior, facts.negotiated_mss, facts.iss, facts.offered_mss,
            facts.peer_offered_mss_option, facts.synack_time,
            facts.initial_offered_window)
        # Shared, read-only timelines from pass one.
        self.acks = pass_one.acks
        self.data = pass_one.data
        self.next_ack = 0
        self.flight_resend_next: int | None = None
        self.last_send_time = facts.synack_time

    # -- ack feeding -------------------------------------------------------

    def feed_ack(self) -> None:
        record = self.acks[self.next_ack]
        self.next_ack += 1
        self.model.process_ack(record)

    def acks_available_by(self, time: float) -> bool:
        return (self.next_ack < len(self.acks)
                and self.acks[self.next_ack].timestamp <= time)

    # -- explanation -------------------------------------------------------

    def try_explain(self, record: TraceRecord) -> Classification | None:
        model = self.model
        seq, end, time = record.seq, record.seq_end, record.timestamp

        if seq_gt(seq, model.snd_nxt):
            # The sender cannot skip sequence space.  Leave unexplained
            # for now: an unconsumed (or resequenced) ack may advance
            # snd_nxt to here; only once the ack supply is exhausted
            # does the replay conclude the filter dropped records.
            return None
        if (record.payload == 1 and model.offered_window == 0
                and seq == model.snd_nxt):
            # A zero-window probe from the persist timer: one byte sent
            # despite (because of) the closed window.
            return Classification(record, "window_probe")
        if seq == model.snd_nxt:
            if seq_le(end, model.allowed_high()):
                liberated = model.ledger.permissible_since(end)
                kind = ("new" if seq_ge(seq, model.highest_sent)
                        else "goback")
                delay = (time - liberated) if liberated is not None else None
                return Classification(record, kind, response_delay=delay,
                                      flight=seq_diff(end, model.snd_una))
            return None  # beyond the window as modelled so far

        # seq < snd_nxt: an out-of-band retransmission.
        if self.flight_resend_next is not None and seq == self.flight_resend_next:
            return Classification(record, "flight")
        if seq != model.snd_una:
            # A retransmission of something other than the oldest
            # outstanding data: only flight-style senders do this, and
            # their resends were matched against flight_resend_next.
            return None
        if (self.behavior.fast_retransmit and model.expected_fast_rexmit
                and time - model.expected_fast_rexmit_time <= QUIRK_WINDOW):
            return Classification(record, "fast_retransmit")
        if (self.behavior.dup_ack_triggers_flight_retransmit
                and model.dupacks >= 1):
            return Classification(record, "flight_start",
                                  note="dup-ack-triggered flight burst")
        if (self.behavior.rexmit_packet_after_ack
                and (model.rexmit_epoch or model.quirk_expected)
                and time - model.last_advance_time <= QUIRK_WINDOW):
            return Classification(record, "quirk",
                                  note="retransmit-after-ack quirk")
        elapsed = time - model.timer_base
        if elapsed >= TIMEOUT_TOLERANCE * model.estimated_rto():
            kind = ("flight_start" if self.behavior.retransmit_whole_flight
                    else "timeout")
            return Classification(record, kind,
                                  note=f"after {elapsed * 1e3:.0f} ms, "
                                  f"RTO est {model.estimated_rto() * 1e3:.0f} ms")
        return None

    def apply(self, classification: Classification) -> None:
        model = self.model
        record = classification.record
        kind = classification.kind
        if kind in ("new", "goback"):
            model.observe_send(record, is_retransmission=(kind == "goback"))
            self.flight_resend_next = None
        elif kind == "fast_retransmit":
            model.expected_fast_rexmit = False
            model.observe_send(record, is_retransmission=True)
        elif kind == "timeout":
            model.apply_timeout(record.timestamp)
            model.observe_send(record, is_retransmission=True)
        elif kind == "flight_start":
            if record.timestamp - model.timer_base >= (
                    TIMEOUT_TOLERANCE * model.estimated_rto()):
                model.apply_timeout(record.timestamp)
            model.observe_send(record, is_retransmission=True)
            self.flight_resend_next = record.seq_end
        elif kind == "flight":
            model.mark_retransmitted(record.seq)
            self.flight_resend_next = record.seq_end
            if seq_ge(record.seq_end, model.snd_nxt):
                self.flight_resend_next = None
        elif kind == "quirk":
            model.mark_retransmitted(record.seq)
            model.quirk_expected = False
        elif kind == "window_probe":
            pass   # the probe byte is re-sent as normal data later
        elif kind == "filter_gap":
            self.analysis.filter_gaps.append(classification)
            model.force_observe(record)
        else:  # violation
            model.force_observe(record)
        self.last_send_time = record.timestamp


#: How many subsequent data packets must replay cleanly before a
#: tentative quench inference is committed — the paper's "whole series
#: is consistent with slow start having begun" verification (§6.2).
QUENCH_TRIAL_PACKETS = 12


class _QuenchTrial:
    """A tentative quench hypothesis awaiting verification.

    Built by :func:`_quench_inference` only once it commits to the
    hypothesis, right before the quench is applied: everything the
    inference does before that point only reads replay state, so the
    snapshot equals the state at the top of the replay step, at a
    fraction of the clones (most hypotheses are rejected up front).
    """

    def __init__(self, state: _Replay, start_index: int):
        self.start_index = start_index
        self.packets_left = QUENCH_TRIAL_PACKETS
        self.model = state.model.clone()
        self.next_ack = state.next_ack
        self.flight_resend_next = state.flight_resend_next
        self.last_send_time = state.last_send_time
        self.classifications = len(state.analysis.classifications)
        self.violations = len(state.analysis.violations)
        self.clues = len(state.analysis.resequencing_clues)
        self.gaps = len(state.analysis.filter_gaps)
        self.quenches = len(state.analysis.inferred_quenches)

    def rollback(self, state: _Replay) -> int:
        """Undo everything since the trial began; return the index to
        resume from."""
        analysis = state.analysis
        state.model = self.model
        state.next_ack = self.next_ack
        state.flight_resend_next = self.flight_resend_next
        state.last_send_time = self.last_send_time
        del analysis.classifications[self.classifications:]
        del analysis.violations[self.violations:]
        del analysis.resequencing_clues[self.clues:]
        del analysis.filter_gaps[self.gaps:]
        del analysis.inferred_quenches[self.quenches:]
        return self.start_index


def _replay(pass_one: SenderPassOne, behavior: TCPBehavior,
            analysis: SenderAnalysis,
            abort_score: float | None = None) -> None:
    state = _Replay(pass_one, behavior, analysis)
    # Early-abort bound (branch-and-bound over candidates): once the
    # violation count alone — worth 10 score points apiece — provably
    # pushes this candidate's fit score past ``abort_score`` AND past
    # the category-"incorrect" floor, finishing the replay cannot
    # change the identification outcome.  Checked only outside quench
    # trials, because a trial rollback can retract violations.
    incorrect_floor = max(1, len(state.data) // 50)

    index = 0
    trial: _QuenchTrial | None = None
    no_quench_at: set[int] = set()   # indices where the hypothesis failed
    while index < len(state.data):
        record = state.data[index]
        model = state.model
        time = record.timestamp
        classification = None
        # Feed acks lazily: only as needed, never past the packet's time.
        while True:
            classification = state.try_explain(record)
            if classification is not None:
                break
            if state.acks_available_by(time):
                state.feed_ack()
                continue
            break

        wants_quench = (
            classification is not None and classification.kind == "new"
            and classification.response_delay is not None
            and classification.response_delay > QUENCH_DELAY_THRESHOLD)
        if (wants_quench or classification is None) \
                and trial is None and index not in no_quench_at:
            # The packet is permitted but long overdue (or inexplicable):
            # hypothesize an unseen source quench (§6.2), subject to the
            # next packets replaying consistently.  The trial snapshots
            # the replay state only if the hypothesis is taken.
            quenched = _quench_inference(state, record, index)
            if quenched is not None:
                classification, trial = quenched
        if classification is None:
            classification = _lookahead(state, record)
        if classification is None and seq_gt(record.seq, model.snd_nxt):
            classification = Classification(
                record, "filter_gap",
                note=f"gap of {seq_diff(record.seq, model.snd_nxt)} bytes "
                f"before this packet: data records missing")
        if classification is None:
            if trial is not None:
                # The post-quench series is NOT consistent: the quench
                # hypothesis fails.  Rewind and re-explain without it.
                no_quench_at.add(trial.start_index)
                index = trial.rollback(state)
                trial = None
                continue
            classification = Classification(
                record, "violation",
                note=f"model allowed up to {model.allowed_high()}, "
                f"packet ends {record.seq_end}; state {model.snapshot()}")
            analysis.violations.append(classification)

        state.apply(classification)
        analysis.classifications.append(classification)
        if trial is not None and index > trial.start_index:
            trial.packets_left -= 1
            if trial.packets_left <= 0:
                trial = None      # verified: the quench stands
        index += 1
        if (abort_score is not None and trial is None
                and len(analysis.violations) > incorrect_floor
                and len(analysis.violations) * 10.0 > abort_score):
            analysis.replay_aborted = True
            analysis.notes.append(
                f"replay aborted after {index} of {len(state.data)} data "
                f"packets: {len(analysis.violations)} violations already "
                f"exceed the best completed fit")
            return

    # Drain remaining acks so end-of-connection state is complete.
    while state.next_ack < len(state.acks):
        state.feed_ack()


def _lookahead(state: _Replay, record: TraceRecord) -> Classification | None:
    """Resequencing detection (§3.1.3): can an ack recorded just
    *after* this packet explain it?"""
    fed = 0
    while (state.next_ack < len(state.acks) and fed < RESEQUENCING_MAX_ACKS
           and state.acks[state.next_ack].timestamp
           <= record.timestamp + RESEQUENCING_LOOKAHEAD):
        state.feed_ack()
        fed += 1
        classification = state.try_explain(record)
        if classification is not None:
            clue = Classification(
                record, classification.kind,
                response_delay=classification.response_delay,
                note="explained only by an ack recorded after it: "
                "packet filter resequencing")
            state.analysis.resequencing_clues.append(clue)
            return clue
    return None


def _quench_inference(state: _Replay, record: TraceRecord, index: int
                      ) -> tuple[Classification, _QuenchTrial] | None:
    """Source-quench inference (§6.2): a long unexplained sending lull,
    after which the send pattern is consistent with the stack's
    quench response, indicates an unseen ICMP source quench.

    On success, returns the packet's classification together with the
    trial that can roll the quench back (*index* is the packet's
    position, where a rollback resumes).
    """
    behavior = state.behavior
    if behavior.quench_response not in (
            QuenchResponse.SLOW_START,
            QuenchResponse.SLOW_START_HALVE_SSTHRESH):
        return None  # not inferable for non-slow-start responders (§6.2)
    model = state.model
    # A quench collapses the window to one segment, so the sender goes
    # *quiet* for of order a round trip.  A merely buffer-limited
    # sender (§6.2 sender window) keeps transmitting in step with the
    # ack clock; without a genuine lull, do not infer a quench.
    srtt = getattr(model.estimator, "srtt", None) or 0.1
    if record.timestamp - state.last_send_time < max(0.05, 0.5 * srtt):
        return None
    # The situation: every ack up to now is consumed, the model's window
    # would have permitted this send long ago, and the delay is large.
    if seq_gt(record.seq_end, model.allowed_high()):
        return None
    liberated = model.ledger.permissible_since(record.seq_end)
    if liberated is None:
        return None
    delay = record.timestamp - liberated
    if delay < QUENCH_DELAY_THRESHOLD:
        return None
    if record.seq != model.snd_nxt:
        return None
    # Consistent with a quench between the liberating ack and this
    # packet: apply the stack's quench response at the liberation time
    # so subsequent replay tracks the collapsed window.  Snapshot first:
    # nothing above has changed the replay state.
    trial = _QuenchTrial(state, index)
    model.apply_quench(liberated)
    state.analysis.inferred_quenches.append(liberated)
    if seq_le(record.seq_end, model.allowed_high()):
        note = "consistent with unseen source quench"
    else:
        # Even one segment would not fit: retract nothing, but report
        # the packet as in-window anyway (the quench window starts at
        # snd_una).
        note = "source quench inferred; window rebuilding"
    return Classification(record, "new", response_delay=None,
                          note=note), trial


def _infer_sender_window(behavior: TCPBehavior, facts: ConnectionFacts,
                         analysis: SenderAnalysis) -> None:
    """§6.2: if the connection never had more than W bytes in flight
    while the congestion and offered windows would have permitted at
    least a full segment more, infer a sender window of W."""
    large_delays = [c for c in analysis.classifications
                    if c.response_delay is not None
                    and c.response_delay > 0.1]
    if not large_delays:
        return
    window = facts.max_in_flight
    if window <= 0:
        return
    # The window binds only if the trace shows delays consistent with
    # waiting for acknowledgements at exactly the in-flight ceiling.
    at_ceiling = sum(1 for c in large_delays
                     if c.flight >= window - facts.negotiated_mss)
    if at_ceiling >= max(2, len(large_delays) // 2):
        analysis.inferred_sender_window = window
        analysis.notes.append(
            f"inferred sender window of {window} bytes "
            f"({at_ceiling} delayed sends at the in-flight ceiling)")

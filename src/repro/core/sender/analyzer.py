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
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from repro.packets import FlowKey
from repro.tcp.params import QuenchResponse, TCPBehavior
from repro.trace.columns import RecordRows
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
#: The shortest gap since the last send at which ``_quench_inference``
#: can start a quench trial: it requires a gap of at least
#: ``max(LULL_S, 0.5 * srtt)``.
LULL_S = 0.05


class Classification(NamedTuple):
    """The analyzer's explanation of one observed data packet.

    A named tuple rather than a frozen dataclass: equally immutable
    and ``__dict__``-free, but about three times cheaper to build, and
    every replay step builds one.  It names its packet by position in
    pass one's ``data`` timeline; the ``TraceRecord`` is built only
    when :attr:`record` is read.
    """

    #: Pass one's data timeline (``SenderPassOne.data``).
    data: Sequence[TraceRecord]
    #: The packet's index in ``data``.
    position: int
    kind: str                        # new/goback/fast_retransmit/timeout/
    #                                  flight/quirk/filter_gap/violation
    response_delay: float | None = None
    note: str = ""
    #: Bytes in flight (relative to the model's snd_una) after this
    #: send — used by the §6.2 sender-window inference.
    flight: int = 0

    @property
    def record(self) -> TraceRecord:
        return self.data[self.position]


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
    #: Primary-flow data packets, in trace order (records built when
    #: read: a ``RecordRows`` view in production).
    data: Sequence[TraceRecord]
    #: Reverse-direction acks at/after the SYN-ack, in trace order.
    acks: Sequence[TraceRecord]
    #: ``data`` as plain ``(timestamp, seq, seq_end, payload)`` rows,
    #: index for index: what every replay step reads.
    data_rows: list[tuple[float, int, int, int]]
    #: ``acks`` as plain ``(timestamp, ack, window, payload)`` rows.
    ack_rows: list[tuple[float, int, int, int]]


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
    #: True once the replay reached a step where it tries a quench
    #: inference after a gap of at least :data:`LULL_S`; unset, no
    #: quench trial can have started, whatever the candidate.
    lull_reached: bool = False

    @property
    def response_delays(self) -> list[float]:
        return [c.response_delay for c in self.classifications
                if c.response_delay is not None and c.response_delay >= 0]

    @property
    def min_response_delay(self) -> float:
        delays = self.response_delays
        return min(delays) if delays else 0.0

    @cached_property
    def mean_response_delay(self) -> float:
        """Computed once, when :func:`analyze_sender` finishes the
        replay; relabelled copies of a shared replay carry it."""
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


def _handshake_mss(syn: TraceRecord, synack: TraceRecord
                   ) -> tuple[int, bool, int]:
    """The MSS the sender offered, whether the peer offered one, and
    the negotiated MSS (536 stands in for an absent option)."""
    offered_mss = syn.mss_option if syn.mss_option is not None else 536
    peer_offered = synack.mss_option is not None
    negotiated = min(offered_mss,
                     synack.mss_option if peer_offered else 536)
    if negotiated <= 0:
        # Every candidate's window arithmetic divides by the MSS.
        raise TraceUnusable(f"the handshake negotiated an MSS of "
                            f"{negotiated}")
    return offered_mss, peer_offered, negotiated


def extract_pass_one(trace: Trace) -> SenderPassOne:
    """Pass one: facts plus the data/ack timelines, as column kernels.

    Candidate-independent, so identification computes this once and
    replays every catalog entry against the same result.

    Sequence arithmetic runs on int64 values unwrapped around the ISS
    (``columns.rel``), where running maxima reproduce the modular
    ``seq_gt`` chain exactly for any trace spanning < 2**31 bytes of
    sequence space — the same window the modular helpers assume.
    """
    columns = trace.columns()
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
    syn = columns.record(syn_i)
    synack = columns.record(synack_i)

    offered_mss, peer_offered, negotiated = _handshake_mss(syn, synack)
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
    return SenderPassOne(
        facts=facts, data=RecordRows(columns, data_idx.tolist()),
        acks=RecordRows(columns, ack_idx.tolist()),
        data_rows=list(zip(columns.timestamp[data_idx].tolist(),
                           columns.seq[data_idx].tolist(),
                           columns.seq_end[data_idx].tolist(),
                           columns.payload[data_idx].tolist())),
        ack_rows=list(zip(columns.timestamp[ack_idx].tolist(),
                          columns.ack[ack_idx].tolist(),
                          columns.window[ack_idx].tolist(),
                          columns.payload[ack_idx].tolist())))


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
    analysis.mean_response_delay  # cache it: the classifications are final
    return analysis


# ---------------------------------------------------------------------------
# Pass two: the replay.
# ---------------------------------------------------------------------------


class _Replay:
    """Working state for one replay pass.

    Each step reads pass one's rows, not its records: a data row is
    ``(timestamp, seq, seq_end, payload)`` and an ack row ``(timestamp,
    ack, window, payload)``.  A step's :class:`Classification` names
    its packet by position; no record is read.  Sequence tests in a
    step use the inline residue forms that ``repro.units`` documents.
    """

    def __init__(self, pass_one: SenderPassOne, behavior: TCPBehavior,
                 analysis: SenderAnalysis):
        facts = pass_one.facts
        self.behavior = behavior
        self.analysis = analysis
        self.model = SenderModel(
            behavior, facts.negotiated_mss, facts.iss, facts.offered_mss,
            facts.peer_offered_mss_option, facts.synack_time,
            facts.initial_offered_window)
        # Pass one's ack rows, shared read-only by every replay.
        self.acks = pass_one.ack_rows
        self.data = pass_one.data
        self.next_ack = 0
        self.flight_resend_next: int | None = None
        self.last_send_time = facts.synack_time

    # -- ack feeding -------------------------------------------------------

    def feed_ack(self) -> None:
        row = self.acks[self.next_ack]
        self.next_ack += 1
        self.model.process_ack(*row)

    def acks_available_by(self, time: float) -> bool:
        return (self.next_ack < len(self.acks)
                and self.acks[self.next_ack][0] <= time)

    # -- explanation -------------------------------------------------------

    def try_explain(self, index: int, row: tuple[float, int, int, int]
                    ) -> Classification | None:
        data = self.data
        time, seq, end, payload = row
        model = self.model
        snd_nxt = model.snd_nxt

        if seq == snd_nxt:
            if payload == 1 and model.offered_window == 0:
                # A zero-window probe from the persist timer: one byte
                # sent despite (because of) the closed window.
                return Classification(data, index, "window_probe")
            ledger = model.ledger
            past_high = (end - ledger.current_high) % 2**32
            if past_high and past_high < 2**31:
                return None  # beyond the window as modelled so far
            liberated = ledger.permissible_since(end)
            kind = ("new" if (seq - model.highest_sent) % 2**32 < 2**31
                    else "goback")
            flight = (end - model.snd_una) % 2**32
            if flight >= 2**31:
                flight -= 2**32
            return Classification(
                data, index, kind,
                time - liberated if liberated is not None else None,
                "", flight)
        if (seq - snd_nxt) % 2**32 < 2**31:
            # seq > snd_nxt: the sender cannot skip sequence space.
            # Leave unexplained for now: an unconsumed (or resequenced)
            # ack may advance snd_nxt to here; only once the ack supply
            # is exhausted does the replay conclude the filter dropped
            # records.
            return None

        # seq < snd_nxt: an out-of-band retransmission.
        if self.flight_resend_next is not None and seq == self.flight_resend_next:
            return Classification(data, index, "flight")
        if seq != model.snd_una:
            # A retransmission of something other than the oldest
            # outstanding data: only flight-style senders do this, and
            # their resends were matched against flight_resend_next.
            return None
        behavior = self.behavior
        if (behavior.fast_retransmit and model.expected_fast_rexmit
                and time - model.expected_fast_rexmit_time <= QUIRK_WINDOW):
            return Classification(data, index, "fast_retransmit")
        if (behavior.dup_ack_triggers_flight_retransmit
                and model.dupacks >= 1):
            return Classification(data, index, "flight_start",
                                  note="dup-ack-triggered flight burst")
        if (behavior.rexmit_packet_after_ack
                and (model.rexmit_epoch or model.quirk_expected)
                and time - model.last_advance_time <= QUIRK_WINDOW):
            return Classification(data, index, "quirk",
                                  note="retransmit-after-ack quirk")
        elapsed = time - model.timer_base
        if elapsed >= TIMEOUT_TOLERANCE * model.estimated_rto():
            kind = ("flight_start" if behavior.retransmit_whole_flight
                    else "timeout")
            return Classification(data, index, kind,
                                  note=f"after {elapsed * 1e3:.0f} ms, "
                                  f"RTO est {model.estimated_rto() * 1e3:.0f} ms")
        return None

    def apply(self, classification: Classification,
              row: tuple[float, int, int, int]) -> None:
        model = self.model
        kind = classification.kind
        time, seq, end, _ = row
        if kind == "new" or kind == "goback":
            model.observe_send(time, seq, end, kind == "goback")
            self.flight_resend_next = None
        elif kind == "fast_retransmit":
            model.expected_fast_rexmit = False
            model.observe_send(time, seq, end, True)
        elif kind == "timeout":
            model.apply_timeout(time)
            model.observe_send(time, seq, end, True)
        elif kind == "flight_start":
            if time - model.timer_base >= (
                    TIMEOUT_TOLERANCE * model.estimated_rto()):
                model.apply_timeout(time)
            model.observe_send(time, seq, end, True)
            self.flight_resend_next = end
        elif kind == "flight":
            model.mark_retransmitted(seq)
            self.flight_resend_next = end
            if seq_ge(end, model.snd_nxt):
                self.flight_resend_next = None
        elif kind == "quirk":
            model.mark_retransmitted(seq)
            model.quirk_expected = False
        elif kind == "window_probe":
            pass   # the probe byte is re-sent as normal data later
        elif kind == "filter_gap":
            self.analysis.filter_gaps.append(classification)
            model.force_observe(time, end)
        else:  # violation
            model.force_observe(time, end)
        self.last_send_time = time


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
    data = pass_one.data
    rows = pass_one.data_rows
    n_rows = len(rows)
    # Early-abort bound (branch-and-bound over candidates): once the
    # violation count alone — worth 10 score points apiece — provably
    # pushes this candidate's fit score past ``abort_score`` AND past
    # the category-"incorrect" floor, finishing the replay cannot
    # change the identification outcome.  Checked only outside quench
    # trials, because a trial rollback can retract violations.  The
    # engine's replay sharing (``reuses_replay``) mirrors this test.
    incorrect_floor = max(1, n_rows // 50)

    index = 0
    trial: _QuenchTrial | None = None
    no_quench_at: set[int] = set()   # indices where the hypothesis failed
    while index < n_rows:
        row = rows[index]
        time = row[0]
        model = state.model
        # Feed acks lazily: only as needed, never past the packet's time.
        classification = state.try_explain(index, row)
        while classification is None and state.acks_available_by(time):
            state.feed_ack()
            classification = state.try_explain(index, row)

        wants_quench = (
            classification is not None and classification.kind == "new"
            and classification.response_delay is not None
            and classification.response_delay > QUENCH_DELAY_THRESHOLD)
        if (wants_quench or classification is None) \
                and trial is None and index not in no_quench_at:
            # The packet is permitted but long overdue (or inexplicable):
            # hypothesize an unseen source quench (§6.2), subject to the
            # next packets replaying consistently.  The trial snapshots
            # the replay state only if the hypothesis is taken.  Below
            # LULL_S of quiet no candidate infers one; the flag is set
            # before the candidate is consulted, so it depends on the
            # replay state alone (the engine's lull-free keys rely on
            # this: see ``IdentificationEngine.identify_sender``).
            if time - state.last_send_time >= LULL_S:
                analysis.lull_reached = True
                quenched = _quench_inference(state, row, index)
                if quenched is not None:
                    classification, trial = quenched
        if classification is None:
            classification = _lookahead(state, index, row)
        if classification is None and seq_gt(row[1], model.snd_nxt):
            classification = Classification(
                data, index, "filter_gap",
                note=f"gap of {seq_diff(row[1], model.snd_nxt)} bytes "
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
                data, index, "violation",
                note=f"model allowed up to {model.allowed_high()}, "
                f"packet ends {row[2]}; state {model.snapshot()}")
            analysis.violations.append(classification)

        state.apply(classification, row)
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
                f"replay aborted after {index} of {n_rows} data "
                f"packets: {len(analysis.violations)} violations already "
                f"exceed the best completed fit")
            return
    # Acks left over after the last data packet are never fed: nothing
    # after the replay reads the model.


def _lookahead(state: _Replay, index: int,
               row: tuple[float, int, int, int]) -> Classification | None:
    """Resequencing detection (§3.1.3): can an ack recorded just
    *after* this packet explain it?"""
    fed = 0
    acks = state.acks
    while (state.next_ack < len(acks) and fed < RESEQUENCING_MAX_ACKS
           and acks[state.next_ack][0] <= row[0] + RESEQUENCING_LOOKAHEAD):
        state.feed_ack()
        fed += 1
        classification = state.try_explain(index, row)
        if classification is not None:
            clue = Classification(
                state.data, index, classification.kind,
                response_delay=classification.response_delay,
                note="explained only by an ack recorded after it: "
                "packet filter resequencing")
            state.analysis.resequencing_clues.append(clue)
            return clue
    return None


def _quench_inference(state: _Replay, row: tuple[float, int, int, int],
                      index: int
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
    time, seq, end, _ = row
    model = state.model
    # A quench collapses the window to one segment, so the sender goes
    # *quiet* for of order a round trip.  A merely buffer-limited
    # sender (§6.2 sender window) keeps transmitting in step with the
    # ack clock; without a genuine lull, do not infer a quench.  (The
    # engine's ``replay_conditions`` relies on this test: a trace with
    # no gap of 0.05 s between sends never starts a trial.)
    srtt = getattr(model.estimator, "srtt", None) or 0.1
    if time - state.last_send_time < max(LULL_S, 0.5 * srtt):
        return None
    # The situation: every ack up to now is consumed, the model's window
    # would have permitted this send long ago, and the delay is large.
    if seq_gt(end, model.allowed_high()):
        return None
    liberated = model.ledger.permissible_since(end)
    if liberated is None:
        return None
    delay = time - liberated
    if delay < QUENCH_DELAY_THRESHOLD:
        return None
    if seq != model.snd_nxt:
        return None
    # Consistent with a quench between the liberating ack and this
    # packet: apply the stack's quench response at the liberation time
    # so subsequent replay tracks the collapsed window.  Snapshot first:
    # nothing above has changed the replay state.
    trial = _QuenchTrial(state, index)
    model.apply_quench(liberated)
    state.analysis.inferred_quenches.append(liberated)
    if seq_le(end, model.allowed_high()):
        note = "consistent with unseen source quench"
    else:
        # Even one segment would not fit: retract nothing, but report
        # the packet as in-window anyway (the quench window starts at
        # snd_una).
        note = "source quench inferred; window rebuilding"
    return Classification(state.data, index, "new", response_delay=None,
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

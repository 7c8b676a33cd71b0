"""The analyzer's mirror of a candidate sender's window state.

:class:`SenderModel` replays a candidate implementation's congestion
state from *observed trace events* — acks as recorded by the filter,
plus the analyzer's classifications of retransmissions (timeout, fast
retransmit, ...).  It shares the window-arithmetic primitives of
:mod:`repro.tcp.params` with the simulated stacks, so each documented
idiosyncrasy is honored identically on both sides — which is exactly
the property tcpanaly needed: "understanding exactly how the
particular TCP implementation manages its congestion window" (§3.1.1).

:class:`WindowLedger` tracks *when each sequence number first became
permissible to send* — the substrate for data liberations (§6.1):
matching an observed data packet against the ledger yields its
liberating time, and thus the TCP's response delay; a packet beyond
everything the ledger permits is a window violation.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from repro.tcp import params as P
from repro.tcp.params import TCPBehavior
from repro.tcp.sender import MAX_WINDOW
from repro.tcp.timers import make_estimator
from repro.trace.record import TraceRecord
from repro.units import seq_diff, seq_ge, seq_gt, seq_le, seq_lt


@dataclass(frozen=True, slots=True)
class Liberation:
    """A window advance: at ``time``, sending up to ``high`` became
    permissible."""

    time: float
    high: int


class WindowLedger:
    """Time-indexed record of how far the sending window has opened.

    Entries are (time, high) with strictly increasing ``high``.  A
    window *shrink* (timeout, fast retransmit cut) truncates entries
    above the new limit: sequence numbers above it must wait for a
    future re-advance to become permissible again.
    """

    def __init__(self, initial_time: float, initial_high: int):
        self._entries: list[Liberation] = [Liberation(initial_time,
                                                      initial_high)]
        #: ``seq_diff(entry.high, entries[0].high)`` for each entry, in
        #: step with ``_entries``: the keys permissible_since bisects.
        self._offsets: list[int] = [0]

    def clone(self) -> "WindowLedger":
        """An independent copy sharing the (immutable) entries.

        Entry objects are frozen and the ledger only ever replaces or
        appends them (and their offsets are ints), so shallow list
        copies give full isolation at a fraction of a deep copy's
        cost.  This runs each time the analyzer commits to a quench
        hypothesis, which snapshots the whole model first.
        """
        dup = WindowLedger.__new__(WindowLedger)
        dup._entries = self._entries[:]
        dup._offsets = self._offsets[:]
        return dup

    @property
    def current_high(self) -> int:
        return self._entries[-1].high

    def advance(self, time: float, high: int) -> None:
        """The window now permits sending up to *high*."""
        if seq_gt(high, self.current_high):
            self._entries.append(Liberation(time, high))
            self._offsets.append(seq_diff(high, self._entries[0].high))

    def shrink(self, high: int) -> None:
        """The window collapsed: only sequence numbers up to *high*
        remain permissible.

        Entries above *high* are removed, but the new boundary itself
        stays permissible — since the moment the (now removed) advance
        first crossed it.
        """
        entries = self._entries
        offsets = self._offsets
        crossed_at: float | None = None
        while len(entries) > 1 and seq_gt(entries[-1].high, high):
            crossed_at = entries.pop().time
            offsets.pop()
        if seq_gt(entries[0].high, high):
            entries[0] = Liberation(entries[0].time, high)
            # Every offset is measured from the first entry's high.
            self._offsets = [seq_diff(entry.high, high) for entry in entries]
        elif crossed_at is not None and seq_lt(self.current_high, high):
            entries.append(Liberation(crossed_at, high))
            offsets.append(seq_diff(high, entries[0].high))

    def permissible_since(self, seq_end: int) -> float | None:
        """When sending a packet ending at *seq_end* first became
        permissible, or None if it is not permitted at all.

        Entries are strictly increasing in sequence order, so the
        first entry whose ``high`` covers *seq_end* is found by
        bisecting the cached offsets from the oldest entry — the
        ledger grows with the connection, and a linear scan here turns
        long replays quadratic.  ``bisect_left`` tests the same
        ``offset >= target`` predicate at the same probes as a
        hand-written binary search would, so it returns the same index
        even for a ledger whose offsets are not sorted.
        """
        entries = self._entries
        index = bisect_left(self._offsets,
                            seq_diff(seq_end, entries[0].high))
        if index == len(entries):
            return None
        return entries[index].time


class SenderModel:
    """Candidate-implementation state machine driven by trace events."""

    def __init__(self, behavior: TCPBehavior, mss: int, iss: int,
                 offered_mss: int, peer_offered_mss_option: bool,
                 start_time: float, initial_offered_window: int,
                 sender_window: int | None = None):
        self.behavior = behavior
        self.mss = mss
        self.cwnd_mss = P.effective_mss(behavior, mss)
        self.iss = iss
        self.snd_una = (iss + 1) % 2**32
        self.highest_sent = self.snd_una   # seq_end of furthest data seen
        #: Where the next in-window send is expected to start; rolls
        #: back to snd_una on timeout / Tahoe collapse (go-back-N).
        self.snd_nxt = self.snd_una
        self.cwnd = P.initial_cwnd(behavior, mss, offered_mss,
                                   peer_offered_mss_option)
        self.ssthresh = P.initial_ssthresh(behavior, mss,
                                           peer_offered_mss_option)
        self.offered_window = initial_offered_window
        self.sender_window = sender_window
        self.dupacks = 0
        self.in_fast_recovery = False
        self.recover_point = self.snd_una
        #: Set when dup acks reach the threshold: the analyzer should
        #: see a fast retransmission of snd_una *promptly* (within the
        #: kernel's response delay of the third dup) — a stale
        #: expectation must not absorb some later retransmission.
        self.expected_fast_rexmit = False
        self.expected_fast_rexmit_time = float("-inf")
        #: Set when an advancing ack arrives during a retransmission
        #: episode on a rexmit_packet_after_ack stack (Solaris, §8.6):
        #: the sender fires its quirk *before* noticing the episode is
        #: over, so the analyzer should accept one quirk send even when
        #: this very ack cleared the last retransmitted range.
        self.quirk_expected = False
        self.estimator = make_estimator(behavior)
        #: When the retransmission timer was (in the model's belief)
        #: last restarted — the reference point for timeout plausibility.
        self.timer_base = start_time
        self.rexmit_epoch = False
        self._rexmitted_starts: set[int] = set()
        #: First-transmission times by segment start, for RTT mirroring.
        self._first_sent: dict[int, float] = {}
        self._timing_seq: int | None = None
        self._timing_start = 0.0
        self.ledger = WindowLedger(start_time, self._window_limit())
        self.last_ack_time = start_time
        self.last_advance_time = start_time

    def clone(self) -> "SenderModel":
        """A fully independent snapshot of the model state.

        Scalars are copied wholesale; the two containers (the
        retransmitted-starts set and the first-send map, which hold
        only ints and floats) get shallow copies, and the window
        ledger and RTO estimator their own ``clone()``.  The analyzer
        snapshots the model each time it commits to a quench
        hypothesis, so this must stay cheap: a ``copy.deepcopy`` here
        once dominated the entire identification run.
        """
        dup = SenderModel.__new__(SenderModel)
        dup.__dict__.update(self.__dict__)
        dup._rexmitted_starts = set(self._rexmitted_starts)
        dup._first_sent = dict(self._first_sent)
        dup.ledger = self.ledger.clone()
        dup.estimator = self.estimator.clone()
        return dup

    # -- window geometry --------------------------------------------------

    def _window_limit(self) -> int:
        window = min(self.cwnd, self.offered_window)
        if self.sender_window is not None:
            window = min(window, self.sender_window)
        return (self.snd_una + window) % 2**32

    def _sync_ledger(self, time: float) -> None:
        limit = self._window_limit()
        if seq_lt(limit, self.ledger.current_high):
            self.ledger.shrink(limit)
        else:
            self.ledger.advance(time, limit)

    def allowed_high(self) -> int:
        return self.ledger.current_high

    def usable_window(self) -> int:
        return max(seq_diff(self._window_limit(), self.highest_sent), 0)

    def estimated_rto(self) -> float:
        return self.estimator.rto()

    # -- trace-event handlers ----------------------------------------------

    def process_ack(self, record: TraceRecord) -> str:
        """Feed one observed ack to the model.

        Returns ``"advance"``, ``"dup"``, or ``"other"`` describing how
        the model interpreted it.
        """
        time = record.timestamp
        self.last_ack_time = time
        ack = record.ack
        window_changed = record.window != self.offered_window
        self.offered_window = record.window

        if seq_gt(ack, self.snd_una) and seq_le(ack, self.highest_sent):
            self._advance(ack, time)
            self._sync_ledger(time)
            return "advance"
        if (ack == self.snd_una and record.payload == 0 and not window_changed
                and seq_lt(self.snd_una, self.highest_sent)):
            self._duplicate(time)
            self._sync_ledger(time)
            return "dup"
        self._sync_ledger(time)
        return "other"

    def _advance(self, ack: int, time: float) -> None:
        behavior = self.behavior
        acked_rexmit = False
        if self._rexmitted_starts:
            acked_rexmit = any(seq_lt(s, ack)
                               for s in self._rexmitted_starts)
            self._rexmitted_starts = {s for s in self._rexmitted_starts
                                      if seq_ge(s, ack)}
        if self._timing_seq is not None and seq_ge(ack, self._timing_seq):
            self.estimator.sample(time - self._timing_start,
                                  for_retransmitted=False)
            self._timing_seq = None
        if acked_rexmit:
            self.estimator.sample(0.0, for_retransmitted=True)

        exiting = False
        if self.in_fast_recovery:
            exiting = True
            self.in_fast_recovery = False
            self._deflate(ack)
        self.dupacks = 0
        self.expected_fast_rexmit = False
        self.snd_una = ack
        if seq_lt(self.snd_nxt, ack):
            self.snd_nxt = ack
        self.estimator.reset_backoff()
        if not exiting:
            self.cwnd = P.increase_cwnd(behavior, self.cwnd, self.ssthresh,
                                        self.cwnd_mss, MAX_WINDOW)
        # The Solaris quirk is evaluated by the real sender before it
        # notices the retransmission episode ended with this ack.
        self.quirk_expected = (behavior.rexmit_packet_after_ack
                               and self.rexmit_epoch
                               and seq_lt(ack, self.highest_sent))
        if not self._rexmitted_starts:
            self.rexmit_epoch = False
        self.timer_base = time
        self.last_advance_time = time

    def _deflate(self, ack: int) -> None:
        behavior = self.behavior
        if behavior.header_prediction_bug and ack == self.highest_sent:
            return
        if behavior.fencepost_bug:
            if self.cwnd > self.ssthresh + self.cwnd_mss:
                self.cwnd = self.ssthresh
            return
        if self.cwnd > self.ssthresh:
            self.cwnd = self.ssthresh

    def _duplicate(self, time: float) -> None:
        behavior = self.behavior
        self.dupacks += 1
        if behavior.dup_ack_triggers_flight_retransmit:
            return
        if behavior.dupack_updates_cwnd and not self.in_fast_recovery:
            self.cwnd = P.increase_cwnd(behavior, self.cwnd, self.ssthresh,
                                        self.cwnd_mss, MAX_WINDOW)
        if not behavior.fast_retransmit:
            return
        if self.dupacks == behavior.dup_ack_threshold:
            self.expected_fast_rexmit = True
            self.expected_fast_rexmit_time = time
            self.ssthresh = P.cut_ssthresh(behavior, self.cwnd,
                                           self.offered_window, self.cwnd_mss)
            use_recovery = (behavior.fast_recovery
                            and not behavior.fast_recovery_disabled_by_bug)
            if use_recovery:
                self.in_fast_recovery = True
                self.recover_point = self.highest_sent
                self.cwnd = (self.ssthresh
                             + behavior.dup_ack_threshold * self.cwnd_mss)
            else:
                # Tahoe: collapse and go back to the loss point.
                self.cwnd = self.cwnd_mss
                self.snd_nxt = self.snd_una
            self.mark_retransmitted(self.snd_una)
            self.timer_base = time
        elif (self.dupacks > behavior.dup_ack_threshold
              and self.in_fast_recovery):
            self.cwnd += self.cwnd_mss

    # -- classification side-effects ----------------------------------------

    def observe_send(self, record: TraceRecord,
                     is_retransmission: bool) -> None:
        """Account for an observed data transmission."""
        time = record.timestamp
        seq, end = record.seq, record.seq_end
        if is_retransmission:
            self.mark_retransmitted(seq)
            if (self._timing_seq is not None
                    and seq_lt(seq, self._timing_seq)):
                self._timing_seq = None
        else:
            if seq not in self._first_sent:
                self._first_sent[seq] = time
            if self._timing_seq is None:
                self._timing_seq = end
                self._timing_start = time
            if seq_gt(end, self.highest_sent):
                self.highest_sent = end
        if seq == self.snd_nxt and seq_gt(end, self.snd_nxt):
            self.snd_nxt = end

    def mark_retransmitted(self, seq: int) -> None:
        self._rexmitted_starts.add(seq)
        self.rexmit_epoch = True

    def apply_timeout(self, time: float) -> None:
        """The analyzer concluded the TCP's retransmission timer fired."""
        behavior = self.behavior
        if not behavior.retransmit_whole_flight:
            self.ssthresh = P.cut_ssthresh(behavior, self.cwnd,
                                           self.offered_window, self.cwnd_mss)
            self.cwnd = self.cwnd_mss
            self.in_fast_recovery = False
            if behavior.clear_dupacks_on_timeout:
                self.dupacks = 0
                self.expected_fast_rexmit = False
            self.snd_nxt = self.snd_una
        self.estimator.back_off()
        self.timer_base = time
        self._timing_seq = None
        self._sync_ledger(time)

    def apply_quench(self, time: float) -> None:
        """The analyzer inferred an unseen ICMP source quench (§6.2)."""
        behavior = self.behavior
        if behavior.quench_response is P.QuenchResponse.DECREMENT_CWND:
            self.cwnd = max(self.cwnd - self.cwnd_mss, self.cwnd_mss)
        elif behavior.quench_response is P.QuenchResponse.SLOW_START_HALVE_SSTHRESH:
            self.ssthresh = P.cut_ssthresh(behavior, self.cwnd,
                                           self.offered_window, self.cwnd_mss)
            self.cwnd = self.cwnd_mss
        elif behavior.quench_response is P.QuenchResponse.SLOW_START:
            self.cwnd = self.cwnd_mss
        self._sync_ledger(time)

    def force_observe(self, record: TraceRecord) -> None:
        """Resynchronize after an unexplained packet: accept it as sent
        so one anomaly does not cascade into spurious violations."""
        if seq_gt(record.seq_end, self.highest_sent):
            self.highest_sent = record.seq_end
        if seq_gt(record.seq_end, self.snd_nxt):
            self.snd_nxt = record.seq_end
        self.ledger.advance(record.timestamp,
                            max(self.ledger.current_high, record.seq_end,
                                key=lambda s: seq_diff(s, self.snd_una)))

    def first_sent_time(self, seq: int) -> float | None:
        return self._first_sent.get(seq)

    def snapshot(self) -> dict:
        """A summary of current state (for reports and tests)."""
        return {
            "snd_una": self.snd_una,
            "highest_sent": self.highest_sent,
            "cwnd": self.cwnd,
            "ssthresh": self.ssthresh,
            "dupacks": self.dupacks,
            "in_fast_recovery": self.in_fast_recovery,
            "allowed_high": self.allowed_high(),
        }

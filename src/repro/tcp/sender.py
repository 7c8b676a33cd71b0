"""The parameterized TCP sender.

One engine implements every sending stack in the catalog; the
:class:`~repro.tcp.params.TCPBehavior` fields select among the
documented behaviors (generic Tahoe/Reno, the Reno-derivative bug
flags, Linux 1.0's whole-flight retransmissions, Solaris's collapsing
RTO, ...).  The goal is a sender whose *packet trace* is faithful to
the paper's descriptions — timers, window arithmetic, and
retransmission choices all matter; internal bookkeeping that never
reaches the wire does not.
"""

from __future__ import annotations

from repro.netsim.engine import Engine, Timer
from repro.netsim.node import Host
from repro.packets import (
    ACK,
    FIN,
    PSH,
    RST,
    SYN,
    Endpoint,
    FlowKey,
    Segment,
    SourceQuench,
)
from repro.tcp import params as P
from repro.tcp.params import MAX_WINDOW, QuenchResponse, TCPBehavior
from repro.tcp.timers import make_estimator
from repro.units import seq_add, seq_diff, seq_ge, seq_gt, seq_le, seq_lt

#: Default MSS assumed when the peer's SYN-ack carries no MSS option.
DEFAULT_PEER_MSS = 536

#: How many times to retry the initial SYN before giving up.
MAX_SYN_RETRIES = 6


class TCPSender:
    """Active-opening TCP endpoint performing a unidirectional bulk send.

    Drive it with :meth:`open`; it runs the connection to completion
    (SYN handshake, data transfer, FIN) against whatever peer the
    network delivers.  All externally visible behavior is governed by
    ``behavior``.
    """

    def __init__(self, engine: Engine, host: Host, behavior: TCPBehavior,
                 local: Endpoint, remote: Endpoint, data_size: int,
                 mss: int = 512, iss: int = 0,
                 sender_window: int | None = None):
        self.engine = engine
        self.host = host
        self.behavior = behavior
        self.local = local
        self.remote = remote
        self.data_size = data_size
        self.offered_mss = mss
        self.iss = iss
        #: Socket-buffer limit on unacknowledged data (§6.2 "sender
        #: window"); None means the buffer never binds.
        self.sender_window = sender_window

        self.state = "CLOSED"
        self.snd_una = iss
        self.snd_nxt = iss
        self.snd_max = iss            # highest sequence ever sent
        self.data_start = seq_add(iss, 1)
        self.data_end = seq_add(self.data_start, data_size)
        self.fin_seq: int | None = None

        self.mss = mss                # negotiated after handshake
        self.cwnd_mss = mss           # MSS used in window arithmetic
        self.cwnd = mss
        self.ssthresh = P.HUGE_WINDOW
        self.offered_window = mss     # until the first window advertisement
        self.dupacks = 0
        self.in_fast_recovery = False
        self.recover_point = iss

        self.estimator = make_estimator(behavior)
        self._rexmit_timer: Timer | None = None
        self._persist_timer: Timer | None = None
        self._persist_interval = behavior.persist_interval
        self._syn_retries = 0
        self._consecutive_rexmits = 0

        # Karn-style RTT timing: one segment timed at a time.
        self._timing_seq: int | None = None
        self._timing_start = 0.0

        # Sequence starts retransmitted since the last new ack, used to
        # recognize "ack for a retransmitted packet" (Solaris collapse,
        # and Karn sample rejection).
        self._rexmitted_starts: set[int] = set()
        self._rexmit_epoch = False    # a retransmission happened since last new ack

        # Statistics for scenarios/benchmarks.
        self.stats_data_packets = 0
        self.stats_retransmissions = 0
        self.stats_timeouts = 0
        self.stats_fast_retransmits = 0
        self.stats_quenches_seen = 0
        self.stats_window_probes = 0
        self.aborted = False
        self.finish_time: float | None = None

        self.flow = FlowKey(local, remote)

    # -- connection lifecycle ------------------------------------------------

    def open(self) -> None:
        """Begin the connection: send the initial SYN."""
        if self.state != "CLOSED":
            raise RuntimeError("connection already opened")
        self.state = "SYN_SENT"
        self.host.register(self.flow, self)
        self._send_syn()

    def _send_syn(self) -> None:
        syn = Segment(src=self.local, dst=self.remote, seq=self.iss, ack=0,
                      flags=SYN, window=MAX_WINDOW,
                      mss_option=self.offered_mss)
        self.host.send(syn)
        self.snd_nxt = seq_add(self.iss, 1)
        self.snd_max = self.snd_nxt
        # The SYN uses its own timer (the paper notes even Solaris's
        # broken data timer does not govern the SYN) — though [St96]
        # found clients whose SYN timer fails to back off at all.
        self._restart_rexmit_timer(
            self.behavior.initial_syn_timeout
            * (self.behavior.syn_backoff_factor ** self._syn_retries))

    @property
    def done(self) -> bool:
        return self.state == "CLOSED_DONE"

    # -- segment arrival -----------------------------------------------------

    def receive(self, segment: Segment) -> None:
        """Host demux delivers an arriving segment for our flow."""
        if self.state == "SYN_SENT":
            self._handle_synack(segment)
        elif self.state in ("ESTABLISHED", "FIN_SENT"):
            if segment.has_ack:
                self.engine.schedule(self.behavior.response_delay,
                                     lambda s=segment: self._process_ack(s))

    def receive_quench(self, quench: SourceQuench) -> None:
        """ICMP source quench: slow down, per the implementation (§6.2)."""
        if self.state not in ("ESTABLISHED", "FIN_SENT"):
            return
        self.stats_quenches_seen += 1
        response = self.behavior.quench_response
        if response is QuenchResponse.IGNORE:
            return
        if response is QuenchResponse.DECREMENT_CWND:
            self.cwnd = max(self.cwnd - self.cwnd_mss, self.cwnd_mss)
        elif response is QuenchResponse.SLOW_START_HALVE_SSTHRESH:
            self.ssthresh = P.cut_ssthresh(self.behavior, self.cwnd,
                                           self.offered_window, self.cwnd_mss)
            self.cwnd = self.cwnd_mss
        else:  # SLOW_START
            self.cwnd = self.cwnd_mss

    def _handle_synack(self, segment: Segment) -> None:
        if not (segment.is_syn and segment.has_ack):
            return
        if segment.ack != self.snd_nxt:
            return
        peer_offered = segment.mss_option is not None
        if peer_offered:
            self.mss = min(self.offered_mss, segment.mss_option)
        else:
            self.mss = min(self.offered_mss, DEFAULT_PEER_MSS)
        self.cwnd_mss = P.effective_mss(self.behavior, self.mss)
        self.cwnd = P.initial_cwnd(self.behavior, self.mss,
                                   self.offered_mss, peer_offered)
        self.ssthresh = P.initial_ssthresh(self.behavior, self.mss,
                                           peer_offered)
        self.offered_window = segment.window
        self.snd_una = self.snd_nxt
        self.irs = segment.seq
        self.state = "ESTABLISHED"
        self._cancel_rexmit_timer()
        self.estimator.reset_backoff()
        self.engine.schedule(self.behavior.response_delay, self._ack_synack)

    def _ack_synack(self) -> None:
        ack = Segment(src=self.local, dst=self.remote, seq=self.snd_nxt,
                      ack=seq_add(self.irs, 1), flags=ACK, window=MAX_WINDOW)
        self.host.send(ack)
        self._try_send()

    # -- output routine ------------------------------------------------------

    def _usable_window(self) -> int:
        window = min(self.cwnd, self.offered_window)
        if self.sender_window is not None:
            window = min(window, self.sender_window)
        in_flight = seq_diff(self.snd_nxt, self.snd_una)
        return max(window - in_flight, 0)

    def _try_send(self) -> None:
        """Send whatever the windows currently permit."""
        if self.state not in ("ESTABLISHED", "FIN_SENT"):
            return
        while seq_lt(self.snd_nxt, self.data_end):
            remaining = seq_diff(self.data_end, self.snd_nxt)
            size = min(self.mss, remaining)
            usable = self._usable_window()
            if usable < size:
                break
            self._transmit_data(self.snd_nxt, size)
            self.snd_nxt = seq_add(self.snd_nxt, size)
            if seq_gt(self.snd_nxt, self.snd_max):
                self.snd_max = self.snd_nxt
        if (self.state == "ESTABLISHED" and self.snd_nxt == self.data_end
                and self.snd_max == self.data_end):
            self._send_fin()
        if self._rexmit_timer is None and seq_lt(self.snd_una, self.snd_max):
            self._restart_rexmit_timer()
        # Zero-window handling: data remains, nothing in flight, and
        # the peer's window is shut — arm the persist timer so a lost
        # window update cannot deadlock the connection ([CL94]).
        if (self.state == "ESTABLISHED"
                and seq_lt(self.snd_nxt, self.data_end)
                and self.snd_una == self.snd_nxt
                and self.offered_window == 0):
            if self._persist_timer is None:
                self._persist_timer = self.engine.schedule(
                    self._persist_interval, self._send_window_probe)
        elif self._persist_timer is not None:
            self._persist_timer.cancel()
            self._persist_timer = None
            self._persist_interval = self.behavior.persist_interval

    def _transmit_data(self, seq: int, size: int,
                       is_retransmission: bool = False) -> None:
        flags = ACK
        if seq_add(seq, size) == self.data_end:
            flags |= PSH
        segment = Segment(src=self.local, dst=self.remote, seq=seq,
                          ack=seq_add(self.irs, 1), flags=flags,
                          payload=size, window=MAX_WINDOW)
        self.host.send(segment)
        self.stats_data_packets += 1
        if is_retransmission:
            self.stats_retransmissions += 1
            self._rexmitted_starts.add(seq)
            self._rexmit_epoch = True
            # Karn: a timed segment that gets retransmitted yields an
            # ambiguous RTT; abandon the measurement.
            if (self._timing_seq is not None
                    and seq_lt(seq, self._timing_seq)):
                self._timing_seq = None
        elif self._timing_seq is None:
            self._timing_seq = seq_add(seq, size)
            self._timing_start = self.engine.now

    def _send_window_probe(self) -> None:
        """Persist timer expiry: probe the closed window with one byte."""
        self._persist_timer = None
        if self.state != "ESTABLISHED" or self.offered_window != 0:
            return
        probe = Segment(src=self.local, dst=self.remote, seq=self.snd_nxt,
                        ack=seq_add(self.irs, 1), flags=ACK, payload=1,
                        window=MAX_WINDOW)
        self.host.send(probe)
        self.stats_window_probes += 1
        self._persist_interval = min(
            self._persist_interval * self.behavior.persist_backoff,
            self.behavior.max_persist_interval)
        self._persist_timer = self.engine.schedule(
            self._persist_interval, self._send_window_probe)

    def _abort(self) -> None:
        """Give up after too many retries of the same data."""
        self.aborted = True
        self.state = "CLOSED_DONE"
        self.finish_time = self.engine.now
        self._cancel_rexmit_timer()
        if self._persist_timer is not None:
            self._persist_timer.cancel()
            self._persist_timer = None
        if self.behavior.sends_rst_on_abort:
            rst = Segment(src=self.local, dst=self.remote, seq=self.snd_nxt,
                          ack=seq_add(self.irs, 1), flags=RST | ACK,
                          window=0)
            self.host.send(rst)

    def _send_fin(self) -> None:
        self.state = "FIN_SENT"
        self.fin_seq = self.data_end
        segment = Segment(src=self.local, dst=self.remote, seq=self.data_end,
                          ack=seq_add(self.irs, 1), flags=FIN | ACK,
                          window=MAX_WINDOW)
        self.host.send(segment)
        self.snd_nxt = seq_add(self.data_end, 1)
        self.snd_max = self.snd_nxt
        self._restart_rexmit_timer()

    # -- ack processing ------------------------------------------------------

    def _process_ack(self, segment: Segment) -> None:
        if self.state not in ("ESTABLISHED", "FIN_SENT"):
            return
        ack = segment.ack
        window_changed = segment.window != self.offered_window
        self.offered_window = segment.window

        if seq_gt(ack, self.snd_max):
            return  # acks data never sent: stale or broken peer; ignore
        if seq_gt(ack, self.snd_una):
            self._advance(ack)
        elif (ack == self.snd_una and segment.payload == 0
              and not window_changed and seq_lt(self.snd_una, self.snd_max)):
            self._duplicate_ack()
        self._try_send()
        self._check_done()

    def _advance(self, ack: int) -> None:
        """Handle an ack for new data."""
        acked_rexmit = any(seq_lt(s, ack) for s in self._rexmitted_starts)
        self._rexmitted_starts = {s for s in self._rexmitted_starts
                                  if seq_ge(s, ack)}

        # RTT sampling (Karn's rule is inside the estimators).
        if self._timing_seq is not None and seq_ge(ack, self._timing_seq):
            rtt = self.engine.now - self._timing_start
            self.estimator.sample(rtt, for_retransmitted=False)
            self._timing_seq = None
        if acked_rexmit:
            # Ambiguous sample; Solaris's estimator reacts perversely.
            self.estimator.sample(0.0, for_retransmitted=True)

        exiting_recovery = False
        if self.in_fast_recovery:
            exiting_recovery = True
            self.in_fast_recovery = False
            self._deflate_window(ack)

        self.dupacks = 0
        self.snd_una = ack
        if seq_lt(self.snd_nxt, ack):
            self.snd_nxt = ack
        self.estimator.reset_backoff()
        self._consecutive_rexmits = 0

        if not exiting_recovery:
            self.cwnd = P.increase_cwnd(self.behavior, self.cwnd,
                                        self.ssthresh, self.cwnd_mss,
                                        MAX_WINDOW)
        if self.behavior.rexmit_packet_after_ack and self._rexmit_epoch:
            # Solaris quirk (§8.6): retransmit the packet just after the
            # ack; no effect on cwnd or on what new data to send.
            if seq_lt(self.snd_una, self.snd_max):
                size = min(self.mss, seq_diff(self.data_end, self.snd_una))
                if size > 0:
                    self._transmit_data(self.snd_una, size,
                                        is_retransmission=True)
        if not self._rexmitted_starts:
            self._rexmit_epoch = False

        if seq_lt(self.snd_una, self.snd_max):
            self._restart_rexmit_timer()
        else:
            self._cancel_rexmit_timer()

    def _deflate_window(self, ack: int) -> None:
        """Exit fast recovery, shrinking cwnd back to ssthresh — unless
        one of the documented deflation bugs intervenes (§8.2, [BP95])."""
        if (self.behavior.header_prediction_bug
                and ack == self.snd_max):
            # The "header prediction" fast path handles an ack for all
            # outstanding data and forgets to shrink the window.
            return
        if self.behavior.fencepost_bug:
            if self.cwnd > self.ssthresh + self.cwnd_mss:
                self.cwnd = self.ssthresh
            return
        if self.cwnd > self.ssthresh:
            self.cwnd = self.ssthresh

    def _duplicate_ack(self) -> None:
        self.dupacks += 1
        behavior = self.behavior
        if behavior.dup_ack_triggers_flight_retransmit:
            # Linux 1.0 (§8.5): the first dup ack spurs a retransmission
            # of every packet in flight, with no window cut (the paper's
            # footnote: had it properly cut cwnd, the burst could not
            # have been sent).
            if self.dupacks == 1:
                self._retransmit_flight()
            return
        if behavior.dupack_updates_cwnd and not self.in_fast_recovery:
            self.cwnd = P.increase_cwnd(behavior, self.cwnd, self.ssthresh,
                                        self.cwnd_mss, MAX_WINDOW)
        if not behavior.fast_retransmit:
            return
        if self.dupacks == behavior.dup_ack_threshold:
            self.stats_fast_retransmits += 1
            self.ssthresh = P.cut_ssthresh(behavior, self.cwnd,
                                           self.offered_window, self.cwnd_mss)
            size = min(self.mss, seq_diff(self.data_end, self.snd_una))
            if size > 0:
                self._transmit_data(self.snd_una, size, is_retransmission=True)
            use_recovery = (behavior.fast_recovery
                            and not behavior.fast_recovery_disabled_by_bug)
            if use_recovery:
                self.in_fast_recovery = True
                self.recover_point = self.snd_max
                self.cwnd = (self.ssthresh
                             + behavior.dup_ack_threshold * self.cwnd_mss)
            else:
                # Tahoe: collapse to one segment and slow-start back,
                # resending from the loss point.
                self.cwnd = self.cwnd_mss
                self.snd_nxt = seq_add(self.snd_una, size)
            self._restart_rexmit_timer()
        elif self.dupacks > behavior.dup_ack_threshold and self.in_fast_recovery:
            self.cwnd += self.cwnd_mss

    # -- retransmission timer ------------------------------------------------

    def _restart_rexmit_timer(self, timeout: float | None = None) -> None:
        self._cancel_rexmit_timer()
        self._rexmit_timer = self.engine.schedule(
            timeout if timeout is not None else self.estimator.rto(),
            self._on_timeout)

    def _cancel_rexmit_timer(self) -> None:
        if self._rexmit_timer is not None:
            self._rexmit_timer.cancel()
            self._rexmit_timer = None

    def _on_timeout(self) -> None:
        self._rexmit_timer = None
        if self.state == "SYN_SENT":
            self._syn_retries += 1
            if self._syn_retries > self.behavior.max_syn_retries:
                self.state = "CLOSED_DONE"
                return
            self._send_syn()
            return
        if not seq_lt(self.snd_una, self.snd_max):
            return
        self._consecutive_rexmits += 1
        if self._consecutive_rexmits > self.behavior.max_data_retries:
            self._abort()
            return
        self.stats_timeouts += 1
        behavior = self.behavior
        if self._timing_seq is not None:
            self._timing_seq = None
        if behavior.retransmit_whole_flight:
            self._retransmit_flight()
        else:
            self.ssthresh = P.cut_ssthresh(behavior, self.cwnd,
                                           self.offered_window, self.cwnd_mss)
            self.cwnd = self.cwnd_mss
            self.in_fast_recovery = False
            if behavior.clear_dupacks_on_timeout:
                self.dupacks = 0
            self.snd_nxt = self.snd_una
            if self.fin_seq is not None and self.snd_una == self.fin_seq:
                self._retransmit_fin()
            else:
                size = min(self.mss, seq_diff(self.data_end, self.snd_una))
                if size > 0:
                    self._transmit_data(self.snd_una, size,
                                        is_retransmission=True)
                    self.snd_nxt = seq_add(self.snd_una, size)
        self.estimator.back_off()
        self._restart_rexmit_timer()

    def _retransmit_flight(self) -> None:
        """Linux 1.0: re-send every unacknowledged packet in one burst."""
        seq = self.snd_una
        end = self.snd_max if self.fin_seq is None else self.fin_seq
        while seq_lt(seq, end) and seq_lt(seq, self.data_end):
            size = min(self.mss, seq_diff(self.data_end, seq))
            if size <= 0:
                break
            self._transmit_data(seq, size, is_retransmission=True)
            seq = seq_add(seq, size)
        if (self.fin_seq is not None
                and seq_le(self.snd_una, self.fin_seq)
                and seq_lt(self.fin_seq, self.snd_max)):
            self._retransmit_fin()

    def _retransmit_fin(self) -> None:
        segment = Segment(src=self.local, dst=self.remote, seq=self.fin_seq,
                          ack=seq_add(self.irs, 1), flags=FIN | ACK,
                          window=MAX_WINDOW)
        self.host.send(segment)
        self.stats_retransmissions += 1
        self._rexmitted_starts.add(self.fin_seq)
        self._rexmit_epoch = True
        self.snd_nxt = self.snd_max

    def _check_done(self) -> None:
        if self.state == "FIN_SENT" and self.snd_una == self.snd_max:
            self.state = "CLOSED_DONE"
            self.finish_time = self.engine.now
            self._cancel_rexmit_timer()

"""The TCP behavior catalog: every idiosyncrasy as a parameter.

The paper found (§4) that a generic-TCP analyzer was impossible — the
analyzer needs "intimate knowledge of the idiosyncrasies of the
different TCP implementations".  This module is that knowledge,
expressed as a dataclass whose fields are consumed both by the
simulated stacks (:mod:`repro.tcp.sender`, :mod:`repro.tcp.receiver`)
and by the analyzer's window models
(:mod:`repro.core.sender.windows`), so that each documented behavior
lives in exactly one place.

The congestion-window arithmetic helpers at the bottom are the shared
primitive operations (Eqn 1 / Eqn 2 increase, ssthresh cut with
rounding and minimum) that both sides use verbatim.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: "Huge" initial values for cwnd/ssthresh: effectively unlimited, and
#: also the value the Net/3 uninitialized-cwnd bug leaves in place.
HUGE_WINDOW = 2**30

#: Upper bound on cwnd growth (TCP_MAXWIN without window scaling).
MAX_WINDOW = 65535


class Lineage(enum.Enum):
    """Where an implementation's TCP code came from (Table 1)."""

    TAHOE = "Tahoe"
    RENO = "Reno"
    INDEPENDENT = "Indep."


class IncreaseRule(enum.Enum):
    """Congestion-avoidance increase per ack.

    EQN1:  cwnd += MSS*MSS/cwnd                      (Tahoe, §8.1)
    EQN2:  cwnd += MSS*MSS/cwnd + MSS/8              (Reno, §8.2)

    The MSS/8 term gives Reno's super-linear increase, later viewed as
    too aggressive (credited to S. Floyd in [BP95]).
    """

    EQN1 = 1
    EQN2 = 2


class SsthreshRounding(enum.Enum):
    """How ssthresh is rounded when cut on retransmission (§8.3)."""

    NONE = "none"              # keep the exact halved value
    DOWN_TO_MSS = "down"       # round down to a segment multiple
    UP_TO_MSS = "up"           # round up to a segment multiple


class RTOStyle(enum.Enum):
    """Retransmission-timeout estimator families (§8.5, §8.6)."""

    JACOBSON = "jacobson"      # srtt + 4*rttvar, Karn's algorithm
    SOLARIS = "solaris"        # low initial RTO; collapses after rexmit ack
    LINUX10 = "linux10"        # no variance term; fires much too early
    TRUMPET = "trumpet"        # fixed aggressive timer, weak backoff


class AckPolicy(enum.Enum):
    """Receiver acknowledgement strategies (§9.1)."""

    HEARTBEAT_200MS = "heartbeat"    # BSD: 200 ms heartbeat delayed acks
    EVERY_PACKET = "every"           # Linux 1.0: immediate ack per packet
    INTERVAL_50MS = "interval"       # Solaris: 50 ms per-packet timer


class QuenchResponse(enum.Enum):
    """Response to an ICMP source quench (§6.2)."""

    SLOW_START = "slow_start"                    # BSD-derived
    SLOW_START_HALVE_SSTHRESH = "slow_start_halve"  # Solaris
    DECREMENT_CWND = "decrement"                 # Linux 1.0: cwnd -= MSS
    IGNORE = "ignore"


@dataclass(frozen=True)
class TCPBehavior:
    """Complete behavioral description of one TCP implementation.

    Defaults describe the paper's *generic Reno* (§8.2); the catalog
    expresses each implementation as deltas from this base, mirroring
    how tcpanaly's C++ classes derive from a base implementation (§5).
    """

    name: str = "reno"
    version: str = ""
    lineage: Lineage = Lineage.RENO

    # --- congestion window management (§6, §8) ---
    increase_rule: IncreaseRule = IncreaseRule.EQN2
    #: Congestion avoidance applies when cwnd >= ssthresh (True) or only
    #: when cwnd > ssthresh (False) — the §8.3 test variation.
    ca_on_equal: bool = True
    #: Lower bound, in segments, applied when ssthresh is cut.
    ssthresh_min_segments: int = 2
    ssthresh_rounding: SsthreshRounding = SsthreshRounding.DOWN_TO_MSS
    #: Initial ssthresh in segments; None = effectively unlimited.
    #: Linux 1.0 and Solaris use 1 (§8.5, §8.6), crippling early growth.
    initial_ssthresh_segments: int | None = None
    initial_cwnd_segments: int = 1

    # --- retransmission strategy ---
    fast_retransmit: bool = True
    dup_ack_threshold: int = 3
    fast_recovery: bool = True
    #: Solaris: fast-recovery code exists but a logic bug keeps it from
    #: being exercised (§8.6).
    fast_recovery_disabled_by_bug: bool = False
    #: Linux 1.0: retransmissions re-send *every* unacked packet in one
    #: burst, and a single dup ack can trigger this (§8.5).
    retransmit_whole_flight: bool = False
    dup_ack_triggers_flight_retransmit: bool = False

    # --- Reno-derivative bug flags (§8.3, §8.4, [BP95]) ---
    header_prediction_bug: bool = False
    fencepost_bug: bool = False
    #: Treat the MSS used in cwnd arithmetic as including option bytes.
    mss_confusion: bool = False
    #: Initialize cwnd from the MSS the sender itself offered rather
    #: than the negotiated value.
    cwnd_init_from_offered_mss: bool = False
    #: Net/3: SYN-ack without an MSS option leaves cwnd/ssthresh huge.
    uninitialized_cwnd_bug: bool = False
    clear_dupacks_on_timeout: bool = True
    dupack_updates_cwnd: bool = False

    # --- timers (§8.6) ---
    rto_style: RTOStyle = RTOStyle.JACOBSON
    initial_rto: float = 3.0
    min_rto: float = 1.0
    max_rto: float = 64.0
    #: Solaris bug: an ack for a retransmitted packet restores the RTO
    #: to its (too small) base instead of the adapted value.
    rto_collapse_on_rexmit_ack: bool = False
    #: Retransmission backoff multiplier (2.0 = proper doubling).
    backoff_factor: float = 2.0

    # --- connection establishment ---
    #: First SYN retry timeout; [St96] found some remote TCPs "did not
    #: correctly back off their connection-establishment retry timer"
    #: and sent "storms of up to 30 SYNs/sec".
    initial_syn_timeout: float = 3.0
    syn_backoff_factor: float = 2.0
    max_syn_retries: int = 6

    # --- zero-window probing and connection abandonment ---
    #: Initial persist-timer interval for zero-window probes; [CL94]
    #: found these vary across implementations.
    persist_interval: float = 5.0
    persist_backoff: float = 2.0
    max_persist_interval: float = 60.0
    #: Give up after this many consecutive retransmissions of the same
    #: data...
    max_data_retries: int = 12
    #: ...and, if so, whether the connection is properly terminated
    #: with a RST.  [DJM97] found some TCPs fail to send one.
    sends_rst_on_abort: bool = True

    # --- quirks ---
    #: Solaris: on a partial ack during a retransmission episode, it
    #: retransmits the packet *just after* the ack rather than sending
    #: newly liberated data (§8.6).
    rexmit_packet_after_ack: bool = False
    quench_response: QuenchResponse = QuenchResponse.SLOW_START

    # --- receiver behavior (§7, §9) ---
    ack_policy: AckPolicy = AckPolicy.HEARTBEAT_200MS
    #: Ack at least every N full-sized segments (RFC 1122 says 2).
    ack_every_segments: int = 2
    delayed_ack_timeout: float = 0.200
    #: BSD-derived stacks generate the every-two-segments ack when the
    #: *application* has consumed that much data, not when it arrived
    #: (§9.1) — with a prompt reader the difference vanishes, but a
    #: slow reader turns scheduling into ack-timing noise (§9.3).
    ack_on_consumption: bool = False
    #: Ack immediately when a retransmission fills a sequence hole.
    #: Solaris 2.3's minor acking-policy bug (fixed in 2.4, §8.6) treats
    #: the hole-filling ack as optional and delays it instead.
    immediate_ack_on_hole_fill: bool = True
    #: Offer an MSS option in SYN / SYN-ack packets.  A receiver that
    #: does not is the trigger for the Net/3 bug (§8.4).
    offers_mss_option: bool = True
    #: Kernel processing delay applied between receiving a packet and
    #: transmitting any response it provokes.
    response_delay: float = 0.0003

    def label(self) -> str:
        """Catalog label like ``"solaris-2.4"``."""
        return f"{self.name}-{self.version}" if self.version else self.name


# ---------------------------------------------------------------------------
# Shared congestion-arithmetic primitives.
#
# BSD kept cwnd and ssthresh in bytes with integer arithmetic; we do the
# same (floats truncated), since [BP95] showed the integer details have
# observable consequences for the window trajectory.
# ---------------------------------------------------------------------------


def effective_mss(behavior: TCPBehavior, negotiated_mss: int,
                  offered_mss: int | None = None) -> int:
    """MSS value used in congestion-window *arithmetic*.

    The ``mss_confusion`` bug counts TCP option bytes (4 for the MSS
    option) inside the MSS used for window bookkeeping; the
    ``cwnd_init_from_offered_mss`` bug is handled separately at
    initialization time.
    """
    mss = negotiated_mss
    if behavior.mss_confusion:
        mss += 4
    return mss


def initial_cwnd(behavior: TCPBehavior, negotiated_mss: int,
                 offered_mss: int, peer_offered_mss_option: bool) -> int:
    """Initial congestion window, honoring the Net/3 and init-MSS bugs."""
    if behavior.uninitialized_cwnd_bug and not peer_offered_mss_option:
        return HUGE_WINDOW
    base = offered_mss if behavior.cwnd_init_from_offered_mss else negotiated_mss
    if behavior.mss_confusion:
        base += 4
    return behavior.initial_cwnd_segments * base


def initial_ssthresh(behavior: TCPBehavior, negotiated_mss: int,
                     peer_offered_mss_option: bool) -> int:
    """Initial ssthresh, honoring the Net/3 bug and 1-MSS init."""
    if behavior.uninitialized_cwnd_bug and not peer_offered_mss_option:
        return HUGE_WINDOW
    if behavior.initial_ssthresh_segments is None:
        return HUGE_WINDOW
    return behavior.initial_ssthresh_segments * negotiated_mss


def in_congestion_avoidance(behavior: TCPBehavior, cwnd: int,
                            ssthresh: int) -> bool:
    """Apply the implementation's slow-start-vs-CA test (§8.3)."""
    if behavior.ca_on_equal:
        return cwnd >= ssthresh
    return cwnd > ssthresh


def increase_cwnd(behavior: TCPBehavior, cwnd: int, ssthresh: int,
                  mss: int, max_window: int) -> int:
    """New cwnd after an ack for new data (slow start or CA)."""
    if in_congestion_avoidance(behavior, cwnd, ssthresh):
        increment = (mss * mss) // cwnd
        if behavior.increase_rule is IncreaseRule.EQN2:
            increment += mss // 8
    else:
        increment = mss
    return min(cwnd + increment, max_window)


def cut_ssthresh(behavior: TCPBehavior, cwnd: int, offered_window: int,
                 mss: int) -> int:
    """ssthresh after a loss signal: half the flight-limiting window,
    rounded and floored per the implementation (§8.3)."""
    half = min(cwnd, offered_window) // 2
    if behavior.ssthresh_rounding is SsthreshRounding.DOWN_TO_MSS:
        half = (half // mss) * mss
    elif behavior.ssthresh_rounding is SsthreshRounding.UP_TO_MSS:
        half = ((half + mss - 1) // mss) * mss
    floor = behavior.ssthresh_min_segments * mss
    return max(half, floor)

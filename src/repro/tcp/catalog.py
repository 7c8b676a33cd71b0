"""The implementation catalog: Table 1 plus the §10 additions.

Each entry is a :class:`~repro.tcp.params.TCPBehavior` expressed as a
delta from generic Tahoe or generic Reno, mirroring how tcpanaly's C++
classes derive from a base implementation (§5).

For the Reno derivatives, the paper summarizes the minor variations
only *qualitatively* (§8.3): presence/absence of the header-prediction
and MSS-confusion bugs, Eqn 1 vs Eqn 2, ssthresh rounding, dup-ack
counter handling, and offered-vs-negotiated MSS initialization.  We
assign each documented variation axis to at least one concrete
implementation so every behavior is represented in the corpus and is
distinguishable by the analyzer; the precise assignment of minor flags
to vendor names is a modelling choice (flagged in DESIGN.md), while
all *major* behaviors (Net/3 bug, SunOS-as-Tahoe, Linux 1.0 and
Solaris pathologies) follow the paper exactly.
"""

from __future__ import annotations

from dataclasses import replace

from repro.tcp.params import (
    AckPolicy,
    IncreaseRule,
    Lineage,
    QuenchResponse,
    RTOStyle,
    SsthreshRounding,
    TCPBehavior,
)

# --- the two generic bases (§8.1, §8.2) -----------------------------------

#: Generic Tahoe: slow start, congestion avoidance, fast retransmission,
#: no fast recovery; Eqn 1 increase; ssthresh never cut below one MSS;
#: congestion avoidance only when cwnd strictly exceeds ssthresh.
TAHOE = TCPBehavior(
    name="tahoe",
    lineage=Lineage.TAHOE,
    increase_rule=IncreaseRule.EQN1,
    ca_on_equal=False,
    ssthresh_min_segments=1,
    fast_recovery=False,
    header_prediction_bug=False,
    fencepost_bug=False,
    ack_on_consumption=True,
)

#: Generic Reno: adds fast recovery, the Eqn 2 super-linear increase,
#: and the header-prediction/fencepost deflation errors (§8.2).
RENO = TCPBehavior(
    name="reno",
    lineage=Lineage.RENO,
    increase_rule=IncreaseRule.EQN2,
    header_prediction_bug=True,
    fencepost_bug=True,
    ack_on_consumption=True,
)

# --- Table 1 implementations ----------------------------------------------

BSDI_11 = replace(RENO, name="bsdi", version="1.1",
                  cwnd_init_from_offered_mss=True)
BSDI_20 = replace(RENO, name="bsdi", version="2.0",
                  uninitialized_cwnd_bug=True)  # Net/3-derived
BSDI_21 = replace(RENO, name="bsdi", version="2.1",
                  uninitialized_cwnd_bug=True,
                  ssthresh_rounding=SsthreshRounding.NONE)

#: RECONSTRUCTED: the §9.1 "stretch acks" discussion is cut off in the
#: provided text ("Every implementation in our study except ...").
#: Table 1 lists OSF/1 1.3a; we model it as the stretch-ack offender —
#: acking only every *third* full-sized segment, beyond the RFC 1122
#: requirement of every second.
OSF1_13A = replace(RENO, name="osf1", version="1.3a",
                   increase_rule=IncreaseRule.EQN1,
                   header_prediction_bug=False,
                   ack_every_segments=3)
OSF1_20 = replace(RENO, name="osf1", version="2.0",
                  increase_rule=IncreaseRule.EQN1,
                  header_prediction_bug=False)
OSF1_32 = replace(OSF1_20, version="3.2",
                  clear_dupacks_on_timeout=False)  # later release, more bugs

HPUX_905 = replace(RENO, name="hpux", version="9.05",
                   mss_confusion=True,
                   ssthresh_rounding=SsthreshRounding.UP_TO_MSS)
HPUX_10 = replace(HPUX_905, version="10",
                  mss_confusion=False)

IRIX_52 = replace(RENO, name="irix", version="5.2",
                  dupack_updates_cwnd=True)
IRIX_62 = replace(IRIX_52, version="6.2",
                  dupack_updates_cwnd=False,
                  fencepost_bug=False)

NETBSD_10 = replace(RENO, name="netbsd", version="1.0",
                    uninitialized_cwnd_bug=True)

#: Generic Net/3 (TCP Lite), the [BP95] subject: Reno plus the
#: uninitialized-cwnd bug of §8.4.
NET3 = replace(RENO, name="net3", uninitialized_cwnd_bug=True)

SUNOS_413 = replace(TAHOE, name="sunos", version="4.1.3")

LINUX_10 = TCPBehavior(
    name="linux", version="1.0",
    lineage=Lineage.INDEPENDENT,
    increase_rule=IncreaseRule.EQN1,
    ca_on_equal=True,
    initial_ssthresh_segments=1,          # §8.5: crushes early performance
    fast_retransmit=False,                # §8.5
    fast_recovery=False,
    retransmit_whole_flight=True,         # §8.5: flights, not packets
    dup_ack_triggers_flight_retransmit=True,
    rto_style=RTOStyle.LINUX10,
    initial_rto=1.0,
    min_rto=0.2,
    backoff_factor=1.5,                   # "not fully doubling" (§8.5)
    quench_response=QuenchResponse.DECREMENT_CWND,
    ack_policy=AckPolicy.EVERY_PACKET,    # §8.5, §9.1
    response_delay=0.0008,                # acks "usually within 1 msec"
    header_prediction_bug=False,
    fencepost_bug=False,
)

SOLARIS_23 = TCPBehavior(
    name="solaris", version="2.3",
    lineage=Lineage.INDEPENDENT,
    increase_rule=IncreaseRule.EQN2,
    ca_on_equal=True,
    initial_ssthresh_segments=1,          # §8.6: conservative but slow
    ssthresh_min_segments=1,
    fast_retransmit=True,
    fast_recovery=True,
    fast_recovery_disabled_by_bug=True,   # §8.6: logic bug
    rto_style=RTOStyle.SOLARIS,
    initial_rto=0.3,                      # §8.6, [DJM97], [CL94]
    min_rto=0.2,
    rto_collapse_on_rexmit_ack=True,      # §8.6: never adapts
    rexmit_packet_after_ack=True,         # §8.6 quirk
    quench_response=QuenchResponse.SLOW_START_HALVE_SSTHRESH,
    ack_policy=AckPolicy.INTERVAL_50MS,   # §9.1
    delayed_ack_timeout=0.050,
    immediate_ack_on_hole_fill=False,     # the minor 2.3 acking bug
    header_prediction_bug=False,
    fencepost_bug=False,
)
SOLARIS_24 = replace(SOLARIS_23, version="2.4",
                     immediate_ack_on_hole_fill=True)

# --- §10 additions (RECONSTRUCTED: models built from the paper's
# --- qualitative characterization only) ------------------------------------

LINUX_20 = replace(LINUX_10, version="2.0.30",
                   retransmit_whole_flight=False,
                   dup_ack_triggers_flight_retransmit=False,
                   fast_retransmit=True,
                   initial_ssthresh_segments=None,
                   rto_style=RTOStyle.JACOBSON,
                   initial_rto=1.0,
                   min_rto=0.2,
                   backoff_factor=2.0)

TRUMPET = TCPBehavior(
    name="trumpet", version="2.0b",
    lineage=Lineage.INDEPENDENT,
    increase_rule=IncreaseRule.EQN1,
    ca_on_equal=True,
    fast_retransmit=False,
    fast_recovery=False,
    retransmit_whole_flight=True,
    rto_style=RTOStyle.TRUMPET,
    initial_rto=0.4,                      # fixed, aggressive, barely backs off
    min_rto=0.4,
    backoff_factor=1.2,
    quench_response=QuenchResponse.IGNORE,
    ack_policy=AckPolicy.EVERY_PACKET,
    header_prediction_bug=False,
    fencepost_bug=False,
)

WINDOWS_95 = TCPBehavior(
    name="windows", version="95",
    lineage=Lineage.INDEPENDENT,
    increase_rule=IncreaseRule.EQN1,
    ca_on_equal=True,
    header_prediction_bug=False,
    fencepost_bug=False,
)
WINDOWS_NT = replace(WINDOWS_95, version="NT",
                     ssthresh_rounding=SsthreshRounding.NONE)

#: RECONSTRUCTED from §6.2's aside: "an experimental TCP that tcpanaly
#: also knows about" initializes its congestion parameters from the
#: route cache — here, a remembered ssthresh of 8 segments, giving a
#: visible slow-start → congestion-avoidance transition with no loss.
EXPERIMENTAL_RC = replace(RENO, name="experimental", version="rc",
                          header_prediction_bug=False,
                          fencepost_bug=False,
                          initial_ssthresh_segments=8)

#: Every implementation tcpanaly knows about, keyed by its label.
CATALOG: dict[str, TCPBehavior] = {
    behavior.label(): behavior
    for behavior in (
        TAHOE, RENO, NET3,
        BSDI_11, BSDI_20, BSDI_21,
        OSF1_13A, OSF1_20, OSF1_32,
        HPUX_905, HPUX_10,
        IRIX_52, IRIX_62,
        NETBSD_10,
        SUNOS_413,
        LINUX_10,
        SOLARIS_23, SOLARIS_24,
        LINUX_20, TRUMPET, WINDOWS_95, WINDOWS_NT,
        EXPERIMENTAL_RC,
    )
}

#: The Table 1 core study set (the second group of Table 1 — Windows,
#: Trumpet, Linux 2 — was analyzed separately in §10).
CORE_STUDY = [
    "bsdi-1.1", "bsdi-2.0", "bsdi-2.1", "osf1-1.3a", "osf1-2.0",
    "osf1-3.2", "hpux-9.05", "hpux-10", "irix-5.2", "irix-6.2",
    "netbsd-1.0", "sunos-4.1.3", "linux-1.0", "solaris-2.3",
    "solaris-2.4",
]

SECOND_GROUP = ["windows-95", "windows-NT", "trumpet-2.0b", "linux-2.0.30"]


def get_behavior(label: str) -> TCPBehavior:
    """Look up an implementation by label (e.g. ``"solaris-2.4"``)."""
    try:
        return CATALOG[label]
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise KeyError(f"unknown implementation {label!r}; known: {known}")


def implementation_names() -> list[str]:
    """All catalog labels, sorted."""
    return sorted(CATALOG)


def catalog_version() -> str:
    """A short digest of every known behavior.

    The batch journal's header embeds this, so editing any behavior
    (or adding/removing one) invalidates previously journaled fits
    without manual clean-up.
    """
    import hashlib
    blob = "\n".join(f"{label}={CATALOG[label]!r}"
                     for label in sorted(CATALOG))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]

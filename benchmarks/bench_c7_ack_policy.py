"""C7 — §9.1: delayed-ack policy vs. link speed.

The paper works out when a receiver's delay timer defeats ack
aggregation: with timer *d*, path rate *b*, packet size *s*, two
full-sized packets cannot arrive within the timer whenever
``2*s/b > d`` — so every in-sequence ack is a delayed ack, and the
sender waits an extra ~d per two packets.

With s = 512 and d = 50 ms (Solaris) the per-packet-ack regime covers
rates below ~20.5 KB/s — including 56 and 64 kbit/s links.  With the
BSD 200 ms heartbeat the bound is ~5.1 KB/s, below common link speeds.

We sweep link speeds with both receivers and measure the delayed-ack
fraction, locating each policy's crossover.
"""

from repro.core.receiver.analyzer import analyze_receiver
from repro.harness.scenarios import Scenario, traced_transfer
from repro.tcp.catalog import get_behavior
from repro.units import kbit

from benchmarks.conftest import emit

#: Link speeds in kbit/s spanning both predicted crossovers.
SPEEDS = (28, 56, 64, 128, 256, 512)


def delayed_fraction(implementation: str, speed_kbit: float) -> float:
    scenario = Scenario(f"link-{speed_kbit}",
                        bottleneck_bandwidth=kbit(speed_kbit),
                        bottleneck_delay=0.020)
    transfer = traced_transfer(get_behavior(implementation), scenario,
                               data_size=30720)
    analysis = analyze_receiver(transfer.receiver_trace,
                                get_behavior(implementation))
    counts = analysis.counts_by_kind()
    data_acks = sum(counts.get(k, 0)
                    for k in ("delayed", "normal", "stretch"))
    return counts.get("delayed", 0) / data_acks if data_acks else 0.0


def run_sweep():
    table = {}
    for speed in SPEEDS:
        table[speed] = {
            "solaris-2.4": delayed_fraction("solaris-2.4", speed),
            "reno": delayed_fraction("reno", speed),
        }
    return table


def test_c7_ack_timer_vs_link_speed():
    table = run_sweep()

    lines = [f"{'kbit/s':>7s} {'KB/s':>7s} {'solaris 50ms':>13s} "
             f"{'bsd 200ms':>10s}"]
    for speed in SPEEDS:
        row = table[speed]
        lines.append(f"{speed:7d} {speed / 8:7.1f} "
                     f"{row['solaris-2.4']:13.2f} {row['reno']:10.2f}")
    lines.append("(paper: a 50 ms timer acks every packet below "
                 "~20.5 KB/s — covering 56/64 kbit links; a 200 ms timer's "
                 "bound is ~5.1 KB/s, below common links)")
    emit("C7: delayed-ack fraction vs link speed (§9.1)", lines)

    # Shape: Solaris acks (almost) every packet at 56/64 kbit but not
    # at 256+ kbit; BSD aggregates normally even at 56 kbit.  The
    # 28 kbit row is in BOTH policies' per-packet regime.
    assert table[56]["solaris-2.4"] >= 0.9
    assert table[64]["solaris-2.4"] >= 0.9
    assert table[512]["solaris-2.4"] <= 0.3
    assert table[56]["reno"] <= 0.4
    # At 28 kbit even BSD mostly acks single packets — though its
    # free-running heartbeat (unlike a per-arrival timer) still
    # aggregates a pair whenever the arrival phase lines up.
    assert table[28]["reno"] >= 0.6
    # The crossover ordering: Solaris's per-packet regime extends to
    # much faster links than BSD's.
    solaris_crossover = max(s for s in SPEEDS
                            if table[s]["solaris-2.4"] >= 0.9)
    bsd_crossover = max((s for s in SPEEDS if table[s]["reno"] >= 0.6),
                        default=0)
    assert solaris_crossover > bsd_crossover

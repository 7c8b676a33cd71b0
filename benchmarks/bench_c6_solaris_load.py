"""C6 — §8.6: Solaris load inflation vs. path RTT.

"Solaris 2.3/2.4 TCP can effectively increase the overall load it
presents to any high-latency Internet path by a factor of two or even
more."  And on the 2.6 s-RTT worst case, the paper observed the first
data packet retransmitted 5 times, the second 6, the third 4 — all
needless.

We sweep RTT from LAN scale to the satellite worst case, measure the
total-packets ratio Solaris/Reno on loss-free paths (so every
retransmission is provably unnecessary), and count per-packet
transmissions at 2.6 s.  The crossover where the pathology ignites
should sit where RTT crosses the ~300 ms initial RTO.
"""

from collections import Counter

from repro.harness.scenarios import Scenario, traced_transfer
from repro.tcp.catalog import get_behavior
from repro.units import kbit, kbyte

from benchmarks.conftest import emit

RTTS = (0.05, 0.15, 0.30, 0.68, 1.4, 2.6)


def run_sweep():
    rows = []
    for rtt in RTTS:
        scenario = Scenario(name=f"rtt-{rtt}", bottleneck_bandwidth=kbit(512),
                            bottleneck_delay=rtt / 2 - 0.0005)
        solaris = traced_transfer(get_behavior("solaris-2.4"), scenario,
                                  data_size=kbyte(50))
        reno = traced_transfer(get_behavior("reno"), scenario,
                               data_size=kbyte(50))
        ratio = (solaris.result.sender.stats_data_packets
                 / reno.result.sender.stats_data_packets)
        rows.append({"rtt": rtt, "ratio": ratio,
                     "solaris_rexmits":
                         solaris.result.sender.stats_retransmissions,
                     "transfer": solaris})
    return rows


def per_packet_transmissions(trace, first_n=4):
    """How many times each of the first data segments was transmitted."""
    flow = trace.primary_flow()
    counts = Counter(r.seq for r in trace
                     if r.flow == flow and r.payload > 0)
    starts = sorted(counts, key=lambda s: (s - 1) % 2**32)[:first_n]
    return [counts[s] for s in starts]


def test_c6_solaris_load_inflation():
    rows = run_sweep()

    lines = [f"{'RTT (s)':>8s} {'load ratio':>11s} {'rexmits':>8s}   "
             f"(loss-free path: every retransmission unnecessary)"]
    for row in rows:
        lines.append(f"{row['rtt']:8.2f} {row['ratio']:11.2f} "
                     f"{row['solaris_rexmits']:8d}")
    worst = per_packet_transmissions(rows[-1]["transfer"].sender_trace)
    lines.append(f"at RTT 2.6 s, transmissions of the first data packets: "
                 f"{worst} (paper: 5, 6, 4, 4 — including the original)")
    emit("C6: Solaris load inflation vs RTT (§8.6)", lines)

    by_rtt = {row["rtt"]: row for row in rows}
    # Shape: no inflation below the ~300 ms initial RTO; roughly 2x at
    # trans-Atlantic latencies and beyond ("a factor of two or even
    # more"); worst-case packets re-sent several times each.
    assert by_rtt[0.05]["ratio"] < 1.1
    assert by_rtt[0.15]["ratio"] < 1.2
    assert by_rtt[0.68]["ratio"] >= 1.3
    assert by_rtt[2.6]["ratio"] >= 1.5
    assert max(by_rtt[r]["ratio"] for r in (1.4, 2.6)) >= 1.7
    assert all(count >= 3 for count in worst[:2])

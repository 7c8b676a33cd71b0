"""R1 — §10 (RECONSTRUCTED): the independently-written implementations.

The provided paper text truncates before §10's details, but the
earlier sections state its findings: the most problematic TCPs were
all independently written; Trumpet/Winsock "exhibits severe
deficiencies"; the Linux 1.0 retransmission disaster "has been fixed
in later Linux releases".  We regenerate that comparison: needless
retransmission load of each independent stack vs. the BSD-derived
baseline, on identical paths.
"""

from repro.harness.scenarios import traced_transfer
from repro.tcp.catalog import get_behavior

from benchmarks.conftest import emit

INDEPENDENT = ("linux-1.0", "solaris-2.4", "trumpet-2.0b", "windows-95",
               "linux-2.0.30")


def run_comparison():
    rows = []
    for implementation in ("reno",) + INDEPENDENT:
        lossy = traced_transfer(get_behavior(implementation), "wan-lossy",
                                data_size=51200, seed=3)
        high_rtt = traced_transfer(get_behavior(implementation),
                                   "transatlantic", data_size=51200)
        rows.append({
            "implementation": implementation,
            "lossy_rexmits": lossy.result.sender.stats_retransmissions,
            "lossy_packets": lossy.result.sender.stats_data_packets,
            "rtt_rexmits": high_rtt.result.sender.stats_retransmissions,
            "completed": lossy.result.completed and high_rtt.result.completed,
        })
    return rows


def test_r1_independent_implementations():
    rows = run_comparison()

    lines = [f"{'implementation':16s} {'lossy rexmit':>13s} "
             f"{'of packets':>11s} {'high-RTT rexmit':>16s}"]
    for row in rows:
        lines.append(f"{row['implementation']:16s} "
                     f"{row['lossy_rexmits']:13d} "
                     f"{row['lossy_packets']:11d} {row['rtt_rexmits']:16d}")
    lines.append("(paper: independently-written TCPs tend to have much "
                 "more significant congestion and performance problems "
                 "than BSD-derived ones; Linux 2.0 fixed the 1.0 "
                 "retransmission disaster)")
    emit("R1: independent implementations (§10, reconstructed)", lines)

    by_implementation = {row["implementation"]: row for row in rows}
    reno = by_implementation["reno"]
    # Shape: every transfer completes; Linux 1.0 and Trumpet dwarf the
    # BSD baseline under loss; Solaris dwarfs it at high RTT;
    # Linux 2.0's fix brings it back to earth; Windows is Reno-like.
    assert all(row["completed"] for row in rows)
    assert by_implementation["linux-1.0"]["lossy_rexmits"] \
        >= 5 * max(reno["lossy_rexmits"], 1)
    assert by_implementation["trumpet-2.0b"]["lossy_rexmits"] \
        >= 3 * max(reno["lossy_rexmits"], 1)
    assert by_implementation["solaris-2.4"]["rtt_rexmits"] \
        >= 30 > reno["rtt_rexmits"]
    assert by_implementation["linux-2.0.30"]["lossy_rexmits"] \
        <= by_implementation["linux-1.0"]["lossy_rexmits"] // 3
    assert by_implementation["windows-95"]["lossy_rexmits"] \
        <= 3 * max(reno["lossy_rexmits"], 1)

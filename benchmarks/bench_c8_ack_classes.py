"""C8 — §9.1: acknowledgement classification across the catalog.

tcpanaly classifies acks as **delayed** (< 2 full-sized packets),
**normal** (exactly 2), or **stretch** (> 2).  The paper's §9.1
findings, regenerated here as one table:

* BSD-derived receivers: mostly normal acks; delayed-ack generation
  delays spread across 0–200 ms (the free-running heartbeat);
* Linux 1.0: acks every packet within ~1 ms — all delayed acks by
  definition, never normal;
* Solaris: delayed acks generated at its 50 ms timer;
* stretch acks rare for everyone — except the RECONSTRUCTED
  stretch-ack offender (osf1-1.3a; the §9.1 stretch-ack discussion
  falls in the truncated region of the provided text), which acks
  only every third segment.
"""

from repro.analysis.stats import ack_class_table
from repro.core.receiver.analyzer import analyze_receiver
from repro.harness.scenarios import traced_transfer
from repro.tcp.catalog import get_behavior

from benchmarks.conftest import emit

IMPLEMENTATIONS = ("reno", "sunos-4.1.3", "linux-1.0", "solaris-2.4",
                   "windows-95", "trumpet-2.0b", "osf1-1.3a")


def run_classification():
    analyses = []
    for implementation in IMPLEMENTATIONS:
        for seed in range(3):
            transfer = traced_transfer(get_behavior(implementation), "wan",
                                       data_size=51200, seed=seed)
            analyses.append(analyze_receiver(
                transfer.receiver_trace, get_behavior(implementation)))
    return ack_class_table(analyses)


def test_c8_ack_classification():
    table = run_classification()

    lines = [f"{'implementation':16s} {'acks':>6s} {'delayed':>8s} "
             f"{'normal':>7s} {'stretch':>8s} {'delay min/mean/max (ms)':>24s}"]
    for implementation in IMPLEMENTATIONS:
        row = table[implementation]
        delay_text = ""
        if "delayed_min_ms" in row:
            delay_text = (f"{row['delayed_min_ms']:6.1f}/"
                          f"{row['delayed_mean_ms']:6.1f}/"
                          f"{row['delayed_max_ms']:6.1f}")
        lines.append(f"{implementation:16s} {int(row['acks']):6d} "
                     f"{row['delayed_fraction']:8.2f} "
                     f"{row['normal_fraction']:7.2f} "
                     f"{row['stretch_fraction']:8.2f} {delay_text:>24s}")
    emit("C8: ack classification (§9.1)", lines)

    # Shape: BSD-derived receivers ack mostly in pairs; Linux acks
    # every packet (all delayed, sub-millisecond); Solaris delayed
    # acks sit at its 50 ms timer; stretch acks are rare everywhere.
    assert table["reno"]["normal_fraction"] > 0.7
    assert table["sunos-4.1.3"]["normal_fraction"] > 0.7
    assert table["linux-1.0"]["delayed_fraction"] == 1.0
    assert table["linux-1.0"]["delayed_max_ms"] < 2.0
    assert 45 <= table["solaris-2.4"]["delayed_min_ms"] <= 60
    for implementation in IMPLEMENTATIONS:
        if implementation == "osf1-1.3a":
            continue   # the reconstructed stretch-ack offender
        assert table[implementation]["stretch_fraction"] < 0.05
    assert table["osf1-1.3a"]["stretch_fraction"] > 0.5
    # BSD heartbeat delays range widely below 200 ms (uniform-ish).
    assert table["reno"]["delayed_max_ms"] <= 210
    assert table["reno"]["delayed_max_ms"] \
        > table["reno"]["delayed_min_ms"] + 20

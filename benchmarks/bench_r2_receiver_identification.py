"""R2 — §2+§9 (RECONSTRUCTED): receiver-policy identification, and the
active-probing combination.

Two of the paper's threads meet here:

* §9's receiver analysis characterizes acking policies (heartbeat vs
  interval timer vs every-packet, aggregation thresholds, the 2.3
  hole-fill bug);
* §2 closes with: "one can combine active techniques, for controlling
  the stimuli seen by a TCP implementation, with automated analysis of
  traces of the results."

Part one identifies acking-policy families from passive bulk-transfer
traces.  Part two applies the suggested combination: a scripted
small-hole-fill probe — a stimulus passive traces essentially never
contain — separates Solaris 2.3 from 2.4, the pair the paper says
differ *only* in a minor acking-policy bug (§8.6), which sender-side
analysis cannot split (see C4).
"""

from repro.core.fit import identify_receiver
from repro.harness.probing import probe_hole_fill
from repro.harness.scenarios import traced_transfer
from repro.tcp.catalog import get_behavior

from benchmarks.conftest import emit

#: Passive identification cases: representative per acking family.
PASSIVE = ("reno", "linux-1.0", "solaris-2.4", "osf1-1.3a")

#: Policy families: labels indistinguishable from a passive receiver
#: trace (their acking machinery is literally identical).
FAMILY = {
    "reno": "heartbeat-200ms/every-2",
    "linux-1.0": "every-packet",
    "solaris-2.4": "interval-50ms",
    "osf1-1.3a": "heartbeat-200ms/every-3",
}


def run_study():
    passive = {}
    for truth in PASSIVE:
        # The 50 ms interval policy only shows on links slow enough
        # that pairs cannot beat the timer (C7's finding): probe
        # Solaris where its policy is visible.
        scenario = "modem-56k" if truth.startswith("solaris") else "wan"
        transfer = traced_transfer(get_behavior(truth), scenario,
                                   data_size=51200)
        fits = identify_receiver(transfer.receiver_trace)
        passive[truth] = [f.implementation for f in fits
                          if f.category == "close"]

    probed = {}
    for truth in ("solaris-2.3", "solaris-2.4"):
        trace = probe_hole_fill(get_behavior(truth))
        fits = identify_receiver(
            trace, {label: get_behavior(label)
                    for label in ("solaris-2.3", "solaris-2.4")})
        probed[truth] = [(f.implementation, f.category) for f in fits]
    return passive, probed


def test_r2_receiver_identification():
    passive, probed = run_study()

    lines = ["passive bulk-transfer traces (policy families):"]
    for truth, close in passive.items():
        lines.append(f"  {truth:14s} ({FAMILY[truth]}): close fits = "
                     f"{', '.join(close[:6])}"
                     f"{' ...' if len(close) > 6 else ''}")
    lines.append("")
    lines.append("active probe (small hole fill) — the §2 combination:")
    for truth, fits in probed.items():
        lines.append(f"  true {truth}: " + ", ".join(
            f"{implementation}={category}"
            for implementation, category in fits))
    lines.append("(the paper: 2.3 and 2.4 differ only in an acking-policy "
                 "bug; sender analysis cannot split them — the probe can)")
    emit("R2: receiver-policy identification (§2+§9, reconstructed)", lines)

    # Shape: passive identification narrows to the right policy family.
    assert "reno" in passive["reno"]
    assert "solaris-2.4" not in passive["reno"]
    assert "linux-1.0" not in passive["reno"]
    assert set(passive["linux-1.0"]) <= {"linux-1.0", "linux-2.0.30",
                                         "trumpet-2.0b"}
    assert set(passive["solaris-2.4"]) <= {"solaris-2.3", "solaris-2.4"}
    assert passive["osf1-1.3a"] == ["osf1-1.3a"]
    # The active probe splits what the passive traces cannot.
    for truth, fits in probed.items():
        ranking = dict(fits)
        assert ranking[truth] == "close"
        other = ("solaris-2.4" if truth == "solaris-2.3"
                 else "solaris-2.3")
        assert ranking[other] != "close"

"""R3 — §6.2 (RECONSTRUCTED): inferring a non-default initial ssthresh.

§6.2's third hidden limitation: "if the sending TCP picks an initial
setting for ssthresh that differs from its default ... if a TCP uses
information present in its route cache to guide its choice.  Since
none of the TCPs discussed in this paper do so (an experimental TCP
that tcpanaly also knows about does), we defer discussion to [Pa97b]."

We reconstruct both halves: the experimental route-cache TCP, and the
inference — locate the slow-start → congestion-avoidance transition in
the flight-size trajectory; a transition *before any loss* reveals the
initial ssthresh.  The same inference automatically rediscovers the
paper's §8.5/§8.6 finding that Linux 1.0 and Solaris initialize
ssthresh to a single MSS.
"""

from repro.core.sender.inference import infer_initial_ssthresh
from repro.harness.scenarios import traced_transfer
from repro.tcp.catalog import get_behavior

from benchmarks.conftest import emit

CASES = (
    ("experimental-rc", "wan", 0, 8 * 512),   # route-cache init: 8 segments
    ("solaris-2.4", "wan", 0, 512),           # §8.6: one MSS
    ("linux-1.0", "wan", 0, 512),             # §8.5: one MSS
    ("reno", "wan", 0, None),                 # default: unlimited
    ("tahoe", "wan", 0, None),
    ("reno", "wan-lossy", 1, None),           # transitions only via loss
)


def run_inference():
    rows = []
    for implementation, scenario, seed, truth in CASES:
        transfer = traced_transfer(get_behavior(implementation), scenario,
                                   data_size=102400, seed=seed)
        estimate = infer_initial_ssthresh(transfer.sender_trace)
        rows.append({
            "implementation": implementation, "scenario": scenario,
            "truth": truth, "estimate": estimate,
        })
    return rows


def test_r3_initial_ssthresh_inference():
    rows = run_inference()

    lines = [f"{'implementation':16s} {'scenario':10s} {'true init':>10s} "
             f"{'inferred':>20s}"]
    for row in rows:
        estimate = row["estimate"]
        if estimate is None:
            inferred = "none (default)"
        elif not estimate.non_default:
            inferred = "loss-induced only"
        else:
            inferred = f"~{estimate.transition_flight} B"
        truth = f"{row['truth']} B" if row["truth"] else "unlimited"
        lines.append(f"{row['implementation']:16s} {row['scenario']:10s} "
                     f"{truth:>10s} {inferred:>20s}")
    lines.append("(the paper deferred this inference to [Pa97b]; the same "
                 "trajectory analysis rediscovers the §8.5/§8.6 one-MSS "
                 "initializations)")
    emit("R3: initial-ssthresh inference (§6.2, reconstructed)", lines)

    by_key = {(r["implementation"], r["scenario"]): r["estimate"]
              for r in rows}
    experimental = by_key[("experimental-rc", "wan")]
    assert experimental is not None and experimental.non_default
    assert abs(experimental.transition_flight - 8 * 512) <= 2 * 512
    for implementation in ("solaris-2.4", "linux-1.0"):
        estimate = by_key[(implementation, "wan")]
        assert estimate is not None and estimate.non_default
        assert estimate.transition_flight <= 3 * 512
    assert by_key[("reno", "wan")] is None
    assert by_key[("tahoe", "wan")] is None
    lossy = by_key[("reno", "wan-lossy")]
    assert lossy is None or not lossy.non_default

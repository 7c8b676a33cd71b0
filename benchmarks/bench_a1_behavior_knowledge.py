"""A1 — ablation: how much does implementation knowledge buy the
calibration checks?

The paper's core design argument (§4) is that generic analysis fails;
C10 shows it for the sender analyzer.  This ablation shows the same
for a *calibration* check: measurement-duplicate detection (§3.1.2)
must decide whether a header-identical repeat is a filter artifact or
genuine TCP retransmission, and the decision threshold depends on the
implementation (three dup acks for fast retransmit — but a single dup
ack suffices to set off Linux 1.0's flight bursts, §8.5).

We measure duplicate-detection false positives on clean Linux 1.0
traces and detection rate on genuinely duplicated IRIX-style captures,
with and without behavior knowledge.
"""

from repro.capture.errors import DuplicationInjector
from repro.capture.filter import PacketFilter
from repro.core.calibrate.additions import detect_duplicates
from repro.harness.scenarios import traced_transfer
from repro.tcp.catalog import get_behavior
from repro.units import kbyte

from benchmarks.conftest import emit


def run_ablation():
    # Clean Linux 1.0 traces: every detection is a false positive.
    false_with = 0
    false_without = 0
    for seed in range(4):
        transfer = traced_transfer(get_behavior("linux-1.0"), "wan-lossy",
                                   data_size=kbyte(50), seed=seed)
        trace = transfer.sender_trace
        false_with += len(detect_duplicates(
            trace, behavior=get_behavior("linux-1.0")))
        false_without += len(detect_duplicates(trace, behavior=None))

    # Genuinely duplicated capture: detections are true positives.
    packet_filter = PacketFilter(vantage="sender",
                                 duplication=DuplicationInjector())
    transfer = traced_transfer(get_behavior("irix-5.2"), "lan",
                               data_size=kbyte(50),
                               sender_filter=packet_filter)
    trace = transfer.sender_trace
    flow = trace.primary_flow()
    outbound = sum(1 for r in trace if r.flow == flow)
    true_with = len(detect_duplicates(trace,
                                      behavior=get_behavior("irix-5.2")))
    true_without = len(detect_duplicates(trace, behavior=None))
    return (false_with, false_without, true_with, true_without,
            outbound // 2)


def test_a1_behavior_knowledge_ablation():
    (false_with, false_without, true_with, true_without,
     duplicated) = run_ablation()

    emit("A1: behavior knowledge in duplicate detection (ablation)", [
        f"clean Linux 1.0 traces (4 seeds): false positives "
        f"with knowledge = {false_with}, without = {false_without}",
        f"IRIX-style duplicated capture ({duplicated} true pairs): "
        f"detected with knowledge = {true_with}, "
        f"without = {true_without}",
        "(knowing Linux's single-dup-ack flight trigger prevents its "
        "millisecond-scale genuine repeats from reading as filter "
        "artifacts, without costing detection on truly defective "
        "filters)",
    ])

    # Shape: knowledge eliminates (or nearly eliminates) the false
    # positives a generic threshold incurs on Linux 1.0, while true
    # detection stays essentially complete.
    assert false_with <= false_without
    assert false_without > false_with + 2
    assert true_with >= 0.9 * duplicated
    assert true_without >= 0.9 * duplicated

"""C1 — §3.1.1: packet-filter drop detection.

The paper's discipline: filters cannot be trusted to report their own
drops (reports may be absent, stale, or false), so tcpanaly infers
them from self-consistency checks — while *never* mistaking a genuine
network drop for a filter drop.

We sweep injected filter-drop rates (with a lying drop report), run
the check battery at both vantage points, and tabulate: detection
events vs. true drops, plus the false-positive rate on drop-free
filters over genuinely lossy networks.
"""

from repro.capture.errors import DropInjector
from repro.capture.filter import PacketFilter
from repro.core.calibrate import calibrate_trace
from repro.harness.scenarios import traced_transfer
from repro.tcp.catalog import get_behavior
from repro.units import kbyte

from benchmarks.conftest import emit


def run_sweep():
    rows = []
    for rate in (0.0, 0.02, 0.05, 0.10):
        for seed in range(3):
            sender_filter = PacketFilter(
                vantage="sender",
                drops=DropInjector(rate=rate, seed=seed,
                                   report_style="zero"))
            receiver_filter = PacketFilter(
                vantage="receiver",
                drops=DropInjector(rate=rate, seed=seed + 100,
                                   report_style="none"))
            transfer = traced_transfer(
                get_behavior("reno"), "wan-lossy", data_size=kbyte(50),
                seed=seed, sender_filter=sender_filter,
                receiver_filter=receiver_filter)
            sender_report = calibrate_trace(transfer.sender_trace,
                                            get_behavior("reno"))
            receiver_report = calibrate_trace(transfer.receiver_trace,
                                              get_behavior("reno"))
            rows.append({
                "rate": rate, "seed": seed,
                "sender_true": sender_filter.drops.true_drops,
                "sender_found": len(sender_report.drop_evidence),
                "receiver_true": receiver_filter.drops.true_drops,
                "receiver_found": len(receiver_report.drop_evidence),
            })
    return rows


def test_c1_filter_drop_detection():
    rows = run_sweep()

    lines = [f"{'rate':>6s} {'snd true':>9s} {'snd found':>10s} "
             f"{'rcv true':>9s} {'rcv found':>10s}"]
    for row in rows:
        lines.append(f"{row['rate']:6.2f} {row['sender_true']:9d} "
                     f"{row['sender_found']:10d} {row['receiver_true']:9d} "
                     f"{row['receiver_found']:10d}")
    lines.append("(network loss rate 3% throughout: zero-rate rows show "
                 "genuine drops are never misattributed to the filter)")
    emit("C1: filter-drop self-consistency checks (§3.1.1)", lines)

    # Shape: no false positives at rate 0; detection grows with the
    # injected rate and finds a solid fraction of real filter drops.
    for row in rows:
        if row["rate"] == 0.0:
            assert row["sender_found"] == 0
            assert row["receiver_found"] == 0
    heavy = [r for r in rows if r["rate"] >= 0.05]
    found = sum(r["sender_found"] + r["receiver_found"] for r in heavy)
    true = sum(r["sender_true"] + r["receiver_true"] for r in heavy)
    assert found >= 0.25 * true     # cumulative acks mask some ack drops
    assert found > 0

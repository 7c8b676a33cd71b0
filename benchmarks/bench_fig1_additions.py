"""F1 — Figure 1: packet filter duplication (IRIX 5.2/5.3).

The paper's Figure 1 shows every outgoing data packet recorded twice:
the first copies at >2.5 MB/s (OS sourcing rate — bogus timing) and
the second at ~1 MB/s (the Ethernet's rate — accurate timing).

We reproduce the phenomenon with the duplication injector on a LAN
transfer, regenerate the two-slope sequence plot, and verify tcpanaly
(a) detects the duplicates, (b) measures the two rates, and
(c) discards the later copies so analysis proceeds cleanly.
"""

from repro.analysis.seqplot import render_ascii_plot, sequence_plot
from repro.capture.errors import DuplicationInjector
from repro.capture.filter import PacketFilter
from repro.core.calibrate.additions import (
    detect_duplicates,
    remove_duplicates,
    slope_analysis,
)
from repro.core.sender.analyzer import analyze_sender
from repro.harness.scenarios import traced_transfer
from repro.tcp.catalog import get_behavior
from repro.units import kbyte

from benchmarks.conftest import emit


def run_duplicated_capture():
    packet_filter = PacketFilter(
        name="irix-5.2-filter", vantage="sender",
        duplication=DuplicationInjector(os_rate=2.6e6, wire_rate=1.0e6))
    transfer = traced_transfer(get_behavior("irix-5.2"), "lan",
                               data_size=kbyte(60),
                               sender_filter=packet_filter)
    trace = transfer.sender_trace
    duplicates = detect_duplicates(trace, behavior=get_behavior("irix-5.2"))
    slopes = slope_analysis(trace, duplicates)
    cleaned = remove_duplicates(trace, duplicates)
    analysis = analyze_sender(cleaned, get_behavior("irix-5.2"))
    return trace, duplicates, slopes, cleaned, analysis


def test_fig1_filter_duplication():
    trace, duplicates, slopes, cleaned, analysis = run_duplicated_capture()

    flow = trace.primary_flow()
    outbound = [r for r in trace if r.flow == flow and r.payload > 0]
    plot = sequence_plot(trace, title="Figure 1: packet filter duplication")
    emit("Figure 1: packet filter duplication", [
        render_ascii_plot(plot, width=70, height=18),
        f"outbound data records: {len(outbound)} "
        f"(every packet recorded twice)",
        f"duplicate pairs detected: {len(duplicates)}",
        f"first-copy rate:  {slopes.first_copy_rate / 1e6:.2f} MB/s "
        f"(paper: >2.5 MB/s, OS sourcing rate)",
        f"second-copy rate: {slopes.second_copy_rate / 1e6:.2f} MB/s "
        f"(paper: ~1 MB/s, Ethernet rate)",
        f"after discarding later copies: {len(cleaned)} records, "
        f"{analysis.violation_count} violations",
    ])

    # Shape: nearly every data packet is duplicated; the early copies
    # run at least ~2x the rate of the wire copies; cleaning restores
    # an analyzable trace.
    data_pairs = [d for d in duplicates if d.first.payload > 0]
    assert len(data_pairs) >= 0.9 * len(outbound) / 2
    assert slopes.first_copy_rate >= 1.8 * slopes.second_copy_rate
    assert slopes.second_copy_rate == pytest_approx(1.0e6, rel=0.35)
    assert analysis.violation_count == 0


def pytest_approx(value, rel):
    import pytest
    return pytest.approx(value, rel=rel)

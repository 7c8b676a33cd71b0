"""F4 — Figure 4: broken Linux 1.0 retransmission behavior (§8.5).

The paper's figure shows Linux 1.0 re-sending *every packet in
flight* whenever it decides to retransmit — spurred by a single dup
ack or by its premature timer — clogging the path with needless
copies.  The quoted connection sent 317 packets, 117 of them
retransmissions, with 20% of packets dropped: "if Linux 1.0 were
ubiquitous, its retransmission behavior would bring the Internet to
its knees."

We run Linux 1.0 and generic Reno over the identical lossy path,
regenerate the sequence plot, and check the shape: Linux's
retransmission count is many times Reno's, and whole flights appear
back-to-back in the trace.
"""

from repro.analysis.seqplot import render_ascii_plot, sequence_plot
from repro.core.sender.analyzer import analyze_sender
from repro.harness.scenarios import traced_transfer
from repro.tcp.catalog import get_behavior

from benchmarks.conftest import emit


def run_figure4():
    linux = traced_transfer(get_behavior("linux-1.0"), "wan-lossy",
                            data_size=51200, seed=3)
    reno = traced_transfer(get_behavior("reno"), "wan-lossy",
                           data_size=51200, seed=3)
    analysis = analyze_sender(linux.sender_trace, get_behavior("linux-1.0"))
    return linux, reno, analysis


def test_fig4_linux10_broken_retransmission():
    linux, reno, analysis = run_figure4()

    linux_sender = linux.result.sender
    reno_sender = reno.result.sender
    plot = sequence_plot(linux.sender_trace,
                         title="Figure 4: broken Linux 1.0 retransmission")
    counts = analysis.counts_by_kind()
    drops = linux.result.path.forward_bottleneck
    drop_fraction = ((drops.stats_loss_drops + drops.stats_queue_drops)
                     / max(drops.stats_offered, 1))
    emit("Figure 4: broken Linux 1.0 retransmission behavior", [
        render_ascii_plot(plot, width=70, height=18),
        f"Linux 1.0: {linux_sender.stats_data_packets} data packets, "
        f"{linux_sender.stats_retransmissions} retransmissions "
        f"(paper: 317 packets, 117 retransmissions)",
        f"  packets dropped by the network: {drop_fraction:.0%} "
        f"(paper: 20%)",
        f"  whole-flight bursts: {counts.get('flight_start', 0)} starts, "
        f"{counts.get('flight', 0)} continuation packets",
        f"Reno on the identical path: {reno_sender.stats_data_packets} "
        f"packets, {reno_sender.stats_retransmissions} retransmissions",
        f"load ratio Linux/Reno: "
        f"{linux_sender.stats_data_packets / reno_sender.stats_data_packets:.1f}x",
    ])

    # Shape: Linux retransmits in whole flights and sends several times
    # more retransmissions than Reno under identical loss; a sizable
    # fraction of its packets are needless copies.
    assert counts.get("flight", 0) > 20
    assert linux_sender.stats_retransmissions \
        >= 5 * max(reno_sender.stats_retransmissions, 1)
    rexmit_fraction = (linux_sender.stats_retransmissions
                       / linux_sender.stats_data_packets)
    assert 0.2 <= rexmit_fraction <= 0.8     # paper: 117/317 = 37%
    assert analysis.violation_count == 0

"""F5 — Figure 5: broken Solaris retransmission timer (§8.6).

The paper's figure shows a California→Netherlands transfer
(RTT ≈ 680 ms): the Solaris sender's ~300 ms initial RTO fires before
any ack can possibly return, and because an ack for retransmitted
data resets the timer to its erroneously small value, the RTO never
adapts — "the Solaris TCP sends almost as many retransmissions as new
packets, yet each retransmission is completely unnecessary!"

We run Solaris 2.4 and Reno over the same 680 ms path, regenerate the
sequence plot (every data packet sent twice — the doubled marks of
the figure), and check the shape: Solaris's retransmissions number
close to its new-data packets, all needless (zero actual loss), while
Reno retransmits nothing.  The SYN, which uses a separate timer, is
not retransmitted (the paper notes exactly this).
"""

from repro.analysis.seqplot import render_ascii_plot, sequence_plot
from repro.core.sender.analyzer import analyze_sender
from repro.harness.scenarios import traced_transfer
from repro.tcp.catalog import get_behavior

from benchmarks.conftest import emit


def run_figure5():
    solaris = traced_transfer(get_behavior("solaris-2.4"), "transatlantic",
                              data_size=51200)
    reno = traced_transfer(get_behavior("reno"), "transatlantic",
                           data_size=51200)
    analysis = analyze_sender(solaris.sender_trace,
                              get_behavior("solaris-2.4"))
    return solaris, reno, analysis


def test_fig5_solaris_premature_retransmission():
    solaris, reno, analysis = run_figure5()

    sender = solaris.result.sender
    trace = solaris.sender_trace
    flow = trace.primary_flow()
    syn_count = sum(1 for r in trace
                    if r.flow == flow and r.is_syn)
    bottleneck = solaris.result.path.forward_bottleneck
    true_drops = bottleneck.stats_loss_drops + bottleneck.stats_queue_drops
    plot = sequence_plot(trace, title="Figure 5: broken Solaris "
                         "retransmission, RTT = 680 msec")
    emit("Figure 5: broken Solaris retransmission behavior", [
        render_ascii_plot(plot, width=70, height=18),
        f"path RTT: {solaris.scenario.rtt * 1e3:.0f} ms "
        f"(paper: ~680 ms); initial RTO ≈ 300 ms",
        f"Solaris: {sender.stats_data_packets} data packets, "
        f"{sender.stats_retransmissions} retransmissions, "
        f"{sender.stats_timeouts} timeouts",
        f"  actual network drops: {true_drops} "
        f"(every retransmission unnecessary)",
        f"  SYN transmissions: {syn_count} "
        f"(paper: the SYN uses a different timer and is not re-sent)",
        f"Reno on the same path: "
        f"{reno.result.sender.stats_retransmissions} retransmissions",
        f"analyzer: {analysis.summary()}",
    ])

    # Shape: a large fraction of Solaris packets are retransmissions
    # ("almost as many retransmissions as new packets"), all needless;
    # Reno sends none; the SYN is never retransmitted.
    assert true_drops == 0
    assert sender.stats_retransmissions >= 0.3 * (
        sender.stats_data_packets - sender.stats_retransmissions)
    assert reno.result.sender.stats_retransmissions == 0
    assert syn_count == 1
    assert analysis.violation_count == 0
    # The retransmissions are classified as timer expirations, not as
    # loss recovery.
    assert analysis.counts_by_kind().get("timeout", 0) \
        >= sender.stats_timeouts * 0.8

"""F3 — Figure 3: the Net/3 uninitialized-cwnd bug (§8.4).

When the remote TCP's SYN-ack carries no MSS option, Net/3 leaves
cwnd and ssthresh at a huge value, so the first ack liberates the
*entire offered window* at once: the paper's figure shows ~30 packets
blasted into a 16,384-byte window, with losses all over.

We reproduce exactly that pairing (Net/3 sender, a receiver that
offers no MSS option and a 16 KB window), regenerate the sequence
plot, and compare against the same transfer when the receiver *does*
send an MSS option — the bug stays dormant and slow start is normal.
"""

from repro.analysis.seqplot import render_ascii_plot, sequence_plot
from repro.capture.filter import PacketFilter, attach_at_host
from repro.netsim.engine import Engine
from repro.netsim.network import build_path
from repro.tcp.catalog import get_behavior
from repro.tcp.connection import run_bulk_transfer
from repro.units import kbyte

from dataclasses import replace

from benchmarks.conftest import emit

OFFERED_WINDOW = 16384
BURST_WINDOW = 0.005   # packets within 5 ms of the first = one burst


def run_transfer(receiver_offers_mss: bool):
    engine = Engine()
    path = build_path(engine, queue_limit=12)
    packet_filter = PacketFilter(vantage="sender")
    attach_at_host(path.sender, packet_filter)
    receiver = replace(get_behavior("reno"),
                       offers_mss_option=receiver_offers_mss)
    result = run_bulk_transfer(get_behavior("net3"), receiver,
                               data_size=kbyte(50),
                               receiver_buffer=OFFERED_WINDOW, path=path)
    return packet_filter.trace(), result


def first_burst_size(trace):
    flow = trace.primary_flow()
    data = [r for r in trace if r.flow == flow and r.payload > 0]
    return sum(1 for r in data
               if r.timestamp - data[0].timestamp < BURST_WINDOW)


def run_figure3():
    buggy_trace, buggy_result = run_transfer(receiver_offers_mss=False)
    normal_trace, normal_result = run_transfer(receiver_offers_mss=True)
    return buggy_trace, buggy_result, normal_trace, normal_result


def test_fig3_net3_uninitialized_cwnd():
    buggy_trace, buggy_result, normal_trace, normal_result = run_figure3()

    buggy_burst = first_burst_size(buggy_trace)
    normal_burst = first_burst_size(normal_trace)
    path = buggy_result.path
    burst_drops = (path.forward_access.stats_queue_drops
                   + path.forward_bottleneck.stats_queue_drops)
    plot = sequence_plot(buggy_trace,
                         title="Figure 3: Net/3 uninitialized-cwnd bug")
    emit("Figure 3: Net/3 uninitialized-cwnd bug", [
        render_ascii_plot(plot, width=70, height=18),
        f"SYN-ack without MSS option, {OFFERED_WINDOW}-byte window:",
        f"  first flight: {buggy_burst} packets "
        f"(paper: ~30 packets fill the whole window)",
        f"  network drops during the transfer: {burst_drops} "
        f"(paper: 14 of the first 61 packets lost)",
        f"SYN-ack with MSS option (bug dormant):",
        f"  first flight: {normal_burst} packet(s) — ordinary slow start",
    ])

    # Shape: the bug floods the full window in one burst (~window/MSS
    # packets) and overflows queues; the dormant case starts with one.
    assert buggy_burst >= 25
    assert buggy_burst >= OFFERED_WINDOW // 536 - 5
    assert normal_burst == 1
    assert burst_drops > 0
    assert buggy_result.completed and normal_result.completed

"""R6 — §2 (RECONSTRUCTED): Stevens' web-server SYN observations.

§2 summarizes [St96]'s analysis of connections arriving at a busy
Net/3 web server: "almost 10% of all SYN packets were retransmitted;
some remote TCPs sent storms of up to 30 SYNs/sec all requesting the
same connection; and some remote TCPs did not correctly back off
their connection-establishment retry timer."

We reconstruct the server-side view: a population of clients connects
across paths that lose some handshakes; one client's SYN timer is
broken (no backoff, sub-second retry).  The server-side trace then
shows all three findings.
"""

from dataclasses import replace

from repro.capture.filter import PacketFilter, attach_at_host
from repro.netsim.engine import Engine
from repro.netsim.link import DeterministicLoss
from repro.netsim.network import build_path
from repro.tcp.catalog import get_behavior
from repro.tcp.connection import run_bulk_transfer
from repro.units import kbyte

from benchmarks.conftest import emit

#: 20 clients; for three of them the network eats the SYN-ack (and for
#: one, the second SYN-ack too) — so the *server* sees the client's
#: retransmitted SYNs, exactly Stevens' vantage.
CLIENTS = 20
SYNACK_EATERS = {4: [1], 11: [1], 17: [1, 2]}

#: The [St96] broken client: retries ~every 40 ms with no backoff.
BROKEN_CLIENT = replace(
    get_behavior("trumpet-2.0b"),
    initial_syn_timeout=0.040, syn_backoff_factor=1.0, max_syn_retries=40)


def client_syn_times(index: int) -> list[float]:
    """Run one client's connection; return its SYN send times as the
    server-side filter records them."""
    engine = Engine()
    drops = SYNACK_EATERS.get(index, [])
    loss = DeterministicLoss(drop_nth=drops) if drops else None
    path = build_path(engine, reverse_loss=loss)
    packet_filter = PacketFilter(vantage="receiver")
    attach_at_host(path.receiver, packet_filter)
    behavior = get_behavior(("reno", "solaris-2.4", "linux-1.0",
                             "windows-95")[index % 4])
    run_bulk_transfer(behavior, data_size=kbyte(4), path=path,
                      max_duration=60)
    return [r.timestamp for r in packet_filter.trace() if r.is_syn
            and not r.has_ack]


def broken_client_syn_times() -> list[float]:
    """The storm: the server is unreachable; the broken client fires."""
    engine = Engine()
    path = build_path(engine,
                      forward_loss=DeterministicLoss(
                          predicate=lambda s: "drop"))
    packet_filter = PacketFilter(vantage="sender")
    attach_at_host(path.sender, packet_filter)
    run_bulk_transfer(BROKEN_CLIENT, data_size=1024, path=path,
                      max_duration=60)
    return [r.timestamp for r in packet_filter.trace() if r.is_syn]


def run_study():
    total_syns = 0
    retransmitted = 0
    backoff_ok = 0
    retriers = 0
    for index in range(CLIENTS):
        times = client_syn_times(index)
        total_syns += len(times)
        retransmitted += max(len(times) - 1, 0)
        if len(times) >= 3:
            retriers += 1
            gaps = [b - a for a, b in zip(times, times[1:])]
            if all(later > earlier * 1.5
                   for earlier, later in zip(gaps, gaps[1:])):
                backoff_ok += 1
    storm = broken_client_syn_times()
    storm_rate = (len(storm) - 1) / (storm[-1] - storm[0])
    return (total_syns, retransmitted, retriers, backoff_ok, storm_rate,
            len(storm))


def test_r6_syn_behavior():
    (total_syns, retransmitted, retriers, backoff_ok, storm_rate,
     storm_count) = run_study()

    fraction = retransmitted / total_syns
    emit("R6: web-server SYN observations (§2 / [St96], reconstructed)", [
        f"SYN packets arriving at the server: {total_syns}, of which "
        f"{retransmitted} retransmitted ({fraction:.0%}) — paper: "
        f"almost 10%",
        f"clients retrying >=2 times: {retriers}; with correct "
        f"exponential backoff: {backoff_ok}",
        f"broken client: {storm_count} SYNs at {storm_rate:.0f}/sec for "
        f"one connection — paper: storms of up to 30 SYNs/sec",
    ])

    # Shape: retransmitted-SYN share in the ~10% regime; well-behaved
    # clients back off; the broken client's rate reaches tens/sec.
    assert 0.05 <= fraction <= 0.30
    assert backoff_ok == retriers
    assert storm_rate >= 20
    assert storm_count >= 20

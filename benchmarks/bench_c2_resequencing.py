"""C2 — §3.1.3: resequencing detection.

The paper found the Solaris 2.3/2.4 packet filter reordered its own
host's traffic in about 20% of traces (two code paths with different
latencies, timestamps applied at filter-processing time), while other
filters almost never resequenced.

We emulate both filter populations across a set of transfers — the
Solaris filter with the two-path injector, a clean BSD-style filter —
and tabulate the fraction of traces tcpanaly flags.
"""

from repro.capture.errors import ResequencingInjector
from repro.capture.filter import PacketFilter
from repro.core.calibrate import calibrate_trace
from repro.harness.scenarios import traced_transfer
from repro.tcp.catalog import get_behavior
from repro.units import kbyte

from benchmarks.conftest import emit

TRACES = 10


def run_populations():
    solaris_flagged = 0
    clean_flagged = 0
    events_total = 0
    for seed in range(TRACES):
        solaris_filter = PacketFilter(
            vantage="sender",
            resequencing=ResequencingInjector(seed=seed, jitter=0.003))
        transfer = traced_transfer(get_behavior("solaris-2.4"), "wan",
                                   data_size=kbyte(40), seed=seed,
                                   sender_filter=solaris_filter)
        report = calibrate_trace(transfer.sender_trace,
                                 get_behavior("solaris-2.4"))
        if report.resequencing:
            solaris_flagged += 1
            events_total += len(report.resequencing)

        clean = traced_transfer(get_behavior("solaris-2.4"), "wan",
                                data_size=kbyte(40), seed=seed)
        clean_report = calibrate_trace(clean.sender_trace,
                                       get_behavior("solaris-2.4"))
        if clean_report.resequencing:
            clean_flagged += 1
    return solaris_flagged, clean_flagged, events_total


def test_c2_resequencing_detection():
    solaris_flagged, clean_flagged, events_total = run_populations()

    emit("C2: resequencing detection (§3.1.3)", [
        f"Solaris-style filter: {solaris_flagged}/{TRACES} traces flagged "
        f"({events_total} events) — paper: ~20% of traces plagued",
        f"clean filter:         {clean_flagged}/{TRACES} traces flagged "
        f"— paper: almost never for other filters",
    ])

    # Shape: the defective filter population is flagged far more often
    # than the clean one, which is never flagged.
    assert solaris_flagged >= 2
    assert clean_flagged == 0

"""C3 — §3.1.4: time travel and paired-trace clock calibration.

The paper observed more than 500 time-travel instances, all on
BSDI 1.1 / NetBSD 1.0 tracing machines whose fast-running clocks were
periodically stepped back to an external reference.  Forward steps
are nearly invisible in a single trace but detectable from a trace
pair, as are relative skew between the endpoints' clocks.

We emulate the BSDI-style clock (fast rate + periodic hard sync),
count time travel across a trace population, and exercise the paired
analysis: skew estimation accuracy and step detection.
"""

from repro.capture.clock import SkewedClock, SteppingClock
from repro.capture.filter import PacketFilter
from repro.core.calibrate import calibrate_trace
from repro.core.calibrate.timing import detect_time_travel
from repro.harness.scenarios import traced_transfer
from repro.tcp.catalog import get_behavior
from repro.units import kbyte

from benchmarks.conftest import emit

TRACES = 8


def run_clock_study():
    # Population 1: BSDI-style fast clocks, hard-synced every 2 s.
    travel_traces = 0
    travel_events = 0
    for seed in range(TRACES):
        # A fast clock yanked back 150 ms every half-second: each yank
        # exceeds typical inter-record gaps, so timestamps decrease.
        clock = SteppingClock(rate=1.01,
                              steps=[(0.5, -0.15), (1.0, -0.15)])
        packet_filter = PacketFilter(vantage="sender", clock=clock)
        transfer = traced_transfer(get_behavior("reno"), "wan",
                                   data_size=kbyte(40), seed=seed,
                                   sender_filter=packet_filter)
        events = detect_time_travel(transfer.sender_trace)
        if events:
            travel_traces += 1
            travel_events += len(events)

    # Population 2: clean clocks — no time travel anywhere.
    clean_events = 0
    for seed in range(TRACES):
        transfer = traced_transfer(get_behavior("reno"), "wan",
                                   data_size=kbyte(40), seed=seed)
        clean_events += len(detect_time_travel(transfer.sender_trace))

    # Paired-trace skew estimation on a lightly loaded path.
    skew_filter = PacketFilter(vantage="sender",
                               clock=SkewedClock(rate=1.0005))
    skewed = traced_transfer(get_behavior("reno"), "wan",
                             data_size=kbyte(100),
                             sender_filter=skew_filter, sender_window=4096)
    skew_report = calibrate_trace(skewed.sender_trace, get_behavior("reno"),
                                  peer_trace=skewed.receiver_trace)

    # Paired-trace forward-step detection (invisible as time travel).
    step_filter = PacketFilter(vantage="sender",
                               clock=SteppingClock(steps=[(1.0, 0.5)]))
    stepped = traced_transfer(get_behavior("reno"), "wan",
                              data_size=kbyte(100),
                              sender_filter=step_filter, sender_window=4096)
    step_report = calibrate_trace(stepped.sender_trace, get_behavior("reno"),
                                  peer_trace=stepped.receiver_trace)
    forward_travel = detect_time_travel(stepped.sender_trace)

    return (travel_traces, travel_events, clean_events,
            skew_report.pair_analysis, step_report.pair_analysis,
            forward_travel)


def test_c3_clock_calibration():
    (travel_traces, travel_events, clean_events, skew, step,
     forward_travel) = run_clock_study()

    emit("C3: time travel and clock calibration (§3.1.4)", [
        f"BSDI-style clocks: {travel_traces}/{TRACES} traces show time "
        f"travel ({travel_events} events) — paper: >500 instances, all "
        f"BSDI 1.1 / NetBSD 1.0",
        f"clean clocks: {clean_events} events",
        f"relative skew estimate: {skew.relative_skew_ppm:+.0f} ppm "
        f"(true -500), detected={skew.skew_detected}",
        f"forward step: invisible as time travel "
        f"({len(forward_travel)} events) but found by pair analysis: "
        f"{[(round(a.time, 2), round(a.magnitude, 2)) for a in step.adjustments]}",
    ])

    # Shape: the defective clock population shows time travel, the
    # clean one none; skew estimated within 20%; the forward step is
    # caught only by the paired analysis.
    assert travel_traces == TRACES
    assert clean_events == 0
    assert skew.skew_detected
    assert abs(skew.relative_skew_ppm + 500) < 100
    assert forward_travel == []
    assert len(step.adjustments) == 1
    assert abs(step.adjustments[0].magnitude + 0.5) < 0.1

"""R4 — §9.3 (RECONSTRUCTED): ack-generation delay as RTT noise.

The provided text ends §9's preamble with: "We finish with an analysis
of response delays, namely how long it takes a TCP receiver to
generate its acknowledgements (§9.3).  Variations in response times
can introduce a significant noise term for senders that attempt to
measure round-trip times (RTTs) to high resolution."  §9.3 itself
falls in the truncated region; this bench reconstructs its
measurement.

On a lightly loaded path (no queueing noise), the spread of
sender-side RTT samples above the path floor is almost entirely the
receiver's acking delay:

* every-packet ackers (Linux 1.0): sub-millisecond noise;
* Solaris's 50 ms one-shot timer: delayed acks stamp exactly +50 ms;
* BSD's free-running heartbeat: anything up to +200 ms;
* a consumption-acking BSD receiver with a slow application: the
  reader's schedule leaks into every RTT sample.
"""

from repro.harness.scenarios import Scenario, traced_transfer
from repro.tcp.catalog import get_behavior
from repro.units import mbit, seq_ge

from benchmarks.conftest import emit

#: Fat, short path: serialization + queueing ≈ 0 next to ack delays.
QUIET_PATH = Scenario("quiet", bottleneck_bandwidth=mbit(10.0),
                      bottleneck_delay=0.010)


def rtt_samples(trace) -> list[float]:
    """Sender-side RTT samples: first transmission of each segment to
    the first ack covering it (what an RTT-measuring sender gets)."""
    flow = trace.primary_flow()
    reverse = flow.reversed()
    sent: dict[int, float] = {}
    samples = []
    pending: list[tuple[int, float]] = []
    for record in trace:
        if record.flow == flow and record.payload > 0:
            if record.seq not in sent:
                sent[record.seq] = record.timestamp
                pending.append((record.seq_end, record.timestamp))
        elif record.flow == reverse and record.has_ack and not record.is_syn:
            while pending and seq_ge(record.ack, pending[0][0]):
                end, at = pending.pop(0)
                samples.append(record.timestamp - at)
    return samples


def noise_stats(samples: list[float]) -> tuple[float, float]:
    """(p50, p90) of RTT noise = sample − floor."""
    floor = min(samples)
    noise = sorted(s - floor for s in samples)
    return (noise[len(noise) // 2], noise[int(len(noise) * 0.9)])


def run_study():
    rows = []
    cases = [
        ("linux-1.0", {"sender_window": 512}, "every-packet acker"),
        ("solaris-2.4", {"sender_window": 512}, "50 ms one-shot timer"),
        ("reno", {"sender_window": 512},
         "200 ms heartbeat, single-segment rounds"),
        ("reno", {"sender_window": 1024},
         "200 ms heartbeat, paired segments (prompt reader)"),
        ("reno", {"sender_window": 1024, "receiver_buffer": 16384,
                  "consume_rate": 40000.0},
         "200 ms heartbeat, slow reader (consumption acking)"),
    ]
    for implementation, kwargs, description in cases:
        # The BSD heartbeat free-runs from boot: pool several phases,
        # as the paper's many-connection corpus implicitly did.
        samples = []
        phases = ([0.0] if implementation != "reno"
                  else [i * 0.029 for i in range(7)])
        for phase in phases:
            transfer = traced_transfer(
                get_behavior(implementation), QUIET_PATH,
                data_size=51200, heartbeat_phase=phase, **kwargs)
            samples.extend(rtt_samples(transfer.sender_trace))
        p50, p90 = noise_stats(samples)
        rows.append({"implementation": implementation,
                     "description": description,
                     "samples": len(samples), "p50": p50, "p90": p90})
    return rows


def test_r4_ack_generation_noise():
    rows = run_study()

    lines = [f"{'receiver':14s} {'n':>4s} {'p50 noise':>10s} "
             f"{'p90 noise':>10s}  policy"]
    for row in rows:
        lines.append(f"{row['implementation']:14s} {row['samples']:4d} "
                     f"{row['p50'] * 1e3:9.1f}ms {row['p90'] * 1e3:9.1f}ms"
                     f"  {row['description']}")
    lines.append("(path floor subtracted; a quiet path makes receiver ack "
                 "delay the dominant noise term, §9.3's point)")
    emit("R4: ack-generation delay as RTT-measurement noise "
         "(§9.3, reconstructed)", lines)

    by_description = {r["description"]: r for r in rows}
    linux = by_description["every-packet acker"]
    solaris = by_description["50 ms one-shot timer"]
    bsd_single = by_description["200 ms heartbeat, single-segment rounds"]
    bsd_paired = by_description[
        "200 ms heartbeat, paired segments (prompt reader)"]
    bsd_slow = by_description[
        "200 ms heartbeat, slow reader (consumption acking)"]
    # Shape (§9.1/§9.3): every-packet acking ≈ noiseless; Solaris
    # delayed acks stamp at ~50 ms; the heartbeat injects up to 200 ms
    # when segments arrive singly, but is quiet for prompt pairs; and
    # a slow application leaks its schedule into the samples.
    assert linux["p90"] < 0.005
    assert 0.030 <= solaris["p90"] <= 0.065
    assert bsd_single["p90"] > solaris["p90"]
    assert bsd_single["p90"] <= 0.210
    assert bsd_paired["p90"] < 0.010
    assert bsd_slow["p90"] > bsd_paired["p90"] + 0.010

"""S3 — serve chaos: poisoned sources cannot hurt healthy ones.

The governance layer's acceptance gate.  One daemon tails a fleet of
sources of which several are deliberately hostile:

* a **crash-loop** source — every flow kills its analysis worker
  (fault-injected), so its circuit breaker must trip and quarantine;
* a **decode-storm** source — valid pcap framing whose every record
  is garbage, the classic "someone pointed the daemon at noise" case;
* a **rotation** source — truncated in place mid-tail, logrotate
  style;
* with ``SERVE_CHAOS_ENOSPC=1`` (the default), a windowed **ENOSPC**
  fault against the sink, so some appends fail and park mid-run.

The gate, asserted at the end:

1. the daemon exits 0 — poisoned sources never take the process down;
2. breakers are quarantined for exactly the poisoned sources, and
   ``closed`` for every healthy one;
3. each healthy source's JSONL is **byte-identical** to a one-shot
   ``tcpanaly batch --stream`` over the same capture (modulo the
   capture-wide ``ingest`` block) — chaos cost the healthy traffic
   nothing, not even ordering within a source;
4. no sink line was lost or duplicated despite the ENOSPC window
   (parked payloads flush once the "disk" recovers).

CI runs a reduced configuration via ``SERVE_CHAOS_SOURCES``.  On
failure the out directory (sink + journal) is the reproducer; the CI
job uploads it as an artifact.
"""

import json
import os
from pathlib import Path

from repro.harness.corpus import generate_interleaved_capture
from repro.harness.faults import (
    FaultPlan,
    FaultSpec,
    ResourceFaultPlan,
    ResourceFaultSpec,
    decode_storm_bytes,
)
from repro.pipeline.runner import BatchItem, run_batch
from repro.serve import ServeConfig, ServeDaemon
from repro.trace.pcap import write_pcap

from benchmarks.conftest import emit

#: Healthy sources in the fleet (poisoned ones ride on top).
HEALTHY_SOURCES = int(os.environ.get("SERVE_CHAOS_SOURCES", "4"))
CONNECTIONS = int(os.environ.get("SERVE_CHAOS_CONNECTIONS", "4"))
ENOSPC = os.environ.get("SERVE_CHAOS_ENOSPC", "1") == "1"
IMPLEMENTATIONS = ["reno", "tahoe", "linux-1.0"]


def write_healthy_captures(directory):
    paths = []
    for index in range(HEALTHY_SOURCES):
        capture = generate_interleaved_capture(
            implementations=[IMPLEMENTATIONS[index %
                                             len(IMPLEMENTATIONS)]],
            connections=CONNECTIONS, scenarios=("wan",),
            data_size=8192)
        path = directory / f"healthy-{index}.pcap"
        write_pcap(capture.trace, path)
        paths.append(path)
    return paths


def write_poisoned_captures(directory, donor_bytes):
    # Crash-loop: a *valid* capture whose flows are all fault-killed.
    crash = directory / "crashloop.pcap"
    crash.write_bytes(donor_bytes)
    # Decode storm: pcap framing, garbage records — every record is a
    # decode error, zero flows, but the reader never raises.
    storm = directory / "storm.pcap"
    storm.write_bytes(decode_storm_bytes(records=256))
    # Rotation victim: starts as a healthy capture, gets truncated in
    # place once the daemon has consumed past the cut.
    rotate = directory / "rotating.pcap"
    rotate.write_bytes(donor_bytes)
    return crash, storm, rotate


def batch_stream_lines(path) -> list[str]:
    batch = run_batch([BatchItem(name=path.name, path=path)],
                      jobs=2, stream=True)
    expected = []
    for result in batch.results:
        payload = dict(result.payload)
        payload.pop("ingest", None)
        expected.append(json.dumps(payload, sort_keys=True))
    return sorted(expected)


def sink_lines(out, source: str) -> list[str]:
    path = out / "results" / f"{source}.jsonl"
    if not path.exists():
        return []
    return sorted(json.dumps(json.loads(line), sort_keys=True)
                  for line in path.read_text().splitlines())


def run_serve_chaos(directory):
    healthy = write_healthy_captures(directory)
    donor_bytes = healthy[0].read_bytes()
    crash, storm, rotate = write_poisoned_captures(directory,
                                                   donor_bytes)

    fault_plan = FaultPlan((
        FaultSpec(match="crashloop.pcap#*", kind="kill"),))
    resource_faults = None
    if ENOSPC:
        # A windowed disk failure: fault-plan call counters are per
        # source, so arm after the first append to each source (every
        # source has at least one) and fail exactly the next one.
        # One failing call per source keeps the gate deterministic:
        # a parked payload's flush attempt is always that source's
        # call >= 2, past the window — the "disk" has recovered and
        # the flush must land, even when the park happened during the
        # daemon's final post-loop drain.
        resource_faults = ResourceFaultPlan((
            ResourceFaultSpec(kind="enospc", after_calls=1,
                              duration_calls=1),))

    out = directory / "chaos-out"
    daemon = ServeDaemon(ServeConfig(
        out_dir=out,
        captures=[*healthy, crash, storm, rotate],
        workers=2, retries=0, poll_interval=0.05,
        exit_when_idle=True, quiet_seconds=1.0,
        breaker_failures=1, breaker_backoff=0.1, breaker_trips=2,
        fault_plan=fault_plan, resource_faults=resource_faults))

    # Truncate the rotation victim in place once its tailer has read
    # past the cut — do it from the loop's own thread boundary by
    # simply rewriting before run(): the tailer consumes the full
    # file on its first poll, so rewrite *during* the run via a
    # one-shot timer instead.
    import threading

    def truncate_rotating():
        rotate.write_bytes(donor_bytes[:128])

    timer = threading.Timer(0.5, truncate_rotating)
    timer.start()
    try:
        rc = daemon.run()
    finally:
        timer.cancel()

    states = daemon.breakers.states()
    comparisons = {}
    for path in healthy:
        comparisons[path.name] = (sink_lines(out, path.name),
                                  batch_stream_lines(path))
    return {
        "rc": rc,
        "states": states,
        "comparisons": comparisons,
        "counters": daemon.metrics.to_dict()["counters"],
        "health": daemon.metrics.health_state,
    }


def test_serve_chaos_liveness_gate(tmp_path):
    # SERVE_CHAOS_OUT redirects the working directory (captures, sink,
    # journal) somewhere CI can upload as a reproducer on failure.
    out_override = os.environ.get("SERVE_CHAOS_OUT")
    workdir = tmp_path
    if out_override:
        workdir = Path(out_override)
        workdir.mkdir(parents=True, exist_ok=True)
    result = run_serve_chaos(workdir)
    counters = result["counters"]
    states = result["states"]

    poisoned = {"crashloop.pcap", "storm.pcap", "rotating.pcap"}
    healthy_states = {source: state for source, state in states.items()
                      if source not in poisoned}
    emit(f"Serve chaos ({HEALTHY_SOURCES} healthy + {len(poisoned)} "
         f"poisoned sources, ENOSPC={'on' if ENOSPC else 'off'})", [
        f"exit code {result['rc']}, final health "
        f"{result['health']}",
        "breakers: " + ", ".join(f"{source}={state}"
                                 for source, state in sorted(
                                     states.items())),
        f"flows completed {counters['flows_completed']}, "
        f"cancelled {counters['flows_cancelled']}, "
        f"breaker trips {counters['breaker_trips']}, "
        f"quarantines {counters['breaker_quarantines']}",
        f"sink errors {counters['sink_errors']} (parked+flushed), "
        f"rotations {counters['rotations']}",
        f"healthy sources byte-identical to batch --stream: "
        f"{sum(got == want for got, want in result['comparisons'].values())}"
        f"/{HEALTHY_SOURCES}",
    ])

    # 1. Chaos never kills the daemon.
    assert result["rc"] == 0

    # 2. Quarantine hit exactly the poisoned sources.
    assert states["crashloop.pcap"] == "quarantined"
    assert states["storm.pcap"] == "quarantined"
    assert states["rotating.pcap"] == "quarantined"
    assert all(state == "closed"
               for state in healthy_states.values()), healthy_states

    # 3+4. Healthy output is byte-identical to batch --stream —
    # nothing lost, nothing duplicated, despite the ENOSPC window.
    for source, (got, want) in result["comparisons"].items():
        assert got == want, f"{source} diverged from batch --stream"
    if ENOSPC:
        assert counters["sink_errors"] >= 1

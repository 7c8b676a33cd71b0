"""S2 — live serve mode: chunked-tail equivalence, flat table ceiling.

The serve daemon's load-bearing promise is that *live* analysis costs
nothing in fidelity or memory:

* **Equivalence** — a capture appended in 4 KiB chunks while the
  daemon tails it yields per-flow JSONL byte-identical to a one-shot
  ``tcpanaly batch --stream`` over the finished file (modulo the
  capture-wide ``ingest`` block a growing capture cannot have);
* **Flat memory ceiling** — tailing a capture three times as long
  (same arrival cadence, connections retiring as new ones arrive)
  must not move the tailer's tracemalloc peak: the flow table holds
  the *live* connections, never the capture.  One-way transfer traces
  half-close (only the sender FINs), so the retirement path an
  always-on deployment relies on is the table's ``idle_timeout`` —
  the memory kernel sets a finite one, as ``--idle`` would.

CI runs a reduced configuration via ``SERVE_BENCH_CONNECTIONS`` and
``SERVE_BENCH_SCALE``.
"""

import gc
import json
import os
import threading
import time
import tracemalloc

from repro.harness.corpus import generate_interleaved_capture
from repro.pipeline.runner import BatchItem, run_batch
from repro.serve import CaptureTailer, ServeConfig, ServeDaemon
from repro.trace.pcap import write_pcap

from benchmarks.conftest import emit

CONNECTIONS = int(os.environ.get("SERVE_BENCH_CONNECTIONS", "50"))
SCALE = int(os.environ.get("SERVE_BENCH_SCALE", "3"))
IMPLEMENTATIONS = ["reno", "linux-1.0"]
CHUNK = 4096


def write_capture(directory, connections, name):
    capture = generate_interleaved_capture(
        implementations=IMPLEMENTATIONS, connections=connections,
        data_size=10240, distinct_transfers=4, start_interval=0.2)
    path = directory / name
    write_pcap(capture.trace, path)
    return capture, path


def tail_in_chunks(data: bytes, path) -> dict:
    """Feed *data* to a CaptureTailer 4 KiB at a time; account peaks."""
    path.write_bytes(b"")
    gc.collect()
    tracemalloc.start()
    try:
        tailer = CaptureTailer(path, idle_timeout=2.0)
        flows = 0
        peak_live = 0
        for start in range(0, len(data), CHUNK):
            with open(path, "ab") as handle:
                handle.write(data[start:start + CHUNK])
            flows += len(tailer.poll())
            peak_live = max(peak_live, tailer.live_flows)
        flows += len(tailer.finalize())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"flows": flows, "peak_live": peak_live, "peak_bytes": peak,
            "records": tailer.records_consumed}


def serve_growing_capture(data: bytes, grow, out) -> tuple[int, list[str]]:
    """Run the daemon over a capture that grows under it; return its
    exit code and the sink's key-sorted JSONL lines."""
    grow.write_bytes(data[:CHUNK])
    daemon = ServeDaemon(ServeConfig(
        out_dir=out, captures=[grow], workers=2, poll_interval=0.05,
        exit_when_idle=True, quiet_seconds=1.0))
    outcome = {}
    thread = threading.Thread(target=lambda: outcome.update(
        rc=daemon.run()), name="bench-serve-daemon")
    thread.start()
    for start in range(CHUNK, len(data), CHUNK):
        with open(grow, "ab") as handle:
            handle.write(data[start:start + CHUNK])
        time.sleep(0.002)
    thread.join(timeout=600)
    assert not thread.is_alive(), "daemon failed to reach idle exit"
    sink = out / "results" / f"{grow.name}.jsonl"
    lines = [json.dumps(json.loads(line), sort_keys=True)
             for line in sink.read_text().splitlines()]
    return outcome["rc"], lines


def run_serve_live(directory):
    base_capture, base_path = write_capture(directory, CONNECTIONS,
                                            "base.pcap")
    long_capture, long_path = write_capture(directory,
                                            CONNECTIONS * SCALE,
                                            "long.pcap")
    base_bytes = base_path.read_bytes()
    long_bytes = long_path.read_bytes()

    base_tail = tail_in_chunks(base_bytes, directory / "tail-base.pcap")
    long_tail = tail_in_chunks(long_bytes, directory / "tail-long.pcap")

    out = directory / "serve-out"
    rc, served = serve_growing_capture(base_bytes,
                                       directory / "grow.pcap", out)

    batch = run_batch([BatchItem(name="grow.pcap",
                                 path=directory / "grow.pcap")],
                      jobs=2, stream=True)
    expected = []
    for result in batch.results:
        payload = dict(result.payload)
        payload.pop("ingest", None)
        expected.append(json.dumps(payload, sort_keys=True))

    return {
        "base_records": len(base_capture.trace),
        "long_records": len(long_capture.trace),
        "base_tail": base_tail,
        "long_tail": long_tail,
        "rc": rc,
        "served": served,
        "expected": expected,
    }


def test_serve_live_equivalence_and_memory(tmp_path):
    result = run_serve_live(tmp_path)

    kib = 1024.0
    base, long_ = result["base_tail"], result["long_tail"]
    growth = long_["peak_bytes"] / base["peak_bytes"]
    emit(f"Live serve ({CONNECTIONS} connections, {CHUNK}-byte chunks, "
         f"{SCALE}x scale-up)", [
        f"{'capture':>8s} {'records':>8s} {'flows':>6s} "
        f"{'peak live':>9s} {'peak KiB':>9s}",
        f"{'base':>8s} {result['base_records']:8d} {base['flows']:6d} "
        f"{base['peak_live']:9d} {base['peak_bytes'] / kib:9.1f}",
        f"{'long':>8s} {result['long_records']:8d} {long_['flows']:6d} "
        f"{long_['peak_live']:9d} {long_['peak_bytes'] / kib:9.1f}",
        f"tailer peak growth at {SCALE}x connections: {growth:.2f}x",
        f"served {len(result['served'])} flow(s) from the growing "
        f"capture (exit {result['rc']}); batch --stream produced "
        f"{len(result['expected'])}",
    ])

    # Chunked tailing consumed every record and every connection.
    assert base["records"] == result["base_records"]
    assert base["flows"] == CONNECTIONS
    assert long_["flows"] == CONNECTIONS * SCALE

    # Flat ceiling: the flow table tracks *live* connections, so a
    # SCALE x longer capture must not move the tailer's memory peak,
    # and the peak live set must grow sublinearly in the total.
    assert long_["peak_bytes"] < 2 * base["peak_bytes"]
    assert long_["peak_live"] < base["peak_live"] * SCALE

    # The live-vs-batch equivalence gate, byte for byte.
    assert result["rc"] == 0
    assert sorted(result["served"]) == sorted(result["expected"])

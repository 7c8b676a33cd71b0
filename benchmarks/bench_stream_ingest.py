"""S1 — streaming ingest: constant reader memory at corpus scale.

The paper's study captured ~20,000 connections per site; captures of
that size cannot be slurped into memory before analysis.  This
benchmark writes two interleaved multi-connection captures — a base
one and one SCALE x longer — and measures:

* the tracemalloc peak of draining ``iter_pcap`` over each capture,
  asserting the streaming reader's peak does NOT grow with capture
  length (the O(1)-memory contract: large-capture peak < 2x the
  base-capture peak);
* the eager ``read_pcap`` peak on the large capture, asserting it
  dwarfs the streaming peak (an eager read holds the capture's column
  rows, about 50 B per record, while the streaming reader holds one
  chunk);
* demux fan-out: ``demux_pcap`` on the base capture yields exactly
  one flow per synthesized connection (50 in the full configuration).

CI runs a reduced configuration via ``STREAM_BENCH_CONNECTIONS`` and
``STREAM_BENCH_SCALE``.

The reader's read size is patched down to :data:`CHUNK_BYTES` so that
both captures span many chunks.  At the shipped 1 MiB, one ``read()``
of a capture smaller than a chunk allocates a full chunk before it
shrinks to the file's size, and that transient is the peak of the
streaming and the eager reader alike, which hides the property the
asserts claim.
"""

import gc
import os
import tracemalloc

from repro.harness.corpus import generate_interleaved_capture
from repro.stream import IngestStats, demux_pcap, iter_pcap
from repro.stream import reader as reader_module
from repro.trace.pcap import read_pcap, write_pcap
from repro.trace.wire import AddressMap

from benchmarks.conftest import emit

CONNECTIONS = int(os.environ.get("STREAM_BENCH_CONNECTIONS", "50"))
SCALE = int(os.environ.get("STREAM_BENCH_SCALE", "4"))
IMPLEMENTATIONS = ["reno", "linux-1.0"]
#: The reader's read size for this benchmark (see the module docstring).
CHUNK_BYTES = 16 << 10


def peak_bytes(function):
    """tracemalloc peak (bytes) of running ``function`` once."""
    gc.collect()
    tracemalloc.start()
    try:
        function()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def write_capture(directory, connections, name):
    capture = generate_interleaved_capture(
        implementations=IMPLEMENTATIONS, connections=connections,
        data_size=10240, distinct_transfers=4, start_interval=0.2)
    path = directory / name
    addresses = AddressMap()
    write_pcap(capture.trace, path, addresses=addresses)
    return capture, path, addresses


def run_ingest(directory):
    base_capture, base_path, base_addresses = write_capture(
        directory, CONNECTIONS, "base.pcap")
    large_capture, large_path, _ = write_capture(
        directory, CONNECTIONS * SCALE, "large.pcap")

    def drain(path):
        for _ in iter_pcap(path):
            pass

    base_peak = peak_bytes(lambda: drain(base_path))
    large_peak = peak_bytes(lambda: drain(large_path))
    eager_peak = peak_bytes(lambda: read_pcap(large_path))

    streamed = sum(1 for _ in iter_pcap(large_path))
    eager = len(read_pcap(large_path))

    stats = IngestStats()
    flows = list(demux_pcap(base_path, addresses=base_addresses,
                            stats=stats))
    return {
        "truth_counts": sorted(f.records for f in base_capture.flows),
        "base_records": len(base_capture.trace),
        "large_records": len(large_capture.trace),
        "base_peak": base_peak,
        "large_peak": large_peak,
        "eager_peak": eager_peak,
        "streamed": streamed,
        "eager": eager,
        "flows": flows,
        "stats": stats,
    }


def test_stream_ingest_memory_and_fanout(tmp_path, monkeypatch):
    monkeypatch.setattr(reader_module, "CHUNK_BYTES", CHUNK_BYTES)
    result = run_ingest(tmp_path)

    kib = 1024.0
    growth = result["large_peak"] / result["base_peak"]
    emit(f"Streaming ingest ({CONNECTIONS}-connection capture, "
         f"{SCALE}x scale-up)", [
        f"{'reader':>10s} {'records':>8s} {'peak KiB':>9s}",
        f"{'stream':>10s} {result['base_records']:8d} "
        f"{result['base_peak'] / kib:9.1f}",
        f"{'stream':>10s} {result['large_records']:8d} "
        f"{result['large_peak'] / kib:9.1f}",
        f"{'eager':>10s} {result['large_records']:8d} "
        f"{result['eager_peak'] / kib:9.1f}",
        f"streaming peak growth at {SCALE}x records: {growth:.2f}x "
        f"(eager: {result['eager_peak'] / result['large_peak']:.1f}x "
        f"the streaming peak)",
        f"demux: {len(result['flows'])} flow(s) from "
        f"{CONNECTIONS} connection(s); "
        f"peak live flows {result['stats'].peak_live_flows}",
    ])

    # O(1) reader memory: a SCALE x longer capture must not move the
    # streaming peak, while the eager read pays a column row per record.
    assert result["streamed"] == result["eager"] \
        == result["large_records"]
    assert result["large_peak"] < 2 * result["base_peak"]
    assert result["eager_peak"] > 2 * result["large_peak"]

    # Fan-out: one flow per synthesized connection.
    assert len(result["flows"]) == CONNECTIONS
    assert result["stats"].flows_opened == CONNECTIONS
    assert sorted(f.packet_count for f in result["flows"]) \
        == result["truth_counts"]

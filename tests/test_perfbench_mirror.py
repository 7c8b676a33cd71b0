"""The benchmark's traced pass mirrors the batch runner line for line.

``perfbench.layers.TracedPass`` re-walks the per-flow path call by
call, under spans, and the benchmark only trusts its layer timings
because its payloads equal the program's.  These tests hold that
mirror to ``run_batch`` on small inputs, so a refactor of the per-flow
path cannot silently leave the benchmark measuring something else.
"""

from perfbench.layers import TracedPass
from repro.harness.corpus import generate_interleaved_capture, write_corpus
from repro.pipeline import corpus_items, result_line, run_batch
from repro.trace.pcap import write_pcap
from repro.units import kbyte


def _mirrored(workload, corpus_dir, stream):
    traced = TracedPass(workload)
    traced.run(sorted(corpus_dir.glob("*.pcap")))
    batch = run_batch(corpus_items(corpus_dir), jobs=1, stream=stream)
    return sorted(traced.lines), sorted(result_line(r)
                                        for r in batch.results)


def test_eager_pass_matches_batch(tmp_path):
    write_corpus(tmp_path, implementations=["reno", "linux-1.0"],
                 traces_per_implementation=1, data_size=kbyte(20))
    traced, batch = _mirrored("corpus-lossy", tmp_path, stream=False)
    assert len(batch) == 4
    assert traced == batch


def test_stream_pass_matches_batch(tmp_path):
    capture = generate_interleaved_capture(connections=6,
                                           data_size=kbyte(8))
    write_pcap(capture.trace, tmp_path / "fanout.pcap")
    traced, batch = _mirrored("capture-fanout", tmp_path, stream=True)
    assert len(batch) == 6
    assert traced == batch

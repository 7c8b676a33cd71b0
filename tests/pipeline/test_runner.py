"""Batch runner: determinism, parallelism, reuse, provenance."""

import pytest

from repro.harness.corpus import write_corpus
from repro.pipeline import (
    BatchJournal,
    corpus_items,
    run_batch,
    true_implementation,
    write_jsonl,
)

IMPLEMENTATIONS = ["reno", "linux-1.0"]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("corpus")
    write_corpus(outdir, implementations=IMPLEMENTATIONS,
                 traces_per_implementation=1, data_size=10240)
    return outdir


class TestTrueImplementation:
    def test_dashed_label_parsed_from_the_right(self):
        assert true_implementation("solaris-2.4-0003-sender.pcap") \
            == "solaris-2.4"

    def test_receiver_side(self):
        assert true_implementation("linux-1.0-0000-receiver.pcap") \
            == "linux-1.0"

    def test_unknown_label_is_none(self):
        assert true_implementation("mystery-os-0000-sender.pcap") is None

    def test_non_corpus_name_is_none(self):
        assert true_implementation("capture.pcap") is None


class TestCorpusItems:
    def test_items_sorted_with_provenance(self, corpus_dir):
        items = corpus_items(corpus_dir)
        assert len(items) == 2 * len(IMPLEMENTATIONS)
        assert [i.name for i in items] == sorted(i.name for i in items)
        assert {i.implementation for i in items} == set(IMPLEMENTATIONS)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            corpus_items(tmp_path)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            corpus_items(tmp_path / "nope")


class TestRunBatch:
    def test_sequential_results(self, corpus_dir):
        batch = run_batch(corpus_items(corpus_dir), jobs=1)
        assert len(batch.results) == 2 * len(IMPLEMENTATIONS)
        for result in batch.results:
            assert result.payload["trace"] == result.name
            assert result.payload["records"] > 0
            assert "calibration" in result.payload
            side = ("identification" if result.name.endswith("-sender.pcap")
                    else "receiver_identification")
            assert side in result.payload

    def test_parallel_matches_sequential_byte_for_byte(self, corpus_dir,
                                                       tmp_path):
        items = corpus_items(corpus_dir)
        sequential = run_batch(items, jobs=1)
        parallel = run_batch(items, jobs=2)
        write_jsonl(sequential.results, tmp_path / "seq.jsonl")
        write_jsonl(parallel.results, tmp_path / "par.jsonl")
        assert (tmp_path / "seq.jsonl").read_bytes() \
            == (tmp_path / "par.jsonl").read_bytes()

    def test_warm_cache_skips_all_analysis(self, corpus_dir, tmp_path):
        items = corpus_items(corpus_dir)
        path = tmp_path / "j.jsonl"
        with BatchJournal(path) as journal:
            cold = run_batch(items, jobs=1, journal=journal)
        assert cold.resumed == 0
        assert cold.analyzed == len(items)
        with BatchJournal(path, resume=True) as journal:
            warm = run_batch(items, jobs=1, journal=journal)
        assert warm.resumed == len(items)
        assert warm.analyzed == 0
        assert [r.payload for r in warm.results] \
            == [r.payload for r in cold.results]

    def test_changed_trace_invalidates_only_itself(self, corpus_dir,
                                                   tmp_path):
        items = corpus_items(corpus_dir)
        path = tmp_path / "j.jsonl"
        with BatchJournal(path) as journal:
            run_batch(items, jobs=1, journal=journal)
        victim = items[0].path
        data = victim.read_bytes()
        victim.write_bytes(data + b"\x00" * 4)  # truncated trailing packet
        try:
            with BatchJournal(path, resume=True) as journal:
                rerun = run_batch(corpus_items(corpus_dir), jobs=1,
                                  journal=journal)
        finally:
            victim.write_bytes(data)
        assert rerun.analyzed == 1
        assert rerun.resumed == len(items) - 1
        assert not next(r for r in rerun.results
                        if r.name == items[0].name).resumed

    def test_rejects_zero_jobs(self, corpus_dir):
        with pytest.raises(ValueError):
            run_batch(corpus_items(corpus_dir), jobs=0)

    def test_damaged_trace_yields_error_payload(self, corpus_dir,
                                                tmp_path):
        import shutil
        mixed = tmp_path / "mixed"
        shutil.copytree(corpus_dir, mixed)
        (mixed / "bad.pcap").write_bytes(b"garbage")
        batch = run_batch(corpus_items(mixed), jobs=1)
        by_name = {r.name: r.payload for r in batch.results}
        assert "error" in by_name["bad.pcap"]
        assert "identification" not in by_name["bad.pcap"]
        healthy = len(batch.results) - 1
        assert sum("error" not in p for p in by_name.values()) == healthy


class TestStreamMode:
    def test_single_connection_captures_keep_item_names(self, corpus_dir):
        items = corpus_items(corpus_dir)
        batch = run_batch(items, jobs=1, stream=True)
        assert [r.name for r in batch.results] == [i.name for i in items]
        for result in batch.results:
            assert result.payload["flow"]["index"] == 0
            assert result.payload["ingest"]["flows_opened"] == 1

    def test_multi_connection_capture_fans_out(self, tmp_path):
        from repro.harness.corpus import generate_interleaved_capture
        from repro.trace.pcap import write_pcap
        capture = generate_interleaved_capture(
            implementations=["reno"], connections=3,
            distinct_transfers=1, data_size=10240, scenarios=("wan",))
        outdir = tmp_path / "caps"
        outdir.mkdir()
        write_pcap(capture.trace, outdir / "multi.pcap")
        batch = run_batch(corpus_items(outdir), jobs=1, stream=True)
        assert [r.name for r in batch.results] == [
            "multi.pcap#flow-0000", "multi.pcap#flow-0001",
            "multi.pcap#flow-0002"]
        for result in batch.results:
            assert result.payload["ingest"]["flows_opened"] == 3

    def test_stream_parallel_matches_sequential(self, corpus_dir,
                                                tmp_path):
        items = corpus_items(corpus_dir)
        sequential = run_batch(items, jobs=1, stream=True)
        parallel = run_batch(items, jobs=2, stream=True)
        write_jsonl(sequential.results, tmp_path / "seq.jsonl")
        write_jsonl(parallel.results, tmp_path / "par.jsonl")
        assert (tmp_path / "seq.jsonl").read_bytes() \
            == (tmp_path / "par.jsonl").read_bytes()

    def test_stream_cache_round_trips_fanout(self, tmp_path):
        from repro.harness.corpus import generate_interleaved_capture
        from repro.trace.pcap import write_pcap
        capture = generate_interleaved_capture(
            implementations=["reno"], connections=2,
            distinct_transfers=1, data_size=10240, scenarios=("wan",))
        outdir = tmp_path / "caps"
        outdir.mkdir()
        write_pcap(capture.trace, outdir / "multi.pcap")
        path = tmp_path / "j.jsonl"
        with BatchJournal(path, stream=True) as journal:
            cold = run_batch(corpus_items(outdir), jobs=1, stream=True,
                             journal=journal)
        with BatchJournal(path, stream=True, resume=True) as journal:
            warm = run_batch(corpus_items(outdir), jobs=1, stream=True,
                             journal=journal)
        assert warm.analyzed == 0
        assert [r.payload for r in warm.results] \
            == [r.payload for r in cold.results]

    def test_damaged_capture_yields_error_payload(self, tmp_path):
        outdir = tmp_path / "caps"
        outdir.mkdir()
        (outdir / "bad.pcap").write_bytes(b"garbage")
        batch = run_batch(corpus_items(outdir), jobs=1, stream=True)
        payload, = [r.payload for r in batch.results]
        assert "error" in payload


class TestErrorClassification:
    @pytest.mark.parametrize("exception", [KeyError("afield"),
                                           RecursionError("too deep")])
    def test_analysis_defects_surface_as_model_errors(self, corpus_dir,
                                                      monkeypatch,
                                                      exception):
        def explode(*args, **kwargs):
            raise exception
        # The eager unit imports the analyzer when it runs.
        monkeypatch.setattr("repro.core.report.analyze_trace", explode)
        batch = run_batch(corpus_items(corpus_dir), jobs=1)
        for result in batch.results:
            assert result.payload["error_kind"] == "model"
            assert type(exception).__name__ in result.payload["error"]

    def test_unreadable_corpus_file_quarantined_as_io(self, corpus_dir,
                                                      tmp_path):
        import shutil
        mixed = tmp_path / "mixed"
        shutil.copytree(corpus_dir, mixed)
        # A directory with a .pcap name: content_digest() hits EISDIR
        # for every user, root included.
        (mixed / "locked.pcap").mkdir()
        batch = run_batch(corpus_items(mixed), jobs=1)
        by_name = {r.name: r.payload for r in batch.results}
        assert by_name["locked.pcap"]["error_kind"] == "io"
        # The rest of the batch still ran.
        assert sum("error" not in p for p in by_name.values()) \
            == len(batch.results) - 1

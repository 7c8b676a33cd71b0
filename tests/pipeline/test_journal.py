"""Checkpoint journal: content digests, durability, validation,
byte-identical resume."""

import json
import shutil

import pytest

from repro.harness.corpus import write_corpus
from repro.pipeline import BatchJournal, corpus_items, run_batch, write_jsonl
from repro.pipeline.journal import (
    ANALYSIS_SCHEMA_VERSION,
    file_digest,
    trace_digest,
)
from repro.pipeline.lines import encode_payload

from tests.conftest import cached_transfer


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("journal-corpus")
    write_corpus(outdir, implementations=["reno", "linux-1.0"],
                 traces_per_implementation=2, data_size=10240)
    return outdir


@pytest.fixture(scope="module")
def clean_jsonl(corpus_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("journal-clean") / "clean.jsonl"
    batch = run_batch(corpus_items(corpus_dir), jobs=1)
    write_jsonl(batch.results, path)
    return path


def _lines(name: str) -> list:
    return [encode_payload({"trace": name})]


class TestDigests:
    def test_trace_digest_stable(self):
        trace = cached_transfer("reno", data_size=10240).sender_trace
        assert trace_digest(trace) == trace_digest(trace)

    def test_trace_digest_distinguishes_traces(self):
        transfer = cached_transfer("reno", data_size=10240)
        assert trace_digest(transfer.sender_trace) \
            != trace_digest(transfer.receiver_trace)

    def test_file_digest_tracks_content(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"hello")
        first = file_digest(path)
        path.write_bytes(b"hello, world")
        assert file_digest(path) != first


class TestJournalMechanics:
    def test_records_and_looks_up(self, tmp_path):
        journal = BatchJournal(tmp_path / "j.jsonl")
        journal.record("a.pcap", "digest-a", _lines("a.pcap"))
        journal.close()
        resumed = BatchJournal(tmp_path / "j.jsonl", resume=True)
        assert len(resumed) == 1
        assert resumed.lookup("a.pcap", "digest-a") == _lines("a.pcap")
        resumed.close()

    def test_recorded_entries_are_written_not_kept(self, tmp_path):
        # A run never looks up what it recorded itself; a daemon's
        # memory must not grow with every journaled flow.
        journal = BatchJournal(tmp_path / "j.jsonl")
        journal.record("a.pcap", "digest-a", _lines("a.pcap"))
        assert len(journal) == 0
        assert journal.lookup("a.pcap", "digest-a") is None
        journal.close()

    def test_digest_mismatch_is_a_miss(self, tmp_path):
        journal = BatchJournal(tmp_path / "j.jsonl")
        journal.record("a.pcap", "digest-a", _lines("a.pcap"))
        journal.close()
        resumed = BatchJournal(tmp_path / "j.jsonl", resume=True)
        assert resumed.lookup("a.pcap", "digest-CHANGED") is None
        resumed.close()

    def test_without_resume_truncates(self, tmp_path):
        journal = BatchJournal(tmp_path / "j.jsonl")
        journal.record("a.pcap", "digest-a", _lines("a.pcap"))
        journal.close()
        fresh = BatchJournal(tmp_path / "j.jsonl", resume=False)
        assert len(fresh) == 0
        assert fresh.lookup("a.pcap", "digest-a") is None
        fresh.close()

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = BatchJournal(path)
        journal.record("a.pcap", "digest-a", _lines("a.pcap"))
        journal.record("b.pcap", "digest-b", _lines("b.pcap"))
        journal.close()
        # Simulate a crash mid-write: cut the final record in half.
        text = path.read_text()
        path.write_text(text[:len(text) - len(text.splitlines()[-1]) // 2
                             - 1])
        resumed = BatchJournal(path, resume=True)
        assert resumed.lookup("a.pcap", "digest-a") is not None
        assert resumed.lookup("b.pcap", "digest-b") is None
        resumed.close()

    def test_foreign_header_discards_the_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        header = {"journal": 1, "catalog": "someone-elses-catalog",
                  "schema": ANALYSIS_SCHEMA_VERSION, "stream": False}
        entry = {"name": "a.pcap", "digest": "d",
                 "payloads": [{"trace": "a.pcap"}]}
        path.write_text(json.dumps(header) + "\n"
                        + json.dumps(entry) + "\n")
        resumed = BatchJournal(path, resume=True)
        assert len(resumed) == 0
        resumed.close()

    def test_stream_and_eager_journals_do_not_mix(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = BatchJournal(path, stream=False)
        journal.record("a.pcap", "digest-a", _lines("a.pcap"))
        journal.close()
        resumed = BatchJournal(path, stream=True, resume=True)
        assert len(resumed) == 0
        resumed.close()

    def test_garbage_file_resumes_empty(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b"\x00\xffnot json at all")
        resumed = BatchJournal(path, resume=True)
        assert len(resumed) == 0
        resumed.close()


class TestResume:
    def test_interrupted_run_resumes_byte_identical(self, corpus_dir,
                                                    clean_jsonl, tmp_path):
        items = corpus_items(corpus_dir)
        half = len(items) // 2
        # "Interrupt" after half the corpus: only those are journaled.
        journal = BatchJournal(tmp_path / "j.jsonl")
        run_batch(items[:half], jobs=1, journal=journal)
        journal.close()
        resumed_journal = BatchJournal(tmp_path / "j.jsonl", resume=True)
        resumed = run_batch(items, jobs=2, timeout=60.0,
                            journal=resumed_journal)
        resumed_journal.close()
        assert resumed.resumed == half
        # Only the incomplete items were re-analyzed.
        assert resumed.analyzed == len(items) - half
        out = tmp_path / "resumed.jsonl"
        write_jsonl(resumed.results, out)
        assert out.read_bytes() == clean_jsonl.read_bytes()

    def test_fully_journaled_run_reanalyzes_nothing(self, corpus_dir,
                                                    clean_jsonl, tmp_path):
        items = corpus_items(corpus_dir)
        journal = BatchJournal(tmp_path / "j.jsonl")
        run_batch(items, jobs=1, journal=journal)
        journal.close()
        resumed_journal = BatchJournal(tmp_path / "j.jsonl", resume=True)
        resumed = run_batch(items, jobs=1, journal=resumed_journal)
        resumed_journal.close()
        assert resumed.resumed == len(items)
        assert resumed.analyzed == 0
        out = tmp_path / "resumed.jsonl"
        write_jsonl(resumed.results, out)
        assert out.read_bytes() == clean_jsonl.read_bytes()

    def test_changed_trace_is_reanalyzed_on_resume(self, corpus_dir,
                                                   tmp_path):
        items = corpus_items(corpus_dir)
        journal = BatchJournal(tmp_path / "j.jsonl")
        run_batch(items, jobs=1, journal=journal)
        journal.close()
        victim = items[0].path
        data = victim.read_bytes()
        victim.write_bytes(data + b"\x00" * 4)
        try:
            resumed_journal = BatchJournal(tmp_path / "j.jsonl",
                                           resume=True)
            resumed = run_batch(corpus_items(corpus_dir), jobs=1,
                                journal=resumed_journal)
            resumed_journal.close()
        finally:
            victim.write_bytes(data)
        assert resumed.resumed == len(items) - 1
        assert resumed.analyzed == 1

    def test_stream_mode_resume_round_trips_fanout(self, tmp_path):
        from repro.harness.corpus import generate_interleaved_capture
        from repro.trace.pcap import write_pcap
        capture = generate_interleaved_capture(
            implementations=["reno"], connections=2,
            distinct_transfers=1, data_size=10240, scenarios=("wan",))
        outdir = tmp_path / "caps"
        outdir.mkdir()
        write_pcap(capture.trace, outdir / "multi.pcap")
        journal = BatchJournal(tmp_path / "j.jsonl", stream=True)
        cold = run_batch(corpus_items(outdir), jobs=1, stream=True,
                         journal=journal)
        journal.close()
        resumed_journal = BatchJournal(tmp_path / "j.jsonl", stream=True,
                                       resume=True)
        warm = run_batch(corpus_items(outdir), jobs=1, stream=True,
                         journal=resumed_journal)
        resumed_journal.close()
        assert warm.resumed == 1
        assert warm.analyzed == 0
        assert [r.payload for r in warm.results] \
            == [r.payload for r in cold.results]
        assert len(warm.results) == 2   # one per connection

    def test_quarantined_items_are_journaled(self, corpus_dir, tmp_path):
        mixed = tmp_path / "mixed"
        shutil.copytree(corpus_dir, mixed)
        (mixed / "bad.pcap").write_bytes(b"garbage")
        journal = BatchJournal(tmp_path / "j.jsonl")
        run_batch(corpus_items(mixed), jobs=1, journal=journal)
        journal.close()
        resumed_journal = BatchJournal(tmp_path / "j.jsonl", resume=True)
        resumed = run_batch(corpus_items(mixed), jobs=1,
                            journal=resumed_journal)
        resumed_journal.close()
        # The decode failure was a completed outcome: not re-analyzed.
        assert resumed.analyzed == 0
        by_name = {r.name: r.payload for r in resumed.results}
        assert by_name["bad.pcap"]["error_kind"] == "decode"


class TestReuseKeepsEveryName:
    """Byte-identical traces under two names are two results: a payload
    carries its trace's name and label, so reuse is keyed by name."""

    @pytest.fixture(scope="class")
    def twin_dir(self, corpus_dir, tmp_path_factory):
        outdir = tmp_path_factory.mktemp("journal-twins")
        for side in ("sender", "receiver"):
            shutil.copy(corpus_dir / f"reno-0000-{side}.pcap", outdir)
        shutil.copy(corpus_dir / "reno-0000-sender.pcap",
                    outdir / "tahoe-0000-sender.pcap")
        return outdir

    @pytest.mark.parametrize("stream", [False, True])
    def test_resume_keeps_each_name_and_label(self, twin_dir, tmp_path,
                                              stream):
        items = corpus_items(twin_dir)
        path = tmp_path / "j.jsonl"
        with BatchJournal(path, stream=stream) as journal:
            fresh = run_batch(items, jobs=1, stream=stream,
                              journal=journal)
        with BatchJournal(path, stream=stream, resume=True) as journal:
            warm = run_batch(items, jobs=1, stream=stream,
                             journal=journal)
        assert warm.resumed == len(items)
        assert warm.analyzed == 0
        write_jsonl(fresh.results, tmp_path / "fresh.jsonl")
        write_jsonl(warm.results, tmp_path / "warm.jsonl")
        assert (tmp_path / "fresh.jsonl").read_bytes() \
            == (tmp_path / "warm.jsonl").read_bytes()
        lines = [json.loads(line) for line
                 in (tmp_path / "warm.jsonl").read_text().splitlines()]
        assert [(line["trace"], line["implementation"]) for line in lines] \
            == [(item.name, item.implementation) for item in items]
        assert ("tahoe-0000-sender.pcap", "tahoe") in \
            [(line["trace"], line["implementation"]) for line in lines]

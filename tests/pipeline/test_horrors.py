"""The corpus of horrors: everything a wild corpus can throw at the
pipeline, thrown at once.

The paper's headline claim is statistical survival — tcpanaly crossed
~40,000 wild packet-filter traces without one pathological trace
sinking the run.  These tests pin the reproduction to the same
contract: whatever is in the corpus (truncated pcaps, random bytes,
zero-length files, unreadable paths, injected hangs, crashes, and
corruption), ``run_batch`` completes, accounts for every item exactly
once, and keeps healthy-trace payloads byte-identical to a fault-free
run.
"""

import os
import shutil

import pytest

from repro.harness.corpus import write_corpus
from repro.harness.faults import FaultPlan, FaultSpec
from repro.pipeline import (
    BatchJournal,
    corpus_items,
    run_batch,
    write_jsonl,
)

IMPLEMENTATIONS = ["reno", "linux-1.0", "tahoe", "solaris-2.4"]


@pytest.fixture(scope="module")
def healthy_dir(tmp_path_factory):
    """A ≥40-trace healthy corpus (the chaos gate's substrate)."""
    outdir = tmp_path_factory.mktemp("horrors-healthy")
    write_corpus(outdir, implementations=IMPLEMENTATIONS,
                 traces_per_implementation=5, data_size=10240)
    assert len(list(outdir.glob("*.pcap"))) >= 40
    return outdir


@pytest.fixture(scope="module")
def clean_lines(healthy_dir, tmp_path_factory):
    """Fault-free JSONL lines, keyed by trace name."""
    import json
    path = tmp_path_factory.mktemp("horrors-clean") / "clean.jsonl"
    batch = run_batch(corpus_items(healthy_dir), jobs=2, timeout=120.0)
    write_jsonl(batch.results, path)
    return {json.loads(line)["trace"]: line
            for line in path.read_text().splitlines()}


class TestCorpusOfHorrors:
    @pytest.fixture()
    def horrors_dir(self, healthy_dir, tmp_path):
        horrors = tmp_path / "horrors"
        shutil.copytree(healthy_dir, horrors)
        # Random bytes where a pcap should be.
        (horrors / "random.pcap").write_bytes(os.urandom(512))
        # A zero-length file.
        (horrors / "zero.pcap").write_bytes(b"")
        # A valid header whose record stream is cut mid-header.
        donor = sorted(horrors.glob("reno-*.pcap"))[0].read_bytes()
        (horrors / "truncated.pcap").write_bytes(donor[:24 + 7])
        # An unreadable "file" (a directory opens with EISDIR even for
        # root, unlike a chmod-000 file).
        (horrors / "unreadable.pcap").mkdir()
        return horrors

    def test_every_horror_quarantined_every_item_counted_once(
            self, horrors_dir, clean_lines):
        batch = run_batch(corpus_items(horrors_dir), jobs=4, timeout=120.0)
        names = [r.name for r in batch.results]
        assert len(names) == len(set(names))
        assert len(names) == len(clean_lines) + 4
        by_name = {r.name: r.payload for r in batch.results}
        assert by_name["random.pcap"]["error_kind"] == "decode"
        assert by_name["zero.pcap"]["error_kind"] == "decode"
        assert by_name["unreadable.pcap"]["error_kind"] == "io"
        # The truncated trailer survives decode (partial-record
        # tolerance) or quarantines cleanly — either way it is counted
        # and classified, never fatal.
        truncated = by_name["truncated.pcap"]
        assert "error_kind" not in truncated \
            or truncated["error_kind"] in ("decode", "model")

    def test_healthy_payloads_unaffected_by_horrors(self, horrors_dir,
                                                    clean_lines, tmp_path):
        from repro.pipeline import result_line
        batch = run_batch(corpus_items(horrors_dir), jobs=4, timeout=120.0)
        healthy = [r for r in batch.results if r.name in clean_lines]
        assert len(healthy) == len(clean_lines)
        for result in healthy:
            assert result_line(result) == clean_lines[result.name]

    def test_unreadable_permissions_quarantined_as_io(self, healthy_dir,
                                                      tmp_path):
        if os.geteuid() == 0:
            pytest.skip("root ignores file permission bits")
        corpus = tmp_path / "perm"
        shutil.copytree(healthy_dir, corpus)
        victim = sorted(corpus.glob("*.pcap"))[0]
        victim.chmod(0)
        try:
            batch = run_batch(corpus_items(corpus), jobs=1)
        finally:
            victim.chmod(0o644)
        by_name = {r.name: r.payload for r in batch.results}
        assert by_name[victim.name]["error_kind"] == "io"
        assert sum("error" in p for p in by_name.values()) == 1


class TestChaosEquivalenceGate:
    """The acceptance gate: 1 killed worker, 1 hang past --timeout,
    2 corrupted inputs, on a ≥40-trace corpus."""

    @pytest.fixture(scope="class")
    def chaos_batch(self, healthy_dir):
        items = corpus_items(healthy_dir)
        assert len(items) >= 40
        victims = {
            "crash": items[5].name,
            "timeout": items[15].name,
            "decode-a": items[25].name,
            "decode-b": items[35].name,
        }
        plan = FaultPlan(specs=(
            FaultSpec(match=victims["crash"], kind="kill"),
            FaultSpec(match=victims["timeout"], kind="hang",
                      hang_seconds=300.0),
            FaultSpec(match=victims["decode-a"], kind="corrupt"),
            FaultSpec(match=victims["decode-b"], kind="corrupt",
                      corrupt_bytes=b"\x00\x00\x00\x00"),
        ))
        # 5 s is far above any healthy item (~0.2 s analysis + worker
        # start-up) even on a loaded runner, yet far below the 300 s
        # injected hang, so exactly the victims quarantine.
        batch = run_batch(items, jobs=4, timeout=5.0, retries=1,
                          fault_plan=plan)
        return victims, batch

    def test_run_completes_with_every_item_counted(self, chaos_batch,
                                                   clean_lines):
        _victims, batch = chaos_batch
        names = [r.name for r in batch.results]
        assert sorted(names) == sorted(clean_lines)

    def test_exactly_the_injected_failures_quarantined(self, chaos_batch):
        victims, batch = chaos_batch
        by_name = {r.name: r.payload for r in batch.results}
        quarantined = {name: p["error_kind"]
                       for name, p in by_name.items() if "error" in p}
        assert quarantined == {
            victims["crash"]: "crash",
            victims["timeout"]: "timeout",
            victims["decode-a"]: "decode",
            victims["decode-b"]: "decode",
        }

    def test_healthy_lines_byte_identical_to_fault_free_run(
            self, chaos_batch, clean_lines):
        from repro.pipeline import result_line
        victims, batch = chaos_batch
        victim_names = set(victims.values())
        for result in batch.results:
            if result.name in victim_names:
                continue
            assert result_line(result) == clean_lines[result.name]

    def test_interrupted_then_resumed_run_is_byte_identical(
            self, healthy_dir, clean_lines, tmp_path):
        items = corpus_items(healthy_dir)
        cut = len(items) // 3
        journal = BatchJournal(tmp_path / "j.jsonl")
        run_batch(items[:cut], jobs=2, timeout=120.0, journal=journal)
        journal.close()
        resumed_journal = BatchJournal(tmp_path / "j.jsonl", resume=True)
        resumed = run_batch(items, jobs=2, timeout=120.0,
                            journal=resumed_journal)
        resumed_journal.close()
        assert resumed.resumed == cut
        assert resumed.analyzed == len(items) - cut
        out = tmp_path / "resumed.jsonl"
        write_jsonl(resumed.results, out)
        expected = "".join(clean_lines[name] + "\n"
                           for name in sorted(clean_lines))
        assert out.read_text() == expected

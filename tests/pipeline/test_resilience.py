"""Supervised pool: crash recovery, timeouts, classified quarantine."""

import json
import os
from dataclasses import dataclass

import pytest

from repro.core.errors import AnalysisError, classify_exception
from repro.harness.corpus import write_corpus
from repro.harness.faults import FaultPlan, FaultSpec
from repro.pipeline import PoolSession, corpus_items, run_batch
from repro.pipeline.resilience import error_payload


@dataclass(frozen=True)
class Job:
    """Minimal batch-item protocol for direct PoolSession tests."""

    name: str
    implementation: str | None = None


def _echo_worker(index, item, attempt):
    return [{"item": item.name, "attempt": attempt, "pid": os.getpid()}]


def _crash_once_worker(index, item, attempt):
    if item.name == "bomb" and attempt == 0:
        os._exit(9)
    return [{"item": item.name, "attempt": attempt}]


def _raising_worker(index, item, attempt):
    raise KeyError("unguarded worker")


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("resilience-corpus")
    write_corpus(outdir, implementations=["reno", "linux-1.0"],
                 traces_per_implementation=2, data_size=10240)
    return outdir


@pytest.fixture(scope="module")
def clean_payloads(corpus_dir):
    batch = run_batch(corpus_items(corpus_dir), jobs=1)
    return {r.name: r.payload for r in batch.results}


class TestTaxonomy:
    def test_kinds_are_closed(self):
        with pytest.raises(ValueError):
            AnalysisError("meteor-strike", "boom")

    def test_value_error_classifies_as_decode(self):
        assert classify_exception(ValueError("bad magic")).kind == "decode"

    def test_struct_error_classifies_as_decode(self):
        import struct
        try:
            struct.unpack(">I", b"\x00")
        except struct.error as error:
            assert classify_exception(error).kind == "decode"

    def test_os_error_classifies_as_io(self):
        assert classify_exception(FileNotFoundError("gone")).kind == "io"

    def test_model_defects_classify_as_model(self):
        for error in (KeyError("x"), RecursionError("deep"),
                      ZeroDivisionError("div")):
            assert classify_exception(error).kind == "model"

    def test_analysis_error_passes_through(self):
        error = AnalysisError("timeout", "too slow")
        assert classify_exception(error) is error

    def test_stage_annotation_survives_classification(self):
        error = KeyError("x")
        error.analysis_stage = "identification"
        fields = classify_exception(error).to_fields()
        assert fields["error_stage"] == "identification"

    def test_error_payload_shape(self, corpus_dir):
        item = corpus_items(corpus_dir)[0]
        payload = error_payload(item, AnalysisError("crash", "died"),
                                attempts=3)
        assert payload["trace"] == item.name
        assert payload["error_kind"] == "crash"
        assert payload["attempts"] == 3


class TestSupervisedPoolHealthy:
    """``run_batch`` fanned out over a supervised :class:`PoolSession`."""

    def test_pool_matches_sequential(self, corpus_dir, clean_payloads):
        batch = run_batch(corpus_items(corpus_dir), jobs=4, timeout=60.0)
        assert {r.name: r.payload for r in batch.results} == clean_payloads

    def test_single_worker_pool(self, corpus_dir, clean_payloads):
        # jobs=1 with a timeout still runs supervised (in a subprocess).
        batch = run_batch(corpus_items(corpus_dir), jobs=1, timeout=60.0)
        assert {r.name: r.payload for r in batch.results} == clean_payloads

    def test_rejects_bad_parameters(self, corpus_dir):
        with pytest.raises(ValueError):
            PoolSession(0, _echo_worker)
        with pytest.raises(ValueError):
            PoolSession(1, _echo_worker, retries=-1)
        with pytest.raises(ValueError):
            run_batch(corpus_items(corpus_dir), jobs=0)
        with pytest.raises(ValueError):
            run_batch(corpus_items(corpus_dir), jobs=2, retries=-1)

    def test_empty_task_list(self):
        session = PoolSession(2, _echo_worker)
        assert list(session.drain()) == []
        session.close()
        batch = run_batch([], jobs=2, timeout=60.0)
        assert batch.results == []
        assert batch.analyzed == 0


class TestCrashRecovery:
    def test_killed_worker_is_requeued_and_retried(self, corpus_dir,
                                                   clean_payloads):
        victim = sorted(clean_payloads)[0]
        plan = FaultPlan(specs=(
            FaultSpec(match=victim, kind="kill", on_attempts=(0,)),))
        batch = run_batch(corpus_items(corpus_dir), jobs=2, timeout=60.0,
                          retries=2, fault_plan=plan)
        # The retry succeeded: every payload matches the clean run.
        assert {r.name: r.payload for r in batch.results} == clean_payloads

    def test_persistent_crasher_is_quarantined(self, corpus_dir,
                                               clean_payloads):
        victim = sorted(clean_payloads)[1]
        plan = FaultPlan(specs=(FaultSpec(match=victim, kind="kill"),))
        batch = run_batch(corpus_items(corpus_dir), jobs=2, timeout=60.0,
                          retries=1, fault_plan=plan)
        by_name = {r.name: r.payload for r in batch.results}
        assert by_name[victim]["error_kind"] == "crash"
        assert by_name[victim]["attempts"] == 2
        assert "exit code 9" in by_name[victim]["error"]
        healthy = {name: p for name, p in by_name.items() if name != victim}
        assert healthy == {name: p for name, p in clean_payloads.items()
                           if name != victim}

    def test_every_item_resolved_exactly_once(self, corpus_dir):
        items = corpus_items(corpus_dir)
        plan = FaultPlan(specs=(
            FaultSpec(match=items[0].name, kind="kill"),
            FaultSpec(match=items[2].name, kind="kill", on_attempts=(0, 1)),
        ))
        batch = run_batch(items, jobs=3, timeout=60.0, retries=2,
                          fault_plan=plan)
        names = [r.name for r in batch.results]
        assert sorted(names) == sorted(i.name for i in items)
        assert len(names) == len(set(names))


class TestTimeouts:
    def test_hung_trace_is_killed_and_quarantined(self, corpus_dir,
                                                  clean_payloads):
        victim = sorted(clean_payloads)[2]
        plan = FaultPlan(specs=(
            FaultSpec(match=victim, kind="hang", hang_seconds=120.0),))
        batch = run_batch(corpus_items(corpus_dir), jobs=2, timeout=1.0,
                          fault_plan=plan)
        by_name = {r.name: r.payload for r in batch.results}
        assert by_name[victim]["error_kind"] == "timeout"
        assert "1s wall-clock" in by_name[victim]["error"]
        healthy = {name: p for name, p in by_name.items() if name != victim}
        assert healthy == {name: p for name, p in clean_payloads.items()
                           if name != victim}


class TestPoolSession:
    """The incremental submit/poll substrate under ``run_batch`` and
    the serve scheduler."""

    def test_submit_poll_resolves_every_index_once(self):
        session = PoolSession(2, _echo_worker)
        for i in range(6):
            session.submit(i, Job(name=f"job-{i}"))
        seen = {}
        while session.outstanding > 0:
            for index, payloads, elapsed in session.poll():
                assert index not in seen
                assert elapsed >= 0.0
                seen[index] = payloads[0]["item"]
        session.close()
        assert seen == {i: f"job-{i}" for i in range(6)}

    def test_incremental_submission_between_polls(self):
        session = PoolSession(1, _echo_worker)
        session.submit(0, Job(name="first"))
        first = list(session.drain())
        session.submit(1, Job(name="second"))   # session still open
        second = list(session.drain())
        session.close()
        assert [p[0]["item"] for _i, p, _e in first] == ["first"]
        assert [p[0]["item"] for _i, p, _e in second] == ["second"]

    def test_same_shard_pins_to_one_worker(self):
        session = PoolSession(2, _echo_worker)
        for i in range(6):
            session.submit(i, Job(name=f"job-{i}"), shard=7)
        pids = set()
        while session.outstanding > 0:
            for _index, payloads, _elapsed in session.poll():
                pids.add(payloads[0]["pid"])
        session.close()
        assert len(pids) == 1

    def test_dead_worker_is_respawned_and_counted(self):
        session = PoolSession(1, _crash_once_worker, retries=2)
        session.submit(0, Job(name="bomb"))
        session.submit(1, Job(name="after"))
        results = {}
        while session.outstanding > 0:
            for index, payloads, _elapsed in session.poll():
                results[index] = payloads[0]
        session.close()
        assert session.worker_restarts >= 1
        assert results[0] == {"item": "bomb", "attempt": 1}
        assert results[1]["item"] == "after"

    def test_unguarded_exception_is_diagnosed_as_crash(self):
        session = PoolSession(1, _raising_worker, retries=1)
        session.submit(0, Job(name="defect"))
        results = list(session.drain())
        session.close()
        (index, lines, _elapsed), = results
        assert index == 0
        # The session's own diagnosis leaves encoded, like a worker's.
        assert lines[0].fields["error_kind"] == "crash"
        assert json.loads(lines[0].line)["attempts"] == 2

    def test_queue_accounting(self):
        session = PoolSession(1, _echo_worker)
        for i in range(4):
            session.submit(i, Job(name=f"job-{i}"))
        assert session.outstanding == 4
        assert session.inflight + session.queue_depth == 4
        while session.outstanding > 0:
            session.poll()
        assert session.queue_depth == 0
        assert session.inflight == 0
        session.close()

    def test_closed_session_rejects_submissions(self):
        session = PoolSession(1, _echo_worker)
        session.close()
        with pytest.raises(ValueError, match="closed"):
            session.submit(0, Job(name="late"))


class TestInjectedExceptions:
    @pytest.mark.parametrize("exception,kind", [
        ("KeyError", "model"),
        ("RecursionError", "model"),
        ("struct.error", "decode"),
        ("OSError", "io"),
    ])
    def test_worker_exceptions_classify_without_killing_the_pool(
            self, corpus_dir, exception, kind):
        items = corpus_items(corpus_dir)
        plan = FaultPlan(specs=(
            FaultSpec(match=items[0].name, kind="raise",
                      exception=exception),))
        batch = run_batch(items, jobs=2, timeout=60.0, fault_plan=plan)
        by_name = {r.name: r.payload for r in batch.results}
        assert by_name[items[0].name]["error_kind"] == kind
        assert sum("error" in p for p in by_name.values()) == 1

    def test_in_process_path_classifies_too(self, corpus_dir):
        items = corpus_items(corpus_dir)
        plan = FaultPlan(specs=(
            FaultSpec(match=items[1].name, kind="raise",
                      exception="RecursionError"),))
        batch = run_batch(items, jobs=1, fault_plan=plan)
        by_name = {r.name: r.payload for r in batch.results}
        assert by_name[items[1].name]["error_kind"] == "model"

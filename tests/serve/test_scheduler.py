"""Flow dispatch: sharding, journal-first durability, replay on restart."""

import json

import pytest

from repro.harness.faults import FaultPlan, FaultSpec
from repro.pipeline.journal import BatchJournal
from repro.serve import (
    BreakerBoard,
    FlowScheduler,
    FlowWorkItem,
    analyze_flow_item,
)
from repro.stream.flowtable import demux_records

from tests.conftest import cached_transfer


@pytest.fixture(scope="module")
def reno_flow():
    records = cached_transfer("reno").sender_trace.records
    flows = list(demux_records(records))
    assert len(flows) == 1
    return flows[0]


class TestFlowWorkItem:
    def test_name_carries_source_and_flow_index(self, reno_flow):
        item = FlowWorkItem("eth0.pcap", reno_flow)
        assert item.name == "eth0.pcap#flow-0000"

    def test_shard_is_stable_and_source_scoped(self, reno_flow):
        a = FlowWorkItem("one.pcap", reno_flow)
        b = FlowWorkItem("one.pcap", reno_flow)
        c = FlowWorkItem("two.pcap", reno_flow)
        assert a.shard() == b.shard()     # pure function, no hash salt
        assert a.shard() != c.shard()
        assert isinstance(a.shard(), int)

    def test_digest_tracks_the_flow_bytes(self, reno_flow):
        item = FlowWorkItem("one.pcap", reno_flow)
        assert item.content_digest() == item.content_digest()


class TestAnalyzeFlowItem:
    def test_payload_matches_batch_shape_minus_ingest(self, reno_flow):
        item = FlowWorkItem("cap.pcap", reno_flow, implementation="reno")
        lines = analyze_flow_item(0, item, 0)
        assert len(lines) == 1
        payload = json.loads(lines[0].line)
        assert lines[0].trace == payload["trace"] == "cap.pcap#flow-0000"
        assert payload["implementation"] == "reno"
        assert "identification" in payload
        assert "ingest" not in payload    # the capture is still growing

    def test_injected_failure_comes_back_classified(self, reno_flow):
        item = FlowWorkItem("cap.pcap", reno_flow)
        plan = FaultPlan((FaultSpec(match=item.name, kind="raise",
                                    exception="OSError"),))
        lines = analyze_flow_item(0, item, 0, fault_plan=plan)
        assert lines[0].fields["error_kind"] == "io"


class TestFlowScheduler:
    def test_round_trip_journals_then_replays(self, reno_flow, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        journal = BatchJournal(journal_path, stream=True, resume=True)
        scheduler = FlowScheduler(1, journal=journal)
        item = FlowWorkItem("cap.pcap", reno_flow, implementation="reno")
        assert scheduler.submit(item) == []
        results = scheduler.drain()
        scheduler.close()
        journal.close()
        assert [name for name, _ in results] == ["cap.pcap#flow-0000"]

        # A restarted scheduler replays the journaled flow instantly.
        journal = BatchJournal(journal_path, stream=True, resume=True)
        restarted = FlowScheduler(1, journal=journal)
        replay = restarted.submit(
            FlowWorkItem("cap.pcap", reno_flow, implementation="reno"))
        restarted.close()
        journal.close()
        assert replay == results
        assert restarted.replayed == 1

    def test_transient_failures_are_never_journaled(self, reno_flow,
                                                    tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        item = FlowWorkItem("cap.pcap", reno_flow)
        plan = FaultPlan((FaultSpec(match=item.name, kind="raise",
                                    exception="OSError"),))
        journal = BatchJournal(journal_path, stream=True, resume=True)
        scheduler = FlowScheduler(1, journal=journal, fault_plan=plan)
        scheduler.submit(item)
        results = scheduler.drain()
        scheduler.close()
        journal.close()
        assert results[0][1][0].fields["error_kind"] == "io"

        # Restart: the io quarantine was transient, so no replay —
        # the flow is analyzed again (and succeeds without the fault).
        journal = BatchJournal(journal_path, stream=True, resume=True)
        retried = FlowScheduler(1, journal=journal)
        assert retried.submit(FlowWorkItem("cap.pcap", reno_flow)) == []
        fresh = retried.drain()
        retried.close()
        journal.close()
        assert retried.replayed == 0
        assert "error_kind" not in fresh[0][1][0].fields

    def test_outstanding_and_queue_accounting(self, reno_flow, tmp_path):
        scheduler = FlowScheduler(1)
        for source in ("a.pcap", "b.pcap", "c.pcap"):
            scheduler.submit(FlowWorkItem(source, reno_flow))
        assert scheduler.outstanding == 3
        assert scheduler.queue_depth + scheduler.inflight <= 3
        results = scheduler.drain()
        scheduler.close()
        assert scheduler.outstanding == 0
        assert sorted(name for name, _ in results) == \
            ["a.pcap#flow-0000", "b.pcap#flow-0000", "c.pcap#flow-0000"]


class TestSchedulerGovernance:
    def test_results_are_accounted_to_source_breakers(self, reno_flow):
        board = BreakerBoard(failures=1, max_trips=1)
        plan = FaultPlan((FaultSpec(match="bad.pcap#*", kind="kill"),))
        scheduler = FlowScheduler(1, fault_plan=plan, retries=0,
                                  breakers=board)
        scheduler.submit(FlowWorkItem("bad.pcap", reno_flow))
        scheduler.submit(FlowWorkItem("good.pcap", reno_flow))
        scheduler.drain()
        scheduler.close()
        states = board.states()
        assert states["bad.pcap"] == "quarantined"
        assert states["good.pcap"] == "closed"

    def test_cancel_source_withdraws_only_queued_flows(self, reno_flow):
        scheduler = FlowScheduler(1)
        # Same shard per source+flow: all three of bad's items queue
        # behind each other; none may be in flight yet since we never
        # polled.  Good's item must survive the cancellation.
        for _ in range(3):
            scheduler.submit(FlowWorkItem("bad.pcap", reno_flow))
        scheduler.submit(FlowWorkItem("good.pcap", reno_flow))
        cancelled = scheduler.cancel_source("bad.pcap")
        assert scheduler.cancelled == len(cancelled)
        for name, lines in cancelled:
            assert name.startswith("bad.pcap#")
            assert lines[0].fields["error_kind"] == "cancelled"
        results = scheduler.drain()
        scheduler.close()
        names = [name for name, _ in results]
        assert "good.pcap#flow-0000" in names
        assert len(names) + len(cancelled) == 4

    def test_cancelled_is_transient_never_journaled(self, reno_flow,
                                                    tmp_path):
        journal = BatchJournal(tmp_path / "journal.jsonl", stream=True,
                               resume=True)
        # The in-flight item crashes (transient too); the queued one
        # is cancelled.  Either way nothing may reach the journal.
        plan = FaultPlan((FaultSpec(match="bad.pcap#*", kind="kill"),))
        scheduler = FlowScheduler(1, journal=journal, fault_plan=plan,
                                  retries=0)
        for _ in range(2):
            scheduler.submit(FlowWorkItem("bad.pcap", reno_flow))
        scheduler.cancel_source("bad.pcap")
        scheduler.drain()
        scheduler.close()
        journal.close()
        # Restart: every cancelled flow is re-analyzed from scratch.
        journal = BatchJournal(tmp_path / "journal.jsonl", stream=True,
                               resume=True)
        restarted = FlowScheduler(1, journal=journal)
        replay = restarted.submit(FlowWorkItem("bad.pcap", reno_flow))
        restarted.drain()
        restarted.close()
        journal.close()
        assert replay == []
        assert restarted.replayed == 0

    def test_journal_disk_failure_parks_then_flushes(self, reno_flow,
                                                     tmp_path, monkeypatch):
        journal = BatchJournal(tmp_path / "journal.jsonl", stream=True,
                               resume=True)
        scheduler = FlowScheduler(1, journal=journal)
        scheduler.submit(FlowWorkItem("cap.pcap", reno_flow))
        real_record = journal.record
        broken = {"on": True}

        def flaky_record(*args, **kwargs):
            if broken["on"]:
                raise OSError(28, "No space left on device")
            return real_record(*args, **kwargs)

        monkeypatch.setattr(journal, "record", flaky_record)
        results = scheduler.drain()
        assert len(results) == 1          # the result still flows on
        assert scheduler.journal_pending == 1
        assert scheduler.journal_errors == 1
        assert scheduler.flush_journal() == 0    # still failing
        broken["on"] = False
        assert scheduler.flush_journal() == 1
        assert scheduler.journal_pending == 0
        scheduler.close()
        journal.close()
        # The parked entry really landed: a restart replays it.
        journal = BatchJournal(tmp_path / "journal.jsonl", stream=True,
                               resume=True)
        restarted = FlowScheduler(1, journal=journal)
        replay = restarted.submit(FlowWorkItem("cap.pcap", reno_flow))
        restarted.close()
        journal.close()
        assert len(replay) == 1

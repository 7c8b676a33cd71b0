"""The daemon loop in-process: equivalence, backpressure, resilience.

Signal-driven drain (SIGTERM mid-stream) needs a real process and
lives in ``tests/test_serve_interrupt.py``; everything else about the
loop is exercised here via ``exit_when_idle``, the batch-comparison
shutdown shape.
"""

import json

import pytest

from repro.harness.corpus import generate_interleaved_capture
from repro.harness.faults import (
    FaultPlan,
    FaultSpec,
    ResourceFaultPlan,
    ResourceFaultSpec,
)
from repro.pipeline.runner import BatchItem, run_batch
from repro.serve import FlowScheduler, JsonlSink, ServeConfig, ServeDaemon
from repro.serve import tailer as tailer_module
from repro.trace.pcap import write_pcap


@pytest.fixture(scope="module")
def live_capture(tmp_path_factory):
    """A 4-connection interleaved capture on disk."""
    outdir = tmp_path_factory.mktemp("serve-capture")
    capture = generate_interleaved_capture(
        ["reno", "tahoe"], connections=4, scenarios=("wan",),
        data_size=8192)
    path = outdir / "live.pcap"
    write_pcap(capture.trace, path)
    return path


def serve_config(out_dir, **overrides) -> ServeConfig:
    spec = dict(out_dir=out_dir, workers=2, exit_when_idle=True,
                quiet_seconds=0.3, poll_interval=0.05)
    spec.update(overrides)
    return ServeConfig(**spec)


def sink_lines(out_dir, source: str) -> list[dict]:
    path = out_dir / "results" / f"{source}.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestLiveBatchEquivalence:
    def test_sink_matches_batch_stream_byte_for_byte(self, live_capture,
                                                     tmp_path):
        out = tmp_path / "out"
        daemon = ServeDaemon(serve_config(out, captures=[live_capture]))
        assert daemon.run() == 0

        batch = run_batch([BatchItem(name=live_capture.name,
                                     path=live_capture)],
                          jobs=1, stream=True)
        expected = []
        for result in batch.results:
            payload = dict(result.payload)
            payload.pop("ingest", None)   # capture-wide; serve has none
            expected.append(json.dumps(payload, sort_keys=True))
        got = [json.dumps(payload, sort_keys=True)
               for payload in sink_lines(out, live_capture.name)]
        assert sorted(got) == sorted(expected)
        assert daemon.metrics.flows_completed == len(expected)
        assert daemon.metrics.flows_quarantined == 0

    def test_rerun_replays_from_journal_without_reanalysis(
            self, live_capture, tmp_path):
        out = tmp_path / "out"
        first = ServeDaemon(serve_config(out, captures=[live_capture]))
        assert first.run() == 0
        lines_before = sink_lines(out, live_capture.name)

        second = ServeDaemon(serve_config(out, captures=[live_capture]))
        assert second.run() == 0
        assert second.metrics.journal_skips == len(lines_before)
        # The sink deduped every replayed flow: zero new lines.
        assert sink_lines(out, live_capture.name) == lines_before


class TestParentAccounting:
    def test_rolling_aggregates_count_each_submitted_flow(
            self, tmp_path, monkeypatch):
        """Flows retired mid-stream (idle) and at end of capture each
        feed the rolling aggregates once."""
        from collections import Counter

        from repro.serve import flow_retransmission_rate

        capture = generate_interleaved_capture(
            ["reno", "tahoe"], connections=6, scenarios=("wan",),
            data_size=4096, start_interval=80.0)
        path = tmp_path / "spaced.pcap"
        write_pcap(capture.trace, path)
        submitted = []
        submit = FlowScheduler.submit

        def recording(self, item):
            submitted.append(item.flow)
            return submit(self, item)

        monkeypatch.setattr(FlowScheduler, "submit", recording)
        daemon = ServeDaemon(serve_config(tmp_path / "out",
                                          captures=[path]))
        assert daemon.run() == 0
        rolling = daemon.metrics.to_dict()["rolling"]
        reasons = Counter(flow.close_reason for flow in submitted)
        assert set(reasons) == {"idle", "eof"}
        assert rolling["close_reasons"] == dict(reasons)
        assert rolling["retransmission_samples"] == len(submitted)
        rates = [flow_retransmission_rate(flow.to_trace())
                 for flow in submitted]
        assert rolling["retransmission_rate_mean"] \
            == sum(rates) / len(rates)

    def test_parent_builds_no_records(self, live_capture, tmp_path,
                                      record_builds):
        """The parent demultiplexes rows and feeds its gauges from
        columns; only the workers analyze, and they are other
        processes."""
        daemon = ServeDaemon(serve_config(tmp_path / "out",
                                          captures=[live_capture]))
        assert daemon.run() == 0
        assert daemon.metrics.flows_completed == 4
        assert daemon.metrics.to_dict()["rolling"][
            "retransmission_samples"] == 4
        assert record_builds == []


class TestSpoolDiscovery:
    def test_dropped_capture_is_analyzed(self, live_capture, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "drop.pcap").write_bytes(live_capture.read_bytes())
        out = tmp_path / "out"
        daemon = ServeDaemon(serve_config(out, spool=spool))
        assert daemon.run() == 0
        assert len(sink_lines(out, "drop.pcap")) == 4
        assert daemon.metrics.sources == 1


class TestSourceQuarantine:
    def test_non_pcap_source_gets_one_classified_line(self, tmp_path):
        bogus = tmp_path / "bogus.pcap"
        bogus.write_bytes(b"these bytes are not a capture at all....")
        out = tmp_path / "out"
        daemon = ServeDaemon(serve_config(out, captures=[bogus]))
        assert daemon.run() == 0
        lines = sink_lines(out, "bogus.pcap")
        assert len(lines) == 1
        assert lines[0]["error_kind"] == "decode"
        assert daemon.metrics.sources_failed == 1


class TestBackpressure:
    def test_slow_worker_pauses_tailing_then_recovers(self, tmp_path,
                                                      monkeypatch):
        # Connections spaced 20s apart in stream time: each closes and
        # the next connection's records push it past time-wait, so
        # flows retire *mid-stream* and queue on the single worker —
        # which a hang fault pins down for long enough that the queue
        # crosses the high-water mark and tailing must pause.
        capture = generate_interleaved_capture(
            ["reno", "tahoe"], connections=8, scenarios=("wan",),
            data_size=4096, start_interval=20.0)
        path = tmp_path / "busy.pcap"
        write_pcap(capture.trace, path)
        plan = FaultPlan((FaultSpec(match=0, kind="hang",
                                    hang_seconds=0.6),))
        out = tmp_path / "out"
        monkeypatch.setattr(tailer_module, "RECORDS_PER_POLL", 64)
        daemon = ServeDaemon(serve_config(
            out, captures=[path], workers=1,
            high_water=2, low_water=1, fault_plan=plan))
        assert daemon.run() == 0
        assert daemon.metrics.pause_events >= 1
        assert daemon.paused is False             # resumed before exit
        assert len(sink_lines(out, "busy.pcap")) == 8
        assert daemon.metrics.flows_quarantined == 0


class TestWorkerDeath:
    def test_persistent_crasher_quarantines_not_kills_the_daemon(
            self, live_capture, tmp_path):
        plan = FaultPlan((FaultSpec(match="live.pcap#flow-0000",
                                    kind="kill"),))
        out = tmp_path / "out"
        daemon = ServeDaemon(serve_config(
            out, captures=[live_capture], workers=1, retries=1,
            fault_plan=plan))
        assert daemon.run() == 0
        lines = {line["trace"]: line
                 for line in sink_lines(out, "live.pcap")}
        assert len(lines) == 4
        assert lines["live.pcap#flow-0000"]["error_kind"] == "crash"
        healthy = [line for name, line in lines.items()
                   if name != "live.pcap#flow-0000"]
        assert all("error_kind" not in line for line in healthy)
        assert daemon.metrics.worker_restarts >= 1
        assert daemon.metrics.flows_quarantined == 1


class TestSourceIsolation:
    def test_crash_looping_source_is_quarantined_healthy_ones_finish(
            self, live_capture, tmp_path):
        # Every flow of bad.pcap kills its worker; the breaker must
        # quarantine bad.pcap while live.pcap completes untouched.
        bad = tmp_path / "bad.pcap"
        bad.write_bytes(live_capture.read_bytes())
        plan = FaultPlan((FaultSpec(match="bad.pcap#*", kind="kill"),))
        out = tmp_path / "out"
        daemon = ServeDaemon(serve_config(
            out, captures=[live_capture, bad], workers=2, retries=0,
            fault_plan=plan, breaker_failures=1, breaker_trips=1))
        assert daemon.run() == 0
        assert daemon.breakers.states()["bad.pcap"] == "quarantined"
        assert daemon.breakers.states()["live.pcap"] == "closed"
        assert daemon.metrics.breaker_quarantines == 1
        healthy = sink_lines(out, "live.pcap")
        assert len(healthy) == 4
        assert all("error_kind" not in line for line in healthy)
        assert daemon.metrics.health_state == "healthy"

    def test_breaker_states_reach_the_stats_snapshot(self, live_capture,
                                                     tmp_path):
        out = tmp_path / "out"
        daemon = ServeDaemon(serve_config(out, captures=[live_capture]))
        assert daemon.run() == 0
        snapshot = daemon.metrics.to_dict()
        assert snapshot["health"]["state"] == "healthy"
        assert snapshot["health"]["breakers"] == {"live.pcap": "closed"}


class TestRotationPolicies:
    def drive(self, daemon, out):
        daemon._sink = JsonlSink(out / "results")
        daemon._scheduler = FlowScheduler(1)

    def finish(self, daemon):
        daemon._scheduler.close()
        daemon._sink.close()

    def test_quarantine_policy_emits_a_classified_line(self, live_capture,
                                                       tmp_path):
        data = live_capture.read_bytes()
        path = tmp_path / "rot.pcap"
        path.write_bytes(data)
        out = tmp_path / "out"
        daemon = ServeDaemon(serve_config(out, captures=[path]))
        self.drive(daemon, out)
        daemon._add_source(path)
        daemon._tail()
        path.write_bytes(data[:100])      # copytruncate under the tailer
        daemon._tail()
        self.finish(daemon)
        assert daemon.metrics.rotations == 1
        assert daemon.breakers.states()["rot.pcap"] == "quarantined"
        lines = sink_lines(out, "rot.pcap")
        assert lines[-1]["error_kind"] == "io"
        assert "rotated" in lines[-1]["error"]

    def test_restart_policy_retails_under_a_fresh_source_name(
            self, live_capture, tmp_path):
        data = live_capture.read_bytes()
        path = tmp_path / "rot.pcap"
        path.write_bytes(data)
        out = tmp_path / "out"
        daemon = ServeDaemon(serve_config(out, captures=[path],
                                          on_rotate="restart"))
        self.drive(daemon, out)
        old = daemon._add_source(path)
        daemon._tail()
        submitted_before = daemon.metrics.flows_submitted
        path.write_bytes(data[:100])
        daemon._tail()
        self.finish(daemon)
        assert daemon.metrics.rotations == 1
        # The truncated incarnation's open flows went to analysis...
        assert daemon.metrics.flows_submitted > submitted_before
        # ...and the new incarnation tails under a suffixed name, so
        # its flow names can never collide in the sink.
        assert daemon._by_path[path] is not old
        assert daemon._by_path[path].source == "rot.pcap~2"
        assert "quarantined" not in daemon.breakers.states().values()


class TestDegradationLadder:
    def test_memory_pressure_sheds_flows_and_recovers(self, tmp_path,
                                                      monkeypatch):
        # Connections spaced out in stream time with a tiny poll
        # budget: several flows are live at once, tripping the
        # max_live_flows watchdog, which early-retires the oldest.
        capture = generate_interleaved_capture(
            ["reno", "tahoe"], connections=6, scenarios=("wan",),
            data_size=4096, start_interval=20.0)
        path = tmp_path / "busy.pcap"
        write_pcap(capture.trace, path)
        out = tmp_path / "out"
        monkeypatch.setattr(tailer_module, "RECORDS_PER_POLL", 64)
        daemon = ServeDaemon(serve_config(
            out, captures=[path], max_live_flows=1))
        assert daemon.run() == 0
        assert daemon.metrics.flows_shed >= 1
        # Shedding split no work away: every record of every flow is
        # analyzed (a shed flow's remainder re-enters as a new flow).
        lines = sink_lines(out, "busy.pcap")
        assert len(lines) >= 6
        assert daemon.metrics.health_state == "healthy"   # recovered

    def test_sink_enospc_enters_journal_only_and_restart_replays(
            self, live_capture, tmp_path):
        out = tmp_path / "out"
        # First two sink appends succeed, then the disk "fills".
        faults = ResourceFaultPlan((
            ResourceFaultSpec(kind="enospc", after_calls=2),))
        first = ServeDaemon(serve_config(out, captures=[live_capture],
                                         resource_faults=faults))
        assert first.run() == 0           # never exits non-gracefully
        assert first.metrics.sink_errors >= 1
        written = sink_lines(out, live_capture.name)
        assert len(written) == 2          # the two that landed
        # Everything was journaled even though the sink could not
        # write: the restart replays and the missing lines land
        # exactly once, no duplicates.
        second = ServeDaemon(serve_config(out, captures=[live_capture]))
        assert second.run() == 0
        assert second.metrics.journal_skips == 4
        lines = sink_lines(out, live_capture.name)
        names = [line["trace"] for line in lines]
        assert len(names) == len(set(names)) == 4

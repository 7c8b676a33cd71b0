"""The serve daemon loop: tail → demux → dispatch → publish, forever.

One single-threaded loop ties the serve components together (workers
are processes; the only extra thread is the HTTP endpoint's):

1. govern: probe disk/memory pressure, advance the degradation
   ladder, process circuit-breaker transitions, retry parked sink and
   journal writes;
2. scan the spool directory for drop-in captures (new tailers) —
   unless the governor has paused discovery;
3. unless backpressure or the governor has paused tailing, poll every
   tailer whose circuit breaker admits it — newly landed records flow
   through the incremental reader and the flow table, and retired
   flows are submitted to the scheduler;
4. recompute backpressure: queue depth at or above the high-water
   mark pauses tailing (bytes stay safely on disk; ``ingest_lag``
   grows), at or below the low-water mark resumes it;
5. poll the scheduler for finished flows — each already journaled —
   and append them to the JSONL sink (which drops duplicates across
   restarts), or park them when the governor is in journal-only mode;
6. refresh the metric gauges the ``/stats`` and ``/metrics``
   endpoints snapshot.

Fault isolation is per *source*: a flow whose worker crashes or hangs
counts against its source's circuit breaker, a tripped source is
paused and retried with exponential backoff through a half-open
probe, and a source that keeps tripping is quarantined permanently —
its queued flows are withdrawn from the pool (``cancelled``, never
journaled) so healthy sources get the workers back.  A capture
rotated or truncated in place surfaces as a classified ``rotated``
condition handled per ``--on-rotate``: quarantine the source, or
restart tailing the new incarnation under a fresh source name.

Shutdown has two distinct shapes, and the difference is load-bearing:

- **Signal drain** (SIGTERM/SIGINT via :meth:`ServeDaemon.request_stop`):
  stop tailing immediately, finish every flow already retired and
  submitted, journal and sink the results, exit 0.  Flows still *open*
  in a flow table are deliberately NOT analyzed — they are incomplete,
  and a partial-flow result under a name the finished flow will later
  claim would poison the resume.  A restarted daemon re-tails from
  offset zero, the journal replays completed flows by name+digest,
  and the sink's dedupe guarantees zero duplicate lines.
- **Idle exit** (``exit_when_idle``): after ``quiet_seconds`` with no
  new bytes, no queued work, and no lag, the capture is declared
  complete — tailers finalize with end-of-capture semantics (trailing
  partial record, table drain), exactly as ``batch --stream`` treats
  a finished file.  This is the mode benchmarks and CI use to compare
  live output against batch output.  Sources whose breaker has been
  quarantined are excluded from finalize — the daemon gave up on them
  for cause.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import classify_exception
from repro.harness.faults import FaultPlan, ResourceFaultPlan
from repro.pipeline.journal import BatchJournal
from repro.pipeline.lines import PayloadLine, encode_payload
from repro.pipeline.runner import true_implementation
from repro.serve.governor import (
    DEFAULT_BREAKER_BACKOFF,
    DEFAULT_BREAKER_FAILURES,
    DEFAULT_BREAKER_TRIPS,
    BreakerBoard,
    ResourceGovernor,
)
from repro.serve.metrics import ServeMetrics, flow_retransmission_rate
from repro.serve.scheduler import FlowScheduler, FlowWorkItem
from repro.serve.sink import JsonlSink
from repro.serve.tailer import DEFAULT_RECORDS_PER_POLL, CaptureTailer
from repro.serve.watcher import SpoolWatcher
from repro.stream import Flow

#: ``--on-rotate`` policies for a capture rotated/truncated in place.
ROTATE_POLICIES = ("quarantine", "restart")


@dataclass
class ServeConfig:
    """Everything ``tcpanaly serve`` configures."""

    out_dir: Path
    captures: list[Path] = field(default_factory=list)
    spool: Path | None = None
    workers: int = 2
    timeout: float | None = None
    retries: int = 2
    http_port: int | None = None
    #: Queued-flow counts that pause/resume tailing.
    high_water: int = 64
    low_water: int = 8
    #: Seconds each loop tick blocks waiting for worker results.
    poll_interval: float = 0.2
    records_per_poll: int = DEFAULT_RECORDS_PER_POLL
    #: Exit 0 once every source is quiet — the batch-comparison mode.
    exit_when_idle: bool = False
    quiet_seconds: float = 2.0
    #: Resource budgets (0 disables the watchdog).
    min_free_bytes: int = 0
    max_rss_bytes: int = 0
    max_live_flows: int = 0
    #: Circuit-breaker tuning (per source).
    breaker_failures: int = DEFAULT_BREAKER_FAILURES
    breaker_backoff: float = DEFAULT_BREAKER_BACKOFF
    breaker_trips: int = DEFAULT_BREAKER_TRIPS
    #: What to do with a source rotated/truncated in place.
    on_rotate: str = "quarantine"
    #: fsync the sink after every line (hard kills tear at most one).
    fsync: bool = False
    #: Test/bench hook: fault injection in the analysis workers.
    fault_plan: FaultPlan | None = None
    #: Test/bench hook: environmental faults (ENOSPC, slow-io) in the
    #: daemon itself.
    resource_faults: ResourceFaultPlan | None = None

    def __post_init__(self) -> None:
        if self.on_rotate not in ROTATE_POLICIES:
            raise ValueError(f"on_rotate must be one of "
                             f"{ROTATE_POLICIES}, not {self.on_rotate!r}")


class ServeDaemon:
    """The always-on analysis service.  One instance, one ``run()``."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.metrics = ServeMetrics()
        self.ready = False
        self.paused = False
        self._stop = threading.Event()
        self._tailers: list[CaptureTailer] = []
        self._sources: set[str] = set()
        self._by_path: dict[Path, CaptureTailer] = {}
        self._scheduler: FlowScheduler | None = None
        self._sink: JsonlSink | None = None
        self.breakers = BreakerBoard(
            failures=config.breaker_failures,
            backoff=config.breaker_backoff,
            max_trips=config.breaker_trips)
        self.governor = ResourceGovernor(
            Path(config.out_dir),
            min_free_bytes=config.min_free_bytes,
            max_rss_bytes=config.max_rss_bytes,
            max_live_flows=config.max_live_flows)

    def request_stop(self) -> None:
        """Begin a graceful drain; safe to call from a signal handler."""
        self._stop.set()

    # -- source management -------------------------------------------

    def _add_source(self, path: Path) -> CaptureTailer:
        source = path.name
        suffix = 1
        while source in self._sources:    # same file name, second dir
            suffix += 1
            source = f"{path.name}~{suffix}"
        self._sources.add(source)
        tailer = CaptureTailer(
            path, source=source,
            records_per_poll=self.config.records_per_poll,
            on_retire=self.metrics.observe_retirement)
        self._tailers.append(tailer)
        self._by_path[path] = tailer
        return tailer

    def _quarantine_source(self, tailer: CaptureTailer) -> None:
        """A source that can no longer be tailed: one classified sink
        line, a permanently-open breaker, and its queue flushed."""
        self.metrics.sources_failed += 1
        payload = {"trace": tailer.source, "implementation": None}
        payload.update(classify_exception(tailer.failed).to_fields())
        self._route([(tailer.source, [encode_payload(payload)])])
        self.breakers.quarantine(tailer.source)
        if self._by_path.get(tailer.path) is tailer:
            del self._by_path[tailer.path]

    def _rotate(self, tailer: CaptureTailer) -> None:
        """Apply the ``--on-rotate`` policy to a rotated source."""
        self.metrics.rotations += 1
        if self._by_path.get(tailer.path) is tailer:
            del self._by_path[tailer.path]
        if self.config.on_rotate == "restart":
            # The truncated incarnation's open flows still analyze
            # (their records were really captured); the new
            # incarnation tails under a fresh source name, so sink
            # dedupe can never conflate the two.
            flows = tailer.drain_open_flows()
            if flows:
                self._submit(tailer.source, flows)
            if tailer.path.exists():
                self._add_source(tailer.path)
        else:
            self._quarantine_source(tailer)

    def _discover(self, path: Path) -> None:
        """One watcher report: a brand-new path, or a recreated one."""
        existing = self._by_path.get(path)
        if existing is not None and existing.failed is None \
                and not existing.finished:
            # Recreated under an active tailer: force the rotation
            # check now instead of waiting for its next poll.
            if existing._check_rotation():
                if existing.rotated:
                    self._rotate(existing)
                else:
                    self._quarantine_source(existing)
            return
        self._add_source(path)

    # -- work routing ------------------------------------------------

    def _submit(self, source: str, flows: list[Flow]) -> None:
        implementation = true_implementation(source)
        for flow in flows:
            self.metrics.flows_submitted += 1
            self.metrics.observe_retransmission_rate(
                flow_retransmission_rate(flow.records))
            replayed = self._scheduler.submit(
                FlowWorkItem(source, flow, implementation=implementation))
            if replayed:
                self.metrics.journal_skips += len(replayed)
                self._route(replayed)

    def _route(self, results: list[tuple[str, list[PayloadLine]]]
               ) -> None:
        journal_only = self.governor.journal_only
        for name, lines in results:
            source = name.split("#", 1)[0]
            if journal_only:
                self._sink.park(source, lines)
            else:
                self.metrics.sink_lines += self._sink.write(source, lines)
            for entry in lines:
                self.metrics.observe_payload(entry.fields)

    def _cancel_source(self, source: str) -> None:
        """Withdraw a quarantined source's queued flows from the pool."""
        cancelled = self._scheduler.cancel_source(source)
        self.metrics.flows_cancelled += len(cancelled)
        # Deliberately NOT routed to the sink: a ``cancelled`` line
        # under a flow's name would block that flow's real result
        # from ever landing (sink dedupe is by name).

    # -- governance --------------------------------------------------

    def _govern(self) -> None:
        """One governance tick: ladder, shedding, parked-write retry."""
        live = sum(t.live_flows for t in self._tailers
                   if t.failed is None and not t.finished)
        self.governor.assess(live_flows=live,
                             sink_failing=self._sink.failing)
        if self.governor.should_shed and live > 0:
            self._shed(live)
        # Parked-write retries.  A failing sink is probed every tick
        # regardless of ladder state — a successful probe is how the
        # sink recovers.  A merely-parked sink (journal-only mode
        # entered for disk headroom) is only drained once the
        # governor has stepped back below draining, preserving the
        # headroom the operator asked for.
        if self._sink.failing or (self._sink.degraded
                                  and not self.governor.journal_only):
            self.metrics.sink_lines += self._sink.flush_parked()
        if self._scheduler.journal_pending:
            self._scheduler.flush_journal()

    def _shed(self, live: int) -> None:
        """Early-retire the oldest live flows well below the budget.

        Shedding to *half* the budget (not the budget itself) gives
        the governor's recovery margin room to clear — shedding to the
        line would leave the occupancy inside the hysteresis band and
        the ladder stuck at ``shedding`` forever.
        """
        budget = self.config.max_live_flows // 2 \
            if self.config.max_live_flows else live // 2
        excess = live - budget
        if excess <= 0:
            return
        for tailer in sorted(self._tailers, key=lambda t: t.live_flows,
                             reverse=True):
            if excess <= 0:
                break
            shed = tailer.shed(min(excess, tailer.live_flows))
            if shed:
                excess -= len(shed)
                self.metrics.flows_shed += len(shed)
                self._submit(tailer.source, shed)

    def _breaker_events(self) -> None:
        """Account breaker transitions; flush newly quarantined
        sources out of the pool."""
        for source, _old, new in self.breakers.drain_events():
            if new == "open":
                self.metrics.breaker_trips += 1
            elif new == "quarantined":
                self.metrics.breaker_quarantines += 1
                self._cancel_source(source)

    # -- the loop ----------------------------------------------------

    def run(self) -> int:
        config = self.config
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        journal = BatchJournal(out / "journal.jsonl", stream=True,
                               resume=True)
        faults = config.resource_faults
        self._sink = JsonlSink(
            out / "results", fsync=config.fsync,
            fault_hook=faults.check_sink_write if faults else None)
        self._scheduler = FlowScheduler(
            config.workers, journal=journal, timeout=config.timeout,
            retries=config.retries, fault_plan=config.fault_plan,
            breakers=self.breakers)
        watcher = SpoolWatcher(config.spool) \
            if config.spool is not None else None
        for path in config.captures:
            self._add_source(Path(path))
        httpd = None
        if config.http_port is not None:
            from repro.serve.httpd import StatsServer
            httpd = StatsServer(self.metrics.to_dict, lambda: self.ready,
                                health_fn=lambda: self.governor.state,
                                port=config.http_port)
            httpd.start()
            # Ephemeral ports (--http 0) are useless unless announced.
            (out / "http.port").write_text(f"{httpd.port}\n")
        try:
            self._loop(watcher)
            # Graceful end, either shape: every already-retired flow
            # is finished, journaled, and sunk before we return.
            if not self._stop.is_set():
                # Idle exit: sources are complete, apply EOF
                # semantics — except those quarantined for cause.
                quarantined = self.breakers.quarantined()
                for tailer in self._tailers:
                    if tailer.source in quarantined:
                        continue
                    self._submit(tailer.source, tailer.finalize())
            self._route(self._scheduler.drain())
            self._breaker_events()
            # Final drain of the parked backlog, retried while it
            # makes progress: flush_parked stops at the first failed
            # append, but a transient failure (disk recovered between
            # attempts) should not strand the recoverable payloads
            # queued behind it.  A dead disk writes nothing and the
            # loop exits; everything parked is already journaled.
            while self._sink.degraded and not self.governor.journal_only:
                flushed = self._sink.flush_parked()
                if flushed == 0:
                    break
                self.metrics.sink_lines += flushed
            self._scheduler.flush_journal()
            self._refresh_gauges()
            return 0
        finally:
            self.ready = False
            self._scheduler.close(graceful=True)
            journal.close()
            self._sink.close()
            if httpd is not None:
                httpd.stop()

    def _tail(self) -> int:
        """Poll every admissible tailer once; return records consumed."""
        config = self.config
        faults = config.resource_faults
        consumed = 0
        for tailer in list(self._tailers):
            if tailer.failed is not None or tailer.finished:
                continue
            if not self.breakers.allow(tailer.source):
                continue
            if faults is not None:
                delay = faults.io_delay(tailer.source)
                if delay > 0:
                    time.sleep(delay)
            before = tailer.records_consumed
            flows = tailer.poll()
            consumed += tailer.records_consumed - before
            self.metrics.records_ingested += \
                tailer.records_consumed - before
            if flows:
                self._submit(tailer.source, flows)
            if tailer.failed is not None:
                if tailer.rotated:
                    self._rotate(tailer)
                else:
                    self._quarantine_source(tailer)
        return consumed

    def _pending_sources(self) -> bool:
        """Any active source with unconsumed bytes the daemon still
        intends to read?  Breaker-quarantined sources don't count —
        the daemon gave up on them; open breakers do — their backoff
        will elapse and a probe will run."""
        quarantined = self.breakers.quarantined()
        return any(t.ingest_lag > 0 for t in self._tailers
                   if t.failed is None and not t.finished
                   and t.source not in quarantined)

    def _loop(self, watcher: SpoolWatcher | None) -> None:
        config = self.config
        last_activity = time.monotonic()
        while not self._stop.is_set():
            activity = 0
            self._govern()
            if watcher is not None and self.governor.allows_discovery:
                for path in watcher.scan():
                    self._discover(path)
                    activity += 1
            if not self.paused and not self.governor.pause_tailing:
                activity += self._tail()
            depth = self._scheduler.queue_depth
            if not self.paused and depth >= config.high_water:
                self.paused = True
                self.metrics.pause_events += 1
            elif self.paused and depth <= config.low_water:
                self.paused = False
            results = self._scheduler.poll(timeout=config.poll_interval)
            self._breaker_events()
            if results:
                activity += len(results)
                self._route(results)
            self._refresh_gauges()
            self.ready = True
            now = time.monotonic()
            # Undelivered parked payloads count as busy: idle exit
            # must not drop results the disk refused mid-run.
            busy = activity > 0 or self._scheduler.outstanding > 0 \
                or self._pending_sources() or self._sink.parked > 0 \
                or self._scheduler.journal_pending > 0
            if busy:
                last_activity = now
            elif config.exit_when_idle \
                    and now - last_activity >= config.quiet_seconds:
                return
            if not busy and not results:
                # Nothing in flight: sleep on the stop event so a
                # signal wakes the loop instead of waiting out a tick.
                self._stop.wait(config.poll_interval)

    def _refresh_gauges(self) -> None:
        metrics = self.metrics
        active = [t for t in self._tailers
                  if t.failed is None and not t.finished]
        metrics.ingest_lag_bytes = sum(t.ingest_lag for t in active)
        metrics.flow_table_occupancy = sum(t.live_flows for t in active)
        metrics.queue_depth = self._scheduler.queue_depth
        metrics.inflight = self._scheduler.inflight
        metrics.worker_restarts = self._scheduler.worker_restarts
        metrics.sources = len(self._tailers)
        metrics.paused = self.paused or self.governor.pause_tailing
        metrics.health_state = self.governor.state
        metrics.breaker_states = self.breakers.states()
        metrics.disk_free_bytes = self.governor.free_bytes
        metrics.rss_bytes = self.governor.rss_bytes
        metrics.sink_parked = self._sink.parked
        metrics.journal_pending = self._scheduler.journal_pending
        metrics.sink_errors = self._sink.write_errors
        metrics.journal_errors = self._scheduler.journal_errors
        metrics.flows_cancelled = self._scheduler.cancelled

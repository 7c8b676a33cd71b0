"""Dispatching retired flows to analysis workers, durably.

The scheduler is the seam between live ingest and the PR-5 resilience
machinery: each completed flow becomes a :class:`FlowWorkItem` and
goes to a :class:`~repro.pipeline.PoolSession` worker, sharded by a
stable hash of the connection key so all flows of one connection
(a reused 4-tuple, say) analyze in order on one worker.

Durability is journal-first: a flow's payloads are recorded in the
:class:`~repro.pipeline.BatchJournal` (fsynced) before the caller
ever sees them, and a flow whose name+digest is already journaled is
replayed without analysis — which is what makes a daemon restart
resume instead of recompute.  Flow digests come from
``trace_digest``, so a capture whose bytes changed under the same
name never reuses stale results.

Analysis failures ride the PR-5/6 taxonomy unchanged: a worker crash
retries then quarantines as ``crash``, a hang is killed and
quarantined as ``timeout``, and an in-worker analysis error comes
back as a classified error payload.  Payloads of a transient kind
(:data:`~repro.core.errors.TRANSIENT_KINDS`) are never journaled, so
a restart retries them.

The scheduler is also where per-source fault isolation plugs in:
given a :class:`~repro.serve.governor.BreakerBoard`, every polled
result is accounted to its source's circuit breaker — worker-fatal
kinds (``crash``/``timeout``) as failures, everything else as
successes — and :meth:`FlowScheduler.cancel_source` flushes a
quarantined source's queued flows back out of the shared pool so they
stop poisoning workers other sources depend on.  Journal writes are
themselves governed: an ``OSError`` from the journal (the disk the
governor is already worried about) parks the entry in memory for
:meth:`FlowScheduler.flush_journal` to retry, instead of crashing the
daemon.
"""

from __future__ import annotations

import functools
import zlib

from repro.core.errors import AnalysisError, is_durable
from repro.harness.faults import FaultPlan
from repro.pipeline.cache import trace_digest
from repro.pipeline.journal import BatchJournal
from repro.pipeline.resilience import PoolSession, error_payload, run_guarded
from repro.serve.governor import BreakerBoard
from repro.stream import Flow, build_flow_report, flow_payload

#: Error kinds that count against a source's circuit breaker: the
#: failure took a worker down with it (or held one hostage).
WORKER_FATAL_KINDS = frozenset({"crash", "timeout"})


class FlowWorkItem:
    """One retired flow, packaged for a worker process.

    Carries the immutable flow (records and lifecycle facts pickle
    cleanly) plus its source capture's name.  ``name`` and
    ``implementation`` follow the batch-item protocol so
    ``error_payload`` and :class:`~repro.harness.faults.FaultPlan`
    (which matches items by name) compose unchanged.
    """

    def __init__(self, source: str, flow: Flow,
                 implementation: str | None = None):
        self.source = source
        self.flow = flow
        self.implementation = implementation

    @property
    def name(self) -> str:
        return f"{self.source}#flow-{self.flow.index:04d}"

    def content_digest(self) -> str:
        return trace_digest(self.flow.to_trace())

    def shard(self) -> int:
        """Stable across processes and runs (``hash()`` is neither)."""
        return zlib.crc32(f"{self.source}|{self.flow.key}".encode())


def analyze_flow_item(index: int, item: FlowWorkItem, attempt: int,
                      fault_plan: FaultPlan | None = None) -> list[dict]:
    """Worker-side analysis of one flow; never raises.

    The payload is built by the same :func:`flow_payload` the batch
    runner uses — identical keys and values for an identical flow —
    except that no capture-wide ``ingest`` block is attached (the
    capture is still growing when a live flow completes).
    """
    return run_guarded(_flow_payloads, index, item, attempt, fault_plan)


def _flow_payloads(item: FlowWorkItem) -> list[dict]:
    report = build_flow_report(item.flow, identify=True)
    return [flow_payload(report, item.name,
                         implementation=item.implementation)]


class FlowScheduler:
    """Submit flows, poll journaled results.

    ``submit`` returns any immediately available results (a journal
    replay); ``poll`` returns results as workers finish them, each
    already recorded in the journal.  Results are
    ``(name, payloads)`` pairs.
    """

    def __init__(self, workers: int,
                 journal: BatchJournal | None = None,
                 timeout: float | None = None,
                 retries: int = 2,
                 fault_plan: FaultPlan | None = None,
                 breakers: BreakerBoard | None = None):
        worker_fn = functools.partial(analyze_flow_item,
                                      fault_plan=fault_plan)
        self.session = PoolSession(workers, worker_fn,
                                   timeout=timeout, retries=retries)
        self.journal = journal
        self.breakers = breakers
        self._next_index = 0
        self._submitted: dict[int, tuple[FlowWorkItem, str]] = {}
        self.replayed = 0
        self.cancelled = 0
        self.journal_errors = 0
        #: Journal entries whose write failed (disk pressure), kept in
        #: memory until :meth:`flush_journal` lands them.
        self._journal_pending: list[tuple[str, str, list[dict]]] = []

    @property
    def outstanding(self) -> int:
        return self.session.outstanding

    @property
    def queue_depth(self) -> int:
        return self.session.queue_depth

    @property
    def inflight(self) -> int:
        return self.session.inflight

    @property
    def worker_restarts(self) -> int:
        return self.session.worker_restarts

    def submit(self, item: FlowWorkItem
               ) -> list[tuple[str, list[dict]]]:
        """Queue one flow; journaled flows come straight back."""
        digest = item.content_digest()
        if self.journal is not None:
            payloads = self.journal.lookup(item.name, digest)
            if payloads is not None:
                self.replayed += 1
                return [(item.name, payloads)]
        index = self._next_index
        self._next_index += 1
        self._submitted[index] = (item, digest)
        self.session.submit(index, item, shard=item.shard())
        return []

    def poll(self, timeout: float | None = None
             ) -> list[tuple[str, list[dict]]]:
        """Collect finished flows; journal each before returning it.

        Each result is also accounted to its source's circuit breaker
        (when a board is attached): worker-fatal payloads are
        failures, everything else — including in-worker classified
        errors, which cost the pool nothing — is a success.
        """
        results = []
        for index, payloads, _elapsed in self.session.poll(timeout):
            item, digest = self._submitted.pop(index)
            if self.breakers is not None:
                if _worker_fatal(payloads):
                    self.breakers.record_failure(item.source)
                else:
                    self.breakers.record_success(item.source)
            if self.journal is not None and is_durable(payloads):
                self._record(item.name, digest, payloads)
            results.append((item.name, payloads))
        return results

    def _record(self, name: str, digest: str,
                payloads: list[dict]) -> None:
        """Journal one entry; park it in memory when the disk won't."""
        try:
            self.journal.record(name, digest, payloads)
        except OSError:
            self.journal_errors += 1
            self._journal_pending.append((name, digest, payloads))

    def flush_journal(self) -> int:
        """Retry journal entries parked by disk failure; return the
        number that landed."""
        written = 0
        while self._journal_pending:
            name, digest, payloads = self._journal_pending[0]
            try:
                self.journal.record(name, digest, payloads)
            except OSError:
                self.journal_errors += 1
                break
            self._journal_pending.pop(0)
            written += 1
        return written

    @property
    def journal_pending(self) -> int:
        return len(self._journal_pending)

    def cancel_source(self, source: str
                      ) -> list[tuple[str, list[dict]]]:
        """Withdraw a quarantined source's queued flows from the pool.

        In-flight flows finish under normal supervision; queued ones
        come back immediately as ``cancelled`` payloads — transient by
        definition, so they are never journaled and a later run (or a
        recovered source) re-analyzes them from the capture.
        """
        removed = self.session.cancel(
            lambda item: getattr(item, "source", None) == source)
        results = []
        for _index, item in removed:
            self._submitted.pop(_index, None)
            self.cancelled += 1
            error = AnalysisError(
                "cancelled",
                f"source {source} circuit-breaker quarantined; flow "
                f"withdrawn before analysis")
            results.append((item.name, [error_payload(item, error)]))
        return results

    def drain(self) -> list[tuple[str, list[dict]]]:
        """Finish everything in flight/queued (graceful shutdown)."""
        results = []
        while self.session.outstanding > 0:
            results.extend(self.poll())
        return results

    def close(self, graceful: bool = True) -> None:
        self.session.close(graceful=graceful)


def _worker_fatal(payloads: list[dict]) -> bool:
    return any(payload.get("error_kind") in WORKER_FATAL_KINDS
               for payload in payloads)

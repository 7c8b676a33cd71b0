"""The supervised worker pool: the batch pipeline's crash boundary.

``multiprocessing.Pool`` survives exceptions but not *corpses*: a
worker that segfaults, gets OOM-killed, or ``os._exit``s mid-item
wedges or aborts the whole run.  At corpus scale (the paper's ~40,000
wild traces) that is the difference between a batch that completes
with a few quarantined entries and a batch that dies at 3 a.m. on
trace 31,207.

:class:`PoolSession` is the supervision substrate: a long-lived pool
of worker slots that accepts work incrementally (:meth:`submit`) and
surfaces completions incrementally (:meth:`poll`), so a caller that
discovers its work over time — the serve daemon tailing a live
capture — gets the same crash/hang guarantees as a fixed batch:

- **Crash recovery** — a dead worker's in-flight item is requeued with
  a bounded retry budget; when the budget is spent the item is
  quarantined as ``error_kind: "crash"`` and the session continues.
- **Per-item timeouts** — an item holding a worker past the
  wall-clock budget gets its worker killed and is quarantined as
  ``error_kind: "timeout"`` (no retry: a deterministic hang would
  just hang again).

Either way a replacement worker is spawned (counted in
:attr:`PoolSession.worker_restarts`) and the pool stays at full
strength.  Every submitted index is resolved exactly once — late
results from a worker that raced its own crash diagnosis are dropped,
and requeued duplicates of an already-resolved index are skipped.

Work may be pinned to a slot with ``submit(..., shard=n)``: all items
sharing ``n % workers`` execute on the same worker in submission
order.  The serve scheduler shards by connection-key hash so one
connection's flows never race each other.

Worker functions never raise: :func:`run_guarded` wraps the analysis
of one item, fires the fault-injection plan, and folds any escaping
exception into a classified error payload.  The batch runner (pool or
in-process) and the serve scheduler both build their workers from it,
and every payload leaves a worker already encoded, as a
:class:`~repro.pipeline.lines.PayloadLine`.  The session itself never
looks inside a result; its own crash and timeout diagnoses go through
the same encoder (:func:`error_line`), so every result has one
shape.
A fixed batch is just a session fed everything up front and then
drained (:func:`repro.pipeline.run_batch`).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import AnalysisError, classify_exception
from repro.pipeline.lines import PayloadLine, encode_payload

if TYPE_CHECKING:
    from repro.harness.faults import FaultPlan

#: Seconds the supervisor blocks on the result queue before running a
#: health check (liveness + timeouts) over the in-flight set.
POLL_INTERVAL = 0.05


def error_payload(item, error: AnalysisError,
                  attempts: int | None = None) -> dict:
    """The quarantine payload for one failed item.

    Shape-compatible with a healthy payload's provenance fields, plus
    the classified failure; the aggregate report and JSONL consumers
    key off ``error_kind``.
    """
    payload = {
        "trace": item.name,
        "implementation": item.implementation,
    }
    payload.update(error.to_fields())
    if attempts is not None:
        payload["attempts"] = attempts
    return payload


def error_line(item, error: AnalysisError,
               attempts: int | None = None) -> PayloadLine:
    """:func:`error_payload`, encoded."""
    return encode_payload(error_payload(item, error, attempts))


def run_guarded(analyze: Callable[[object], list[PayloadLine]],
                index: int, item, attempt: int,
                fault_plan: FaultPlan | None = None
                ) -> list[PayloadLine]:
    """One unit of pool work: *analyze* the item; never raises.

    Fires the fault-injection plan (if any) first, then folds anything
    that escapes into a classified error payload — so the only ways a
    worker can fail to produce payloads are the ones the supervisor
    diagnoses from outside: a process death or a kill.  Bind
    *analyze* and *fault_plan* with ``functools.partial`` to get a
    :class:`PoolSession` worker function.
    """
    substituted = None
    try:
        if fault_plan is not None:
            original_path = getattr(item, "path", None)
            item = fault_plan.apply(item, index, attempt)
            if getattr(item, "path", None) != original_path:
                substituted = item.path   # corrupt fault's temp copy
        return analyze(item)
    except Exception as error:
        return [error_line(item, classify_exception(error))]
    finally:
        if substituted is not None:
            substituted.unlink(missing_ok=True)


def _worker_main(worker_id: int, task_queue, result_conn,
                 worker_fn) -> None:
    """One worker: pull (index, item, attempt), analyze, post result.

    *worker_fn* must not raise (build it with :func:`run_guarded`); an
    exception that escapes anyway ends the worker, and the supervisor
    diagnoses that like any other crash.

    Results go out over a per-worker pipe, not a shared queue, and
    the ``send`` is synchronous: when it returns, the message is in
    the pipe whole.  A shared ``multiprocessing.Queue`` would post
    through a background feeder thread holding a write lock shared by
    every worker — a worker SIGKILLed at the wrong instant (a fault
    plan's ``kill``, the OOM killer) leaves that lock orphaned and
    wedges every *other* worker's result forever.  With one pipe per
    worker, a kill can only tear the killed worker's own stream,
    which the supervisor reads as EOF and diagnoses as the crash it
    is.
    """
    while True:
        try:
            task = task_queue.get()
        except (KeyboardInterrupt, EOFError):
            return
        if task is None:
            return
        index, item, attempt = task
        start = time.perf_counter()
        try:
            payloads = worker_fn(index, item, attempt)
        except KeyboardInterrupt:
            return
        try:
            result_conn.send((worker_id, index, payloads,
                              time.perf_counter() - start))
        except (KeyboardInterrupt, BrokenPipeError, OSError):
            return


@dataclass
class _Worker:
    process: multiprocessing.Process
    tasks: "multiprocessing.Queue" = field(repr=False, default=None)
    #: Parent's read end of this worker's private result pipe.
    results: "multiprocessing.connection.Connection" = field(
        repr=False, default=None)


@dataclass
class _Slot:
    """One worker position: its process, queue, backlog, in-flight item.

    The slot outlives any individual worker process — crashes and
    kills replace the worker, never the slot, which is what makes
    shard pinning stable across restarts.
    """

    worker: _Worker | None = None
    backlog: deque = field(default_factory=deque)
    # (index, item, attempt) plus its dispatch time, or None when idle.
    inflight: tuple[tuple, float] | None = None


class PoolSession:
    """A long-lived supervised pool: submit work anytime, poll results.

    The total amount of work need not be known up front;
    :attr:`outstanding` tracks what has been submitted but not yet
    resolved.  Callers drive the session with ``submit`` and ``poll``
    (or :meth:`drain`) and finish with :meth:`close`.
    """

    def __init__(self, workers: int,
                 worker_fn: Callable[[int, object, int], list],
                 timeout: float | None = None,
                 retries: int = 2,
                 poll: float = POLL_INTERVAL):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, not {workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, not {retries}")
        self._worker_fn = worker_fn
        self._timeout = timeout
        self._retries = retries
        self._poll = poll
        self._context = multiprocessing.get_context()
        self._slots = [_Slot() for _ in range(workers)]
        self._slot_of: dict[int, int] = {}      # worker_id -> slot no.
        self._shared: deque = deque()           # unpinned backlog
        self._resolved: set[int] = set()
        self._outstanding = 0
        self._next_worker_id = 0
        self._started = 0       # workers ever spawned
        self._closed = False
        self.worker_restarts = 0

    @property
    def workers(self) -> int:
        return len(self._slots)

    @property
    def outstanding(self) -> int:
        """Items submitted but not yet resolved (queued or running)."""
        return self._outstanding

    @property
    def queue_depth(self) -> int:
        """Items waiting for a worker (excludes the in-flight set)."""
        return len(self._shared) + sum(len(s.backlog) for s in self._slots)

    @property
    def inflight(self) -> int:
        return sum(1 for slot in self._slots if slot.inflight is not None)

    def submit(self, index: int, item, shard: int | None = None) -> None:
        """Enqueue one work item.

        *index* must be unique across the session's lifetime — it is
        how results are matched to submissions.  With *shard*, the
        item is pinned to slot ``shard % workers`` and runs after
        everything previously pinned there; without, any free worker
        takes it.
        """
        if self._closed:
            raise ValueError("session is closed")
        task = (index, item, 0)
        if shard is None:
            self._shared.append(task)
        else:
            self._slots[shard % len(self._slots)].backlog.append(task)
        self._outstanding += 1
        self._pump()

    def poll(self, timeout: float | None = None
             ) -> list[tuple[int, list, float]]:
        """Collect finished work, blocking at most *timeout* seconds.

        Returns ``(index, payloads, elapsed)`` triples in completion
        order — possibly none.  When no result arrives within the
        wait, the in-flight set is health-checked instead, which is
        where crashes and hangs are diagnosed and quarantined; their
        error payloads are returned like any other completion.
        """
        if self._closed:
            raise ValueError("session is closed")
        self._pump()
        results: list[tuple[int, list, float]] = []
        wait = self._poll if timeout is None else timeout
        block = self._outstanding > 0 and wait > 0
        conns = [slot.worker.results for slot in self._slots
                 if slot.worker is not None]
        ready = multiprocessing.connection.wait(
            conns, timeout=wait if block else 0) if conns else []
        eof = False
        for conn in ready:
            eof |= self._drain_conn(conn, results)
        if (block and not results) or eof:
            # Nothing arrived within the wait (or a worker's pipe hit
            # EOF): diagnose the in-flight set — crashes and hangs
            # surface here, as quarantined error payloads.
            results.extend(self._health_check())
        self._pump()
        return results

    def _drain_conn(self, conn, results) -> bool:
        """Deliver every complete message waiting on one worker's
        pipe; return True when the stream has hit EOF (worker died —
        a torn trailing message reads as EOF too, never a hang)."""
        while True:
            try:
                if not conn.poll(0):
                    return False
                message = conn.recv()
            except (EOFError, OSError):
                return True
            self._handle_message(message, results)

    def _handle_message(self, message, results) -> None:
        worker_id, index, payloads, elapsed = message
        slot_no = self._slot_of.get(worker_id)
        if slot_no is not None:
            slot = self._slots[slot_no]
            if slot.inflight is not None \
                    and slot.inflight[0][0] == index:
                slot.inflight = None
        if index in self._resolved:
            return              # late duplicate of a diagnosed item
        self._resolved.add(index)
        self._outstanding -= 1
        results.append((index, payloads, elapsed))

    def cancel(self, predicate: Callable[[object], bool]
               ) -> list[tuple[int, object]]:
        """Withdraw queued items matching *predicate*; return them.

        Only items still waiting for a worker are cancellable — the
        in-flight set is left to finish (or crash) under the normal
        supervision rules, so a worker is never yanked mid-item.
        Cancelled indexes are marked resolved: a late duplicate from
        a requeue can never resurrect them.  The serve daemon uses
        this to flush a circuit-breaker-quarantined source's backlog
        out of the shared pool without touching other sources' work.
        """
        cancelled: list[tuple[int, object]] = []
        backlogs = [self._shared] + [slot.backlog for slot in self._slots]
        for backlog in backlogs:
            kept: deque = deque()
            while backlog:
                index, item, attempt = backlog.popleft()
                if index not in self._resolved and predicate(item):
                    self._resolved.add(index)
                    self._outstanding -= 1
                    cancelled.append((index, item))
                else:
                    kept.append((index, item, attempt))
            backlog.extend(kept)
        return cancelled

    def drain(self) -> Iterator[tuple[int, list, float]]:
        """Yield results until nothing submitted remains unresolved."""
        while self._outstanding > 0:
            yield from self.poll()

    def close(self, graceful: bool = True) -> None:
        """Tear the pool down without ever hanging the parent."""
        if self._closed:
            return
        self._closed = True
        workers = [slot.worker for slot in self._slots
                   if slot.worker is not None]
        for worker in workers:
            if graceful and worker.process.is_alive():
                try:
                    worker.tasks.put(None)
                except (OSError, ValueError):
                    pass
        for worker in workers:
            worker.process.join(timeout=1.0 if graceful else 0.1)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5.0)
            worker.tasks.close()
            worker.tasks.cancel_join_thread()
            try:
                worker.results.close()
            except OSError:
                pass

    # -- internals ---------------------------------------------------

    def _spawn(self, slot_no: int) -> None:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_queue = self._context.Queue()
        recv_conn, send_conn = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_worker_main,
            args=(worker_id, task_queue, send_conn, self._worker_fn),
            daemon=True)
        process.start()
        # Close the parent's copy of the write end: the worker must be
        # the pipe's only writer, so its death reads as EOF here.
        send_conn.close()
        self._slots[slot_no].worker = _Worker(process=process,
                                              tasks=task_queue,
                                              results=recv_conn)
        self._slot_of[worker_id] = slot_no
        if self._started >= len(self._slots):
            self.worker_restarts += 1
        self._started += 1

    def _retire(self, slot_no: int) -> None:
        slot = self._slots[slot_no]
        worker = slot.worker
        if worker is None:
            return
        slot.worker = None
        worker.tasks.close()
        worker.tasks.cancel_join_thread()
        try:
            worker.results.close()
        except OSError:
            pass

    def _next_task(self, slot: _Slot) -> tuple | None:
        """Pop the slot's next runnable task (pinned before shared)."""
        for backlog in (slot.backlog, self._shared):
            while backlog:
                task = backlog.popleft()
                if task[0] not in self._resolved:
                    return task
        return None

    def _pump(self) -> None:
        """Hand queued tasks to every idle slot."""
        for slot_no, slot in enumerate(self._slots):
            if slot.inflight is not None:
                continue
            task = self._next_task(slot)
            if task is None:
                continue
            if slot.worker is None or not slot.worker.process.is_alive():
                self._retire(slot_no)
                self._spawn(slot_no)
            slot.worker.tasks.put(task)
            slot.inflight = (task, time.monotonic())

    def _health_check(self) -> list[tuple[int, list, float]]:
        """Diagnose the in-flight set: crashes requeue, hangs die."""
        results = []
        now = time.monotonic()
        for slot_no, slot in enumerate(self._slots):
            worker = slot.worker
            alive = worker is not None and worker.process.is_alive()
            if slot.inflight is None:
                if worker is not None and not alive:
                    # Died between tasks: retire now so its EOF-ready
                    # pipe stops waking every poll (a replacement is
                    # spawned when the slot next gets work).
                    self._drain_conn(worker.results, results)
                    self._retire(slot_no)
                continue
            (index, item, attempt), started = slot.inflight
            if alive and (self._timeout is None
                          or now - started <= self._timeout):
                continue
            if not alive:
                # The worker may have finished the item and died on
                # the way to the next one — believe a result already
                # in its pipe over the corpse.
                if worker is not None:
                    self._drain_conn(worker.results, results)
                if slot.inflight is None or index in self._resolved:
                    slot.inflight = None
                    self._retire(slot_no)
                    self._spawn(slot_no)
                    continue
            slot.inflight = None
            if not alive:
                exitcode = worker.process.exitcode if worker else None
                self._retire(slot_no)
                if attempt < self._retries:
                    # Retry on the same slot, ahead of its backlog, so
                    # shard ordering survives the crash.
                    slot.backlog.appendleft((index, item, attempt + 1))
                elif index not in self._resolved:
                    self._resolved.add(index)
                    self._outstanding -= 1
                    error = AnalysisError(
                        "crash",
                        f"worker died (exit code {exitcode}); "
                        f"gave up after {attempt + 1} attempt(s)")
                    results.append((index,
                                    [error_line(item, error,
                                                attempts=attempt + 1)],
                                    now - started))
            else:       # alive but past the wall-clock budget
                worker.process.kill()
                worker.process.join()
                self._retire(slot_no)
                if index not in self._resolved:
                    self._resolved.add(index)
                    self._outstanding -= 1
                    error = AnalysisError(
                        "timeout",
                        f"analysis exceeded {self._timeout:g}s "
                        f"wall-clock timeout")
                    results.append((index, [error_line(item, error)],
                                    now - started))
            self._spawn(slot_no)
        self._pump()
        return results

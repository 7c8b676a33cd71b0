"""The corpus batch runner: fan analysis out across a trace corpus.

The paper's result is statistical — tcpanaly ran over ~20,000
sender-side and ~20,000 receiver-side traces (Table 1).  This module
is the scale substrate: it takes a corpus (a directory of pcap files,
or in-memory generated transfers), runs the full per-trace pipeline
(calibration plus sender- or receiver-side identification) on every
element, and does so across ``--jobs`` worker processes with an
optional on-disk result cache.

Determinism contract: each trace's payload depends only on the trace
content and the implementation catalog.  Results are returned sorted
by trace name, so sequential runs (``jobs=1``), parallel runs, and
warm-cache runs all produce byte-identical JSONL output.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.errors import classify_exception, is_durable
from repro.core.report import analyze_trace
from repro.harness.corpus import WrittenCorpusEntry
from repro.harness.faults import FaultPlan
from repro.pipeline.cache import ResultCache, file_digest, trace_digest
from repro.pipeline.journal import BatchJournal
from repro.pipeline.resilience import PoolSession, error_payload, run_guarded
from repro.stream import build_flow_report, demux_records, flow_payload
from repro.stream.reader import iter_pcap
from repro.stream.stats import IngestStats
from repro.tcp.catalog import CATALOG
from repro.trace.pcap import read_pcap
from repro.trace.record import Trace

_TRACE_SIDES = ("sender", "receiver")


@dataclass
class BatchItem:
    """One unit of batch work: a trace plus its provenance.

    Exactly one of *path* (a pcap file) or *trace* (an in-memory
    trace) must be set.  *implementation* is the ground-truth label
    when known (from the corpus filename or the generator), enabling
    the aggregate confusion matrix.
    """

    name: str
    path: Path | None = None
    trace: Trace | None = None
    implementation: str | None = None

    def content_digest(self) -> str:
        if self.path is not None:
            return file_digest(self.path)
        return trace_digest(self.trace)


@dataclass
class TraceResult:
    """One analyzed trace: its deterministic payload plus run metadata.

    *payload* is what goes to JSONL and the cache; *cache_hit* and
    *elapsed* describe this particular run and are deliberately kept
    out of it.
    """

    name: str
    payload: dict
    cache_hit: bool = False
    elapsed: float = 0.0
    resumed: bool = False


@dataclass
class BatchResult:
    """Everything a batch run produced, plus throughput accounting."""

    results: list[TraceResult] = field(default_factory=list)
    jobs: int = 1
    wall_time: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    resumed: int = 0

    @property
    def throughput(self) -> float:
        """Traces analyzed per wall-clock second."""
        if self.wall_time <= 0:
            return 0.0
        return len(self.results) / self.wall_time


def true_implementation(filename: str) -> str | None:
    """Recover the ground-truth label from a corpus filename.

    Corpus files are named ``{label}-{index:04d}-{side}.pcap``; labels
    themselves contain dashes (``solaris-2.4``), so parse from the
    right and validate against the catalog.  Returns None for
    filenames that do not follow the corpus layout.
    """
    stem = filename
    if stem.endswith(".pcap"):
        stem = stem[:-len(".pcap")]
    for side in _TRACE_SIDES:
        suffix = f"-{side}"
        if stem.endswith(suffix):
            stem = stem[:-len(suffix)]
            break
    else:
        return None
    label, _, index = stem.rpartition("-")
    if not label or not index.isdigit():
        return None
    return label if label in CATALOG else None


def corpus_items(corpus_dir: str | Path) -> list[BatchItem]:
    """Every ``*.pcap`` under *corpus_dir*, as sorted batch items."""
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        raise ValueError(f"{corpus_dir}: not a corpus directory")
    items = [BatchItem(name=path.name, path=path,
                       implementation=true_implementation(path.name))
             for path in sorted(corpus_dir.glob("*.pcap"))]
    if not items:
        raise ValueError(f"{corpus_dir}: no .pcap traces found")
    return items


def memory_items(entries: list[WrittenCorpusEntry]) -> list[BatchItem]:
    """Batch items for freshly generated corpus entries.

    Uses the in-memory traces directly — ``tcpanaly corpus --analyze``
    feeds the pipeline without re-reading the pcaps it just wrote.
    """
    items = []
    for entry in entries:
        items.append(BatchItem(name=entry.sender_path.name,
                               trace=entry.transfer.sender_trace,
                               implementation=entry.implementation))
        items.append(BatchItem(name=entry.receiver_path.name,
                               trace=entry.transfer.receiver_trace,
                               implementation=entry.implementation))
    items.sort(key=lambda item: item.name)
    return items


def analyze_item(item: BatchItem) -> dict:
    """Eager analysis: the whole trace in memory, one payload.

    Failures propagate; :func:`run_batch`'s worker guard
    (:func:`~repro.pipeline.resilience.run_guarded`) turns each into a
    classified error payload (``error_kind``: decode/io/model), so a
    damaged trace never aborts a corpus-scale run.
    """
    trace = item.trace if item.trace is not None else read_pcap(item.path)
    report = analyze_trace(trace, identify=True)
    payload = {
        "trace": item.name,
        "implementation": item.implementation,
        "records": len(trace),
    }
    payload.update(report.to_dict())
    return payload


def _eager_payloads(item: BatchItem) -> list[dict]:
    return [analyze_item(item)]


def analyze_item_stream(item: BatchItem) -> list[dict]:
    """Streamed analysis: one payload per demultiplexed connection.

    The item's records (decoded incrementally from its capture, or
    taken from its in-memory trace) go through the flow table, and
    each connection is analyzed on its own.  A single-connection
    capture keeps the item's own name, so corpus aggregates match the
    eager path.  Every payload carries the capture's ingest
    statistics.  A poisonous connection quarantines itself
    (``error_kind`` in its payload) without sinking the capture's
    other flows; a failure of the capture itself (unreadable, not a
    pcap) propagates to the worker guard, which quarantines the whole
    item.
    """
    stats = IngestStats()
    records = item.trace.records if item.trace is not None \
        else iter_pcap(item.path, stats=stats)
    flow_reports = [build_flow_report(flow, identify=True)
                    for flow in demux_records(records, stats=stats)]
    ingest = stats.to_dict()
    if not flow_reports:
        return [{"trace": item.name, "implementation": item.implementation,
                 "error": "no connections demultiplexed",
                 "error_kind": "decode",
                 "ingest": ingest}]
    payloads = []
    for flow_report in flow_reports:
        name = item.name if len(flow_reports) == 1 \
            else f"{item.name}#{flow_report.name}"
        payload = flow_payload(flow_report, name,
                               implementation=item.implementation)
        payload["ingest"] = ingest
        payloads.append(payload)
    return payloads


def run_batch(items: list[BatchItem], jobs: int = 1,
              cache: ResultCache | None = None,
              stream: bool = False,
              timeout: float | None = None,
              retries: int = 2,
              journal: BatchJournal | None = None,
              fault_plan: FaultPlan | None = None) -> BatchResult:
    """Run the analysis pipeline over *items* with *jobs* workers.

    Cache hits are resolved up front in the parent process, so a
    warm-cache run dispatches no analysis work at all.  ``jobs=1``
    (without a timeout) is a plain in-process sequential loop — fully
    deterministic execution order — for debugging; otherwise the
    cache-miss set fans out over a :class:`PoolSession`, which
    survives worker crashes (requeue with a *retries* budget, then
    quarantine as ``error_kind: "crash"``) and kills analyses that
    exceed the per-trace wall-clock *timeout* (quarantined as
    ``error_kind: "timeout"``).

    An item whose file cannot even be digested is quarantined up
    front as ``error_kind: "io"`` and the rest of the batch runs.

    With *journal*, every completed item is checkpointed durably as it
    finishes; items already completed in a resumed journal are
    replayed without re-analysis, and the final result set is
    byte-identical to an uninterrupted run's.

    With ``stream=True`` each capture goes through the streaming
    ingest + demux path and may yield several per-connection results;
    cache entries are keyed separately from eager-mode entries.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, not {jobs}")
    start = time.perf_counter()
    results: list[TraceResult] = []
    pending: list[BatchItem] = []
    digests: dict[str, str] = {}
    resumed = 0
    upfront_failures = 0
    for item in items:
        try:
            digest = item.content_digest()
        except OSError as error:
            # An unreadable corpus file must not abort the batch
            # before any analysis has even run.
            results.append(TraceResult(
                item.name, error_payload(item, classify_exception(error))))
            upfront_failures += 1
            continue
        if stream:
            digest = f"stream:{digest}"
        digests[item.name] = digest
        cached = cache.get(digest) if cache is not None else None
        if cached is not None:
            if stream:
                for payload in cached.get("flows", []):
                    results.append(TraceResult(payload["trace"], payload,
                                               cache_hit=True))
            else:
                results.append(TraceResult(item.name, cached,
                                           cache_hit=True))
            continue
        if journal is not None:
            payloads = journal.lookup(item.name, digest)
            if payloads is not None:
                for payload in payloads:
                    results.append(TraceResult(payload["trace"], payload,
                                               resumed=True))
                resumed += 1
                continue
        pending.append(item)

    def finish(index: int, payloads: list[dict], elapsed: float) -> None:
        item = pending[index]
        # Journal first: the checkpoint must be durable before the
        # (best-effort) cache write can fail or be interrupted.
        if journal is not None:
            journal.record(item.name, digests[item.name], payloads)
        if cache is not None and is_durable(payloads):
            cache.put(digests[item.name],
                      {"flows": payloads} if stream else payloads[0])
        for payload in payloads:
            results.append(TraceResult(payload["trace"], payload,
                                       cache_hit=False, elapsed=elapsed))

    analyze = analyze_item_stream if stream else _eager_payloads
    worker = functools.partial(run_guarded, analyze, fault_plan=fault_plan)
    if jobs == 1 and timeout is None:
        for index, item in enumerate(pending):
            item_start = time.perf_counter()
            payloads = worker(index, item, 0)
            finish(index, payloads, time.perf_counter() - item_start)
    elif pending:
        session = PoolSession(min(jobs, len(pending)), worker,
                              timeout=timeout, retries=retries)
        drained = False
        try:
            for index, item in enumerate(pending):
                session.submit(index, item)
            for index, payloads, elapsed in session.drain():
                finish(index, payloads, elapsed)
            drained = True
        finally:
            # Graceful after a complete run; forcible when interrupted.
            session.close(graceful=drained)

    results.sort(key=lambda result: result.name)
    return BatchResult(results=results, jobs=jobs,
                       wall_time=time.perf_counter() - start,
                       cache_hits=sum(r.cache_hit for r in results),
                       cache_misses=len(pending) + upfront_failures,
                       resumed=resumed)

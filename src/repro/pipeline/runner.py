"""The corpus batch runner: fan analysis out across a trace corpus.

The paper's result is statistical — tcpanaly ran over ~20,000
sender-side and ~20,000 receiver-side traces (Table 1).  This module
is the scale substrate: it takes a corpus (a directory of pcap files,
as the paper's packet-filter output was), runs the full per-trace
pipeline (calibration plus sender- or receiver-side identification)
on every file, and does so across ``--jobs`` worker processes.  Capture
bytes are the only input: ``tcpanaly corpus --analyze`` runs this over
the directory it just wrote, so its results are those of
``tcpanaly batch`` on that directory.  Results are reused only through
the checkpoint journal (:class:`~repro.pipeline.journal.BatchJournal`),
keyed by trace name and content digest.

The analysis units import the analyzer when they first run, so a
``--jobs N`` parent that only schedules work and moves result lines
never loads numpy or the analyzer; each worker loads them itself.

Determinism contract: each trace's payload depends only on the trace
content and the implementation catalog.  Results are returned sorted
by trace name, so sequential runs (``jobs=1``), parallel runs, and
resumed runs all produce byte-identical JSONL output.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import classify_exception
from repro.pipeline.journal import BatchJournal, file_digest
from repro.pipeline.lines import (
    PayloadLine,
    encode_payload,
    json_object,
    parent_fields,
)
from repro.pipeline.resilience import PoolSession, error_line, run_guarded
from repro.tcp.catalog import CATALOG

if TYPE_CHECKING:
    from repro.harness.faults import FaultPlan

_TRACE_SIDES = ("sender", "receiver")


@dataclass
class BatchItem:
    """One unit of batch work: a pcap file plus its provenance.

    *implementation* is the ground-truth label when known (from the
    corpus filename), enabling the aggregate confusion matrix.
    """

    name: str
    path: Path
    implementation: str | None = None

    def content_digest(self) -> str:
        return file_digest(self.path)


@dataclass
class TraceResult:
    """One analyzed trace: its deterministic payload line plus run
    metadata.

    *line* is the payload's canonical JSONL line, encoded once by the
    worker that produced it, and *fields* the part of the payload the
    parent reads (:func:`~repro.pipeline.lines.parent_fields`).
    *elapsed* and *resumed* describe this particular run and are
    deliberately kept out of the payload.
    """

    name: str
    line: str
    fields: dict
    elapsed: float = 0.0
    resumed: bool = False

    @property
    def payload(self) -> dict:
        """The payload, parsed from :attr:`line` on every access: for
        tests and tools, never read on a production path."""
        return json.loads(self.line)


def _result(entry: PayloadLine, **run) -> TraceResult:
    return TraceResult(entry.trace, entry.line, entry.fields, **run)


@dataclass
class BatchResult:
    """Everything a batch run produced, plus throughput accounting.

    *analyzed* counts the items this run did not resume from its
    journal (upfront ``io`` quarantines included), *resumed* those it
    replayed.
    """

    results: list[TraceResult] = field(default_factory=list)
    jobs: int = 1
    wall_time: float = 0.0
    analyzed: int = 0
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


def analyze_item(item: BatchItem) -> dict:
    """Eager analysis: the whole trace in memory, one payload.

    Failures propagate; :func:`run_batch`'s worker guard
    (:func:`~repro.pipeline.resilience.run_guarded`) turns each into a
    classified error payload (``error_kind``: decode/io/model), so a
    damaged trace never aborts a corpus-scale run.
    """
    from repro.core.report import analyze_trace
    from repro.trace.pcap import read_pcap

    trace = read_pcap(item.path)
    report = analyze_trace(trace, identify=True)
    payload = {
        "trace": item.name,
        "implementation": item.implementation,
        "records": len(trace),
    }
    payload.update(report.to_dict())
    return payload


def _eager_lines(item: BatchItem) -> list[PayloadLine]:
    return [encode_payload(analyze_item(item))]


def analyze_item_stream(item: BatchItem) -> list[PayloadLine]:
    """Streamed analysis: one payload line per demultiplexed connection.

    The item's records, decoded incrementally from its capture, go
    through the flow table, and each connection is analyzed on its
    own.  A single-connection capture keeps the item's own name, so
    corpus aggregates match the eager path.  Every payload carries the
    capture's ingest statistics.  A poisonous connection quarantines
    itself (``error_kind`` in its payload) without sinking the
    capture's other flows; a failure of the capture itself
    (unreadable, not a pcap) propagates to the worker guard, which
    quarantines the whole item.

    Each flow is encoded as soon as its analysis finishes, member by
    member, so no flow's report outlives its turn.  Two members are
    known only once the capture is exhausted, the name (which depends
    on the flow count) and the ``ingest`` block, and join the others
    at the end (:func:`~repro.pipeline.lines.json_object`).
    """
    from repro.stream.demux import build_flow_report, demux_pcap, flow_payload
    from repro.stream.stats import IngestStats

    stats = IngestStats()
    encoded = []
    for flow in demux_pcap(item.path, stats=stats):
        flow_report = build_flow_report(flow, identify=True)
        # The name is a placeholder here: its member is replaced below.
        payload = flow_payload(flow_report, "",
                               implementation=item.implementation)
        members = {key: json.dumps(value, sort_keys=True)
                   for key, value in payload.items()}
        encoded.append((flow_report.name, members, parent_fields(payload)))
    ingest = stats.to_dict()
    if not encoded:
        return [encode_payload({
            "trace": item.name, "implementation": item.implementation,
            "error": "no connections demultiplexed",
            "error_kind": "decode", "ingest": ingest})]
    ingest_text = json.dumps(ingest, sort_keys=True)
    lines = []
    for flow_name, members, fields in encoded:
        name = item.name if len(encoded) == 1 \
            else f"{item.name}#{flow_name}"
        members["trace"] = json.dumps(name)
        members["ingest"] = ingest_text
        fields["trace"] = name
        fields["ingest"] = ingest
        lines.append(PayloadLine(json_object(members.items()), fields))
    return lines


def run_batch(items: list[BatchItem], jobs: int = 1,
              stream: bool = False,
              timeout: float | None = None,
              retries: int = 2,
              journal: BatchJournal | None = None,
              fault_plan: FaultPlan | None = None) -> BatchResult:
    """Run the analysis pipeline over *items* with *jobs* workers.

    ``jobs=1`` (without a timeout) is a plain in-process sequential
    loop — fully deterministic execution order — for debugging;
    otherwise the items to analyze fan out over a
    :class:`PoolSession`, which survives worker crashes (requeue with
    a *retries* budget, then quarantine as ``error_kind: "crash"``)
    and kills analyses that exceed the per-trace wall-clock *timeout*
    (quarantined as ``error_kind: "timeout"``).

    An item whose file cannot even be digested is quarantined up
    front as ``error_kind: "io"`` and the rest of the batch runs.

    With *journal*, every completed item is checkpointed durably as it
    finishes; items already completed in a resumed journal are
    replayed in the parent without re-analysis, so a fully journaled
    run dispatches no analysis work at all, and the final result set
    is byte-identical to an uninterrupted run's.

    With ``stream=True`` each capture goes through the streaming
    ingest + demux path and may yield several per-connection results;
    the journal's header keeps stream and eager entries apart.
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
            results.append(_result(error_line(item,
                                              classify_exception(error))))
            upfront_failures += 1
            continue
        digests[item.name] = digest
        if journal is not None:
            lines = journal.lookup(item.name, digest)
            if lines is not None:
                for entry in lines:
                    results.append(_result(entry, resumed=True))
                resumed += 1
                continue
        pending.append(item)

    def finish(index: int, lines: list[PayloadLine],
               elapsed: float) -> None:
        # The workers encoded every payload: from here on the parent
        # only moves their lines and reads their fields.
        item = pending[index]
        if journal is not None:
            journal.record(item.name, digests[item.name], lines)
        for entry in lines:
            results.append(_result(entry, elapsed=elapsed))

    analyze = analyze_item_stream if stream else _eager_lines
    worker = functools.partial(run_guarded, analyze, fault_plan=fault_plan)
    if jobs == 1 and timeout is None:
        for index, item in enumerate(pending):
            item_start = time.perf_counter()
            lines = worker(index, item, 0)
            finish(index, lines, time.perf_counter() - item_start)
    elif pending:
        session = PoolSession(min(jobs, len(pending)), worker,
                              timeout=timeout, retries=retries)
        drained = False
        try:
            for index, item in enumerate(pending):
                session.submit(index, item)
            for index, lines, elapsed in session.drain():
                finish(index, lines, elapsed)
            drained = True
        finally:
            # Graceful after a complete run; forcible when interrupted.
            session.close(graceful=drained)

    results.sort(key=lambda result: result.name)
    return BatchResult(results=results, jobs=jobs,
                       wall_time=time.perf_counter() - start,
                       analyzed=len(pending) + upfront_failures,
                       resumed=resumed)

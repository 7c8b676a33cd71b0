"""Parallel corpus batch analysis (the Table-1 scale substrate).

``run_batch`` fans the full per-trace pipeline (calibration plus
sender/receiver identification) out across worker processes.
``write_jsonl`` and ``aggregate_report`` turn a batch into stable
machine-readable results and a Table-1-style summary.

The resilience layer keeps corpus-scale runs alive through anything a
single trace can do: :class:`PoolSession` survives worker crashes
and enforces per-trace timeouts, every failure is quarantined as a
classified :class:`~repro.errors.AnalysisError` payload instead
of aborting the batch, and :class:`BatchJournal` checkpoints completed
items durably so an interrupted run resumes where it stopped.  The
journal is the one result store: entries are keyed by trace name and
validated by content digest (:func:`file_digest` for a pcap,
:func:`trace_digest` for a serve flow).
"""

from repro.errors import ERROR_KINDS, AnalysisError, classify_exception
from repro.pipeline.journal import BatchJournal, file_digest, trace_digest
from repro.pipeline.lines import PayloadLine, encode_payload
from repro.pipeline.report import aggregate_report, result_line, write_jsonl
from repro.pipeline.resilience import (
    PoolSession,
    error_payload,
)
from repro.pipeline.runner import (
    BatchItem,
    BatchResult,
    TraceResult,
    analyze_item,
    analyze_item_stream,
    corpus_items,
    run_batch,
    true_implementation,
)

__all__ = [
    "ERROR_KINDS",
    "AnalysisError",
    "BatchItem",
    "BatchJournal",
    "BatchResult",
    "PayloadLine",
    "PoolSession",
    "TraceResult",
    "aggregate_report",
    "analyze_item",
    "analyze_item_stream",
    "classify_exception",
    "corpus_items",
    "encode_payload",
    "error_payload",
    "file_digest",
    "result_line",
    "run_batch",
    "trace_digest",
    "true_implementation",
    "write_jsonl",
]

"""The streaming analysis front end: pcap → flows → TraceReports.

Composes :func:`iter_pcap_columns` (bounded-memory decode) with the
:class:`FlowTable` (4-tuple demux) and hands each completed flow to
the existing ``analyze_trace`` machinery, so one large multi-
connection capture fans out into per-connection reports exactly as if
each connection had been captured alone.  For a single-connection
capture the streamed report is byte-identical to the eager
``read_pcap`` → ``analyze_trace`` path — the equivalence the test
suite pins down.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path as FilePath
from typing import Iterator

from repro.core.report import TraceReport, analyze_trace
from repro.errors import AnalysisError, classify_exception
from repro.stream.flowtable import Flow, demux_packets
from repro.stream.reader import iter_pcap_columns
from repro.stream.stats import IngestStats
from repro.trace.wire import AddressMap


@dataclass
class FlowReport:
    """One demultiplexed connection plus its analysis report.

    A connection whose analysis failed still yields a FlowReport —
    *report* is None and *error* carries the classified failure, so
    one poisonous connection quarantines itself instead of sinking
    every other flow in the capture.
    """

    flow: Flow
    report: TraceReport | None
    error: AnalysisError | None = None

    @property
    def name(self) -> str:
        return f"flow-{self.flow.index:04d}"

    def to_dict(self) -> dict:
        """The report payload extended with flow provenance."""
        payload = {
            "flow": {
                "connection": str(self.flow.key),
                "index": self.flow.index,
                "records": self.flow.packet_count,
                "close_reason": self.flow.close_reason,
                "saw_syn": self.flow.saw_syn,
            },
        }
        if self.error is not None:
            payload.update(self.error.to_fields())
        if self.report is not None:
            payload.update(self.report.to_dict())
        return payload


def build_flow_report(flow: Flow, identify: bool = False) -> FlowReport:
    """Analyze one completed flow into a :class:`FlowReport`.

    An analysis failure is classified and returned as an errored
    report instead of propagating.
    """
    try:
        report = analyze_trace(flow.to_trace(), identify=identify)
    except Exception as error:
        return FlowReport(flow=flow, report=None,
                          error=classify_exception(error))
    return FlowReport(flow=flow, report=report)


def flow_payload(flow_report: FlowReport, trace_name: str,
                 implementation: str | None = None) -> dict:
    """The canonical JSONL payload for one analyzed flow.

    Both the batch runner and the serve daemon emit per-flow payloads
    through this one builder, which is what makes live output
    comparable line-for-line with ``batch --stream`` output: same
    keys, same order, same values for the same flow.  (Batch appends
    a capture-wide ``ingest`` block afterwards; the serve sink cannot
    — the capture is still growing when the flow is reported.)
    """
    payload = {
        "trace": trace_name,
        "implementation": implementation,
        "records": flow_report.flow.packet_count,
    }
    payload.update(flow_report.to_dict())
    return payload


def demux_pcap(path: str | FilePath,
               addresses: AddressMap | None = None,
               stats: IngestStats | None = None,
               **table_options) -> Iterator[Flow]:
    """Stream a pcap file into completed flows, one at a time.

    Reader and flow table share *stats*, so after exhaustion the
    caller holds the full ingest picture (decode errors, flow
    lifecycle counts, peak live flows).
    """
    stats = stats if stats is not None else IngestStats()
    yield from demux_packets(
        iter_pcap_columns(path, addresses=addresses, stats=stats),
        stats=stats, **table_options)


def analyze_stream(path: str | FilePath,
                   identify: bool = False,
                   addresses: AddressMap | None = None,
                   stats: IngestStats | None = None,
                   **table_options) -> Iterator[FlowReport]:
    """Analyze every connection in *path*, yielding reports lazily.

    Peak memory is bounded by the live-flow set, not the capture
    length: each flow is analyzed and released as soon as it
    completes.  A flow whose analysis fails yields an errored
    FlowReport instead of aborting the remaining connections.
    """
    for flow in demux_pcap(path, addresses=addresses, stats=stats,
                           **table_options):
        yield build_flow_report(flow, identify=identify)

"""Streaming ingest and flow demultiplexing (the scale front end).

Real captures are long-lived, multi-connection, and partially damaged.
This package turns them into the single-connection traces the rest of
the system analyzes, with bounded memory:

- :func:`iter_pcap` — incremental pcap decode, one record at a time,
  damage-tolerant (truncated trailers, unknown link types, non-TCP
  cross-traffic become counted warnings, not exceptions);
- :class:`FlowTable` / :func:`demux_records` — 4-tuple
  demultiplexing with SYN birth, FIN/RST/idle retirement, and an LRU
  live-flow cap;
- :func:`build_flow_report` / :func:`flow_payload` — the one
  per-flow analysis path every caller (batch, serve, ``demux``,
  fuzz) shares; a flow whose analysis fails becomes an errored
  :class:`FlowReport`, never an exception;
- :func:`analyze_stream` / :func:`demux_pcap` — the composed
  pipeline: capture in, per-connection :class:`FlowReport` out;
- :class:`IngestStats` — the accounting layer every stage reports
  into.
"""

from repro.stream.demux import (
    FlowReport,
    analyze_stream,
    build_flow_report,
    demux_pcap,
    flow_payload,
)
from repro.stream.flowtable import (
    ConnectionKey,
    Flow,
    FlowTable,
    demux_records,
)
from repro.stream.reader import (
    IncrementalPcapReader,
    PcapHeader,
    iter_pcap,
    read_pcap_header,
)
from repro.stream.stats import IngestStats, IngestWarning

__all__ = [
    "ConnectionKey",
    "Flow",
    "FlowReport",
    "FlowTable",
    "IncrementalPcapReader",
    "IngestStats",
    "IngestWarning",
    "PcapHeader",
    "analyze_stream",
    "build_flow_report",
    "demux_pcap",
    "demux_records",
    "flow_payload",
    "iter_pcap",
    "read_pcap_header",
]

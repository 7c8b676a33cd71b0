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

The names below load on first use (PEP 562): importing
``repro.stream.stats`` alone does not pull in the analyzer behind
:mod:`repro.stream.demux`.
"""

import importlib

#: Re-exported name -> the submodule that defines it.
_EXPORTS = {
    "FlowReport": "demux",
    "analyze_stream": "demux",
    "build_flow_report": "demux",
    "demux_pcap": "demux",
    "flow_payload": "demux",
    "ConnectionKey": "flowtable",
    "Flow": "flowtable",
    "FlowTable": "flowtable",
    "demux_packets": "flowtable",
    "demux_records": "flowtable",
    "IncrementalPcapReader": "reader",
    "PcapHeader": "reader",
    "iter_pcap": "reader",
    "iter_pcap_columns": "reader",
    "read_pcap_header": "reader",
    "IngestStats": "stats",
    "IngestWarning": "stats",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)

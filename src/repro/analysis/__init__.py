"""Statistics and plotting helpers for analysis results."""

from repro.analysis.stats import (
    describe,
    Summary,
    ack_class_table,
    retransmission_stats,
)
from repro.analysis.seqplot import sequence_plot, render_ascii_plot
from repro.analysis.connstats import (
    ConnectionStats,
    connection_stats,
)
from repro.analysis.compression import (
    CompressionEvent,
    detect_ack_compression,
)

__all__ = [
    "ConnectionStats",
    "connection_stats",
    "CompressionEvent",
    "detect_ack_compression",
    "describe",
    "Summary",
    "ack_class_table",
    "retransmission_stats",
    "sequence_plot",
    "render_ascii_plot",
]

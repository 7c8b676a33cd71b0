"""Per-connection summary statistics (tcptrace-style).

A downstream user pointing this library at a pcap usually wants the
overview numbers before any behavioral diagnosis: how much data
moved, how fast, how lossy, what the RTT looked like, how bursty the
sender was.  :func:`connection_stats` computes them from a single
connection's trace.  A multi-connection capture (real packet filters
record whatever matches, often several connections at once) is split
first by the stream layer's :class:`~repro.stream.FlowTable`, the one
connection splitter every front end shares.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.packets import ACK, FIN, RST, SYN, FlowKey
from repro.trace.record import Trace
from repro.units import seq_diff, seq_ge, seq_gt


@dataclass
class ConnectionStats:
    """Summary numbers for one connection's trace."""

    flow: FlowKey
    duration: float = 0.0
    unique_bytes: int = 0
    total_data_packets: int = 0
    retransmitted_packets: int = 0
    acks: int = 0
    throughput: float = 0.0          # unique bytes / duration
    goodput_ratio: float = 1.0       # unique / total data bytes sent
    rtt_min: float | None = None
    rtt_median: float | None = None
    rtt_max: float | None = None
    max_burst: int = 0               # most data packets within 5 ms
    idle_time: float = 0.0           # total gaps > 1 s
    syn_count: int = 0
    fin_seen: bool = False
    rst_seen: bool = False

    def render(self) -> str:
        lines = [
            f"connection {self.flow}",
            f"  duration {self.duration:.3f}s, "
            f"{self.unique_bytes} unique bytes, "
            f"throughput {self.throughput / 1024:.1f} KB/s",
            f"  data packets {self.total_data_packets} "
            f"({self.retransmitted_packets} retransmitted, "
            f"goodput ratio {self.goodput_ratio:.2f}); acks {self.acks}",
        ]
        if self.rtt_min is not None:
            lines.append(f"  rtt min/median/max = {self.rtt_min * 1e3:.1f}/"
                         f"{self.rtt_median * 1e3:.1f}/"
                         f"{self.rtt_max * 1e3:.1f} ms")
        lines.append(f"  max burst {self.max_burst} packets; "
                     f"idle {self.idle_time:.2f}s; "
                     f"SYNs {self.syn_count}, "
                     f"FIN {'yes' if self.fin_seen else 'no'}, "
                     f"RST {'yes' if self.rst_seen else 'no'}")
        return "\n".join(lines)


BURST_WINDOW = 0.005
IDLE_THRESHOLD = 1.0


def connection_stats(trace: Trace) -> ConnectionStats:
    """Compute summary statistics over one connection's trace.

    One walk over the trace's columns as plain lists; no
    ``TraceRecord`` is built.
    """
    if not len(trace):
        raise ValueError("empty trace")
    columns = trace.columns()
    forward = columns.primary_flow_id()
    reverse = columns.reverse_id(forward)
    stats = ConnectionStats(flow=columns.flows[forward])

    times = columns.timestamp.tolist()
    stats.duration = times[-1] - times[0]

    highest_sent: int | None = None
    total_data_bytes = 0
    burst: list[float] = []
    previous_time: float | None = None
    rtt_samples: list[float] = []
    pending: list[tuple[int, float]] = []   # (seq_end, first-send time)
    seen_starts: set[int] = set()

    for now, fid, flags, seq, seq_end, ack, payload in zip(
            times, columns.flow_ids.tolist(), columns.flags.tolist(),
            columns.seq.tolist(), columns.seq_end.tolist(),
            columns.ack.tolist(), columns.payload.tolist()):
        if previous_time is not None:
            gap = now - previous_time
            if gap > IDLE_THRESHOLD:
                stats.idle_time += gap
        previous_time = now

        if fid == forward:
            if flags & SYN:
                stats.syn_count += 1
            if flags & FIN:
                stats.fin_seen = True
            if flags & RST:
                stats.rst_seen = True
            if payload > 0:
                stats.total_data_packets += 1
                total_data_bytes += payload
                if seq in seen_starts or (
                        highest_sent is not None
                        and seq_gt(highest_sent, seq)):
                    stats.retransmitted_packets += 1
                else:
                    pending.append((seq_end, now))
                seen_starts.add(seq)
                if highest_sent is None or seq_gt(seq_end, highest_sent):
                    if highest_sent is not None:
                        stats.unique_bytes += seq_diff(seq_end,
                                                       highest_sent)
                    else:
                        stats.unique_bytes += payload
                    highest_sent = seq_end
                burst = [t for t in burst if now - t <= BURST_WINDOW]
                burst.append(now)
                stats.max_burst = max(stats.max_burst, len(burst))
        elif fid == reverse and flags & ACK and not flags & SYN:
            stats.acks += 1
            while pending and seq_ge(ack, pending[0][0]):
                _seq_end, sent_at = pending.pop(0)
                rtt_samples.append(now - sent_at)

    if stats.duration > 0:
        stats.throughput = stats.unique_bytes / stats.duration
    if total_data_bytes > 0:
        stats.goodput_ratio = stats.unique_bytes / total_data_bytes
    if rtt_samples:
        ordered = sorted(rtt_samples)
        stats.rtt_min = ordered[0]
        stats.rtt_median = ordered[len(ordered) // 2]
        stats.rtt_max = ordered[-1]
    return stats

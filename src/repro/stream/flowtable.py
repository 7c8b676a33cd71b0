"""Flow demultiplexing: split a capture stream into connections.

A real packet filter records whatever matched — usually many
connections interleaved, arriving and departing over hours.  The
:class:`FlowTable` consumes decoded packet columns row by row and
groups rows by connection (the unordered endpoint pair, i.e. the
4-tuple), with the lifecycle a kernel's demux would apply:

- **birth** on SYN (non-SYN strays are counted as orphans unless
  ``syn_only=False`` admits mid-capture flows);
- **retirement** on RST or a completed FIN handshake (after a short
  time-wait so straggling final acks stay with their connection), or
  after ``idle_timeout`` of stream-clock silence;
- **eviction** of the least-recently-active flow when the live-flow
  count exceeds ``max_flows``, so memory stays bounded even under
  adversarial traffic (SYN floods, port scans).

Completed flows are handed back in birth order as plain
:class:`Flow` objects, each holding its rows as a slice of the
columns, whose ``to_trace()`` feeds straight into the existing
``analyze_trace`` machinery.  :meth:`FlowTable.add` and
:func:`demux_records` are record adapters over the same table; no
production path calls them, and they stay because ``perfbench`` does.
The table is clocked entirely by packet timestamps — no wall-clock
dependence, so replaying a capture is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from repro.packets import ACK, FIN, RST, SYN, Endpoint
from repro.stream.stats import IngestStats
from repro.trace.columns import EndpointTable, PacketColumns
from repro.trace.record import Trace, TraceRecord

#: Seconds of stream-clock silence after which a flow is retired.
DEFAULT_IDLE_TIMEOUT = 64.0
#: Linger after a FIN handshake / RST so trailing acks stay attached.
DEFAULT_TIME_WAIT = 2.0
#: Live-flow cap; the least-recently-active flow is evicted beyond it.
DEFAULT_MAX_FLOWS = 4096
#: How often (stream seconds) the table scans for idle/closed flows.
EXPIRY_GRANULARITY = 0.5


class ConnectionKey(NamedTuple):
    """A connection identifier: the unordered endpoint pair.

    Both directions of one connection map to the same key; ``a`` and
    ``b`` are stored in a canonical order (the smaller endpoint first)
    so keys print and sort deterministically.
    """

    a: Endpoint
    b: Endpoint

    @classmethod
    def of(cls, src: Endpoint, dst: Endpoint) -> "ConnectionKey":
        if dst < src:
            return cls(dst, src)
        return cls(src, dst)

    def __str__(self) -> str:
        return f"{self.a} <-> {self.b}"


@dataclass(slots=True)
class Flow:
    """One demultiplexed connection: its rows plus lifecycle facts.

    The flow's packets are kept as row blocks: slices of the packet
    columns each batch of the capture decoded to, cut when the batch
    is done with (or the flow retires), so no flow keeps a whole batch
    alive.  :meth:`packets` joins them.
    """

    key: ConnectionKey
    index: int                   # birth order within the capture
    saw_syn: bool = False
    # "fin" | "rst" | "idle" | "evicted" | "eof" | "shed"
    close_reason: str = ""
    opened_at: float = 0.0
    last_seen: float = 0.0
    # FIN/RST teardown progress (directions that sent FIN; pending
    # close reason once the handshake looks complete).
    fin_directions: set[tuple[Endpoint, Endpoint]] = field(
        default_factory=set)
    closing_at: float | None = None
    close_pending: str = ""
    #: How many packets the flow holds.
    packet_count: int = 0
    #: Sealed row blocks (``PacketColumns``), in capture order.
    blocks: list = field(default_factory=list, repr=False)
    #: Rows of ``pending_of`` (the batch being demultiplexed) not yet
    #: cut into a block.
    pending: list[int] = field(default_factory=list, repr=False)
    pending_of: PacketColumns | None = field(default=None, repr=False)

    def seal(self) -> None:
        """Cut the pending rows out of their batch into a block."""
        batch = self.pending_of
        if batch is None:
            return
        rows = self.pending
        self.blocks.append(batch if len(rows) == len(batch)
                           else batch.take(rows))
        self.pending = []
        self.pending_of = None

    def packets(self) -> PacketColumns:
        """Every packet of this flow so far, as one block of rows."""
        self.seal()
        if len(self.blocks) != 1:
            self.blocks = [PacketColumns.concat(self.blocks)]
        return self.blocks[0]

    @property
    def records(self) -> list[TraceRecord]:
        """The flow's packets as records, built on each read.

        No production path reads it: every consumer takes
        :meth:`packets` or :meth:`to_trace`.  It stays because
        ``perfbench``'s tests read it.
        """
        return self.packets().records()

    def to_trace(self, vantage: str = "", filter_name: str = "") -> Trace:
        """This flow as a single-connection trace for the analyzers."""
        return Trace.from_columns(self.packets(), vantage=vantage,
                                  filter_name=filter_name,
                                  reported_drops=None)

    def describe(self) -> str:
        return (f"{self.key} — {self.packet_count} records, "
                f"{self.last_seen - self.opened_at:.3f}s, "
                f"closed: {self.close_reason or 'open'}")


class FlowTable:
    """Streaming 4-tuple demultiplexer with bounded live-flow memory.

    Feed packet columns with :meth:`add_packets` (or one record with
    :meth:`add`, an adapter); each call returns the flows that
    *completed* as a result (usually none).  Call :meth:`drain` at end
    of stream for everything still live.  Iteration order of returned
    flows is always birth order for each packet.
    """

    def __init__(self,
                 idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
                 time_wait: float = DEFAULT_TIME_WAIT,
                 max_flows: int = DEFAULT_MAX_FLOWS,
                 syn_only: bool = True,
                 stats: IngestStats | None = None) -> None:
        if max_flows < 1:
            raise ValueError(f"max_flows must be >= 1, not {max_flows}")
        self.idle_timeout = idle_timeout
        self.time_wait = time_wait
        self.max_flows = max_flows
        self.syn_only = syn_only
        self.stats = stats if stats is not None else IngestStats()
        # Insertion order is maintained as least-recently-active first
        # (flows are re-inserted on every touch), so the front of the
        # dict is both the LRU eviction victim and the idlest flow.
        self._flows: dict[ConnectionKey, Flow] = {}
        self._next_index = 0
        self._last_expiry: float | None = None

    @property
    def live_flows(self) -> int:
        return len(self._flows)

    def add(self, record: TraceRecord) -> list[Flow]:
        """Account one record; return flows completed by its arrival.

        A record adapter over :meth:`add_packets`, kept for
        ``perfbench``'s input builder (no production path calls it).
        """
        return self.add_packets(PacketColumns.from_records([record]))

    def add_packets(self, packets: PacketColumns) -> list[Flow]:
        """Account each row of *packets* in order; return the flows
        their arrival completed (per row, in birth order)."""
        if not len(packets):
            return []
        keys, directions, pair_of = _connection_keys(packets)
        flows = self._flows
        stats = self.stats
        syn_only = self.syn_only
        touched: list[Flow] = []
        completed: list[Flow] = []
        for row, (now, flags, pure_ack, pair) in enumerate(zip(
                packets.timestamp.tolist(), packets.flags.tolist(),
                packets.pure_acks().tolist(), pair_of)):
            if self._last_expiry is None \
                    or now - self._last_expiry >= EXPIRY_GRANULARITY:
                retired = self._expire(now)
            else:
                retired = []
            key = keys[pair]
            flow = flows.get(key)

            if flow is not None and flow.closing_at is not None \
                    and flags & (SYN | ACK) == SYN:
                # The 4-tuple is being reused: a fresh SYN against a
                # closed-down flow starts a new connection, so retire
                # the old one immediately rather than gluing them
                # together.
                self._retire(flow, flow.close_pending or "fin")
                retired.append(flow)
                flow = None

            if flow is None:
                if syn_only and not flags & SYN:
                    stats.orphan_packets += 1
                    if retired:
                        completed.extend(_birth_order(retired))
                    continue
                flow = Flow(key=key, index=self._next_index,
                            opened_at=now)
                self._next_index += 1
                flows[key] = flow
                stats.flow_opened()
                while len(flows) > self.max_flows:
                    victim = flows[next(iter(flows))]
                    self._retire(victim, "evicted")
                    retired.append(victim)
            else:
                # Touch: move to the most-recently-active end.
                del flows[key]
                flows[key] = flow

            if flow.pending_of is not packets:
                flow.pending_of = packets
                touched.append(flow)
            flow.pending.append(row)
            flow.packet_count += 1
            flow.last_seen = now
            if flags & SYN:
                flow.saw_syn = True
            if flags & RST:
                flow.close_pending = "rst"
                flow.closing_at = now
            elif flags & FIN:
                flow.fin_directions.add(directions[pair])
            elif pure_ack and len(flow.fin_directions) >= 2:
                # Both sides sent FIN and this looks like the final ack
                # of the teardown: start the time-wait linger.
                flow.close_pending = "fin"
                flow.closing_at = now
            if retired:
                completed.extend(_birth_order(retired))
        # The batch is done with: cut each live flow's rows out of it.
        for flow in touched:
            flow.seal()
        return completed

    def shed(self, count: int) -> list[Flow]:
        """Early-retire the *count* least-recently-active live flows.

        The memory-pressure escape valve for the serve governor: the
        flows come back (close reason ``"shed"``) so their packets can
        still be analyzed, but the table stops holding them.  Never
        called on the batch path — shedding trades the live-vs-batch
        equivalence of the affected flows for a bounded memory
        ceiling, which is exactly the degradation ladder's deal.
        """
        victims = []
        for key in list(self._flows):
            if len(victims) >= count:
                break
            victims.append(self._flows[key])
        for flow in victims:
            self._retire(flow, "shed")
        return sorted(victims, key=lambda f: f.index)

    def drain(self) -> list[Flow]:
        """Retire everything still live (end of stream)."""
        remaining = sorted(self._flows.values(), key=lambda f: f.index)
        for flow in remaining:
            self._retire(flow, flow.close_pending or "eof")
        return remaining

    def _retire(self, flow: Flow, reason: str) -> None:
        flow.seal()
        flow.close_reason = reason
        del self._flows[flow.key]
        self.stats.flow_retired(reason)

    def _expire(self, now: float) -> list[Flow]:
        """Retire flows whose time-wait or idle timeout has passed.

        Runs a full scan at most every ``EXPIRY_GRANULARITY`` stream
        seconds (the caller checks); with the live-flow cap, the scan
        cost is bounded no matter how long the capture runs.
        """
        self._last_expiry = now
        expired = []
        for flow in list(self._flows.values()):
            if flow.closing_at is not None \
                    and now - flow.closing_at >= self.time_wait:
                self._retire(flow, flow.close_pending)
                expired.append(flow)
            elif now - flow.last_seen >= self.idle_timeout:
                self._retire(flow, "idle")
                expired.append(flow)
        return expired


def _connection_keys(packets: PacketColumns) -> tuple[list, list, list]:
    """Per distinct (src, dst) pair of *packets*: its connection key
    and direction, and per row, the index of its pair."""
    endpoints = packets.endpoints
    width = max(len(endpoints), 1)
    pairs, pair_of = np.unique(packets.src.astype(np.int64) * width
                               + packets.dst, return_inverse=True)
    keys, directions = [], []
    for code in pairs.tolist():
        src, dst = endpoints[code // width], endpoints[code % width]
        keys.append(ConnectionKey.of(src, dst))
        directions.append((src, dst))
    return keys, directions, pair_of.reshape(len(packets)).tolist()


def _birth_order(flows: list[Flow]) -> list[Flow]:
    """*flows* sorted by birth order (most calls complete none)."""
    if len(flows) > 1:
        flows.sort(key=lambda flow: flow.index)
    return flows


#: Records per batch when :func:`demux_records` adapts a record stream.
RECORD_BATCH = 4096


def demux_records(records: Iterable[TraceRecord],
                  stats: IngestStats | None = None,
                  **table_options) -> Iterator[Flow]:
    """Demultiplex a record stream into completed flows, lazily (an
    adapter: the records go through :func:`demux_packets` in batches).

    No production path calls it; it stays because ``perfbench``'s
    layer timings do.
    """
    def batches() -> Iterator[PacketColumns]:
        table = EndpointTable()
        iterator = iter(records)
        while True:
            chunk = list(islice(iterator, RECORD_BATCH))
            if not chunk:
                return
            yield PacketColumns.from_records(chunk, table)

    yield from demux_packets(batches(), stats=stats, **table_options)


def demux_packets(batches: Iterable[PacketColumns],
                  stats: IngestStats | None = None,
                  **table_options) -> Iterator[Flow]:
    """Demultiplex batches of packet columns into completed flows,
    lazily."""
    table = FlowTable(stats=stats, **table_options)
    for packets in batches:
        yield from table.add_packets(packets)
    yield from table.drain()

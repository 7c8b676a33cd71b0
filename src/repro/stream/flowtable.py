"""Flow demultiplexing: split a capture stream into connections.

A real packet filter records whatever matched — usually many
connections interleaved, arriving and departing over hours.  The
:class:`FlowTable` consumes one :class:`TraceRecord` at a time and
groups records by connection (the unordered endpoint pair, i.e. the
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
:class:`Flow` objects whose ``to_trace()`` feeds straight into the
existing ``analyze_trace`` machinery.  The table is clocked entirely
by record timestamps — no wall-clock dependence, so replaying a
capture is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple

from repro.packets import ACK, FIN, RST, SYN, Endpoint, FlowKey
from repro.stream.stats import IngestStats
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

    @classmethod
    def from_record(cls, record: TraceRecord) -> "ConnectionKey":
        return cls.of(record.src, record.dst)

    def __str__(self) -> str:
        return f"{self.a} <-> {self.b}"


@dataclass(slots=True)
class Flow:
    """One demultiplexed connection: its records plus lifecycle facts."""

    key: ConnectionKey
    index: int                   # birth order within the capture
    records: list[TraceRecord] = field(default_factory=list)
    saw_syn: bool = False
    # "fin" | "rst" | "idle" | "evicted" | "eof" | "shed"
    close_reason: str = ""
    opened_at: float = 0.0
    last_seen: float = 0.0
    # FIN/RST teardown progress (directions that sent FIN; pending
    # close reason once the handshake looks complete).
    fin_directions: set[FlowKey] = field(default_factory=set)
    closing_at: float | None = None
    close_pending: str = ""

    def to_trace(self, vantage: str = "", filter_name: str = "") -> Trace:
        """This flow as a single-connection trace for the analyzers."""
        return Trace(records=list(self.records), vantage=vantage,
                     filter_name=filter_name, reported_drops=None)

    def describe(self) -> str:
        return (f"{self.key} — {len(self.records)} records, "
                f"{self.last_seen - self.opened_at:.3f}s, "
                f"closed: {self.close_reason or 'open'}")


class FlowTable:
    """Streaming 4-tuple demultiplexer with bounded live-flow memory.

    Feed records with :meth:`add`; each call returns the flows that
    *completed* as a result (usually none).  Call :meth:`drain` at end
    of stream for everything still live.  Iteration order of returned
    flows is always birth order.
    """

    def __init__(self,
                 idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
                 time_wait: float = DEFAULT_TIME_WAIT,
                 max_flows: int = DEFAULT_MAX_FLOWS,
                 syn_only: bool = True,
                 stats: IngestStats | None = None,
                 on_retire: Callable[[Flow], None] | None = None) -> None:
        if max_flows < 1:
            raise ValueError(f"max_flows must be >= 1, not {max_flows}")
        self.idle_timeout = idle_timeout
        self.time_wait = time_wait
        self.max_flows = max_flows
        self.syn_only = syn_only
        self.stats = stats if stats is not None else IngestStats()
        # Invoked once per flow, at the moment it is retired (its
        # close_reason already set).  Lets a live consumer — the serve
        # tailer — react to completions without polling the return
        # values of every add(); batch callers simply leave it unset.
        self.on_retire = on_retire
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
        """Account one record; return flows completed by its arrival."""
        completed = self._expire(record.timestamp)
        key = ConnectionKey.from_record(record)
        flags = record.flags
        flow = self._flows.get(key)

        if flow is not None and flow.closing_at is not None \
                and flags & (SYN | ACK) == SYN:
            # The 4-tuple is being reused: a fresh SYN against a
            # closed-down flow starts a new connection, so retire the
            # old one immediately rather than gluing them together.
            self._retire(flow, flow.close_pending or "fin")
            completed.append(flow)
            flow = None

        if flow is None:
            if self.syn_only and not flags & SYN:
                self.stats.orphan_packets += 1
                return _birth_order(completed)
            flow = Flow(key=key, index=self._next_index,
                        opened_at=record.timestamp)
            self._next_index += 1
            self._flows[key] = flow
            self.stats.flow_opened()
            while len(self._flows) > self.max_flows:
                victim_key = next(iter(self._flows))
                victim = self._flows[victim_key]
                self._retire(victim, "evicted")
                completed.append(victim)
        else:
            # Touch: move to the most-recently-active end.
            del self._flows[key]
            self._flows[key] = flow

        flow.records.append(record)
        flow.last_seen = record.timestamp
        if flags & SYN:
            flow.saw_syn = True
        if flags & RST:
            flow.close_pending = "rst"
            flow.closing_at = record.timestamp
        elif flags & FIN:
            flow.fin_directions.add(record.flow)
        elif len(flow.fin_directions) >= 2 and record.is_pure_ack:
            # Both sides sent FIN and this looks like the final ack of
            # the teardown: start the time-wait linger.
            flow.close_pending = "fin"
            flow.closing_at = record.timestamp
        return _birth_order(completed)

    def shed(self, count: int) -> list[Flow]:
        """Early-retire the *count* least-recently-active live flows.

        The memory-pressure escape valve for the serve governor: the
        flows come back (close reason ``"shed"``) so their records can
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
        flow.close_reason = reason
        del self._flows[flow.key]
        self.stats.flow_retired(reason)
        if self.on_retire is not None:
            self.on_retire(flow)

    def _expire(self, now: float) -> list[Flow]:
        """Retire flows whose time-wait or idle timeout has passed.

        Runs a full scan at most every ``EXPIRY_GRANULARITY`` stream
        seconds; with the live-flow cap, the scan cost is bounded no
        matter how long the capture runs.
        """
        if self._last_expiry is not None \
                and now - self._last_expiry < EXPIRY_GRANULARITY:
            return []
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


def _birth_order(flows: list[Flow]) -> list[Flow]:
    """*flows* sorted by birth order (most calls complete none)."""
    if len(flows) > 1:
        flows.sort(key=lambda flow: flow.index)
    return flows


def demux_records(records: Iterable[TraceRecord],
                  stats: IngestStats | None = None,
                  **table_options) -> Iterator[Flow]:
    """Demultiplex a record stream into completed flows, lazily."""
    table = FlowTable(stats=stats, **table_options)
    for record in records:
        yield from table.add(record)
    yield from table.drain()

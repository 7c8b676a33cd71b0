"""The trace representation the analyzer consumes.

A :class:`TraceRecord` is a timestamped snapshot of a packet as a
packet filter recorded it — plain data, no live simulator references,
so traces serialize to pcap/text and round-trip.  A :class:`Trace` is
an ordered list of records plus measurement metadata (where the filter
sat, what it claims about drops).

``packet_id`` survives into the record: it identifies distinct wire
packets, letting tests ask ground-truth questions ("was this record a
measurement duplicate of that one?").  The analyzer itself never uses
it — tcpanaly had no such luxury.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator

from repro.packets import ACK, Endpoint, FlowKey, Segment, flags_to_string
from repro.units import seq_diff


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One packet as captured: timestamp plus header fields.

    ``slots=True`` matters here: corpus runs hold millions of records
    live, and every replay touches each one several times — slots cut
    both the per-record footprint and attribute-lookup cost.
    """

    timestamp: float
    src: Endpoint
    dst: Endpoint
    seq: int
    ack: int
    flags: int
    payload: int
    window: int
    mss_option: int | None = None
    corrupted: bool = False
    packet_id: int = 0

    @property
    def flow(self) -> FlowKey:
        return FlowKey(self.src, self.dst)

    @property
    def seq_end(self) -> int:
        length = self.payload
        if self.flags & 0x02:  # SYN
            length += 1
        if self.flags & 0x01:  # FIN
            length += 1
        return (self.seq + length) % 2**32

    @property
    def is_syn(self) -> bool:
        return bool(self.flags & 0x02)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & 0x01)

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & 0x04)

    @property
    def has_ack(self) -> bool:
        return bool(self.flags & ACK)

    @property
    def is_pure_ack(self) -> bool:
        return self.has_ack and self.payload == 0 and not (self.is_syn
                                                           or self.is_fin)

    def with_timestamp(self, timestamp: float) -> "TraceRecord":
        return replace(self, timestamp=timestamp)

    def describe(self, base_time: float = 0.0) -> str:
        """One human-readable line, tcpdump flavored."""
        t = self.timestamp - base_time
        desc = (f"{t:12.6f} {self.src} > {self.dst}: "
                f"{flags_to_string(self.flags)} {self.seq}:{self.seq_end}"
                f"({self.payload})")
        if self.has_ack:
            desc += f" ack {self.ack}"
        desc += f" win {self.window}"
        if self.mss_option is not None:
            desc += f" <mss {self.mss_option}>"
        return desc


def record_from_segment(segment: Segment, timestamp: float) -> TraceRecord:
    """Snapshot a live segment into an immutable trace record."""
    return TraceRecord(
        timestamp=timestamp, src=segment.src, dst=segment.dst,
        seq=segment.seq, ack=segment.ack, flags=segment.flags,
        payload=segment.payload, window=segment.window,
        mss_option=segment.mss_option, corrupted=segment.corrupted,
        packet_id=segment.packet_id)


@dataclass
class Trace:
    """An ordered sequence of captured packets plus metadata.

    ``reported_drops`` is what the *filter* claims about its own drops
    — which, per §3.1.1, may be absent (None), accurate, or a lie.
    ``vantage`` names where the filter sat (e.g. ``"sender"``).

    A trace is born either from records (``Trace(records=...)``: the
    simulator's traces, the fuzzer's record manglers and
    ``perfbench``'s inputs) or from packet columns
    (:meth:`from_columns`, the decode path); a trace born from columns
    builds its ``records`` list only when something first reads it
    (``records`` is a property over both).
    """

    records: list[TraceRecord] = field(default_factory=list)
    vantage: str = ""
    filter_name: str = ""
    reported_drops: int | None = None
    #: The ``PacketColumns`` a decoded trace was born from.
    _packets: object = field(default=None, init=False, repr=False,
                             compare=False)
    #: Lazily-built columnar view (:mod:`repro.trace.columns`); the
    #: flow-partition accessors below memoize their scans through it.
    _columns: object = field(default=None, init=False, repr=False,
                             compare=False)

    @classmethod
    def from_columns(cls, packets, vantage: str = "", filter_name: str = "",
                     reported_drops: int | None = None) -> "Trace":
        """A trace of decoded packet columns (a ``PacketColumns``)."""
        trace = cls(vantage=vantage, filter_name=filter_name,
                    reported_drops=reported_drops)
        trace._records = None
        trace._packets = packets
        return trace

    def columns(self):
        """The columnar view of this trace (built once, cached)."""
        if self._records is None and self._columns is not None:
            return self._columns      # born from columns: never stale
        from repro.trace.columns import columns_of
        return columns_of(self)

    def packets(self):
        """This trace's rows as ``PacketColumns``."""
        if self._records is None:
            return self._packets
        return self.columns().packets

    def __len__(self) -> int:
        if self._records is not None:
            return len(self._records)
        return len(self._packets)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, index):
        return self.records[index]

    @property
    def start_time(self) -> float:
        if not len(self):
            return 0.0
        if self._records is not None:
            return self._records[0].timestamp
        return float(self._packets.timestamp[0])

    def flows(self) -> set[FlowKey]:
        return set(self.columns().flows)

    def primary_flow(self) -> FlowKey:
        """The data-carrying direction: the flow sending the most bytes.

        Falls back to the SYN sender's flow for data-less traces.
        """
        return self.columns().primary_flow()

    def in_flow(self, flow: FlowKey) -> list[TraceRecord]:
        columns = self.columns()
        fid = columns.flow_id(flow)
        if fid < 0:
            return []
        return columns.records_at(columns.indices("flow", fid))

    def data_packets(self, flow: FlowKey | None = None) -> list[TraceRecord]:
        columns = self.columns()
        fid = (columns.primary_flow_id() if flow is None
               else columns.flow_id(flow))
        if fid < 0:
            return []
        return columns.records_at(columns.indices("data", fid))

    def acks(self, flow: FlowKey | None = None) -> list[TraceRecord]:
        """Pure acks flowing *against* the primary (data) direction.

        SYN-acks are handshake packets and RSTs are aborts — neither
        acknowledges data, so neither belongs in ack-policy or
        receiver analysis even when the segment carries the ACK bit
        (a pure RST+ACK does).  Replay loops call these accessors per
        candidate, so the index slices are memoized on the columnar
        view rather than re-scanning the record list each call.
        """
        columns = self.columns()
        fid = (columns.primary_flow_id() if flow is None
               else columns.flow_id(flow))
        if fid < 0:
            return []
        return columns.records_at(columns.indices("acks", fid))

    def filtered(self, predicate: Callable[[TraceRecord], bool]) -> "Trace":
        return Trace(records=[r for r in self.records if predicate(r)],
                     vantage=self.vantage, filter_name=self.filter_name,
                     reported_drops=self.reported_drops)

    def sorted_by_time(self) -> "Trace":
        return Trace(records=sorted(self.records, key=lambda r: r.timestamp),
                     vantage=self.vantage, filter_name=self.filter_name,
                     reported_drops=self.reported_drops)

    def relative_seq(self, record: TraceRecord) -> int:
        """Sequence number relative to the flow's first record."""
        first = next(r for r in self.records if r.flow == record.flow)
        return seq_diff(record.seq, first.seq)

    def describe(self, limit: int | None = None) -> str:
        """Multi-line tcpdump-style rendering (for reports and debugging)."""
        base = self.start_time
        lines = [r.describe(base) for r in
                 (self.records if limit is None else self.records[:limit])]
        return "\n".join(lines)


def _records(trace: Trace) -> list[TraceRecord]:
    if trace._records is None:
        trace._records = trace.columns().materialize()
    return trace._records


def _set_records(trace: Trace, records: list[TraceRecord]) -> None:
    trace._records = records
    trace._packets = None
    trace._columns = None


# A property over the ``records`` field: set by ``__init__`` (and
# ``dataclasses.replace``), built from the columns on first read.
Trace.records = property(_records, _set_records)


def trace_from_segments(pairs: Iterable[tuple[Segment, float]],
                        vantage: str = "",
                        filter_name: str = "") -> Trace:
    """Build a trace directly from (segment, time) pairs — the
    error-free capture a perfect filter would produce."""
    records = [record_from_segment(seg, t) for seg, t in pairs]
    return Trace(records=records, vantage=vantage, filter_name=filter_name,
                 reported_drops=0)

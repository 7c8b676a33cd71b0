"""Columnar packets: the one form a decoded packet takes.

Per-packet analysis over ``TraceRecord`` objects pays Python object
overhead on every field touch — tolerable for one trace, ruinous for a
corpus.  Decode therefore ends in arrays: a :class:`PacketColumns` is
one array per header field (timestamp, endpoints, seq, ack, flags,
payload, window, MSS option, checksum verdict, IP id), one row per
packet.  The flow table demultiplexes row indices and hands each flow
out as a slice of rows; a :class:`~repro.trace.record.Trace` is born
from such a slice.  Endpoints are interned: the ``src``/``dst``
columns index an :class:`EndpointTable`, so each distinct endpoint is
one :class:`~repro.packets.Endpoint` however many packets carry it.

:class:`TraceColumns` is the analysis view of one trace's packets:
derived columns (``seq_end``, SYN/FIN/RST masks) and a flow-id
partition, built once per trace, lazily, and cached on the trace.
The candidate-independent kernels (pass-one fact extraction,
calibration screening) run against its arrays.  A ``TraceRecord`` is
built from a row only where one is read (:meth:`TraceColumns.record`,
:class:`RecordRows`); the per-record loops the kernels replaced live
on only as test oracles (``tests/core/kernel_oracles.py``).

Sequence numbers live in a 32-bit modular space; arrays hold them
*unwrapped* relative to a per-trace base (the first record's seq) as
int64, so ordinary ``<`` / ``max`` reproduce ``seq_gt`` / ``seq_max``
exactly for any trace spanning less than 2**31 bytes of sequence
space — which the modular helpers themselves already assume.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.packets import Endpoint, FlowKey
from repro.trace.record import TraceRecord

if TYPE_CHECKING:                      # pragma: no cover
    from repro.trace.record import Trace

#: Half the sequence space: the unwrap window of ``seq_diff``.
_SEQ_HALF = 2**31
_SEQ_SPACE = 2**32

#: The row columns, in ``TraceRecord`` field order (``src``/``dst``
#: hold endpoint indices; ``mss_option`` -1 encodes "no option").
FIELDS = ("timestamp", "src", "dst", "seq", "ack", "flags", "payload",
          "window", "mss_option", "corrupted", "packet_id")
DTYPES = (np.float64, np.int32, np.int32, np.int64, np.int64, np.uint8,
          np.int32, np.int32, np.int32, np.bool_, np.int32)


class EndpointTable:
    """Interned endpoints: each distinct endpoint gets one index.

    ``by_key`` caches the index of a wire key (``ip << 16 | port``),
    so a decoder resolves each address once per table, not per packet.
    """

    __slots__ = ("endpoints", "by_key", "_by_endpoint")

    def __init__(self) -> None:
        self.endpoints: list[Endpoint] = []
        self.by_key: dict[int, int] = {}
        self._by_endpoint: dict[Endpoint, int] = {}

    def index(self, endpoint: Endpoint) -> int:
        found = self._by_endpoint.get(endpoint)
        if found is None:
            found = self._by_endpoint[endpoint] = len(self.endpoints)
            self.endpoints.append(endpoint)
        return found


class PacketColumns:
    """Packets as parallel arrays (:data:`FIELDS`), one row each.

    ``endpoints`` is the list the ``src``/``dst`` indices point into;
    batches decoded from one capture share it.  It never holds one
    endpoint twice, so equal endpoints have equal indices.
    """

    __slots__ = FIELDS + ("endpoints",)

    def __init__(self, endpoints: list[Endpoint], *arrays) -> None:
        self.endpoints = endpoints
        for name, dtype, array in zip(FIELDS, DTYPES, arrays):
            setattr(self, name, np.asarray(array, dtype=dtype))

    def __len__(self) -> int:
        return len(self.timestamp)

    def arrays(self) -> tuple:
        return tuple(getattr(self, name) for name in FIELDS)

    def __reduce__(self):
        # What a flow costs to cross a process boundary: one buffer
        # for every column, each integer column in the narrowest
        # dtype its values fit, and only the endpoints this block uses.
        packed = self.compact()
        arrays = [_narrowest(array) for array in packed.arrays()]
        return _unpack, (packed.endpoints, len(packed),
                         [array.dtype.str for array in arrays],
                         b"".join(array.tobytes() for array in arrays))

    @classmethod
    def empty(cls, endpoints: list[Endpoint] | None = None
              ) -> "PacketColumns":
        return cls([] if endpoints is None else endpoints,
                   *([] for _ in FIELDS))

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord],
                     table: EndpointTable | None = None
                     ) -> "PacketColumns":
        """Records as rows: the adapter for callers that hold records."""
        table = table if table is not None else EndpointTable()
        index = table.index
        rows = [(r.timestamp, index(r.src), index(r.dst), r.seq, r.ack,
                 r.flags, r.payload, r.window,
                 -1 if r.mss_option is None else r.mss_option,
                 r.corrupted, r.packet_id) for r in records]
        if not rows:
            return cls.empty(table.endpoints)
        return cls(table.endpoints, *zip(*rows))

    def head(self, count: int) -> "PacketColumns":
        """The first *count* rows."""
        return PacketColumns(self.endpoints,
                             *(array[:count] for array in self.arrays()))

    def take(self, rows) -> "PacketColumns":
        """The rows at *rows*, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return PacketColumns(self.endpoints,
                             *(array[rows] for array in self.arrays()))

    @classmethod
    def concat(cls, blocks: list["PacketColumns"]) -> "PacketColumns":
        """*blocks* end to end, their endpoints merged by value."""
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            return cls.empty()
        endpoints = blocks[0].endpoints
        if any(block.endpoints is not endpoints for block in blocks):
            table = EndpointTable()
            remapped = []
            for block in blocks:
                lut = np.array([table.index(e) for e in block.endpoints]
                               or [0], dtype=np.int32)
                remapped.append((lut[block.src], lut[block.dst]))
            endpoints = table.endpoints
        else:
            remapped = [(block.src, block.dst) for block in blocks]
        arrays = [np.concatenate([getattr(block, name) for block in blocks])
                  for name in FIELDS]
        arrays[1] = np.concatenate([src for src, _ in remapped])
        arrays[2] = np.concatenate([dst for _, dst in remapped])
        return cls(endpoints, *arrays)

    def compact(self) -> "PacketColumns":
        """This block with an endpoint list of only what it uses."""
        used = np.unique(np.concatenate((self.src, self.dst)))
        if len(used) == len(self.endpoints):
            return self
        lut = np.zeros(len(self.endpoints), dtype=np.int32)
        lut[used] = np.arange(len(used), dtype=np.int32)
        endpoints = self.endpoints
        arrays = list(self.arrays())
        arrays[1] = lut[self.src]
        arrays[2] = lut[self.dst]
        return PacketColumns([endpoints[i] for i in used.tolist()], *arrays)

    def pure_acks(self) -> np.ndarray:
        """``TraceRecord.is_pure_ack`` per row."""
        flags = self.flags
        return (((flags & 0x10) != 0) & (self.payload == 0)
                & ((flags & 0x03) == 0))

    def records(self, rows=None) -> list[TraceRecord]:
        """``TraceRecord``s of *rows* (all rows when None)."""
        arrays = self.arrays() if rows is None else tuple(
            array[rows] for array in self.arrays())
        (timestamp, src, dst, seq, ack, flags, payload, window, mss,
         corrupted, packet_id) = (array.tolist() for array in arrays)
        endpoints = self.endpoints
        return list(map(
            TraceRecord, timestamp, [endpoints[i] for i in src],
            [endpoints[i] for i in dst], seq, ack, flags, payload, window,
            [None if m < 0 else m for m in mss], corrupted, packet_id))

    def record(self, row: int) -> TraceRecord:
        return self.records([row])[0]


_NARROW = tuple(np.dtype(t) for t in (np.uint8, np.int8, np.uint16,
                                        np.int16, np.uint32, np.int32))


def _narrowest(array: np.ndarray) -> np.ndarray:
    """*array* in the narrowest integer dtype holding its values."""
    if array.dtype.kind not in "iu" or not len(array):
        return array
    low, high = int(array.min()), int(array.max())
    for dtype in _NARROW:
        if dtype.itemsize >= array.dtype.itemsize:
            break
        info = np.iinfo(dtype)
        if info.min <= low and high <= info.max:
            return array.astype(dtype)
    return array


def _unpack(endpoints: list[Endpoint], count: int, dtypes: list[str],
            blob: bytes) -> PacketColumns:
    """Rebuild a pickled :class:`PacketColumns`."""
    arrays, at = [], 0
    for dtype in map(np.dtype, dtypes):
        arrays.append(np.frombuffer(blob, dtype=dtype, count=count,
                                    offset=at))
        at += dtype.itemsize * count
    return PacketColumns(endpoints, *arrays)


def columns_of(trace: "Trace") -> "TraceColumns":
    """The columnar view of *trace*, built lazily and cached.

    A trace born from packet columns has them as its view's source.
    A trace built from records gets its columns from them, and the
    cache is invalidated when the record list's length changes:
    records themselves are frozen, and every ``Trace`` in the library
    is built with its full record list before analysis starts, so
    length is a sufficient staleness guard.
    """
    cached = trace._columns
    records = trace._records
    if cached is not None and (records is None or cached.n == len(records)):
        return cached
    packets = trace._packets if records is None \
        else PacketColumns.from_records(records)
    view = TraceColumns(packets, records)
    trace._columns = view
    return view


class TraceColumns:
    """One trace's packets as analysis columns, plus the flow partition.

    ``flows`` lists the directed flows by first appearance, so "first
    flow to reach the maximum" ties break exactly like insertion-
    ordered dict iteration; ``flow_ids`` holds each row's flow.
    """

    def __init__(self, packets: PacketColumns,
                 records: list[TraceRecord] | None = None):
        self.packets = packets
        self._records = records
        n = self.n = len(packets)
        endpoints = packets.endpoints
        width = max(len(endpoints), 1)
        pairs = packets.src.astype(np.int64) * width + packets.dst
        codes, first, inverse = np.unique(pairs, return_index=True,
                                          return_inverse=True)
        order = np.argsort(first, kind="stable")
        rank = np.empty(len(codes), dtype=np.int32)
        rank[order] = np.arange(len(codes), dtype=np.int32)
        self.flow_ids = rank[inverse.reshape(n)]
        self.flows: list[FlowKey] = [
            FlowKey(endpoints[code // width], endpoints[code % width])
            for code in codes[order].tolist()]
        self._flow_index = {(f.src, f.dst): i
                            for i, f in enumerate(self.flows)}
        self._primary_id: int | None = None
        self._indices_cache: dict = {}
        self.timestamp = packets.timestamp
        self.seq = seq = packets.seq
        self.ack = packets.ack
        self.flags = flags = packets.flags.astype(np.int64)
        self.payload = payload = packets.payload.astype(np.int64)
        self.window = packets.window.astype(np.int64)
        self.mss_option = packets.mss_option.astype(np.int64)
        self.corrupted = packets.corrupted
        self.is_syn = (flags & 0x02) != 0
        self.is_fin = (flags & 0x01) != 0
        self.is_rst = (flags & 0x04) != 0
        self.has_ack = (flags & 0x10) != 0
        self.is_data = payload > 0
        seq_end = seq + payload
        seq_end += self.is_syn
        seq_end += self.is_fin
        self.seq_end = seq_end % _SEQ_SPACE

    # -- records, where one is read ----------------------------------------

    def materialize(self) -> list[TraceRecord]:
        """Every row's record, built once (the trace's ``records``)."""
        if self._records is None:
            self._records = self.packets.records()
        return self._records

    def record(self, row: int) -> TraceRecord:
        if self._records is not None:
            return self._records[row]
        return self.packets.record(row)

    def records_at(self, indexes) -> list[TraceRecord]:
        records = self._records
        if records is not None:
            return [records[i] for i in indexes]
        return self.packets.records(np.asarray(indexes, dtype=np.int64))

    # -- flow partition ----------------------------------------------------

    def flow_id(self, flow) -> int:
        """The id of *flow*, or -1 when the trace never carried it."""
        return self._flow_index.get((flow.src, flow.dst), -1)

    def reverse_id(self, fid: int) -> int:
        """The id of the opposite direction, or -1 if never recorded."""
        flow = self.flows[fid]
        return self._flow_index.get((flow.dst, flow.src), -1)

    def primary_flow(self):
        """The data-carrying direction (see ``Trace.primary_flow``)."""
        return self.flows[self.primary_flow_id()]

    def primary_flow_id(self) -> int:
        if self.n == 0:
            raise ValueError("empty trace has no flows")
        if self._primary_id is None:
            self._primary_id = self._compute_primary_id()
        return self._primary_id

    def _compute_primary_id(self) -> int:
        volumes = np.bincount(self.flow_ids, weights=self.payload,
                              minlength=len(self.flows))
        best = int(np.argmax(volumes))   # first max = first-seen flow
        if volumes[best] > 0:
            return best
        mask = self.is_syn & ~self.has_ack
        hits = np.flatnonzero(mask)
        if hits.size:
            return int(self.flow_ids[hits[0]])
        return int(self.flow_ids[0])

    # -- memoized per-flow index slices (satellite: Trace accessors) -------

    def indices(self, kind: str, fid: int) -> list[int]:
        """Cached record indices for (*kind*, flow id).

        Kinds: ``"flow"`` (all records of the flow), ``"data"``
        (payload-carrying records of the flow), ``"acks"`` (pure acks
        of the flow's *reverse* direction, SYN/RST excluded — the
        ``Trace.acks`` contract).
        """
        key = (kind, fid)
        got = self._indices_cache.get(key)
        if got is None:
            got = self._compute_indices(kind, fid)
            self._indices_cache[key] = got
        return got

    def _compute_indices(self, kind: str, fid: int):
        if kind == "flow":
            mask = self.flow_ids == fid
        elif kind == "data":
            mask = (self.flow_ids == fid) & self.is_data
        elif kind == "acks":
            rid = self.reverse_id(fid)
            if rid < 0:
                return np.empty(0, dtype=np.int64)
            mask = ((self.flow_ids == rid) & self.has_ack
                    & (self.payload == 0) & ~self.is_syn & ~self.is_rst)
        else:
            raise ValueError(f"unknown index kind {kind!r}")
        return np.flatnonzero(mask)

    # -- sequence-space unwrapping ----------------------------------------

    def rel(self, values, base: int):
        """Unwrap modular sequence *values* around *base* (int64).

        Matches ``seq_diff(value, base)`` elementwise: the result is
        in [-2**31, 2**31), positive meaning "after base".
        """
        return ((values - base + _SEQ_HALF) % _SEQ_SPACE) - _SEQ_HALF

    def first_index(self, mask) -> int:
        """Index of the first True in *mask*, or -1."""
        hits = np.flatnonzero(mask)
        return int(hits[0]) if hits.size else -1


class RecordRows(Sequence):
    """The records of some rows of a trace, each built when read.

    Pass one hands its data/ack/event timelines out as these: replays
    read the plain rows, and a record exists only for a row someone
    names (a classification's ``record``, a calibration finding).
    """

    __slots__ = ("_columns", "_rows")

    def __init__(self, columns: TraceColumns, rows: list[int]) -> None:
        self._columns = columns
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._columns.records_at(self._rows[index])
        return self._columns.record(self._rows[index])

    def __iter__(self):
        return iter(self._columns.records_at(self._rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"RecordRows({len(self._rows)} rows)"

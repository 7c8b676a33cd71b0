"""Columnar trace backend: vectorized views over a :class:`Trace`.

Per-packet analysis over ``TraceRecord`` objects pays Python object
overhead on every field touch — tolerable for one trace, ruinous for a
corpus.  This module adds a *columnar* representation: one array per
header field (timestamp, seq, ack, flags, payload, window, ...), plus
derived columns (``seq_end``, SYN/FIN/RST masks) and a flow-id
partition, built **once** per trace, lazily, and cached on the trace.
The hot candidate-independent kernels (pass-one fact extraction,
calibration screening, bulk ingest decode) run against the arrays;
``TraceRecord`` consumers — the per-candidate replays above all — are
untouched, because the view indexes back into the original record
list.

The kernels it serves keep their original per-record loops only as
test oracles (``tests/core/kernel_oracles.py``), against which the
equivalence suite compares them.

Sequence numbers live in a 32-bit modular space; arrays hold them
*unwrapped* relative to a per-trace base (the first record's seq) as
int64, so ordinary ``<`` / ``max`` reproduce ``seq_gt`` / ``seq_max``
exactly for any trace spanning less than 2**31 bytes of sequence
space — which the modular helpers themselves already assume.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:                      # pragma: no cover
    from repro.packets import FlowKey
    from repro.trace.record import Trace

#: Half the sequence space: the unwrap window of ``seq_diff``.
_SEQ_HALF = 2**31
_SEQ_SPACE = 2**32


def columns_of(trace: "Trace") -> "TraceColumns":
    """The columnar view of *trace*, built lazily and cached.

    The cache is invalidated when the record list's length changes.
    Records themselves are frozen, and every ``Trace`` in the library
    is built with its full record list before analysis starts, so
    length is a sufficient staleness guard.
    """
    cached = getattr(trace, "_columns", None)
    if cached is not None and cached.n == len(trace.records):
        return cached
    view = TraceColumns(trace)
    trace._columns = view
    return view


def _assign_flow_ids(records):
    """Flow ids by first occurrence, plus the FlowKey table.

    Returns (flow_ids list, flows list).  Ids are dense and ordered by
    first appearance, so "first flow to reach the maximum" ties break
    exactly like insertion-ordered dict iteration.
    """
    flows: list = []
    index: dict = {}
    ids = []
    for record in records:
        key = (record.src, record.dst)
        fid = index.get(key)
        if fid is None:
            fid = len(flows)
            index[key] = fid
            flows.append(record.flow)
        ids.append(fid)
    return ids, flows


class TraceColumns:
    """One int64/float64/bool array per column, plus the flow partition."""

    def __init__(self, trace: "Trace"):
        records = trace.records
        self.records = records
        self.n = len(records)
        ids, flows = _assign_flow_ids(records)
        self.flows: list[FlowKey] = flows
        self._flow_index = {(f.src, f.dst): i for i, f in enumerate(flows)}
        self.flow_ids = np.array(ids, dtype=np.int32)
        self._primary_id: int | None = None
        self._indices_cache: dict = {}
        n = self.n
        # One pass over the records builds every raw column; frozen
        # dataclass attribute access is the cost being amortized, so
        # touch each record exactly once.
        ts = np.empty(n, dtype=np.float64)
        seq = np.empty(n, dtype=np.int64)
        ack = np.empty(n, dtype=np.int64)
        flags = np.empty(n, dtype=np.int64)
        payload = np.empty(n, dtype=np.int64)
        window = np.empty(n, dtype=np.int64)
        mss = np.empty(n, dtype=np.int64)
        corrupted = np.empty(n, dtype=bool)
        for i, r in enumerate(records):
            ts[i] = r.timestamp
            seq[i] = r.seq
            ack[i] = r.ack
            flags[i] = r.flags
            payload[i] = r.payload
            window[i] = r.window
            mss[i] = -1 if r.mss_option is None else r.mss_option
            corrupted[i] = r.corrupted
        self.timestamp = ts
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.payload = payload
        self.window = window
        self.mss_option = mss          # -1 encodes "no option"
        self.corrupted = corrupted
        self.is_syn = (flags & 0x02) != 0
        self.is_fin = (flags & 0x01) != 0
        self.is_rst = (flags & 0x04) != 0
        self.has_ack = (flags & 0x10) != 0
        self.is_data = payload > 0
        seq_end = seq + payload
        seq_end += self.is_syn
        seq_end += self.is_fin
        self.seq_end = seq_end % _SEQ_SPACE

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

    def records_at(self, indexes) -> list:
        records = self.records
        return [records[i] for i in indexes]

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

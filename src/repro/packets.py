"""Packet and segment representations shared by the simulator and analyzer.

A :class:`Segment` is the in-simulator object: a TCP segment plus just
enough IP-level identity (addresses) to route and demultiplex it.  The
packet-filter machinery copies segments into trace records
(:mod:`repro.trace.record`); the analyzer never sees live segments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from repro.units import seq_add

#: TCP flag bits, matching the on-the-wire encoding.
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10
URG = 0x20

_FLAG_NAMES = [(SYN, "S"), (FIN, "F"), (RST, "R"), (PSH, "P"), (URG, "U")]

_packet_ids = itertools.count(1)


def flags_to_string(flags: int) -> str:
    """Render TCP flags tcpdump-style (``S``, ``.``, ``P.``, ...)."""
    out = "".join(ch for bit, ch in _FLAG_NAMES if flags & bit)
    if flags & ACK:
        out += "."
    return out or "-"


class Endpoint(NamedTuple):
    """One side of a TCP connection: an (address, port) pair.

    A named tuple, so hashing, equality and ordering (address, then
    port) run in C on the demux hot path.
    """

    addr: str
    port: int

    def __str__(self) -> str:
        return f"{self.addr}.{self.port}"


class FlowKey(NamedTuple):
    """A directed connection identifier (source endpoint -> destination)."""

    src: Endpoint
    dst: Endpoint

    def reversed(self) -> "FlowKey":
        """The key of the opposite direction of the same connection."""
        return FlowKey(self.dst, self.src)

    def __str__(self) -> str:
        return f"{self.src} > {self.dst}"


@dataclass
class Segment:
    """A TCP segment in flight inside the simulator.

    ``seq`` is the sequence number of the first payload byte (or of the
    SYN/FIN when those flags are set); ``payload`` is the number of data
    bytes carried.  We track byte counts, not byte contents — the payload
    itself is irrelevant to trace analysis, except for checksum modelling,
    which :attr:`corrupted` stands in for.
    """

    src: Endpoint
    dst: Endpoint
    seq: int
    ack: int
    flags: int
    payload: int = 0
    window: int = 65535
    mss_option: int | None = None
    #: Set when the segment was damaged in flight; receivers discard it.
    corrupted: bool = False
    #: Unique per transmitted packet; retransmissions get fresh ids.
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    @property
    def flow(self) -> FlowKey:
        return FlowKey(self.src, self.dst)

    @property
    def seq_end(self) -> int:
        """Sequence number just past this segment's payload (and SYN/FIN)."""
        length = self.payload
        if self.flags & SYN:
            length += 1
        if self.flags & FIN:
            length += 1
        return seq_add(self.seq, length)

    @property
    def is_syn(self) -> bool:
        return bool(self.flags & SYN)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & FIN)

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & RST)

    @property
    def has_ack(self) -> bool:
        return bool(self.flags & ACK)

    @property
    def wire_size(self) -> int:
        """Total bytes on the wire: payload + 40 bytes of IP/TCP header.

        The MSS option, when present, adds 4 bytes, as on a real wire.
        """
        return self.payload + 40 + (4 if self.mss_option is not None else 0)

    def copy(self) -> "Segment":
        """A fresh copy with a new packet id (a distinct wire packet)."""
        return replace(self, packet_id=next(_packet_ids))

    def __str__(self) -> str:
        parts = [f"{self.flow} {flags_to_string(self.flags)}"]
        parts.append(f"{self.seq}:{self.seq_end}({self.payload})")
        if self.has_ack:
            parts.append(f"ack {self.ack}")
        parts.append(f"win {self.window}")
        if self.mss_option is not None:
            parts.append(f"<mss {self.mss_option}>")
        return " ".join(parts)


@dataclass
class SourceQuench:
    """An ICMP source quench aimed at a host, referencing a flow.

    Quenches are delivered to the transport endpoint but — matching the
    paper's measurement setup, where the packet filter pattern selected
    TCP packets only — are never recorded in traces.
    """

    target: Endpoint
    flow: FlowKey

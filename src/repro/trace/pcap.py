"""Minimal libpcap file I/O.

Writes and reads the classic pcap container (magic ``0xa1b2c3d4``,
microsecond timestamps) with link type ``LINKTYPE_RAW`` (101): each
packet is a bare IPv4 datagram as produced by :mod:`repro.trace.wire`.
Files written here open cleanly in tcpdump/wireshark; files from
other tools read back so long as they use raw-IP or Ethernet link
types.

``snaplen`` works like tcpdump's ``-s``: captured packets are
truncated, after which TCP checksums can no longer be verified — the
situation that forces tcpanaly's corruption *inference* (§7).
"""

from __future__ import annotations

import struct
from pathlib import Path as FilePath
from typing import Iterable, Iterator

from repro.trace.record import Trace
from repro.trace.wire import AddressMap, encode_record

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_SWAPPED = 0xD4C3B2A1
LINKTYPE_RAW = 101
LINKTYPE_ETHERNET = 1

_BYTE_ORDER_PREFIX = {"big": ">", "little": "<"}


def pcap_chunks(frames: Iterable[tuple[float, bytes, int | None,
                                       int | None]],
                snaplen: int = 65535,
                byte_order: str = "big") -> Iterator[bytes]:
    """Frame raw-IP packets as a classic pcap container, chunk by chunk.

    Yields the global header, then each frame's record header and
    captured bytes.  Each frame is ``(timestamp, data, orig_len,
    declared_len)``.  ``orig_len`` of None means the packet is whole;
    a larger value records an honest snaplen-style truncation, exactly
    as tcpdump would.  ``declared_len`` of None declares the captured
    length; any other value lies to the reader about how many bytes
    follow (a torn capture), which only the fuzz layer writes.

    *byte_order* selects the container's header endianness (``"big"``
    or ``"little"``); readers detect either from the magic number.
    An unknown one raises at the call, before any chunk (or file)
    exists.
    """
    try:
        endian = _BYTE_ORDER_PREFIX[byte_order]
    except KeyError:
        raise ValueError(f"byte_order must be 'big' or 'little', "
                         f"not {byte_order!r}")
    header = struct.pack(endian + "IHHiIII", PCAP_MAGIC, 2, 4, 0, 0,
                         snaplen, LINKTYPE_RAW)
    record = struct.Struct(endian + "IIII").pack

    def chunks() -> Iterator[bytes]:
        yield header
        for timestamp, data, orig_len, declared_len in frames:
            declared = len(data) if declared_len is None else declared_len
            if orig_len is None:
                orig_len = max(declared, len(data))
            seconds = int(timestamp)
            micros = int(round((timestamp - seconds) * 1e6))
            if micros >= 1_000_000:
                seconds += 1
                micros -= 1_000_000
            yield record(seconds, micros, declared, orig_len)
            yield data

    return chunks()


def write_pcap(trace: Trace, path: str | FilePath,
               snaplen: int | None = None,
               addresses: AddressMap | None = None,
               byte_order: str = "big") -> None:
    """Write *trace* to a pcap file at *path*.

    *byte_order* selects the container's header endianness (``"big"``
    or ``"little"``); readers detect either from the magic number, so
    both round-trip.  Packet *contents* are network order regardless.
    """
    addresses = addresses or AddressMap()

    def frames():
        for record in trace.records:
            packet = encode_record(record, addresses)
            yield record.timestamp, packet[:snaplen], len(packet), None

    write_raw_pcap(frames(), path,
                   snaplen=snaplen if snaplen is not None else 65535,
                   byte_order=byte_order)


def write_raw_pcap(frames: Iterable[tuple[float, bytes, int | None,
                                          int | None]],
                   path: str | FilePath,
                   snaplen: int = 65535,
                   byte_order: str = "big") -> None:
    """Write pre-encoded raw-IP frames, framed by :func:`pcap_chunks`,
    to a pcap file at *path* as they are produced: no whole-capture
    buffer is built.  :func:`write_pcap` writes through it."""
    chunks = pcap_chunks(frames, snaplen=snaplen, byte_order=byte_order)
    with open(path, "wb") as handle:
        handle.writelines(chunks)


def read_pcap(path: str | FilePath,
              addresses: AddressMap | None = None,
              vantage: str = "", filter_name: str = "") -> Trace:
    """Read a pcap file into a :class:`Trace`.

    A thin eager wrapper over
    :func:`repro.stream.reader.iter_pcap_columns` — one decode code
    path for both byte orders and for streaming and materialized
    reads; the trace is born from the decoded columns.  Non-TCP and
    mangled packets are skipped (as a capture filter would drop them);
    a truncated final record is kept as a partial result when its
    headers survive.

    Truncated packets (snaplen captures) decode with
    ``verify_checksum`` disabled, so their ``corrupted`` flag is
    always False — the analyzer must infer corruption, as the paper
    describes for header-only traces.
    """
    from repro.stream.reader import iter_pcap_columns
    from repro.trace.columns import PacketColumns

    packets = PacketColumns.concat(list(iter_pcap_columns(
        path, addresses=addresses, strict=True)))
    return Trace.from_columns(packets, vantage=vantage,
                              filter_name=filter_name, reported_drops=None)

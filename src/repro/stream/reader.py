"""Incremental pcap ingest: decoded packet columns, O(1) memory.

``read_pcap`` materializes a whole capture before anything can look at
it — fine for a 100 KB transfer trace, hopeless for the multi-hour,
multi-connection captures real packet filters produce (the paper's
corpus alone was ~20,000 traces).  :func:`iter_pcap_columns` is the
streaming replacement: it decodes each read chunk into
:class:`~repro.trace.columns.PacketColumns` rows and yields them,
holds no more than one read chunk in memory, and degrades
gracefully where the eager reader raised — truncated trailing records
become warning-carrying partial results, unknown link types become a
structured warning plus a best-effort raw-IP decode, and non-TCP
cross-traffic is counted rather than crashed on.

:class:`IncrementalPcapReader` is the live-capture variant underneath
it: a stateful reader that can be polled repeatedly against a file
that is *still being written*.  A partially-written trailing record is
never treated as damage mid-stream — the reader rewinds to the record
boundary (the **resume offset**) and retries once more bytes land.
Only :meth:`IncrementalPcapReader.finalize_columns` applies the
end-of-capture truncation semantics, which is what
``iter_pcap_columns`` does implicitly at end of file.  :func:`iter_pcap`,
:meth:`~IncrementalPcapReader.poll` and
:meth:`~IncrementalPcapReader.finalize` are record adapters over them.

All anomalies are reported through an optional :class:`IngestStats`;
callers that pass none simply get the clean records.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path as FilePath
from typing import BinaryIO, Iterator

from repro.stream.stats import IngestStats
from repro.trace.pcap import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW,
    PCAP_MAGIC,
    PCAP_MAGIC_SWAPPED,
)
from repro.trace.columns import PacketColumns
from repro.trace.record import TraceRecord
from repro.trace.wire import (
    RECORD_HEADER_LEN,
    AddressMap,
    DecodedChunk,
    PacketDecodeError,
    decode_chunk,
    decode_packet,
)

ETHERNET_HEADER_LEN = 14

GLOBAL_HEADER_LEN = 24

#: How much pending capture a poll reads and batch-decodes at a time.
#: Bounds memory for multi-GB captures while amortizing the per-call
#: overhead of the vectorized decoder.
CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class PcapHeader:
    """The decoded pcap global header."""

    endian: str          # struct prefix: ">" or "<"
    snaplen: int
    linktype: int

    @property
    def link_supported(self) -> bool:
        return self.linktype in (LINKTYPE_RAW, LINKTYPE_ETHERNET)


def read_pcap_header(handle: BinaryIO, name: str = "") -> PcapHeader:
    """Parse the 24-byte global header; raise ValueError for non-pcap.

    A bad magic number or a short header means the file is not a pcap
    at all — that is a caller error, not a damaged capture, so it
    raises rather than warns.
    """
    header = handle.read(GLOBAL_HEADER_LEN)
    if len(header) < GLOBAL_HEADER_LEN:
        raise ValueError(f"{name}: too short to be a pcap file")
    return parse_pcap_header(header, name=name)


def parse_pcap_header(header: bytes, name: str = "") -> PcapHeader:
    """Decode 24 already-read global-header bytes (see read_pcap_header)."""
    # One detection path: read the magic big-endian.  A match means a
    # big-endian file; the byte-swapped constant means the writer was
    # little-endian; anything else is not a pcap file.
    magic = struct.unpack(">I", header[:4])[0]
    if magic == PCAP_MAGIC:
        endian = ">"
    elif magic == PCAP_MAGIC_SWAPPED:
        endian = "<"
    else:
        raise ValueError(f"{name}: unrecognized pcap magic {magic:#010x}")
    _v_major, _v_minor, _tz, _sig, snaplen, linktype = struct.unpack(
        endian + "HHiIII", header[4:GLOBAL_HEADER_LEN])
    return PcapHeader(endian=endian, snaplen=snaplen, linktype=linktype)


class IncrementalPcapReader:
    """A pollable pcap decoder for captures that are still growing.

    Each :meth:`poll` decodes every record that is *completely* on
    disk and returns, leaving :attr:`resume_offset` at the first byte
    it could not fully consume.  A record whose per-packet header or
    payload bytes are only partially written is left pending — the
    next poll seeks back to the same offset and retries, so a tailer
    never mistakes an in-progress write for a damaged capture.

    :meth:`finalize` declares end-of-capture: any still-pending
    partial record is then given the historical ``iter_pcap``
    treatment (counted, warned about, and — when its headers survived
    — decoded without checksum verification and yielded).

    The reader opens lazily: constructing one against a path that does
    not exist yet is fine; polls simply return nothing until the file
    appears and its global header is complete.
    """

    def __init__(self, path: str | FilePath,
                 addresses: AddressMap | None = None,
                 stats: IngestStats | None = None,
                 strict: bool = False):
        self.path = FilePath(path)
        self.addresses = addresses
        self.stats = stats if stats is not None else IngestStats()
        self.strict = strict
        self.header: PcapHeader | None = None
        self._handle: BinaryIO | None = None
        self._strip = 0
        self._offset = 0          # first byte not fully consumed
        self._index = -1          # pcap record ordinal, for warnings
        self._finalized = False

    @property
    def resume_offset(self) -> int:
        """File offset the next poll retries from (bytes consumed)."""
        return self._offset

    def _ensure_header(self) -> bool:
        """Open the file and parse the global header once available."""
        if self.header is not None:
            return True
        if self._handle is None:
            try:
                self._handle = open(self.path, "rb")
            except FileNotFoundError:
                return False
        self._handle.seek(0)
        raw = self._handle.read(GLOBAL_HEADER_LEN)
        if len(raw) < GLOBAL_HEADER_LEN:
            return False          # header itself still being written
        header = parse_pcap_header(raw, name=str(self.path))
        self.header = header
        self._offset = GLOBAL_HEADER_LEN
        self._strip = ETHERNET_HEADER_LEN \
            if header.linktype == LINKTYPE_ETHERNET else 0
        if not header.link_supported:
            if self.strict:
                raise ValueError(f"{self.path}: unsupported link type "
                                 f"{header.linktype}")
            self.stats.warn("unknown-linktype",
                            f"link type {header.linktype} unknown; "
                            f"attempting raw-IP decode")
        return True

    def poll_columns(self, limit: int | None = None
                     ) -> Iterator[PacketColumns]:
        """Yield the packets now fully on disk, a chunk of rows at a time.

        Records are read and decoded a chunk at a time (a record larger
        than a chunk widens that read to cover it); partials are held
        back.  Each chunk's resume offset and stats are committed before
        its rows are yielded, so abandoning the generator between
        chunks leaves the reader positioned after the last rows handed
        out.  With *limit*, at most that many rows come out of this
        poll, and the reader stops right after the record of the last
        one: the next poll resumes there.
        """
        if self._finalized:
            raise ValueError(f"{self.path}: reader already finalized")
        if not self._ensure_header():
            return
        handle = self._handle
        unpack_incl_len = struct.Struct(self.header.endian + "I").unpack_from
        size = CHUNK_BYTES
        while True:
            handle.seek(self._offset)
            blob = handle.read(size)
            # Walk every complete record in the chunk; the decoder
            # reads the rest of each record straight from the chunk.
            end = len(blob)
            position = 0
            offsets: list[int] = []
            while position + RECORD_HEADER_LEN <= end:
                following = (position + RECORD_HEADER_LEN
                             + unpack_incl_len(blob, position + 8)[0])
                if following > end:
                    break         # record incomplete within this chunk
                offsets.append(position)
                position = following
            if not offsets:
                if end < size:
                    return        # partial tail: retry next poll
                # A full read without one whole record: the record
                # outgrows the read, so widen the read to cover it.
                incl_len = (unpack_incl_len(blob, 8)[0]
                            if end >= RECORD_HEADER_LEN else 0)
                size = max(CHUNK_BYTES, RECORD_HEADER_LEN + incl_len)
                continue
            # Each chunk interns its own endpoints, so what the reader
            # holds does not grow with the capture's distinct endpoints.
            decoded = decode_chunk(blob, offsets, self.header.endian,
                                   self._strip, self.addresses)
            del blob, offsets     # free this chunk before the next read
            packets = decoded.packets
            records = len(decoded.incl_len)
            stop = limit is not None and len(packets) >= limit
            if stop:
                # End this poll after the record carrying the last row.
                records = int(decoded.row_positions()[limit - 1]) + 1
                packets = packets.head(limit)
            elif limit is not None:
                limit -= len(packets)
            self._commit(decoded, records)
            del decoded           # the consumer holds the rows it keeps
            if len(packets):
                yield packets
            del packets
            if stop or end < size:
                return            # limit reached, or all bytes on disk read
            size = CHUNK_BYTES

    def _commit(self, decoded: DecodedChunk, records: int) -> None:
        """Account the first *records* records of a decoded chunk."""
        stats = self.stats
        lengths = decoded.incl_len[:records]
        captured = int(lengths.sum())
        self._offset += RECORD_HEADER_LEN * records + captured
        stats.packets_seen += records
        stats.bytes_seen += captured
        failed = 0
        for position, error in decoded.errors:
            if position >= records:
                break
            failed += 1
            index = self._index + 1 + position
            if error.kind == "non-tcp":
                stats.non_tcp_packets += 1
                stats.warn("non-tcp", str(error), index)
            else:
                stats.decode_errors += 1
                stats.warn("decode-error", str(error), index)
        stats.records_decoded += records - failed
        self._index += records

    def poll(self) -> Iterator[TraceRecord]:
        """:meth:`poll_columns`, one record at a time (an adapter)."""
        for packets in self.poll_columns():
            yield from packets.records()

    def finalize_columns(self) -> Iterator[PacketColumns]:
        """Declare end-of-capture; apply truncated-trailer semantics.

        Whatever trailing bytes remain unconsumed are now damage, not
        an in-progress write: a cut-short record header warns; a
        cut-short payload decodes without checksum verification and is
        yielded as a partial result (one row) when its packet headers
        survive.
        """
        if self._finalized:
            return
        self._finalized = True
        if self.header is None:
            # Never enough bytes for a global header: preserve the
            # historical contract that such a file is not a pcap.
            if self._handle is not None:
                self._handle.seek(0)
                raw = self._handle.read(GLOBAL_HEADER_LEN)
                self.close()
                if raw:
                    raise ValueError(
                        f"{self.path}: too short to be a pcap file")
            return
        stats = self.stats
        handle = self._handle
        handle.seek(self._offset)
        record_header = handle.read(RECORD_HEADER_LEN)
        if not record_header:
            self.close()
            return
        self._index += 1
        if len(record_header) < RECORD_HEADER_LEN:
            stats.packets_seen += 1
            stats.truncated_records += 1
            stats.warn("truncated-record",
                       f"final record header cut short "
                       f"({len(record_header)} of "
                       f"{RECORD_HEADER_LEN} bytes)", self._index)
            self.close()
            return
        seconds, micros, incl_len, _orig_len = struct.unpack(
            self.header.endian + "IIII", record_header)
        data = handle.read(incl_len)
        incomplete = len(data)
        self._offset += RECORD_HEADER_LEN + incomplete
        stats.packets_seen += 1
        stats.bytes_seen += len(data)
        record = self._decode(data, seconds, micros, expected=incl_len)
        self.close()
        if record is not None:
            yield PacketColumns.from_records([record])

    def finalize(self) -> Iterator[TraceRecord]:
        """:meth:`finalize_columns`, as records (an adapter)."""
        for packets in self.finalize_columns():
            yield from packets.records()

    def _decode(self, data: bytes, seconds: int, micros: int,
                expected: int) -> TraceRecord | None:
        """Decode a cut-short final record, doing the stats accounting.

        The payload is unverifiable, so the checksum is not checked; a
        failure to decode is a truncation warning, not a decode error.
        """
        stats = self.stats
        data = data[self._strip:]
        timestamp = seconds + micros / 1e6
        try:
            record = decode_packet(data, timestamp, self.addresses,
                                   verify_checksum=False)
        except PacketDecodeError as error:
            stats.truncated_records += 1
            stats.warn("truncated-record",
                       f"final record cut short ({len(data)} of "
                       f"{expected} captured bytes): {error}",
                       self._index)
            return None
        stats.records_decoded += 1
        stats.truncated_records += 1
        stats.warn("truncated-record",
                   f"final record cut short ({len(data)} of "
                   f"{expected} captured bytes); partial record "
                   f"decoded without checksum verification",
                   self._index)
        return record

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def iter_pcap_columns(path: str | FilePath,
                      addresses: AddressMap | None = None,
                      stats: IngestStats | None = None,
                      strict: bool = False) -> Iterator[PacketColumns]:
    """Yield the decoded TCP packets of a pcap file, a chunk of rows at
    a time.

    Memory use is O(1) in the capture length: at most one
    ``CHUNK_BYTES`` read, plus its decoded rows, is held between
    yields.  Damage tolerance:

    - a truncated trailing record decodes with checksum verification
      off and is yielded as a partial result (plus a
      ``"truncated-record"`` warning) when its headers survive;
    - non-TCP IPv4 cross-traffic and undecodable packets are counted
      and skipped, never raised;
    - an unknown link type warns once and then attempts a raw-IP
      decode of every packet (with ``strict=True`` it raises instead,
      preserving the historical ``read_pcap`` contract).

    A bad magic number or short global header still raises
    ``ValueError`` in either mode: that file is not a pcap.
    """
    reader = IncrementalPcapReader(path, addresses=addresses,
                                   stats=stats, strict=strict)
    try:
        if not reader._ensure_header():
            # Missing file raises in open(); present-but-short raises
            # here, matching the eager reader's contract.
            if reader._handle is None:
                open(path, "rb").close()   # surface FileNotFoundError
            raise ValueError(f"{path}: too short to be a pcap file")
        yield from reader.poll_columns()
        yield from reader.finalize_columns()
    finally:
        reader.close()


def iter_pcap(path: str | FilePath,
              addresses: AddressMap | None = None,
              stats: IngestStats | None = None,
              strict: bool = False) -> Iterator[TraceRecord]:
    """:func:`iter_pcap_columns`, one :class:`TraceRecord` at a time:
    the adapter for callers that want records."""
    for packets in iter_pcap_columns(path, addresses=addresses,
                                     stats=stats, strict=strict):
        yield from packets.records()

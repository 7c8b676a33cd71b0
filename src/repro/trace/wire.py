"""On-the-wire IPv4/TCP encoding of trace records.

Real header layouts with real checksums, so traces written to pcap are
readable by standard tools and so checksum verification — which
tcpanaly performs when the filter captured whole packets (§6.1, §7) —
is meaningful.  Corruption is modelled faithfully: a corrupted record
is encoded with a payload bit flipped *after* the checksum is
computed, so decoding detects a checksum mismatch exactly as a real
kernel would.

Simulator hosts have symbolic names; :class:`AddressMap` assigns each
a stable IPv4 address for encoding and remembers the reverse mapping
for decoding.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

import numpy as np

from repro.packets import Endpoint
from repro.trace.columns import EndpointTable, PacketColumns
from repro.trace.record import TraceRecord

IP_HEADER_LEN = 20
TCP_HEADER_LEN = 20
PROTO_TCP = 6

#: The pcap per-record header: seconds, microseconds, incl_len, orig_len.
RECORD_HEADER_LEN = 16

#: Chunk bytes one vectorized pass of :func:`decode_chunk` covers.
DECODE_SPAN_BYTES = 256 << 10


class PacketDecodeError(ValueError):
    """A packet that cannot be decoded into a TCP trace record.

    ``kind`` classifies the failure so streaming ingest can count
    cross-traffic separately from damage:

    - ``"non-ip"``: not an IPv4 datagram (IPv6, ARP, ...)
    - ``"non-tcp"``: a well-formed IPv4 datagram carrying another
      protocol (UDP and ICMP cross-traffic in real captures)
    - ``"malformed"``: truncated or internally inconsistent headers
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


class AddressMap:
    """Bidirectional mapping between symbolic host names and IPv4 text."""

    def __init__(self) -> None:
        self._forward: dict[str, str] = {}
        self._reverse: dict[str, str] = {}
        self._next_host = 1

    def ip_for(self, name: str) -> str:
        """The IPv4 address for *name*, allocating one if new."""
        if _looks_like_ip(name):
            return name
        if name not in self._forward:
            ip = f"10.0.{self._next_host // 256}.{self._next_host % 256}"
            self._next_host += 1
            self._forward[name] = ip
            self._reverse[ip] = name
        return self._forward[name]

    def name_for(self, ip: str) -> str:
        """The symbolic name for *ip*, or the ip itself if unknown."""
        return self._reverse.get(ip, ip)


def _looks_like_ip(name: str) -> bool:
    parts = name.split(".")
    return len(parts) == 4 and all(p.isdigit() and int(p) < 256
                                   for p in parts)


def _ip_to_bytes(ip: str) -> bytes:
    return bytes(int(part) for part in ip.split("."))


def _bytes_to_ip(raw: bytes) -> str:
    return ".".join(str(b) for b in raw)


def internet_checksum(data: bytes) -> int:
    """RFC 1071 ones-complement checksum."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def encode_record(record: TraceRecord,
                  addresses: AddressMap | None = None) -> bytes:
    """Encode a record as a raw IPv4 packet (headers + zero payload)."""
    addresses = addresses or AddressMap()
    src_ip = _ip_to_bytes(addresses.ip_for(record.src.addr))
    dst_ip = _ip_to_bytes(addresses.ip_for(record.dst.addr))

    options = b""
    if record.mss_option is not None:
        options = struct.pack("!BBH", 2, 4, record.mss_option)
    data_offset = (TCP_HEADER_LEN + len(options)) // 4
    payload = bytes(record.payload)

    tcp_header = struct.pack(
        "!HHIIBBHHH",
        record.src.port, record.dst.port,
        record.seq, record.ack,
        data_offset << 4, record.flags,
        record.window, 0, 0)
    tcp_segment = tcp_header + options + payload
    pseudo = src_ip + dst_ip + struct.pack("!BBH", 0, PROTO_TCP,
                                           len(tcp_segment))
    checksum = internet_checksum(pseudo + tcp_segment)
    tcp_segment = (tcp_segment[:16] + struct.pack("!H", checksum)
                   + tcp_segment[18:])
    if record.corrupted:
        # Damage a byte after checksumming, as line noise would.
        damage_at = len(tcp_segment) - 1
        tcp_segment = (tcp_segment[:damage_at]
                       + bytes([tcp_segment[damage_at] ^ 0xFF])
                       + tcp_segment[damage_at + 1:])

    total_len = IP_HEADER_LEN + len(tcp_segment)
    ip_header = struct.pack(
        "!BBHHHBBH4s4s",
        0x45, 0, total_len,
        record.packet_id & 0xFFFF, 0,
        64, PROTO_TCP, 0,
        src_ip, dst_ip)
    ip_checksum = internet_checksum(ip_header)
    ip_header = ip_header[:10] + struct.pack("!H", ip_checksum) + ip_header[12:]
    return ip_header + tcp_segment


def decode_packet(data: bytes, timestamp: float,
                  addresses: AddressMap | None = None,
                  verify_checksum: bool = True) -> TraceRecord:
    """Decode a raw IPv4/TCP packet into a trace record.

    With ``verify_checksum`` (and an untruncated packet) the record's
    ``corrupted`` flag reflects an actual TCP checksum failure.
    """
    if len(data) < IP_HEADER_LEN:
        raise PacketDecodeError("malformed", "packet shorter than an IP header")
    version_ihl = data[0]
    if version_ihl >> 4 != 4:
        raise PacketDecodeError("non-ip",
                                f"not IPv4 (version {version_ihl >> 4})")
    ihl = (version_ihl & 0x0F) * 4
    if ihl < IP_HEADER_LEN:
        raise PacketDecodeError("malformed",
                                f"IPv4 header length {ihl} below minimum")
    total_len = struct.unpack("!H", data[2:4])[0]
    packet_id = struct.unpack("!H", data[4:6])[0]
    proto = data[9]
    if proto != PROTO_TCP:
        raise PacketDecodeError("non-tcp", f"not TCP (protocol {proto})")
    src_ip = _bytes_to_ip(data[12:16])
    dst_ip = _bytes_to_ip(data[16:20])

    # Link layers pad short frames (Ethernet's 60-byte minimum, most
    # commonly); anything past the IP datagram's own total length is
    # trailer padding, not TCP segment, and must stay out of both the
    # option walk and the checksum.
    tcp_end = min(len(data), total_len) if total_len >= ihl else len(data)
    tcp = data[ihl:tcp_end]
    if len(tcp) < TCP_HEADER_LEN:
        raise PacketDecodeError("malformed",
                                "packet shorter than a TCP header")
    (src_port, dst_port, seq, ack, offset_byte, flags, window,
     _checksum, _urgent) = struct.unpack("!HHIIBBHHH", tcp[:20])
    header_len = (offset_byte >> 4) * 4
    if header_len < TCP_HEADER_LEN:
        raise PacketDecodeError("malformed",
                                f"TCP data offset {header_len} below minimum")
    options = tcp[20:header_len]
    mss_option = None
    i = 0
    while i < len(options):
        kind = options[i]
        if kind == 0:            # end-of-option-list
            break
        if kind == 1:            # no-op
            i += 1
            continue
        # Every other option carries a length byte covering itself; a
        # walk that trusts a missing, zero, or overrunning length
        # either crashes or loops — all three are malformed packets,
        # classified as such so ingest counts them instead of dying.
        if i + 1 >= len(options):
            raise PacketDecodeError(
                "malformed",
                f"TCP option kind {kind} truncated before its length byte")
        length = options[i + 1]
        if length < 2:
            raise PacketDecodeError(
                "malformed",
                f"TCP option kind {kind} carries invalid length {length}")
        if i + length > len(options):
            raise PacketDecodeError(
                "malformed",
                f"TCP option kind {kind} (length {length}) overruns the "
                f"{len(options)}-byte option area")
        if kind == 2 and length == 4:
            mss_option = struct.unpack("!H", options[i + 2:i + 4])[0]
        i += length

    payload_len = total_len - ihl - header_len
    truncated = len(data) < total_len
    corrupted = False
    if verify_checksum and not truncated:
        pseudo = (data[12:16] + data[16:20]
                  + struct.pack("!BBH", 0, PROTO_TCP, len(tcp)))
        corrupted = internet_checksum(pseudo + tcp) != 0

    if addresses is not None:
        src_addr = addresses.name_for(src_ip)
        dst_addr = addresses.name_for(dst_ip)
    else:
        src_addr, dst_addr = src_ip, dst_ip

    return TraceRecord(
        timestamp=timestamp,
        src=Endpoint(src_addr, src_port), dst=Endpoint(dst_addr, dst_port),
        seq=seq, ack=ack, flags=flags, payload=max(payload_len, 0),
        window=window, mss_option=mss_option, corrupted=corrupted,
        packet_id=packet_id)


class DecodedChunk(NamedTuple):
    """What :func:`decode_chunk` made of a chunk's records.

    ``incl_len`` holds each record's captured length, in record order;
    ``errors`` the ``(record position, PacketDecodeError)`` of every
    record that did not decode, in order; ``packets`` one row per
    record that did, in record order.
    """

    incl_len: "np.ndarray"
    errors: list[tuple[int, PacketDecodeError]]
    packets: PacketColumns

    def row_positions(self) -> "np.ndarray":
        """The record position of each row of ``packets``."""
        keep = np.ones(len(self.incl_len), dtype=bool)
        keep[[position for position, _ in self.errors]] = False
        return np.flatnonzero(keep)


def decode_chunk(chunk: bytes, offsets: list[int], endian: str, strip: int,
                 addresses: AddressMap | None = None,
                 table: EndpointTable | None = None) -> DecodedChunk:
    """Decode whole pcap records straight from the buffer they were read into.

    *offsets* are the byte offsets within *chunk* of complete records
    (a pcap record header plus its ``incl_len`` captured bytes),
    *endian* is the capture's struct prefix and *strip* the link-layer
    header length to skip.  Every record becomes either one row of the
    result's packet columns, holding exactly the fields
    :func:`decode_packet` returns for its packet, or the
    :class:`PacketDecodeError` it raises; checksums are verified for
    records captured whole (``incl_len >= orig_len``), as the reader
    always did.  Endpoints are interned in *table* (a fresh one when
    None), which a reader shares across its chunks.

    "Simple" packets — IPv4 without IP options, TCP, headers fully
    captured, option area empty or exactly one MSS option — decode in
    array operations: header fields are gathered from one byte view
    of *chunk* at the record offsets, and each TCP segment's checksum
    is summed in place.  Every other packet (IP options, other TCP
    options, anything malformed) is decoded by :func:`decode_packet`
    on its slice of *chunk* and becomes one more row, so rows, error
    kinds and messages are identical to a per-packet loop.  Work
    proceeds in passes over ``DECODE_SPAN_BYTES`` of the chunk, so the
    temporary arrays stay small beside the chunk itself.
    """
    table = table if table is not None else EndpointTable()
    octets = np.frombuffer(chunk, dtype=np.uint8)
    # The big-endian 16-bit words at both byte parities: a segment
    # starting at byte x is summed over words[x & 1] from x >> 1.
    words = (np.frombuffer(chunk, dtype=">u2", count=len(chunk) // 2),
             np.frombuffer(chunk, dtype=">u2", offset=1,
                           count=(len(chunk) - 1) // 2))
    starts = np.asarray(offsets, dtype=np.int64)
    cuts = np.searchsorted(starts, np.arange(
        DECODE_SPAN_BYTES, len(chunk), DECODE_SPAN_BYTES)).tolist()
    lengths, errors, blocks = [], [], []
    first = 0
    for last in cuts + [len(starts)]:
        if last > first:
            incl_len, span_errors, packets = _decode_span(
                chunk, octets, words, starts[first:last], endian == "<",
                strip, addresses, table)
            lengths.append(incl_len)
            errors.extend((first + position, error)
                          for position, error in span_errors)
            blocks.append(packets)
            first = last
    if not blocks:
        return DecodedChunk(np.empty(0, dtype=np.int64), [],
                            PacketColumns.empty(table.endpoints))
    return DecodedChunk(np.concatenate(lengths), errors,
                        PacketColumns.concat(blocks))


def _decode_span(chunk, octets, words, starts, little, strip, addresses,
                 table) -> tuple:
    """One vectorized pass of :func:`decode_chunk` over *starts*."""

    def field(at, width, little=False) -> "np.ndarray":
        return _gather(octets, at, width, little)

    n = len(starts)
    incl_len = field(starts + 8, 4, little)
    timestamps = field(starts, 4, little) + field(starts + 4, 4, little) / 1e6
    verify = incl_len >= field(starts + 12, 4, little)
    ip = starts + (RECORD_HEADER_LEN + strip)
    length = incl_len - strip                 # captured datagram bytes
    simple = np.zeros(n, dtype=bool)

    candidate = np.flatnonzero(length >= IP_HEADER_LEN + TCP_HEADER_LEN)
    s = ip[candidate]
    total_len = field(s + 2, 2)
    tcp_len = np.minimum(length[candidate], total_len) - IP_HEADER_LEN
    t = s + IP_HEADER_LEN
    header_len = (octets[t + 12] >> 4).astype(np.int64) * 4
    shaped = ((octets[s] == 0x45)                # IPv4, no IP options
              & (octets[s + 9] == PROTO_TCP)
              & (total_len >= IP_HEADER_LEN)
              & ((header_len == TCP_HEADER_LEN)
                 | (header_len == TCP_HEADER_LEN + 4))
              & (tcp_len >= header_len))
    # The only 4-byte option area decoded here is an exact MSS option;
    # anything else falls back to the per-packet option walk.
    mss = np.full(len(candidate), -1, dtype=np.int64)
    with_options = np.flatnonzero(shaped & (header_len > TCP_HEADER_LEN))
    if with_options.size:
        o = t[with_options] + TCP_HEADER_LEN
        is_mss = (octets[o] == 2) & (octets[o + 1] == 4)
        shaped[with_options] = is_mss
        mss[with_options[is_mss]] = field(o[is_mss] + 2, 2)
    rows = np.flatnonzero(shaped)
    handled = candidate[rows]
    simple[handled] = True
    s, t, total_len, tcp_len = s[rows], t[rows], total_len[rows], tcp_len[rows]

    corrupted = np.zeros(n, dtype=bool)
    check = np.flatnonzero(verify[handled] & (length[handled] >= total_len))
    if check.size:
        corrupted[handled[check]] = _checksum_fails(
            octets, words, s[check], tcp_len[check])

    src = np.empty(n, dtype=np.int32)
    dst = np.empty(n, dtype=np.int32)
    src[handled] = _endpoint_indices(
        table, (field(s + 12, 4) << 16) | field(t, 2), addresses)
    dst[handled] = _endpoint_indices(
        table, (field(s + 16, 4) << 16) | field(t + 2, 2), addresses)
    seq = np.empty(n, dtype=np.int64)
    seq[handled] = field(t + 4, 4)
    ack = np.empty(n, dtype=np.int64)
    ack[handled] = field(t + 8, 4)
    flags = np.empty(n, dtype=np.uint8)
    flags[handled] = octets[t + 13]
    payload = np.empty(n, dtype=np.int32)
    payload[handled] = np.maximum(total_len - IP_HEADER_LEN
                                  - header_len[rows], 0)
    window = np.empty(n, dtype=np.int32)
    window[handled] = field(t + 14, 2)
    mss_option = np.empty(n, dtype=np.int32)
    mss_option[handled] = mss[rows]
    packet_id = np.empty(n, dtype=np.int32)
    packet_id[handled] = field(s + 4, 2)

    errors = []
    fallback = np.flatnonzero(~simple)
    for i, timestamp, begin, end, checked in zip(
            fallback.tolist(), timestamps[fallback].tolist(),
            ip[fallback].tolist(),
            (starts[fallback] + RECORD_HEADER_LEN
             + incl_len[fallback]).tolist(),
            verify[fallback].tolist()):
        try:
            record = decode_packet(chunk[begin:end], timestamp, addresses,
                                   checked)
        except PacketDecodeError as error:
            errors.append((i, error))
            continue
        src[i] = table.index(record.src)
        dst[i] = table.index(record.dst)
        seq[i], ack[i], flags[i] = record.seq, record.ack, record.flags
        payload[i], window[i] = record.payload, record.window
        mss_option[i] = -1 if record.mss_option is None \
            else record.mss_option
        corrupted[i], packet_id[i] = record.corrupted, record.packet_id
    packets = PacketColumns(table.endpoints, timestamps, src, dst, seq, ack,
                            flags, payload, window, mss_option, corrupted,
                            packet_id)
    if errors:
        keep = np.ones(n, dtype=bool)
        keep[[i for i, _ in errors]] = False
        packets = packets.take(np.flatnonzero(keep))
    return incl_len, errors, packets


def _endpoint_indices(table: EndpointTable, keys: "np.ndarray",
                      addresses: AddressMap | None) -> "np.ndarray":
    """The *table* index of each ``ip << 16 | port`` key."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    by_key = table.by_key
    lookup = np.empty(len(distinct), dtype=np.int32)
    for j, key in enumerate(distinct.tolist()):
        found = by_key.get(key)
        if found is None:
            found = by_key[key] = table.index(_endpoint(key, addresses))
        lookup[j] = found
    return lookup[inverse.reshape(len(keys))]


def _gather(octets, at, width, little=False) -> "np.ndarray":
    """The *width*-byte unsigned integer at each offset *at*, as int64
    (big-endian unless *little*)."""
    value = np.zeros(len(at), dtype=np.int64)
    for k in (range(width - 1, -1, -1) if little else range(width)):
        value = (value << 8) | octets[at + k]
    return value


def _checksum_fails(octets, words, ip, tcp_len) -> "np.ndarray":
    """Whether each TCP segment's RFC 1071 checksum fails.

    *ip* are the datagram offsets in the chunk and *tcp_len* the
    segment lengths (link trailers excluded).  Each segment's words
    are summed in place with ``np.add.reduceat`` over the word view of
    its start parity; an odd last byte counts as ``byte << 8`` (the
    zero pad), and the pseudo-header comes from the address bytes.
    """
    total = (_gather(octets, ip + 12, 2) + _gather(octets, ip + 14, 2)
             + _gather(octets, ip + 16, 2) + _gather(octets, ip + 18, 2)
             + PROTO_TCP + tcp_len)
    begin = ip + IP_HEADER_LEN
    odd = np.flatnonzero(tcp_len & 1)
    total[odd] += octets[begin[odd] + tcp_len[odd] - 1].astype(np.int64) << 8
    first = begin >> 1
    last = first + (tcp_len >> 1)
    for parity in (0, 1):
        rows = np.flatnonzero((begin & 1) == parity)
        if rows.size == 0:
            continue
        low = first[rows[0]]
        bounds = np.empty(2 * rows.size, dtype=np.int64)
        bounds[0::2] = first[rows] - low
        bounds[1::2] = last[rows] - low
        # reduceat sums from each bound to the next: even entries are
        # the segments, odd ones the gaps between them (discarded, and
        # free to wrap).  The final bound is the slice's end, where the
        # last sum stops anyway.  A segment is at most 65,535 bytes,
        # so its word sum fits in uint32.
        sums = np.add.reduceat(words[parity][low:last[rows[-1]]],
                               bounds[:-1], dtype=np.uint32)
        total[rows] += sums[0::2]
    for _ in range(3):                        # fold carries (RFC 1071)
        total = (total & 0xFFFF) + (total >> 16)
    return total != 0xFFFF


def _endpoint(key: int, addresses: AddressMap | None) -> Endpoint:
    """The endpoint of a ``ip << 16 | port`` key."""
    ip = key >> 16
    text = f"{ip >> 24}.{ip >> 16 & 255}.{ip >> 8 & 255}.{ip & 255}"
    if addresses is not None:
        text = addresses.name_for(text)
    return Endpoint(text, key & 0xFFFF)

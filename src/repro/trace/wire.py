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

import numpy as np

from repro.packets import Endpoint
from repro.trace.record import TraceRecord

IP_HEADER_LEN = 20
TCP_HEADER_LEN = 20
PROTO_TCP = 6


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


def decode_packet_batch(packets: list[bytes], timestamps: list[float],
                        addresses: AddressMap | None = None,
                        verify_checksums: list[bool] | None = None
                        ) -> list:
    """Decode many raw packets at once; vectorized where possible.

    Returns one entry per input packet: a :class:`TraceRecord`, or the
    :class:`PacketDecodeError` :func:`decode_packet` would have raised.
    In batches of 16 or more, "simple" packets — IPv4 without IP
    options, TCP, header fully captured, option area empty or exactly
    one MSS option — have their header fields gathered and checksums
    summed across the whole batch in array operations; every other
    packet (IP options, exotic TCP options, odd-length segments with
    link trailers, anything malformed) takes the per-packet path, so
    results including error kinds and messages are identical to
    calling :func:`decode_packet` in a loop.
    """
    n = len(packets)
    if verify_checksums is None:
        verify_checksums = [True] * n
    results: list = [None] * n
    simple_rows: "list[int]" = []
    if n >= 16:
        simple_rows = _decode_simple_rows(packets, timestamps, addresses,
                                          verify_checksums, results)
    remaining = (range(n) if not simple_rows
                 else sorted(set(range(n)) - set(simple_rows)))
    for i in remaining:
        try:
            results[i] = decode_packet(packets[i], timestamps[i], addresses,
                                       verify_checksums[i])
        except PacketDecodeError as error:
            results[i] = error
    return results


def _decode_simple_rows(packets, timestamps, addresses, verify_checksums,
                        results) -> list:
    """Vectorized decode of the simple packets; fills *results* in
    place and returns the row indexes it handled."""
    n = len(packets)
    lens = np.fromiter((len(p) for p in packets), dtype=np.int64, count=n)
    # Concatenate with per-packet padding to even length, so every
    # packet starts on a 16-bit word boundary and an odd TCP segment's
    # checksum pad byte is the zero RFC 1071 specifies.
    buffer = b"".join(p if len(p) % 2 == 0 else p + b"\x00"
                      for p in packets)
    starts = np.concatenate((np.zeros(1, dtype=np.int64),
                             np.cumsum(lens + (lens & 1))[:-1]))
    octets = np.frombuffer(buffer, dtype=np.uint8)
    word_sums = np.concatenate((
        np.zeros(1, dtype=np.int64),
        np.cumsum(np.frombuffer(buffer, dtype=">u2"), dtype=np.int64)))

    candidate = np.flatnonzero(lens >= IP_HEADER_LEN + TCP_HEADER_LEN)
    if candidate.size == 0:
        return []
    s = starts[candidate]
    clens = lens[candidate]

    def gather(offsets) -> "np.ndarray":
        # Fancy-gather one header byte per packet, widened so shifts
        # cannot overflow uint8.
        return octets[offsets].astype(np.int64)

    version_ihl = gather(s)
    total_len = (gather(s + 2) << 8) | gather(s + 3)
    packet_id = (gather(s + 4) << 8) | gather(s + 5)
    simple = ((version_ihl == 0x45)             # IPv4, no IP options
              & (gather(s + 9) == PROTO_TCP)
              & (total_len >= IP_HEADER_LEN))
    tcp_end = np.minimum(clens, total_len)
    tcp_len = tcp_end - IP_HEADER_LEN
    simple &= tcp_len >= TCP_HEADER_LEN

    t = s + IP_HEADER_LEN
    src_port = (gather(t) << 8) | gather(t + 1)
    dst_port = (gather(t + 2) << 8) | gather(t + 3)
    seq = ((gather(t + 4) << 24) | (gather(t + 5) << 16)
           | (gather(t + 6) << 8) | gather(t + 7))
    ack = ((gather(t + 8) << 24) | (gather(t + 9) << 16)
           | (gather(t + 10) << 8) | gather(t + 11))
    flags = gather(t + 13)
    window = (gather(t + 14) << 8) | gather(t + 15)
    header_len = (gather(t + 12) >> 4) * 4
    simple &= ((header_len == TCP_HEADER_LEN)
               | (header_len == TCP_HEADER_LEN + 4))
    simple &= tcp_len >= header_len

    # The only 4-byte option area decoded vectorially is an exact MSS
    # option; anything else falls back to the per-packet option walk.
    mss = np.full(candidate.size, -1, dtype=np.int64)
    with_options = np.flatnonzero(simple & (header_len == TCP_HEADER_LEN + 4))
    if with_options.size:
        o = t[with_options] + TCP_HEADER_LEN
        is_mss = (octets[o] == 2) & (octets[o + 1] == 4)
        simple[with_options] &= is_mss
        mss[with_options[is_mss]] = ((gather(o[is_mss] + 2) << 8)
                                     | gather(o[is_mss] + 3))

    truncated = clens < total_len
    verify = (np.fromiter((verify_checksums[i] for i in candidate),
                          dtype=bool, count=candidate.size)
              & ~truncated)
    # An odd TCP segment followed by link-trailer bytes would checksum
    # over the trailer's first byte instead of a zero pad: per-packet.
    simple &= ~(verify & (tcp_len % 2 == 1) & (tcp_end < clens))

    corrupted = np.zeros(candidate.size, dtype=bool)
    check_rows = np.flatnonzero(simple & verify)
    if check_rows.size:
        cs = s[check_rows]
        clen = tcp_len[check_rows]
        first = (cs + IP_HEADER_LEN) >> 1
        last = (cs + IP_HEADER_LEN + clen + (clen & 1)) >> 1
        segment_sum = word_sums[last] - word_sums[first]
        pseudo_sum = (word_sums[(cs + 20) >> 1] - word_sums[(cs + 12) >> 1]
                      + PROTO_TCP + clen)
        total = segment_sum + pseudo_sum
        for _ in range(3):                    # fold carries (RFC 1071)
            total = (total & 0xFFFF) + (total >> 16)
        corrupted[check_rows] = total != 0xFFFF

    src_ip = ((gather(s + 12) << 24) | (gather(s + 13) << 16)
              | (gather(s + 14) << 8) | gather(s + 15))
    dst_ip = ((gather(s + 16) << 24) | (gather(s + 17) << 16)
              | (gather(s + 18) << 8) | gather(s + 19))
    payload = np.maximum(total_len - IP_HEADER_LEN - header_len, 0)

    endpoint_cache: dict = {}

    def endpoint(ip: int, port: int) -> Endpoint:
        key = (ip, port)
        cached = endpoint_cache.get(key)
        if cached is None:
            text = f"{ip >> 24 & 255}.{ip >> 16 & 255}.{ip >> 8 & 255}.{ip & 255}"
            name = addresses.name_for(text) if addresses is not None else text
            cached = Endpoint(name, port)
            endpoint_cache[key] = cached
        return cached

    # Build the records from plain Python lists: converting whole
    # columns once is far cheaper than per-element numpy scalar reads.
    rows = np.flatnonzero(simple)
    handled = candidate[rows].tolist()
    for (i, sip, sport, dip, dport, rseq, rack, rflags, rpayload,
         rwindow, rmss, rcorrupt, rid) in zip(
            handled, src_ip[rows].tolist(), src_port[rows].tolist(),
            dst_ip[rows].tolist(), dst_port[rows].tolist(),
            seq[rows].tolist(), ack[rows].tolist(), flags[rows].tolist(),
            payload[rows].tolist(), window[rows].tolist(),
            mss[rows].tolist(), corrupted[rows].tolist(),
            packet_id[rows].tolist()):
        results[i] = TraceRecord(
            timestamp=timestamps[i],
            src=endpoint(sip, sport), dst=endpoint(dip, dport),
            seq=rseq, ack=rack, flags=rflags, payload=rpayload,
            window=rwindow, mss_option=None if rmss < 0 else rmss,
            corrupted=rcorrupt, packet_id=rid)
    return handled

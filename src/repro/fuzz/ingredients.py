"""The adversarial ingredient vocabulary.

Three mangling layers, matching where real damage happens:

**Record manglers** (``Trace -> Trace``) model path and middlebox
behavior *before* the capture point: ack thinning on asymmetric
return channels, almost-sorted reordering (the reordering-heavy paths
of arXiv 0810.1639), middlebox window rewriting and MSS-option
stripping (the mangling modes cataloged by arXiv 2002.05400), RST
aborts, measurement duplicates, and sequence-space wraparound
(rebasing both ISNs so the transfer crosses 2**32 mid-flight).

**Frame manglers** (``list[Frame] -> list[Frame]``) do byte surgery
on encoded packets — the damage a capture path inflicts after the
packet left the stack: link-layer trailer padding, snaplen
truncation, checksum damage, truncated/zero-length TCP options,
garbage and non-TCP cross-traffic frames, clock steps.

**File manglers** operate on the final frame list to model container
damage: a capture torn mid-record by a dying filter.

Every mangler takes an explicit ``random.Random`` so a scenario's
composition is a pure function of its seed.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, replace

from repro.packets import ACK, RST
from repro.trace.pcap import pcap_chunks
from repro.trace.record import Trace, TraceRecord
from repro.units import SEQ_SPACE, seq_add


@dataclass
class Frame:
    """One on-the-wire packet inside a capture being mangled.

    ``orig_len`` > len(data) records an honest snaplen truncation;
    ``declared_len`` > len(data) *lies* to the reader about how many
    bytes follow — the torn-capture case, valid only as damage.
    """

    timestamp: float
    data: bytes
    orig_len: int | None = None
    declared_len: int | None = None


def render_pcap(frames: list[Frame]) -> bytes:
    """Render frames as classic big-endian pcap bytes, lies included."""
    return b"".join(pcap_chunks(
        (frame.timestamp, frame.data, frame.orig_len, frame.declared_len)
        for frame in frames))


def _tcp_bounds(data: bytes) -> tuple[int, int] | None:
    """(ip header length, tcp header length) if parseable IPv4/TCP."""
    if len(data) < 20 or data[0] >> 4 != 4:
        return None
    ihl = (data[0] & 0x0F) * 4
    if data[9] != 6 or len(data) < ihl + 20:
        return None
    header_len = (data[ihl + 12] >> 4) * 4
    return ihl, header_len


# ---------------------------------------------------------------------------
# Record manglers: path and middlebox behavior ahead of the filter.
# ---------------------------------------------------------------------------

def _rebuild(trace: Trace, records: list[TraceRecord]) -> Trace:
    return Trace(records=records, vantage=trace.vantage,
                 filter_name=trace.filter_name,
                 reported_drops=trace.reported_drops)


def thin_acks(trace: Trace, rng: random.Random,
              drop_fraction: float = 0.3) -> Trace:
    """Drop a fraction of pure acks — the thinned return path an
    asymmetric channel (or an ack-decimating middlebox) produces."""
    kept = [r for r in trace.records
            if not (r.is_pure_ack and not r.is_rst
                    and rng.random() < drop_fraction)]
    return _rebuild(trace, kept)


def reorder_records(trace: Trace, rng: random.Random,
                    swap_fraction: float = 0.15) -> Trace:
    """Almost-sorted reordering: swap the timestamps of adjacent
    record pairs, so recording order no longer matches wire order."""
    records = list(trace.records)
    i = 0
    while i < len(records) - 1:
        if rng.random() < swap_fraction:
            a, b = records[i], records[i + 1]
            records[i] = replace(a, timestamp=b.timestamp)
            records[i + 1] = replace(b, timestamp=a.timestamp)
            i += 2
        else:
            i += 1
    return _rebuild(trace, records)


def rewrite_windows(trace: Trace, rng: random.Random,
                    cap: int = 4096) -> Trace:
    """Middlebox window rewriting: clamp the advertised window on the
    ack (reverse-of-primary) direction, as rate-limiting boxes do."""
    reverse = trace.primary_flow().reversed()
    records = [replace(r, window=min(r.window, cap))
               if r.flow == reverse else r
               for r in trace.records]
    return _rebuild(trace, records)


def strip_mss(trace: Trace, rng: random.Random) -> Trace:
    """MSS-option stripping: the middlebox removed TCP options."""
    records = [replace(r, mss_option=None) if r.mss_option is not None
               else r for r in trace.records]
    return _rebuild(trace, records)


def rst_abort(trace: Trace, rng: random.Random,
              keep_fraction: float = 0.7,
              stale_data: bool = False) -> Trace:
    """Cut the connection short with a RST+ACK from the receiver side.

    With *stale_data*, one in-flight data packet straggles in after
    the RST — the data-after-close arrival the flow table must keep
    attached without resurrecting the connection.
    """
    records = list(trace.records)
    if len(records) < 4:
        return trace
    cut = max(3, int(len(records) * keep_fraction))
    kept = records[:cut]
    flow = trace.primary_flow()
    last = kept[-1]
    data = [r for r in kept if r.flow == flow and r.payload > 0]
    reset = TraceRecord(
        timestamp=last.timestamp + 0.005,
        src=flow.dst, dst=flow.src,
        seq=last.ack if last.flow == flow.reversed() else 0,
        ack=(data[-1].seq_end if data else last.seq_end),
        flags=RST | ACK, payload=0, window=0)
    kept.append(reset)
    if stale_data and data:
        straggler = replace(data[-1],
                            timestamp=reset.timestamp + 0.050)
        kept.append(straggler)
    return _rebuild(trace, kept)


def fin_rst_close(trace: Trace, rng: random.Random) -> Trace:
    """Fold RST into the last FIN — a FIN+RST in one segment, as
    abortive-close middleboxes emit."""
    records = list(trace.records)
    for i in range(len(records) - 1, -1, -1):
        if records[i].is_fin:
            records[i] = replace(records[i],
                                 flags=records[i].flags | RST)
            break
    return _rebuild(trace, records)


def duplicate_records(trace: Trace, rng: random.Random,
                      duplicate_fraction: float = 0.1) -> Trace:
    """IRIX-style measurement duplicates: records copied back-to-back."""
    records: list[TraceRecord] = []
    for record in trace.records:
        records.append(record)
        if rng.random() < duplicate_fraction:
            records.append(replace(record,
                                   timestamp=record.timestamp + 1e-5))
    return _rebuild(trace, records)


def wrap_sequences(trace: Trace, rng: random.Random) -> Trace:
    """Rebase both directions' ISNs so the primary (data) direction's
    sequence space wraps past 2**32 mid-transfer.

    A wrap is perfectly legal TCP — the ISN is 32-bit random, so one
    transfer in ~2**32/size crosses zero — but it is poison to any
    analysis that compares raw sequence numbers instead of using
    modular arithmetic (``seq_diff``/``seq_lt``).  The shift lands the
    wrap *inside* a mid-transfer data segment (its payload straddles
    zero), and the reverse direction gets an independent random ISN so
    ack numbers exercise the same arithmetic.
    """
    flow = trace.primary_flow()
    reverse = flow.reversed()
    forward = [r for r in trace.records if r.flow == flow]
    if not forward:
        return trace
    # The record the wrap lands in: middle half of the transfer, so
    # both sides of the wrap hold enough packets to analyze.
    lo = len(forward) // 4
    target = forward[rng.randint(lo, max(lo, (3 * len(forward)) // 4))]
    inside = rng.randint(0, max(target.payload - 1, 0))
    delta_fwd = (SEQ_SPACE - target.seq - inside) % SEQ_SPACE
    delta_rev = rng.randrange(SEQ_SPACE)
    records = []
    for record in trace.records:
        if record.flow == flow:
            record = replace(
                record, seq=seq_add(record.seq, delta_fwd),
                ack=seq_add(record.ack, delta_rev)
                if record.has_ack else record.ack)
        elif record.flow == reverse:
            record = replace(
                record, seq=seq_add(record.seq, delta_rev),
                ack=seq_add(record.ack, delta_fwd)
                if record.has_ack else record.ack)
        records.append(record)
    return _rebuild(trace, records)


RECORD_MANGLERS = {
    "thin-acks": thin_acks,
    "reorder": reorder_records,
    "rewrite-windows": rewrite_windows,
    "strip-mss": strip_mss,
    "rst-abort": rst_abort,
    "fin-rst": fin_rst_close,
    "duplicates": duplicate_records,
    "seq-wraparound": wrap_sequences,
}


# ---------------------------------------------------------------------------
# Frame manglers: byte surgery on encoded packets.
# ---------------------------------------------------------------------------

def pad_frames(frames: list[Frame], rng: random.Random,
               pad_fraction: float = 0.5, max_pad: int = 22) -> list[Frame]:
    """Append link-layer trailer padding (Ethernet's 60-byte minimum
    is the classic source) past the IP datagram's total length."""
    out = []
    for frame in frames:
        if frame.declared_len is None and rng.random() < pad_fraction:
            pad = rng.randint(1, max_pad)
            out.append(replace(frame, data=frame.data + b"\x00" * pad,
                               orig_len=None))
        else:
            out.append(frame)
    return out


def truncate_frames(frames: list[Frame], rng: random.Random,
                    truncate_fraction: float = 0.05,
                    min_keep: int = 28) -> list[Frame]:
    """Honest snaplen-style truncation of a fraction of frames."""
    out = []
    for frame in frames:
        if frame.declared_len is None and len(frame.data) > min_keep \
                and rng.random() < truncate_fraction:
            keep = rng.randint(min_keep, len(frame.data) - 1)
            out.append(Frame(frame.timestamp, frame.data[:keep],
                             orig_len=len(frame.data)))
        else:
            out.append(frame)
    return out


def damage_checksums(frames: list[Frame], rng: random.Random,
                     damage_fraction: float = 0.03) -> list[Frame]:
    """Flip one payload byte after checksumming — line damage the
    checksum verifier must catch (and only genuine damage: never the
    padding or the headers)."""
    out = []
    for frame in frames:
        bounds = _tcp_bounds(frame.data)
        if bounds is not None and frame.declared_len is None \
                and rng.random() < damage_fraction:
            ihl, header_len = bounds
            body = ihl + header_len
            if len(frame.data) > body:
                at = rng.randrange(body, len(frame.data))
                data = bytearray(frame.data)
                data[at] ^= 0xFF
                out.append(replace(frame, data=bytes(data)))
                continue
        out.append(frame)
    return out


def truncate_mss_frames(frames: list[Frame], rng: random.Random,
                        mangle_fraction: float = 0.6) -> list[Frame]:
    """Truncate the MSS option mid-body: the option area declares an
    MSS (kind 2, length 4) whose body overruns the TCP header — the
    exact wire shape that used to escape as a bare ``struct.error``."""
    out = []
    for frame in frames:
        bounds = _tcp_bounds(frame.data)
        if bounds is not None:
            ihl, header_len = bounds
            if header_len >= 24 and len(frame.data) >= ihl + 24 \
                    and rng.random() < mangle_fraction:
                data = bytearray(frame.data)
                data[ihl + 20:ihl + 24] = b"\x01\x01\x02\x04"
                out.append(replace(frame, data=bytes(data)))
                continue
        out.append(frame)
    return out


def zero_length_options(frames: list[Frame], rng: random.Random,
                        mangle_fraction: float = 0.6) -> list[Frame]:
    """Write a zero-length TCP option — the walk-stalling pathology."""
    out = []
    for frame in frames:
        bounds = _tcp_bounds(frame.data)
        if bounds is not None:
            ihl, header_len = bounds
            if header_len >= 24 and len(frame.data) >= ihl + 24 \
                    and rng.random() < mangle_fraction:
                data = bytearray(frame.data)
                data[ihl + 20:ihl + 22] = b"\x08\x00"
                out.append(replace(frame, data=bytes(data)))
                continue
        out.append(frame)
    return out


def inject_garbage(frames: list[Frame], rng: random.Random,
                   count: int = 2, max_size: int = 96) -> list[Frame]:
    """Insert frames of raw noise — not IP, not anything."""
    out = list(frames)
    for _ in range(count):
        size = rng.randint(1, max_size)
        blob = bytes(rng.randrange(256) for _ in range(size))
        at = rng.randrange(len(out) + 1) if out else 0
        timestamp = out[min(at, len(out) - 1)].timestamp if out else 0.0
        out.insert(at, Frame(timestamp, blob))
    return out


def inject_udp(frames: list[Frame], rng: random.Random,
               count: int = 3) -> list[Frame]:
    """Insert well-formed IPv4/UDP cross-traffic frames."""
    out = list(frames)
    for _ in range(count):
        payload = rng.randint(8, 64)
        udp = struct.pack("!HHHH", rng.randint(1024, 65535), 53,
                          8 + payload, 0) + b"\x00" * payload
        total = 20 + len(udp)
        header = struct.pack("!BBHHHBBH4s4s", 0x45, 0, total,
                             rng.randint(0, 0xFFFF), 0, 64, 17, 0,
                             bytes([10, 9, 0, 1]), bytes([10, 9, 0, 2]))
        at = rng.randrange(len(out) + 1) if out else 0
        timestamp = out[min(at, len(out) - 1)].timestamp if out else 0.0
        out.insert(at, Frame(timestamp, header + udp))
    return out


def time_travel(frames: list[Frame], rng: random.Random,
                magnitude: float = 0.5) -> list[Frame]:
    """Step one frame's clock backwards — the filter clock defect the
    calibration battery must flag."""
    if len(frames) < 3:
        return frames
    out = list(frames)
    at = rng.randrange(1, len(out))
    victim = out[at]
    out[at] = replace(victim,
                      timestamp=max(0.0, victim.timestamp - magnitude))
    return out


FRAME_MANGLERS = {
    "pad": pad_frames,
    "truncate": truncate_frames,
    "damage-checksum": damage_checksums,
    "truncate-mss": truncate_mss_frames,
    "zero-length-option": zero_length_options,
    "garbage": inject_garbage,
    "udp-cross-traffic": inject_udp,
    "time-travel": time_travel,
}


# ---------------------------------------------------------------------------
# File manglers: container damage.
# ---------------------------------------------------------------------------

def tear_tail(frames: list[Frame], rng: random.Random,
              max_cut: int = 24) -> list[Frame]:
    """Tear the capture mid-record: the final frame's header promises
    more bytes than the file holds (a filter that died writing)."""
    if not frames:
        return frames
    out = list(frames)
    last = out[-1]
    if len(last.data) < 2:
        return out
    cut = rng.randint(1, min(max_cut, len(last.data) - 1))
    out[-1] = Frame(last.timestamp, last.data[:len(last.data) - cut],
                    orig_len=last.orig_len
                    if last.orig_len is not None else len(last.data),
                    declared_len=len(last.data))
    return out


FILE_MANGLERS = {
    "tear-tail": tear_tail,
}

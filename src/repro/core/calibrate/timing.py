"""Timestamp calibration (§3.1.4).

Within a single trace, the only cheap validity test is that
timestamps never decrease; a decrease — "time travel" — means the
tracing machine's clock was set backwards mid-trace (observed >500
times in the paper, always BSDI 1.1 / NetBSD 1.0).

With a *pair* of traces (sender-side and receiver-side) much more is
possible: matching each packet's departure and arrival records gives
one-way delay (OWD) samples in each direction.  A relative clock
*offset* shifts forward OWDs by +δ and reverse OWDs by −δ; relative
*skew* makes the shift grow linearly; a *step adjustment* makes it
jump.  The half-difference series (OWD_fwd − OWD_rev)/2 therefore
isolates the clock terms from genuine (always-positive, noisy) network
delay, and we estimate skew by a least-squares line and adjustments by
jump detection on that series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.trace.record import Trace, TraceRecord


@dataclass(frozen=True)
class TimeTravelEvent:
    """A backwards step between consecutive records."""

    index: int
    before: TraceRecord
    after: TraceRecord

    @property
    def magnitude(self) -> float:
        return self.before.timestamp - self.after.timestamp


def detect_time_travel(trace: Trace) -> list[TimeTravelEvent]:
    """Find every timestamp decrease in recording order."""
    columns = trace.columns()
    ts = columns.timestamp
    return [TimeTravelEvent(i, columns.record(i - 1), columns.record(i))
            for i in (np.flatnonzero(ts[1:] < ts[:-1]) + 1).tolist()]


# ---------------------------------------------------------------------------
# Paired-trace analysis.
# ---------------------------------------------------------------------------


def _occurrence_key(record: TraceRecord) -> tuple:
    """Identity of a packet irrespective of capture point."""
    return (record.src, record.dst, record.seq, record.flags,
            record.payload, record.ack)


def pair_records(trace_a: Trace, trace_b: Trace
                 ) -> list[tuple[TraceRecord, TraceRecord]]:
    """Match records across two traces of the same connection.

    Retransmissions repeat header-identical packets, so the nth
    occurrence of a key in one trace matches the nth in the other.
    Records present in only one trace (filter drops!) are unmatched.
    """
    from collections import defaultdict
    occurrences_b: dict[tuple, list[TraceRecord]] = defaultdict(list)
    for record in trace_b:
        occurrences_b[_occurrence_key(record)].append(record)
    pairs = []
    cursor: dict[tuple, int] = defaultdict(int)
    for record in trace_a:
        key = _occurrence_key(record)
        index = cursor[key]
        if index < len(occurrences_b[key]):
            pairs.append((record, occurrences_b[key][index]))
            cursor[key] = index + 1
    return pairs


@dataclass
class ClockAdjustment:
    """A detected step in the relative clock offset."""

    time: float                # approximate time of the step (trace A's clock)
    magnitude: float           # seconds; positive = A's clock jumped forward


@dataclass
class PairedTimingAnalysis:
    """Results of comparing a sender-side and receiver-side trace."""

    samples: int
    relative_offset: float             # mean (OWD_fwd - OWD_rev)/2
    relative_skew_ppm: float           # slope of the same series, in ppm
    skew_detected: bool
    adjustments: list[ClockAdjustment] = field(default_factory=list)
    unmatched_a: int = 0
    unmatched_b: int = 0


#: Relative skew below this (in parts per million) is considered noise.
SKEW_DETECTION_PPM = 20.0
#: Offset-series jumps larger than this are reported as adjustments.
ADJUSTMENT_THRESHOLD = 0.040
#: How many time segments the connection is carved into for the
#: minimum-envelope analysis.
SEGMENTS = 12


def _segment_minima(samples: list[tuple[float, float]], segments: int,
                    t0: float, t1: float) -> dict[int, tuple[float, float]]:
    """Carve (time, value) samples into a fixed time grid and return
    each segment's minimum value with its timestamp, keyed by segment.

    Queueing inflates one-way delays but never deflates them, so the
    per-segment *minimum* tracks the propagation delay plus the clock
    terms — the Paxson-style de-noising that makes skew estimation
    possible on a loaded path.  The caller supplies the grid bounds so
    both directions share segment boundaries (step detection compares
    the directions segment-by-segment).
    """
    span = max(t1 - t0, 1e-9)
    buckets: dict[int, tuple[float, float]] = {}
    for time, value in samples:
        index = min(max(int((time - t0) / span * segments), 0), segments - 1)
        current = buckets.get(index)
        if current is None or value < current[1]:
            buckets[index] = (time, value)
    return buckets


def _fit_line(points: list[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares (slope, intercept) through (time, value) points."""
    n = len(points)
    t_mean = sum(t for t, _ in points) / n
    v_mean = sum(v for _, v in points) / n
    denominator = sum((t - t_mean) ** 2 for t, _ in points)
    if denominator == 0:
        return 0.0, v_mean
    slope = sum((t - t_mean) * (v - v_mean) for t, v in points) / denominator
    return slope, v_mean - slope * t_mean


def _fit_residuals(points: list[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope plus the RMS residual around the fit."""
    slope, intercept = _fit_line(points)
    residuals = [(v - (slope * t + intercept)) ** 2 for t, v in points]
    rms = (sum(residuals) / len(residuals)) ** 0.5 if residuals else 0.0
    return slope, rms


def analyze_trace_pair(sender_trace: Trace,
                       receiver_trace: Trace) -> PairedTimingAnalysis:
    """Full §3.1.4 paired-trace timing analysis.

    Forward OWDs come from data packets (recorded leaving the sender
    and arriving at the receiver); reverse OWDs from acks.  Genuine
    network delay is always positive and noisy (queueing), while clock
    offset/skew/steps shift forward and reverse OWDs *oppositely* —
    so all estimates are made on per-segment minimum envelopes, and a
    clock artifact is declared only when the two directions move in
    opposite senses by comparable amounts.
    """
    pairs = pair_records(sender_trace, receiver_trace)
    flow = sender_trace.primary_flow()

    forward: list[tuple[float, float]] = []
    reverse: list[tuple[float, float]] = []
    for record_a, record_b in pairs:
        owd = record_b.timestamp - record_a.timestamp
        if record_a.flow == flow:
            forward.append((record_a.timestamp, owd))
        else:
            reverse.append((record_a.timestamp, owd))

    unmatched_a = len(sender_trace) - len(pairs)
    unmatched_b = len(receiver_trace) - len(pairs)
    if len(forward) < SEGMENTS or len(reverse) < SEGMENTS:
        return PairedTimingAnalysis(
            samples=len(forward) + len(reverse), relative_offset=0.0,
            relative_skew_ppm=0.0, skew_detected=False,
            unmatched_a=unmatched_a, unmatched_b=unmatched_b)

    all_times = [t for t, _ in forward] + [t for t, _ in reverse]
    t0, t1 = min(all_times), max(all_times)
    fwd_buckets = _segment_minima(forward, SEGMENTS, t0, t1)
    rev_buckets = _segment_minima(reverse, SEGMENTS, t0, t1)
    fwd_minima = [fwd_buckets[i] for i in sorted(fwd_buckets)]
    rev_minima = [rev_buckets[i] for i in sorted(rev_buckets)]

    # Both series carry the SAME clock term (offset_B - offset_A):
    #   forward (A sends, B receives):  b - a = +transit_fwd + clock
    #   reverse (B sends, A receives):  b - a = -transit_rev + clock
    # Genuine network delay enters each direction independently
    # (queueing only ever *adds*), so the per-direction minimum
    # envelopes each track clock skew plus that direction's residual
    # queueing drift.  Estimate from the quieter direction and demand
    # the other does not contradict it beyond its own noise.
    fwd_slope, fwd_noise = _fit_residuals(fwd_minima)
    rev_slope, rev_noise = _fit_residuals(rev_minima)
    duration = max(fwd_minima[-1][0] - fwd_minima[0][0], 1e-9)
    if fwd_noise <= rev_noise:
        skew, quiet_noise = fwd_slope, fwd_noise
        other_slope, other_noise = rev_slope, rev_noise
    else:
        skew, quiet_noise = rev_slope, rev_noise
        other_slope, other_noise = fwd_slope, fwd_noise
    skew_ppm = skew * 1e6
    allowance = 3.0 * (other_noise + quiet_noise) / duration
    # The noisier direction corroborates when it agrees within its own
    # noise — or is simply too noisy (queue-dominated) to contradict.
    consistent = (abs(other_slope - skew) <= max(allowance, 0.5 * abs(skew))
                  or other_noise / duration > abs(skew))
    # The accumulated drift must be clock-measurable: tiny ppm figures
    # over a short connection are numerical noise, not skew.
    measurable = abs(skew) * duration >= 0.0005

    offset = (sum(v for _, v in fwd_minima) / len(fwd_minima)
              + sum(v for _, v in rev_minima) / len(rev_minima)) / 2.0

    # Step adjustments: a clock step shifts BOTH envelopes by the same
    # amount in the same direction; a route change would shift only
    # one direction.  Compare segment-by-segment on the shared grid,
    # skipping segments where either direction has no sample.
    adjustments = []
    common = sorted(set(fwd_buckets) & set(rev_buckets))
    for earlier, later in zip(common, common[1:]):
        fwd_jump = fwd_buckets[later][1] - fwd_buckets[earlier][1]
        rev_jump = rev_buckets[later][1] - rev_buckets[earlier][1]
        if (abs(fwd_jump) >= ADJUSTMENT_THRESHOLD
                and abs(rev_jump) >= ADJUSTMENT_THRESHOLD
                and fwd_jump * rev_jump > 0
                and abs(fwd_jump - rev_jump)
                <= 0.5 * abs(fwd_jump + rev_jump)):
            adjustments.append(ClockAdjustment(
                time=fwd_buckets[later][0],
                magnitude=(fwd_jump + rev_jump) / 2.0))

    return PairedTimingAnalysis(
        samples=len(forward) + len(reverse), relative_offset=offset,
        relative_skew_ppm=skew_ppm,
        skew_detected=(abs(skew_ppm) >= SKEW_DETECTION_PPM
                       and consistent and measurable and not adjustments),
        adjustments=adjustments,
        unmatched_a=unmatched_a, unmatched_b=unmatched_b)

"""Serve-mode observability: counters, gauges, rolling aggregates.

Batch mode summarizes after the fact; a daemon has no "after", so its
numbers must be readable while it runs.  :class:`ServeMetrics` is the
single place every serve component reports into, and its
:meth:`~ServeMetrics.to_dict` snapshot is exactly what the HTTP
``/stats`` endpoint returns.

Aggregates that answer "what is the traffic doing *lately*" — which
implementations are being identified, what fraction of each flow's
data packets were retransmitted (the aggregate-rate view of
arXiv 1112.2292), which quarantine kinds are firing — are kept over a
sliding time window by :class:`RollingWindow`, so a daemon that has
been up for a week reports this hour's mix, not the all-time average.

The clock is injectable for tests; nothing here touches the payloads
themselves, so metrics can never perturb the live-vs-batch
equivalence.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from typing import Callable

from repro.analysis.connstats import connection_stats
from repro.serve.governor import BREAKER_STATES, HEALTH_STATES
from repro.trace.record import Trace

#: Default sliding-window span for rolling aggregates (seconds).
DEFAULT_WINDOW = 300.0


class RollingWindow:
    """Timestamped observations over a sliding window.

    Observations older than *span* seconds fall off as new ones
    arrive (and on read), so both memory and the reported aggregate
    are bounded by recent activity.
    """

    def __init__(self, span: float = DEFAULT_WINDOW,
                 clock: Callable[[], float] = time.monotonic):
        if span <= 0:
            raise ValueError(f"span must be positive, not {span}")
        self.span = span
        self._clock = clock
        self._entries: deque[tuple[float, object]] = deque()

    def observe(self, value) -> None:
        now = self._clock()
        self._entries.append((now, value))
        self._prune(now)

    def _prune(self, now: float) -> None:
        horizon = now - self.span
        entries = self._entries
        while entries and entries[0][0] < horizon:
            entries.popleft()

    def values(self) -> list:
        self._prune(self._clock())
        return [value for _stamp, value in self._entries]

    def __len__(self) -> int:
        self._prune(self._clock())
        return len(self._entries)

    def counts(self) -> dict:
        """Tally of discrete observations (labels, kinds) in window."""
        return dict(Counter(self.values()))

    def mean(self) -> float | None:
        """Mean of numeric observations in window; None when empty."""
        values = self.values()
        if not values:
            return None
        return sum(values) / len(values)


class ServeMetrics:
    """Every number the serve daemon exposes, in one place.

    Monotone counters accumulate for the daemon's lifetime; gauges
    are overwritten each loop tick by the daemon; rolling windows
    hold the recent-traffic aggregates.
    """

    def __init__(self, window: float = DEFAULT_WINDOW,
                 clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self.started_at = clock()
        # Counters (lifetime).
        self.records_ingested = 0
        self.flows_submitted = 0
        self.flows_completed = 0
        self.flows_quarantined = 0
        self.journal_skips = 0       # completed in a prior run, replayed
        self.sink_lines = 0
        self.sources_failed = 0      # captures that were not pcaps at all
        self.pause_events = 0        # backpressure trips
        # Governance counters.
        self.flows_shed = 0          # early-retired under memory pressure
        self.flows_cancelled = 0     # withdrawn from a quarantined source
        self.breaker_trips = 0       # closed/half-open -> open
        self.breaker_quarantines = 0  # sources given up on permanently
        self.rotations = 0           # in-place rotation/truncation events
        self.sink_errors = 0         # failed sink appends (parked)
        self.journal_errors = 0      # failed journal appends (parked)
        # Gauges (overwritten per tick).
        self.ingest_lag_bytes = 0
        self.flow_table_occupancy = 0
        self.queue_depth = 0
        self.inflight = 0
        self.worker_restarts = 0
        self.sources = 0
        self.paused = False
        # Governance gauges.
        self.health_state = "healthy"
        self.breaker_states: dict[str, str] = {}
        self.disk_free_bytes = 0
        self.rss_bytes = 0
        self.sink_parked = 0
        self.journal_pending = 0
        # Rolling aggregates.
        self.identifications = RollingWindow(window, clock)
        self.quarantines = RollingWindow(window, clock)
        self.retransmission_rates = RollingWindow(window, clock)
        self.retirements = RollingWindow(window, clock)

    def observe_payload(self, payload: dict) -> None:
        """Account one finished per-flow payload: its parent fields
        (:func:`~repro.pipeline.lines.parent_fields`) suffice."""
        self.flows_completed += 1
        if "error_kind" in payload:
            self.flows_quarantined += 1
            self.quarantines.observe(payload["error_kind"])
            return
        identification = payload.get("identification") or {}
        best = identification.get("best")
        if identification.get("best_category") != "close":
            best = None
        self.identifications.observe(best or "(no close fit)")

    def observe_retirement(self, flow) -> None:
        """Account one retired flow: its close reason and its
        retransmission rate (:func:`flow_retransmission_rate`)."""
        self.retirements.observe(flow.close_reason)
        self.retransmission_rates.observe(
            flow_retransmission_rate(flow.to_trace()))

    def to_dict(self) -> dict:
        """The ``/stats`` snapshot (JSON-safe, stable keys)."""
        return {
            "uptime_seconds": round(self._clock() - self.started_at, 3),
            "counters": {
                "records_ingested": self.records_ingested,
                "flows_submitted": self.flows_submitted,
                "flows_completed": self.flows_completed,
                "flows_quarantined": self.flows_quarantined,
                "journal_skips": self.journal_skips,
                "sink_lines": self.sink_lines,
                "sources_failed": self.sources_failed,
                "pause_events": self.pause_events,
                "flows_shed": self.flows_shed,
                "flows_cancelled": self.flows_cancelled,
                "breaker_trips": self.breaker_trips,
                "breaker_quarantines": self.breaker_quarantines,
                "rotations": self.rotations,
                "sink_errors": self.sink_errors,
                "journal_errors": self.journal_errors,
            },
            "gauges": {
                "ingest_lag_bytes": self.ingest_lag_bytes,
                "flow_table_occupancy": self.flow_table_occupancy,
                "queue_depth": self.queue_depth,
                "inflight": self.inflight,
                "worker_restarts": self.worker_restarts,
                "sources": self.sources,
                "paused": self.paused,
                "disk_free_bytes": self.disk_free_bytes,
                "rss_bytes": self.rss_bytes,
                "sink_parked": self.sink_parked,
                "journal_pending": self.journal_pending,
            },
            "health": {
                "state": self.health_state,
                "breakers": dict(self.breaker_states),
            },
            "rolling": {
                "window_seconds": self.identifications.span,
                "identifications": self.identifications.counts(),
                "quarantine_kinds": self.quarantines.counts(),
                "close_reasons": self.retirements.counts(),
                "retransmission_rate_mean":
                    self.retransmission_rates.mean(),
                "retransmission_samples":
                    len(self.retransmission_rates),
            },
        }


def _label_escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"') \
                .replace("\n", r"\n")


def render_prometheus(snapshot: dict) -> str:
    """The ``/stats`` snapshot as Prometheus text exposition format.

    Everything a scraper needs to alert on the governor: lifetime
    counters as ``tcpanaly_serve_<name>_total``, gauges as
    ``tcpanaly_serve_<name>``, the health state machine and per-source
    breaker states as one-hot labeled gauges, and the rolling
    identification mix as labeled gauges.  Rendered from the same
    snapshot ``/stats`` serves, so the two endpoints can never
    disagree.
    """
    lines: list[str] = []

    def emit(name: str, kind: str, help_text: str,
             samples: list[tuple[str, float]]) -> None:
        metric = f"tcpanaly_serve_{name}"
        lines.append(f"# HELP {metric} {help_text}")
        lines.append(f"# TYPE {metric} {kind}")
        for labels, value in samples:
            number = f"{value:g}" if isinstance(value, float) \
                else str(int(value))
            lines.append(f"{metric}{labels} {number}")

    emit("uptime_seconds", "gauge", "Seconds since daemon start.",
         [("", float(snapshot.get("uptime_seconds", 0.0)))])
    for name, value in snapshot.get("counters", {}).items():
        emit(f"{name}_total", "counter",
             f"Lifetime count of {name.replace('_', ' ')}.",
             [("", value)])
    for name, value in snapshot.get("gauges", {}).items():
        emit(name, "gauge", f"Current {name.replace('_', ' ')}.",
             [("", int(value) if isinstance(value, bool) else value)])
    health = snapshot.get("health", {})
    state = health.get("state", "healthy")
    emit("health_state", "gauge",
         "Governor degradation ladder (1 on the active state).",
         [(f'{{state="{s}"}}', 1 if s == state else 0)
          for s in HEALTH_STATES])
    breakers = health.get("breakers", {})
    samples = []
    for source in sorted(breakers):
        escaped = _label_escape(source)
        for s in BREAKER_STATES:
            samples.append((f'{{source="{escaped}",state="{s}"}}',
                            1 if breakers[source] == s else 0))
    if samples:
        emit("breaker_state", "gauge",
             "Per-source circuit breaker (1 on the active state).",
             samples)
    rolling = snapshot.get("rolling", {})
    for name, key, label in (
            ("identifications", "identifications", "implementation"),
            ("quarantine_kinds", "quarantine_kinds", "kind"),
            ("close_reasons", "close_reasons", "reason")):
        counts = rolling.get(key) or {}
        if counts:
            emit(f"rolling_{name}", "gauge",
                 f"Rolling-window {name.replace('_', ' ')}.",
                 [(f'{{{label}="{_label_escape(str(value))}"}}', count)
                  for value, count in sorted(counts.items())])
    mean = rolling.get("retransmission_rate_mean")
    if mean is not None:
        emit("rolling_retransmission_rate_mean", "gauge",
             "Rolling mean per-flow retransmission rate.",
             [("", float(mean))])
    return "\n".join(lines) + "\n"


def flow_retransmission_rate(trace: Trace) -> float:
    """Fraction of a flow's data packets that were retransmissions.

    The data direction's ``retransmitted_packets`` over its
    ``total_data_packets``, both as ``connection_stats`` counts them:
    a data packet re-sending a seen start, or starting below the
    highest byte already sent, is a retransmission.  An empty trace,
    or one without data, gives 0.0.
    """
    if not len(trace):
        return 0.0
    stats = connection_stats(trace)
    if stats.total_data_packets == 0:
        return 0.0
    return stats.retransmitted_packets / stats.total_data_packets

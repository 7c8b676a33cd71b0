"""Tailing one growing capture into completed flows.

A :class:`CaptureTailer` owns the per-source ingest state the daemon
loop drives: an :class:`~repro.stream.IncrementalPcapReader` (which
never mistakes a half-written trailing record for damage) feeding a
:class:`~repro.stream.FlowTable` (which retires flows by the stream
clock exactly as batch ingest would).  Each :meth:`poll` consumes
whatever complete records have landed since the last one and returns
the flows their arrival completed; :meth:`finalize` declares the
capture finished and drains everything still open.

Because the tailer replays the same record sequence through the same
flow table the batch path uses, flow indices, membership, and close
reasons are deterministic — the property that makes live output
comparable to (and resumable against) a one-shot ``batch --stream``
run over the finished file.

A tailer can *fail*, and every failure is classified rather than
thrown at the daemon loop:

- a source that is not a pcap at all (bad magic) fails as ``decode``
  and is quarantined, exactly as before;
- a source **rotated or truncated in place** — the on-disk size fell
  below the reader's resume offset, or the path now names a different
  inode — fails with :attr:`rotated` set, so the daemon can apply its
  ``--on-rotate`` policy (quarantine the source, or restart tailing
  the new incarnation) instead of silently parking forever;
- an ``OSError`` mid-tail (source deleted, filesystem yanked) fails
  as ``io`` and quarantines the source, never the daemon.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import AnalysisError
from repro.stream import Flow, FlowTable, IncrementalPcapReader, IngestStats

#: Records consumed from one source per poll; bounds the time a single
#: busy capture can hold the daemon loop (and how far tailing can
#: overshoot a backpressure pause).
DEFAULT_RECORDS_PER_POLL = 4096

#: Undecodable packets, with not one decoded record among them, after
#: which a source is declared a decode storm and quarantined — valid
#: pcap framing around garbage (a non-capture pointed at the daemon)
#: would otherwise burn a read per poll forever.
DECODE_STORM_THRESHOLD = 64


class CaptureTailer:
    """Incremental pcap → completed-flow pump for one source file."""

    def __init__(self, path: str | Path, source: str | None = None,
                 stats: IngestStats | None = None,
                 records_per_poll: int = DEFAULT_RECORDS_PER_POLL,
                 **table_options):
        self.path = Path(path)
        #: The name flows of this capture are reported under
        #: (``{source}#flow-NNNN``), conventionally the file name —
        #: the same name ``batch --stream`` would use for this file.
        self.source = source if source is not None else self.path.name
        self.stats = stats if stats is not None else IngestStats()
        self.records_per_poll = records_per_poll
        self.reader = IncrementalPcapReader(self.path, stats=self.stats)
        # Deliberately the batch path's table defaults: any divergence
        # here would break live-vs-batch flow equivalence.
        self.table = FlowTable(stats=self.stats, **table_options)
        self.finished = False
        #: Records fed through the flow table so far.
        self.records_consumed = 0
        #: Set when the source can no longer be tailed; the daemon
        #: quarantines (or, for rotation, restarts) the source and
        #: stops polling it.
        self.failed: Exception | None = None
        #: True when :attr:`failed` is an in-place rotation/truncation
        #: — the one failure for which restarting can make sense.
        self.rotated = False
        #: Inode backing the capture when its header was first read;
        #: a different inode under the same path means rotation.
        self._ino: int | None = None

    @property
    def ingest_lag(self) -> int:
        """Bytes on disk not yet consumed (tailing backlog)."""
        try:
            size = self.path.stat().st_size
        except OSError:
            return 0
        return max(size - self.reader.resume_offset, 0)

    @property
    def live_flows(self) -> int:
        return self.table.live_flows

    def _check_rotation(self) -> bool:
        """Detect in-place truncation or recreation; classify if so."""
        if self.reader.header is None:
            return False        # nothing consumed yet: nothing to lose
        try:
            status = self.path.stat()
        except FileNotFoundError:
            self._fail(AnalysisError(
                "io", f"{self.source}: capture deleted mid-tail "
                f"(after {self.reader.resume_offset} bytes)"))
            return True
        except OSError as error:
            self._fail(AnalysisError(
                "io", f"{self.source}: capture unreadable mid-tail: "
                f"{error}"))
            return True
        if self._ino is None:
            self._ino = status.st_ino
        rotated = status.st_ino != self._ino \
            or status.st_size < self.reader.resume_offset
        if rotated:
            self.rotated = True
            self._fail(AnalysisError(
                "io", f"{self.source}: capture rotated/truncated in "
                f"place (size {status.st_size} < consumed "
                f"{self.reader.resume_offset}, inode "
                f"{status.st_ino} vs {self._ino})"))
        return rotated

    def _fail(self, error: Exception) -> None:
        self.failed = error
        self.reader.close()

    def poll(self) -> list[Flow]:
        """Consume newly landed records; return newly completed flows.

        Reads at most ``records_per_poll`` records, so one source
        cannot starve the rest of the daemon loop; the remainder is
        picked up by the next poll (``ingest_lag`` stays honest
        either way).
        """
        if self.finished or self.failed is not None:
            return []
        if self._check_rotation():
            return []
        completed: list[Flow] = []
        try:
            for packets in self.reader.poll_columns(
                    limit=max(self.records_per_poll, 1)):
                completed.extend(self.table.add_packets(packets))
                self.records_consumed += len(packets)
        except ValueError as error:
            # Not a pcap (bad magic, unsupported strict link type):
            # the source is quarantined, not retried forever.
            self._fail(error)
            return completed
        except OSError as error:
            # The file went away (or unreadable) mid-read: quarantine
            # the source, never the daemon.
            self._fail(AnalysisError(
                "io", f"{self.source}: read failed mid-tail: {error}"))
            return completed
        if self._ino is None and self.reader.header is not None:
            try:
                self._ino = self.path.stat().st_ino
            except OSError:
                pass
        if self.stats.records_decoded == 0 \
                and self.stats.decode_errors >= DECODE_STORM_THRESHOLD:
            self._fail(AnalysisError(
                "decode",
                f"{self.source}: decode storm — "
                f"{self.stats.decode_errors} undecodable packets and "
                f"not one decoded record"))
        return completed

    def shed(self, count: int) -> list[Flow]:
        """Early-retire the oldest live flows (memory-pressure valve)."""
        if count <= 0 or self.finished or self.failed is not None:
            return []
        return self.table.shed(count)

    def drain_open_flows(self) -> list[Flow]:
        """Hand back whatever the table still holds (rotation restart:
        the truncated incarnation's open flows, analyzed as-is)."""
        flows = self.table.drain()
        flows.sort(key=lambda flow: flow.index)
        return flows

    def finalize(self) -> list[Flow]:
        """End of capture: flush the trailing record, drain the table."""
        if self.finished or self.failed is not None:
            return []
        self.finished = True
        completed: list[Flow] = []
        try:
            for packets in self.reader.finalize_columns():
                completed.extend(self.table.add_packets(packets))
                self.records_consumed += len(packets)
        except ValueError as error:
            self._fail(error)
            return completed
        except OSError as error:
            self._fail(AnalysisError(
                "io", f"{self.source}: read failed at finalize: "
                f"{error}"))
            return completed
        completed.extend(self.table.drain())
        completed.sort(key=lambda flow: flow.index)
        return completed

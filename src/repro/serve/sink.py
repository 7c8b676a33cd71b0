"""The append-only JSONL result sink, duplicate-proof across restarts.

One ``{source}.jsonl`` file per capture source, one key-sorted JSON
object per flow — the same line format ``write_jsonl`` produces for a
batch run, so downstream tooling reads either interchangeably.  The
sink takes :class:`~repro.pipeline.lines.PayloadLine` results and
writes each worker-encoded line as it is.

Restart safety is the whole design: the daemon journals a flow before
sinking it, so a crash between the two can leave a journaled flow
with no sink line (repaired here: the journal replay re-offers it and
the sink accepts it) or — never — a sink line with no journal entry.
On startup the sink loads the trace names already present in its
files and silently drops re-offers of those, which is what makes a
kill-and-resume cycle produce *zero* duplicate lines.

Disk failure is survival, not death: an ``OSError`` from an append
(disk full, permission flipped, filesystem remounted read-only) marks
the sink **degraded** and *parks* the payload in memory instead of
raising — every parked payload is already journaled, so nothing can
be lost even if the process dies while parked.  The daemon's governor
sees :attr:`JsonlSink.degraded`, enters journal-only mode, and calls
:meth:`flush_parked` each tick; once writes succeed again the parked
backlog drains in order and dedupe picks up where it left off (a
payload joins the dedupe set only *after* its line is durably
written, so a parked payload is always re-offerable).

The ``fsync`` policy closes the last durability gap: with it on,
every line is fsynced before the write is acknowledged, so a hard
kill (power loss, SIGKILL) can tear at most the final line — and a
torn line is dropped by the startup loader, then repaired by
:meth:`_repair_tail` before the next append so it can never glue
itself onto a later record.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Callable

from repro.pipeline.lines import PayloadLine


class JsonlSink:
    """Per-source append-only JSONL files with cross-restart dedupe."""

    def __init__(self, directory: str | Path, fsync: bool = False,
                 fault_hook: Callable[[str], None] | None = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        #: Test/chaos hook: called with the source name before every
        #: append; may raise OSError to simulate disk failure.
        self.fault_hook = fault_hook
        self._handles: dict[str, IO[str]] = {}
        self._seen: set[str] = set()
        #: Payloads whose append failed, in arrival order, awaiting
        #: a successful retry (each is already in the journal).
        self._parked: list[tuple[str, PayloadLine]] = []
        #: Sources whose file may end in a torn partial line (an
        #: append died mid-write); repaired before the next append.
        self._dirty: set[str] = set()
        self.write_errors = 0
        self.last_error: OSError | None = None
        #: True from a failed append until the next successful one.
        #: Distinct from :attr:`degraded`: payloads parked *by choice*
        #: (journal-only mode) leave ``failing`` False, so the
        #: governor can tell "disk is broken" from "we are holding
        #: back" — only the former needs a write probe to recover.
        self.failing = False
        self._load_existing()

    def _load_existing(self) -> None:
        """Recover the already-written trace names (resume dedupe)."""
        for path in sorted(self.directory.glob("*.jsonl")):
            try:
                text = path.read_text()
            except OSError:
                continue
            for line in text.splitlines():
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    continue    # torn trailing write from a hard kill
                name = payload.get("trace")
                if isinstance(name, str):
                    self._seen.add(name)

    def path_for(self, source: str) -> Path:
        return self.directory / f"{source}.jsonl"

    def __contains__(self, trace_name: str) -> bool:
        return trace_name in self._seen

    @property
    def degraded(self) -> bool:
        """True while parked payloads await a successful retry."""
        return bool(self._parked)

    @property
    def parked(self) -> int:
        return len(self._parked)

    def write(self, source: str, lines: list[PayloadLine]) -> int:
        """Append payload lines not yet present; return lines written.

        Never raises for disk trouble: a failed append parks the
        payload (and every payload behind it, preserving order) and
        the sink reports itself degraded instead.
        """
        written = 0
        for entry in lines:
            if _name(entry) in self._seen:
                continue
            if self._parked:
                # Order within the sink is preserved: nothing may
                # overtake a parked payload of an earlier failure.
                self._parked.append((source, entry))
                continue
            if self._append(source, entry):
                written += 1
        return written

    def park(self, source: str, lines: list[PayloadLine]) -> int:
        """Hold payloads for later (journal-only mode); dedupes now."""
        parked = 0
        for entry in lines:
            if _name(entry) in self._seen:
                continue
            if any(held is entry for _s, held in self._parked):
                continue
            self._parked.append((source, entry))
            parked += 1
        return parked

    def flush_parked(self) -> int:
        """Retry parked payloads in order; stop at the first failure.

        Returns lines actually written.  Dedupe applies at write
        time, so a payload that landed through another path (journal
        replay after restart) is silently dropped here.
        """
        written = 0
        while self._parked:
            source, entry = self._parked[0]
            if _name(entry) in self._seen:
                self._parked.pop(0)
                continue
            if not self._append(source, entry, parked=True):
                break
            self._parked.pop(0)
            written += 1
        return written

    def _append(self, source: str, entry: PayloadLine,
                parked: bool = False) -> bool:
        """One durable line; on OSError park (unless retrying) and
        report failure."""
        try:
            if self.fault_hook is not None:
                self.fault_hook(source)
            if source in self._dirty:
                self._repair_tail(source)
            handle = self._handles.get(source)
            if handle is None:
                handle = open(self.path_for(source), "a")
                self._handles[source] = handle
            handle.write(entry.line + "\n")
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        except OSError as error:
            self.write_errors += 1
            self.last_error = error
            self.failing = True
            # The failed write may have left a partial line behind;
            # remember to terminate it before the next append.
            self._dirty.add(source)
            handle = self._handles.pop(source, None)
            if handle is not None:
                try:
                    handle.close()
                except OSError:
                    pass
            if not parked:
                self._parked.append((source, entry))
            return False
        self.failing = False
        name = _name(entry)
        if name is not None:
            self._seen.add(name)       # only once durably on disk
        return True

    def _repair_tail(self, source: str) -> None:
        """Terminate a torn trailing line left by a failed append.

        The fragment plus the newline parses as no JSON at all, so
        loaders (ours and any consumer that skips unparsable lines)
        drop it — the payload it belonged to is still parked and will
        be rewritten whole.
        """
        path = self.path_for(source)
        try:
            with open(path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                if size == 0:
                    self._dirty.discard(source)
                    return
                handle.seek(size - 1)
                torn = handle.read(1) != b"\n"
            if torn:
                with open(path, "ab") as handle:
                    handle.write(b"\n")
                    handle.flush()
                    if self.fsync:
                        os.fsync(handle.fileno())
            self._dirty.discard(source)
        except OSError:
            pass                       # still failing; retry later

    def close(self) -> None:
        for handle in self._handles.values():
            try:
                handle.close()
            except OSError:
                pass
        self._handles.clear()


def _name(entry: PayloadLine) -> str | None:
    """The trace name dedupe keys on (None: not deduplicated)."""
    name = entry.fields.get("trace")
    return name if isinstance(name, str) else None

"""The batch journal: checkpoint/resume for interrupted corpus runs.

A corpus run over tens of thousands of traces will, sooner or later,
be interrupted — SIGINT, OOM-killer, power loss.  The journal makes
that a pause instead of a restart: as each item completes (healthy or
quarantined), its payloads are appended as one JSON line and flushed
to disk, so ``tcpanaly batch --resume`` replays completed items from
the journal and re-analyzes only the remainder.  The final JSONL is
byte-identical to an uninterrupted run's, because the journal stores
the exact payload lines and the pipeline's output ordering is by
trace name, not completion time.  An entry is assembled from the
lines the workers produced (:mod:`repro.pipeline.lines`), so
recording one encodes no payload.

Entries are keyed by item *name* and validated by content *digest*
(:func:`file_digest` for a batch pcap, :func:`trace_digest` for a
serve flow): a renamed or edited trace never reuses a stale entry, and
byte-identical traces under two names keep one entry each, because a
payload carries its trace's name and label.  A header line pins the
catalog version, payload schema, and eager/stream mode — a journal
written under any other configuration is discarded rather than
resumed, since its payloads would not match a fresh run.  The journal
is the one place ``batch`` and ``serve`` reuse results.

The file itself is crash-tolerant: each record is flushed and fsynced
as written, a torn trailing line (the write the crash interrupted) is
dropped on load, and resuming rewrites the journal compactly so
appends never land after a torn line.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.pipeline.lines import (
    PayloadLine,
    encode_payload,
    json_array,
    json_object,
)
from repro.tcp.catalog import catalog_version
from repro.trace.record import Trace

JOURNAL_FORMAT = 1

#: Version of the analysis payload schema.  Bump whenever the payload
#: shape or analysis semantics change (new fields, different scoring),
#: so stale entries from older code cannot be resumed.
ANALYSIS_SCHEMA_VERSION = 3


def file_digest(path: str | Path) -> str:
    """Content digest of a trace file on disk: batch's key for a pcap."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def trace_digest(trace: Trace) -> str:
    """Content digest of an in-memory trace: serve's key for a
    retired flow.

    Hashes every record field the analyzers consume, so two traces
    with identical records share a digest.  The fields are read from
    the trace's packet columns, so no record is built; each row hashes
    as the ``repr`` of its record's field tuple always did.
    """
    digest = hashlib.sha256()
    digest.update(trace.vantage.encode())
    packets = trace.packets()
    names = [str(endpoint) for endpoint in packets.endpoints]
    for row in zip(packets.timestamp.tolist(),
                   [names[i] for i in packets.src.tolist()],
                   [names[i] for i in packets.dst.tolist()],
                   packets.seq.tolist(), packets.ack.tolist(),
                   packets.flags.tolist(), packets.payload.tolist(),
                   packets.window.tolist(),
                   [None if mss < 0 else mss
                    for mss in packets.mss_option.tolist()],
                   packets.corrupted.tolist()):
        digest.update(repr(row).encode())
    return digest.hexdigest()


class BatchJournal:
    """Append-only journal of completed batch items.

    With ``resume=False`` any existing journal is truncated; with
    ``resume=True`` a compatible journal's entries become the resume
    set (and the file is rewritten compactly before appending).
    Entries recorded by this run go to disk only: a run looks each
    item up before analyzing it, never after, so keeping them would
    only grow a long-lived daemon's memory with every flow.
    """

    def __init__(self, path: str | Path, stream: bool = False,
                 resume: bool = False):
        self.path = Path(path)
        self.stream = stream
        self._completed: dict[str, tuple[str, list[PayloadLine]]] = {}
        if resume:
            self._load()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Rewrite rather than append: guarantees a valid header and no
        # torn trailing line underneath the entries we are keeping.
        self._handle = open(self.path, "w")
        self._write(json.dumps(self._header(), sort_keys=True))
        for name, (digest, lines) in self._completed.items():
            self._write(_entry(name, digest, lines))

    def _header(self) -> dict:
        return {"journal": JOURNAL_FORMAT,
                "catalog": catalog_version(),
                "schema": ANALYSIS_SCHEMA_VERSION,
                "stream": self.stream}

    def _load(self) -> None:
        try:
            text = self.path.read_text()
        except (OSError, UnicodeDecodeError):
            # Missing, unreadable, or binary garbage: nothing to resume.
            return
        lines = text.split("\n")
        if text and not text.endswith("\n"):
            lines = lines[:-1]  # torn trailing write: drop it
        entries = []
        for line in lines:
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # a torn or corrupted line loses one entry, not all
        if not entries or entries[0] != self._header():
            # Different catalog/schema/mode (or not a journal at all):
            # its payloads cannot be trusted for this run.
            return
        for entry in entries[1:]:
            if not isinstance(entry, dict):
                continue
            name, digest = entry.get("name"), entry.get("digest")
            payloads = entry.get("payloads")
            if isinstance(name, str) and isinstance(digest, str) \
                    and isinstance(payloads, list) \
                    and all(isinstance(p, dict) for p in payloads):
                # Resuming is rare: re-encoding here hands lookup's
                # callers the shape a worker's result has.
                self._completed[name] = (
                    digest, [encode_payload(p) for p in payloads])

    def _write(self, line: str) -> None:
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def __len__(self) -> int:
        return len(self._completed)

    def lookup(self, name: str, digest: str) -> list[PayloadLine] | None:
        """The resumed payload lines for *name*, if its content
        matches."""
        entry = self._completed.get(name)
        if entry is None or entry[0] != digest:
            return None
        return entry[1]

    def record(self, name: str, digest: str,
               lines: list[PayloadLine]) -> None:
        """Checkpoint one completed item (durable before returning)."""
        self._write(_entry(name, digest, lines))

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "BatchJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _entry(name: str, digest: str, lines: list[PayloadLine]) -> str:
    """One journal entry, byte-equal to ``json.dumps({"name": name,
    "digest": digest, "payloads": payloads}, sort_keys=True)``."""
    return json_object([("digest", json.dumps(digest)),
                        ("name", json.dumps(name)),
                        ("payloads", json_array(entry.line
                                                for entry in lines))])

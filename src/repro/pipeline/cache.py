"""On-disk result cache for the batch pipeline.

Each cached entry is the JSON payload produced for one trace (or, in
stream mode, the ``{"flows": [...]}`` document of a capture), keyed by
a digest of the trace *content* combined with the implementation
catalog's version digest.  Re-running a corpus therefore only analyzes
traces that are new or changed — and editing the catalog (the paper's
equivalent of teaching tcpanaly a new implementation) invalidates
every cached fit automatically, because the fits were computed against
the old candidate set.

Cache entries are plain ``<key>.json`` files: inspectable with any
JSON tool, safe to delete wholesale, and written atomically so a
killed run never leaves a half-written entry behind.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.tcp.catalog import catalog_version
from repro.trace.record import Trace

#: Version of the analysis payload schema.  Bump whenever the payload
#: shape or analysis semantics change (new fields, different scoring),
#: so stale entries from older code cannot be served as hits.
ANALYSIS_SCHEMA_VERSION = 3


def file_digest(path: str | Path) -> str:
    """Content digest of a trace file on disk."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def trace_digest(trace: Trace) -> str:
    """Content digest of an in-memory trace: serve's key for a
    retired flow.

    Hashes every record field the analyzers consume, so two traces
    with identical records share a digest.  Batch keys its pcap
    files by :func:`file_digest` instead.  The fields are read from
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


class ResultCache:
    """Maps a trace content digest to its cached analysis payload."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.catalog_version = catalog_version()

    def key(self, content_digest: str) -> str:
        """The full cache key: trace content, catalog, payload schema."""
        return hashlib.sha256(
            f"{content_digest}:{self.catalog_version}"
            f":s{ANALYSIS_SCHEMA_VERSION}".encode()).hexdigest()

    def _path(self, content_digest: str) -> Path:
        return self.root / f"{self.key(content_digest)}.json"

    def get(self, content_digest: str) -> dict | None:
        """The cached payload for *content_digest*, or None on a miss.

        A corrupt or unreadable entry counts as a miss: the trace is
        simply re-analyzed and the entry rewritten.
        """
        try:
            with open(self._path(content_digest)) as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def put(self, content_digest: str, text: str) -> None:
        """Store one entry's canonical JSON *text* atomically
        (write-then-rename).

        The text is written as it is: the batch runner assembles it
        from the workers' payload lines.  A failed write (a full disk)
        must not strand the scratch file: it is unlinked before the
        error propagates, so an aborted put leaves the cache directory
        exactly as it was.
        """
        path = self._path(content_digest)
        scratch = path.with_suffix(f".tmp{os.getpid()}")
        try:
            with open(scratch, "w") as handle:
                handle.write(text)
        except BaseException:
            scratch.unlink(missing_ok=True)
            raise
        os.replace(scratch, path)

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

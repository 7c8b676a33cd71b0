"""Deterministic fault injection for the batch pipeline.

The resilience layer's claims ("a crashed worker is requeued", "a hung
trace is killed and quarantined") are only testable if crashes and
hangs can be produced on demand, in the worker that owns the item, at
an exact point in the run.  A :class:`FaultPlan` is a picklable recipe
the pipeline threads into its workers: before an item is analyzed, the
plan is consulted and — if a spec matches the item's name (or its
dispatch index) and the current attempt number — the configured fault
fires.

Fault kinds:

``raise``
    Raise a named exception inside the analysis path — exercises the
    error-classification taxonomy (``KeyError`` → ``model``,
    ``OSError`` → ``io``, ...).
``hang``
    Sleep for ``hang_seconds`` before analyzing — drives the item past
    any per-trace timeout so the supervisor must kill the worker.
``kill``
    ``os._exit`` the worker process mid-item, bypassing all exception
    handling — the supervisor must notice the corpse, requeue the
    item, and quarantine it once the retry budget is spent.
``corrupt``
    Analyze a byte-corrupted *copy* of the item's capture file (the
    original is never touched) — a deterministic stand-in for the
    damaged traces a real packet-filter corpus is riddled with.

Every spec can be limited to specific attempt numbers via
``on_attempts``, so a test can, e.g., kill the first attempt and let
the retry succeed.  A string ``match`` may carry glob wildcards
(``bad.pcap#*``), so one spec can poison every flow of one serve
source.

Worker faults model *analysis* failures.  The serve daemon also needs
its *environment* to fail on cue — a disk that fills under the sink,
I/O that crawls under the tailer — which is what
:class:`ResourceFaultSpec` / :class:`ResourceFaultPlan` provide.
Resource faults are daemon-side (never pickled into workers), stateful
(they fire after a configured number of calls, for a configured
duration), and matched by source name with the same glob rules.
:func:`decode_storm_bytes` rounds out the kit with a valid-but-
worthless capture: a well-formed pcap whose every record fails to
decode, the classic garbage-spewing source.
"""

from __future__ import annotations

import errno
import fnmatch
import os
import struct
import tempfile
import time
from dataclasses import dataclass, field, replace

FAULT_KINDS = ("raise", "hang", "kill", "corrupt")

#: Exceptions a ``raise`` fault may name.  A fixed whitelist keeps the
#: plan picklable and the injection auditable.
RAISEABLE: dict[str, type[BaseException]] = {
    "RuntimeError": RuntimeError,
    "KeyError": KeyError,
    "IndexError": IndexError,
    "RecursionError": RecursionError,
    "MemoryError": MemoryError,
    "ZeroDivisionError": ZeroDivisionError,
    "OSError": OSError,
    "ValueError": ValueError,
    "struct.error": struct.error,
}


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: where it fires and what it does."""

    match: str | int            # item name, or dispatch index
    kind: str                   # one of FAULT_KINDS
    exception: str = "RuntimeError"   # for kind="raise" (see RAISEABLE)
    message: str = "injected fault"
    hang_seconds: float = 3600.0      # for kind="hang"
    exit_code: int = 9                # for kind="kill"
    corrupt_offset: int = 0           # for kind="corrupt"
    corrupt_bytes: bytes = b"\xde\xad\xbe\xef"
    on_attempts: tuple[int, ...] | None = None  # None: every attempt

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        if self.kind == "raise" and self.exception not in RAISEABLE:
            raise ValueError(f"unraiseable exception: {self.exception!r} "
                             f"(choose from {sorted(RAISEABLE)})")

    def fires(self, name: str, index: int, attempt: int) -> bool:
        if not _matches(self.match, name, index):
            return False
        return self.on_attempts is None or attempt in self.on_attempts


@dataclass(frozen=True)
class FaultPlan:
    """A picklable set of fault specs, applied inside pipeline workers."""

    specs: tuple[FaultSpec, ...] = ()

    def apply(self, item, index: int, attempt: int):
        """Fire every matching fault; return the (possibly substituted)
        item the worker should analyze.

        ``raise``/``hang``/``kill`` act immediately; ``corrupt``
        swaps the item for one pointing at a corrupted temp copy of
        its capture file.
        """
        for spec in self.specs:
            if not spec.fires(item.name, index, attempt):
                continue
            if spec.kind == "raise":
                raise RAISEABLE[spec.exception](spec.message)
            if spec.kind == "hang":
                time.sleep(spec.hang_seconds)
            elif spec.kind == "kill":
                os._exit(spec.exit_code)
            elif spec.kind == "corrupt":
                item = replace(item, path=_corrupted_copy(
                    item.path, spec.corrupt_offset, spec.corrupt_bytes))
        return item


def _matches(pattern: str | int, name: str, index: int) -> bool:
    """Spec matching: exact name, dispatch index, or name glob."""
    if pattern == name or pattern == index:
        return True
    if isinstance(pattern, str) and any(c in pattern for c in "*?["):
        return fnmatch.fnmatchcase(name, pattern)
    return False


RESOURCE_FAULT_KINDS = ("enospc", "slow-io")


@dataclass(frozen=True)
class ResourceFaultSpec:
    """One environmental fault: which calls it poisons, and how.

    ``match`` globs against the *source* name (``"*"`` hits every
    source).  The fault is armed after ``after_calls`` matching calls
    have gone through cleanly, then fires for ``duration_calls``
    calls (``None``: forever).  ``enospc`` raises ``OSError(ENOSPC)``
    from the hooked operation; ``slow-io`` sleeps ``delay_seconds``
    before letting it proceed.
    """

    kind: str
    match: str = "*"
    after_calls: int = 0
    duration_calls: int | None = None
    delay_seconds: float = 0.05

    def __post_init__(self):
        if self.kind not in RESOURCE_FAULT_KINDS:
            raise ValueError(f"unknown resource fault kind: {self.kind!r}")

    def active(self, calls_so_far: int) -> bool:
        if calls_so_far < self.after_calls:
            return False
        if self.duration_calls is None:
            return True
        return calls_so_far < self.after_calls + self.duration_calls


@dataclass
class ResourceFaultPlan:
    """Daemon-side environmental faults, keyed by hook point.

    The daemon threads :meth:`check_sink_write` under every sink
    append and :meth:`io_delay` ahead of every tailer poll.  Call
    counters are per ``(hook, source)``, so "the 3rd write to
    cap.pcap fails" is expressible and deterministic.
    """

    specs: tuple[ResourceFaultSpec, ...] = ()
    _calls: dict = field(default_factory=dict, repr=False)

    def _count(self, hook: str, source: str) -> int:
        key = (hook, source)
        calls = self._calls.get(key, 0)
        self._calls[key] = calls + 1
        return calls

    def check_sink_write(self, source: str) -> None:
        """Raise ``OSError(ENOSPC)`` when an armed ``enospc`` spec
        covers this sink write; otherwise let it through."""
        calls = self._count("sink", source)
        for spec in self.specs:
            if spec.kind != "enospc":
                continue
            if not _matches(spec.match, source, -1):
                continue
            if spec.active(calls):
                raise OSError(errno.ENOSPC, "injected: no space left "
                              f"on device (sink write for {source})")

    def io_delay(self, source: str) -> float:
        """Seconds a tailer poll of *source* must stall (0 = none)."""
        calls = self._count("io", source)
        delay = 0.0
        for spec in self.specs:
            if spec.kind != "slow-io":
                continue
            if not _matches(spec.match, source, -1):
                continue
            if spec.active(calls):
                delay = max(delay, spec.delay_seconds)
        return delay


def decode_storm_bytes(records: int = 64, seed: int = 0) -> bytes:
    """A well-formed pcap whose every record is undecodable garbage.

    The global header parses (little-endian, raw-IP link type), the
    per-record framing is intact, but each packet body is
    deterministic noise that fails IP/TCP decode — so a tailer
    ingests it happily while the decode-error counters spin.  The
    storm source for chaos tests: not quarantinable as "not a pcap",
    yet never yields a flow.
    """
    from repro.trace.pcap import pcap_chunks
    state = (seed * 2654435761 + 1) & 0xFFFFFFFF
    frames = []
    for index in range(records):
        payload = bytearray()
        for _ in range(40):
            state = (state * 1103515245 + 12345) & 0xFFFFFFFF
            payload.append(state >> 24)
        payload[0] = 0x00       # IP version nibble 0: never decodes
        frames.append((index, bytes(payload), None, None))
    return b"".join(pcap_chunks(frames, byte_order="little"))


def _corrupted_copy(path, offset: int, garbage: bytes):
    """Write a corrupted copy of *path* to a temp file, return its path.

    The corruption is deterministic (fixed offset, fixed bytes), so a
    corrupted item fails identically on every attempt and every run.
    """
    from pathlib import Path
    data = bytearray(Path(path).read_bytes())
    end = min(len(data), offset + len(garbage))
    data[offset:end] = garbage[:max(0, end - offset)]
    if not data:
        data = bytearray(garbage)
    handle, copy_path = tempfile.mkstemp(prefix="tcpanaly-fault-",
                                         suffix=".pcap")
    with os.fdopen(handle, "wb") as copy:
        copy.write(bytes(data))
    return Path(copy_path)

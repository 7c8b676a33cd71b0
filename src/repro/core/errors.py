"""The classified analysis-error taxonomy.

The paper's corpus ran to ~40,000 wild traces precisely because one
pathological trace never sank the run (Table 1, §4).  Everything the
pipeline can fail on is folded into one of five stable kinds, so a
quarantined trace carries a machine-readable reason instead of a bare
stringified exception:

``decode``
    The input was not an analyzable trace: bad pcap magic, truncated
    framing, malformed TCP, an empty capture.  Deterministic — the
    same bytes fail the same way, so these payloads are cacheable.
``io``
    The input could not be read at all: missing file, permission
    denied, a directory where a capture was expected.  Possibly
    transient, never cached.
``model``
    The trace decoded but the analysis model blew up on it — a
    ``KeyError``, ``RecursionError``, arithmetic surprise, or any
    other defect the wild trace tickled.  Deterministic for a given
    catalog, so cacheable, and the payload names the stage that died.
``timeout``
    The analysis exceeded its per-trace wall-clock budget and the
    supervisor killed it.
``crash``
    The worker process died outright (segfault, OOM-kill, injected
    ``os._exit``) and the retry budget ran out.
``cancelled``
    The work was withdrawn before analysis — the serve daemon pulled
    queued flows of a circuit-breaker-quarantined source back out of
    the pool.  Always transient: never journaled, never sunk, so a
    restart (or a recovered source) re-analyzes from scratch.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager

#: Every kind a quarantined payload's ``error_kind`` may carry.
ERROR_KINDS = ("decode", "io", "model", "timeout", "crash", "cancelled")

#: Kinds that may be transient, or depend on one run's timeout budget:
#: never cached or journaled, so the next run (or a restarted daemon)
#: retries them.
TRANSIENT_KINDS = frozenset({"io", "timeout", "crash", "cancelled"})


def is_durable(payloads: list[dict]) -> bool:
    """True when no payload carries a transient ``error_kind``: the
    one rule for whether a result may be cached or journaled."""
    return all(payload.get("error_kind") not in TRANSIENT_KINDS
               for payload in payloads)


class AnalysisError(Exception):
    """A classified per-trace analysis failure.

    ``kind`` is one of :data:`ERROR_KINDS`; ``stage`` optionally names
    the analysis stage that raised (see :func:`stage`).
    """

    def __init__(self, kind: str, message: str, stage: str | None = None):
        if kind not in ERROR_KINDS:
            raise ValueError(f"unknown error kind: {kind!r}")
        super().__init__(message)
        self.kind = kind
        self.stage = stage

    @property
    def message(self) -> str:
        return self.args[0]

    def to_fields(self) -> dict:
        """The JSONL-payload fields for this failure."""
        fields = {"error": self.message, "error_kind": self.kind}
        if self.stage is not None:
            fields["error_stage"] = self.stage
        return fields


@contextmanager
def stage(name: str):
    """Tag any exception escaping the block with analysis stage *name*.

    The exception still propagates.  The first (innermost) tag wins;
    re-raising through outer stages must not relabel the failure.
    """
    try:
        yield
    except Exception as error:
        if getattr(error, "analysis_stage", None) is None:
            error.analysis_stage = name
        raise


def classify_exception(error: BaseException) -> AnalysisError:
    """Fold any exception into the taxonomy.

    ``ValueError`` (including ``PacketDecodeError``, ``TraceUnusable``,
    and ``struct.error``) means the bytes were not an analyzable
    trace; ``OSError`` means they could not be read; everything else
    is a defect in the analysis model itself.  ``timeout`` and
    ``crash`` never arrive as exceptions — the supervisor assigns them
    from outside the worker.
    """
    if isinstance(error, AnalysisError):
        return error
    stage = getattr(error, "analysis_stage", None)
    if isinstance(error, (ValueError, struct.error)):
        return AnalysisError("decode", str(error), stage=stage)
    if isinstance(error, OSError):
        return AnalysisError("io", str(error), stage=stage)
    return AnalysisError("model", f"{type(error).__name__}: {error}",
                         stage=stage)

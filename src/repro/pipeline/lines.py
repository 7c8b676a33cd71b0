"""Payload lines: one analysis result as it crosses the process boundary.

A worker serializes each payload it produces exactly once, into its
canonical JSONL line (``json.dumps(payload, sort_keys=True)``), and
ships the line together with the few fields the parent reads
(:func:`parent_fields`).  The parent then only moves bytes: the JSONL
file, the batch journal and the serve sink are all assembled from
lines by concatenation (:func:`json_object`), which is byte-equal to
encoding the whole object, and the aggregate report, serve metrics and
durability checks read the fields.  The parent encodes only payloads
it creates itself (pool crash and timeout diagnoses, upfront
quarantines) and those it replays from a resumed journal.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple

#: Top-level payload keys the parent reads whole: the trace name and
#: label, the quarantine fields, the calibration tallies and the
#: capture's ingest block.
_WHOLE = ("trace", "implementation", "error", "error_kind",
          "calibration", "ingest")


class PayloadLine(NamedTuple):
    """One payload, encoded: its canonical line and its parent fields."""

    line: str
    fields: dict

    @property
    def trace(self) -> str:
        return self.fields["trace"]


def parent_fields(payload: dict) -> dict:
    """The part of *payload* the parent process reads.

    Same keys and nesting as the payload, restricted to what
    ``aggregate_report``, ``ServeMetrics.observe_payload``,
    ``is_durable`` and the sink's dedupe read: the :data:`_WHOLE`
    keys, the sender identification's best fit, and the receiver
    identification's close set and first fit.
    """
    fields = {key: payload[key] for key in _WHOLE if key in payload}
    if "identification" in payload:
        identification = payload["identification"]
        fields["identification"] = identification and {
            "best": identification.get("best"),
            "best_category": identification.get("best_category")}
    if "receiver_identification" in payload:
        receiver = payload["receiver_identification"]
        fits = receiver and (receiver.get("fits") or [])
        fields["receiver_identification"] = receiver and {
            "close": receiver.get("close"),
            "fits": [{"implementation": fits[0].get("implementation"),
                      "category": fits[0].get("category")}] if fits else []}
    return fields


def encode_payload(payload: dict) -> PayloadLine:
    """*payload*'s canonical line and parent fields: the one encoder."""
    return PayloadLine(json.dumps(payload, sort_keys=True),
                       parent_fields(payload))


def json_array(texts: Iterable[str]) -> str:
    """The JSON array of already-encoded *texts*, byte-equal to
    ``json.dumps`` of the decoded list."""
    return "[" + ", ".join(texts) + "]"


def json_object(members: Iterable[tuple[str, str]]) -> str:
    """The JSON object of ``(key, encoded value)`` *members*.

    Byte-equal to ``json.dumps(obj, sort_keys=True)`` of the decoded
    object: the members are sorted by key and joined with the
    encoder's default separators.
    """
    return "{" + ", ".join(f"{json.dumps(key)}: {text}"
                           for key, text in sorted(members)) + "}"

"""Batch results: JSONL output and the Table-1-style aggregate.

``write_jsonl`` emits one sorted, key-sorted JSON object per trace —
the stable machine-readable interface downstream tooling scripts
against.  ``aggregate_report`` condenses a batch into the shape of
the paper's corpus summary: per-implementation trace counts, a
confusion matrix of ground truth against best fit, identification
accuracy, measurement-error detections, and throughput.  Neither
encodes nor parses a payload: the lines come from the workers, and
the aggregate reads each result's parent fields.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from repro.pipeline.runner import BatchResult, TraceResult


def result_line(result: TraceResult) -> str:
    """One trace's canonical JSONL line (no trailing newline)."""
    return result.line


def write_jsonl(results: list[TraceResult], path: str | Path) -> None:
    """Write per-trace results as JSON Lines.

    Lines are ordered by trace name and keys are sorted, so any two
    runs over the same corpus and catalog produce byte-identical
    files regardless of job count or resumption.
    """
    with open(path, "w") as handle:
        handle.writelines(f"{result.line}\n" for result in results)


def _best_fit(payload: dict) -> tuple[str | None, str | None]:
    """(best implementation, category) for either trace side."""
    identification = payload.get("identification")
    if identification is not None:
        return identification.get("best"), identification.get("best_category")
    receiver = payload.get("receiver_identification")
    if receiver is not None:
        fits = receiver.get("fits") or []
        if fits:
            return fits[0].get("implementation"), fits[0].get("category")
    return None, None


def _truth_identified(payload: dict) -> bool:
    """Did the close-fit set contain the ground-truth implementation?

    Mirrors the paper's reading of fit quality: sender-side analysis
    names a single best fit; receiver-side acking policy can only
    narrow to a family, so containment in the close set is the win.
    """
    truth = payload.get("implementation")
    if truth is None:
        return False
    identification = payload.get("identification")
    if identification is not None:
        return identification.get("best") == truth \
            and identification.get("best_category") == "close"
    receiver = payload.get("receiver_identification")
    if receiver is not None:
        return truth in (receiver.get("close") or [])
    return False


def aggregate_report(batch: BatchResult) -> str:
    """Render the Table-1-style aggregate for one batch run."""
    all_payloads = [result.fields for result in batch.results]
    failed = [p for p in all_payloads if "error" in p]
    payloads = [p for p in all_payloads if "error" not in p]
    senders = [p for p in payloads if "identification" in p]
    receivers = [p for p in payloads if "receiver_identification" in p]

    lines = ["==== batch aggregate ===="]
    lines.append(f"traces analyzed: {len(payloads)} "
                 f"({len(senders)} sender-side, "
                 f"{len(receivers)} receiver-side)")
    if failed:
        lines.append(f"unanalyzable traces: {len(failed)}")
        for payload in failed:
            kind = payload.get("error_kind")
            tag = f"[{kind}] " if kind else ""
            lines.append(f"  {payload['trace']}: {tag}{payload['error']}")
        kinds = Counter(p.get("error_kind", "unclassified")
                        for p in failed)
        lines.append("  quarantined by kind: "
                     + ", ".join(f"{kind} {count}" for kind, count
                                 in sorted(kinds.items())))

    # Per-implementation corpus counts, Table-1 style.
    by_truth = Counter(p["implementation"] for p in payloads
                       if p.get("implementation"))
    if by_truth:
        lines.append("")
        lines.append(f"{'Implementation':16s} {'# Traces':>9s} "
                     f"{'Identified':>11s}")
        for label in sorted(by_truth):
            identified = sum(_truth_identified(p) for p in payloads
                             if p.get("implementation") == label)
            lines.append(f"{label:16s} {by_truth[label]:9d} "
                         f"{identified:11d}")

    # Sender-side confusion: ground truth vs. best fit.
    confusion: dict[str, Counter] = {}
    for payload in senders:
        truth = payload.get("implementation")
        if truth is None:
            continue
        best, _category = _best_fit(payload)
        confusion.setdefault(truth, Counter())[best or "(none)"] += 1
    if confusion:
        lines.append("")
        lines.append("sender-side confusion (truth -> best fit):")
        correct = total = 0
        for truth in sorted(confusion):
            row = confusion[truth]
            cells = ", ".join(f"{fit}×{count}" for fit, count
                              in sorted(row.items(),
                                        key=lambda kv: (-kv[1], kv[0])))
            lines.append(f"  {truth:16s} -> {cells}")
            correct += row[truth]
            total += sum(row.values())
        lines.append(f"  best-fit accuracy: {correct}/{total} "
                     f"({100.0 * correct / total:.1f}%)")

    if receivers:
        contained = sum(_truth_identified(p) for p in receivers
                        if p.get("implementation"))
        known = sum(1 for p in receivers if p.get("implementation"))
        if known:
            lines.append(f"receiver close-set contains truth: "
                         f"{contained}/{known} "
                         f"({100.0 * contained / known:.1f}%)")

    # Measurement-error detection counts (§3's whole point).
    unclean = [p for p in payloads if not p["calibration"]["clean"]]
    lines.append("")
    lines.append(f"measurement errors detected: {len(unclean)} trace(s)")
    for kind in ("drop_evidence", "duplicates", "resequencing",
                 "time_travel"):
        count = sum(p["calibration"][kind] for p in payloads)
        if count:
            lines.append(f"  {kind}: {count} finding(s)")

    # Streaming-ingest accounting: one entry per source capture (every
    # per-flow payload of a capture carries the same ingest dict).
    ingest_by_capture: dict[str, dict] = {}
    for payload in all_payloads:
        ingest = payload.get("ingest")
        if ingest:
            ingest_by_capture.setdefault(payload["trace"].split("#")[0],
                                         ingest)
    if ingest_by_capture:
        stats = list(ingest_by_capture.values())
        def total(key):
            return sum(s.get(key, 0) for s in stats)
        lines.append("")
        lines.append(f"streaming ingest ({len(stats)} capture(s)):")
        lines.append(f"  packets {total('packets_seen')}, "
                     f"decoded {total('records_decoded')}, "
                     f"non-TCP {total('non_tcp_packets')}, "
                     f"errors {total('decode_errors')}, "
                     f"truncated {total('truncated_records')}")
        lines.append(f"  flows opened {total('flows_opened')}, "
                     f"retired {total('flows_retired')}, "
                     f"evicted {total('flows_evicted')}, "
                     f"orphan packets {total('orphan_packets')}, "
                     f"peak live "
                     f"{max(s.get('peak_live_flows', 0) for s in stats)}")

    lines.append("")
    footer = f"jobs: {batch.jobs}; analyzed {batch.analyzed} item(s)"
    if batch.resumed:
        footer += f"; resumed {batch.resumed} item(s) from journal"
    lines.append(footer)
    lines.append(f"wall clock: {batch.wall_time:.2f}s "
                 f"({batch.throughput:.1f} traces/sec)")
    return "\n".join(lines)

#!/usr/bin/env python3
"""Cross-run regression diff for BENCH_*.json result files.

Compares two benchmark result files (or two directories of them,
matched by filename) metric by metric, so CI can track perf trends
PR-over-PR instead of eyeballing JSON diffs:

    python scripts/bench_diff.py old/BENCH_identification.json \
                                 new/BENCH_identification.json
    python scripts/bench_diff.py old-results/ new-results/ --tolerance 0.25

Metric direction is inferred from the key name: wall-clock seconds
(``*_s``) want to go down; throughputs and speedups (``*_per_s``,
``*speedup*``, ``*rate*``) want to go up; anything else (sizes, counts,
gates) is informational and never fails the diff.  A metric that moved
in the bad direction by more than ``--tolerance`` (relative) is a
regression; with ``--strict`` regressions set a nonzero exit code,
otherwise the diff is purely informational — benchmark numbers from
shared CI runners are noisy, so the strict gate is opt-in.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

LOWER_IS_BETTER = ("_s",)
HIGHER_IS_BETTER = ("_per_s", "speedup", "rate")


def flatten(payload, prefix: str = "") -> dict:
    """Nested dicts to dotted keys; keep only numeric leaves."""
    flat: dict = {}
    for key, value in payload.items():
        dotted = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(flatten(value, dotted))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[dotted] = float(value)
    return flat


def direction(key: str) -> int:
    """+1 higher-is-better, -1 lower-is-better, 0 informational."""
    leaf = key.rsplit(".", 1)[-1]
    if any(marker in leaf for marker in HIGHER_IS_BETTER):
        return 1
    if leaf.endswith(LOWER_IS_BETTER):
        return -1
    return 0


def diff_payloads(old: dict, new: dict, tolerance: float,
                  name: str = "") -> tuple[list[str], int]:
    """Render one file's comparison; return (lines, regression count)."""
    flat_old, flat_new = flatten(old), flatten(new)
    lines = []
    if name:
        lines.append(f"== {name} ==")
    regressions = 0
    for key in sorted(set(flat_old) | set(flat_new)):
        if key not in flat_old:
            lines.append(f"  {key:55s} (new metric: {flat_new[key]:g})")
            continue
        if key not in flat_new:
            lines.append(f"  {key:55s} (metric removed; was "
                         f"{flat_old[key]:g})")
            continue
        before, after = flat_old[key], flat_new[key]
        if before == after:
            continue
        delta = (after - before) / abs(before) if before else float("inf")
        better = direction(key)
        verdict = ""
        if better and abs(delta) > tolerance:
            if delta * better > 0:
                verdict = "IMPROVED"
            else:
                verdict = "REGRESSED"
                regressions += 1
        lines.append(f"  {key:55s} {before:>12g} -> {after:>12g}  "
                     f"({delta:+.1%}) {verdict}")
    if len(lines) <= (1 if name else 0):
        lines.append("  no metric changes")
    return lines, regressions


def pair_up(old_path: Path, new_path: Path) -> list[tuple[str, Path, Path]]:
    """Resolve file/file or directory/directory inputs into pairs."""
    if old_path.is_dir() != new_path.is_dir():
        raise SystemExit("bench_diff: OLD and NEW must both be files "
                         "or both be directories")
    if not old_path.is_dir():
        return [(new_path.name, old_path, new_path)]
    pairs = []
    for new_file in sorted(new_path.glob("BENCH_*.json")):
        old_file = old_path / new_file.name
        if old_file.exists():
            pairs.append((new_file.name, old_file, new_file))
    if not pairs:
        raise SystemExit(f"bench_diff: no matching BENCH_*.json files "
                         f"between {old_path} and {new_path}")
    return pairs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff BENCH_*.json benchmark results across runs.")
    parser.add_argument("old", type=Path,
                        help="baseline result file or directory")
    parser.add_argument("new", type=Path,
                        help="candidate result file or directory")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="relative change treated as noise "
                             "(default 0.15 = 15%%)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any metric regressed beyond "
                             "the tolerance")
    args = parser.parse_args(argv)
    for path in (args.old, args.new):
        if not path.exists():
            print(f"bench_diff: no such file: {path}", file=sys.stderr)
            return 2

    total_regressions = 0
    for name, old_file, new_file in pair_up(args.old, args.new):
        with open(old_file) as handle:
            old = json.load(handle)
        with open(new_file) as handle:
            new = json.load(handle)
        lines, regressions = diff_payloads(old, new, args.tolerance, name)
        total_regressions += regressions
        print("\n".join(lines))
    if total_regressions:
        print(f"{total_regressions} metric(s) regressed beyond "
              f"{args.tolerance:.0%}")
        return 1 if args.strict else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())

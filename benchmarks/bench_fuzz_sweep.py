"""Corpus of horrors — the adversarial fuzz sweep as a standing gate.

tcpanaly's headline robustness claim (§3, §7) is not "it analyzes
clean traces" but "it survived every pathological capture in the wild
corpus": filter drops and duplicates, reordering-heavy paths,
middlebox-mangled headers, torn files.  This benchmark regenerates a
synthetic corpus of exactly such horrors — seeded, so every run sees
the same adversity — and requires the full pipeline to hold the line
on each one: identify the true implementation, refuse honestly,
or quarantine with a *classified* error.  An exception escaping the
pipeline or a confident misidentification on a calibration-clean
trace fails the sweep (and the build).

``TCPANALY_FUZZ_COUNT`` / ``TCPANALY_FUZZ_SEED`` reduce or reseed the
sweep for CI smoke runs; ``TCPANALY_FUZZ_REPRODUCERS`` names a
directory where minimized failure reproducers are written (archived
as CI artifacts on failure).
"""

import os

from repro.fuzz import run_sweep

from benchmarks.conftest import emit

COUNT = int(os.environ.get("TCPANALY_FUZZ_COUNT", "200"))
BASE_SEED = int(os.environ.get("TCPANALY_FUZZ_SEED", "0"))
REPRODUCER_DIR = os.environ.get("TCPANALY_FUZZ_REPRODUCERS",
                                "fuzz-reproducers")


def run_the_sweep():
    return run_sweep(base_seed=BASE_SEED, count=COUNT,
                     reproducer_dir=REPRODUCER_DIR)


def test_corpus_of_horrors_holds_the_line():
    report = run_the_sweep()

    lines = [f"{'outcome':>24s} {'scenarios':>10s}"]
    for outcome, tally in sorted(report.outcomes.items()):
        lines.append(f"{outcome:>24s} {tally:10d}")
    lines.append(f"{'total':>24s} {report.count:10d}")
    if report.failures:
        lines.append("")
        for failure in report.failures:
            lines.append(f"FAIL seed={failure.plan.seed} "
                         f"{failure.outcome}: {failure.detail}")
            lines.append(f"     {failure.plan.describe()}")
        lines.append(f"minimized reproducers: {REPRODUCER_DIR}/")
    emit(f"Adversarial fuzz sweep ({COUNT} scenarios, "
         f"base seed {BASE_SEED})", lines)

    assert report.passed, (
        f"{len(report.failures)} fuzzer-found bug(s); reproducers "
        f"written to {REPRODUCER_DIR}/ — rerun any one with "
        f"`tcpanaly fuzz --seed <seed> --count 1 --verbose`")
    # The sweep must actually exercise the pipeline, not vacuously
    # pass because every scenario collapsed into discarded packets.
    identified = report.outcomes.get("identified", 0)
    assert identified >= COUNT // 4, report.outcomes

"""P2 — fault-tolerant pipeline: supervised equivalence and chaos survival.

The paper's corpus study only worked because tcpanaly survived every
pathological trace in ~40,000 wild captures; a single hang or crash
restarting a multi-day run would have sunk it.  This benchmark proves
that resilience under fire:

1. **Supervised equivalence** — the same healthy corpus analyzed by
   the plain in-process path (``jobs=1``) and by the supervised worker
   pool, asserting byte-identical results.

2. **Chaos survival** — the supervised run repeated with the
   fault-injection harness killing one worker, hanging one trace past
   the timeout, and corrupting two inputs, asserting the run completes
   with exactly the injected failures quarantined (and every healthy
   trace untouched, byte for byte).

``TCPANALY_BENCH_TRACES`` / ``TCPANALY_BENCH_SIZE`` shrink the corpus
for CI smoke runs.
"""

import os

from repro.harness.corpus import write_corpus
from repro.harness.faults import FaultPlan, FaultSpec
from repro.pipeline import corpus_items, result_line, run_batch
from repro.tcp.catalog import CORE_STUDY

from benchmarks.conftest import emit

JOBS = 4
PAIRS = int(os.environ.get("TCPANALY_BENCH_TRACES", "2"))
DATA_SIZE = int(os.environ.get("TCPANALY_BENCH_SIZE", "20480"))
IMPLEMENTATIONS = CORE_STUDY[:10]


def run_all(corpus_dir):
    write_corpus(corpus_dir, implementations=IMPLEMENTATIONS,
                 traces_per_implementation=PAIRS, data_size=DATA_SIZE)
    items = corpus_items(corpus_dir)
    baseline = run_batch(items, jobs=1)
    supervised = run_batch(items, jobs=JOBS, timeout=120.0)

    victims = {
        "crash": items[1].name,
        "timeout": items[len(items) // 3].name,
        "decode-a": items[len(items) // 2].name,
        "decode-b": items[-2].name,
    }
    plan = FaultPlan(specs=(
        FaultSpec(match=victims["crash"], kind="kill"),
        FaultSpec(match=victims["timeout"], kind="hang",
                  hang_seconds=300.0),
        FaultSpec(match=victims["decode-a"], kind="corrupt"),
        FaultSpec(match=victims["decode-b"], kind="corrupt",
                  corrupt_bytes=b"\x00\x00\x00\x00"),
    ))
    chaos = run_batch(items, jobs=JOBS, timeout=2.0, retries=1,
                      fault_plan=plan)
    return baseline, supervised, chaos, victims


def test_resilience_equivalence_and_chaos_survival(tmp_path):
    baseline, supervised, chaos, victims = run_all(tmp_path / "corpus")

    emit(f"Fault-tolerant pipeline ({len(baseline.results)}-trace corpus)", [
        f"{'mode':>12s} {'jobs':>5s}",
        f"{'in-process':>12s} {baseline.jobs:5d}",
        f"{'supervised':>12s} {supervised.jobs:5d}",
        f"{'chaos':>12s} {chaos.jobs:5d}",
        f"chaos quarantined: 1 crash, 1 timeout, 2 decode "
        f"out of {len(chaos.results)} traces",
    ])

    # Supervision changes nothing about the results themselves.
    assert [result_line(r) for r in supervised.results] \
        == [result_line(r) for r in baseline.results]

    # Chaos: the run completed, every item accounted for exactly once,
    # exactly the injected failures quarantined with the right kinds.
    assert sorted(r.name for r in chaos.results) \
        == sorted(r.name for r in baseline.results)
    quarantined = {r.name: r.payload["error_kind"]
                   for r in chaos.results if "error" in r.payload}
    assert quarantined == {
        victims["crash"]: "crash",
        victims["timeout"]: "timeout",
        victims["decode-a"]: "decode",
        victims["decode-b"]: "decode",
    }

    # And every healthy trace is byte-identical to the fault-free run.
    clean = {r.name: result_line(r) for r in baseline.results}
    for result in chaos.results:
        if result.name not in quarantined:
            assert result_line(result) == clean[result.name]

"""T1 — Table 1: the implementation corpus.

The paper's Table 1 lists, per implementation, the number of traces of
that TCP sending and receiving bulk transfers.  We regenerate the
table from a synthetic corpus: per implementation, a set of 100 KB
transfers across the scenario rotation, each yielding one sender-side
and one receiver-side trace — and assert every transfer completed and
produced analyzable traces.

(The paper's counts — 20,034 sender / 20,043 receiver traces — came
from years of measurement; the corpus generator scales to that size,
but the bench keeps it small enough to run in seconds.)
"""

from repro.harness.corpus import corpus_summary, generate_corpus
from repro.tcp.catalog import CORE_STUDY, CATALOG

from benchmarks.conftest import emit

TRACES_PER_IMPLEMENTATION = 3


def build_corpus():
    entries = list(generate_corpus(
        CORE_STUDY, traces_per_implementation=TRACES_PER_IMPLEMENTATION,
        data_size=51200))
    return entries, corpus_summary(entries)


def test_table1_corpus():
    entries, summary = build_corpus()

    lines = [f"{'Implementation':16s} {'# Sender':>9s} {'# Receiver':>11s} "
             f"{'Lineage':>8s}"]
    sender_total = receiver_total = 0
    for implementation in CORE_STUDY:
        stats = summary[implementation]
        senders = int(stats["traces"])
        receivers = int(stats["traces"])
        sender_total += senders
        receiver_total += receivers
        lineage = CATALOG[implementation].lineage.value
        lines.append(f"{implementation:16s} {senders:9d} {receivers:11d} "
                     f"{lineage:>8s}")
    lines.append(f"{'Total':16s} {sender_total:9d} {receiver_total:11d}")
    emit("Table 1: TCP implementations studied (synthetic corpus)", lines)

    # Shape: every implementation contributes, and every transfer
    # completed, so each trace is usable for the rest of the study.
    assert set(summary) == set(CORE_STUDY)
    for implementation in CORE_STUDY:
        assert summary[implementation]["completed"] \
            == TRACES_PER_IMPLEMENTATION

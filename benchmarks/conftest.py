"""Benchmark harness configuration.

Each benchmark module regenerates one of the paper's tables, figures,
or quantitative claims (see DESIGN.md's experiment index).  Each test
runs its kernel once (simulations are deterministic; there is no
statistical noise to average away), asserts the reproduced shape, and
prints the reproduced artifact, so running with ``-s`` shows the
regenerated table or figure next to the paper's expectation.  Nothing
here measures speed: throughput and per-layer timings come from
``perfbench/``.
"""

from __future__ import annotations


def emit(title: str, lines) -> None:
    """Print a reproduced artifact in a recognizable block."""
    print()
    print(f"==== {title} ====")
    for line in lines:
        print(line)

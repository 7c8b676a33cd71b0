"""Whole-pipeline equivalence: column kernels vs their scalar oracles.

The column kernels (:mod:`repro.trace.columns` and the numpy passes
built on it) are a performance device, never a behavioral variant:
every analysis result must be byte-identical to what the per-record
loops they replaced compute.  These tests drive the same traces
through production and through *oracle mode*
(:func:`tests.core.kernel_oracles.oracle_mode`: every kernel swapped
for its loop, every calibration screen bypassed) and compare full
``TraceReport.to_dict()`` payloads (serialized with sorted keys, so
any divergence — a missing drop-evidence item, a different quarantine
kind, a reordered fit — fails loudly).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capture.clock import SteppingClock
from repro.capture.errors import (
    DropInjector,
    DuplicationInjector,
    ResequencingInjector,
)
from repro.capture.filter import PacketFilter
from repro.core.report import analyze_trace
from repro.fuzz import iter_plans, run_scenario
from repro.harness.scenarios import traced_transfer
from repro.tcp.catalog import get_behavior

from tests.core.kernel_oracles import (
    KERNELS,
    SCREENS,
    kernel_references,
    oracle_mode,
)

#: (implementation, scenario, size, seed[, "defective"]).  Defective
#: cases record through flawed filters, so every calibration check has
#: evidence that a wrong screen or kernel would lose.
GOLDEN_CASES = [
    ("reno", "wan", 20480, 0),
    ("tahoe", "wan-lossy", 20480, 1),
    ("net3", "lan", 10240, 0),
    ("reno", "wan-lossy", 20480, 2, "defective"),
    ("tahoe", "wan", 20480, 3, "defective"),
]


def production_and_oracle(function):
    """Run *function* in production, then again in oracle mode."""
    production = function()
    with pytest.MonkeyPatch.context() as patch:
        oracle_mode(patch)
        oracle = function()
    return production, oracle


def defective_filters(seed):
    """Filters that drop records at both ends, double-copy and step the
    clock back at the sender, and resequence at the receiver."""
    return {
        "sender_filter": PacketFilter(
            vantage="sender", drops=DropInjector(rate=0.03, seed=seed),
            duplication=DuplicationInjector(),
            clock=SteppingClock(steps=[(0.5, -0.05)])),
        "receiver_filter": PacketFilter(
            vantage="receiver", drops=DropInjector(rate=0.03, seed=seed + 1),
            resequencing=ResequencingInjector(seed=seed)),
    }


def report_dict(label, scenario, size, seed, identify, defective=False):
    """Build the transfer and analyze both of its traces.

    The transfer is rebuilt from scratch so pass one, calibration and
    identification never reuse a trace (or its cached columns) from
    the other run.  The receiver-side trace brings in receiver pass
    one and the receiver-vantage screens.
    """
    behavior = get_behavior(label)
    filters = defective_filters(seed) if defective else {}
    transfer = traced_transfer(behavior, scenario, data_size=size,
                               seed=seed, **filters)
    reports = [
        analyze_trace(transfer.sender_trace, behavior,
                      peer_trace=transfer.receiver_trace,
                      identify=identify),
        analyze_trace(transfer.receiver_trace, behavior,
                      identify=identify),
    ]
    return json.dumps([report.to_dict() for report in reports],
                      sort_keys=True)


@pytest.mark.parametrize("case", GOLDEN_CASES,
                         ids=["-".join(str(part) for part in c)
                              for c in GOLDEN_CASES])
def test_golden_trace_reports_identical(case):
    label, scenario, size, seed, *defective = case
    identify = label == "reno"  # full identification on reno cases only
    production, oracle = production_and_oracle(
        lambda: report_dict(label, scenario, size, seed, identify,
                            defective=bool(defective)))
    assert production == oracle


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_random_transfer_reports_identical(seed):
    case = ("reno", "wan-lossy", 10240, seed)
    production, oracle = production_and_oracle(
        lambda: report_dict(*case, False))
    assert production == oracle


def test_fuzz_scenarios_identical():
    """Adversarial inputs (incl. quarantined:<kind> outcomes) agree."""

    def sweep():
        results = []
        for plan in iter_plans(base_seed=1789, count=12):
            outcome = run_scenario(plan)
            results.append((outcome.outcome, outcome.detail,
                            outcome.truth_key,
                            outcome.truth_implementation))
        return results

    production, oracle = production_and_oracle(sweep)
    assert production == oracle


def test_backends_actually_differ(monkeypatch):
    """Guard: oracle mode leaves no production kernel reachable and
    bypasses every screen, so the comparisons above compare two
    distinct code paths."""
    assert {module for module, _ in kernel_references()} >= {
        kernel.__module__ for kernel in KERNELS}
    assert len(SCREENS) == 8
    bypassed = oracle_mode(monkeypatch)
    assert kernel_references() == []
    report_dict("reno", "wan-lossy", 20480, 2, False, defective=True)
    assert set(bypassed) == {name for _, name in SCREENS}

"""Shared fixtures: cached simulated transfers.

Simulations are deterministic, so transfers are memoized per
(implementation, scenario, size, seed) and shared across the whole
test session — tests ask for what they need via ``transfer_factory``
and pay the simulation cost once.
"""

from __future__ import annotations

import pytest

from repro.harness.scenarios import TracedTransfer, traced_transfer
from repro.tcp.catalog import get_behavior

_cache: dict[tuple, TracedTransfer] = {}


def cached_transfer(implementation: str, scenario: str = "wan",
                    data_size: int = 51200, seed: int = 0,
                    **kwargs) -> TracedTransfer:
    """A memoized traced transfer (do not mutate the result)."""
    key = (implementation, scenario, data_size, seed,
           tuple(sorted(kwargs.items())))
    if key not in _cache:
        _cache[key] = traced_transfer(get_behavior(implementation),
                                      scenario, data_size=data_size,
                                      seed=seed, **kwargs)
    return _cache[key]


@pytest.fixture
def transfer_factory():
    """Factory fixture: ``transfer_factory("reno", scenario="wan-lossy")``."""
    return cached_transfer


@pytest.fixture
def reno_wan(transfer_factory) -> TracedTransfer:
    """The canonical clean transfer: Reno over the WAN path."""
    return transfer_factory("reno", "wan")


@pytest.fixture
def reno_lossy(transfer_factory) -> TracedTransfer:
    """Reno over the lossy WAN path (has retransmissions)."""
    return transfer_factory("reno", "wan-lossy", seed=3)


@pytest.fixture
def record_builds(monkeypatch) -> list:
    """Counts ``TraceRecord`` constructions in this process from here
    on: one entry per record built."""
    from repro.trace.record import TraceRecord

    built = []
    init = TraceRecord.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TraceRecord, "__init__", counting)
    return built

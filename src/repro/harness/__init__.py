"""Experiment infrastructure: scenarios and trace-corpus generation.

The re-exports below load on first use (PEP 562), so importing one
submodule — ``repro.harness.scenarios`` for ``SCENARIOS``, say — does
not pull in the simulator behind the others.
"""

import importlib

#: Re-exported name -> the submodule that defines it.
_EXPORTS = {
    "SCENARIOS": "scenarios",
    "Scenario": "scenarios",
    "traced_transfer": "scenarios",
    "TracedTransfer": "scenarios",
    "generate_corpus": "corpus",
    "CorpusEntry": "corpus",
    "Arrival": "probing",
    "drive_receiver": "probing",
    "probe_hole_fill": "probing",
    "FAULT_KINDS": "faults",
    "FaultPlan": "faults",
    "FaultSpec": "faults",
    "RESOURCE_FAULT_KINDS": "faults",
    "ResourceFaultPlan": "faults",
    "ResourceFaultSpec": "faults",
    "decode_storm_bytes": "faults",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)

"""tcpanaly: the trace analyzer (the paper's contribution).

Public surface:

* :func:`repro.core.sender.analyzer.analyze_sender` — sender-behavior
  analysis of one trace against one candidate implementation (§6).
* :func:`repro.core.receiver.analyzer.analyze_receiver` — receiver
  (acking-policy) analysis (§7, §9).
* :func:`repro.core.fit.identify_implementation` — run every catalog
  implementation against a trace and sort into close / imperfect /
  clearly-incorrect fits (§5, §6.1).
* :mod:`repro.core.calibrate` — packet-filter measurement-error
  detection (§3): drops, additions, resequencing, timing.

The names below load on first use (PEP 562), so importing one
submodule does not load the whole analyzer.
"""

import importlib

#: Re-exported name -> the submodule that defines it.
_EXPORTS = {
    "analyze_sender": "sender.analyzer",
    "SenderAnalysis": "sender.analyzer",
    "analyze_receiver": "receiver.analyzer",
    "ReceiverAnalysis": "receiver.analyzer",
    "identify_implementation": "fit",
    "identify_receiver": "fit",
    "FitReport": "fit",
    "ReceiverFit": "fit",
    "calibrate_trace": "calibrate",
    "CalibrationReport": "calibrate",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)

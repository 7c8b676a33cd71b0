"""Adversarial scenario fuzzing: the standing correctness gate.

The paper's core claim is that tcpanaly stays *correct on hostile
input* — packet-filter defects, reordering-heavy paths, middlebox
damage.  This package turns that claim into a machine-checkable gate:

- :mod:`repro.fuzz.ingredients` is the vocabulary of adversarial
  ingredients — record-level path/middlebox mangling, frame-level
  byte surgery, torn capture files;
- :mod:`repro.fuzz.generator` composes ingredients into seeded,
  deterministic :class:`ScenarioPlan`\\ s;
- :mod:`repro.fuzz.runner` pushes every generated scenario through
  the full pipeline (wire encode → stream ingest → demux →
  identification) and classifies the outcome against a closed oracle;
- :mod:`repro.fuzz.minimize` shrinks a failing capture to a minimal
  reproducer.

Every scenario must either identify correctly, refuse honestly, or
quarantine with a classified :class:`~repro.errors.AnalysisError`
kind.  An exception escaping the pipeline unclassified, or a
confident misidentification on a calibration-clean trace, is a
fuzzer-found bug.
"""

from repro.fuzz.generator import ScenarioPlan, iter_plans, plan_scenario
from repro.fuzz.ingredients import (
    FILE_MANGLERS,
    FRAME_MANGLERS,
    RECORD_MANGLERS,
    Frame,
    render_pcap,
)
from repro.fuzz.minimize import minimize_frames
from repro.fuzz.runner import (
    FAIL_OUTCOMES,
    FuzzOutcome,
    SweepReport,
    run_scenario,
    run_sweep,
)

__all__ = [
    "FAIL_OUTCOMES",
    "FILE_MANGLERS",
    "FRAME_MANGLERS",
    "Frame",
    "FuzzOutcome",
    "RECORD_MANGLERS",
    "ScenarioPlan",
    "SweepReport",
    "iter_plans",
    "minimize_frames",
    "plan_scenario",
    "render_pcap",
    "run_scenario",
    "run_sweep",
]

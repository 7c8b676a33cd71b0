"""Golden receiver-analysis regression: every replay class's acks, pinned.

The engine and the exhaustive receiver fit share the receiver replay
(``analyze_receiver`` and the obligation tracker), so comparing them
cannot catch a bug in that shared code.  This file pins what the
replay itself concludes on fixed simulated receiver traces — a
stretch-acking receiver, a lossy path, and a lossy, corrupting path
(analyzed with full packets and header-only).  For each receiver
replay class (candidates that differ only in fields the receiver
replay never reads share one) it records every outbound ack's time,
ack number, kind, acked bytes, generation delay, discharged reasons
and note, which acks were gratuitous or broke the delay ceiling, and
every missed obligation.

If a change is *intended* to alter receiver analysis output,
regenerate with::

    PYTHONPATH=src python -c \\
        "import tests.core.test_receiver_golden as g; g.regenerate()"

and review the diff like any behavioral change.
"""

import json
import pathlib

import pytest

from repro.core.engine import receiver_signature
from repro.core.receiver.analyzer import (
    analyze_receiver,
    extract_receiver_pass_one,
)
from repro.harness.scenarios import traced_transfer
from repro.tcp.catalog import CATALOG, get_behavior
from repro.units import kbyte

GOLDEN = pathlib.Path(__file__).parent.parent / "fixtures" / \
    "receiver_golden.json"

#: name -> (implementation, scenario, seed, headers_only); every
#: transfer moves 20 KB.
INPUTS = {
    "osf1-1.3a_wan": ("osf1-1.3a", "wan", 0, False),
    "tahoe_wan-lossy": ("tahoe", "wan-lossy", 1, False),
    "linux-1.0_corrupting": ("linux-1.0", "lossy-corrupting", 2, False),
    "linux-1.0_corrupting_headers": ("linux-1.0", "lossy-corrupting", 2,
                                     True),
}


def _classes() -> list[str]:
    """One representative candidate per receiver replay class."""
    representatives: dict[tuple, str] = {}
    for name in sorted(CATALOG):
        representatives.setdefault(receiver_signature(CATALOG[name]), name)
    return sorted(representatives.values())


def _pin(analysis) -> dict:
    explanations = analysis.explanations
    return {
        "acks": [[e.record.timestamp, e.record.ack, e.kind, e.acked_bytes,
                  e.generation_delay, list(e.discharged_reasons), e.note]
                 for e in explanations],
        "gratuitous": [explanations.index(e) for e in analysis.gratuitous],
        "ceiling_violations": [explanations.index(e) for e in
                               analysis.delay_ceiling_violations],
        "missed": [[o.time, o.mandatory, o.reason, o.covering_ack,
                    o.new_bytes] for o in analysis.missed_obligations],
        "verified_corrupt": len(analysis.verified_corrupt),
        "inferred_corrupt": len(analysis.inferred_corrupt),
    }


def analyze_input(name: str) -> dict:
    """Every receiver class replayed over one input, pinned per class."""
    implementation, scenario, seed, headers_only = INPUTS[name]
    trace = traced_transfer(get_behavior(implementation), scenario,
                            data_size=kbyte(20), seed=seed).receiver_trace
    pass_one = extract_receiver_pass_one(trace, headers_only)
    pinned = {candidate: _pin(analyze_receiver(
                  None, CATALOG[candidate], candidate, pass_one=pass_one))
              for candidate in _classes()}
    # A JSON round trip turns tuples into lists, as in the golden file.
    return json.loads(json.dumps(pinned))


def regenerate() -> None:
    golden = {name: analyze_input(name) for name in INPUTS}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_receiver_replay_matches_golden(golden, name):
    actual = analyze_input(name)
    assert sorted(actual) == sorted(golden[name])
    for candidate, want in golden[name].items():
        assert actual[candidate] == want, f"{name}: {candidate} diverged"


def test_golden_covers_receiver_branches(golden):
    pinned = [analysis for per_input in golden.values()
              for analysis in per_input.values()]
    kinds = {ack[2] for analysis in pinned for ack in analysis["acks"]}
    assert {"delayed", "normal", "stretch", "dup", "fin_ack"} <= kinds
    reasons = {reason for analysis in pinned for ack in analysis["acks"]
               for reason in ack[5]}
    assert {"in_sequence", "out_of_sequence", "hole_fill"} <= reasons
    assert any(analysis["missed"] for analysis in pinned)
    assert any(analysis["verified_corrupt"] for analysis in pinned)
    assert any(analysis["inferred_corrupt"] for analysis in pinned)
    # Distinct classes must actually conclude different things somewhere.
    assert any(len({json.dumps(a) for a in per_input.values()}) > 1
               for per_input in golden.values())

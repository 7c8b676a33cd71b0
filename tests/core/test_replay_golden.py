"""Golden sender-analysis regression: every candidate's replay, pinned.

The engine-vs-exhaustive equivalence tests compare two identification
paths that share the replay code (``SenderModel``, ``WindowLedger``,
the quench trials), so a bug in that shared code moves both sides
together and passes.  This file pins what the replay itself concludes
on fixed inputs: for each fixture trace and each candidate, on both
the engine path and the exhaustive path, the fit summary, the
classification counts, every violation, resequencing clue and filter
gap (time, sequence number, kind and note), the inferred quenches,
the inferred sender window and the analysis notes.

The inputs are the five golden sender traces plus one Reno transfer
over a quenching router, the only fixture on which a source-quench
trial is committed rather than rolled back.  If a change is *intended*
to alter analysis output, regenerate with::

    PYTHONPATH=src python -c \\
        "import tests.core.test_replay_golden as g; g.regenerate()"

and review the diff like any behavioral change.
"""

import json
import pathlib

import pytest

from repro.core.engine import IdentificationEngine
from repro.core.fit import identify_implementation
from repro.core.sender import analyzer, windows
from repro.harness.scenarios import Scenario, traced_transfer
from repro.tcp.catalog import get_behavior
from repro.trace.text import parse_trace, render_trace
from repro.units import kbit, kbyte

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
GOLDEN = FIXTURES / "replay_golden.json"
QUENCH_FIXTURE = FIXTURES / "reno_quench-path_40960_q4.txt"

TRACE_FIXTURES = [
    "reno_wan_20480_0.txt",
    "tahoe_wan-lossy_20480_1.txt",
    "solaris-2.4_transatlantic_20480_0.txt",
    "linux-1.0_wan-lossy_20480_1.txt",
    "net3_lan_10240_0.txt",
    QUENCH_FIXTURE.name,
]

#: The C5 benchmark's quenching path (~240 ms RTT, small
#: bandwidth-delay product), with a router quenching past 4 packets.
QUENCH_PATH = Scenario("quench-path", bottleneck_bandwidth=kbit(256),
                       bottleneck_delay=0.12)


def _events(classifications) -> list:
    return [[c.record.timestamp, c.record.seq, c.kind, c.note]
            for c in classifications]


def _pin(analysis) -> dict:
    return {
        "kinds": analysis.counts_by_kind(),
        "violations": _events(analysis.violations),
        "clues": _events(analysis.resequencing_clues),
        "gaps": _events(analysis.filter_gaps),
        "quenches": analysis.inferred_quenches,
        "sender_window": analysis.inferred_sender_window,
        "notes": analysis.notes,
    }


def analyze_fixture(name: str) -> dict:
    """Both identification paths over one fixture, pinned per fit.

    Candidates in one replay class (and complete replays on the two
    paths) conclude the same thing, so each distinct analysis is
    stored once under ``analyses`` and fits refer to it by index.
    """
    trace = parse_trace((FIXTURES / name).read_text(), vantage="sender")
    reports = {"engine": IdentificationEngine().identify_sender(trace),
               "exhaustive": identify_implementation(trace)}
    analyses: list = []
    pinned: dict = {"analyses": analyses}
    for path, report in reports.items():
        pinned[path] = []
        for fit in report.fits:
            entry = {"fit": fit.to_dict()}
            if fit.analysis is not None:
                body = _pin(fit.analysis)
                if body not in analyses:
                    analyses.append(body)
                entry["analysis"] = analyses.index(body)
            pinned[path].append(entry)
    # A JSON round trip turns tuples into lists, as in the golden file.
    return json.loads(json.dumps(pinned))


def resolve(pinned: dict, path: str) -> list[dict]:
    """One path's fits with their analyses inlined."""
    return [dict(entry, analysis=pinned["analyses"][entry["analysis"]])
            if "analysis" in entry else entry
            for entry in pinned[path]]


def regenerate() -> None:
    transfer = traced_transfer(get_behavior("reno"), QUENCH_PATH,
                               data_size=kbyte(40), quench_threshold=4)
    QUENCH_FIXTURE.write_text(render_trace(transfer.sender_trace,
                                           relative_time=False))
    golden = {name: analyze_fixture(name) for name in TRACE_FIXTURES}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def replayed() -> tuple[dict, dict]:
    """Every fixture analyzed once, counting the replay events the
    pinned output cannot show: quench-trial rollbacks and ledger
    shrinks that changed the ledger."""
    counts = {"rollback": 0, "shrink": 0}
    rollback = analyzer._QuenchTrial.rollback
    shrink = windows.WindowLedger.shrink

    def counting_rollback(self, state):
        counts["rollback"] += 1
        return rollback(self, state)

    def counting_shrink(self, high):
        before = list(self._entries)
        shrink(self, high)
        if self._entries != before:
            counts["shrink"] += 1

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analyzer._QuenchTrial, "rollback", counting_rollback)
        patch.setattr(windows.WindowLedger, "shrink", counting_shrink)
        results = {name: analyze_fixture(name) for name in TRACE_FIXTURES}
    return results, counts


PATHS = ["engine", "exhaustive"]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("name", TRACE_FIXTURES)
def test_replay_matches_golden(golden, replayed, name, path):
    expected = resolve(golden[name], path)
    actual = resolve(replayed[0][name], path)
    assert [e["fit"]["implementation"] for e in actual] == \
        [e["fit"]["implementation"] for e in expected]
    for want, got in zip(expected, actual):
        assert got == want, (
            f"{name} {path}: {want['fit']['implementation']} diverged")


def test_golden_covers_every_replay_branch(golden, replayed):
    analyses = [analysis for pinned in golden.values()
                for analysis in pinned["analyses"]]
    assert any(analysis["quenches"] for analysis in analyses)
    assert any(analysis["clues"] for analysis in analyses)
    assert any(analysis["gaps"] for analysis in analyses)
    assert any(entry["fit"].get("aborted") for pinned in golden.values()
               for entry in pinned["engine"])
    counts = replayed[1]
    assert counts["rollback"] >= 1
    assert counts["shrink"] >= 1


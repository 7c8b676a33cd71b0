"""Sender analysis: liberations, violations, classification (§6)."""

import pathlib
import re

import pytest

from repro.capture.filter import PacketFilter
from repro.core.engine import IdentificationEngine
from repro.core.report import analyze_trace
from repro.core.sender.analyzer import (
    TraceUnusable,
    analyze_sender,
    extract_facts,
    extract_pass_one,
)
from repro.harness.scenarios import traced_transfer
from repro.tcp.catalog import CATALOG, get_behavior
from repro.trace.record import Trace
from repro.trace.text import parse_trace
from repro.units import kbyte

from tests.conftest import cached_transfer
from tests.core.kernel_oracles import oracle_mode, sender_pass_one


class TestFacts:
    def test_extracts_handshake_parameters(self):
        trace = cached_transfer("reno").sender_trace
        facts = extract_facts(trace)
        assert facts.offered_mss == 512
        assert facts.negotiated_mss == 512
        assert facts.peer_offered_mss_option
        assert facts.total_data == 51200
        assert facts.fin_seen

    def test_max_in_flight_bounded_by_transfer(self):
        facts = extract_facts(cached_transfer("reno").sender_trace)
        assert 512 <= facts.max_in_flight <= 51200

    def test_sender_window_caps_max_in_flight(self):
        transfer = cached_transfer("reno", "wan", sender_window=4096)
        facts = extract_facts(transfer.sender_trace)
        assert facts.max_in_flight <= 4096

    def test_missing_handshake_raises(self):
        trace = cached_transfer("reno").sender_trace
        headless = Trace(records=[r for r in trace if not r.is_syn])
        with pytest.raises(TraceUnusable):
            extract_facts(headless)


RENO_FIXTURE = (pathlib.Path(__file__).parent.parent / "fixtures"
                / "reno_wan_20480_0.txt")


@pytest.fixture(params=["numpy", "python"])
def pass_one(request, monkeypatch):
    """Sender pass one: the numpy column kernel, or its pure-Python
    per-record oracle with the whole pipeline in oracle mode."""
    if request.param == "numpy":
        return extract_pass_one
    oracle_mode(monkeypatch)
    return sender_pass_one


class TestZeroMss:
    """A handshake negotiating an MSS of 0 leaves nothing to replay:
    every candidate's window arithmetic divides by the MSS."""

    def trace(self, pattern: str) -> Trace:
        text = re.sub(pattern, "<mss 0>", RENO_FIXTURE.read_text())
        return parse_trace(text, vantage="sender")

    @pytest.mark.parametrize("pattern", [r"<mss \d+>", r"<mss 1460>"],
                             ids=["both", "peer"])
    def test_pass_one_refuses(self, pass_one, pattern):
        with pytest.raises(TraceUnusable, match="MSS of 0"):
            pass_one(self.trace(pattern))

    def test_every_candidate_ranks_unusable(self, pass_one):
        trace = self.trace(r"<mss \d+>")
        fits = IdentificationEngine().identify_sender(trace).fits
        assert {fit.category for fit in fits} == {"unusable"}
        report = analyze_trace(trace, identify=True)
        assert {fit.category for fit in report.identification.fits} \
            == {"unusable"}


class TestSelfConsistency:
    """The fundamental property: analyzing implementation X's trace
    with model X yields no violations and kernel-scale delays."""

    @pytest.mark.parametrize("implementation", sorted(CATALOG))
    def test_clean_wan_trace(self, implementation):
        transfer = cached_transfer(implementation, "wan")
        analysis = analyze_sender(transfer.sender_trace,
                                  get_behavior(implementation))
        assert analysis.violation_count == 0
        assert analysis.mean_response_delay < 0.005
        assert not analysis.filter_gaps

    @pytest.mark.parametrize("implementation", [
        "reno", "tahoe", "net3", "sunos-4.1.3", "linux-1.0",
        "solaris-2.4", "trumpet-2.0b", "irix-5.2", "hpux-9.05",
        "osf1-3.2", "windows-95", "linux-2.0.30", "bsdi-2.0",
    ])
    def test_lossy_trace(self, implementation):
        transfer = cached_transfer(implementation, "wan-lossy", seed=1)
        analysis = analyze_sender(transfer.sender_trace,
                                  get_behavior(implementation))
        assert analysis.violation_count == 0
        assert not analysis.filter_gaps

    def test_solaris_transatlantic_explained_as_timeouts(self):
        """Figure 5: every premature Solaris retransmission is
        explained as a (needless) timeout."""
        transfer = cached_transfer("solaris-2.4", "transatlantic")
        analysis = analyze_sender(transfer.sender_trace,
                                  get_behavior("solaris-2.4"))
        counts = analysis.counts_by_kind()
        assert analysis.violation_count == 0
        assert counts.get("timeout", 0) >= 30

    def test_linux10_flights_classified(self):
        transfer = cached_transfer("linux-1.0", "wan-lossy", seed=3)
        analysis = analyze_sender(transfer.sender_trace,
                                  get_behavior("linux-1.0"))
        counts = analysis.counts_by_kind()
        assert counts.get("flight", 0) + counts.get("flight_start", 0) > 20
        assert analysis.violation_count == 0

    def test_reno_fast_retransmit_classified(self):
        from repro.netsim.link import DeterministicLoss
        from repro.capture.filter import attach_at_host
        from repro.netsim.engine import Engine
        from repro.netsim.network import build_path
        from repro.tcp.connection import run_bulk_transfer
        engine = Engine()
        path = build_path(engine,
                          forward_loss=DeterministicLoss(drop_nth=[20]))
        packet_filter = PacketFilter(vantage="sender")
        attach_at_host(path.sender, packet_filter)
        run_bulk_transfer(get_behavior("reno"), data_size=kbyte(50),
                          path=path)
        analysis = analyze_sender(packet_filter.trace(),
                                  get_behavior("reno"))
        assert analysis.counts_by_kind().get("fast_retransmit") == 1
        assert analysis.violation_count == 0

    def test_response_delay_equals_kernel_delay(self):
        analysis = analyze_sender(cached_transfer("reno").sender_trace,
                                  get_behavior("reno"))
        assert analysis.min_response_delay == pytest.approx(0.0003, abs=1e-4)


class TestCrossModel:
    """A wrong candidate produces violations or inflated delays (§6.1)."""

    def test_reno_trace_vs_tahoe_model(self):
        trace = cached_transfer("reno", "wan-lossy", seed=3).sender_trace
        analysis = analyze_sender(trace, get_behavior("tahoe"))
        assert analysis.violation_count > 5

    def test_linux_trace_vs_reno_model(self):
        trace = cached_transfer("linux-1.0", "wan-lossy", seed=3).sender_trace
        analysis = analyze_sender(trace, get_behavior("reno"))
        assert analysis.violation_count > 10

    def test_solaris_trace_vs_reno_model_on_high_rtt(self):
        trace = cached_transfer("solaris-2.4", "transatlantic").sender_trace
        analysis = analyze_sender(trace, get_behavior("reno"))
        # Reno would never retransmit that early: violations abound.
        assert analysis.violation_count > 10

    def test_indistinguishable_on_clean_traces(self):
        """Without loss, all Reno variants behave identically — the
        paper's rarely-manifested bugs need provocation to show."""
        trace = cached_transfer("reno", "wan").sender_trace
        for candidate in ("bsdi-1.1", "irix-5.2", "hpux-10"):
            analysis = analyze_sender(trace, get_behavior(candidate))
            assert analysis.violation_count == 0


class TestMeasurementErrorInteraction:
    def test_filter_gaps_reported_for_dropped_data_records(self):
        from repro.capture.errors import DropInjector
        packet_filter = PacketFilter(
            vantage="sender",
            drops=DropInjector(rate=0.06, seed=11, report_style="none"))
        transfer = traced_transfer(get_behavior("reno"), "wan",
                                   data_size=kbyte(50),
                                   sender_filter=packet_filter)
        analysis = analyze_sender(transfer.sender_trace,
                                  get_behavior("reno"))
        assert analysis.filter_gaps      # detected the filter's drops

    def test_resequencing_produces_clues_not_violations(self):
        from repro.capture.errors import ResequencingInjector
        packet_filter = PacketFilter(
            vantage="sender",
            resequencing=ResequencingInjector(seed=5))
        transfer = traced_transfer(get_behavior("reno"), "wan",
                                   data_size=kbyte(50),
                                   sender_filter=packet_filter)
        analysis = analyze_sender(transfer.sender_trace,
                                  get_behavior("reno"))
        assert len(analysis.resequencing_clues) > 0


class TestSenderWindowInference:
    def test_window_limited_transfer_inferred(self):
        """§6.2: the TCP repeatedly stalls at its in-flight ceiling
        while cwnd/offered window would permit more."""
        transfer = cached_transfer("reno", "wan", sender_window=4096)
        analysis = analyze_sender(transfer.sender_trace,
                                  get_behavior("reno"))
        assert analysis.inferred_sender_window is not None
        assert analysis.inferred_sender_window <= 4096

    def test_unconstrained_transfer_not_inferred(self):
        analysis = analyze_sender(cached_transfer("reno").sender_trace,
                                  get_behavior("reno"))
        assert analysis.inferred_sender_window is None


class TestSourceQuenchInference:
    def test_unseen_quench_inferred(self):
        """§6.2: the quench never appears in the trace, yet the sending
        lull plus slow-start-consistent resumption reveals it."""
        transfer = traced_transfer(get_behavior("reno"), "wan",
                                   data_size=kbyte(100),
                                   quench_threshold=4)
        assert transfer.result.sender.stats_quenches_seen >= 1
        analysis = analyze_sender(transfer.sender_trace,
                                  get_behavior("reno"))
        assert len(analysis.inferred_quenches) >= 1
        assert analysis.violation_count == 0

    def test_no_quench_inferred_on_clean_transfer(self):
        analysis = analyze_sender(cached_transfer("reno").sender_trace,
                                  get_behavior("reno"))
        assert analysis.inferred_quenches == []


class TestSummary:
    def test_summary_mentions_counts(self):
        analysis = analyze_sender(cached_transfer("reno").sender_trace,
                                  get_behavior("reno"))
        text = analysis.summary()
        assert "violations" in text and "new=" in text

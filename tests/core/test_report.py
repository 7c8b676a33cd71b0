"""The combined tcpanaly report."""

import pytest

from repro.core.errors import classify_exception
from repro.core.report import analyze_trace
from repro.tcp.catalog import get_behavior

from tests.conftest import cached_transfer


class TestAnalyzeTrace:
    def test_sender_report_includes_sender_analysis(self):
        report = analyze_trace(cached_transfer("reno").sender_trace,
                               get_behavior("reno"))
        assert report.vantage == "sender"
        assert report.sender is not None
        assert report.receiver is None

    def test_receiver_report_includes_receiver_analysis(self):
        report = analyze_trace(cached_transfer("reno").receiver_trace,
                               get_behavior("reno"))
        assert report.vantage == "receiver"
        assert report.receiver is not None
        assert report.sender is None

    def test_identification_optional(self):
        report = analyze_trace(cached_transfer("reno").sender_trace,
                               get_behavior("reno"), identify=True)
        assert report.identification is not None

    def test_pair_analysis_included(self):
        transfer = cached_transfer("reno")
        report = analyze_trace(transfer.sender_trace, get_behavior("reno"),
                               peer_trace=transfer.receiver_trace)
        assert report.calibration.pair_analysis is not None

    def test_render_sections(self):
        transfer = cached_transfer("reno")
        report = analyze_trace(transfer.sender_trace, get_behavior("reno"),
                               identify=True)
        text = report.render()
        assert "measurement calibration" in text
        assert "sender behavior" in text
        assert "implementation identification" in text

    def test_render_notes_resequencing(self):
        from repro.capture.errors import ResequencingInjector
        from repro.capture.filter import PacketFilter
        from repro.harness.scenarios import traced_transfer
        packet_filter = PacketFilter(
            vantage="sender", resequencing=ResequencingInjector(seed=1))
        transfer = traced_transfer(get_behavior("solaris-2.4"), "wan",
                                   data_size=30720,
                                   sender_filter=packet_filter)
        report = analyze_trace(transfer.sender_trace,
                               get_behavior("solaris-2.4"))
        assert "untrustworthy" in report.render()

    def test_behaviorless_report_still_calibrates(self):
        report = analyze_trace(cached_transfer("reno").sender_trace)
        assert report.sender is None
        assert report.calibration is not None


def _count_vantage_inference(monkeypatch) -> list:
    import repro.core.report as report_module
    import repro.core.vantage as vantage_module
    calls = []
    real = vantage_module.infer_vantage

    def counting(trace):
        calls.append(trace)
        return real(trace)

    monkeypatch.setattr(vantage_module, "infer_vantage", counting)
    monkeypatch.setattr(report_module, "infer_vantage", counting)
    return calls


class TestVantageInference:
    @pytest.mark.parametrize("side", ["sender", "receiver"])
    def test_inferred_once_per_trace(self, side, monkeypatch):
        calls = _count_vantage_inference(monkeypatch)
        trace = getattr(cached_transfer("reno", "wan-lossy"),
                        f"{side}_trace")
        report = analyze_trace(trace, get_behavior("reno"), identify=True)
        assert report.vantage == side
        assert calls == [trace]

    def test_inferred_again_on_a_cleaned_trace(self, monkeypatch):
        from repro.capture.errors import DuplicationInjector
        from repro.capture.filter import PacketFilter
        from repro.harness.scenarios import traced_transfer
        packet_filter = PacketFilter(vantage="sender",
                                     duplication=DuplicationInjector())
        trace = traced_transfer(get_behavior("reno"), "lan",
                                data_size=20480,
                                sender_filter=packet_filter).sender_trace
        calls = _count_vantage_inference(monkeypatch)
        report = analyze_trace(trace)
        assert report.calibration.duplicates
        assert len(calls) == 2 and calls[0] is trace \
            and calls[1] is not trace


#: Every ``analyze_trace`` stage: (error_stage tag, the call it wraps,
#: the trace side that reaches it).  The tag is written to JSONL.
STAGES = [
    ("sender pass one", "repro.core.report.extract_pass_one", "sender"),
    ("receiver pass one", "repro.core.report.extract_receiver_pass_one",
     "receiver"),
    ("sender analysis", "repro.core.report.analyze_sender", "sender"),
    ("calibration", "repro.core.report.calibrate_trace", "sender"),
    ("receiver analysis", "repro.core.report.analyze_receiver", "receiver"),
    ("identification",
     "repro.core.engine.IdentificationEngine.identify_sender", "sender"),
]


class TestStageTags:
    @pytest.mark.parametrize("stage, target, side", STAGES,
                             ids=[stage for stage, _t, _s in STAGES])
    def test_escaping_error_names_its_stage(self, stage, target, side,
                                            monkeypatch):
        def explode(*args, **kwargs):
            raise KeyError("stage defect")
        monkeypatch.setattr(target, explode)
        transfer = cached_transfer("reno")
        trace = getattr(transfer, f"{side}_trace")
        with pytest.raises(KeyError) as caught:
            analyze_trace(trace, get_behavior("reno"), identify=True)
        error = classify_exception(caught.value)
        assert error.kind == "model"
        assert error.stage == stage

"""Streaming-vs-eager equivalence and multi-connection fan-out."""

import json

import pytest

from repro.analysis.connstats import split_connections
from repro.core.report import analyze_trace
from repro.harness.corpus import interleave_traces
from repro.stream import IngestStats, analyze_stream, demux_pcap, iter_pcap
from repro.stream.flowtable import demux_records
from repro.trace.pcap import read_pcap, write_pcap
from repro.trace.wire import AddressMap

from tests.conftest import cached_transfer


@pytest.fixture
def single_pcap(tmp_path):
    path = tmp_path / "single.pcap"
    write_pcap(cached_transfer("reno").sender_trace, path)
    return path


@pytest.fixture
def interleaved(tmp_path):
    """A 5-connection interleaved capture written to pcap."""
    traces = [cached_transfer("reno").sender_trace,
              cached_transfer("linux-1.0").sender_trace]
    labels = ["reno", "linux-1.0"]
    capture = interleave_traces(
        [traces[i % 2] for i in range(5)],
        [labels[i % 2] for i in range(5)],
        start_interval=0.3)
    path = tmp_path / "multi.pcap"
    addresses = AddressMap()
    write_pcap(capture.trace, path, addresses=addresses)
    return capture, path, addresses


class TestSingleConnectionEquivalence:
    def test_report_byte_identical_to_eager_path(self, single_pcap):
        eager = analyze_trace(read_pcap(single_pcap),
                              identify=True).to_dict()
        flow_reports = list(analyze_stream(single_pcap, identify=True))
        assert len(flow_reports) == 1
        streamed = flow_reports[0].report.to_dict()
        assert json.dumps(streamed, sort_keys=True) \
            == json.dumps(eager, sort_keys=True)

    def test_flow_trace_equals_eager_trace(self, single_pcap):
        eager = read_pcap(single_pcap)
        flow, = demux_pcap(single_pcap)
        trace = flow.to_trace()
        assert trace.records == eager.records
        assert trace.vantage == eager.vantage
        assert trace.reported_drops == eager.reported_drops


class TestMultiConnectionFanOut:
    def test_one_flow_per_connection(self, interleaved):
        capture, path, addresses = interleaved
        stats = IngestStats()
        flows = list(demux_pcap(path, addresses=addresses, stats=stats))
        assert len(flows) == capture.connections == 5
        assert stats.flows_opened == 5
        assert stats.peak_live_flows > 1     # they really overlap

    def test_flows_round_trip_record_sequences(self, interleaved):
        """Demuxed per-flow sequences match an eager read + split."""
        capture, path, addresses = interleaved
        eager = split_connections(read_pcap(path, addresses=addresses))
        flows = demux_records(iter_pcap(path, addresses=addresses))
        for flow in flows:
            key = frozenset((flow.key.a, flow.key.b))
            assert flow.records == eager[key].records

    def test_flows_match_ground_truth_clients(self, interleaved):
        capture, path, addresses = interleaved
        flows = list(demux_pcap(path, addresses=addresses))
        demuxed_ports = sorted(
            endpoint.port
            for flow in flows for endpoint in (flow.key.a, flow.key.b)
            if endpoint.port >= 40000)
        truth_ports = sorted(f.client.port for f in capture.flows)
        assert demuxed_ports == truth_ports
        demuxed_counts = sorted(len(f.records) for f in flows)
        assert demuxed_counts == sorted(f.records for f in capture.flows)

    def test_each_flow_analyzes_like_a_single_capture(self, interleaved):
        capture, path, addresses = interleaved
        reports = list(analyze_stream(path, addresses=addresses))
        assert len(reports) == capture.connections
        for flow_report in reports:
            assert flow_report.report.vantage == "sender"
            payload = flow_report.to_dict()
            assert payload["flow"]["saw_syn"]
            assert payload["calibration"]["clean"]


class TestTolerantFlowAnalysis:
    def test_tolerant_flow_failure_becomes_errored_report(self, interleaved,
                                                          monkeypatch):
        from repro.stream import build_flow_report
        _capture, path, _addresses = interleaved

        def explode(*args, **kwargs):
            raise KeyError("per-flow defect")
        monkeypatch.setattr("repro.stream.demux.analyze_trace", explode)
        flows = list(demux_pcap(path))
        reports = [build_flow_report(flow) for flow in flows]
        assert all(r.report is None for r in reports)
        assert all(r.error.kind == "model" for r in reports)
        payload = reports[0].to_dict()
        assert payload["error_kind"] == "model"
        assert "KeyError" in payload["error"]

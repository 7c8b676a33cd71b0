"""JSONL output and the Table-1-style aggregate."""

import json

from repro.pipeline.lines import encode_payload
from repro.pipeline.report import aggregate_report, write_jsonl
from repro.pipeline.runner import BatchResult, TraceResult


def _result(payload):
    entry = encode_payload(payload)
    return TraceResult(entry.trace, entry.line, entry.fields)


def _sender(name, truth, best, category="close", clean=True):
    return _result({
        "trace": name, "implementation": truth, "records": 10,
        "vantage": "sender",
        "calibration": {"clean": clean, "drop_evidence": 0 if clean else 2,
                        "duplicates": 0, "resequencing": 0,
                        "time_travel": 0},
        "identification": {"best": best, "best_category": category,
                           "fits": []},
    })


def _receiver(name, truth, close):
    return _result({
        "trace": name, "implementation": truth, "records": 10,
        "vantage": "receiver",
        "calibration": {"clean": True, "drop_evidence": 0, "duplicates": 0,
                        "resequencing": 0, "time_travel": 0},
        "receiver_identification": {
            "close": close,
            "fits": [{"implementation": label, "category": "close",
                      "score": 0.0, "inconsistencies": []}
                     for label in close]},
    })


def _batch(results):
    return BatchResult(results=results, jobs=1, wall_time=0.5,
                       analyzed=len(results))


class TestWriteJsonl:
    def test_one_sorted_object_per_line(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_jsonl([_sender("b.pcap", "reno", "reno"),
                     _sender("a.pcap", "tahoe", "tahoe")], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            parsed = json.loads(line)
            assert list(parsed) == sorted(parsed)


class TestAggregate:
    def test_confusion_and_accuracy(self):
        report = aggregate_report(_batch([
            _sender("reno-0000-sender.pcap", "reno", "reno"),
            _sender("reno-0001-sender.pcap", "reno", "bsdi-1.1"),
            _sender("tahoe-0000-sender.pcap", "tahoe", "tahoe"),
        ]))
        assert "-> bsdi-1.1×1, reno×1" in report
        assert "best-fit accuracy: 2/3 (66.7%)" in report

    def test_receiver_close_set_containment(self):
        report = aggregate_report(_batch([
            _receiver("reno-0000-receiver.pcap", "reno",
                      ["reno", "tahoe"]),
            _receiver("linux-1.0-0000-receiver.pcap", "linux-1.0",
                      ["trumpet-2.0b"]),
        ]))
        assert "receiver close-set contains truth: 1/2" in report

    def test_error_detection_counts(self):
        report = aggregate_report(_batch([
            _sender("reno-0000-sender.pcap", "reno", "reno", clean=False),
            _sender("reno-0001-sender.pcap", "reno", "reno"),
        ]))
        assert "measurement errors detected: 1 trace(s)" in report
        assert "drop_evidence: 2 finding(s)" in report

    def test_throughput_and_cache_lines(self):
        report = aggregate_report(_batch(
            [_sender("reno-0000-sender.pcap", "reno", "reno")]))
        assert "\njobs: 1; analyzed 1 item(s)\n" in report
        assert "traces/sec" in report
        resumed = _batch([_sender("reno-0000-sender.pcap", "reno", "reno")])
        resumed.analyzed, resumed.resumed = 0, 1
        assert "\njobs: 1; analyzed 0 item(s); resumed 1 item(s) from " \
            "journal\n" in aggregate_report(resumed)

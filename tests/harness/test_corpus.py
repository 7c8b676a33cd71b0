"""Corpus generation (the Table 1 stand-in)."""

import pytest

from repro.harness.corpus import (
    corpus_summary,
    generate_corpus,
    generate_interleaved_capture,
    interleave_traces,
    write_corpus,
)
from repro.trace.pcap import read_pcap

from tests.conftest import cached_transfer


class TestGeneration:
    def test_counts_per_implementation(self):
        entries = list(generate_corpus(["reno", "tahoe"],
                                       traces_per_implementation=3,
                                       data_size=10240))
        assert len(entries) == 6
        assert sum(e.implementation == "reno" for e in entries) == 3

    def test_scenarios_rotate(self):
        entries = list(generate_corpus(["reno"],
                                       traces_per_implementation=3,
                                       scenarios=("lan", "wan"),
                                       data_size=10240))
        names = [e.transfer.scenario.name for e in entries]
        assert names == ["lan", "wan", "lan"]

    def test_traces_accessible(self):
        entry = next(iter(generate_corpus(["reno"],
                                          traces_per_implementation=1,
                                          data_size=10240)))
        assert len(entry.sender_trace) > 0
        assert len(entry.receiver_trace) > 0

    def test_default_implementations_are_core_study(self):
        from repro.tcp.catalog import CORE_STUDY
        entries = generate_corpus(traces_per_implementation=1,
                                  scenarios=("lan",), data_size=2048)
        labels = {e.implementation for e in entries}
        assert labels == set(CORE_STUDY)


class TestWriteCorpus:
    def test_files_numbered_per_implementation(self, tmp_path):
        write_corpus(tmp_path, implementations=["reno", "linux-1.0"],
                     traces_per_implementation=2, data_size=10240)
        names = sorted(p.name for p in tmp_path.glob("*.pcap"))
        assert names == [
            "linux-1.0-0000-receiver.pcap", "linux-1.0-0000-sender.pcap",
            "linux-1.0-0001-receiver.pcap", "linux-1.0-0001-sender.pcap",
            "reno-0000-receiver.pcap", "reno-0000-sender.pcap",
            "reno-0001-receiver.pcap", "reno-0001-sender.pcap",
        ]

    def test_entries_report_paths_and_stems(self, tmp_path):
        written = write_corpus(tmp_path, implementations=["reno"],
                               traces_per_implementation=1,
                               data_size=10240)
        entry, = written
        assert entry.stem == "reno-0000"
        assert entry.sender_path.exists()
        assert entry.receiver_path.exists()
        assert len(read_pcap(entry.sender_path)) > 0


class TestInterleavedCapture:
    def test_connections_get_distinct_client_ports(self):
        trace = cached_transfer("reno").sender_trace
        capture = interleave_traces([trace, trace, trace],
                                    ["reno"] * 3, port_base=41000)
        assert [f.client.port for f in capture.flows] \
            == [41000, 41001, 41002]
        endpoints = {(r.src, r.dst) for r in capture.trace.records}
        assert len({frozenset(pair) for pair in endpoints}) == 3

    def test_starts_are_staggered_and_overlapping(self):
        trace = cached_transfer("reno").sender_trace
        capture = interleave_traces([trace, trace], ["reno", "reno"],
                                    start_interval=0.3)
        first, second = capture.flows
        assert second.start - first.start == 0.3
        duration = trace.records[-1].timestamp - trace.records[0].timestamp
        assert duration > 0.3   # connection 1 starts before 0 finishes

    def test_records_merged_in_timestamp_order(self):
        trace = cached_transfer("reno").sender_trace
        capture = interleave_traces([trace, trace], ["reno", "reno"],
                                    start_interval=0.1)
        times = [r.timestamp for r in capture.trace.records]
        assert times == sorted(times)
        assert len(capture.trace) == 2 * len(trace)

    def test_generate_reuses_distinct_transfers(self):
        capture = generate_interleaved_capture(
            implementations=["reno"], connections=6,
            distinct_transfers=2, data_size=10240,
            scenarios=("wan",), start_interval=0.2)
        assert capture.connections == 6
        counts = [f.records for f in capture.flows]
        assert counts[0] == counts[2] == counts[4]  # reused transfer

    def test_receiver_side_capture(self):
        capture = generate_interleaved_capture(
            implementations=["reno"], connections=2,
            distinct_transfers=1, data_size=10240,
            scenarios=("wan",), side="receiver")
        assert capture.connections == 2

    def test_rejects_unknown_side(self):
        with pytest.raises(ValueError):
            generate_interleaved_capture(side="middle")


class TestSummary:
    def test_summary_rows(self):
        entries = list(generate_corpus(["reno", "linux-1.0"],
                                       traces_per_implementation=2,
                                       scenarios=("wan-lossy",),
                                       data_size=20480))
        summary = corpus_summary(entries)
        assert summary["reno"]["traces"] == 2
        assert summary["reno"]["completed"] == 2
        assert summary["linux-1.0"]["retransmissions"] \
            > summary["reno"]["retransmissions"]

"""The tcpanaly command-line front end."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.connstats import connection_stats
from repro.cli import main
from repro.harness.corpus import interleave_traces
from repro.packets import RST
from repro.stream import analyze_stream, flow_payload
from repro.trace.pcap import read_pcap, write_pcap
from repro.trace.record import Trace

from tests.conftest import cached_transfer


@pytest.fixture
def pcap_pair(tmp_path):
    """Simulate once, return (sender_pcap, receiver_pcap) paths."""
    out = tmp_path / "transfer"
    code = main(["simulate", "reno", "--scenario", "wan",
                 "--size", "20480", "--out", str(out)])
    assert code == 0
    return f"{out}-sender.pcap", f"{out}-receiver.pcap"


class TestSimulate:
    def test_writes_both_pcaps(self, pcap_pair, capsys):
        sender, receiver = pcap_pair
        from pathlib import Path
        assert Path(sender).exists() and Path(receiver).exists()

    def test_reports_summary(self, tmp_path, capsys):
        main(["simulate", "linux-1.0", "--scenario", "wan-lossy",
              "--size", "20480", "--out", str(tmp_path / "x")])
        out = capsys.readouterr().out
        assert "completed" in out
        assert "retransmissions" in out

    def test_unknown_implementation_raises(self, tmp_path):
        with pytest.raises(KeyError):
            main(["simulate", "nosuch-1.0", "--out", str(tmp_path / "x")])


class TestAnalyze:
    def test_analyze_with_implementation(self, pcap_pair, capsys):
        sender, receiver = pcap_pair
        code = main(["analyze", sender, "-i", "reno", "--peer", receiver])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 violations" in out
        assert "measurement calibration" in out

    def test_analyze_receiver_side(self, pcap_pair, capsys):
        _, receiver = pcap_pair
        code = main(["analyze", receiver, "-i", "reno"])
        assert code == 0
        assert "receiver behavior" in capsys.readouterr().out

    def test_analyze_without_implementation(self, pcap_pair, capsys):
        sender, _ = pcap_pair
        assert main(["analyze", sender]) == 0


class TestIdentify:
    def test_identify_ranks_candidates(self, pcap_pair, capsys):
        sender, _ = pcap_pair
        code = main(["identify", sender])
        assert code == 0
        out = capsys.readouterr().out
        assert "reno" in out
        assert "close" in out


class TestListAndPlot:
    def test_list_shows_catalog(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "solaris-2.4" in out
        assert "transatlantic" in out

    def test_plot_renders(self, pcap_pair, capsys):
        sender, _ = pcap_pair
        assert main(["plot", sender]) == 0
        out = capsys.readouterr().out
        assert "#" in out and "o" in out


class TestCalibrateCommand:
    def test_clean_trace_verdict(self, pcap_pair, capsys):
        sender, receiver = pcap_pair
        code = main(["calibrate", sender, "-i", "reno",
                     "--peer", receiver])
        assert code == 0
        assert "no measurement errors" in capsys.readouterr().out

    def test_defective_trace_nonzero_exit(self, tmp_path, capsys):
        from repro.capture.clock import SteppingClock
        from repro.capture.filter import PacketFilter
        from repro.harness.scenarios import traced_transfer
        from repro.tcp.catalog import get_behavior
        from repro.trace.pcap import write_pcap
        packet_filter = PacketFilter(
            vantage="sender",
            clock=SteppingClock(steps=[(0.5, -0.1), (0.9, -0.1)]))
        transfer = traced_transfer(get_behavior("reno"), "wan",
                                   data_size=40960,
                                   sender_filter=packet_filter)
        path = tmp_path / "bad.pcap"
        write_pcap(transfer.sender_trace, path)
        code = main(["calibrate", str(path), "-i", "reno"])
        assert code == 1
        out = capsys.readouterr().out
        assert "time travel" in out


class TestCorpusCommand:
    def test_writes_trace_pairs(self, tmp_path, capsys):
        code = main(["corpus", str(tmp_path / "corpus"),
                     "--per-implementation", "1", "--size", "10240"])
        assert code == 0
        from repro.tcp.catalog import CORE_STUDY
        pcaps = list((tmp_path / "corpus").glob("*.pcap"))
        assert len(pcaps) == 2 * len(CORE_STUDY)

    def test_filenames_numbered_per_implementation(self, tmp_path, capsys):
        code = main(["corpus", str(tmp_path / "corpus"),
                     "--implementations", "reno,tahoe",
                     "--per-implementation", "2", "--size", "10240"])
        assert code == 0
        names = {p.name for p in (tmp_path / "corpus").glob("*-sender.pcap")}
        assert names == {"reno-0000-sender.pcap", "reno-0001-sender.pcap",
                         "tahoe-0000-sender.pcap",
                         "tahoe-0001-sender.pcap"}

    def test_analyze_feeds_batch_pipeline(self, tmp_path, capsys):
        jsonl = tmp_path / "results.jsonl"
        code = main(["corpus", str(tmp_path / "corpus"),
                     "--implementations", "reno",
                     "--per-implementation", "1", "--size", "10240",
                     "--analyze", "--jsonl", str(jsonl)])
        assert code == 0
        out = capsys.readouterr().out
        assert "batch aggregate" in out
        assert len(jsonl.read_text().splitlines()) == 2

    def test_analyze_is_batch_over_the_written_directory(self, tmp_path,
                                                         capsys):
        corpus = tmp_path / "corpus"
        analyzed = tmp_path / "corpus.jsonl"
        batched = tmp_path / "batch.jsonl"
        assert main(["corpus", str(corpus), "--implementations",
                     "reno,linux-1.0", "--per-implementation", "1",
                     "--size", "10240", "--analyze", "--jsonl",
                     str(analyzed)]) == 0
        corpus_out = capsys.readouterr().out
        assert main(["batch", str(corpus), "--no-journal", "--jsonl",
                     str(batched)]) == 0
        batch_out = capsys.readouterr().out
        assert analyzed.read_bytes() == batched.read_bytes()

        def aggregate(out):
            # The report minus the run's own accounting and wall-clock
            # footer.
            start = out.index("batch aggregate")
            return out[start:out.index("jobs: ", start)]

        assert aggregate(corpus_out) == aggregate(batch_out)

    def test_analyze_ignores_an_earlier_larger_run(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        assert main(["corpus", str(corpus), "--implementations", "reno",
                     "--per-implementation", "2", "--size", "10240"]) == 0
        capsys.readouterr()
        assert main(["corpus", str(corpus), "--implementations", "reno",
                     "--per-implementation", "1", "--size", "10240",
                     "--analyze"]) == 0
        assert "traces analyzed: 2" in capsys.readouterr().out
        assert sorted(p.name for p in corpus.iterdir()) == [
            "reno-0000-receiver.pcap", "reno-0000-sender.pcap"]

    def test_rewrite_leaves_other_files_alone(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        corpus.mkdir()
        others = ["tahoe-0003-sender.pcap", "reno-extra-0005-sender.pcap",
                  "reno-0005-notes.txt"]
        for name in others:
            (corpus / name).write_bytes(b"kept")
        assert main(["corpus", str(corpus), "--implementations", "reno",
                     "--per-implementation", "1", "--size", "10240"]) == 0
        assert sorted(p.name for p in corpus.iterdir()) == sorted(
            others + ["reno-0000-receiver.pcap", "reno-0000-sender.pcap"])

    def test_corpus_traces_readable(self, tmp_path):
        main(["corpus", str(tmp_path / "corpus"),
              "--per-implementation", "1", "--size", "10240"])
        from repro.trace.pcap import read_pcap
        pcap = next((tmp_path / "corpus").glob("reno*-sender.pcap"), None)
        if pcap is None:   # reno itself is not in CORE_STUDY; any works
            pcap = next((tmp_path / "corpus").glob("*-sender.pcap"))
        trace = read_pcap(pcap)
        assert len(trace) > 0


class TestBatchCommand:
    @pytest.fixture(scope="class")
    def corpus_dir(self, tmp_path_factory):
        outdir = tmp_path_factory.mktemp("batch-corpus")
        assert main(["corpus", str(outdir), "--implementations",
                     "reno,linux-1.0", "--per-implementation", "1",
                     "--size", "10240"]) == 0
        return outdir

    def test_reports_aggregate(self, corpus_dir, capsys):
        assert main(["batch", str(corpus_dir)]) == 0
        out = capsys.readouterr().out
        assert "batch aggregate" in out
        assert "traces analyzed: 4" in out
        assert "best-fit accuracy" in out

    def test_jsonl_identical_across_job_counts(self, corpus_dir, tmp_path,
                                               capsys):
        seq = tmp_path / "seq.jsonl"
        par = tmp_path / "par.jsonl"
        assert main(["batch", str(corpus_dir), "--jobs", "1",
                     "--jsonl", str(seq)]) == 0
        assert main(["batch", str(corpus_dir), "--jobs", "2",
                     "--jsonl", str(par)]) == 0
        assert seq.read_bytes() == par.read_bytes()

    def test_warm_resume_reports_all_resumed(self, corpus_dir, tmp_path,
                                             capsys):
        journal = str(tmp_path / "j.jsonl")
        assert main(["batch", str(corpus_dir), "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "jobs: 1; analyzed 4 item(s)\n" in out
        assert main(["batch", str(corpus_dir), "--journal", journal,
                     "--resume"]) == 0
        assert "jobs: 1; analyzed 0 item(s); resumed 4 item(s) from " \
            "journal\n" in capsys.readouterr().out

    def test_resume_without_journal_exits_2(self, corpus_dir, capsys):
        assert main(["batch", str(corpus_dir), "--no-journal",
                     "--resume"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--no-journal" in captured.err

    def test_interrupt_without_journal_has_no_resume_hint(
            self, corpus_dir, monkeypatch, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.pipeline.run_batch", interrupted)
        assert main(["batch", str(corpus_dir), "--no-journal"]) == 130
        assert capsys.readouterr().err == "tcpanaly: interrupted\n"

    def test_empty_directory_exits_2(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path)]) == 2
        assert "no .pcap traces" in capsys.readouterr().err

    def test_damaged_trace_does_not_abort_the_run(self, corpus_dir,
                                                  tmp_path, capsys):
        import shutil
        mixed = tmp_path / "mixed"
        shutil.copytree(corpus_dir, mixed)
        (mixed / "bad.pcap").write_bytes(b"garbage")
        assert main(["batch", str(mixed)]) == 0
        out = capsys.readouterr().out
        assert "traces analyzed: 4" in out
        assert "unanalyzable traces: 1" in out
        assert "bad.pcap" in out

    def test_unknown_corpus_implementation_exits_2(self, tmp_path, capsys):
        assert main(["corpus", str(tmp_path / "c"),
                     "--implementations", "renoo"]) == 2
        err = capsys.readouterr().err
        assert "unknown implementation" in err
        assert "renoo" in err


class TestDemuxCommand:
    @pytest.fixture(scope="class")
    def multi_pcap(self, tmp_path_factory):
        from repro.harness.corpus import generate_interleaved_capture
        from repro.trace.pcap import write_pcap
        capture = generate_interleaved_capture(
            implementations=["reno", "linux-1.0"], connections=4,
            distinct_transfers=2, data_size=10240,
            scenarios=("wan",), start_interval=0.2)
        path = tmp_path_factory.mktemp("demux") / "multi.pcap"
        write_pcap(capture.trace, path)
        return str(path)

    def test_one_report_per_connection(self, multi_pcap, capsys):
        assert main(["demux", multi_pcap]) == 0
        out = capsys.readouterr().out
        assert "4 connection(s) demultiplexed" in out
        assert "flow-0000" in out and "flow-0003" in out
        assert "tcpanaly report" in out

    def test_ingest_stats_printed(self, multi_pcap, capsys):
        assert main(["demux", multi_pcap]) == 0
        out = capsys.readouterr().out
        assert "ingest:" in out
        assert "flows: 4 opened, 4 retired" in out

    def test_jsonl_output(self, multi_pcap, tmp_path, capsys):
        jsonl = tmp_path / "flows.jsonl"
        assert main(["demux", multi_pcap, "--jsonl", str(jsonl)]) == 0
        lines = [json.loads(line)
                 for line in jsonl.read_text().splitlines()]
        assert len(lines) == 4
        assert all("flow" in line and "calibration" in line
                   for line in lines)

    def test_jsonl_lines_are_flow_payloads(self, multi_pcap, tmp_path,
                                           capsys):
        jsonl = tmp_path / "flows.jsonl"
        assert main(["demux", multi_pcap, "--jsonl", str(jsonl)]) == 0
        expected = [
            json.dumps(flow_payload(flow_report,
                                    f"{multi_pcap}#{flow_report.name}"),
                       sort_keys=True)
            for flow_report in analyze_stream(multi_pcap)]
        lines = jsonl.read_text().splitlines()
        assert lines == expected
        for line in map(json.loads, lines):
            assert line["implementation"] is None
            assert line["records"] == line["flow"]["records"]

    def test_identify_ranks_per_flow(self, multi_pcap, capsys):
        assert main(["demux", multi_pcap, "--identify"]) == 0
        assert "implementation identification" in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["demux", str(tmp_path / "missing.pcap")]) == 2
        assert "tcpanaly:" in capsys.readouterr().err


class TestBatchStream:
    @pytest.fixture(scope="class")
    def corpus_dir(self, tmp_path_factory):
        outdir = tmp_path_factory.mktemp("stream-corpus")
        assert main(["corpus", str(outdir), "--implementations",
                     "reno,linux-1.0", "--per-implementation", "1",
                     "--size", "10240"]) == 0
        return outdir

    def test_stream_matches_eager_aggregate(self, corpus_dir, capsys):
        assert main(["batch", str(corpus_dir)]) == 0
        eager = capsys.readouterr().out
        assert main(["batch", str(corpus_dir), "--stream"]) == 0
        streamed = capsys.readouterr().out
        pick = [line for line in eager.splitlines()
                if "accuracy" in line or "close-set" in line]
        assert pick == [line for line in streamed.splitlines()
                        if "accuracy" in line or "close-set" in line]
        assert "streaming ingest (4 capture(s))" in streamed

    def test_stream_resume_separate_from_eager(self, corpus_dir, tmp_path,
                                               capsys):
        journal = str(tmp_path / "j.jsonl")
        assert main(["batch", str(corpus_dir), "--journal", journal]) == 0
        capsys.readouterr()
        assert main(["batch", str(corpus_dir), "--journal", journal,
                     "--stream", "--resume"]) == 0
        assert "jobs: 1; analyzed 4 item(s)\n" in capsys.readouterr().out
        assert main(["batch", str(corpus_dir), "--journal", journal,
                     "--stream", "--resume"]) == 0
        assert "jobs: 1; analyzed 0 item(s); resumed 4 item(s) from " \
            "journal\n" in capsys.readouterr().out

    def test_stream_jsonl_carries_flow_and_ingest(self, corpus_dir,
                                                  tmp_path, capsys):
        import json
        jsonl = tmp_path / "stream.jsonl"
        assert main(["batch", str(corpus_dir), "--stream",
                     "--jsonl", str(jsonl)]) == 0
        lines = [json.loads(line)
                 for line in jsonl.read_text().splitlines()]
        assert len(lines) == 4
        assert all("ingest" in line and "flow" in line for line in lines)


class TestStartup:
    @pytest.mark.parametrize("mode", [[], ["--stream"]])
    def test_batch_parent_loads_neither_numpy_nor_the_analyzer(
            self, tmp_path, mode):
        """A `--jobs 2` parent only schedules work and moves result
        lines: its workers load numpy and the analyzer, it never does
        (a module once imported stays in ``sys.modules``)."""
        transfer = cached_transfer("reno", "wan", data_size=10240)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_pcap(transfer.sender_trace, corpus / "reno-0000-sender.pcap")
        write_pcap(transfer.receiver_trace,
                   corpus / "reno-0000-receiver.pcap")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        probe = ("import sys; from repro.cli import main; "
                 "code = main(sys.argv[1:]); "
                 "print(code, *sorted(m for m in sys.modules if m in "
                 "('numpy', 'repro.core', 'repro.stream')))")
        run = subprocess.run(
            [sys.executable, "-c", probe, "batch", str(corpus), "--jobs",
             "2", "--no-journal", *mode],
            env=env, capture_output=True, text=True, check=True)
        *report, loaded = run.stdout.splitlines()
        assert "traces analyzed: 2 (1 sender-side, 1 receiver-side)" \
            in report
        assert loaded.split() == ["0"]

    def test_import_loads_neither_serve_nor_analysis(self):
        """`batch` and friends start without the daemon stack or the
        plot code: each command imports those when it runs."""
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        probe = ("import sys, repro.cli; print(*sorted(m for m in "
                 "sys.modules if m.startswith(('repro.serve', "
                 "'repro.analysis'))))")
        loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert loaded.stdout.split() == []

    def test_batch_path_loads_no_simulator(self):
        """The CLI, its parser and the batch and stream pipelines
        analyze traces without the network simulator behind them."""
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        probe = ("import sys, repro.cli; repro.cli.build_parser(); "
                 "import repro.pipeline, repro.stream; "
                 "print(*sorted(m for m in sys.modules if m.startswith(("
                 "'repro.netsim', 'repro.capture', 'repro.tcp.connection', "
                 "'repro.harness.probing'))))")
        loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert loaded.stdout.split() == []


class TestErrorPaths:
    def test_analyze_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "missing.pcap")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("tcpanaly:")
        assert err.count("\n") == 1

    def test_identify_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["identify", str(tmp_path / "missing.pcap")]) == 2
        assert "tcpanaly:" in capsys.readouterr().err

    def test_stats_non_pcap_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.pcap"
        bogus.write_bytes(b"definitely not a pcap capture file")
        assert main(["stats", str(bogus)]) == 2
        assert "unrecognized pcap magic" in capsys.readouterr().err


class TestStatsCommand:
    def test_reports_connection_numbers(self, pcap_pair, capsys):
        sender, _ = pcap_pair
        assert main(["stats", sender]) == 0
        out = capsys.readouterr().out
        assert "1 connection(s)" in out
        assert "20480 unique bytes" in out
        assert "rtt" in out

    @staticmethod
    def expected_output(path, connections):
        blocks = [f"{len(connections)} connection(s) in {path}"]
        blocks += [connection_stats(Trace(records=records)).render()
                   for records in connections]
        return "\n\n".join(blocks) + "\n"

    def test_clean_capture_builds_no_records(self, tmp_path, capsys,
                                             record_builds):
        from repro.harness.corpus import generate_interleaved_capture

        capture = generate_interleaved_capture(
            ["reno", "linux-1.0"], connections=4,
            scenarios=("wan", "wan-lossy"), data_size=8192)
        path = tmp_path / "clean.pcap"
        write_pcap(capture.trace, path)
        record_builds.clear()         # count only what ``stats`` builds
        assert main(["stats", str(path)]) == 0
        assert capsys.readouterr().out.startswith("4 connection(s)")
        assert record_builds == []

    def test_two_connections_listed_with_their_records(self, tmp_path,
                                                       capsys):
        capture = interleave_traces(
            [cached_transfer("reno").sender_trace,
             cached_transfer("linux-1.0").sender_trace],
            ["reno", "linux-1.0"], start_interval=0.3)
        path = tmp_path / "two.pcap"
        write_pcap(capture.trace, path)
        records = read_pcap(path).records
        truth = [[r for r in records
                  if flow.client.port in (r.src.port, r.dst.port)]
                 for flow in capture.flows]
        assert [len(c) for c in truth] \
            == [flow.records for flow in capture.flows]
        assert main(["stats", str(path)]) == 0
        assert capsys.readouterr().out == self.expected_output(path, truth)

    def test_connection_without_syn_still_listed(self, tmp_path, capsys):
        trace = cached_transfer("reno").sender_trace
        path = tmp_path / "no-syn.pcap"
        write_pcap(Trace(records=[r for r in trace.records
                                  if not r.is_syn]), path)
        assert main(["stats", str(path)]) == 0
        assert capsys.readouterr().out \
            == self.expected_output(path, [read_pcap(path).records])

    def test_reused_four_tuple_is_two_connections(self, tmp_path, capsys):
        records = cached_transfer("reno").sender_trace.records
        last = records[-1]
        reset = replace(last, src=last.dst, dst=last.src,
                        timestamp=last.timestamp + 0.01,
                        flags=RST, payload=0)
        first = records + [reset]
        again = [replace(r, timestamp=r.timestamp + reset.timestamp + 1.0)
                 for r in records]
        path = tmp_path / "reused.pcap"
        write_pcap(Trace(records=first + again), path)
        read_back = read_pcap(path).records
        truth = [read_back[:len(first)], read_back[len(first):]]
        assert main(["stats", str(path)]) == 0
        assert capsys.readouterr().out == self.expected_output(path, truth)


class TestIdentifyReceiver:
    def test_receiver_mode_ranks_policies(self, pcap_pair, capsys):
        _, receiver = pcap_pair
        assert main(["identify", receiver, "--receiver"]) == 0
        out = capsys.readouterr().out
        assert "acking-policy close fits" in out
        assert "reno" in out


class TestFuzzCommand:
    def test_small_sweep_passes(self, capsys):
        assert main(["fuzz", "--seed", "0", "--count", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 scenarios from seed 0 -> PASS" in out

    def test_verbose_prints_each_scenario(self, capsys):
        assert main(["fuzz", "--seed", "0", "--count", "1",
                     "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "ok   seed=0" in out
        assert "-> " in out

    def test_rejects_non_positive_count(self, capsys):
        assert main(["fuzz", "--count", "0"]) == 2
        assert "--count" in capsys.readouterr().err

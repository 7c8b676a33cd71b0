"""Ctrl-C during a batch run: clean exit 130, resumable journal.

Runs the real CLI in a subprocess and delivers a real SIGINT mid-batch,
because KeyboardInterrupt handling cannot be faithfully exercised
in-process (pytest would catch it first).
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness.corpus import interleave_traces, write_corpus
from repro.trace.pcap import read_pcap, write_pcap

# Big enough that analyzing the whole corpus takes several seconds —
# the interrupt must land while the batch is genuinely mid-flight.
# Copies are cheap to make; scale them with the analyzer's speed.
TRACE_BYTES = 786432
COPIES = 32
# demux analyzes one connection in well under a second; interleave
# several so the interrupt lands mid-analysis, not after it.
DEMUX_CONNECTIONS = 16


def run_cli(args, **kwargs):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, **kwargs)


@pytest.fixture(scope="module")
def slow_corpus(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("interrupt-corpus")
    write_corpus(outdir, implementations=["reno"],
                 traces_per_implementation=1, data_size=TRACE_BYTES)
    donor = sorted(outdir.glob("*-sender.pcap"))[0]
    for extra in range(COPIES - 1):
        shutil.copy(donor, outdir / f"reno-{extra + 1:04d}-sender.pcap")
    for receiver in outdir.glob("*-receiver.pcap"):
        receiver.unlink()
    return outdir


@pytest.fixture(scope="module")
def slow_capture(slow_corpus, tmp_path_factory):
    donor = read_pcap(sorted(slow_corpus.glob("*.pcap"))[0])
    capture = interleave_traces([donor] * DEMUX_CONNECTIONS,
                                ["reno"] * DEMUX_CONNECTIONS)
    path = tmp_path_factory.mktemp("interrupt-capture") / "multi.pcap"
    write_pcap(capture.trace, path)
    return path


class TestBatchInterrupt:
    def test_sigint_exits_130_with_resume_hint(self, slow_corpus, tmp_path):
        out = tmp_path / "out.jsonl"
        journal = tmp_path / "journal.jsonl"
        proc = run_cli(["batch", str(slow_corpus), "--jsonl", str(out),
                        "--jobs", "2", "--journal", str(journal)])
        time.sleep(1.5)
        assert proc.poll() is None, \
            "batch finished before the interrupt landed; corpus too small"
        proc.send_signal(signal.SIGINT)
        _stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 130
        assert "interrupted" in stderr
        assert "resume with --resume" in stderr
        assert "Traceback" not in stderr

        # The journal checkpointed some completed work before the
        # interrupt, and a --resume run finishes the rest cleanly.
        completed = max(len(journal.read_text().splitlines()) - 1, 0)
        resumed = run_cli(["batch", str(slow_corpus), "--jsonl", str(out),
                           "--jobs", "2", "--journal", str(journal),
                           "--resume"])
        stdout, stderr = resumed.communicate(timeout=300)
        assert resumed.returncode == 0, stderr
        if completed:
            assert f"resuming from {journal}: {completed} item(s)" in stdout
            assert f"resumed {completed} item(s) from journal" in stdout
        lines = out.read_text().splitlines()
        assert len(lines) == COPIES
        assert all("error" not in json.loads(line) for line in lines)

    def test_interrupt_outside_batch_has_no_resume_hint(self, slow_capture):
        proc = run_cli(["demux", str(slow_capture), "--identify"])
        time.sleep(1.5)
        if proc.poll() is not None:
            pytest.skip("demux finished before the interrupt landed")
        proc.send_signal(signal.SIGINT)
        _stdout, stderr = proc.communicate(timeout=60)
        startup_casualty = proc.returncode == -signal.SIGINT \
            or "KeyboardInterrupt" in stderr
        if proc.returncode != 130 and startup_casualty \
                and "interrupted" not in stderr:
            # On a loaded machine 1.5s can still be interpreter
            # startup: the CLI's clean-exit handling wasn't reached
            # (default disposition kill, rc -SIGINT, or a bare
            # KeyboardInterrupt traceback mid-import).
            pytest.skip("interrupt landed during interpreter startup")
        assert proc.returncode == 130
        assert "interrupted" in stderr
        assert "--resume" not in stderr
        assert "Traceback" not in stderr

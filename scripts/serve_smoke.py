#!/usr/bin/env python
"""End-to-end smoke test for ``tcpanaly serve`` — the CI gate.

Drives the real CLI in a subprocess the way an operator would:

1. start the daemon against a capture file that does not exist yet,
   with the stats endpoint on an ephemeral port;
2. poll ``/readyz`` until the daemon reports ready;
3. append a staggered multi-connection capture in 4 KiB chunks, so
   early connections retire (stream-clock idle timeout) while the
   file is still growing;
4. wait for an *identified* flow to appear in the JSONL sink — live
   analysis, no end-of-capture finalize involved;
5. check ``/stats`` serves a sane snapshot, its per-flow rolling
   aggregates included;
6. SIGTERM, and require a clean drain: exit code 0, the drain banner
   on stdout, no traceback on stderr.

Exits 0 on success, 1 with a diagnostic on any failure or timeout.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHUNK = 4096
DEADLINE = 120.0


def fail(message: str, proc: subprocess.Popen | None = None) -> None:
    print(f"serve_smoke: FAIL — {message}", file=sys.stderr)
    if proc is not None:
        if proc.poll() is None:
            proc.kill()
        try:
            # Forked analysis workers can inherit the pipes; don't let
            # them turn a diagnostic dump into a hang.
            stdout, stderr = proc.communicate(timeout=10)
            print("---- daemon stdout ----\n" + stdout, file=sys.stderr)
            print("---- daemon stderr ----\n" + stderr, file=sys.stderr)
        except subprocess.TimeoutExpired:
            print("(daemon output unavailable: pipes still held open)",
                  file=sys.stderr)
    sys.exit(1)


def wait_until(condition, timeout: float, what: str, proc=None):
    start = time.monotonic()
    while time.monotonic() - start < timeout:
        result = condition()
        if result:
            return result
        if proc is not None and proc.poll() is not None:
            fail(f"daemon exited (rc {proc.returncode}) while waiting "
                 f"for {what}", proc)
        time.sleep(0.1)
    fail(f"timed out after {timeout:.0f}s waiting for {what}", proc)


def http_ok(url: str) -> bool:
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status == 200
    except (urllib.error.URLError, ConnectionError, OSError):
        return False


def make_capture_bytes(workdir: Path) -> bytes:
    """A 3-connection capture staggered 80s apart: connections go
    idle long past the flow table's 64s timeout while later records
    are still arriving, so flows retire (and get analyzed) live."""
    from repro.harness.corpus import generate_interleaved_capture
    from repro.trace.pcap import write_pcap

    capture = generate_interleaved_capture(
        implementations=["reno"], connections=3, scenarios=("wan",),
        data_size=16384, start_interval=80.0)
    donor = workdir / "donor.pcap"
    write_pcap(capture.trace, donor)
    return donor.read_bytes()


def identified_lines(sink: Path) -> list[dict]:
    if not sink.exists():
        return []
    lines = []
    for line in sink.read_text().splitlines():
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            continue               # torn trailing line mid-append
        identification = payload.get("identification") or {}
        if "error_kind" not in payload \
                and identification.get("best_category") == "close":
            lines.append(payload)
    return lines


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    data = make_capture_bytes(workdir)
    grow = workdir / "grow.pcap"
    out = workdir / "out"
    grow.write_bytes(b"")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", str(grow),
         "--out", str(out), "--jobs", "2", "--http", "0",
         "--poll", "0.05"],
        cwd=REPO, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)

    # 1. The daemon announces its ephemeral port, then reports ready.
    port_file = out / "http.port"
    wait_until(port_file.exists, 30.0, "http.port announcement", proc)
    port = int(port_file.read_text().strip())
    base_url = f"http://127.0.0.1:{port}"
    wait_until(lambda: http_ok(f"{base_url}/readyz"), 30.0,
               "/readyz to return 200", proc)
    print(f"serve_smoke: daemon ready on port {port}")

    # 2. Grow the capture under the daemon, 4 KiB at a time.
    for start in range(0, len(data), CHUNK):
        with open(grow, "ab") as handle:
            handle.write(data[start:start + CHUNK])
        time.sleep(0.01)
    print(f"serve_smoke: appended {len(data)} bytes")

    # 3. Live analysis: an identified flow lands in the sink while the
    # daemon is still running (no finalize, no idle exit).
    sink = out / "results" / "grow.pcap.jsonl"
    lines = wait_until(lambda: identified_lines(sink), DEADLINE,
                       "an identified flow in the sink", proc)
    best = lines[0]["identification"]["best"]
    print(f"serve_smoke: {len(lines)} identified flow(s) in sink, "
          f"first: {lines[0]['trace']} -> {best}")

    # 4. The stats endpoint serves a coherent snapshot.
    with urllib.request.urlopen(f"{base_url}/stats", timeout=5) as resp:
        stats = json.loads(resp.read())
    for section in ("counters", "gauges", "rolling"):
        if section not in stats:
            fail(f"/stats snapshot missing {section!r}: {stats}", proc)
    if stats["counters"]["sink_lines"] < 1:
        fail(f"/stats reports no sink lines: {stats['counters']}", proc)
    # The per-flow rolling aggregates, fed as each retired flow is
    # submitted.
    rolling = stats["rolling"]
    if rolling["retransmission_samples"] < 1 or not rolling["close_reasons"]:
        fail(f"/stats rolling aggregates empty: {rolling}", proc)
    print(f"serve_smoke: /stats ok — {stats['counters']}")

    # 5. The Prometheus endpoint agrees with /stats and reports the
    # governor healthy.
    with urllib.request.urlopen(f"{base_url}/metrics", timeout=5) as resp:
        content_type = resp.headers.get("Content-Type", "")
        metrics = resp.read().decode()
    if not content_type.startswith("text/plain"):
        fail(f"/metrics content type {content_type!r}", proc)
    sink_total = next(
        (int(line.split()[-1]) for line in metrics.splitlines()
         if line.startswith("tcpanaly_serve_sink_lines_total ")), None)
    if sink_total is None or sink_total < stats["counters"]["sink_lines"]:
        fail(f"/metrics sink_lines_total {sink_total!r} behind /stats "
             f"{stats['counters']['sink_lines']}", proc)
    for needle in ('tcpanaly_serve_health_state{state="healthy"} 1',
                   "# TYPE tcpanaly_serve_flows_completed_total counter"):
        if needle not in metrics:
            fail(f"/metrics missing {needle!r}:\n{metrics}", proc)
    print(f"serve_smoke: /metrics ok — "
          f"{len(metrics.splitlines())} exposition lines")

    # 6. SIGTERM drains cleanly.
    proc.send_signal(signal.SIGTERM)
    try:
        stdout, stderr = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        fail("daemon did not exit within 60s of SIGTERM", proc)
    if proc.returncode != 0:
        print(stderr, file=sys.stderr)
        fail(f"daemon exited {proc.returncode} after SIGTERM")
    if "tcpanaly serve: drained" not in stdout:
        fail(f"drain banner missing from stdout:\n{stdout}")
    if "Traceback" in stderr:
        fail(f"traceback on stderr:\n{stderr}")
    print("serve_smoke: PASS — clean drain after SIGTERM")


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    main()

"""The JSONL sink: per-source files, cross-restart duplicate dropping."""

import errno
import json
import os

from repro.pipeline.lines import PayloadLine, encode_payload
from repro.serve import JsonlSink


def payload(name: str, **extra) -> PayloadLine:
    return encode_payload({"trace": name, "implementation": "reno",
                           **extra})


class TestJsonlSink:
    def test_writes_sorted_jsonl_per_source(self, tmp_path):
        sink = JsonlSink(tmp_path)
        wrote = sink.write("cap.pcap", [payload("cap.pcap#flow-0000"),
                                        payload("cap.pcap#flow-0001")])
        sink.close()
        assert wrote == 2
        lines = (tmp_path / "cap.pcap.jsonl").read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["trace"] == "cap.pcap#flow-0000"
        # Key-sorted, same as write_jsonl / batch --stream output.
        assert lines[0] == json.dumps(first, sort_keys=True)

    def test_duplicate_offers_are_dropped_in_process(self, tmp_path):
        sink = JsonlSink(tmp_path)
        assert sink.write("s", [payload("s#flow-0000")]) == 1
        assert sink.write("s", [payload("s#flow-0000")]) == 0
        sink.close()
        assert len((tmp_path / "s.jsonl").read_text().splitlines()) == 1

    def test_duplicates_dropped_across_restart(self, tmp_path):
        first = JsonlSink(tmp_path)
        first.write("s", [payload("s#flow-0000")])
        first.close()
        second = JsonlSink(tmp_path)
        assert "s#flow-0000" in second
        assert second.write("s", [payload("s#flow-0000"),
                                  payload("s#flow-0001")]) == 1
        second.close()
        names = [json.loads(line)["trace"]
                 for line in (tmp_path / "s.jsonl").read_text().splitlines()]
        assert names == ["s#flow-0000", "s#flow-0001"]

    def test_torn_trailing_line_is_tolerated_on_restart(self, tmp_path):
        first = JsonlSink(tmp_path)
        first.write("s", [payload("s#flow-0000")])
        first.close()
        # Simulate a hard kill mid-write: a torn, unparseable tail.
        with open(tmp_path / "s.jsonl", "a") as handle:
            handle.write('{"trace": "s#flow-0001", "implem')
        second = JsonlSink(tmp_path)
        assert "s#flow-0000" in second
        # The torn line never parsed, so that flow is NOT deduped —
        # its journal replay re-offers it and it lands whole.
        assert second.write("s", [payload("s#flow-0001")]) == 1
        second.close()


class FlakyDisk:
    """Fault hook: raise ENOSPC while ``broken``; count calls."""

    def __init__(self):
        self.broken = False
        self.calls = 0

    def __call__(self, source: str) -> None:
        self.calls += 1
        if self.broken:
            raise OSError(errno.ENOSPC, "No space left on device")


class TestSinkDegradation:
    def test_enospc_parks_instead_of_raising(self, tmp_path):
        disk = FlakyDisk()
        sink = JsonlSink(tmp_path, fault_hook=disk)
        disk.broken = True
        assert sink.write("s", [payload("s#flow-0000")]) == 0
        assert sink.degraded and sink.failing
        assert sink.parked == 1
        assert sink.write_errors == 1
        assert sink.last_error.errno == errno.ENOSPC
        sink.close()

    def test_later_writes_queue_behind_a_parked_payload(self, tmp_path):
        disk = FlakyDisk()
        sink = JsonlSink(tmp_path, fault_hook=disk)
        disk.broken = True
        sink.write("s", [payload("s#flow-0000")])
        disk.broken = False
        # Order must hold: flow-0001 may not overtake parked flow-0000.
        assert sink.write("s", [payload("s#flow-0001")]) == 0
        assert sink.parked == 2
        assert sink.flush_parked() == 2
        assert not sink.degraded and not sink.failing
        sink.close()
        names = [json.loads(line)["trace"] for line in
                 (tmp_path / "s.jsonl").read_text().splitlines()]
        assert names == ["s#flow-0000", "s#flow-0001"]

    def test_flush_stops_at_the_first_failure(self, tmp_path):
        disk = FlakyDisk()
        sink = JsonlSink(tmp_path, fault_hook=disk)
        disk.broken = True
        sink.write("s", [payload("s#flow-0000"), payload("s#flow-0001")])
        assert sink.flush_parked() == 0
        assert sink.parked == 2
        sink.close()

    def test_park_dedupes_and_flushes_once(self, tmp_path):
        sink = JsonlSink(tmp_path)
        sink.write("s", [payload("s#flow-0000")])
        line = payload("s#flow-0000")
        assert sink.park("s", [line]) == 0        # already durable
        fresh = payload("s#flow-0001")
        assert sink.park("s", [fresh]) == 1
        assert sink.park("s", [fresh]) == 0       # identity dedupe
        assert sink.degraded and not sink.failing  # parked by choice
        assert sink.flush_parked() == 1
        sink.close()
        lines = (tmp_path / "s.jsonl").read_text().splitlines()
        assert len(lines) == 2

    def test_torn_tail_is_repaired_before_the_next_append(self, tmp_path):
        sink = JsonlSink(tmp_path)
        sink.write("s", [payload("s#flow-0000")])
        sink.close()
        # A failed append leaves a torn fragment with no newline.
        with open(tmp_path / "s.jsonl", "a") as handle:
            handle.write('{"trace": "s#flow-9999", "half')
        sink = JsonlSink(tmp_path)
        sink._dirty.add("s")
        sink.write("s", [payload("s#flow-0001")])
        sink.close()
        lines = (tmp_path / "s.jsonl").read_text().splitlines()
        # Fragment terminated on its own line; both real lines parse.
        parsed = []
        for line in lines:
            try:
                parsed.append(json.loads(line)["trace"])
            except json.JSONDecodeError:
                pass
        assert parsed == ["s#flow-0000", "s#flow-0001"]

    def test_fsync_flag_still_writes_plain_lines(self, tmp_path):
        sink = JsonlSink(tmp_path, fsync=True)
        assert sink.write("s", [payload("s#flow-0000")]) == 1
        sink.close()
        line = (tmp_path / "s.jsonl").read_text()
        assert json.loads(line)["trace"] == "s#flow-0000"

    def test_recovery_probe_clears_failing(self, tmp_path):
        disk = FlakyDisk()
        sink = JsonlSink(tmp_path, fault_hook=disk)
        disk.broken = True
        sink.write("s", [payload("s#flow-0000")])
        assert sink.failing
        disk.broken = False
        sink.flush_parked()
        assert not sink.failing
        sink.close()

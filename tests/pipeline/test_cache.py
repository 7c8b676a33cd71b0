"""Result-cache keying and durability."""

import json

from repro.pipeline.cache import ResultCache, file_digest, trace_digest
from repro.pipeline.lines import encode_payload
from repro.tcp.catalog import catalog_version

from tests.conftest import cached_transfer


def _text(payload: dict) -> str:
    return encode_payload(payload).line


class TestDigests:
    def test_trace_digest_stable(self):
        trace = cached_transfer("reno", data_size=10240).sender_trace
        assert trace_digest(trace) == trace_digest(trace)

    def test_trace_digest_distinguishes_traces(self):
        transfer = cached_transfer("reno", data_size=10240)
        assert trace_digest(transfer.sender_trace) \
            != trace_digest(transfer.receiver_trace)

    def test_file_digest_tracks_content(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"hello")
        first = file_digest(path)
        path.write_bytes(b"hello, world")
        assert file_digest(path) != first


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("abc", _text({"trace": "x.pcap", "records": 3}))
        assert cache.get("abc") == {"trace": "x.pcap", "records": 3}

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("nope") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("abc", _text({"ok": True}))
        entry = next((tmp_path / "cache").glob("*.json"))
        entry.write_text("{not json")
        assert cache.get("abc") is None

    def test_key_embeds_catalog_version(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.catalog_version == catalog_version()
        # Same content digest under a different catalog keys elsewhere.
        cache.put("abc", _text({"ok": True}))
        cache.catalog_version = "0" * 16
        assert cache.get("abc") is None

    def test_entries_are_plain_json_files(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("abc", _text({"b": 2, "a": 1}))
        entry = next((tmp_path / "cache").glob("*.json"))
        assert json.loads(entry.read_text()) == {"a": 1, "b": 2}
        assert len(cache) == 1

    def test_failed_put_leaves_no_scratch_file(self, tmp_path):
        import pytest
        cache = ResultCache(tmp_path / "cache")
        cache.put("abc", _text({"ok": True}))
        before = sorted(p.name for p in (tmp_path / "cache").iterdir())
        with pytest.raises(TypeError):
            cache.put("def", object())  # not writable text
        # The aborted put left the cache directory exactly as it was:
        # no entry for "def" and, crucially, no stranded .tmp* scratch.
        assert sorted(p.name for p in (tmp_path / "cache").iterdir()) \
            == before
        assert cache.get("def") is None

"""Payload lines: assembled bytes equal whole-object encodes, and the
parent process never encodes or parses what a worker produced."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.corpus import generate_interleaved_capture, write_corpus
from repro.pipeline import (
    BatchJournal,
    aggregate_report,
    corpus_items,
    encode_payload,
    run_batch,
)
from repro.pipeline.lines import json_object, parent_fields
from repro.pipeline.runner import TraceResult
from repro.serve import ServeConfig, ServeDaemon
from repro.trace.pcap import write_pcap

_scalars = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False)
            | st.sampled_from([-0.0, 1e-300, 2.5e300, 1e16, -3.0e-7])
            | st.text())
_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12)
_payloads = st.dictionaries(st.text(max_size=8), _values, max_size=6)


class TestAssembledBytes:
    @settings(max_examples=60, deadline=None)
    @given(name=st.text(), digest=st.text(),
           payloads=st.lists(_payloads, max_size=4))
    def test_journal_entry_equals_whole_encode(self, name, digest,
                                               payloads):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "j.jsonl"
            with BatchJournal(path) as journal:
                journal.record(name, digest,
                               [encode_payload(p) for p in payloads])
            entry = path.read_text().split("\n")[1]
        assert entry == json.dumps({"name": name, "digest": digest,
                                    "payloads": payloads}, sort_keys=True)

    @settings(max_examples=100, deadline=None)
    @given(payload=_payloads)
    def test_member_wise_encode_equals_whole_encode(self, payload):
        # analyze_item_stream's shape: each member encoded on its own.
        members = [(key, json.dumps(value, sort_keys=True))
                   for key, value in payload.items()]
        assert json_object(members) == json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("lines-corpus")
    write_corpus(outdir, implementations=["reno", "linux-1.0"],
                 traces_per_implementation=1, data_size=10240)
    (outdir / "garbage.pcap").write_bytes(b"not a capture")
    return outdir


@pytest.fixture(scope="module")
def capture_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("lines-capture")
    for name, stacks in (("multi.pcap", ["reno", "tahoe"]),
                         ("other.pcap", ["linux-1.0"])):
        capture = generate_interleaved_capture(
            stacks, connections=3, scenarios=("wan",), data_size=8192)
        write_pcap(capture.trace, outdir / name)
    return outdir


class TestParentFields:
    @pytest.mark.parametrize("stream", [False, True])
    def test_aggregate_reads_nothing_outside_the_fields(
            self, corpus_dir, capture_dir, stream):
        items = corpus_items(capture_dir if stream else corpus_dir)
        batch = run_batch(items, jobs=1, stream=stream)
        whole = [TraceResult(r.name, r.line, r.payload)
                 for r in batch.results]
        assert aggregate_report(batch) == aggregate_report(
            type(batch)(results=whole, jobs=batch.jobs,
                        wall_time=batch.wall_time,
                        analyzed=batch.analyzed))

    def test_fields_keep_the_payload_shape(self):
        payload = {"trace": "t", "implementation": None, "records": 3,
                   "identification": {"best": "reno",
                                      "best_category": "close",
                                      "fits": [{"implementation": "reno"}]},
                   "receiver_identification": None}
        fields = parent_fields(payload)
        assert fields == {"trace": "t", "implementation": None,
                          "identification": {"best": "reno",
                                             "best_category": "close"},
                          "receiver_identification": None}


class _JsonCalls:
    """Every object the process's JSON encoder and decoder receive."""

    def __init__(self, monkeypatch):
        self.encoded: list = []
        self.decoded: list = []
        encode, decode = json.JSONEncoder.encode, json.JSONDecoder.decode

        def recording_encode(encoder, obj):
            self.encoded.append(obj)
            return encode(encoder, obj)

        def recording_decode(decoder, text, *args, **kwargs):
            self.decoded.append(text)
            return decode(decoder, text, *args, **kwargs)

        monkeypatch.setattr(json.JSONEncoder, "encode", recording_encode)
        monkeypatch.setattr(json.JSONDecoder, "decode", recording_decode)

    def payloads_encoded(self) -> list:
        return [obj for obj in self.encoded
                if isinstance(obj, (dict, list))
                and (isinstance(obj, list) or "trace" in obj)]


class TestParentMovesBytes:
    """A clock-free work count: in the parent, the JSON encoder sees
    only names, digests and headers, and the decoder nothing at all.
    Workers are forked, so what they encode is not counted here."""

    @pytest.mark.parametrize("stream", [False, True])
    def test_batch_parent_never_encodes_or_parses_a_payload(
            self, corpus_dir, capture_dir, stream, tmp_path, monkeypatch):
        items = corpus_items(capture_dir if stream else corpus_dir)
        calls = _JsonCalls(monkeypatch)
        journal = BatchJournal(tmp_path / "j.jsonl", stream=stream)
        batch = run_batch(items, jobs=2, stream=stream, timeout=60.0,
                          journal=journal)
        journal.close()
        assert len(batch.results) >= 3
        assert calls.payloads_encoded() == []
        assert calls.decoded == []
        # ... while the parent still wrote every payload's line.
        assert len(calls.encoded) > 0
        entries = (tmp_path / "j.jsonl").read_text().splitlines()[1:]
        assert sum(len(json.loads(e)["payloads"]) for e in entries) \
            == len(batch.results)

    def test_serve_parent_never_encodes_or_parses_a_payload(
            self, capture_dir, tmp_path, monkeypatch):
        out = tmp_path / "out"
        capture = capture_dir / "multi.pcap"
        config = ServeConfig(out_dir=out, captures=[capture], workers=2,
                             exit_when_idle=True, quiet_seconds=0.3,
                             poll_interval=0.05)
        calls = _JsonCalls(monkeypatch)
        daemon = ServeDaemon(config)
        assert daemon.run() == 0
        assert daemon.metrics.flows_completed == 3
        assert calls.payloads_encoded() == []
        assert calls.decoded == []
        sunk = (out / "results" / "multi.pcap.jsonl").read_text()
        assert len(sunk.splitlines()) == 3


def test_trace_result_payload_parses_its_line():
    entry = encode_payload({"trace": "x", "records": 1})
    result = TraceResult("x", entry.line, entry.fields)
    assert result.payload == {"trace": "x", "records": 1}

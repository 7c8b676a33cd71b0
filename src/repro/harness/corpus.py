"""Trace-corpus generation: the stand-in for the paper's 20k traces.

The paper's measurements came from ~20,000 tcpdump traces of 100 KB
bulk transfers across many implementations and Internet paths
(Table 1).  :func:`generate_corpus` produces the synthetic analogue:
for each requested implementation, a set of traced transfers across a
rotation of scenarios and random seeds.  Benchmarks use small corpora
(tens of traces) to keep runtimes sane; the generator scales to
thousands if asked.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator

from repro.harness.scenarios import SCENARIOS, TracedTransfer, traced_transfer
from repro.packets import Endpoint
from repro.tcp.catalog import CORE_STUDY, get_behavior
from repro.trace.record import Trace, TraceRecord
from repro.units import kbyte

#: The default scenario rotation: a mix of clean, lossy, and
#: high-latency paths, as the real corpus spanned.
DEFAULT_ROTATION = ("wan", "wan-lossy", "lan", "transatlantic", "modem-56k")


@dataclass
class CorpusEntry:
    """One corpus element: an implementation label plus its transfer."""

    implementation: str
    transfer: TracedTransfer

    @property
    def sender_trace(self):
        return self.transfer.sender_trace

    @property
    def receiver_trace(self):
        return self.transfer.receiver_trace


def generate_corpus(implementations: Iterable[str] | None = None,
                    traces_per_implementation: int = 5,
                    scenarios: Iterable[str] = DEFAULT_ROTATION,
                    data_size: int = kbyte(100),
                    base_seed: int = 0) -> Iterator[CorpusEntry]:
    """Yield traced transfers for each implementation in turn.

    Scenario and seed vary per trace so the corpus exercises a range
    of conditions (loss patterns, RTTs, ack-timing regimes).
    """
    implementations = list(implementations or CORE_STUDY)
    scenario_list = [SCENARIOS[s] if isinstance(s, str) else s
                     for s in scenarios]
    for implementation in implementations:
        behavior = get_behavior(implementation)
        for index in range(traces_per_implementation):
            scenario = scenario_list[index % len(scenario_list)]
            seed = base_seed + index
            transfer = traced_transfer(behavior, scenario,
                                       data_size=data_size, seed=seed)
            yield CorpusEntry(implementation=implementation,
                              transfer=transfer)


@dataclass
class WrittenCorpusEntry:
    """One corpus element written to disk: label, index, and pcap paths."""

    implementation: str
    index: int
    sender_path: Path
    receiver_path: Path

    @property
    def stem(self) -> str:
        return f"{self.implementation}-{self.index:04d}"


def write_corpus(outdir: str | Path,
                 implementations: Iterable[str] | None = None,
                 traces_per_implementation: int = 5,
                 scenarios: Iterable[str] = DEFAULT_ROTATION,
                 data_size: int = kbyte(100),
                 base_seed: int = 0) -> list[WrittenCorpusEntry]:
    """Generate a corpus and write it to *outdir* as pcap pairs.

    Files are numbered per implementation —
    ``{label}-{index:04d}-{sender,receiver}.pcap`` with *index*
    starting at 0 for each label — so the layout is predictable from
    the generation parameters alone.  Each transfer is released once
    its two pcaps are on disk, so memory does not grow with the
    corpus.  Files of that layout that an earlier, larger run left
    under a label written here (an index at or past this run's count)
    are deleted, so the directory holds exactly this corpus for those
    labels; nothing else in *outdir* is touched.
    """
    from repro.trace.pcap import write_pcap

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    counters: dict[str, int] = {}
    written = []
    for entry in generate_corpus(
            implementations=implementations,
            traces_per_implementation=traces_per_implementation,
            scenarios=scenarios, data_size=data_size, base_seed=base_seed):
        index = counters.get(entry.implementation, 0)
        counters[entry.implementation] = index + 1
        stem = f"{entry.implementation}-{index:04d}"
        sender_path = outdir / f"{stem}-sender.pcap"
        receiver_path = outdir / f"{stem}-receiver.pcap"
        write_pcap(entry.sender_trace, sender_path)
        write_pcap(entry.receiver_trace, receiver_path)
        written.append(WrittenCorpusEntry(
            implementation=entry.implementation, index=index,
            sender_path=sender_path, receiver_path=receiver_path))
    for label, count in counters.items():
        layout = re.compile(re.escape(label)
                            + r"-(\d{4,})-(?:sender|receiver)\.pcap")
        for path in outdir.iterdir():
            match = layout.fullmatch(path.name)
            if match and int(match.group(1)) >= count and path.is_file():
                path.unlink()
    return written


@dataclass(frozen=True)
class InterleavedFlow:
    """Ground truth for one connection inside an interleaved capture."""

    implementation: str
    client: Endpoint       # the remapped connection-unique client endpoint
    server: Endpoint
    records: int
    start: float           # capture-relative start time


@dataclass
class InterleavedCapture:
    """A multi-connection capture plus its per-connection ground truth.

    The synthetic analogue of a busy packet filter's output: many
    connections to one server, overlapping in time, all in one trace —
    the input the streaming demux subsystem exists to take apart.
    """

    trace: Trace
    flows: list[InterleavedFlow]

    @property
    def connections(self) -> int:
        return len(self.flows)


def _client_endpoint(records: list[TraceRecord]) -> Endpoint:
    """The connection initiator: sender of the first pure SYN."""
    for record in records:
        if record.is_syn and not record.has_ack:
            return record.src
    return records[0].src


def interleave_traces(traces: Iterable[Trace],
                      labels: Iterable[str],
                      start_interval: float = 0.5,
                      port_base: int = 40000) -> InterleavedCapture:
    """Merge single-connection traces into one interleaved capture.

    Connection *i* keeps its host names but has its client port
    remapped to ``port_base + i`` (a busy server sees many ephemeral
    client ports), and its clock shifted by ``i * start_interval`` so
    the connections overlap in time.  Records are merged in timestamp
    order (ties preserve connection order), exactly as a packet filter
    would have recorded the interleaving.
    """
    merged: list[TraceRecord] = []
    flows: list[InterleavedFlow] = []
    for i, (trace, label) in enumerate(zip(traces, labels)):
        if not trace.records:
            continue
        client = _client_endpoint(trace.records)
        new_client = Endpoint(client.addr, port_base + i)
        offset = i * start_interval
        remapped = [
            replace(record,
                    src=new_client if record.src == client else record.src,
                    dst=new_client if record.dst == client else record.dst,
                    timestamp=record.timestamp + offset)
            for record in trace.records
        ]
        first = remapped[0]
        server = first.dst if first.src == new_client else first.src
        flows.append(InterleavedFlow(
            implementation=label, client=new_client, server=server,
            records=len(remapped), start=first.timestamp))
        merged.extend(remapped)
    merged.sort(key=lambda record: record.timestamp)
    return InterleavedCapture(trace=Trace(records=merged), flows=flows)


def generate_interleaved_capture(implementations: Iterable[str] | None = None,
                                 connections: int = 10,
                                 scenarios: Iterable[str] = DEFAULT_ROTATION,
                                 data_size: int = kbyte(20),
                                 base_seed: int = 0,
                                 start_interval: float = 0.5,
                                 distinct_transfers: int = 8,
                                 side: str = "sender",
                                 port_base: int = 40000) -> InterleavedCapture:
    """Synthesize a *connections*-way interleaved capture.

    At most ``distinct_transfers`` transfers are actually simulated
    (cycling implementations, scenarios, and seeds); further
    connections reuse them with fresh client ports and shifted start
    times, so captures with hundreds of connections stay cheap to
    build.  *side* picks the vantage: ``"sender"`` or ``"receiver"``.
    """
    if side not in ("sender", "receiver"):
        raise ValueError(f"side must be 'sender' or 'receiver', not {side!r}")
    implementations = list(implementations or CORE_STUDY)
    scenario_list = list(scenarios)
    distinct = max(1, min(connections, distinct_transfers))
    base: list[tuple[str, Trace]] = []
    for i in range(distinct):
        label = implementations[i % len(implementations)]
        scenario = scenario_list[i % len(scenario_list)]
        transfer = traced_transfer(get_behavior(label), scenario,
                                   data_size=data_size,
                                   seed=base_seed + i)
        trace = transfer.sender_trace if side == "sender" \
            else transfer.receiver_trace
        base.append((label, trace))
    labels = [base[i % distinct][0] for i in range(connections)]
    traces = [base[i % distinct][1] for i in range(connections)]
    return interleave_traces(traces, labels,
                             start_interval=start_interval,
                             port_base=port_base)


def corpus_summary(entries: Iterable[CorpusEntry]) -> dict[str, dict]:
    """Aggregate a corpus Table-1 style: per-implementation counts and
    basic transfer statistics."""
    summary: dict[str, dict] = {}
    for entry in entries:
        stats = summary.setdefault(entry.implementation, {
            "traces": 0, "completed": 0, "packets": 0, "retransmissions": 0,
        })
        sender = entry.transfer.result.sender
        stats["traces"] += 1
        stats["completed"] += int(entry.transfer.result.completed)
        stats["packets"] += sender.stats_data_packets
        stats["retransmissions"] += sender.stats_retransmissions
    return summary

"""The ``tcpanaly`` command-line front end.

Subcommands:

``analyze TRACE.pcap [--implementation LABEL] [--peer PEER.pcap]``
    Run calibration plus sender/receiver behavior analysis on a trace.

``identify TRACE.pcap [--receiver] [--exhaustive]``
    Run every known implementation against the trace and rank the
    fits.  Uses the shared-pass identification engine (prefilters,
    replay sharing, early abort); ``--exhaustive`` forces the plain
    one-full-analysis-per-candidate path the engine is equivalent to.

``simulate IMPLEMENTATION [--scenario NAME] [--size BYTES] [--out X]``
    Run a simulated bulk transfer with the named stack and write the
    sender- and receiver-side traces as pcap files.

``calibrate TRACE.pcap [--peer PEER.pcap] [-i LABEL]``
    Run only the §3 measurement-error battery on a trace.

``corpus OUTDIR [--per-implementation N] [--analyze]``
    Generate a trace corpus (pcap pairs per implementation), the
    synthetic analogue of the paper's Table 1 data set; with
    ``--analyze``, run ``batch`` over the written directory (same
    results, no journal).

``batch CORPUS_DIR [--jobs N] [--jsonl OUT] [--stream] [--timeout S]
[--retries N] [--journal PATH | --no-journal] [--resume]``
    Batch-analyze every pcap in a corpus directory across supervised
    worker processes, with per-trace JSONL output and a Table-1-style
    aggregate report.  Pathological traces are quarantined (classified
    ``error_kind`` payloads) rather than aborting the run: worker
    crashes are retried then quarantined, per-trace timeouts kill
    quasi-hung analyses, and a checkpoint journal makes an interrupted
    run resumable with ``--resume``, which is also how a warm re-run
    reuses every unchanged trace's results.
    With ``--stream``, each capture goes through the streaming ingest
    + flow-demux path and multi-connection captures fan out into
    per-connection results.

``demux TRACE.pcap [--identify] [--jsonl OUT]``
    Stream a (possibly multi-connection, possibly damaged) capture
    through the flow demultiplexer and print one tcpanaly report per
    connection, plus ingest statistics.

``serve [CAPTURE...] --out DIR [--spool DIR] [--jobs N] [--http PORT]
[--timeout S] [--retries N] [--high-water N] [--low-water N]
[--exit-when-idle] [--quiet S] [--min-free-bytes N] [--max-rss N]
[--max-live-flows N] [--breaker-failures N] [--breaker-backoff S]
[--breaker-trips N] [--on-rotate POLICY] [--fsync]``
    Run the always-on analysis daemon: tail growing captures (and a
    watched spool directory) through live flow demux, analyze retired
    flows on supervised workers sharded by connection, and publish
    results incrementally — per-source JSONL under ``DIR/results/``,
    a checkpoint journal at ``DIR/journal.jsonl``, and (with
    ``--http``) ``/healthz``, ``/readyz``, and ``/stats`` on a local
    HTTP endpoint (``--http 0`` picks an ephemeral port, announced in
    ``DIR/http.port``).  Backpressure pauses tailing while the
    analysis queue is above the high-water mark.  SIGTERM/SIGINT
    drain gracefully: submitted flows finish and are journaled, open
    flows are left for the restart, which resumes from the journal
    without reanalyzing or duplicating anything.  Per-source circuit
    breakers isolate crash-looping captures (exponential backoff,
    half-open probes, permanent quarantine after ``--breaker-trips``),
    and resource watchdogs (``--min-free-bytes``, ``--max-rss``,
    ``--max-live-flows``) drive a graceful-degradation ladder
    (healthy → degraded → shedding → draining) surfaced on
    ``/healthz`` and a Prometheus-text ``/metrics`` endpoint.

``fuzz [--seed S] [--count N] [--reproducers DIR] [--verbose]``
    Run the adversarial scenario fuzzer: N seeded scenarios composing
    path pathologies, filter defects, and middlebox damage, each
    pushed through the full pipeline (encode → ingest → demux →
    identification).  Every scenario must identify correctly, refuse
    honestly, or quarantine with a classified error — an escaped
    exception or a silent misidentification fails the run (exit 1),
    and a minimized reproducer pcap is written per failure.

``stats TRACE.pcap``
    Per-connection summary statistics (tcptrace-style); handles
    multi-connection captures.

``list``
    List the known implementations and scenarios.

``plot TRACE.pcap``
    Print an ASCII time-sequence plot of the trace.
"""

from __future__ import annotations

import argparse
import sys

from repro.harness.scenarios import SCENARIOS
from repro.tcp.catalog import CATALOG, get_behavior
from repro.units import kbyte

# Each command imports the analyzer, the decoder and numpy when it
# runs: a ``batch --jobs N`` parent only schedules work and moves
# result lines, so it never loads them (its workers do).


def _command_analyze(args: argparse.Namespace) -> int:
    from repro.core.report import analyze_trace
    from repro.trace.pcap import read_pcap

    trace = read_pcap(args.trace)
    behavior = get_behavior(args.implementation) if args.implementation \
        else None
    peer = read_pcap(args.peer) if args.peer else None
    report = analyze_trace(trace, behavior, peer_trace=peer,
                           identify=args.identify,
                           headers_only=args.headers_only)
    print(report.render())
    return 0


def _command_identify(args: argparse.Namespace) -> int:
    from repro.core.engine import IdentificationEngine
    from repro.core.fit import identify_implementation
    from repro.trace.pcap import read_pcap

    trace = read_pcap(args.trace)
    engine = None if args.exhaustive else IdentificationEngine()
    if args.receiver:
        if engine is not None:
            fits = engine.identify_receiver(trace)
        else:
            from repro.core.fit import identify_receiver
            fits = identify_receiver(trace)
        for fit in fits:
            notes = ("; ".join(fit.inconsistencies)
                     if fit.inconsistencies else "")
            print(f"  {fit.implementation:16s} {fit.category:10s} {notes}")
        close = [f.implementation for f in fits if f.category == "close"]
        print(f"\nacking-policy close fits: {', '.join(close) or 'none'}")
        return 0
    report = (engine.identify_sender(trace) if engine is not None
              else identify_implementation(trace))
    print(report.summary())
    best = report.best
    if best is not None and best.category == "close":
        print(f"\nbest fit: {best.implementation}")
    else:
        print("\nno close fit found: either a measurement problem or an "
              "implementation unknown to tcpanaly")
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    from repro.harness.scenarios import traced_transfer
    from repro.trace.pcap import write_pcap

    behavior = get_behavior(args.implementation)
    transfer = traced_transfer(behavior, args.scenario,
                               data_size=args.size, seed=args.seed)
    sender_path = f"{args.out}-sender.pcap"
    receiver_path = f"{args.out}-receiver.pcap"
    write_pcap(transfer.sender_trace, sender_path)
    write_pcap(transfer.receiver_trace, receiver_path)
    result = transfer.result
    print(f"{args.implementation} on {args.scenario}: "
          f"{'completed' if result.completed else 'INCOMPLETE'} in "
          f"{result.duration:.3f}s, "
          f"{result.sender.stats_data_packets} data packets, "
          f"{result.sender.stats_retransmissions} retransmissions, "
          f"throughput {result.throughput / 1024:.1f} KB/s")
    print(f"wrote {sender_path} and {receiver_path}")
    return 0


def _command_calibrate(args: argparse.Namespace) -> int:
    from repro.core.calibrate import calibrate_trace
    from repro.trace.pcap import read_pcap

    trace = read_pcap(args.trace)
    behavior = get_behavior(args.implementation) if args.implementation \
        else None
    peer = read_pcap(args.peer) if args.peer else None
    report = calibrate_trace(trace, behavior, peer_trace=peer)
    print(report.summary())
    if report.clean:
        print("verdict: no measurement errors detected")
        return 0
    print("verdict: measurement errors present — findings follow")
    for evidence in report.drop_evidence[:20]:
        print(f"  drop evidence [{evidence.check}] t={evidence.time:.6f}: "
              f"{evidence.detail}")
    for event in report.resequencing[:20]:
        print(f"  resequencing [{event.situation}] t={event.time:.6f}: "
              f"{event.detail}")
    for event in report.time_travel[:20]:
        print(f"  time travel at record {event.index}: clock stepped back "
              f"{event.magnitude * 1e3:.1f} ms")
    if report.duplicates:
        print(f"  {len(report.duplicates)} measurement duplicates "
              f"(IRIX-style double copies)")
    return 1


def _command_demux(args: argparse.Namespace) -> int:
    import json

    from repro.stream import IngestStats, analyze_stream, flow_payload

    stats = IngestStats()
    flows = 0
    quarantined = 0
    jsonl_lines: list[str] = []
    for flow_report in analyze_stream(
            args.trace, identify=args.identify, stats=stats,
            idle_timeout=args.idle_timeout, max_flows=args.max_flows,
            syn_only=not args.no_syn_only):
        flows += 1
        flow = flow_report.flow
        print(f"=== {flow_report.name}: {flow.describe()} ===")
        if flow_report.error is not None:
            quarantined += 1
            print(f"analysis failed [{flow_report.error.kind}]: "
                  f"{flow_report.error.message}")
        else:
            print(flow_report.report.render())
        print()
        if args.jsonl:
            payload = flow_payload(flow_report,
                                   f"{args.trace}#{flow_report.name}")
            jsonl_lines.append(json.dumps(payload, sort_keys=True))
    print(f"{flows} connection(s) demultiplexed from {args.trace}")
    if quarantined:
        print(f"{quarantined} connection(s) quarantined "
              f"(analysis failed; see error_kind)")
    print(stats.summary())
    if args.jsonl:
        with open(args.jsonl, "w") as handle:
            for line in jsonl_lines:
                handle.write(line + "\n")
        print(f"wrote {flows} result(s) to {args.jsonl}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import signal
    from pathlib import Path

    from repro.serve import ServeConfig, ServeDaemon

    captures = [Path(capture) for capture in args.captures]
    if not captures and args.spool is None:
        raise ValueError("serve needs at least one capture file "
                         "or --spool DIR")
    timeout = args.timeout
    if timeout is not None and timeout <= 0:
        timeout = None
    # Breaker flags left unset keep ServeConfig's defaults, so the
    # parser need not import the serve stack to know them.
    breakers = {name: getattr(args, name)
                for name in ("breaker_failures", "breaker_backoff",
                             "breaker_trips")
                if getattr(args, name) is not None}
    config = ServeConfig(
        out_dir=Path(args.out),
        captures=captures,
        spool=Path(args.spool) if args.spool else None,
        workers=args.jobs,
        timeout=timeout,
        retries=args.retries,
        http_port=args.http,
        high_water=args.high_water,
        low_water=args.low_water,
        poll_interval=args.poll,
        exit_when_idle=args.exit_when_idle,
        quiet_seconds=args.quiet,
        min_free_bytes=args.min_free_bytes,
        max_rss_bytes=args.max_rss,
        max_live_flows=args.max_live_flows,
        on_rotate=args.on_rotate,
        fsync=args.fsync,
        **breakers)
    daemon = ServeDaemon(config)

    def drain(signum, frame) -> None:
        # Flip a flag and return: the daemon loop notices, stops
        # tailing, finishes submitted flows, and exits 0.  Repeated
        # signals are idempotent — the drain is already underway.
        daemon.request_stop()

    signal.signal(signal.SIGTERM, drain)
    signal.signal(signal.SIGINT, drain)
    sources = [str(capture) for capture in captures]
    if args.spool:
        sources.append(f"spool:{args.spool}")
    print(f"tcpanaly serve: {', '.join(sources)} -> {args.out} "
          f"({args.jobs} worker(s))", flush=True)
    code = daemon.run()
    counters = daemon.metrics.to_dict()["counters"]
    health = daemon.metrics.to_dict()["health"]
    print(f"tcpanaly serve: drained — "
          f"{counters['flows_completed']} flow(s) analyzed, "
          f"{counters['sink_lines']} sink line(s), "
          f"{counters['journal_skips']} resumed from journal, "
          f"exit health {health['state']}",
          flush=True)
    return code


def _batch_run(items, args, journal=None) -> int:
    """Shared tail of ``batch`` and ``corpus --analyze``."""
    from repro.pipeline import aggregate_report, run_batch, write_jsonl
    timeout = getattr(args, "timeout", None)
    if timeout is not None and timeout <= 0:
        timeout = None   # --timeout 0: no budget, plain in-process path
    try:
        batch = run_batch(items, jobs=args.jobs,
                          stream=getattr(args, "stream", False),
                          timeout=timeout,
                          retries=getattr(args, "retries", 2),
                          journal=journal)
    finally:
        if journal is not None:
            journal.close()
    if args.jsonl:
        write_jsonl(batch.results, args.jsonl)
        print(f"wrote {len(batch.results)} result(s) to {args.jsonl}")
    print(aggregate_report(batch))
    return 0


def _command_batch(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.pipeline import BatchJournal, corpus_items
    if args.resume and args.no_journal:
        raise ValueError("--resume replays the journal; it cannot be "
                         "combined with --no-journal")
    items = corpus_items(args.corpus_dir)
    journal = None
    if not args.no_journal:
        path = args.journal or Path(args.corpus_dir) \
            / ".tcpanaly-journal.jsonl"
        journal = BatchJournal(path, stream=args.stream,
                               resume=args.resume)
        if args.resume and len(journal):
            print(f"resuming from {path}: {len(journal)} item(s) "
                  f"already completed")
    return _batch_run(items, args, journal=journal)


def _command_corpus(args: argparse.Namespace) -> int:
    from repro.harness.corpus import write_corpus
    implementations = None
    if args.implementations:
        implementations = args.implementations.split(",")
        unknown = [label for label in implementations
                   if label not in CATALOG]
        if unknown:
            raise ValueError(
                f"unknown implementation(s): {', '.join(unknown)} "
                f"(see `tcpanaly list`)")
    written = write_corpus(args.outdir, implementations=implementations,
                           traces_per_implementation=args.per_implementation,
                           data_size=args.size)
    print(f"wrote {len(written)} trace pairs to {args.outdir}")
    if not args.analyze:
        return 0
    from repro.pipeline import corpus_items
    return _batch_run(corpus_items(args.outdir), args)


def _command_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import run_sweep

    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")

    def progress(outcome) -> None:
        if args.verbose or not outcome.ok:
            marker = "ok  " if outcome.ok else "FAIL"
            print(f"{marker} {outcome.plan.describe()}")
            print(f"     -> {outcome.outcome}: {outcome.detail}")

    report = run_sweep(base_seed=args.seed, count=args.count,
                       reproducer_dir=args.reproducers,
                       minimize=not args.no_minimize,
                       progress=progress)
    print(report.summary())
    if not report.passed and args.reproducers:
        print(f"minimized reproducers written to {args.reproducers}")
    return 0 if report.passed else 1


def _command_stats(args: argparse.Namespace) -> int:
    from repro.analysis.connstats import connection_stats
    from repro.stream import demux_packets, iter_pcap_columns

    # syn_only=False keeps connections already open when the capture
    # started; index order is first-appearance order.
    flows = sorted(demux_packets(iter_pcap_columns(args.trace, strict=True),
                                 syn_only=False),
                   key=lambda flow: flow.index)
    print(f"{len(flows)} connection(s) in {args.trace}")
    for flow in flows:
        print()
        print(connection_stats(flow.to_trace()).render())
    return 0


def _command_list(args: argparse.Namespace) -> int:
    print("implementations:")
    for label, behavior in sorted(CATALOG.items()):
        print(f"  {label:16s} lineage={behavior.lineage.value}")
    print("\nscenarios:")
    for name, scenario in SCENARIOS.items():
        print(f"  {name:18s} {scenario.description}")
    return 0


def _command_plot(args: argparse.Namespace) -> int:
    from repro.analysis.seqplot import render_ascii_plot, sequence_plot
    from repro.trace.pcap import read_pcap

    trace = read_pcap(args.trace)
    print(render_ascii_plot(sequence_plot(trace, title=args.trace)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcpanaly",
        description="Automated packet trace analysis of TCP implementations")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze one trace")
    analyze.add_argument("trace")
    analyze.add_argument("--implementation", "-i", default=None,
                         help="candidate implementation label")
    analyze.add_argument("--peer", default=None,
                         help="peer-side trace for timing calibration")
    analyze.add_argument("--identify", action="store_true",
                         help="also rank all known implementations")
    analyze.add_argument("--headers-only", action="store_true",
                         help="treat the trace as header-only (infer "
                         "corruption instead of verifying checksums)")
    analyze.set_defaults(handler=_command_analyze)

    identify = sub.add_parser("identify",
                              help="rank all known implementations")
    identify.add_argument("trace")
    identify.add_argument("--exhaustive", action="store_true",
                          help="disable the identification engine's "
                          "pruning/sharing; run one full analysis per "
                          "candidate")
    identify.add_argument("--receiver", action="store_true",
                          help="identify by receiver acking policy "
                          "instead of sender congestion behavior")
    identify.set_defaults(handler=_command_identify)

    simulate = sub.add_parser("simulate",
                              help="simulate a transfer, write pcaps")
    simulate.add_argument("implementation")
    simulate.add_argument("--scenario", default="wan",
                          choices=sorted(SCENARIOS))
    simulate.add_argument("--size", type=int, default=kbyte(100))
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--out", default="transfer")
    simulate.set_defaults(handler=_command_simulate)

    calibrate = sub.add_parser("calibrate",
                               help="measurement-error checks only")
    calibrate.add_argument("trace")
    calibrate.add_argument("--implementation", "-i", default=None)
    calibrate.add_argument("--peer", default=None)
    calibrate.set_defaults(handler=_command_calibrate)

    corpus = sub.add_parser("corpus", help="generate a trace corpus")
    corpus.add_argument("outdir")
    corpus.add_argument("--per-implementation", type=int, default=2)
    corpus.add_argument("--size", type=int, default=kbyte(100))
    corpus.add_argument("--implementations", default=None,
                        help="comma-separated labels (default: the "
                        "Table 1 core study set)")
    corpus.add_argument("--analyze", action="store_true",
                        help="batch-analyze the written directory, as "
                        "`tcpanaly batch` would (no journal)")
    corpus.add_argument("--jobs", type=int, default=1,
                        help="worker processes for --analyze")
    corpus.add_argument("--jsonl", default=None,
                        help="per-trace JSONL output for --analyze")
    corpus.set_defaults(handler=_command_corpus)

    batch = sub.add_parser("batch",
                           help="batch-analyze every pcap in a corpus "
                           "directory")
    batch.add_argument("corpus_dir")
    batch.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = sequential, "
                       "deterministic execution order)")
    batch.add_argument("--jsonl", default=None,
                       help="write per-trace results as JSON Lines")
    batch.add_argument("--stream", action="store_true",
                       help="use the streaming ingest + flow-demux path; "
                       "multi-connection captures fan out into "
                       "per-connection results")
    batch.add_argument("--timeout", type=float, default=300.0,
                       help="per-trace wall-clock timeout in seconds; a "
                       "trace still running past it is killed and "
                       "quarantined as error_kind \"timeout\" (0 "
                       "disables the budget and the worker supervisor)")
    batch.add_argument("--retries", type=int, default=2,
                       help="how many times a trace whose worker crashed "
                       "is requeued before being quarantined as "
                       "error_kind \"crash\"")
    batch.add_argument("--journal", default=None,
                       help="checkpoint journal path (default: "
                       "CORPUS_DIR/.tcpanaly-journal.jsonl); completed "
                       "items are recorded durably as they finish")
    batch.add_argument("--no-journal", action="store_true",
                       help="disable the checkpoint journal")
    batch.add_argument("--resume", action="store_true",
                       help="replay items already completed in the "
                       "journal and analyze only the remainder; the "
                       "final output is byte-identical to an "
                       "uninterrupted run")
    batch.set_defaults(handler=_command_batch)

    demux = sub.add_parser("demux",
                           help="stream a capture into per-connection "
                           "reports")
    demux.add_argument("trace")
    demux.add_argument("--identify", action="store_true",
                       help="also rank known implementations per flow")
    demux.add_argument("--idle-timeout", type=float, default=64.0,
                       help="seconds of silence before a flow is retired")
    demux.add_argument("--max-flows", type=int, default=4096,
                       help="live-flow cap (LRU eviction beyond it)")
    demux.add_argument("--no-syn-only", action="store_true",
                       help="admit mid-capture flows that never showed "
                       "a SYN")
    demux.add_argument("--jsonl", default=None,
                       help="write per-flow results as JSON Lines")
    demux.set_defaults(handler=_command_demux)

    serve = sub.add_parser("serve",
                           help="always-on analysis daemon: tail growing "
                           "captures, analyze flows live")
    serve.add_argument("captures", nargs="*",
                       help="pcap files to tail (they may still be "
                       "growing, or not exist yet)")
    serve.add_argument("--spool", default=None,
                       help="directory watched for drop-in *.pcap "
                       "captures")
    serve.add_argument("--out", required=True,
                       help="output directory: results/*.jsonl per "
                       "source, journal.jsonl, http.port")
    serve.add_argument("--jobs", type=int, default=2,
                       help="analysis worker processes")
    serve.add_argument("--http", type=int, default=None, metavar="PORT",
                       help="serve /healthz, /readyz, /stats on this "
                       "local port (0 = ephemeral, see http.port)")
    serve.add_argument("--timeout", type=float, default=300.0,
                       help="per-flow wall-clock analysis timeout; 0 "
                       "disables the budget")
    serve.add_argument("--retries", type=int, default=2,
                       help="crash-requeue budget per flow before "
                       "quarantine")
    serve.add_argument("--high-water", type=int, default=64,
                       help="queued flows at which tailing pauses "
                       "(backpressure)")
    serve.add_argument("--low-water", type=int, default=8,
                       help="queued flows at which tailing resumes")
    serve.add_argument("--poll", type=float, default=0.2,
                       help="daemon loop tick in seconds")
    serve.add_argument("--exit-when-idle", action="store_true",
                       help="exit 0 once every source is quiet (treat "
                       "captures as complete; batch-comparison mode)")
    serve.add_argument("--quiet", type=float, default=2.0,
                       help="seconds of quiescence that count as idle "
                       "for --exit-when-idle")
    serve.add_argument("--min-free-bytes", type=int, default=0,
                       help="disk watchdog: degrade when free space "
                       "under --out falls below this (0 = off)")
    serve.add_argument("--max-rss", type=int, default=0,
                       help="memory watchdog: shed live flows when "
                       "process RSS exceeds this many bytes (0 = off)")
    serve.add_argument("--max-live-flows", type=int, default=0,
                       help="live-flow budget across all sources; "
                       "oldest flows early-retire beyond it (0 = off)")
    serve.add_argument("--breaker-failures", type=int,
                       help="consecutive worker-fatal results that "
                       "trip a source's circuit breaker")
    serve.add_argument("--breaker-backoff", type=float,
                       help="first-trip breaker backoff in seconds "
                       "(doubles per trip)")
    serve.add_argument("--breaker-trips", type=int,
                       help="breaker trips before a source is "
                       "quarantined permanently")
    serve.add_argument("--on-rotate", choices=("quarantine", "restart"),
                       default="quarantine",
                       help="policy for a capture rotated/truncated "
                       "in place")
    serve.add_argument("--fsync", action="store_true",
                       help="fsync the result sink after every line")
    serve.set_defaults(handler=_command_serve)

    fuzz = sub.add_parser("fuzz",
                          help="adversarial scenario fuzzing: the "
                          "standing correctness gate")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="base seed; scenario i uses seed + i, so a "
                      "reported failing seed reproduces alone")
    fuzz.add_argument("--count", type=int, default=50,
                      help="number of scenarios to generate and run")
    fuzz.add_argument("--reproducers", default=None,
                      help="directory for minimized failure reproducers "
                      "(pcap + plan JSON per failing seed)")
    fuzz.add_argument("--no-minimize", action="store_true",
                      help="save failing captures whole instead of "
                      "delta-minimizing them first")
    fuzz.add_argument("--verbose", action="store_true",
                      help="print one line per scenario, not just "
                      "failures")
    fuzz.set_defaults(handler=_command_fuzz)

    stats = sub.add_parser("stats", help="per-connection statistics")
    stats.add_argument("trace")
    stats.set_defaults(handler=_command_stats)

    lister = sub.add_parser("list", help="list implementations & scenarios")
    lister.set_defaults(handler=_command_list)

    plot = sub.add_parser("plot", help="ASCII time-sequence plot")
    plot.add_argument("trace")
    plot.set_defaults(handler=_command_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        # Ctrl-C is a deliberate stop, not a crash: one line, no
        # traceback, and the conventional 128+SIGINT exit code.  A
        # journaled batch can pick up exactly where it stopped.
        journaled = args.command == "batch" and not args.no_journal
        hint = " — resume with --resume" if journaled else ""
        print(f"tcpanaly: interrupted{hint}", file=sys.stderr)
        return 130
    except (OSError, ValueError) as error:
        # A missing file, an unreadable path, or a non-pcap input is a
        # usage problem, not a crash: one line on stderr, exit 2.
        print(f"tcpanaly: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

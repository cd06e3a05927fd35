"""Command-line interface for the ScamDetect reproduction.

Usage (after ``pip install -e .`` the ``scamdetect`` entry point is on PATH;
``python -m repro.cli`` always works)::

    scamdetect corpus     --platform evm --num-samples 200
    scamdetect train      --model-path /tmp/scamdetect --num-samples 200
    scamdetect scan       --model-path /tmp/scamdetect --hex-file contract.hex
    scamdetect scan-batch --model-path /tmp/scamdetect --input-dir submissions/ \
                          --cache-dir /tmp/scamdetect-cache --shards 4
    scamdetect serve      --model-path /tmp/scamdetect --port 8742 \
                          --workers 8 --max-batch 32
    scamdetect watch submissions/ --model-path /tmp/scamdetect \
                          --registry /tmp/verdicts.db --rules triage.toml
    scamdetect query      --registry /tmp/verdicts.db --verdict malicious \
                          --min-score 0.9 --json
    scamdetect rules check triage.toml
    scamdetect triage triage.toml --registry /tmp/verdicts.db \
                          --fingerprint FP --dry-run
    scamdetect experiment --id E2

The CLI is intentionally thin: every command maps onto one public-API call so
scripts and notebooks can do the same thing programmatically.

Exit codes are verdict-coded so shell pipelines can branch on them:
``scan`` and ``scan-batch`` exit 0 when everything was benign, 2 when
anything was flagged malicious, and 1 on errors (bad model path, unreadable
input, ...); ``watch`` and ``triage`` exit 2 when a triage rule with the
``exit_nonzero`` action fired (``triage --dry-run`` always exits 0).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional, Sequence

from repro.core.config import ScamDetectConfig
from repro.core.detector import ScamDetector
from repro.datasets.generator import CorpusGenerator, GeneratorConfig
from repro.datasets.splits import stratified_split


def _add_cascade_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cascade", action="store_true",
                        help="enable the tier-0 calibrated n-gram pre-filter "
                             "(the bundle must have been trained with "
                             "'train --cascade'); confident-benign contracts "
                             "short-circuit before CFG lowering")
    parser.add_argument("--cascade-margin", type=float, default=None,
                        help="safety margin subtracted from the pre-filter's "
                             "at-target-recall threshold (default: the "
                             "head's trained margin); larger = fewer "
                             "short-circuits, more safety")


def _add_corpus_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--platform", choices=("evm", "wasm"), default="evm")
    parser.add_argument("--num-samples", type=int, default=200)
    parser.add_argument("--malicious-fraction", type=float, default=0.5)
    parser.add_argument("--label-noise", type=float, default=0.03)
    parser.add_argument("--seed", type=int, default=0)


def _generator_config(args: argparse.Namespace) -> GeneratorConfig:
    return GeneratorConfig(platform=args.platform, num_samples=args.num_samples,
                           malicious_fraction=args.malicious_fraction,
                           label_noise=args.label_noise, seed=args.seed)


def _command_corpus(args: argparse.Namespace) -> int:
    corpus = CorpusGenerator(_generator_config(args)).generate()
    summary = corpus.summary()
    print("generated corpus:")
    for key, value in summary.items():
        print(f"  {key}: {value}")
    print("family breakdown:")
    for family, count in sorted(corpus.family_counts().items()):
        print(f"  {family}: {count}")
    return 0


def _command_train(args: argparse.Namespace) -> int:
    corpus = CorpusGenerator(_generator_config(args)).generate()
    train, test = stratified_split(corpus, test_fraction=args.test_fraction,
                                   seed=args.seed)
    config = ScamDetectConfig(architecture=args.architecture, epochs=args.epochs,
                              readout=args.readout, seed=args.seed)
    detector = ScamDetector(config).train(train, cascade=args.cascade)
    metrics = detector.evaluate(test)
    print("held-out metrics: "
          + ", ".join(f"{name}={value:.3f}" for name, value in metrics.items()))
    detector.save(args.model_path)
    if args.cascade:
        print("cascade pre-filter head trained and bundled "
              f"({detector.pipeline.cascade.describe()})")
    print(f"model saved to {args.model_path}.json / {args.model_path}.npz")
    return 0


def _read_code(args: argparse.Namespace) -> bytes:
    if args.hex_file:
        text = pathlib.Path(args.hex_file).read_text().strip()
        if text.startswith(("0x", "0X")):
            text = text[2:]
        return bytes.fromhex(text)
    if args.binary_file:
        return pathlib.Path(args.binary_file).read_bytes()
    raise SystemExit("scan requires --hex-file or --binary-file")


def _command_scan(args: argparse.Namespace) -> int:
    detector = _load_detector("scan", args, explain=True)
    code = _read_code(args)
    try:
        report = detector.scan(code, platform=args.platform,
                               sample_id=args.sample_id)
    except ValueError as error:
        raise SystemExit(f"scan: bytecode rejected: {error}")
    print(report.format())
    # verdict-coded exit status (documented in the module docstring and
    # README): 2 on a malicious verdict so pipelines can tell "scam found"
    # (2) from "scan failed" (1, the SystemExit paths above)
    return 2 if report.is_malicious else 0


def _load_detector(command: str, args: argparse.Namespace,
                   explain: bool) -> ScamDetector:
    """Load the model bundle for a serving command; exits non-zero with a
    clear message when the bundle is missing or unreadable (or when
    ``--cascade`` was requested but the bundle has no trained head)."""
    from repro.core.persistence import PersistenceError

    try:
        detector = ScamDetector.load(
            args.model_path, threshold=args.threshold, explain=explain,
            cascade=getattr(args, "cascade", False),
            cascade_margin=getattr(args, "cascade_margin", None))
        detector.cascade_head()
        return detector
    except (PersistenceError, OSError) as error:
        raise SystemExit(f"{command}: cannot load model bundle "
                         f"{args.model_path!r}: {error}")
    except (RuntimeError, ValueError) as error:
        raise SystemExit(f"{command}: {error}")


def _command_scan_batch(args: argparse.Namespace) -> int:
    from repro.service import BatchScanner, GraphCache, ShardError

    _arm_fault_plan("scan-batch", args.fault_plan)
    _arm_tracing("scan-batch", args.trace_file, args.log_json)
    detector = _load_detector("scan-batch", args, explain=args.explain)
    cache = None
    if args.cache_dir is not None or args.cache_capacity is not None:
        try:
            cache = GraphCache.for_config(
                detector.config,
                capacity=(args.cache_capacity
                          if args.cache_capacity is not None else 1024),
                disk_dir=args.cache_dir)
        except ValueError as error:
            raise SystemExit(f"scan-batch: {error}")
    registry = _open_registry("scan-batch", args.registry, detector)
    scanner = BatchScanner(detector, cache=cache, shards=args.shards,
                           registry=registry)
    try:
        result = scanner.scan_directory(args.input_dir, pattern=args.pattern,
                                        platform=args.platform,
                                        recursive=not args.no_recursive)
    except (FileNotFoundError, ValueError, ShardError) as error:
        raise SystemExit(f"scan-batch: {error}")
    finally:
        scanner.close()
        if registry is not None:
            registry.close()
    print(result.format())
    for entry in result.skipped:
        print(f"  skipped: {entry}", file=sys.stderr)
    if args.show_reports:
        for report in result.reports:
            print()
            print(report.format())
    return 2 if result.num_malicious else 0


def _arm_fault_plan(command: str, path: Optional[str]) -> None:
    """Activate ``--fault-plan`` (a JSON fault schedule) process-wide.

    Shard workers spawned afterwards (``scan-batch``/``watch --shards``)
    re-arm the same plan, so one flag chaos-tests a whole stack.  No-op
    when the flag was not given.
    """
    if path is None:
        return
    from repro.resilience import FaultPlan, activate

    try:
        plan = FaultPlan.load(path)
    except (OSError, ValueError) as error:
        raise SystemExit(f"{command}: cannot load fault plan: {error}")
    activate(plan)
    print(f"{command}: fault injection armed from {path} "
          f"({len(plan.specs)} spec(s), seed {plan.seed})", file=sys.stderr)


def _arm_tracing(command: str, trace_file: Optional[str],
                 log_json: bool) -> None:
    """Arm ``--trace-file`` (JSONL span export) and ``--log-json``
    process-wide.  Sharded workers spawned afterwards buffer their own
    spans and ship them back with each chunk.  No-op without the flags."""
    if log_json:
        from repro.obs import enable_json_logs

        enable_json_logs()
    if trace_file is None:
        return
    import atexit

    from repro.obs import JsonlTraceWriter, Tracer, arm

    try:
        writer = JsonlTraceWriter(trace_file)
    except OSError as error:
        raise SystemExit(f"{command}: cannot open trace file "
                         f"{trace_file!r}: {error}")
    # flush on any exit path (SystemExit included); signal handlers in
    # serve/watch raise instead of exiting, so atexit always runs
    atexit.register(writer.close)
    arm(Tracer(sink=writer))
    print(f"{command}: tracing armed, spans -> {trace_file}",
          file=sys.stderr)


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-file", default=None,
                        help="arm span tracing and append spans to this "
                             "JSONL file (analyse with 'scamdetect trace "
                             "summarize')")
    parser.add_argument("--log-json", action="store_true",
                        help="emit warnings/log records as JSON lines on "
                             "stderr, stamped with the active trace id")


def _open_registry(command: str, path: Optional[str], detector):
    """Open ``--registry`` scoped to the loaded detector's fingerprint
    (None when the flag was not given); exits non-zero on registry errors."""
    if path is None:
        return None
    from repro.registry import RegistryError, ScanRegistry

    try:
        return ScanRegistry.for_config(path, detector.config)
    except (RegistryError, OSError) as error:
        raise SystemExit(f"{command}: cannot open registry {path!r}: {error}")


def _command_watch(args: argparse.Namespace) -> int:
    """``watch``: backfill the roots, then follow their changes through the
    ingest service (inotify events, or ``--backend poll`` walks) into the
    registry and the triage rules."""
    import json
    import signal

    from repro.ingest import EventIngestService
    from repro.registry import RuleParseError, RulesEngine, load_rules
    from repro.service import GraphCache, ShardError

    _arm_fault_plan("watch", args.fault_plan)
    _arm_tracing("watch", args.trace_file, args.log_json)
    detector = _load_detector("watch", args, explain=args.explain)
    registry = _open_registry("watch", args.registry, detector)
    rules_engine = None
    if args.rules is not None:
        try:
            rules_engine = RulesEngine(
                load_rules(args.rules), alert_path=args.alert_file,
                dead_letter_path=args.dead_letter_file)
        except RuleParseError as error:
            raise SystemExit(f"watch: {error}")
    cache = None
    if args.cache_dir is not None:
        try:
            cache = GraphCache.for_config(detector.config,
                                          disk_dir=args.cache_dir)
        except ValueError as error:
            raise SystemExit(f"watch: {error}")
    roots = [args.directory] + list(args.root or [])
    for root in roots:
        if not pathlib.Path(root).is_dir():
            raise SystemExit(f"watch: not a directory: {root}")
    try:
        service = EventIngestService(
            detector, registry, roots=roots, pattern=args.pattern,
            recursive=not args.no_recursive, rules=rules_engine,
            queue_capacity=args.queue_capacity, backend=args.backend,
            cache=cache, shards=args.shards)
    except (FileNotFoundError, ValueError, RuntimeError) as error:
        raise SystemExit(f"watch: {error}")

    def _terminate(signum, frame):
        # stop after the cycle in flight; run() drains the queue on exit
        service.stop()

    previous = {sig: signal.signal(sig, _terminate)
                for sig in (signal.SIGTERM, signal.SIGINT)}
    print(f"watching {', '.join(str(r) for r in service.roots)} "
          f"({service.backend} events, queue {service.queue.capacity}, "
          f"registry {args.registry}, rules {args.rules or 'none'}); "
          f"SIGTERM drains cleanly", flush=True)

    def report(cycle: int, stats) -> None:
        if args.json:
            payload = dict(stats.to_dict(), cycle=cycle)
            print(json.dumps(payload, sort_keys=True), flush=True)
        elif cycle == 0:
            print(f"backfill: {stats.format()}", flush=True)
        elif stats.events or stats.drained or stats.faulted_drains:
            # a quiet cycle did no work: only narrate the ones that did
            print(f"cycle {cycle}: {stats.format()}", flush=True)

    try:
        report(0, service.backfill())
        service.run(interval=args.interval, max_cycles=args.max_polls,
                    on_cycle=report)
    except ShardError as error:
        raise SystemExit(f"watch: shard pool failed: {error}")
    finally:
        print("watch: shutting down", flush=True)
        service.close(drain=True)
        registry.close()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return 2 if service.exit_nonzero else 0


def _parse_when(command: str, value: Optional[str]) -> Optional[float]:
    """``--since/--until`` accept epoch seconds or an ISO-8601 timestamp."""
    if value is None:
        return None
    try:
        return float(value)
    except ValueError:
        pass
    import datetime

    try:
        return datetime.datetime.fromisoformat(value).timestamp()
    except ValueError:
        raise SystemExit(f"{command}: cannot parse time {value!r}; use "
                         f"epoch seconds or ISO-8601 "
                         f"(e.g. 2026-07-27T12:00)")


def _command_query(args: argparse.Namespace) -> int:
    import json
    import sqlite3

    from repro.registry import RegistryError, ScanRegistry

    fingerprint = args.fingerprint
    if args.model_path is not None:
        fingerprint = _load_detector("query", args,
                                     explain=False).config.graph_fingerprint()
    try:
        registry = ScanRegistry(args.registry, fingerprint=fingerprint or "")
    except (RegistryError, OSError) as error:
        raise SystemExit(f"query: cannot open registry "
                         f"{args.registry!r}: {error}")
    try:
        filters = dict(
            verdict=args.verdict,
            min_score=args.min_score,
            max_score=args.max_score,
            platform=args.platform,
            since=_parse_when("query", args.since),
            until=_parse_when("query", args.until),
            path_glob=args.path_glob,
            tag=args.tag,
            sha256_prefix=args.sha256,
            all_fingerprints=fingerprint is None)
        next_cursor = None
        paginated = args.cursor is not None or args.page_size is not None
        if paginated:
            rows, next_cursor = registry.query_page(
                cursor=args.cursor,
                page_size=args.page_size or 50,
                **filters)
        else:
            rows = registry.query(
                limit=None if args.all else args.limit, **filters)
        if args.json:
            payload = []
            for row in rows:
                entry = row.to_dict()
                if args.history:
                    entry["history"] = registry.history(
                        row.sha256, fingerprint=row.fingerprint)
                payload.append(entry)
            if paginated:
                print(json.dumps({"verdicts": payload,
                                  "next_cursor": next_cursor},
                                 indent=2, sort_keys=True))
            else:
                print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for row in rows:
                print(row.format())
                if args.history:
                    for entry in registry.history(
                            row.sha256, fingerprint=row.fingerprint):
                        print(f"    {entry['scanned_at']:.0f}: "
                              f"p={entry['malicious_probability']:.3f} "
                              f"({entry['model']})")
            print(f"{len(rows)} verdict{'s' if len(rows) != 1 else ''} "
                  f"({'all fingerprints' if fingerprint is None else 'fingerprint ' + fingerprint})",
                  file=sys.stderr)
            if next_cursor is not None:
                print(f"next page: --cursor {next_cursor}", file=sys.stderr)
    except RegistryError as error:
        raise SystemExit(f"query: {error}")
    except sqlite3.Error as error:
        # e.g. a database produced by a different build whose schema
        # version lies: fail with a message, not a traceback
        raise SystemExit(f"query: registry {args.registry!r} is not "
                         f"usable ({error})")
    finally:
        registry.close()
    return 0


def _command_rules_check(args: argparse.Namespace) -> int:
    from repro.registry import RuleParseError, load_rules

    try:
        rules = load_rules(args.rules_file)
    except RuleParseError as error:
        raise SystemExit(f"rules check: {error}")
    for rule in rules:
        print(rule.describe())
    print(f"{len(rules)} rule{'s' if len(rules) != 1 else ''} ok")
    return 0


def _command_triage(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.registry import (CompileError, RegistryError, RetroTriage,
                                RuleParseError, RulesEngine, ScanRegistry,
                                parse_rules)

    fingerprint = args.fingerprint
    if args.model_path is not None:
        fingerprint = _load_detector("triage", args,
                                     explain=False).config.graph_fingerprint()
    if not fingerprint:
        raise SystemExit("triage: a fingerprint scope is required; pass "
                         "--model-path or --fingerprint")
    try:
        rules_text = pathlib.Path(args.rules_file).read_text()
    except OSError as error:
        raise SystemExit(f"triage: cannot read rules file "
                         f"{args.rules_file!r}: {error}")
    try:
        rules = parse_rules(rules_text, origin=args.rules_file)
    except RuleParseError as error:
        raise SystemExit(f"triage: {error}")
    try:
        registry = ScanRegistry(args.registry, fingerprint=fingerprint)
    except (RegistryError, OSError) as error:
        raise SystemExit(f"triage: cannot open registry "
                         f"{args.registry!r}: {error}")
    engine = RulesEngine(rules, alert_path=args.alert_file,
                         dead_letter_path=args.dead_letter_file)
    try:
        triage = RetroTriage(registry, rules, rules_text, engine=engine,
                             dry_run=args.dry_run,
                             batch_size=args.batch_size,
                             resume=not args.no_resume)
        result = triage.run()
    except (CompileError, RegistryError) as error:
        raise SystemExit(f"triage: {error}")
    finally:
        registry.close()
    if args.explain:
        for line in result.plan_lines:
            print(f"plan: {line}", file=sys.stderr)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.format())
    if engine.dead_lettered:
        print(f"triage: {engine.dead_lettered} webhook deliveries "
              f"dead-lettered", file=sys.stderr)
    return 2 if (result.exit_nonzero and not result.dry_run) else 0


def _command_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.service import GraphCache
    from repro.service.server import ScanServer

    _arm_fault_plan("serve", args.fault_plan)
    _arm_tracing("serve", args.trace_file, args.log_json)
    detector = _load_detector("serve", args, explain=not args.no_explain)
    registry = _open_registry("serve", args.registry, detector)
    try:
        cache = GraphCache.for_config(
            detector.config,
            capacity=(args.cache_capacity
                      if args.cache_capacity is not None else 1024),
            disk_dir=args.cache_dir)
        server = ScanServer(detector, host=args.host, port=args.port,
                            workers=args.workers, max_batch=args.max_batch,
                            cache=cache, registry=registry,
                            ingest_queue=args.ingest_queue)
    except (OSError, OverflowError) as error:
        raise SystemExit(f"serve: cannot bind {args.host}:{args.port}: "
                         f"{error}")
    except ValueError as error:
        raise SystemExit(f"serve: invalid parameters: {error}")

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    previous_handler = signal.signal(signal.SIGTERM, _terminate)
    print(f"scamdetect server listening on {server.url} "
          f"(workers={args.workers}, max_batch={args.max_batch})",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        print("serve: draining in-flight scans and shutting down",
              flush=True)
        server.shutdown()
        if registry is not None:
            registry.close()
        signal.signal(signal.SIGTERM, previous_handler)
    return 0


def _command_trace_summarize(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (format_summary, load_trace_file,
                           summarize_traces, verify_traces)

    try:
        records = load_trace_file(args.trace_file)
    except OSError as error:
        raise SystemExit(f"trace summarize: cannot read "
                         f"{args.trace_file!r}: {error}")
    except ValueError as error:
        raise SystemExit(f"trace summarize: {error}")
    summary = summarize_traces(records, top=args.top)
    if args.json:
        payload = dict(summary, invariants=verify_traces(records))
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_summary(summary))
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    from repro.evaluation import (
        run_e1_phishinghook_zoo,
        run_e2_obfuscation_degradation,
        run_e3_gnn_vs_baseline,
        run_e4_robustness_curve,
        run_e5_cross_platform,
        run_e6_dedup_ablation,
        run_e7_gnn_ablation,
        run_e8_scan_throughput,
        run_e9_gnn_throughput,
        run_e10_sharded_throughput,
        run_e11_watch_ingest,
        run_e12_cascade_throughput,
        run_e13_chaos_resilience,
        run_e14_registry_triage,
        run_e15_event_ingest,
        run_e16_observability,
    )

    runners = {
        "E1": run_e1_phishinghook_zoo,
        "E2": run_e2_obfuscation_degradation,
        "E3": run_e3_gnn_vs_baseline,
        "E4": run_e4_robustness_curve,
        "E5": run_e5_cross_platform,
        "E6": run_e6_dedup_ablation,
        "E7": run_e7_gnn_ablation,
        "E8": run_e8_scan_throughput,
        "E9": run_e9_gnn_throughput,
        "E10": run_e10_sharded_throughput,
        "E11": run_e11_watch_ingest,
        "E12": run_e12_cascade_throughput,
        "E13": run_e13_chaos_resilience,
        "E14": run_e14_registry_triage,
        "E15": run_e15_event_ingest,
        "E16": run_e16_observability,
    }
    result = runners[args.id.upper()]()
    print(result.format())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="scamdetect",
        description="ScamDetect reproduction: corpora, training, scanning, experiments")
    subparsers = parser.add_subparsers(dest="command", required=True)

    corpus_parser = subparsers.add_parser("corpus", help="generate a synthetic corpus")
    _add_corpus_arguments(corpus_parser)
    corpus_parser.set_defaults(handler=_command_corpus)

    train_parser = subparsers.add_parser("train", help="train and save a detector")
    _add_corpus_arguments(train_parser)
    train_parser.add_argument("--architecture", default="gcn",
                              choices=("gcn", "gat", "gin", "tag", "graphsage"))
    train_parser.add_argument("--readout", default="mean", choices=("mean", "sum", "max"))
    train_parser.add_argument("--epochs", type=int, default=30)
    train_parser.add_argument("--test-fraction", type=float, default=0.3)
    train_parser.add_argument("--model-path", required=True)
    train_parser.add_argument("--cascade", action="store_true",
                              help="also train the tier-0 calibrated n-gram "
                                   "pre-filter head and persist it in the "
                                   "bundle (enables scan/serve --cascade)")
    train_parser.set_defaults(handler=_command_train)

    scan_parser = subparsers.add_parser("scan", help="scan a contract with a saved model")
    scan_parser.add_argument("--model-path", required=True)
    scan_parser.add_argument("--hex-file", help="file containing hex bytecode")
    scan_parser.add_argument("--binary-file", help="file containing raw binary code")
    scan_parser.add_argument("--platform", choices=("evm", "wasm"), default=None)
    scan_parser.add_argument("--threshold", type=float, default=0.5)
    scan_parser.add_argument("--sample-id", default="contract")
    _add_cascade_arguments(scan_parser)
    scan_parser.set_defaults(handler=_command_scan)

    batch_parser = subparsers.add_parser(
        "scan-batch",
        help="scan a directory of bytecode files with parallel lowering, "
             "a content-addressed graph cache and throughput reporting")
    batch_parser.add_argument("--model-path", required=True)
    batch_parser.add_argument("--input-dir", required=True,
                              help="directory of bytecode files (.hex parsed as "
                                   "hex text, anything else as raw binary)")
    batch_parser.add_argument("--pattern", default="*",
                              help="glob filter applied inside --input-dir")
    batch_parser.add_argument("--no-recursive", action="store_true",
                              help="scan only the top level of --input-dir "
                                   "(default recurses into subdirectories)")
    batch_parser.add_argument("--registry", default=None,
                              help="persistent verdict registry (SQLite); "
                                   "known bytecode is answered without "
                                   "inference and fresh verdicts are "
                                   "recorded")
    batch_parser.add_argument("--platform", choices=("evm", "wasm"), default=None,
                              help="force one platform (sniffed per file when "
                                   "omitted)")
    batch_parser.add_argument("--threshold", type=float, default=0.5)
    batch_parser.add_argument("--cache-dir", default=None,
                              help="directory for the persistent graph-cache "
                                   "tier (re-use across runs for warm scans)")
    batch_parser.add_argument("--cache-capacity", type=int, default=None,
                              help="in-memory graph-cache entries (default 1024)")
    batch_parser.add_argument("--shards", type=int, default=1,
                              help="scan worker processes; >= 2 shards the "
                                   "scan by content hash across pipeline "
                                   "replicas (escapes the GIL for lowering)")
    batch_parser.add_argument("--explain", action="store_true",
                              help="attach indicator notes to every report "
                                   "(slower; off by default in batch mode)")
    batch_parser.add_argument("--fault-plan", default=None,
                              help="JSON fault-injection plan to arm for "
                                   "this run (chaos testing; see "
                                   "repro.resilience)")
    batch_parser.add_argument("--show-reports", action="store_true",
                              help="print every per-contract report after the "
                                   "summary")
    _add_observability_arguments(batch_parser)
    _add_cascade_arguments(batch_parser)
    batch_parser.set_defaults(handler=_command_scan_batch)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the long-running scan server (POST /scan, /scan-batch; "
             "GET /healthz, /metrics) with request coalescing")
    serve_parser.add_argument("--model-path", required=True)
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8742,
                              help="TCP port (0 picks a free port)")
    serve_parser.add_argument("--workers", type=int, default=8,
                              help="handler threads (requests served at "
                                   "once)")
    serve_parser.add_argument("--max-batch", type=int, default=32,
                              help="max graphs coalesced into one GNN "
                                   "inference call")
    serve_parser.add_argument("--threshold", type=float, default=0.5)
    serve_parser.add_argument("--cache-dir", default=None,
                              help="directory for the persistent graph-cache "
                                   "tier")
    serve_parser.add_argument("--cache-capacity", type=int, default=None,
                              help="in-memory graph-cache entries "
                                   "(default 1024)")
    serve_parser.add_argument("--no-explain", action="store_true",
                              help="skip indicator notes in verdicts "
                                   "(faster; default keeps scan parity)")
    serve_parser.add_argument("--fault-plan", default=None,
                              help="JSON fault-injection plan to arm in the "
                                   "server")
    serve_parser.add_argument("--registry", default=None,
                              help="persistent verdict registry (SQLite); "
                                   "enables GET /verdicts and records "
                                   "every served verdict")
    serve_parser.add_argument("--ingest-queue", type=int, default=None,
                              help="enable POST /v1/ingest backed by a "
                                   "bounded queue of N contracts (requires "
                                   "--registry; a full queue answers 503 "
                                   "with Retry-After)")
    _add_observability_arguments(serve_parser)
    _add_cascade_arguments(serve_parser)
    serve_parser.set_defaults(handler=_command_serve)

    watch_parser = subparsers.add_parser(
        "watch",
        help="continuously watch a directory: scan new/changed contracts, "
             "record verdicts in the registry, run triage rules")
    watch_parser.add_argument("directory",
                              help="corpus directory to watch")
    watch_parser.add_argument("--model-path", required=True)
    watch_parser.add_argument("--registry", required=True,
                              help="SQLite verdict registry (created on "
                                   "first use; survives watch restarts)")
    watch_parser.add_argument("--rules", default=None,
                              help="TOML triage rules evaluated on every "
                                   "new verdict (see 'scamdetect rules "
                                   "check')")
    watch_parser.add_argument("--dead-letter-file", default=None,
                              help="JSONL sink for webhook deliveries that "
                                   "exhausted their retries")
    watch_parser.add_argument("--fault-plan", default=None,
                              help="JSON fault-injection plan to arm in the "
                                   "watcher (chaos testing)")
    watch_parser.add_argument("--alert-file", default=None,
                              help="JSONL sink for rule 'alert' actions")
    watch_parser.add_argument("--interval", type=float, default=2.0,
                              help="seconds a quiet cycle waits for "
                                   "changes (the poll backend walks the "
                                   "tree once per interval)")
    watch_parser.add_argument("--max-polls", type=int, default=None,
                              help="stop after N cycles following the "
                                   "backfill (default: run until "
                                   "SIGTERM/SIGINT)")
    watch_parser.add_argument("--pattern", default="*",
                              help="glob filter for contract files")
    watch_parser.add_argument("--no-recursive", action="store_true",
                              help="watch only the top level of DIRECTORY")
    watch_parser.add_argument("--threshold", type=float, default=0.5)
    watch_parser.add_argument("--cache-dir", default=None,
                              help="directory for the persistent "
                                   "graph-cache tier")
    watch_parser.add_argument("--shards", type=int, default=1,
                              help="scan worker processes per cycle")
    watch_parser.add_argument("--explain", action="store_true",
                              help="attach indicator notes to recorded "
                                   "verdicts (matches scan-batch --explain)")
    watch_parser.add_argument("--event-driven", action="store_true",
                              help="accepted for compatibility; watch is "
                                   "always event-driven")
    watch_parser.add_argument("--root", action="append", default=None,
                              metavar="DIR",
                              help="additional watch root (repeatable)")
    watch_parser.add_argument("--backend", default="auto",
                              choices=("auto", "inotify", "poll"),
                              help="event source: inotify (auto picks it "
                                   "where available) or poll, which walks "
                                   "the tree every --interval (use it on "
                                   "network mounts)")
    watch_parser.add_argument("--queue-capacity", type=int, default=1024,
                              help="bounded ingest queue size "
                                   "(backpressure knob)")
    watch_parser.add_argument("--json", action="store_true",
                              help="one JSON object per cycle (cycle 0 is "
                                   "the backfill) instead of the "
                                   "human-readable line (includes "
                                   "exit_nonzero and faulted_cycles)")
    _add_observability_arguments(watch_parser)
    _add_cascade_arguments(watch_parser)
    watch_parser.set_defaults(handler=_command_watch)

    query_parser = subparsers.add_parser(
        "query",
        help="query the persistent verdict registry (by verdict, score "
             "range, platform, time window, path glob, tag)")
    query_parser.add_argument("--registry", required=True)
    query_parser.add_argument("--model-path", default=None,
                              help="scope to this model bundle's graph "
                                   "fingerprint")
    query_parser.add_argument("--fingerprint", default=None,
                              help="scope to an explicit graph fingerprint "
                                   "(default: all fingerprints)")
    query_parser.add_argument("--sha256", default=None,
                              help="only rows whose content hash starts "
                                   "with this prefix")
    query_parser.add_argument("--verdict",
                              choices=("malicious", "benign"), default=None)
    query_parser.add_argument("--min-score", type=float, default=None)
    query_parser.add_argument("--max-score", type=float, default=None)
    query_parser.add_argument("--platform", choices=("evm", "wasm"),
                              default=None)
    query_parser.add_argument("--since", default=None,
                              help="scanned at/after (epoch or ISO-8601)")
    query_parser.add_argument("--until", default=None,
                              help="scanned at/before (epoch or ISO-8601)")
    query_parser.add_argument("--path-glob", default=None,
                              help="shell glob on the recorded source path "
                                   "(the fnmatch dialect of a rule's "
                                   "path_glob: [!seq] negates)")
    query_parser.add_argument("--tag", default=None,
                              help="only rows carrying this triage tag")
    query_parser.add_argument("--limit", type=int, default=50,
                              help="newest-first row cap (default 50)")
    query_parser.add_argument("--all", action="store_true",
                              help="no row cap (overrides --limit)")
    query_parser.add_argument("--cursor", default=None,
                              help="resume a paginated listing from this "
                                   "opaque cursor (from a previous page)")
    query_parser.add_argument("--page-size", type=int, default=None,
                              help="keyset-paginated mode: rows per page "
                                   "(prints the next cursor)")
    query_parser.add_argument("--history", action="store_true",
                              help="include the per-contract rescan history")
    query_parser.add_argument("--json", action="store_true",
                              help="machine-readable output (report dicts "
                                   "identical to scan-batch verdicts)")
    query_parser.set_defaults(handler=_command_query, threshold=0.5)

    rules_parser = subparsers.add_parser(
        "rules", help="triage-rules tooling")
    rules_subparsers = rules_parser.add_subparsers(dest="rules_command",
                                                   required=True)
    rules_check_parser = rules_subparsers.add_parser(
        "check", help="validate a TOML rules file and print the parsed "
                      "rules")
    rules_check_parser.add_argument("rules_file",
                                    help="TOML rules file to validate")
    rules_check_parser.set_defaults(handler=_command_rules_check)

    triage_parser = subparsers.add_parser(
        "triage",
        help="retro-apply a TOML rules file across the registry's "
             "historical rows (compiled to index-backed SQL, resumable)")
    triage_parser.add_argument("rules_file",
                               help="TOML rules file to apply")
    triage_parser.add_argument("--registry", required=True,
                               help="SQLite verdict registry")
    triage_parser.add_argument("--model-path", default=None,
                               help="scope to this model bundle's graph "
                                    "fingerprint")
    triage_parser.add_argument("--fingerprint", default=None,
                               help="scope to an explicit graph fingerprint")
    triage_parser.add_argument("--dry-run", action="store_true",
                               help="compute and print the would-be actions "
                                    "without tagging/alerting/posting")
    triage_parser.add_argument("--batch-size", type=int, default=1000,
                               help="rows per fetch/act/commit cycle")
    triage_parser.add_argument("--no-resume", action="store_true",
                               help="start over instead of resuming an "
                                    "unfinished run of the same rules file")
    triage_parser.add_argument("--alert-file", default=None,
                               help="JSONL sink for rule 'alert' actions")
    triage_parser.add_argument("--dead-letter-file", default=None,
                               help="JSONL sink for webhook deliveries that "
                                    "exhausted their retries")
    triage_parser.add_argument("--explain", action="store_true",
                               help="print the EXPLAIN QUERY PLAN lines of "
                                    "every compiled rule")
    triage_parser.add_argument("--json", action="store_true",
                               help="machine-readable result")
    triage_parser.set_defaults(handler=_command_triage, threshold=0.5)

    trace_parser = subparsers.add_parser(
        "trace", help="trace tooling (summarize --trace-file exports)")
    trace_subparsers = trace_parser.add_subparsers(dest="trace_command",
                                                   required=True)
    trace_summarize_parser = trace_subparsers.add_parser(
        "summarize",
        help="per-site latency percentiles, slowest traces and the "
             "critical path of a span JSONL export")
    trace_summarize_parser.add_argument("trace_file",
                                        help="span JSONL file written by "
                                             "--trace-file")
    trace_summarize_parser.add_argument("--top", type=int, default=5,
                                        help="how many slowest traces to "
                                             "list (default 5)")
    trace_summarize_parser.add_argument("--json", action="store_true",
                                        help="machine-readable summary "
                                             "(adds the span-accounting "
                                             "invariant counters)")
    trace_summarize_parser.set_defaults(handler=_command_trace_summarize)

    experiment_parser = subparsers.add_parser("experiment",
                                              help="run one E1-E16 experiment")
    experiment_parser.add_argument("--id", required=True,
                                   choices=[f"E{i}" for i in range(1, 17)])
    experiment_parser.set_defaults(handler=_command_experiment)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())

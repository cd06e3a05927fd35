"""Program-process entry code of the front-door benchmark.

``run.py`` starts one fresh interpreter per front door with this file as
its script.  It puts the checkout's ``src`` first on the import path,
installs the span wrappers of :mod:`spans` only when ``--trace-out`` is
given, and then hands control to the program's own CLI:

``train``
    the calls ``scamdetect train --cascade`` makes, on a seeded mixed
    EVM+WASM corpus (the CLI's own ``train`` generates one platform only);
``batch``
    ``scamdetect scan-batch --cache-dir DIR``: the CLI builds its scanner
    with its own defaults, and the benchmark's batches run through that
    scanner's ``scan_codes`` in place of the directory walk;
``serve``
    ``scamdetect serve --registry DB --cascade --port 0``;
``watch``
    ``scamdetect watch ROOT --event-driven --registry DB --rules FILE``.

Each front door writes one JSON line ``{"event": "ready", ...}`` to the
control pipe (``--ctl FD``) when its set-up is done, and a JSON result
(peak RSS, counters, verdicts) to ``--result`` when it exits.  ``serve``
and ``watch`` run until SIGTERM, which their CLI handlers turn into a
draining shutdown.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402  (after the path set-up above)

#: Training recipe of the benchmark bundle (sizes mirror the CLI defaults:
#: 200 samples of the main platform, 30 epochs, 30% held out).
TRAIN_SEED = 20261017
TRAIN_EVM = 200
TRAIN_WASM = 100
TRAIN_EPOCHS = 30

STATE: dict = {}


def _control(fd: int, **message) -> None:
    os.write(fd, (json.dumps(message) + "\n").encode())


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _finish(args, payload: dict, recorder) -> None:
    payload["peak_rss_mb"] = _peak_rss_mb()
    with open(args.result, "w") as handle:
        json.dump(payload, handle)
    if recorder is not None:
        recorder.dump(args.trace_out)


def _report_row(report) -> list:
    return [report.label, report.malicious_probability,
            getattr(report, "stage", "gnn"), list(report.notes)]


def command_train(args) -> int:
    from repro.core.config import ScamDetectConfig
    from repro.core.detector import ScamDetector
    from repro.datasets.corpus import Corpus
    from repro.datasets.generator import CorpusGenerator, GeneratorConfig
    from repro.datasets.splits import stratified_split

    samples = []
    for platform, count, offset in (("evm", TRAIN_EVM, 0), ("wasm", TRAIN_WASM, 1)):
        samples.extend(CorpusGenerator(GeneratorConfig(
            platform=platform, num_samples=count,
            seed=TRAIN_SEED + offset)).generate())
    train, test = stratified_split(Corpus(samples, name="mixed"),
                                   test_fraction=0.3, seed=TRAIN_SEED)
    config = ScamDetectConfig(epochs=TRAIN_EPOCHS, seed=TRAIN_SEED)
    detector = ScamDetector(config).train(train, cascade=True)
    metrics = detector.evaluate(test)
    print("held-out metrics: " + ", ".join(
        f"{name}={value:.3f}" for name, value in metrics.items()))
    detector.save(args.out)
    return 0


def command_batch(args, recorder) -> int:
    from repro import cli
    from repro.service.batch import BatchScanResult, BatchScanner
    from repro.service.cache import CacheStats

    # {"codes": [hex], "warmup": [index], "batches": [[index]]}
    with open(args.inputs) as handle:
        inputs = json.load(handle)
    codes = [bytes.fromhex(code) for code in inputs["codes"]]
    warmup = [codes[index] for index in inputs["warmup"]]
    batches = [[codes[index] for index in batch] for batch in inputs["batches"]]

    def run_batches(self, directory, pattern="*", platform=None,
                    recursive=True):
        self.scan_codes(warmup, sample_ids=[f"w{i:05d}" for i in range(len(warmup))])
        _control(args.ctl, event="ready")
        if args.setup_only:
            return BatchScanResult()
        calls, verdicts = [], []
        cache = CacheStats()
        result = BatchScanResult()
        serial = 0
        start = time.perf_counter()
        deadline = start + args.seconds
        for batch in batches:
            ids = [f"c{serial + i:06d}" for i in range(len(batch))]
            serial += len(batch)
            began = time.perf_counter()
            result = self.scan_codes(batch, sample_ids=ids)
            ended = time.perf_counter()
            calls.append([began, ended, len(batch)])
            cache = cache.merge(result.cache_stats)
            verdicts.extend(_report_row(report) for report in result.reports)
            if ended >= deadline:
                break
        STATE.update(calls=calls, verdicts=verdicts, cache=cache.to_dict(),
                     window=[start, time.perf_counter()],
                     exhausted=len(calls) == len(batches))
        result.skipped = []
        return result

    BatchScanner.scan_directory = run_batches
    empty = pathlib.Path(args.cache_dir).parent / "empty-input"
    empty.mkdir(exist_ok=True)
    code = cli.main(["scan-batch", "--model-path", args.model,
                     "--input-dir", str(empty), "--cache-dir", args.cache_dir])
    if code not in (0, 2):  # 2 = some verdict was malicious
        return code
    _finish(args, dict(STATE), recorder)
    return 0


def command_serve(args, recorder) -> int:
    from repro import cli
    from repro.service.server import ScanServer

    original = ScanServer.serve_forever

    def serve_forever(self):
        _control(args.ctl, event="ready", port=self.port)
        return original(self)

    ScanServer.serve_forever = serve_forever
    code = cli.main(["serve", "--model-path", args.model, "--registry",
                     args.registry, "--cascade", "--port", "0"])
    if code != 0:
        return code
    _finish(args, {}, recorder)
    return 0


def command_watch(args, recorder) -> int:
    from repro import cli
    from repro.ingest.service import EventIngestService

    original = EventIngestService.run

    def run(self, interval=0.5, max_cycles=None, on_cycle=None):
        # ready once the backfill is done and the first event cycle (which
        # consumes the watcher's catch-up events for the backfilled tree)
        # has returned
        STATE["service"] = self

        def first_cycle(cycle, stats):
            if cycle == 1:
                STATE["stats_ready"] = self.stats.to_dict()
                _control(args.ctl, event="ready", backend=self.backend)
            if on_cycle is not None:
                on_cycle(cycle, stats)

        return original(self, interval=interval, max_cycles=max_cycles,
                        on_cycle=first_cycle)

    EventIngestService.run = run
    code = cli.main(["watch", args.root, "--event-driven", "--model-path",
                     args.model, "--registry", args.registry, "--rules",
                     args.rules, "--alert-file", args.alert_file])
    if code not in (0, 2):  # 2 = an exit_nonzero rule fired
        return code
    service = STATE.pop("service")
    STATE["stats_end"] = service.stats.to_dict()
    _finish(args, dict(STATE), recorder)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="agent.py")
    sub = parser.add_subparsers(dest="command", required=True)
    train = sub.add_parser("train")
    train.add_argument("--out", required=True)
    for name in ("batch", "serve", "watch"):
        door = sub.add_parser(name)
        door.add_argument("--model", required=True)
        door.add_argument("--ctl", type=int, required=True)
        door.add_argument("--result", required=True)
        door.add_argument("--trace-out", default=None)
        if name == "batch":
            door.add_argument("--cache-dir", required=True)
            door.add_argument("--inputs", required=True)
            door.add_argument("--seconds", type=float, required=True)
            door.add_argument("--setup-only", action="store_true")
        else:
            door.add_argument("--registry", required=True)
        if name == "watch":
            door.add_argument("--root", required=True)
            door.add_argument("--rules", required=True)
            door.add_argument("--alert-file", required=True)
    args = parser.parse_args(argv)
    if args.command == "train":
        return command_train(args)
    recorder = None
    if args.trace_out:
        recorder = spans.install(spans.SpanRecorder())
    handler = {"batch": command_batch, "serve": command_serve,
               "watch": command_watch}[args.command]
    return handler(args, recorder)


if __name__ == "__main__":
    sys.exit(main())

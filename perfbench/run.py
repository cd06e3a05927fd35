#!/usr/bin/env python3
"""Front-door benchmark of the ScamDetect reproduction.

One command runs one workload through one of the program's front doors,
in a fresh program process, on inputs made from ``--seed``::

    python3 perfbench/run.py --workload gate-zipf --seed 1 --seconds 10 --trace 0

``--workload all`` runs the four workloads in turn, each printing its own
report and result line.

Workloads (why each exists: ``perfbench/README.md``):

``batch-cold``   ``scan-batch`` defaults plus an empty ``--cache-dir``,
                 successive ``scan_codes`` calls of 256 never-seen contracts.
``rescan-warm``  the same scanner over contracts an earlier scan already
                 wrote to the disk cache.
``gate-zipf``    ``serve --registry --cascade``, open-loop Poisson
                 ``POST /v1/scan`` at 30 req/s, 30% first sightings and 70%
                 Zipf(s=1) repeats.
``watch-burst``  ``watch --event-driven`` with a two-rule rules file; every
                 second a block of 48 files is renamed into the tree.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload twice, untraced and then with the layer wrappers of
``perfbench/spans.py`` installed, and prints the per-layer table, the
share of wall time no span covers and the tracing overhead.  The last
line of standard output is always one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The run exits non-zero without that line when it cannot run at all (for
example outside a full checkout), and exits 1 after printing it when an
operation failed or a verdict or state check did not hold.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import pathlib
import platform
import select
import shutil
import signal
import socket
import sqlite3
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
AGENT = HERE / "agent.py"
WORK_ROOT = ROOT / ".perfbench-work"

WORKLOADS = ("batch-cold", "rescan-warm", "gate-zipf", "watch-burst")

#: End-to-end metrics every workload reports with ``--trace 0``.
END_TO_END = (
    ("contracts_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Program processes started per untraced run; ``setup_s`` is their median.
SETUP_SPAWNS = 3
#: Share of the run's busy CPU time (all but idle and iowait) that the
#: host stole, above which the report marks the run as slowed by the
#: host.  Busy time, not all time, is the base, so the share does not
#: shrink on a workload that leaves the CPUs mostly idle.
STEAL_MARK = 0.05
#: Contracts per verdict check (compared against ``ScamDetector.scan``).
VERDICT_SAMPLE = 48
#: How long a program may take to come up (imports, bundle, backfill).
READY_TIMEOUT_S = 90.0

BATCH = 256
OBFUSCATED_SHARE = 0.25
BATCH_WARMUP = 16
#: Never-seen contracts generated per second of run, far above today's
#: rate, so a faster program does not run out of inputs.
COLD_RATE_CAP = 500
#: Contracts of the warm set: more than the scanner's 1024-entry memory
#: tier plus one batch, so cycling through it misses memory every time
#: and every lookup is a disk hit.
WARM_SET = 1280
WARM_RATE_CAP = 2500

GATE_RATE = 30.0
GATE_NEW_PER_10 = 3
GATE_WARMUP = 12
#: A repeat only picks contracts first sent at least this long ago, so
#: its first sighting was answered and recorded before the repeat is due.
GATE_REPEAT_AGE_S = 1.0
GATE_CONNECTIONS = 2

WATCH_BACKFILL = 400
WATCH_DIRS = 8
#: Every file of a burst is stamped by the same drain, so a run has as
#: many distinct latencies as bursts, and p90 is about the tenth of them
#: that drained slowest.  A burst drains in under a tenth of the period,
#: so bursts never overlap.
WATCH_PERIOD_S = 1.0
#: Per burst of 48 files: new contracts, clones of a new contract of the
#: same burst (the queue coalesces them), clones of files older than the
#: last ``WATCH_RECENT`` written (registry hits), and rewrites of
#: backfilled paths.  All but the rewrites arrive as one block directory
#: renamed into the tree; the rewrites are renamed onto their paths right
#: after it.  One rename per block keeps a burst from being split across
#: watcher wake-ups at random points, which made per-file latency swing
#: by half between identical runs.
WATCH_BURST = {"new": 24, "recent": 9, "old": 8, "rewrite": 7}
WATCH_RECENT = 40
WATCH_RULES = """\
[[rules]]
name = "tag-malicious"
[rules.match]
verdict = "malicious"
[rules.actions]
tag = ["flagged"]

[[rules]]
name = "alert-confident"
[rules.match]
min_score = 0.9
[rules.actions]
alert = true
"""


class BenchError(RuntimeError):
    """The benchmark could not run (not a check failure)."""


# --------------------------------------------------------------------------- #
# helpers


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verdict_tuple(label, probability, stage, notes) -> list:
    return [int(label), round(float(probability), 9), str(stage), list(notes)]


def read_cpu_times() -> List[int]:
    """Jiffies of all CPUs so far, by ``/proc/stat`` column (steal is 7)."""
    with open("/proc/stat") as handle:
        return [int(value) for value in handle.readline().split()[1:9]]


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(cpu_before: List[int], cpu_after: List[int]) -> Dict[str, object]:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, AttributeError):
        pass
    delta = [after - before for before, after in zip(cpu_before, cpu_after)]
    total = sum(delta)
    busy = total - delta[3] - delta[4]
    return {
        "git_sha": sha,
        "src_sha256": src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "cpu_steal_share": (delta[7] / total) if total else 0.0,
        "cpu_steal_of_busy": (delta[7] / busy) if busy else 0.0,
    }


class Program:
    """One program process running ``agent.py`` (the program under test)."""

    def __init__(self, work: pathlib.Path, name: str, mode: str,
                 args: Sequence[str], trace: bool = False) -> None:
        read_fd, write_fd = os.pipe()
        self.name = name
        self.log_path = work / f"{name}.log"
        self.result_path = work / f"{name}.result.json"
        self.trace_path = work / f"{name}.spans.json" if trace else None
        command = [sys.executable, str(AGENT), mode, "--ctl", str(write_fd),
                   "--result", str(self.result_path), *args]
        if self.trace_path is not None:
            command += ["--trace-out", str(self.trace_path)]
        self._buffer = b""
        self._ctl = read_fd
        with open(self.log_path, "wb") as log:
            self.spawned = time.perf_counter()
            self.proc = subprocess.Popen(
                command, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=log,
                stderr=subprocess.STDOUT, pass_fds=(write_fd,))
        os.close(write_fd)

    def wait_event(self, timeout: float = READY_TIMEOUT_S) -> dict:
        """The next control message; raises if the program dies first."""
        deadline = time.perf_counter() + timeout
        while b"\n" not in self._buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise BenchError(f"{self.name}: no control message within "
                                 f"{timeout:.0f}s\n{self.log_tail()}")
            ready, _, _ = select.select([self._ctl], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(self._ctl, 4096)
            if not chunk:
                self.proc.wait(timeout=30)
                raise BenchError(f"{self.name} exited with "
                                 f"{self.proc.returncode} before reporting "
                                 f"ready\n{self.log_tail()}")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        message = json.loads(line)
        message["received"] = time.perf_counter()
        return message

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (the CLI's draining shutdown), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        return self.wait(timeout)

    def wait(self, timeout: float = 120.0) -> int:
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
            raise BenchError(f"{self.name} did not exit within {timeout:.0f}s"
                             f"\n{self.log_tail()}")
        finally:
            if self._ctl >= 0:
                os.close(self._ctl)
                self._ctl = -1
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        if self._ctl >= 0:
            os.close(self._ctl)
            self._ctl = -1

    def result(self) -> dict:
        if self.proc.returncode != 0:
            raise BenchError(f"{self.name} exited with {self.proc.returncode}"
                             f"\n{self.log_tail()}")
        with open(self.result_path) as handle:
            return json.load(handle)

    def spans(self) -> dict:
        with open(self.trace_path) as handle:
            return json.load(handle)

    def log_tail(self, lines: int = 25) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])


class Pass:
    """What one timed pass measured and checked."""

    def __init__(self) -> None:
        self.throughput = 0.0
        #: latency samples in seconds, one per delivered verdict
        self.latencies: List[float] = []
        self.setups: List[float] = []
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.checks: List[Tuple[str, bool]] = []
        self.lines: List[str] = []
        self.window: Tuple[float, float] = (0.0, 0.0)
        self.trace: Optional[dict] = None
        self.client: Optional[dict] = None

    def check(self, description: str, ok: bool) -> None:
        self.checks.append((description, bool(ok)))

    def e2e(self) -> Dict[str, float]:
        """The end-to-end metrics over every sample of the timed phase."""
        if not self.latencies or not self.setups:
            raise BenchError("no operation succeeded; nothing to report")
        return {
            "contracts_per_s": self.throughput,
            "latency_p50_ms": percentile(self.latencies, 0.50) * 1e3,
            "latency_p90_ms": percentile(self.latencies, 0.90) * 1e3,
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": self.peak_rss_mb,
        }


class Context:
    def __init__(self, args, work: pathlib.Path, model: str) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.work = work
        self.model = model
        self.programs: List[Program] = []
        self._reference = {}

    def spawn(self, name: str, mode: str, args: Sequence[str],
              trace: bool = False) -> Program:
        program = Program(self.work, name, mode, args, trace=trace)
        self.programs.append(program)
        return program

    def reference(self, codes: Sequence[bytes], explain: bool,
                  cascade: bool) -> List[list]:
        """``ScamDetector.scan`` verdicts, in this process, after timing."""
        from repro.core.detector import ScamDetector

        key = (explain, cascade)
        if key not in self._reference:
            self._reference[key] = ScamDetector.load(
                self.model, explain=explain, cascade=cascade)
        detector = self._reference[key]
        rows = []
        for index, code in enumerate(codes):
            report = detector.scan(code, sample_id=f"ref{index}")
            rows.append(verdict_tuple(report.label, report.malicious_probability,
                                      report.stage, report.notes))
        return rows


def sample_indices(count: int, seed: int, stream: str) -> List[int]:
    from inputs import stream_rng

    rng = stream_rng(seed, stream)
    return sorted(rng.sample(range(count), min(VERDICT_SAMPLE, count)))


def check_verdicts(ctx: Context, result: Pass, codes: Sequence[bytes],
                   served: Sequence[Optional[list]], explain: bool,
                   cascade: bool) -> None:
    """Compare a seeded sample of served verdicts with ``scan``; every
    mismatch counts as a failed operation."""
    indices = sample_indices(len(codes), ctx.seed, ctx.workload + ":verdicts")
    expected = ctx.reference([codes[i] for i in indices], explain, cascade)
    mismatches = sum(1 for i, want in zip(indices, expected) if served[i] != want)
    result.failed += mismatches
    digest = hashlib.sha256()
    for code, verdict in zip(codes, served):
        digest.update(json.dumps([sha256_hex(code), verdict]).encode())
    result.lines.append(
        f"verdicts: digest {digest.hexdigest()[:16]} over {len(codes)}; "
        f"{len(indices) - mismatches}/{len(indices)} sampled match "
        f"ScamDetector.scan(explain={explain}, cascade={cascade})")
    result.check("sampled verdicts equal ScamDetector.scan", mismatches == 0)


# --------------------------------------------------------------------------- #
# bundle


def ensure_bundle() -> str:
    """Train the benchmark bundle once per source tree (outside timing)."""
    key = hashlib.sha256((src_digest() + AGENT.read_text()).encode()).hexdigest()[:16]
    bundle = WORK_ROOT / f"bundle-{key}"
    model = bundle / "model"
    if (bundle / "model.json").exists():
        return str(model)
    staging = WORK_ROOT / f"bundle-{key}.tmp{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    log = staging / "train.log"
    with open(log, "wb") as handle:
        code = subprocess.run(
            [sys.executable, str(AGENT), "train", "--out", str(staging / "model")],
            cwd=ROOT, stdout=handle, stderr=subprocess.STDOUT, timeout=600).returncode
    if code != 0:
        raise BenchError(f"training the bundle failed:\n{log.read_text()[-2000:]}")
    try:
        staging.rename(bundle)
    except OSError:
        shutil.rmtree(staging, ignore_errors=True)  # a concurrent run won
    return str(model)


# --------------------------------------------------------------------------- #
# batch-cold / rescan-warm


class BatchWorkload:
    """``scan-batch`` defaults plus ``--cache-dir``, cold or warm."""

    def __init__(self, ctx: Context, warm: bool) -> None:
        from inputs import ContractFactory

        self.ctx = ctx
        self.warm = warm
        factory = ContractFactory(ctx.seed, ctx.workload)
        self.warmup = factory.make_block(BATCH_WARMUP, OBFUSCATED_SHARE)
        if warm:
            self.pool = [code for _ in range(WARM_SET // BATCH)
                         for code in factory.make_block(BATCH, OBFUSCATED_SHARE)]
            count = math.ceil(WARM_RATE_CAP * ctx.seconds / BATCH)
            self.order = [(k * BATCH + i) % len(self.pool)
                          for k in range(count) for i in range(BATCH)]
        else:
            count = math.ceil(COLD_RATE_CAP * ctx.seconds / BATCH)
            self.pool = [code for _ in range(count)
                         for code in factory.make_block(BATCH, OBFUSCATED_SHARE)]
            self.order = list(range(len(self.pool)))
        codes = self.warmup + self.pool
        self.unique = len({sha256_hex(code) for code in codes}) == len(codes)
        base = len(self.warmup)
        hexes = [code.hex() for code in codes]
        self.inputs = ctx.work / "batch-inputs.json"
        self.inputs.write_text(json.dumps({
            "codes": hexes,
            "warmup": list(range(base)),
            "batches": [[base + index for index in self.order[k:k + BATCH]]
                        for k in range(0, len(self.order), BATCH)],
        }))
        self.warm_cache = None
        if warm:
            self._prepare_warm_cache(hexes)

    def _prepare_warm_cache(self, hexes: List[str]) -> None:
        """The earlier scan that wrote every warm graph to the disk cache."""
        self.warm_cache = self.ctx.work / "cache-warm"
        prep_inputs = self.ctx.work / "prep-inputs.json"
        prep_inputs.write_text(json.dumps({
            "codes": hexes, "warmup": list(range(len(hexes))), "batches": []}))
        program = self.ctx.spawn("prep", "batch", [
            "--model", self.ctx.model, "--cache-dir", str(self.warm_cache),
            "--inputs", str(prep_inputs), "--seconds", "0", "--setup-only"])
        program.wait_event(timeout=150)
        program.wait()
        program.result()

    def run_pass(self, spawns: int, traced: bool) -> Pass:
        ctx = self.ctx
        result = Pass()
        for index in range(spawns):
            last = index == spawns - 1
            name = f"{'traced' if traced else 'plain'}-{index}"
            cache = self.warm_cache or ctx.work / f"cache-{name}"
            if not self.warm:
                cache.mkdir()  # raises if it exists: every cold pass starts empty
            args = ["--model", ctx.model, "--cache-dir", str(cache),
                    "--inputs", str(self.inputs), "--seconds", str(ctx.seconds)]
            if not last:
                args.append("--setup-only")
            program = ctx.spawn(name, "batch", args, trace=traced and last)
            ready = program.wait_event()
            result.setups.append(ready["received"] - program.spawned)
            if program.wait(timeout=150) != 0 or not last:
                program.result()
                continue
            outcome = program.result()
            if traced:
                result.trace = program.spans()
        calls = outcome["calls"]
        scanned = sum(call[2] for call in calls)
        result.window = tuple(outcome["window"])
        result.attempted = scanned
        result.throughput = scanned / (calls[-1][1] - calls[0][0])
        for began, ended, size in calls:
            result.latencies.extend([ended - began] * size)
        result.peak_rss_mb = outcome["peak_rss_mb"]
        served = outcome["verdicts"]
        codes = [self.pool[i] for i in self.order[:scanned]]
        if len(served) != scanned:
            result.failed += abs(scanned - len(served))
        check_verdicts(ctx, result, codes, served, explain=False, cascade=False)
        cache_stats = outcome["cache"]
        result.lines.append(
            f"batch: {len(calls)} scan_codes calls of {BATCH}, {scanned} "
            f"contracts; cache {json.dumps(cache_stats, sort_keys=True)}"
            + ("; INPUTS EXHAUSTED before --seconds" if outcome["exhausted"] else ""))
        if self.warm:
            result.check(f"disk_hits {cache_stats['disk_hits']} == contracts "
                         f"{scanned}", cache_stats["disk_hits"] == scanned)
        else:
            result.check("contract sha256s are unique", self.unique)
            result.check(f"cache misses {cache_stats['misses']} == contracts "
                         f"{scanned}", cache_stats["misses"] == scanned
                         and cache_stats["hits"] == 0)
        return result


# --------------------------------------------------------------------------- #
# gate-zipf


def scan_request(code: bytes, sample_id: str) -> bytes:
    """One complete ``POST /v1/scan`` request, built before timing."""
    body = json.dumps({"bytecode": code.hex(), "sample_id": sample_id}).encode()
    return (b"POST /v1/scan HTTP/1.0\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body)


def http_exchange(port: int, request: bytes) -> Tuple[Optional[int], bytes]:
    """Send one request on a fresh connection and read the response to EOF
    (the server speaks HTTP/1.0: one request per connection).  A plain
    socket keeps the load generator's own cost per request small."""
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=60) as conn:
            conn.sendall(request)
            chunks = []
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
    except OSError as error:
        return None, str(error).encode()
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    try:
        return int(head.split(b" ", 2)[1]), body
    except (IndexError, ValueError):
        return None, head


def metrics_snapshot(port: int) -> dict:
    status, body = http_exchange(
        port, b"GET /v1/metrics HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n")
    if status != 200:
        raise BenchError(f"GET /v1/metrics answered {status}")
    return json.loads(body)


class GateWorkload:
    """``serve --registry --cascade`` under open-loop Poisson traffic."""

    def __init__(self, ctx: Context) -> None:
        from inputs import ContractFactory, stream_rng, zipf_cumulative

        self.ctx = ctx
        factory = ContractFactory(ctx.seed, ctx.workload)
        rng = stream_rng(ctx.seed, ctx.workload + ":plan")
        self.codes = factory.make_block(GATE_WARMUP, 0.0)
        count = round(GATE_RATE * ctx.seconds)
        # a Poisson process conditioned on its count: sorted uniform times
        self.dues = sorted(rng.uniform(0.0, ctx.seconds) for _ in range(count))
        kinds: List[bool] = []
        while len(kinds) < count:
            block = [True] * GATE_NEW_PER_10 + [False] * (10 - GATE_NEW_PER_10)
            rng.shuffle(block)
            kinds.extend(block)
        weights = zipf_cumulative(count + GATE_WARMUP)
        eligible = list(range(GATE_WARMUP))  # by first send, oldest first
        waiting: List[Tuple[float, int]] = []
        fresh: List[bytes] = []
        self.plan: List[Tuple[int, bool]] = []
        for due, is_new in zip(self.dues, kinds):
            while waiting and waiting[0][0] <= due - GATE_REPEAT_AGE_S:
                eligible.append(waiting.pop(0)[1])
            if is_new:
                if not fresh:
                    fresh = factory.make_block(12, 0.0)
                self.codes.append(fresh.pop())
                waiting.append((due, len(self.codes) - 1))
                self.plan.append((len(self.codes) - 1, True))
            else:
                target = rng.random() * weights[len(eligible) - 1]
                rank = bisect.bisect_left(weights, target, 0, len(eligible) - 1)
                self.plan.append((eligible[rank], False))
        self.requests = [
            scan_request(self.codes[code], f"g{index:05d}")
            for index, (code, _) in enumerate(self.plan)]

    def _start(self, name: str, traced: bool) -> Tuple[Program, int, float]:
        """Spawn the server and run the warm-up; returns the set-up time."""
        ctx = self.ctx
        program = ctx.spawn(name, "serve", [
            "--model", ctx.model,
            "--registry", str(ctx.work / f"registry-{name}.db")], trace=traced)
        port = program.wait_event()["port"]
        for index in range(GATE_WARMUP):
            status, _ = http_exchange(
                port, scan_request(self.codes[index], f"w{index:05d}"))
            if status != 200:
                raise BenchError(f"warm-up request failed with {status}")
        return program, port, time.perf_counter() - program.spawned

    def run_pass(self, spawns: int, traced: bool) -> Pass:
        result = Pass()
        for index in range(spawns - 1):
            program, _, setup = self._start(f"plain-{index}", False)
            result.setups.append(setup)
            program.stop()
            program.result()
        name = f"{'traced' if traced else 'plain'}-{spawns - 1}"
        program, port, setup = self._start(name, traced)
        result.setups.append(setup)
        before = metrics_snapshot(port)

        count = len(self.plan)
        records: List[Optional[tuple]] = [None] * count
        cursor = [0]
        lock = threading.Lock()
        start = time.perf_counter() + 0.05

        def sender() -> None:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= count:
                    return
                delay = start + self.dues[index] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                status, body = http_exchange(port, self.requests[index])
                records[index] = (sent, time.perf_counter(), status, body)

        gc.collect()
        gc.disable()
        try:
            threads = [threading.Thread(target=sender)
                       for _ in range(GATE_CONNECTIONS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            gc.enable()
        after = metrics_snapshot(port)
        program.stop()
        outcome = program.result()
        if traced:
            result.trace = program.spans()

        ok = [r for r in records if r[2] == 200]
        end = max(r[1] for r in records)
        result.window = (start, end)
        result.attempted = count
        result.failed = count - len(ok)
        result.throughput = len(ok) / (end - start)
        result.latencies = [record[1] - (start + due)
                            for record, due in zip(records, self.dues)
                            if record[2] == 200]
        result.peak_rss_mb = outcome["peak_rss_mb"]
        result.client = {f"g{i:05d}": r[1] - r[0]
                         for i, r in enumerate(records) if r[2] == 200}
        lateness = [r[0] - (start + due) for r, due in zip(records, self.dues)]
        result.lines.append(
            f"open loop: {GATE_RATE:g} req/s over {GATE_CONNECTIONS} "
            f"connections; sent {count}, succeeded {len(ok)}, failed "
            f"{count - len(ok)}; generator lateness median "
            f"{statistics.median(lateness) * 1e3:.3f} ms, max "
            f"{max(lateness) * 1e3:.3f} ms (n={count})")

        served: List[Optional[list]] = [None] * len(self.codes)
        consistent = True
        for (code, _), record in zip(self.plan, records):
            if record[2] != 200:
                continue
            body = json.loads(record[3])
            verdict = verdict_tuple(body["label"], body["malicious_probability"],
                                    body.get("stage", "gnn"), body["notes"])
            if served[code] is None:
                served[code] = verdict
            elif served[code] != verdict:
                consistent = False
        sent_codes = [i for i, verdict in enumerate(served) if verdict is not None]
        check_verdicts(self.ctx, result, [self.codes[i] for i in sent_codes],
                       [served[i] for i in sent_codes], explain=True, cascade=True)
        result.check("every repeat returned its first sighting's verdict",
                     consistent)
        new = sum(1 for _, is_new in self.plan if is_new)
        hits = (after["scans"]["registry"]["hits"]
                - before["scans"]["registry"]["hits"])
        misses = (after["scans"]["registry"]["misses"]
                  - before["scans"]["registry"]["misses"])
        result.lines.append(
            f"registry: {hits} hits / {misses} misses in /v1/metrics; plan "
            f"{count - new} repeats / {new} first sightings")
        result.check("registry hits and misses match the plan",
                     hits == count - new and misses == new)
        return result


# --------------------------------------------------------------------------- #
# watch-burst


class WatchWorkload:
    """``watch --event-driven`` fed by bursts of atomic renames."""

    def __init__(self, ctx: Context) -> None:
        from inputs import ContractFactory, stream_rng

        self.ctx = ctx
        factory = ContractFactory(ctx.seed, ctx.workload)
        rng = stream_rng(ctx.seed, ctx.workload + ":plan")
        self.backfill = [(f"d{k % WATCH_DIRS}/b{k:04d}.bin", code) for k, code
                         in enumerate(factory.make_block(WATCH_BACKFILL, 0.0))]
        history = list(self.backfill)  # (path, content) in write order
        rewritable = [path for path, _ in self.backfill]
        rng.shuffle(rewritable)
        #: per burst: (path, content, kind); paths of the block are under
        #: its own directory, rewrites name a backfilled path
        self.bursts: List[List[Tuple[str, bytes, str]]] = []
        count = max(1, int(ctx.seconds // WATCH_PERIOD_S))
        if count * WATCH_BURST["rewrite"] > WATCH_BACKFILL:
            raise BenchError(
                f"watch-burst rewrites each backfilled path at most once, "
                f"so it runs at most "
                f"{WATCH_BACKFILL // WATCH_BURST['rewrite'] * WATCH_PERIOD_S:g} s")
        for burst in range(count):
            block = f"burst-{burst:03d}"
            fresh = factory.make_block(
                WATCH_BURST["new"] + WATCH_BURST["rewrite"], 0.0)
            older = history[:-WATCH_RECENT]
            new = [(f"{block}/n{i:02d}.bin", fresh.pop(), "new")
                   for i in range(WATCH_BURST["new"])]
            entries = list(new)
            entries += [(f"{block}/r{i:02d}.bin", rng.choice(new)[1], "recent")
                        for i in range(WATCH_BURST["recent"])]
            entries += [(f"{block}/o{i:02d}.bin", rng.choice(older)[1], "old")
                        for i in range(WATCH_BURST["old"])]
            entries += [(rewritable.pop(), fresh.pop(), "rewrite")
                        for _ in range(WATCH_BURST["rewrite"])]
            history.extend(entry[:2] for entry in entries)
            self.bursts.append(entries)
        self.rules = ctx.work / "rules.toml"
        self.rules.write_text(WATCH_RULES)

    def _build_tree(self) -> Tuple[pathlib.Path, pathlib.Path]:
        feed, staging = self.ctx.work / "feed", self.ctx.work / "staging"
        shutil.rmtree(feed, ignore_errors=True)
        shutil.rmtree(staging, ignore_errors=True)
        for k in range(WATCH_DIRS):
            (feed / f"d{k}").mkdir(parents=True)
        staging.mkdir()
        for path, code in self.backfill:
            (feed / path).write_bytes(code)
        for burst, entries in enumerate(self.bursts):
            (staging / f"burst-{burst:03d}").mkdir()
            for position, (path, code, kind) in enumerate(entries):
                staged = (staging / f"rewrite-{burst:03d}-{position:02d}"
                          if kind == "rewrite" else staging / path)
                staged.write_bytes(code)
        return feed, staging

    def _start(self, name: str, feed: pathlib.Path, traced: bool):
        ctx = self.ctx
        registry = ctx.work / f"registry-{name}.db"
        program = ctx.spawn(name, "watch", [
            "--model", ctx.model, "--registry", str(registry),
            "--root", str(feed), "--rules", str(self.rules),
            "--alert-file", str(ctx.work / f"alerts-{name}.jsonl")], trace=traced)
        ready = program.wait_event()
        return program, registry, ready["received"] - program.spawned

    def run_pass(self, spawns: int, traced: bool) -> Pass:
        result = Pass()
        feed, staging = self._build_tree()
        for index in range(spawns - 1):
            program, _, setup = self._start(f"plain-{index}", feed, False)
            result.setups.append(setup)
            program.stop()
            program.result()
        name = f"{'traced' if traced else 'plain'}-{spawns - 1}"
        program, registry, setup = self._start(name, feed, traced)
        result.setups.append(setup)

        #: per burst: (path, content, wall time of its rename)
        renamed: List[List[Tuple[str, bytes, float]]] = []
        lateness: List[float] = []
        start = time.perf_counter() + 0.05
        gc.collect()
        gc.disable()
        try:
            for burst, entries in enumerate(self.bursts):
                delay = start + burst * WATCH_PERIOD_S - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lateness.append(time.perf_counter() - start - burst * WATCH_PERIOD_S)
                block = f"burst-{burst:03d}"
                moved_at = time.time()
                os.rename(staging / block, feed / block)
                moved = [(path, code, moved_at)
                         for path, code, kind in entries if kind != "rewrite"]
                for position, (path, code, kind) in enumerate(entries):
                    if kind == "rewrite":
                        moved_at = time.time()
                        os.rename(staging / f"rewrite-{burst:03d}-{position:02d}",
                                  feed / path)
                        moved.append((path, code, moved_at))
                renamed.append(moved)
            delay = start + len(self.bursts) * WATCH_PERIOD_S - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        finally:
            gc.enable()
        window_end = time.perf_counter()
        program.stop()
        outcome = program.result()
        if traced:
            result.trace = program.spans()
        result.window = (start, window_end)
        result.peak_rss_mb = outcome["peak_rss_mb"]

        with sqlite3.connect(registry) as db:
            seen = {path: (sha, at) for path, sha, at in db.execute(
                "SELECT path, sha256, last_seen_at FROM watched_files")}
            rows = {sha: verdict_tuple(label, probability, stage, json.loads(notes))
                    for sha, label, probability, stage, notes in db.execute(
                        "SELECT sha256, label, malicious_probability, stage, "
                        "notes FROM verdicts")}
        stamped = []
        per_burst = []
        for moved in renamed:
            burst = []
            for path, code, moved_at in moved:
                row = seen.get(path)
                if (row is not None and row[0] == sha256_hex(code)
                        and row[1] >= moved_at):
                    stamped.append(row[1])
                    burst.append(row[1] - moved_at)
            result.latencies.extend(burst)
            per_burst.append(burst)
        files = [entry for moved in renamed for entry in moved]
        result.attempted = len(files)
        result.failed = len(files) - len(stamped)
        first = min(moved_at for _, _, moved_at in files)
        result.throughput = len(stamped) / (max(stamped) - first) if stamped else 0.0
        result.lines.append(
            f"open loop: {len(self.bursts)} bursts of "
            f"{len(self.bursts[0])} files every {WATCH_PERIOD_S:g}s; renamed "
            f"{len(files)}, stamped {len(stamped)}, failed "
            f"{len(files) - len(stamped)}; writer lateness median "
            f"{statistics.median(lateness) * 1e3:.3f} ms, max "
            f"{max(lateness) * 1e3:.3f} ms (n={len(lateness)})")
        result.lines.append("latency by burst, median/max ms: " + " ".join(
            f"{statistics.median(burst) * 1e3:.1f}/{max(burst) * 1e3:.1f}"
            for burst in per_burst if burst))
        codes = [code for _, code, _ in files]
        served = [rows.get(sha256_hex(code)) for code in codes]
        check_verdicts(self.ctx, result, codes, served, explain=False, cascade=False)
        ready, end = outcome["stats_ready"], outcome["stats_end"]
        delta = {key: end[key] - ready[key] for key in
                 ("events", "enqueued", "deduped", "registry_hits", "scanned",
                  "drained", "rules_matched", "alerts")}
        result.lines.append(f"ingest: {json.dumps(delta, sort_keys=True)}")
        result.check("IngestStats shows deduped > 0", delta["deduped"] > 0)
        result.check("IngestStats shows registry_hits > 0",
                     delta["registry_hits"] > 0)
        return result


# --------------------------------------------------------------------------- #


def make_workload(ctx: Context):
    if ctx.workload == "batch-cold":
        return BatchWorkload(ctx, warm=False)
    if ctx.workload == "rescan-warm":
        return BatchWorkload(ctx, warm=True)
    if ctx.workload == "gate-zipf":
        return GateWorkload(ctx)
    return WatchWorkload(ctx)


def overhead_ratio(workload: str, plain: Dict[str, float],
                   traced: Dict[str, float]) -> float:
    """Traced cost over untraced cost on the workload's headline metric."""
    if workload in ("batch-cold", "rescan-warm"):
        return plain["contracts_per_s"] / traced["contracts_per_s"]
    return traced["latency_p50_ms"] / plain["latency_p50_ms"]


def report_pass(label: str, result: Pass) -> None:
    for line in result.lines:
        print(f"[{label}] {line}")
    n = len(result.latencies)
    print(f"[{label}] latency samples n={n}: p50 "
          f"{percentile(result.latencies, 0.5) * 1e3:.3f} ms, p90 "
          f"{percentile(result.latencies, 0.9) * 1e3:.3f} ms, p99 "
          f"{percentile(result.latencies, 0.99) * 1e3:.3f} ms "
          f"(p99 printed, not gated)")
    print(f"[{label}] setup_s samples: "
          + ", ".join(f"{value:.4f}" for value in result.setups))
    for description, ok in result.checks:
        print(f"[{label}] check {'ok  ' if ok else 'FAIL'} {description}")


def run(args) -> int:
    if not (SRC / "repro" / "__init__.py").exists():
        raise BenchError(f"no program source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    cpu_before = read_cpu_times()
    work = WORK_ROOT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = None
    try:
        model = ensure_bundle()
        ctx = Context(args, work, model)
        workload = make_workload(ctx)
        if args.trace:
            plain = workload.run_pass(1, traced=False)
            traced = workload.run_pass(1, traced=True)
            passes = [("untraced", plain), ("traced", traced)]
        else:
            plain = workload.run_pass(SETUP_SPAWNS, traced=False)
            passes = [("run", plain)]
    finally:
        if ctx is not None:
            for program in ctx.programs:
                program.kill()
        shutil.rmtree(work, ignore_errors=True)
    info = provenance(cpu_before, read_cpu_times())

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("provenance: " + json.dumps(info, sort_keys=True))
    if info["cpu_steal_of_busy"] > STEAL_MARK:
        print(f"provenance: the host stole {info['cpu_steal_of_busy']:.1%} of "
              f"the busy CPU time of this run (over {STEAL_MARK:.0%}); its "
              f"timings read slower than the program is")
    for label, result in passes:
        report_pass(label, result)
    if args.trace:
        import spans

        metrics = spans.layer_metrics(traced.trace, traced.window, traced.client)
        ratio = overhead_ratio(args.workload, plain.e2e(), traced.e2e())
        metrics["trace.overhead_ratio"] = [ratio, "ratio", 1]
        print(f"{'per-layer metric':32s} {'value':>14s} {'unit':6s} samples")
        for name, (value, unit, samples) in metrics.items():
            print(f"{name:32s} {value:14.4f} {unit:6s} {samples}")
    else:
        values = plain.e2e()
        metrics = {name: [values[name], unit, None] for name, unit in END_TO_END}
        delivered = len(plain.latencies)
        sample_counts = {
            "contracts_per_s": delivered,
            "latency_p50_ms": delivered,
            "latency_p90_ms": delivered,
            "setup_s": len(plain.setups),
            "peak_rss_mb": 1,
        }
        print(f"{'end-to-end metric':20s} {'value':>14s} {'unit':6s} samples")
        for name, unit in END_TO_END:
            print(f"{name:20s} {values[name]:14.4f} {unit:6s} {sample_counts[name]}")
    attempted = sum(result.attempted for _, result in passes)
    failed = sum(result.failed for _, result in passes)
    correct = failed == 0 and all(
        ok for _, result in passes for _, ok in result.checks)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    code = 0
    try:
        for workload in workloads:
            code = max(code, run(argparse.Namespace(**{**vars(args),
                                                       "workload": workload})))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())

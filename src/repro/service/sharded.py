"""Multi-process sharded scan engine.

PRs 1-3 made scanning fast *within* one interpreter (content-addressed graph
cache, block-diagonal batched inference, request coalescing), but lowering --
disassembly, CFG recovery, feature extraction -- is pure CPU-bound Python, so
a single process caps the whole stack at one core.  :class:`ShardedScanner`
breaks that ceiling: it partitions work **by content hash** across a pool of
worker processes, each owning a full pipeline replica loaded once from a
persistence bundle, and merges the workers' quantized verdicts back into one
:class:`~repro.service.batch.BatchScanResult`.

Design points:

* **Hash partitioning.**  A contract always lands on the shard addressed by
  the SHA-256 of its bytecode, so repeated bytecode hits the same worker's
  in-memory cache, and the shard assignment is deterministic across runs.
* **Shared warm disk tier.**  All workers may point at one cache directory;
  the :class:`~repro.service.cache.GraphCache` disk tier publishes entries
  with atomic temp-file renames and treats unreadable entries as misses, so
  concurrent shards need no lock to share a warm cache.
* **Verdict parity.**  Workers run the same
  :class:`~repro.core.engine.ScanEngine` as every other entry point, and
  :meth:`~repro.core.detector.ScamDetector.build_report` quantizes scores,
  so sharded verdicts are byte-identical to single-process
  ``ScamDetector.scan`` verdicts no matter how the corpus is split.
* **Crash recovery.**  Chunks are executed *at least once* and merged
  *exactly once*: if a worker dies mid-batch its unacknowledged chunks are
  requeued onto a respawned replica (duplicated results are dropped by chunk
  id), so a killed worker loses time, never verdicts.  Respawns back off
  exponentially (``restart_backoff_s`` doubling per death) instead of
  burning CPU in a tight crash loop.
* **Quarantine over failure.**  A shard that keeps dying (a genuinely
  poisonous input, a broken replica) trips a per-shard
  :class:`~repro.resilience.breaker.CircuitBreaker` after ``max_restarts``
  respawns: the shard is quarantined and its hash-space rebalanced onto the
  healthy shards, so the batch completes degraded-but-correct.  Only when
  *no* healthy shard remains does the scan stop with a :class:`ShardError`.
  A quarantine raises a warning and marks the shard ``quarantined`` in the
  scan's per-shard stats.
* **Non-intrusive observability.**  Workers ship a tiny stats delta with
  every completed chunk (wall-clock, cache counters, batch histogram); the
  parent aggregates them into per-shard ``throughput_stats`` (the
  ``shards`` section of :meth:`BatchScanResult.stats_dict`) without ever
  touching the scoring hot path.

The pool passes only picklable values (bytes, tuples, report and stats
dataclasses), so it works under both ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
import pathlib
import queue as queue_module
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.detector import ScamDetector
from repro.core.engine import ScanEngine, ScanOutcome
from repro.obs.trace import (
    Tracer,
    active_tracer,
    arm as _arm_tracer,
    armed as _tracing_armed,
    carrier as _trace_carrier,
    trace_from,
)
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import (
    FAULT_CRASH_EXIT_CODE,
    FaultPlan,
    activate as _activate_faults,
    active_plan_dict,
    evaluate_fault,
    fault_point,
)
from repro.service.batch import BatchScanResult, ScanEntryPoints, throughput_stats
from repro.service.cache import CacheStats, GraphCache

PathLike = Union[str, pathlib.Path]

#: Exit code of a worker killed by a ``crash``-kind
#: :class:`~repro.resilience.faults.FaultSpec` entry.
_CRASH_EXIT_CODE = FAULT_CRASH_EXIT_CODE


class ShardError(RuntimeError):
    """A worker failed in a way the pool could not recover from."""


def shard_for_bytecode(raw: bytes, shards: int) -> int:
    """Deterministic shard index of ``raw``: SHA-256 prefix modulo
    ``shards``.

    Content addressing (rather than round-robin) keeps identical bytecode on
    one shard, so factory clones and re-submissions always hit that worker's
    warm in-memory cache.
    """
    digest = hashlib.sha256(raw).digest()
    return int.from_bytes(digest[:8], "big") % shards


# ------------------------------------------------------------------------- #
# worker process


def _scan_chunk(engine: ScanEngine, items: Sequence[Tuple]):
    """Scan one chunk of ``(index, raw, platform, sample_id)`` on this
    worker's engine; returns ``(index, report)`` pairs plus the stats delta
    the parent aggregates per shard."""
    started = time.perf_counter()
    outcome = engine.run(
        [raw for _, raw, _, _ in items],
        [sample_id for _, _, _, sample_id in items],
        [platform for _, _, platform, _ in items],
    )
    stats = {
        "contracts": len(items),
        "malicious": sum(1 for report in outcome.reports if report.is_malicious),
        "elapsed_seconds": time.perf_counter() - started,
        "cache": outcome.cache_stats,
        "batch_sizes": outcome.batch_sizes,
        "cascade": outcome.cascade_stats,
    }
    return [(item[0], report) for item, report in zip(items, outcome.reports)], stats


def _crash(result_queue) -> None:
    """Die like a crashed worker, without deadlocking the parent.

    ``os._exit`` alone can kill the queue's feeder thread mid-write,
    leaving a torn message in the result pipe; the parent's ``poll()``
    then sees readable data and its ``recv`` blocks forever.  Flushing
    the queue first keeps the injected crash deterministic *and*
    recoverable -- the already-completed results it flushes are exactly
    the ones the parent must ack before requeueing the rest.
    """
    result_queue.close()
    result_queue.join_thread()
    os._exit(_CRASH_EXIT_CODE)


def _shard_worker(
    shard_id: int, options: Dict, task_queue, result_queue
) -> None:
    """Worker main loop: load a pipeline replica once, then serve tasks.

    Tasks are ``(chunk_id, items, crash, span_carrier)`` tuples, ``None``
    to stop.  Messages back to the parent are ``(kind, shard_id, chunk_id,
    payload)`` tuples; ``kind`` is ``ready``/``scan``/``error``/``fatal``.

    When the parent had a fault plan active at spawn time the worker re-arms
    it locally (sites like ``cache.disk_*`` and ``shard.task`` then fire in
    this process too).  ``crash``-kind faults are *not* evaluated here: the
    parent's dispatch loop evaluates ``shard.worker.<id>`` and marks the
    dispatched task instead, so a plan-global ``max_fires`` bounds crashes
    across respawned replicas (a per-process schedule would re-arm on every
    respawn and crash-loop past ``max_restarts``).
    """
    try:
        plan_dict = options.get("fault_plan")
        if plan_dict:
            _activate_faults(FaultPlan.from_dict(plan_dict))
        # when the parent had tracing armed at spawn time, arm a local
        # buffering tracer: spans recorded in this process ride back to
        # the parent inside each chunk's stats payload (``spans`` key)
        worker_tracer = _arm_tracer(Tracer()) if options.get("trace") else None
        detector = ScamDetector.load(
            options["bundle_path"],
            threshold=options["threshold"],
            explain=options["explain"],
            cascade=options["cascade"],
            cascade_margin=options["cascade_margin"],
        )
        # A cascade-enabled replica without a trained head is fatal at pool
        # start, not a per-chunk error storm.
        detector.cascade_head()
        cache = GraphCache.for_config(
            detector.config,
            capacity=options["cache_capacity"],
            disk_dir=options["cache_dir"],
        )
        detector.pipeline.set_graph_cache(cache)
        # the replica runs the same scan engine as every other entry point,
        # minus the registry: the parent's engine reads and records it
        engine = ScanEngine(
            detector, inference_batch_size=options["inference_batch_size"]
        )
    except BaseException:
        result_queue.put(("fatal", shard_id, None, traceback.format_exc()))
        return
    result_queue.put(("ready", shard_id, None, os.getpid()))
    while True:
        task = task_queue.get()
        if task is None:
            return
        chunk_id, items, crash, span_carrier = task
        if crash:
            # parent-side dispatch marked this task via an injected
            # ``shard.worker.<id>`` crash fault: die *after* dequeue,
            # exactly the window where work would be lost without
            # requeueing
            _crash(result_queue)
        try:
            fault_point("shard.task")
            # obs site shard.chunk: continues the parent's trace across the
            # process boundary (link="follows"); inner sites (cache.lookup)
            # nest under it as normal children
            with trace_from(
                span_carrier, "shard.chunk", shard=shard_id, items=len(items)
            ):
                chunk_result = _scan_chunk(engine, items)
            if worker_tracer is not None:
                chunk_result[1]["spans"] = worker_tracer.drain()
            result_queue.put(("scan", shard_id, chunk_id, chunk_result))
        except BaseException:
            result_queue.put(
                ("error", shard_id, chunk_id, traceback.format_exc())
            )


# ------------------------------------------------------------------------- #
# parent-side pool


@dataclass
class _ShardHandle:
    """Parent-side bookkeeping for one worker process."""

    shard_id: int
    process: multiprocessing.Process
    task_queue: object
    #: chunk_id -> task tuple, for requeueing if the worker dies
    tasks: Dict[int, Tuple] = field(default_factory=dict)
    restarts: int = 0
    #: monotonic deadline before which a dead worker is *not* respawned
    #: (exponential backoff); None = not currently scheduled for respawn
    respawn_after: Optional[float] = None
    #: True once the breaker opened for this shard; it stays down and its
    #: hash-space is served by the healthy shards
    quarantined: bool = False


@dataclass
class _ShardWindow:
    """Accumulated per-shard telemetry (scan counters and restarts)."""

    contracts: int = 0
    malicious: int = 0
    elapsed_seconds: float = 0.0
    cache: CacheStats = field(default_factory=CacheStats)
    batch_sizes: Dict[int, int] = field(default_factory=dict)
    restarts: int = 0
    restart_backoff_s: float = 0.0
    quarantined: bool = False

    def absorb_scan(self, stats: Dict) -> None:
        self.contracts += stats["contracts"]
        self.malicious += stats["malicious"]
        self.elapsed_seconds += stats["elapsed_seconds"]
        self.cache = self.cache.merge(stats["cache"])
        for size, count in stats["batch_sizes"].items():
            self.batch_sizes[size] = self.batch_sizes.get(size, 0) + count

    def copy(self) -> "_ShardWindow":
        """Independent snapshot, for per-scan window deltas."""
        return _ShardWindow(
            contracts=self.contracts,
            malicious=self.malicious,
            elapsed_seconds=self.elapsed_seconds,
            cache=self.cache.copy(),
            batch_sizes=dict(self.batch_sizes),
            restarts=self.restarts,
            restart_backoff_s=self.restart_backoff_s,
            quarantined=self.quarantined,
        )

    def delta_stats(self, before: "_ShardWindow") -> Dict[str, object]:
        """One scan's per-shard entry: this window minus a snapshot, in the
        shared ``throughput_stats`` schema plus the restart counter."""
        sizes = {
            size: count - before.batch_sizes.get(size, 0)
            for size, count in self.batch_sizes.items()
            if count - before.batch_sizes.get(size, 0) > 0
        }
        entry = throughput_stats(
            self.contracts - before.contracts,
            self.malicious - before.malicious,
            self.elapsed_seconds - before.elapsed_seconds,
            self.cache.delta(before.cache),
            sizes,
        )
        entry["restarts"] = self.restarts - before.restarts
        entry["restart_backoff_s"] = (
            self.restart_backoff_s - before.restart_backoff_s
        )
        entry["quarantined"] = self.quarantined
        return entry


class ShardedScanner(ScanEntryPoints):
    """Scan driver that shards work across a process pool of replicas.

    Each worker process loads its own replica of ``detector`` from a
    scanner-owned persistence bundle and runs lowering plus batched GNN
    inference locally; the parent only partitions inputs, merges verdicts
    and aggregates telemetry.  Workers start with ``fork`` where the
    platform offers it, else with its default start method.

    Args:
        detector: A trained detector to replicate.  It is saved once to a
            temp bundle, and its ``threshold``/``explain``/``cascade``/
            ``cascade_margin`` settings apply to every worker, so sharded
            verdicts match what this very detector's ``scan`` would say.
        shards: Worker process count (>= 1).
        cache_dir: Optional directory for the shared on-disk graph cache
            tier.  Safe to share across shards and across runs (atomic
            writes); omit for per-worker in-memory caches only.
        cache_capacity: In-memory cache entries per worker.
        inference_batch_size: Graphs per batched model call inside a worker.
        chunk_size: Contracts per dispatched work unit.  Smaller chunks
            spread a skewed corpus more evenly and shrink the requeue window
            after a crash; larger chunks amortise IPC.
        max_restarts: Respawns allowed per shard before its circuit opens
            and the shard is quarantined (its hash-space is rebalanced onto
            the healthy shards); the scan only fails when no healthy shard
            remains.
        restart_backoff_s: Base respawn backoff; each further death of the
            same shard doubles it.  Non-blocking: the dispatch loop keeps
            draining results from the other shards while a respawn waits.

    Use as a context manager (or call :meth:`close`) to release the pool;
    the pool starts lazily on first use and survives across scans, so the
    bundle-load cost is paid once, not per call.
    """

    def __init__(
        self,
        detector: ScamDetector,
        *,
        shards: int = 2,
        cache_dir: Optional[PathLike] = None,
        cache_capacity: int = 1024,
        inference_batch_size: int = 256,
        chunk_size: int = 16,
        max_restarts: int = 3,
        restart_backoff_s: float = 0.1,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if not detector.is_trained:
            raise RuntimeError("ShardedScanner requires a trained detector")
        # Fail fast in the parent: a cascade-enabled detector without a
        # trained head would otherwise only surface from worker load.
        detector.cascade_head()
        self._tempdir: Optional[tempfile.TemporaryDirectory] = (
            tempfile.TemporaryDirectory(prefix="scamdetect-shards-")
        )
        bundle_path = pathlib.Path(self._tempdir.name) / "replica"
        detector.save(bundle_path)
        self.shards = shards
        self.chunk_size = chunk_size
        self.max_restarts = max_restarts
        self.restart_backoff_s = restart_backoff_s
        self._options = {
            "bundle_path": str(bundle_path),
            "threshold": detector.threshold,
            "explain": detector.explain,
            "cascade": detector.cascade,
            "cascade_margin": detector.cascade_margin,
            "cache_dir": str(cache_dir) if cache_dir is not None else None,
            "cache_capacity": cache_capacity,
            "inference_batch_size": inference_batch_size,
        }
        fork = "fork" in multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context("fork" if fork else None)
        self._result_queue = None
        self._handles: List[_ShardHandle] = []
        self._windows = [_ShardWindow() for _ in range(shards)]
        self._chunk_counter = itertools.count()
        self._breaker = CircuitBreaker(failure_threshold=max_restarts + 1)
        self._quarantined: set = set()
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle

    @property
    def started(self) -> bool:
        return bool(self._handles)

    @property
    def restarts(self) -> int:
        """Total worker respawns over the pool's lifetime."""
        return sum(window.restarts for window in self._windows)

    @property
    def degraded(self) -> bool:
        """True when at least one shard is quarantined (scans continue on
        the healthy shards)."""
        return bool(self._quarantined)

    @property
    def quarantined_shards(self) -> List[int]:
        return sorted(self._quarantined)

    def _active_shards(self) -> List[int]:
        return [
            shard_id
            for shard_id in range(self.shards)
            if shard_id not in self._quarantined
        ]

    def _route(self, shard_id: int) -> int:
        """Remap a quarantined shard's hash-space onto a healthy shard,
        deterministically (same quarantine set -> same routing)."""
        if shard_id not in self._quarantined:
            return shard_id
        active = self._active_shards()
        return active[shard_id % len(active)]

    def start(self) -> "ShardedScanner":
        """Spawn the worker pool and wait until every replica is loaded.

        Idempotent; scans call it implicitly.  Separating start from the
        first scan lets benchmarks exclude replica-load time from
        throughput windows.
        """
        if self._closed:
            raise ShardError("ShardedScanner is closed")
        if self._handles:
            return self
        self._result_queue = self._context.Queue()
        self._handles = [
            self._spawn(shard_id) for shard_id in range(self.shards)
        ]
        ready = set()
        deadline = time.monotonic() + 120.0
        while len(ready) < self.shards:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.close()
                raise ShardError(
                    "timed out waiting for shard workers to "
                    "load their pipeline replicas"
                )
            try:
                kind, shard_id, _, payload = self._result_queue.get(
                    timeout=min(remaining, 0.5)
                )
            except queue_module.Empty:
                for handle in self._handles:
                    # a replica that died without managing a 'fatal'
                    # message (OOM-kill, SIGKILL mid-load) would otherwise
                    # stall start() for the whole deadline
                    if (
                        handle.shard_id not in ready
                        and not handle.process.is_alive()
                    ):
                        exitcode = handle.process.exitcode
                        self.close()
                        raise ShardError(
                            f"shard {handle.shard_id} worker died during "
                            f"replica load (exit code {exitcode})"
                        )
                continue
            if kind == "fatal":
                self.close()
                raise ShardError(
                    f"shard {shard_id} failed to initialise:\n{payload}"
                )
            if kind == "ready":
                ready.add(shard_id)
        return self

    def _spawn(self, shard_id: int) -> _ShardHandle:
        task_queue = self._context.Queue()
        # captured per spawn, not per pool: a fault plan armed after
        # construction (e.g. via the CLI's --fault-plan) still reaches the
        # workers, and respawned replicas re-arm the same plan
        options = dict(self._options)
        options["fault_plan"] = active_plan_dict()
        # like the fault plan: tracing armed after construction still
        # reaches the workers, and respawned replicas re-arm it
        options["trace"] = _tracing_armed()
        process = self._context.Process(
            target=_shard_worker,
            args=(shard_id, options, task_queue, self._result_queue),
            name=f"scamdetect-shard-{shard_id}",
            daemon=True,
        )
        process.start()
        return _ShardHandle(
            shard_id=shard_id, process=process, task_queue=task_queue
        )

    def close(self) -> None:
        """Stop the workers and release queues/bundle; idempotent."""
        self._closed = True
        for handle in self._handles:
            try:
                handle.task_queue.put(None)
            except (OSError, ValueError):
                pass
        for handle in self._handles:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
        for handle in self._handles:
            handle.task_queue.close()
            handle.task_queue.cancel_join_thread()
        if self._result_queue is not None:
            self._result_queue.close()
            self._result_queue.cancel_join_thread()
            self._result_queue = None
        self._handles = []
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def __enter__(self) -> "ShardedScanner":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback_) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown effort
        try:
            if self._handles:
                self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # scanning (scan_codes / scan_corpus / scan_directory: ScanEntryPoints)

    def _scan_raw(
        self,
        raw_codes: List[bytes],
        ids: List[str],
        platforms: List[Optional[str]],
    ) -> BatchScanResult:
        started = time.perf_counter()
        outcome = self.run(raw_codes, ids, platforms)
        elapsed = time.perf_counter() - started
        return BatchScanResult.from_outcome(outcome, self.shards, elapsed)

    def run(
        self,
        raw_codes: List[bytes],
        ids: List[str],
        platforms: List[Optional[str]],
    ) -> ScanOutcome:
        """Scan on the pool; a None platform is sniffed by the worker.

        This is the shard-pool plug-in of a sharded ``BatchScanner``'s
        :class:`~repro.core.engine.ScanEngine`: every worker runs the same
        engine, without a registry, over its chunks.
        """
        if not raw_codes:
            return ScanOutcome()
        self.start()
        per_shard: List[List[Tuple]] = [[] for _ in range(self.shards)]
        for index, raw in enumerate(raw_codes):
            per_shard[shard_for_bytecode(raw, self.shards)].append(
                (index, raw, platforms[index], ids[index])
            )
        assignments = [
            (shard_id, items[start : start + self.chunk_size])
            for shard_id, items in enumerate(per_shard)
            for start in range(0, len(items), self.chunk_size)
        ]
        windows_before = [window.copy() for window in self._windows]
        outputs = self._run_tasks(assignments)

        reports: List = [None] * len(raw_codes)
        merged_cache = CacheStats()
        batch_sizes: Dict[int, int] = {}
        cascade_stats: Optional[Dict[str, int]] = None
        for shard_id, chunk_reports, stats in outputs:
            for index, report in chunk_reports:
                reports[index] = report
            # worker-recorded spans (shard.chunk + its children) ride
            # back in the stats payload; re-emit them into the parent's
            # tracer so one JSONL file holds the whole cross-process trace
            worker_spans = stats.pop("spans", None)
            if worker_spans:
                tracer = active_tracer()
                if tracer is not None:
                    tracer.emit_many(worker_spans)
            merged_cache = merged_cache.merge(stats["cache"])
            for size, count in stats["batch_sizes"].items():
                batch_sizes[size] = batch_sizes.get(size, 0) + count
            chunk_cascade = stats.get("cascade")
            if chunk_cascade is not None:
                if cascade_stats is None:
                    cascade_stats = {
                        "short_circuits": 0,
                        "escalations": 0,
                        "disagreements": 0,
                    }
                for key, value in chunk_cascade.items():
                    cascade_stats[key] = cascade_stats.get(key, 0) + value
            self._windows[shard_id].absorb_scan(stats)
        missing = [
            ids[i] for i, report in enumerate(reports) if report is None
        ]
        if missing:  # pragma: no cover - requeueing prevents this
            raise ShardError(
                f"sharded scan lost {len(missing)} "
                f"contracts: {missing[:5]}"
            )

        return ScanOutcome(
            reports=reports,
            cascade_stats=cascade_stats,
            batch_sizes=batch_sizes,
            cache_stats=merged_cache,
            shard_stats={
                f"shard-{shard_id}": window.delta_stats(windows_before[shard_id])
                for shard_id, window in enumerate(self._windows)
            },
        )

    # ------------------------------------------------------------------ #
    # dispatch/collect core with crash recovery

    def _run_tasks(
        self, assignments: Sequence[Tuple[int, List[Tuple]]]
    ) -> List[Tuple]:
        """Run ``(shard_id, items)`` scan chunks; returns per-assignment
        ``(executing_shard_id, chunk_reports, stats)`` in assignment order.

        Execution is at-least-once, merging exactly-once: a dead worker is
        respawned with a fresh queue and its unacknowledged chunks are
        redispatched; results for chunks already merged are dropped.
        """
        order: List[int] = []
        pending: Dict[int, int] = {}
        results: Dict[int, Tuple] = {}
        for shard_id, items in assignments:
            shard_id = self._route(shard_id)
            chunk_id = next(self._chunk_counter)
            # crash faults are evaluated here, parent-side, so the plan's
            # schedule (after / max_fires) is global across worker
            # respawns; the marked task kills its worker right after
            # dequeue
            spec = evaluate_fault(f"shard.worker.{shard_id}")
            crash = spec is not None and spec.kind == "crash"
            task = (chunk_id, items, crash, _trace_carrier())
            handle = self._handles[shard_id]
            handle.tasks[chunk_id] = task
            pending[chunk_id] = shard_id
            order.append(chunk_id)
            handle.task_queue.put(task)
        while pending:
            try:
                message = self._result_queue.get(timeout=0.1)
            except queue_module.Empty:
                try:
                    self._heal_workers()
                except ShardError:
                    self._abandon(pending)
                    raise
                continue
            kind, shard_id, chunk_id, payload = message
            if kind == "ready":
                continue
            if kind == "fatal":
                self._abandon(pending)
                raise ShardError(
                    f"shard {shard_id} replica failed to "
                    f"reload after a crash:\n{payload}"
                )
            if chunk_id not in pending:
                continue  # duplicate answer for a requeued chunk
            if kind == "error":
                self._abandon(pending)
                raise ShardError(f"shard {shard_id} failed:\n{payload}")
            chunk_reports, stats = payload
            results[chunk_id] = (shard_id, chunk_reports, stats)
            del pending[chunk_id]
            self._handles[shard_id].tasks.pop(chunk_id, None)
        return [results[chunk_id] for chunk_id in order]

    def _abandon(self, pending: Dict[int, int]) -> None:
        """Forget a failed run's outstanding chunks (stale results for them
        are already ignored by the ``chunk_id not in pending`` check)."""
        for handle in self._handles:
            for chunk_id in list(pending):
                handle.tasks.pop(chunk_id, None)
        pending.clear()

    def _heal_workers(self) -> None:
        """Notice dead workers; quarantine repeat offenders, respawn the
        rest after an exponential backoff.

        Called from the result loop's poll timeout, so backoff never
        blocks: while one shard waits out its backoff the loop keeps
        draining results from the others.  Each death is recorded once on
        the shard's circuit; the death that opens the circuit quarantines
        the shard instead of respawning it (see :meth:`_quarantine`).
        """
        now = time.monotonic()
        for index, handle in enumerate(self._handles):
            if handle.quarantined or handle.process.is_alive():
                continue
            if handle.respawn_after is None:
                # first notice of this death: count it, then either
                # quarantine (circuit opened) or schedule the respawn
                if self._breaker.record_failure(handle.shard_id):
                    self._quarantine(index)
                    continue
                backoff = self.restart_backoff_s * (2**handle.restarts)
                handle.respawn_after = now + backoff
                self._windows[handle.shard_id].restart_backoff_s += backoff
                warnings.warn(
                    f"shard {handle.shard_id} worker died (exit code "
                    f"{handle.process.exitcode}); respawning and "
                    f"requeueing {len(handle.tasks)} chunk(s) after "
                    f"{backoff:.2f}s backoff",
                    stacklevel=3,
                )
                continue
            if now < handle.respawn_after:
                continue
            # a fresh queue avoids ever reading a byte stream the dead
            # worker may have been mid-way through consuming
            old_queue = handle.task_queue
            replacement = self._spawn(handle.shard_id)
            replacement.restarts = handle.restarts + 1
            # workers consume their queue in chunk-id order and die at the
            # first crash-marked task, so that mark (already spent from the
            # plan's max_fires budget) is stripped on requeue; later marks
            # stay, keeping multi-crash schedules deterministic
            tasks = dict(handle.tasks)
            for chunk_id in sorted(tasks):
                _, items, crash, span_carrier = tasks[chunk_id]
                if crash:
                    tasks[chunk_id] = (chunk_id, items, False, span_carrier)
                    break
            replacement.tasks = tasks
            for chunk_id in sorted(replacement.tasks):
                replacement.task_queue.put(replacement.tasks[chunk_id])
            self._handles[index] = replacement
            self._windows[handle.shard_id].restarts += 1
            old_queue.close()
            old_queue.cancel_join_thread()

    def _quarantine(self, index: int) -> None:
        """Take a repeatedly-dying shard out of service and rebalance its
        unacknowledged chunks onto the healthy shards.

        Raises :class:`ShardError` only when no healthy shard remains to
        absorb the work -- otherwise the scan degrades instead of failing.
        """
        handle = self._handles[index]
        shard_id = handle.shard_id
        deaths = handle.restarts + 1
        healthy = [
            peer
            for peer in self._handles
            if peer.shard_id != shard_id and not peer.quarantined
        ]
        if not healthy:
            raise ShardError(
                f"shard {shard_id} died {deaths} times (exit code "
                f"{handle.process.exitcode}); giving up -- no healthy "
                f"shard left to absorb its work"
            )
        handle.quarantined = True
        self._quarantined.add(shard_id)
        self._windows[shard_id].quarantined = True
        warnings.warn(
            f"shard {shard_id} died {deaths} times (exit code "
            f"{handle.process.exitcode}); quarantining it and rebalancing "
            f"{len(handle.tasks)} chunk(s) onto {len(healthy)} healthy "
            f"shard(s) -- serving degraded",
            stacklevel=4,
        )
        for chunk_id in sorted(handle.tasks):
            _, items, _, span_carrier = handle.tasks.pop(chunk_id)
            target = healthy[chunk_id % len(healthy)]
            task = (chunk_id, items, False, span_carrier)
            target.tasks[chunk_id] = task
            target.task_queue.put(task)

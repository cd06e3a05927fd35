"""Event-driven ingest: watcher events -> bounded queue -> drain -> registry.

:class:`EventIngestService` is the one continuous-ingest path: it backs
``scamdetect watch`` (on the inotify backend, or the ``poll`` backend for
network mounts) and the ``serve --ingest-queue`` drain worker behind
``POST /v1/ingest``.  Drained work goes through the
:class:`~repro.service.batch.BatchScanner` (graph cache, cascade tier-0,
shard pool, registry short-circuit), sightings land in the registry's
watched-file index via ``upsert_watched_files``, and every verdict that is
new for a path runs the optional :class:`~repro.registry.rules.RulesEngine`
triage.  Both watcher backends write byte-identical registry rows.

Every observed file meets three short-circuits, cheapest first:

1. **stat short-circuit** -- a path whose ``(size, mtime_ns)`` matches the
   watched-file index is *unchanged*: no read, no hash, no scan;
2. **registry short-circuit** -- a new or changed file is read and hashed;
   bytecode already recorded under this model (a clone, a re-drop, a
   restart) is served from its stored row with zero lowering and zero
   inference;
3. only unseen bytecode reaches lowering and the model.

The pipeline has three stages, each behind its own chaos site:

1. **pump** (``ingest.event``) -- drain the watcher's events, stat
   (``watch.stat``) + stable-read the changed paths, classify them
   (changed > new > re-seen) and enqueue.  A full queue stalls the pump
   (events are retained), it never drops observations.
2. **queue** (``ingest.enqueue``) -- the bounded
   :class:`~repro.ingest.queue.IngestQueue`; duplicates coalesce so an
   identical-contract flood costs one scan.
3. **drain** (``ingest.drain``) -- batch-pop, scan, record, triage.  An
   injected fault after dequeue re-queues the batch: verdicts are never
   lost to chaos.

The service runs synchronously (:meth:`backfill`, :meth:`cycle` and
:meth:`run` -- what ``watch``, the tests and the E11/E15 benchmarks
drive) or threaded (:meth:`start` -- the push-only server mode).
"""

from __future__ import annotations

import dataclasses
import pathlib
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.detector import ScamDetector
from repro.ingest.events import (
    EVENT_DELETE,
    EVENT_OVERFLOW,
    EVENT_RMDIR,
    EVENT_UPSERT,
    FileEvent,
    open_watcher,
)
from repro.ingest.queue import (
    PRIORITY_CHANGED,
    PRIORITY_NEW,
    PRIORITY_RESEEN,
    IngestItem,
    IngestQueue,
    IngestQueueFull,
)
from repro.registry.rules import RulesEngine
from repro.registry.store import ScanRegistry, content_sha256

# reads go through the module attribute, resolved at call time, so
# instrumentation that wraps ``repro.registry.watch.stable_read`` sees them
from repro.registry import watch as _watch
from repro.obs.trace import carrier, emit_span, trace
from repro.resilience.faults import InjectedFault, fault_point
from repro.service.batch import BatchScanner, iter_contract_files

PathLike = Union[str, pathlib.Path]


@dataclass
class IngestStats:
    """Cumulative ingest telemetry (deltas per cycle via :meth:`delta`).

    ``short_circuits`` / ``escalations`` / ``disagreements`` are the tier-0
    cascade counters of the drained scans (zero with the cascade off).
    """

    cycles: int = 0
    events: int = 0
    upserts: int = 0
    deletes: int = 0
    unchanged: int = 0
    skipped: int = 0
    resyncs: int = 0
    enqueued: int = 0
    deduped: int = 0
    dropped: int = 0
    backpressure_stalls: int = 0
    drained: int = 0
    scanned: int = 0
    registry_hits: int = 0
    inference_calls: int = 0
    malicious: int = 0
    rules_matched: int = 0
    alerts: int = 0
    short_circuits: int = 0
    escalations: int = 0
    disagreements: int = 0
    faulted_cycles: int = 0
    faulted_drains: int = 0
    exit_nonzero: bool = False

    def delta(self, previous: "IngestStats") -> "IngestStats":
        """Counter-wise difference (``self - previous``)."""
        values = {}
        for spec in dataclasses.fields(self):
            mine = getattr(self, spec.name)
            if isinstance(mine, bool):
                values[spec.name] = mine
            else:
                values[spec.name] = mine - getattr(previous, spec.name)
        return IngestStats(**values)

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    def format(self) -> str:
        parts = [
            f"{self.events} events",
            f"{self.upserts} upserts",
            f"{self.deletes} deleted",
            f"{self.unchanged} unchanged",
            f"{self.enqueued} enqueued ({self.deduped} deduped)",
        ]
        if self.skipped:
            parts.append(f"{self.skipped} skipped")
        if self.backpressure_stalls:
            parts.append(f"{self.backpressure_stalls} stalls")
        summary = (
            f"{self.scanned} scanned ({self.malicious} malicious), "
            f"{self.registry_hits} registry hits, "
            f"{self.inference_calls} inference calls"
        )
        if self.rules_matched:
            summary += (
                f", {self.rules_matched} rule matches ({self.alerts} alerts)"
            )
        if self.short_circuits or self.escalations:
            summary += (
                f", cascade {self.short_circuits} short-circuited"
                f"/{self.escalations} escalated"
            )
        if self.faulted_cycles or self.faulted_drains:
            summary += (
                f", {self.faulted_cycles + self.faulted_drains} faulted"
            )
        if self.exit_nonzero:
            summary += ", exit rule fired (will exit 2)"
        return f"{', '.join(parts)} -- {summary}"


class EventIngestService:
    """Event -> queue -> drain pipeline over the batch scan stack.

    Args:
        detector: A trained detector (its scan engine checks the
            ``registry`` fingerprint scope).
        registry: Persistent verdict store; also backs enqueue-time
            classification and dedupe.
        roots: Zero or more watch roots.  Empty means *push-only* (the
            ``serve --ingest-queue`` mode: work arrives exclusively via
            :meth:`submit_bytes`).
        pattern: Glob filter over paths relative to a root
            (:func:`~repro.service.batch.is_contract_path` semantics).
        recursive: Recurse into subdirectories.
        rules: Optional triage rules evaluated on drained verdicts.
        queue_capacity: Bound of the ingest queue (the backpressure knob).
        batch_size: Max items per drain batch (one scanner call each).
        backend: ``"auto"`` | ``"inotify"`` | ``"poll"`` watcher choice.
        cache / shards: Forwarded to ``BatchScanner``.
        retry_after_s: Advisory retry delay carried by
            :class:`IngestQueueFull` (the 503 Retry-After value).
    """

    def __init__(
        self,
        detector: ScamDetector,
        registry: ScanRegistry,
        roots: Sequence[PathLike] = (),
        pattern: str = "*",
        recursive: bool = True,
        rules: Optional[RulesEngine] = None,
        queue_capacity: int = 1024,
        batch_size: int = 64,
        backend: str = "auto",
        cache=None,
        shards: int = 1,
        retry_after_s: float = 1.0,
    ) -> None:
        if not detector.is_trained:
            raise RuntimeError("EventIngestService requires a trained detector")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.detector = detector
        self.registry = registry
        self.roots = [pathlib.Path(root).resolve() for root in roots]
        self.pattern = pattern
        self.recursive = recursive
        self.rules = rules
        self.batch_size = batch_size
        self.queue = IngestQueue(queue_capacity, retry_after_s=retry_after_s)
        self.watcher = (
            open_watcher(self.roots, pattern, recursive=recursive,
                         backend=backend)
            if self.roots else None
        )
        try:
            # live mirror of the registry's watched-file index: the enqueue
            # classifier must not pay a registry query per event
            self._index: Dict[str, Tuple[int, int]] = {
                path: (entry.size, entry.mtime_ns)
                for path, entry in registry.watched_files().items()
            }
            # last: it attaches the cache to the caller's pipeline, so
            # every check above has passed by then
            self.scanner = BatchScanner(
                detector,
                cache=cache,
                shards=shards,
                registry=registry,
            )
        except BaseException:
            if self.watcher is not None:
                self.watcher.close()
            raise
        self._labels = self._root_labels(self.roots)
        self.stats = IngestStats()
        self.exit_nonzero = False
        self._pending_events: List[FileEvent] = []
        self._scan_lock = threading.Lock()
        self._stop = threading.Event()
        self._drain_thread: Optional[threading.Thread] = None

    @staticmethod
    def _root_labels(roots: Sequence[pathlib.Path]) -> Dict[pathlib.Path, str]:
        """Unique short label per root (a single root's ids are bare
        relative paths, as in ``scan-batch``)."""
        if len(roots) <= 1:
            return {root: "" for root in roots}
        labels: Dict[pathlib.Path, str] = {}
        used: Dict[str, int] = {}
        for root in roots:
            base = root.name or "root"
            count = used.get(base, 0)
            used[base] = count + 1
            labels[root] = base if count == 0 else f"{base}#{count}"
        return labels

    def _sample_id(self, root: pathlib.Path, path: pathlib.Path) -> str:
        rel = str(path.relative_to(root))
        label = self._labels.get(root, "")
        return f"{label}/{rel}" if label else rel

    @property
    def backend(self) -> str:
        return self.watcher.backend if self.watcher is not None else "push"

    # ------------------------------------------------------------------ #
    # producers

    def submit_bytes(
        self,
        raw: bytes,
        sample_id: Optional[str] = None,
        platform: Optional[str] = None,
        source: str = "push",
    ) -> str:
        """Enqueue pushed bytecode; returns ``"queued"`` or ``"deduped"``.

        Raises :class:`IngestQueueFull` when the queue is at capacity --
        the HTTP layer turns that into ``503 + Retry-After``.
        """
        # obs site ingest.enqueue: child of server.request on the HTTP
        # path, its own root when called directly; the carrier stamped on
        # the item lets the drain worker link back across the queue
        with trace("ingest.enqueue", root=True, source=source) as span:
            fault_point("ingest.enqueue")
            sha256 = content_sha256(raw)
            if sample_id is None:
                sample_id = f"push:{sha256[:16]}"
            priority = (
                PRIORITY_RESEEN
                if self.registry.get(sha256) is not None
                else PRIORITY_NEW
            )
            item = IngestItem(
                priority=priority,
                sha256=sha256,
                raw=raw,
                sample_id=sample_id,
                source=source,
                platform=platform,
                trace=carrier(),
            )
            try:
                outcome = self.queue.put(item)
            except IngestQueueFull:
                self.stats.dropped += 1
                span.set(outcome="dropped")
                raise
            if outcome == "deduped":
                self.stats.deduped += 1
            else:
                self.stats.enqueued += 1
            span.set(outcome=outcome)
        return outcome

    def pump_events(self, timeout: float = 0.0) -> int:
        """Drain watcher events into the queue; returns events consumed.

        A full queue stalls the pump: the unconsumed tail is retained and
        retried next cycle after the drain frees capacity.
        """
        if self.watcher is None:
            return 0
        fault_point("ingest.event")
        events = self._pending_events
        self._pending_events = []
        events.extend(self.watcher.poll(timeout))
        consumed = 0
        for position, event in enumerate(events):
            try:
                self._apply_event(event)
            except IngestQueueFull:
                self.stats.backpressure_stalls += 1
                self._pending_events = events[position:]
                break
            consumed += 1
        self.stats.events += consumed
        return consumed

    def _apply_event(self, event: FileEvent) -> None:
        if event.kind == EVENT_UPSERT:
            self._classify_enqueue(event.root, event.path)
            self.stats.upserts += 1
        elif event.kind == EVENT_DELETE:
            self._mark_deleted([self._sample_id(event.root, event.path)])
        elif event.kind == EVENT_RMDIR:
            prefix = self._sample_id(event.root, event.path)
            doomed = [
                path for path in self._index
                if path == prefix or path.startswith(prefix + "/")
            ]
            self._mark_deleted(doomed)
        elif event.kind == EVENT_OVERFLOW:
            self.stats.resyncs += 1
            self._walk_roots()

    def _mark_deleted(self, paths: List[str]) -> None:
        live = [path for path in paths if path in self._index]
        if not live:
            return
        self.registry.mark_deleted(live)
        for path in live:
            del self._index[path]
        self.stats.deletes += len(live)

    def _classify_enqueue(self, root: pathlib.Path, path: pathlib.Path) -> None:
        """Stat + read + classify one changed path, then enqueue."""
        sample_id = self._sample_id(root, path)
        try:
            # chaos site: an oserror-kind fault simulates a path that
            # transiently cannot be stat'ed (NFS hiccup, racing chmod)
            fault_point("watch.stat", path=path)
            stat = path.stat()
        except OSError as error:
            # never a delete (the watcher's delete event and the walk's
            # sweep own that), never fatal
            self.stats.skipped += 1
            if not isinstance(error, FileNotFoundError):
                # a vanished file is a create-then-delete race, not news
                warnings.warn(
                    f"watch: cannot stat {path} ({error}); skipping",
                    stacklevel=2,
                )
            return
        known = self._index.get(sample_id)
        signature = (stat.st_size, stat.st_mtime_ns)
        if known == signature:
            self.stats.unchanged += 1
            return
        try:
            raw, size, mtime_ns = _watch.stable_read(
                path, stat.st_size, stat.st_mtime_ns
            )
        except (OSError, ValueError) as error:
            self.stats.skipped += 1
            warnings.warn(
                f"ingest: skipping {path}: {error}", stacklevel=2
            )
            return
        sha256 = content_sha256(raw)
        if self.registry.get(sha256) is not None:
            priority = PRIORITY_RESEEN
        elif known is not None:
            priority = PRIORITY_CHANGED
        else:
            priority = PRIORITY_NEW
        # obs site ingest.enqueue (watch pump thread): roots a new trace
        # per observed path; the carrier rides the queue to the drain
        with trace("ingest.enqueue", root=True, source="watch") as span:
            fault_point("ingest.enqueue")
            item = IngestItem(
                priority=priority,
                sha256=sha256,
                raw=raw,
                sample_id=sample_id,
                source="watch",
                sightings=[(sample_id, sha256, size, mtime_ns)],
                trace=carrier(),
            )
            outcome = self.queue.put(item)
            if outcome == "deduped":
                self.stats.deduped += 1
            else:
                self.stats.enqueued += 1
            span.set(outcome=outcome)

    # ------------------------------------------------------------------ #
    # drain

    def drain(
        self, max_batches: Optional[int] = None, timeout: float = 0.0
    ) -> int:
        """Scan queued items until the queue is empty; returns items drained.

        ``timeout`` bounds the wait for the *first* batch (the threaded
        drain worker parks here between bursts).  An
        :class:`InjectedFault` at the ``ingest.drain`` site re-queues the
        in-flight batch and aborts this drain (the next one retries).
        """
        drained = 0
        batches = 0
        while max_batches is None or batches < max_batches:
            batch = self.queue.get_batch(
                self.batch_size, timeout=timeout if batches == 0 else 0.0
            )
            if not batch:
                break
            try:
                fault_point("ingest.drain")
            except InjectedFault as error:
                self.queue.requeue(batch)
                self.stats.faulted_drains += 1
                warnings.warn(
                    f"ingest drain faulted ({error}); batch re-queued",
                    stacklevel=2,
                )
                break
            self._drain_batch(batch)
            drained += len(batch)
            batches += 1
        return drained

    def _drain_batch(self, batch: List[IngestItem]) -> None:
        # obs site ingest.drain: the drain worker's own root trace spans
        # the whole batch; each carried item additionally gets a
        # pre-measured ``ingest.drained`` span stitched into its
        # *producer's* trace (via the carrier stamped at enqueue), so a
        # trace that starts at POST /v1/ingest ends at its drain
        started_at = time.time()
        begun = time.perf_counter()
        with trace("ingest.drain", root=True, items=len(batch)):
            # scan_codes takes one platform per call: group pushed items by
            # their declared platform (watch items always carry None)
            groups: Dict[Optional[str], List[IngestItem]] = {}
            for item in batch:
                groups.setdefault(item.platform, []).append(item)
            sightings: List[Tuple[str, str, int, int]] = []
            for platform, items in groups.items():
                with self._scan_lock:
                    result = self.scanner.scan_codes(
                        [item.raw for item in items],
                        platform=platform,
                        sample_ids=[item.sample_id for item in items],
                    )
                self.stats.registry_hits += result.registry_hits
                self.stats.scanned += (
                    result.num_scanned - result.registry_hits
                )
                self.stats.malicious += result.num_malicious
                self.stats.inference_calls += sum(result.batch_sizes.values())
                cascade = result.cascade_stats
                if cascade is not None:
                    self.stats.short_circuits += cascade["short_circuits"]
                    self.stats.escalations += cascade["escalations"]
                    self.stats.disagreements += cascade["disagreements"]
                self._triage(items, result.reports, result.model_identity)
                for item in items:
                    sightings.extend(item.sightings)
            if sightings:
                self.registry.upsert_watched_files(sightings)
                for path, _, size, mtime_ns in sightings:
                    self._index[path] = (size, mtime_ns)
            self.stats.drained += len(batch)
        dur_ms = (time.perf_counter() - begun) * 1000.0
        for item in batch:
            if item.trace is not None:
                emit_span(
                    item.trace,
                    "ingest.drained",
                    started_at,
                    dur_ms,
                    batch=len(batch),
                    sha256=item.sha256[:16],
                )

    def _triage(self, items: List[IngestItem], reports, identity: str) -> None:
        if self.rules is None:
            return
        # registry-level matcher context for the live path: fresh verdicts
        # carry no tags yet, were scanned "now", and were scored by the
        # model identity the scan itself used
        now = time.time()
        for item, report in zip(items, reports):
            for sample_id in item.sample_ids:
                outcome = self.rules.evaluate(
                    report,
                    item.sha256,
                    source_path=sample_id,
                    model_identity=identity,
                    scanned_at=now,
                )
                if not outcome.matched:
                    continue
                self.stats.rules_matched += len(outcome.matched)
                self.stats.alerts += outcome.alerts
                if outcome.tags:
                    self.registry.add_tags(item.sha256, outcome.tags)
                if outcome.exit_nonzero:
                    self.stats.exit_nonzero = True
                    self.exit_nonzero = True

    # ------------------------------------------------------------------ #
    # synchronous driving

    def backfill(self) -> IngestStats:
        """Cold start: classify every file under the roots, enqueue-and-drain
        everything, and sweep index entries whose files are gone.  Returns
        the counters it added.

        The first backfill classifies the watcher's catch-up events -- the
        walk the watcher made when it started -- so start-up walks and
        classifies each file once; a later backfill walks the roots again.
        """
        before = dataclasses.replace(self.stats)
        found = self.watcher.catch_up() if self.watcher is not None else None
        if found is None:
            self._walk_roots()
        else:
            self._reconcile((event.root, event.path) for event in found)
        return self.stats.delta(before)

    def _walk_roots(self) -> None:
        self._reconcile(
            (root, path)
            for root in self.roots
            for path in iter_contract_files(
                root, self.pattern, recursive=self.recursive
            )
        )

    def _reconcile(self, found: Iterable[Tuple[pathlib.Path, pathlib.Path]]) -> None:
        """Classify every ``(root, path)`` found, sweep index entries it did
        not name, then drain."""
        present: set = set()
        for root, path in found:
            present.add(self._sample_id(root, path))
            while True:
                try:
                    self._classify_enqueue(root, path)
                    break
                except IngestQueueFull:
                    # interleave a drain so a backfill larger than the
                    # queue bound still completes
                    self.stats.backpressure_stalls += 1
                    if self.drain() == 0:
                        raise
        # a path that exists but could not be stat'ed is still present:
        # only files the walk no longer finds are swept
        self._mark_deleted([path for path in self._index if path not in present])
        self.drain()

    def cycle(self, timeout: float = 0.0) -> IngestStats:
        """One pump+drain round; returns this cycle's counter deltas."""
        before = dataclasses.replace(self.stats)
        self.pump_events(timeout)
        self.drain()
        self.stats.cycles += 1
        return self.stats.delta(before)

    def run(
        self,
        interval: float = 0.5,
        max_cycles: Optional[int] = None,
        on_cycle=None,
    ) -> int:
        """Cycle until :meth:`stop` (or ``max_cycles``), then drain.

        The watcher wait happens *inside* the cycle (``timeout``): on
        inotify an event lands at kernel latency, not at interval latency;
        the poll backend walks once per cycle and waits out the rest of
        ``interval`` when nothing changed.  Either way :meth:`stop` takes
        effect within one interval.  The first cycle does not wait: it
        takes what changed while the caller was busy (typically the
        backfill) at once, so ``on_cycle(1, ...)`` marks the service live.
        On stop the queue is drained to empty before returning -- a
        SIGTERM never strands admitted work.
        """
        if self.watcher is None:
            raise RuntimeError(
                "run() needs watch roots; push-only services use start()"
            )
        completed = 0
        while not self._stop.is_set():
            try:
                stats = self.cycle(timeout=interval if completed else 0.0)
            except InjectedFault as error:
                self.stats.faulted_cycles += 1
                warnings.warn(
                    f"ingest cycle failed with a transient fault "
                    f"({error}); retrying next cycle",
                    stacklevel=2,
                )
                self._stop.wait(interval)
                continue
            completed += 1
            if on_cycle is not None:
                on_cycle(completed, stats)
            if max_cycles is not None and completed >= max_cycles:
                break
        self.drain()
        return completed

    def stop(self) -> None:
        self._stop.set()

    # ------------------------------------------------------------------ #
    # threaded driving (the serve --ingest-queue drain worker)

    def start(self) -> None:
        """Start the background drain worker (push-only server mode)."""
        if self._drain_thread is not None:
            raise RuntimeError("ingest drain worker already started")
        self._stop.clear()
        self._drain_thread = threading.Thread(
            target=self._drain_loop, name="ingest-drain", daemon=True
        )
        self._drain_thread.start()

    def _drain_loop(self) -> None:
        while not self._stop.is_set():
            drained = self.drain(timeout=0.25)
            if drained == 0 and self.queue.depth() > 0:
                # a faulted drain re-queued its batch; back off briefly so
                # a repeating fault cannot hot-spin the worker
                self._stop.wait(0.05)
        # SIGTERM drain: everything admitted before shutdown is scanned
        self.drain()

    def shutdown(self, drain: bool = True) -> None:
        """Stop the drain worker; by default finishes the queued backlog."""
        self._stop.set()
        self.queue.close()
        thread = self._drain_thread
        if thread is not None:
            thread.join(timeout=30.0)
            self._drain_thread = None
        if drain:
            self.drain()

    def close(self, drain: bool = False) -> None:
        self.shutdown(drain=drain)
        if self.watcher is not None:
            self.watcher.close()
        self.scanner.close()

    def __enter__(self) -> "EventIngestService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, object]:
        """Metrics payload: queue counters + pipeline counters + backend."""
        return {
            "backend": self.backend,
            "roots": [str(root) for root in self.roots],
            "queue": self.queue.snapshot(),
            "stats": self.stats.to_dict(),
        }

"""Continuous corpus watching: poll, dedupe, scan, record, triage.

:class:`WatchDaemon` is the always-on ingestion path over the batch scan
stack.  Each poll cycle walks a directory and pushes every contract through
three increasingly cheap short-circuits:

1. **stat short-circuit** -- a path whose ``(size, mtime_ns)`` matches the
   registry's ``watched_files`` index is *unchanged*: no read, no hash,
   no scan.  A warm poll over an unchanged corpus is pure ``os.stat``.
2. **registry short-circuit** -- a new or changed file is read and hashed;
   if ``(sha256, graph fingerprint)`` is already in the
   :class:`~repro.registry.store.ScanRegistry` (factory clone, re-drop,
   daemon restart) the stored verdict is served with **zero lowering and
   zero model inference**.
3. only genuinely unseen bytecode reaches the
   :class:`~repro.service.batch.BatchScanner` (graph cache + batched
   inference + optional shard pool), and its verdicts are recorded back.

Deleted paths are flagged in the file index (their verdicts stay -- the
same bytecode may reappear elsewhere).  Every verdict that is *new for its
path this cycle* runs through the optional
:class:`~repro.registry.rules.RulesEngine`, so tagging/alerting/paging
happens at ingest time, not at query time.

The daemon is deliberately poll-based (like ``rose``'s watchdog fallback
path and the non-intrusive observer of ros2probe): no inotify dependency,
works on network mounts, and one poll cycle is the natural unit both the
tests and ``scamdetect watch --max-polls`` reason about.
"""

from __future__ import annotations

import pathlib
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.core.detector import ScamDetector
from repro.core.report import VerdictReport
from repro.registry.rules import RulesEngine
from repro.resilience.faults import InjectedFault, fault_point
from repro.registry.store import ScanRegistry, content_sha256
from repro.service.batch import (
    BatchScanner,
    iter_contract_files,
    read_contract_file,
)

PathLike = Union[str, pathlib.Path]

#: Bounded re-read attempts when a file keeps changing under the reader.
STABLE_READ_ATTEMPTS = 3


def stable_read(
    path: pathlib.Path, size: int, mtime_ns: int
) -> Tuple[bytes, int, int]:
    """Read ``path`` with a ``(size, mtime_ns)`` consistent with the bytes.

    The poll walk stats at discovery and reads later; a rewrite in between
    (stat->read TOCTOU) would otherwise record the *new* content under the
    *old* stat -- or worse, mask a mid-cycle rewrite as unchanged next
    cycle.  Re-stat after every successful read: if the stat moved, the
    read raced a writer, so read again under the fresh stat (bounded
    attempts).  If the file never settles, return the *pre-read* stat of
    the final read -- the bytes are at least as new as that stat, so the
    next cycle's stat comparison can only re-scan, never mask.

    Raises whatever :func:`read_contract_file` / ``stat`` raise.
    """
    for _ in range(STABLE_READ_ATTEMPTS):
        raw = read_contract_file(path)
        post = path.stat()
        if (post.st_size, post.st_mtime_ns) == (size, mtime_ns):
            return raw, size, mtime_ns
        # the stat moved across the read: (size, mtime_ns) becomes the
        # pre-read stat of the next attempt
        size, mtime_ns = post.st_size, post.st_mtime_ns
    raw = read_contract_file(path)
    return raw, size, mtime_ns


@dataclass
class PollStats:
    """Telemetry of one poll cycle.

    ``registry_hits + scanned`` is the number of new-or-changed files this
    cycle; ``inference_calls`` counts batched GNN model invocations (the
    E11 acceptance metric: a warm cycle must report 0).
    """

    files_seen: int = 0
    unchanged: int = 0
    new: int = 0
    changed: int = 0
    deleted: int = 0
    skipped: int = 0
    registry_hits: int = 0
    scanned: int = 0
    malicious: int = 0
    inference_calls: int = 0
    alerts: int = 0
    rules_matched: int = 0
    exit_nonzero: bool = False
    #: cumulative count of cycles aborted by an injected transient fault
    #: (snapshot of the daemon's counter, so per-cycle output surfaces it)
    faulted_polls: int = 0
    elapsed_seconds: float = 0.0
    reports: List[VerdictReport] = field(default_factory=list)
    #: tier-0 cascade counters of this cycle's scan (None: cascade off)
    cascade: Optional[dict] = None

    def format(self) -> str:
        parts = [
            f"{self.files_seen} files",
            f"{self.new} new",
            f"{self.changed} changed",
            f"{self.deleted} deleted",
            f"{self.unchanged} unchanged",
        ]
        if self.skipped:
            parts.append(f"{self.skipped} skipped")
        summary = (
            f"{self.scanned} scanned ({self.malicious} malicious), "
            f"{self.registry_hits} registry hits, "
            f"{self.inference_calls} inference calls"
        )
        if self.rules_matched:
            summary += (
                f", {self.rules_matched} rule matches"
                f" ({self.alerts} alerts)"
            )
        if self.cascade is not None:
            summary += (
                f", cascade {self.cascade['short_circuits']} short-circuited"
                f"/{self.cascade['escalations']} escalated"
            )
        if self.faulted_polls:
            summary += f", {self.faulted_polls} faulted polls"
        if self.exit_nonzero:
            summary += ", exit rule fired (will exit 2)"
        return f"{', '.join(parts)} -- {summary}"

    def to_dict(self) -> dict:
        """JSON-safe counters of this cycle (``watch --json`` output)."""
        return {
            "files_seen": self.files_seen,
            "unchanged": self.unchanged,
            "new": self.new,
            "changed": self.changed,
            "deleted": self.deleted,
            "skipped": self.skipped,
            "registry_hits": self.registry_hits,
            "scanned": self.scanned,
            "malicious": self.malicious,
            "inference_calls": self.inference_calls,
            "alerts": self.alerts,
            "rules_matched": self.rules_matched,
            "exit_nonzero": self.exit_nonzero,
            "faulted_polls": self.faulted_polls,
            "elapsed_seconds": self.elapsed_seconds,
            "cascade": self.cascade,
        }


class WatchDaemon:
    """Polls a directory and keeps the verdict registry in sync with it.

    Args:
        detector: A trained detector.
        registry: The persistent verdict store.  Its fingerprint scope must
            match the detector's config (checked at construction: serving
            verdicts lowered under another config would be silent garbage).
        directory: Corpus directory to watch.
        pattern: Glob filter for contract files (same semantics as
            ``BatchScanner.scan_directory``).
        recursive: Recurse into subdirectories (default) or watch only the
            top level.
        rules: Optional triage rules engine evaluated on every verdict that
            is new for its path this cycle.
        interval: Seconds between poll cycles in :meth:`run`.
        cache: Optional :class:`~repro.service.cache.GraphCache` for the
            scanner (useful when the same host also serves scan traffic).
        shards: Scan worker processes; ``>= 2`` shards each cycle's unseen
            contracts across a multi-process pool.
    """

    def __init__(
        self,
        detector: ScamDetector,
        registry: ScanRegistry,
        directory: PathLike,
        pattern: str = "*",
        recursive: bool = True,
        rules: Optional[RulesEngine] = None,
        interval: float = 2.0,
        cache=None,
        shards: int = 1,
    ) -> None:
        if not detector.is_trained:
            raise RuntimeError("WatchDaemon requires a trained detector")
        if interval <= 0:
            raise ValueError("interval must be > 0 seconds")
        self.detector = detector
        self.registry = registry
        self.directory = pathlib.Path(directory)
        if not self.directory.is_dir():
            raise FileNotFoundError(
                f"watch directory not found: {self.directory}"
            )
        self.pattern = pattern
        self.recursive = recursive
        self.rules = rules
        self.interval = interval
        self.scanner = BatchScanner(
            detector,
            cache=cache,
            shards=shards,
            registry=registry,
        )
        self.polls = 0
        #: cycles aborted by an injected transient fault (chaos telemetry)
        self.faulted_polls = 0
        self.exit_nonzero = False
        self._stop = threading.Event()

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release the scanner's shard pool (if any)."""
        self.scanner.close()

    def __enter__(self) -> "WatchDaemon":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def stop(self) -> None:
        """Ask :meth:`run` to exit after the cycle in flight completes."""
        self._stop.set()

    # ------------------------------------------------------------------ #

    def poll_once(self) -> PollStats:
        """One full cycle: discover, dedupe, scan, record, triage."""
        # chaos site: delay = slow poll (drain tests SIGTERM mid-cycle);
        # exception-kind faults abort only this cycle (see run())
        fault_point("watch.poll")
        started = time.perf_counter()
        stats = PollStats()
        index = self.registry.watched_files()
        present: List[str] = []
        skipped: set = set()
        to_hash: List[Tuple[str, pathlib.Path, int, int]] = []

        for path in iter_contract_files(
            self.directory, self.pattern, recursive=self.recursive
        ):
            rel = str(path.relative_to(self.directory))
            try:
                # chaos site: an oserror-kind fault here simulates a path
                # that transiently cannot be stat'ed (NFS hiccup, racing
                # chmod) -- such a path must never reach the deletion sweep
                fault_point("watch.stat", path=path)
                stat = path.stat()
            except OSError as error:
                stats.skipped += 1
                skipped.add(rel)
                warnings.warn(
                    f"watch: cannot stat {path} ({error}); skipping",
                    stacklevel=2,
                )
                continue
            stats.files_seen += 1
            present.append(rel)
            known = index.get(rel)
            if (
                known is not None
                and known.size == stat.st_size
                and known.mtime_ns == stat.st_mtime_ns
            ):
                stats.unchanged += 1
                continue
            if known is None:
                stats.new += 1
            else:
                stats.changed += 1
            to_hash.append((rel, path, stat.st_size, stat.st_mtime_ns))

        # a path that exists but could not be stat'ed this cycle is *live*:
        # excluding it from `present` alone would hand it to the deletion
        # sweep, so skipped paths are carved out explicitly
        present_set = set(present)
        deleted = [
            rel for rel in index
            if rel not in present_set and rel not in skipped
        ]
        if deleted:
            stats.deleted = len(deleted)
            self.registry.mark_deleted(deleted)

        # read + hash only the new/changed files; a registry hit here costs
        # one point lookup inside the scanner, never lowering or inference
        raw_codes: List[bytes] = []
        ids: List[str] = []
        sightings: List[Tuple[str, str, int, int]] = []
        for rel, path, size, mtime_ns in to_hash:
            try:
                raw, size, mtime_ns = stable_read(path, size, mtime_ns)
            except (OSError, ValueError) as error:
                stats.skipped += 1
                warnings.warn(
                    f"watch: skipping {path}: {error}", stacklevel=2
                )
                continue
            raw_codes.append(raw)
            ids.append(rel)
            sightings.append((rel, content_sha256(raw), size, mtime_ns))

        if raw_codes:
            result = self.scanner.scan_codes(raw_codes, sample_ids=ids)
            stats.reports = list(result.reports)
            stats.registry_hits = result.registry_hits
            stats.scanned = result.num_scanned - result.registry_hits
            stats.malicious = result.num_malicious
            stats.inference_calls = sum(result.batch_sizes.values())
            stats.cascade = result.cascade_stats
            self._triage(stats, raw_codes)
        # the file index is updated only after scanning succeeded, so a
        # crashed cycle re-discovers the same files next time
        if sightings:
            self.registry.upsert_watched_files(sightings)
        self.polls += 1
        stats.faulted_polls = self.faulted_polls
        stats.elapsed_seconds = time.perf_counter() - started
        return stats

    def run(
        self,
        max_polls: Optional[int] = None,
        on_poll=None,
    ) -> int:
        """Poll until :meth:`stop` (or ``max_polls`` cycles).

        Args:
            max_polls: Stop after this many cycles (None: run until
                :meth:`stop` is called, e.g. from a signal handler).
            on_poll: Optional callback ``(cycle_number, PollStats)`` invoked
                after every cycle (the CLI prints progress through this).

        Returns the number of cycles completed.  The wait between cycles
        wakes early when :meth:`stop` is called, so shutdown latency is
        bounded by the cycle in flight, not by ``interval``.
        """
        completed = 0
        while not self._stop.is_set():
            try:
                stats = self.poll_once()
            except InjectedFault as error:
                # a transiently-faulted cycle is skipped, not fatal: the
                # next poll re-discovers everything this one missed (the
                # registry dedupe makes re-polling idempotent)
                self.faulted_polls += 1
                warnings.warn(
                    f"watch poll cycle failed with a transient fault "
                    f"({error}); retrying next cycle",
                    stacklevel=2,
                )
                self._stop.wait(self.interval)
                continue
            completed += 1
            if on_poll is not None:
                on_poll(completed, stats)
            if max_polls is not None and completed >= max_polls:
                break
            self._stop.wait(self.interval)
        return completed

    # ------------------------------------------------------------------ #

    def _triage(self, stats: PollStats, raw_codes: List[bytes]) -> None:
        if self.rules is None:
            return
        # registry-level matcher context for the live path: fresh verdicts
        # carry no tags yet, were scanned "now", and were scored by this
        # daemon's model identity
        identity = self.detector.model_identity()
        now = time.time()
        for raw, report in zip(raw_codes, stats.reports):
            sha256 = content_sha256(raw)
            outcome = self.rules.evaluate(
                report,
                sha256,
                source_path=report.sample_id,
                model_identity=identity,
                scanned_at=now,
            )
            if not outcome.matched:
                continue
            stats.rules_matched += len(outcome.matched)
            stats.alerts += outcome.alerts
            if outcome.tags:
                self.registry.add_tags(sha256, outcome.tags)
            if outcome.exit_nonzero:
                stats.exit_nonzero = True
                self.exit_nonzero = True

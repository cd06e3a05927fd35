"""Batch scanning: many contracts per call through the scan engine.

:class:`BatchScanner` is the service-layer driver behind
:meth:`ScamDetector.scan_many` and :meth:`ScamDetector.scan_directory`.  It
gathers inputs (bytecode, a corpus or a directory walk), runs them through
one :class:`~repro.core.engine.ScanEngine` call and wraps the outcome in a
:class:`BatchScanResult` with throughput telemetry.  The engine lowers each
contract once through the shared :class:`~repro.service.cache.GraphCache`
(repeated bytecode -- factory clones, re-submissions, re-audits -- is lowered
exactly once) and scores every chunk of ``inference_batch_size`` graphs
with one block-diagonal :class:`~repro.gnn.data.GraphBatch` model call.
Lowering is pure-Python and GIL-bound, so it runs serially in-process;
``shards >= 2`` parallelises it across the
:class:`~repro.service.sharded.ShardedScanner` process pool instead.
Verdicts are identical to single-contract ``scan`` verdicts because every
entry point composes them through the same engine and
:meth:`ScamDetector.build_report`.
"""

from __future__ import annotations

import pathlib
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.detector import BytecodeLike, ScamDetector, coerce_bytecode
from repro.core.engine import ScanEngine, ScanOutcome
from repro.core.report import ScanSummary
from repro.obs.trace import trace
from repro.service.cache import CacheStats, DISK_META_FILENAME, GraphCache

PathLike = Union[str, pathlib.Path]

#: File suffixes a directory walk never treats as contract bytecode: cache
#: entries and SQLite registries (plus their WAL sidecars) may legitimately
#: live next to a watched corpus.
_NON_CONTRACT_SUFFIXES = frozenset(
    (".npz", ".db", ".db-wal", ".db-shm", ".sqlite", ".sqlite3")
)


def is_contract_path(
    root: pathlib.Path,
    path: pathlib.Path,
    pattern: str = "*",
    recursive: bool = True,
) -> bool:
    """Whether a directory scan of ``root`` covers the file at ``path``.

    The one selection rule shared by :func:`iter_contract_files` and the
    ingest tier's event path, so a watcher reports exactly the files a
    ``scan-batch`` over the same directory would scan.  Decided from the
    path alone (no filesystem access):

    * nothing under a hidden component (``.name``) is a contract;
    * graph-cache files and SQLite registries (plus their WAL sidecars)
      are never contracts;
    * ``pattern`` is matched against the path relative to ``root``; it may
      contain ``/`` to constrain directories (``sub/*.bin`` matches a
      ``sub`` directory at any depth when recursive);
    * ``recursive=False`` keeps only the top level.
    """
    rel = path.relative_to(root)
    if any(part.startswith(".") for part in rel.parts):
        return False
    if path.name == DISK_META_FILENAME or path.suffix in _NON_CONTRACT_SUFFIXES:
        return False
    if not recursive and len(rel.parts) != 1:
        return False
    return rel.match(pattern)


def iter_contract_files(
    directory: PathLike, pattern: str = "*", recursive: bool = True
):
    """Yield the contract files a directory scan covers, sorted by path.

    :meth:`BatchScanner.scan_directory`, the sharded engine, the ingest
    tier's backfill and its poll backend all walk through here, and the
    inotify backend filters events with the same :func:`is_contract_path`,
    so every watcher sees exactly the corpus a ``scan-batch`` over the
    same directory would.

    Args:
        directory: Root directory (must exist).
        pattern: Glob filter (may contain ``/`` to constrain directories).
        recursive: Walk subdirectories too (default); False restricts the
            scan to the top level.

    Raises:
        FileNotFoundError: If ``directory`` does not exist.
    """
    root = pathlib.Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"scan directory not found: {root}")
    walker = root.rglob(pattern) if recursive else root.glob(pattern)
    for path in sorted(walker):
        if is_contract_path(root, path, pattern, recursive) and path.is_file():
            yield path


def read_contract_file(path: PathLike) -> bytes:
    """Read one contract file: ``.hex`` parses as hex text, the rest as
    raw binary.

    Raises:
        ValueError: On undecodable hex or an empty file.
        OSError: On an unreadable file.
    """
    path = pathlib.Path(path)
    raw = (
        coerce_bytecode(path.read_text())
        if path.suffix == ".hex"
        else path.read_bytes()
    )
    if not raw:
        raise ValueError("empty file")
    return raw


def collect_directory_inputs(
    directory: PathLike, pattern: str = "*", recursive: bool = True
) -> Tuple[List[bytes], List[str], List[str]]:
    """Gather ``(raw_codes, sample_ids, skipped)`` for a directory scan.

    Shared by :meth:`BatchScanner.scan_directory` and
    :meth:`~repro.service.sharded.ShardedScanner.scan_directory`, so both
    engines agree exactly on which files a directory scan covers (see
    :func:`iter_contract_files`); unreadable, empty or undecodable files
    are skipped with a warning and reported in the third element instead of
    aborting the walk.

    Raises:
        FileNotFoundError: If ``directory`` does not exist.
    """
    root = pathlib.Path(directory)
    raw_codes: List[bytes] = []
    ids: List[str] = []
    skipped: List[str] = []

    def skip(path: pathlib.Path, reason: str) -> None:
        entry = f"{path.relative_to(root)}: {reason}"
        skipped.append(entry)
        warnings.warn(
            f"scan_directory skipping {path}: {reason}", stacklevel=2
        )

    for path in iter_contract_files(root, pattern, recursive=recursive):
        try:
            raw = read_contract_file(path)
        except ValueError as error:
            reason = (
                "empty file"
                if "empty file" in str(error)
                else f"not valid hex bytecode ({error})"
            )
            skip(path, reason)
            continue
        except OSError as error:
            skip(path, f"unreadable ({error.strerror or error})")
            continue
        raw_codes.append(raw)
        ids.append(str(path.relative_to(root)))
    return raw_codes, ids, skipped


def throughput_stats(
    contracts: int,
    malicious: int,
    elapsed_seconds: float,
    cache_stats: CacheStats,
    batch_sizes: Dict[int, int],
) -> Dict[str, object]:
    """The shared stats schema reported by offline and online scan paths.

    ``BatchScanResult.stats_dict`` (offline batch scans) and the scan
    server's ``GET /v1/metrics`` (online serving) both emit exactly this
    shape, so one dashboard/alerting parser covers both deployment modes.

    Args:
        contracts: Contracts scored.
        malicious: Contracts flagged malicious.
        elapsed_seconds: Wall-clock window the counters cover.
        cache_stats: Graph-cache counters for the same window.
        batch_sizes: Histogram of GNN inference batch sizes
            (``{batch_size: num_batches}``).
    """
    total_batches = sum(batch_sizes.values())
    return {
        "contracts": contracts,
        "malicious": malicious,
        "benign": contracts - malicious,
        "elapsed_seconds": elapsed_seconds,
        "contracts_per_second": (
            contracts / elapsed_seconds if elapsed_seconds > 0.0 else 0.0
        ),
        "cache": cache_stats.to_dict(),
        "batches": {
            "count": total_batches,
            "max_size": max(batch_sizes) if batch_sizes else 0,
            "coalesced": sum(
                count for size, count in batch_sizes.items() if size > 1
            ),
            "histogram": {
                str(size): batch_sizes[size] for size in sorted(batch_sizes)
            },
        },
    }


@dataclass
class BatchScanResult(ScanSummary):
    """A :class:`~repro.core.report.ScanSummary` plus service telemetry.

    Attributes:
        reports: Per-contract verdict reports, in input order.
        elapsed_seconds: Wall-clock time of the whole batch scan.
        num_workers: Processes that scanned: 1 in-process, the shard count
            when a :class:`~repro.service.sharded.ShardedScanner` pool ran.
        cache_stats: Snapshot of the cache counters accumulated during this
            scan (zeros when no cache was attached).
        batch_sizes: Histogram of GNN inference batch sizes in this scan
            (``{batch_size: num_batches}``).
        skipped: Directory-scan inputs that were skipped (unreadable, empty,
            or undecodable files), as ``"<sample id>: <reason>"`` strings.
        shard_stats: Per-shard telemetry (``{"shard-N": throughput_stats}``)
            when the scan ran on a :class:`~repro.service.sharded.
            ShardedScanner` worker pool; empty for single-process scans.
        registry_hits: Contracts answered straight from the attached
            :class:`~repro.registry.store.ScanRegistry` -- distinct from
            graph-cache hits: a cache hit skips *lowering* but still runs
            inference, a registry hit skips the model entirely.
        cascade_stats: Tier-0 cascade counters (None when the cascade is
            off): ``short_circuits`` (confident-benign contracts that
            skipped lowering + inference), ``escalations`` (contracts that
            paid the full pipeline price), and ``disagreements``
            (escalated contracts the GNN flagged malicious although the
            pre-filter had scored them below the at-target-recall
            threshold -- only the safety margin escalated them; any rise
            means the pre-filter is drifting towards missing malicious
            contracts).
        model_identity: The model identity the registry lookup used (None
            without a registry); the ingest tier's triage reuses it.
    """

    elapsed_seconds: float = 0.0
    num_workers: int = 1
    cache_stats: CacheStats = field(default_factory=CacheStats)
    batch_sizes: Dict[int, int] = field(default_factory=dict)
    skipped: List[str] = field(default_factory=list)
    shard_stats: Dict[str, Dict[str, object]] = field(default_factory=dict)
    registry_hits: int = 0
    cascade_stats: Optional[Dict[str, int]] = None
    model_identity: Optional[str] = None

    @classmethod
    def from_outcome(
        cls, outcome: ScanOutcome, num_workers: int, elapsed_seconds: float
    ) -> "BatchScanResult":
        """Wrap one :class:`~repro.core.engine.ScanOutcome` with timing."""
        cache_stats = outcome.cache_stats
        return cls(
            reports=outcome.reports,
            elapsed_seconds=elapsed_seconds,
            num_workers=num_workers,
            cache_stats=cache_stats if cache_stats is not None else CacheStats(),
            batch_sizes=outcome.batch_sizes,
            shard_stats=outcome.shard_stats,
            registry_hits=outcome.registry_hits,
            cascade_stats=outcome.cascade_stats,
            model_identity=outcome.model_identity,
        )

    @property
    def contracts_per_second(self) -> float:
        """Scan throughput (0.0 for an empty or instantaneous batch)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.num_scanned / self.elapsed_seconds

    def stats_dict(self) -> Dict[str, object]:
        """This scan's telemetry in the shared offline/online stats schema
        (see :func:`throughput_stats`)."""
        stats = throughput_stats(
            self.num_scanned,
            self.num_malicious,
            self.elapsed_seconds,
            self.cache_stats,
            self.batch_sizes,
        )
        stats["registry"] = {
            "hits": self.registry_hits,
            "misses": self.num_scanned - self.registry_hits,
        }
        if self.cascade_stats is not None:
            stats["cascade"] = dict(self.cascade_stats)
        if self.shard_stats:
            stats["shards"] = dict(self.shard_stats)
        return stats

    def format(self) -> str:
        lines = [
            super().format(),
            f"  throughput: {self.num_scanned} contracts in "
            f"{self.elapsed_seconds:.3f}s "
            f"({self.contracts_per_second:.1f}/s, "
            f"{'shards' if self.shard_stats else 'workers'}="
            f"{self.num_workers})",
        ]
        if self.registry_hits:
            lines.append(
                f"  registry: {self.registry_hits} hits / "
                f"{self.num_scanned} contracts served without "
                f"inference"
            )
        if self.cascade_stats is not None:
            lines.append(
                f"  cascade: "
                f"{self.cascade_stats['short_circuits']} "
                f"short-circuits, "
                f"{self.cascade_stats['escalations']} escalations, "
                f"{self.cascade_stats['disagreements']} "
                f"disagreements"
            )
        if self.cache_stats.lookups:
            lines.append(f"  {self.cache_stats.format()}")
        for name in sorted(self.shard_stats):
            shard = self.shard_stats[name]
            lines.append(
                f"  {name}: {shard['contracts']} contracts "
                f"({shard['contracts_per_second']:.1f}/s, "
                f"cache hit_rate="
                f"{shard['cache']['hit_rate']:.1%})"
            )
        if self.skipped:
            lines.append(
                f"  skipped {len(self.skipped)} unreadable input"
                f"{'s' if len(self.skipped) != 1 else ''}"
            )
        return "\n".join(lines)


class ScanEntryPoints:
    """``scan_codes`` / ``scan_corpus`` / ``scan_directory`` over one
    ``_scan_raw(raw_codes, ids, platforms)``.

    Shared by :class:`BatchScanner` and
    :class:`~repro.service.sharded.ShardedScanner`, so both gather inputs
    identically.
    """

    def _scan_raw(
        self,
        raw_codes: List[bytes],
        ids: List[str],
        platforms: List[Optional[str]],
    ) -> BatchScanResult:
        raise NotImplementedError

    def scan_codes(
        self,
        codes: Iterable[BytecodeLike],
        platform: Optional[str] = None,
        sample_ids: Optional[Sequence[str]] = None,
    ) -> BatchScanResult:
        """Scan an iterable of bytecode inputs; reports keep input order."""
        raw_codes = [coerce_bytecode(code) for code in codes]
        if sample_ids is not None and len(sample_ids) != len(raw_codes):
            raise ValueError("sample_ids length must match codes")
        ids = (
            list(sample_ids)
            if sample_ids is not None
            else [
                f"contract-{index:04d}" for index in range(len(raw_codes))
            ]
        )
        return self._scan_raw(raw_codes, ids, [platform] * len(raw_codes))

    def scan_corpus(self, corpus) -> BatchScanResult:
        """Scan every sample of a corpus (corpus labels are ignored)."""
        samples = list(corpus)
        return self._scan_raw(
            [sample.bytecode for sample in samples],
            [sample.sample_id for sample in samples],
            [sample.platform for sample in samples],
        )

    def scan_directory(
        self,
        directory: PathLike,
        pattern: str = "*",
        platform: Optional[str] = None,
        recursive: bool = True,
    ) -> BatchScanResult:
        """Scan every bytecode file under ``directory`` matching ``pattern``.

        ``.hex`` files are parsed as hex text (``0x`` prefix and line wraps
        allowed); everything else is read as raw binary.  Sample ids are the
        paths relative to ``directory``.  Hidden files and directories, the
        graph cache's own files (``cache-meta.json``, ``*.npz``) and SQLite
        registries are skipped, so pointing this at a directory that also
        holds a cache tier or verdict registry is safe.  ``recursive=False``
        restricts the walk to the top level; ``pattern`` may contain ``/``
        to filter by subdirectory (see :func:`is_contract_path`).

        A file that cannot be read, is empty, or (for ``.hex``) does not
        decode is *skipped with a warning* instead of aborting the whole
        batch -- one corrupt submission must not take down a triage run.
        Skipped files are listed in :attr:`BatchScanResult.skipped`.

        Raises:
            FileNotFoundError: If ``directory`` does not exist.
        """
        raw_codes, ids, skipped = collect_directory_inputs(
            directory, pattern, recursive=recursive
        )
        result = self._scan_raw(raw_codes, ids, [platform] * len(raw_codes))
        result.skipped = skipped
        return result


class BatchScanner(ScanEntryPoints):
    """Drives high-volume scans against a trained :class:`ScamDetector`.

    Args:
        detector: A trained detector; its threshold/explain settings apply
            to every report.
        cache: Optional :class:`GraphCache` attached to the detector's
            pipeline (and left attached; the throwaway scanners inside
            ``ScamDetector.scan_many`` / ``scan_directory`` restore the
            previous cache when they finish).  Must match the pipeline
            config's graph fingerprint (use :meth:`GraphCache.for_config`).
        inference_batch_size: Graphs per batched model call (bounds the peak
            size of the stacked node-feature matrix on very large corpora).
        shards: Number of scan worker *processes*.  The default (1) runs
            everything in this process, lowering serially; ``shards >= 2``
            hands registry misses to a
            :class:`~repro.service.sharded.ShardedScanner` pool that
            partitions contracts by content hash across pipeline replicas,
            escaping the GIL for the CPU-bound lowering path.  Workers can
            only share a cache through its *disk* tier -- attach a
            ``GraphCache`` built with ``disk_dir=...`` (a memory-only cache
            is invisible to the pool and draws a warning).  Use
            :meth:`close` (or the context-manager form) to release the pool.
        registry: Optional :class:`~repro.registry.store.ScanRegistry`.
            When attached, every scan first consults the registry: bytecode
            whose ``(sha256, graph fingerprint)`` is already recorded under
            the *same model description and explain setting* is answered
            from the stored verdict with no lowering and no inference
            (reported as :attr:`BatchScanResult.registry_hits`), and every
            freshly scanned verdict is recorded back durably.  The registry
            must be scoped to this detector's graph fingerprint.
    """

    def __init__(
        self,
        detector: ScamDetector,
        cache: Optional[GraphCache] = None,
        inference_batch_size: int = 256,
        shards: int = 1,
        registry=None,
    ) -> None:
        if not detector.is_trained:
            raise RuntimeError("BatchScanner requires a trained detector")
        # fail fast when the cascade is enabled but the pipeline carries no
        # trained head (raises RuntimeError), instead of on the first scan
        detector.cascade_head()
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.detector = detector
        self.inference_batch_size = inference_batch_size
        self.shards = shards
        self._sharded = None
        # built first: it rejects a registry scoped to another fingerprint
        # before the cache is attached to the caller's pipeline
        self._engine = ScanEngine(
            detector,
            registry=registry,
            pool=self._pool_run if shards > 1 else None,
            inference_batch_size=inference_batch_size,
        )
        self.registry = registry
        if cache is not None:
            detector.pipeline.set_graph_cache(cache)
        self.cache = detector.pipeline.graph_cache

    # ------------------------------------------------------------------ #
    # sharded path

    def _sharded_scanner(self):
        """Lazily build (and reuse) the worker pool behind ``shards >= 2``.

        The pool workers share this scanner's on-disk cache tier (when the
        attached :class:`GraphCache` has one), so a warm directory serves
        every shard.
        """
        if self._sharded is None:
            from repro.service.sharded import ShardedScanner

            cache_dir = None
            capacity = 1024
            if self.cache is not None:
                cache_dir = self.cache.disk_parent_dir
                capacity = self.cache.capacity
                if cache_dir is None:
                    # process memory cannot cross the pool boundary: a
                    # memory-only cache (warm or not) is invisible to the
                    # workers, which would silently re-lower everything
                    warnings.warn(
                        "BatchScanner(shards>1): the attached GraphCache "
                        "has no disk tier, so shard workers cannot share "
                        "it; build the cache with disk_dir=... to reuse "
                        "warm entries across shards",
                        stacklevel=3,
                    )
            self._sharded = ShardedScanner(
                self.detector,
                shards=self.shards,
                cache_dir=cache_dir,
                cache_capacity=capacity,
                inference_batch_size=self.inference_batch_size,
            )
        return self._sharded

    def _pool_run(self, raw_codes, ids, platforms) -> ScanOutcome:
        return self._sharded_scanner().run(raw_codes, ids, platforms)

    def close(self) -> None:
        """Shut down the sharded worker pool, if one was started."""
        if self._sharded is not None:
            self._sharded.close()
            self._sharded = None

    def __enter__(self) -> "BatchScanner":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------ #

    def _scan_raw(
        self,
        raw_codes: List[bytes],
        ids: List[str],
        platforms: List[Optional[str]],
    ) -> BatchScanResult:
        # obs root: one batch scan = one trace.  When an enclosing span is
        # already active on this thread (a server request, an ingest drain)
        # this nests as a child of that trace instead of starting a new one.
        with trace("batch.scan", root=True, contracts=len(raw_codes)):
            started = time.perf_counter()
            outcome = self._engine.run(raw_codes, ids, platforms)
            elapsed = time.perf_counter() - started
        return BatchScanResult.from_outcome(outcome, self.shards, elapsed)

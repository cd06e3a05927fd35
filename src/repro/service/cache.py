"""Content-addressed cache of lowered contract graphs.

Deployment-gate and triage workloads scan the same bytecode over and over
(factory clones, re-submitted contracts, re-audits after a model update), but
the frontend lowering -- disassembly, CFG recovery, feature extraction -- is
by far the most expensive part of a scan.  :class:`GraphCache` memoises the
lowering step: entries are addressed by the SHA-256 of the raw bytecode (plus
the platform), and the whole cache is scoped to one
:meth:`~repro.core.config.ScamDetectConfig.graph_fingerprint`, so a config
change that would alter the lowered graphs can never serve stale entries.

Two tiers:

* an in-memory LRU bounded by ``capacity`` entries, and
* an optional on-disk tier (one ``.npz`` file per entry under
  ``disk_dir/<fingerprint>/``) that survives process restarts and is shared
  between workers on the same host.

The disk tier is **cross-process safe** without lockfiles: writers dump each
entry to a process-unique hidden temp file and publish it with one atomic
:func:`os.replace`, so a reader can never observe a torn ``.npz``; readers
treat an entry that still fails to load (bit rot, pre-fix torn writes) as a
miss, warn, and delete it so the next scan rewrites it.  This is what lets
the :class:`~repro.service.sharded.ShardedScanner` worker processes share
one warm directory with zero coordination.

The disk layout stores only numeric arrays and a tiny JSON sidecar -- no
pickled code objects -- matching the safety guarantees of
:mod:`repro.core.persistence`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pathlib
import threading
import time
import warnings
import zipfile
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from typing import Optional, Union

import numpy as np

from repro.core.config import ScamDetectConfig
from repro.gnn.data import ContractGraph
from repro.obs.trace import trace
from repro.resilience.faults import fault_point

PathLike = Union[str, pathlib.Path]

#: Name of the JSON sidecar that scopes a disk cache directory to one
#: graph fingerprint.
DISK_META_FILENAME = "cache-meta.json"

#: Per-process counter that, together with the pid, makes every temp file
#: written by the disk tier unique across concurrent writers.
_TEMP_COUNTER = itertools.count()


def bytecode_key(code: bytes, platform: str) -> str:
    """Content address of one cache entry: SHA-256 over platform + bytecode."""
    digest = hashlib.sha256()
    digest.update(platform.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(code)
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Counters accumulated by a :class:`GraphCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_writes: int = 0
    stale_purges: int = 0
    disk_corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        """Counters plus the derived rates, as plain JSON-ready values.

        This is the ``cache`` section of the shared stats schema emitted by
        both :meth:`~repro.service.batch.BatchScanResult.stats_dict` (offline
        batch scans) and the scan server's ``GET /metrics`` (online serving),
        so dashboards can consume either path with one parser.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_writes": self.disk_writes,
            "stale_purges": self.stale_purges,
            "disk_corrupt": self.disk_corrupt,
        }

    def copy(self) -> "CacheStats":
        """An independent snapshot of the counters."""
        return replace(self)

    def delta(self, before: "CacheStats") -> "CacheStats":
        """Counter-wise difference ``self - before`` (for window stats)."""
        return CacheStats(
            **{
                field.name: getattr(self, field.name)
                - getattr(before, field.name)
                for field in fields(self)
            }
        )

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Counter-wise sum (for aggregating per-shard windows)."""
        return CacheStats(
            **{
                field.name: getattr(self, field.name)
                + getattr(other, field.name)
                for field in fields(self)
            }
        )

    def format(self) -> str:
        return (
            f"cache: {self.hits} hits / {self.lookups} lookups "
            f"(hit_rate={self.hit_rate:.1%}, evictions={self.evictions}, "
            f"disk_hits={self.disk_hits})"
        )


class GraphCache:
    """Two-tier content-addressed cache of :class:`ContractGraph` objects.

    Args:
        fingerprint: The graph fingerprint the cache is scoped to; use
            :meth:`for_config` to derive it from a pipeline config.
        capacity: Maximum entries held in the in-memory LRU tier.
        disk_dir: Optional directory for the persistent tier.  Entries are
            kept under ``disk_dir/<fingerprint>/``, so caches for different
            configs can share one directory safely; a fingerprint
            sub-directory whose sidecar is missing or mismatched is purged
            on first use (stale-cache detection), so pointing an upgraded
            pipeline at an old cache directory is always safe.

    The cache is thread-safe: the scan server's handler threads lower
    contracts against one shared cache.
    """

    def __init__(
        self,
        fingerprint: str,
        capacity: int = 1024,
        disk_dir: Optional[PathLike] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.fingerprint = fingerprint
        self.capacity = capacity
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, ContractGraph]" = OrderedDict()
        # Entries live under disk_dir/<fingerprint>/ so caches built for
        # different configs can share one directory without ever seeing each
        # other's graphs.
        self._tier_dir: Optional[pathlib.Path] = None
        if disk_dir is not None:
            self._tier_dir = pathlib.Path(disk_dir) / self.fingerprint
            self._prepare_disk_tier()

    @classmethod
    def for_config(
        cls,
        config: ScamDetectConfig,
        capacity: int = 1024,
        disk_dir: Optional[PathLike] = None,
    ) -> "GraphCache":
        """Build a cache scoped to ``config``'s graph fingerprint."""
        return cls(
            config.graph_fingerprint(), capacity=capacity, disk_dir=disk_dir
        )

    # ------------------------------------------------------------------ #
    # public API

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def disk_parent_dir(self) -> Optional[pathlib.Path]:
        """The ``disk_dir`` this cache was built with (None if memory-only).

        Handing this directory to another ``GraphCache`` -- or to the
        :class:`~repro.service.sharded.ShardedScanner` worker processes --
        shares the same persistent tier, which the atomic write protocol
        makes safe.
        """
        if self._tier_dir is None:
            return None
        return self._tier_dir.parent

    def get(
        self,
        code: bytes,
        platform: str,
        label: int = 0,
        sample_id: str = "",
    ) -> Optional[ContractGraph]:
        """Return the cached graph for ``code`` or None on a miss.

        ``label`` and ``sample_id`` are per-request metadata, not part of the
        content address: the stored arrays are rebound to the caller's values
        so one cached lowering serves every sample with identical bytecode.
        """
        key = bytecode_key(code, platform)
        # obs site cache.lookup: records only inside an active trace (the
        # shared no-op context manager otherwise), so a server handler thread
        # outside a trace costs one global read here
        with trace("cache.lookup") as span:
            with self._lock:
                graph = self._entries.get(key)
                if graph is not None:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    span.set(result="hit")
                    return self._rebind(graph, label, sample_id)
            graph = self._disk_get(key)
            if graph is not None:
                with self._lock:
                    self.stats.hits += 1
                    self.stats.disk_hits += 1
                    self._insert(key, graph)
                    span.set(result="disk_hit")
                    return self._rebind(graph, label, sample_id)
            with self._lock:
                self.stats.misses += 1
            span.set(result="miss")
            return None

    def put(self, code: bytes, platform: str, graph: ContractGraph) -> None:
        """Store the lowering of ``code``; evicts LRU entries past capacity."""
        key = bytecode_key(code, platform)
        with self._lock:
            fresh = key not in self._entries
            self._insert(key, graph)
        if fresh:
            self._disk_put(key, graph)

    def clear(self) -> None:
        """Drop the in-memory tier (disk entries are kept)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------ #
    # in-memory tier

    def _insert(self, key: str, graph: ContractGraph) -> None:
        self._entries[key] = graph
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    @staticmethod
    def _rebind(
        graph: ContractGraph, label: int, sample_id: str
    ) -> ContractGraph:
        return ContractGraph(
            node_features=graph.node_features,
            adjacency=graph.adjacency,
            normalized_adjacency=graph.normalized_adjacency,
            label=label,
            sample_id=sample_id,
            platform=graph.platform,
        )

    # ------------------------------------------------------------------ #
    # disk tier

    def _prepare_disk_tier(self) -> None:
        assert self._tier_dir is not None
        self._tier_dir.mkdir(parents=True, exist_ok=True)
        meta_path = self._tier_dir / DISK_META_FILENAME
        stored = None
        if meta_path.exists():
            try:
                stored = json.loads(meta_path.read_text()).get("fingerprint")
            except (ValueError, OSError):
                stored = None
        # The directory name already scopes entries to one fingerprint; the
        # sidecar is a tamper check.  Entries without a matching sidecar
        # (meta deleted, dir renamed, layout from an older version) cannot
        # be trusted and are purged.  ``missing_ok`` tolerates another
        # process purging (or replacing) the same entry concurrently.
        if stored != self.fingerprint:
            for entry in self._tier_dir.glob("*.npz"):
                try:
                    entry.unlink()
                except OSError:
                    continue
                self.stats.stale_purges += 1
        # orphaned temp files (a writer that crashed between dump and
        # rename) are garbage, never published entries: sweep them -- entry
        # temps (.tmp.npz) and sidecar temps (.tmp.json) alike -- once old
        # enough that no live writer can still own them
        now = time.time()
        for leftover in self._tier_dir.glob(".*.tmp.*"):
            try:
                if now - leftover.stat().st_mtime > 300.0:
                    leftover.unlink()
            except OSError:
                continue
        # publish the sidecar atomically too: a concurrent reader must see
        # either the old complete sidecar or the new one, never a torn file
        # that would trigger a spurious purge of shared entries
        self._atomic_write_bytes(
            meta_path,
            json.dumps(
                {"fingerprint": self.fingerprint}, indent=2, sort_keys=True
            ).encode("utf-8"),
        )

    def _atomic_write_bytes(self, path: pathlib.Path, payload: bytes) -> None:
        tmp_path = self._temp_path_for(path)
        try:
            tmp_path.write_bytes(payload)
            os.replace(tmp_path, path)
        except OSError:
            tmp_path.unlink(missing_ok=True)
            raise

    @staticmethod
    def _temp_path_for(path: pathlib.Path) -> pathlib.Path:
        """A process-unique hidden sibling of ``path`` for write-then-rename.

        The name embeds the pid plus a per-process counter so concurrent
        writers (threads or :class:`~repro.service.sharded.ShardedScanner`
        worker processes) can never scribble over each other's half-written
        temp file; the leading dot keeps ``scan_directory`` and the stale
        purge glob from ever seeing it as an entry.
        """
        token = f"{os.getpid()}-{next(_TEMP_COUNTER)}"
        return path.with_name(f".{path.stem}.{token}.tmp{path.suffix}")

    def _entry_path(self, key: str) -> Optional[pathlib.Path]:
        if self._tier_dir is None:
            return None
        return self._tier_dir / f"{key}.npz"

    def _disk_get(self, key: str) -> Optional[ContractGraph]:
        path = self._entry_path(key)
        if path is None or not path.exists():
            return None
        try:
            # fault site cache.disk_read: "corrupt" scribbles over the entry
            # before np.load sees it, "disk_full"/"oserror" raise an OSError
            # here -- both are swallowed by the recovery path below, exactly
            # like real bit rot
            fault_point("cache.disk_read", path=path)
            with np.load(path, allow_pickle=False) as arrays:
                return ContractGraph(
                    node_features=arrays["node_features"],
                    adjacency=arrays["adjacency"],
                    normalized_adjacency=arrays["normalized_adjacency"],
                    label=0,
                    sample_id="",
                    platform=str(arrays["platform"]),
                )
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            # Writes are atomic (temp file + os.replace), so an unreadable
            # entry means bit rot or a torn write from a pre-atomic version
            # of this cache: treat it as a miss, warn, and delete it so the
            # next put rewrites a clean copy.
            with self._lock:
                self.stats.disk_corrupt += 1
            warnings.warn(
                f"graph cache entry {path} is unreadable; "
                f"treating it as a miss and removing it",
                stacklevel=2,
            )
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            return None

    def _disk_put(self, key: str, graph: ContractGraph) -> None:
        path = self._entry_path(key)
        if path is None:
            return
        # write-temp-then-rename: the published path only ever holds a
        # complete .npz, so concurrent readers (threads or ShardedScanner
        # worker processes) can never load a torn entry; the temp name is
        # process-unique so concurrent writers of the same key cannot
        # interleave, and the last atomic os.replace simply wins
        tmp_path = self._temp_path_for(path)
        try:
            # fault site cache.disk_write: a "disk_full" OSError lands in
            # the handler below -- the scan continues without the entry
            fault_point("cache.disk_write", path=tmp_path)
            np.savez(
                tmp_path,
                node_features=graph.node_features,
                adjacency=graph.adjacency,
                normalized_adjacency=graph.normalized_adjacency,
                platform=np.asarray(graph.platform),
            )
            os.replace(tmp_path, path)
        except OSError as error:
            # a full or vanished cache directory must never fail a scan --
            # the disk tier is an optimisation, not a requirement
            tmp_path.unlink(missing_ok=True)
            warnings.warn(
                f"graph cache write to {path} failed ({error}); "
                f"continuing without the disk entry",
                stacklevel=2,
            )
            return
        self.stats.disk_writes += 1

    def __repr__(self) -> str:
        tier = (
            f", disk={self._tier_dir}" if self._tier_dir is not None else ""
        )
        return (
            f"GraphCache(fingerprint={self.fingerprint!r}, "
            f"entries={len(self._entries)}/{self.capacity}{tier})"
        )

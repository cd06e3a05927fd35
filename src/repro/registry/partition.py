"""Per-platform partitioned registry behind the `ScanRegistry` API.

One WAL database serves a handful of daemons; a *fleet* of servers and
watchers funnelling every platform's verdicts through a single file turns
the WAL writer lock into the global bottleneck.
:class:`PartitionedScanRegistry` splits the store into one SQLite database
per platform (``registry-evm.db``, ``registry-wasm.db``, ...) while
presenting the exact :class:`~repro.registry.store.ScanRegistry` surface,
so :class:`~repro.service.batch.BatchScanner`,
:class:`~repro.service.server.ScanServer`,
:class:`~repro.ingest.service.EventIngestService`, and
:class:`~repro.registry.triage.RetroTriage` all run unchanged on top of it
-- writers on different platforms never contend, which is where fleet
write contention actually concentrates (each chain's ingest feed is its
own firehose).

Semantics contract (enforced by the fleet test suite): every read returns
**byte-identical** results to the same operations against one shared
database.

* *Routing* is by ``report.platform`` at record time; platforms outside
  the configured partition list land in the first partition.  Routing
  only picks the *file* -- the row still stores its real platform string,
  and every query filters on the column, so filtered reads are unaffected
  by where a row physically lives.
* *Merged reads* (:meth:`query`, :meth:`query_page`, :meth:`select_where`)
  fan out to every partition and merge by the exact single-db sort key;
  keyset cursors work unchanged because each partition evaluates the same
  boundary predicate and the merge re-sorts.
* *Single-row ops* (:meth:`get`, :meth:`history`, :meth:`add_tags`)
  probe partitions in order; content addressing makes a sha256 live in at
  most one partition per fingerprint under deterministic platform
  resolution (the row's latest write wins if an upstream ever re-platforms
  bytecode, exactly as the single-db upsert would).
* The *watch index* and *triage progress* live in the first partition
  (they are per-deployment bookkeeping, not per-platform data).
"""

from __future__ import annotations

import pathlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.report import VerdictReport
from repro.registry.store import (
    RegistryError,
    ScanRegistry,
    VerdictRow,
    decode_cursor,
    encode_cursor,
)
from repro.resilience.retry import RetryPolicy

PathLike = Union[str, pathlib.Path]

#: Default partition layout: one database per supported platform frontend.
DEFAULT_PLATFORMS = ("evm", "wasm")


class PartitionedScanRegistry:
    """A fleet of per-platform :class:`ScanRegistry` files, one API.

    Args:
        path: Either a directory (databases are created inside it as
            ``<platform>.db``) or a ``.db``/``.sqlite`` file path used as
            the naming base (``registry.db`` -> ``registry-evm.db``).
        platforms: Partition list, in routing-priority order; the first
            also hosts the watch-file index and triage progress.
        fingerprint: Shared fingerprint scope (same meaning as on
            :class:`ScanRegistry`).
    """

    def __init__(
        self,
        path: PathLike,
        fingerprint: str = "",
        platforms: Sequence[str] = DEFAULT_PLATFORMS,
        write_retry: Optional[RetryPolicy] = None,
    ) -> None:
        if not platforms:
            raise RegistryError("need at least one partition platform")
        self.path = pathlib.Path(path)
        self.platforms = tuple(platforms)
        self.partitions: Dict[str, ScanRegistry] = {
            platform: ScanRegistry(
                self.partition_path(self.path, platform),
                fingerprint=fingerprint,
                write_retry=write_retry,
            )
            for platform in self.platforms
        }
        self._primary = self.partitions[self.platforms[0]]
        self._fingerprint = fingerprint

    @staticmethod
    def partition_path(base: pathlib.Path, platform: str) -> pathlib.Path:
        """Where one platform's database lives under ``base``."""
        if base.suffix in (".db", ".sqlite", ".sqlite3"):
            return base.with_name(
                f"{base.stem}-{platform}{base.suffix}"
            )
        return base / f"{platform}.db"

    @classmethod
    def for_config(
        cls,
        path: PathLike,
        config,
        platforms: Sequence[str] = DEFAULT_PLATFORMS,
    ) -> "PartitionedScanRegistry":
        return cls(
            path,
            fingerprint=config.graph_fingerprint(),
            platforms=platforms,
        )

    # ------------------------------------------------------------------ #
    # ScanRegistry surface: identity + lifecycle

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    @fingerprint.setter
    def fingerprint(self, value: str) -> None:
        # the scan engine assigns the scope
        # after validating it; propagate so every partition agrees
        self._fingerprint = value
        for registry in self.partitions.values():
            registry.fingerprint = value

    @property
    def busy_retries(self) -> int:
        return sum(
            registry.busy_retries for registry in self.partitions.values()
        )

    @property
    def schema_version(self) -> int:
        return self._primary.schema_version

    @property
    def journal_mode(self) -> str:
        return self._primary.journal_mode

    def close(self) -> None:
        for registry in self.partitions.values():
            registry.close()

    def __enter__(self) -> "PartitionedScanRegistry":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def _route(self, platform: str) -> ScanRegistry:
        return self.partitions.get(platform, self._primary)

    def _scope(self, fingerprint: Optional[str]) -> str:
        return self._primary._scope(
            self._fingerprint if fingerprint is None else fingerprint
        )

    # ------------------------------------------------------------------ #
    # recording

    def record(
        self,
        sha256: str,
        report: VerdictReport,
        fingerprint: Optional[str] = None,
        source_path: Optional[str] = None,
        explained: bool = False,
        model_identity: str = "",
        scanned_at: Optional[float] = None,
    ) -> bool:
        return self.record_many(
            [(sha256, report, source_path)],
            fingerprint=fingerprint,
            explained=explained,
            model_identity=model_identity,
            scanned_at=scanned_at,
        )[0]

    def record_many(
        self,
        entries: Sequence[Tuple[str, VerdictReport, Optional[str]]],
        fingerprint: Optional[str] = None,
        explained: bool = False,
        model_identity: str = "",
        scanned_at: Optional[float] = None,
    ) -> List[bool]:
        """Route each entry to its platform's partition, preserving the
        caller's per-entry "was new" flags in input order."""
        routed: Dict[str, List[Tuple[int, Tuple]]] = {}
        for position, entry in enumerate(entries):
            platform = entry[1].platform
            key = platform if platform in self.partitions else (
                self.platforms[0]
            )
            routed.setdefault(key, []).append((position, entry))
        fresh: List[bool] = [False] * len(entries)
        for key, batch in routed.items():
            flags = self.partitions[key].record_many(
                [entry for _, entry in batch],
                fingerprint=fingerprint,
                explained=explained,
                model_identity=model_identity,
                scanned_at=scanned_at,
            )
            for (position, _), flag in zip(batch, flags):
                fresh[position] = flag
        return fresh

    def add_tags(
        self,
        sha256: str,
        tags: Iterable[str],
        fingerprint: Optional[str] = None,
    ) -> List[str]:
        tags = list(tags)
        scope = self._scope(fingerprint)
        for registry in self.partitions.values():
            if registry.get(sha256, scope) is not None:
                return registry.add_tags(sha256, tags, scope)
        raise RegistryError(
            f"cannot tag unknown verdict {sha256[:12]} "
            f"(fingerprint {scope!r})"
        )

    def add_tags_many(
        self,
        entries: Sequence[Tuple[str, Iterable[str]]],
        fingerprint: Optional[str] = None,
        missing_ok: bool = False,
    ) -> Dict[str, List[str]]:
        """Split the batch by which partition actually holds each row."""
        scope = self._scope(fingerprint)
        pending = [(sha256, list(tags)) for sha256, tags in entries]
        merged: Dict[str, List[str]] = {}
        for registry in self.partitions.values():
            if not pending:
                break
            known = registry.get_many(
                [sha256 for sha256, _ in pending], scope
            )
            here = [item for item in pending if item[0] in known]
            pending = [item for item in pending if item[0] not in known]
            if here:
                merged.update(
                    registry.add_tags_many(here, scope, missing_ok=True)
                )
        if pending and not missing_ok:
            raise RegistryError(
                f"cannot tag unknown verdict {pending[0][0][:12]} "
                f"(fingerprint {scope!r})"
            )
        return merged

    # ------------------------------------------------------------------ #
    # reads

    def get(
        self, sha256: str, fingerprint: Optional[str] = None
    ) -> Optional[VerdictRow]:
        rows = [
            row
            for registry in self.partitions.values()
            if (row := registry.get(sha256, fingerprint)) is not None
        ]
        if not rows:
            return None
        # at most one partition holds a sha; if re-platformed bytecode ever
        # left a stale twin behind, the freshest write wins -- the same row
        # the single-db upsert would hold
        return max(rows, key=lambda row: (row.last_scanned_at, row.sha256))

    def get_many(
        self, sha256s: Sequence[str], fingerprint: Optional[str] = None
    ) -> Dict[str, VerdictRow]:
        found: Dict[str, VerdictRow] = {}
        for registry in self.partitions.values():
            for sha256, row in registry.get_many(
                sha256s, fingerprint
            ).items():
                kept = found.get(sha256)
                if kept is None or row.last_scanned_at > kept.last_scanned_at:
                    found[sha256] = row
        return found

    def query(self, **filters) -> List[VerdictRow]:
        limit = filters.pop("limit", None)
        rows: List[VerdictRow] = []
        for registry in self.partitions.values():
            rows.extend(registry.query(limit=limit, **filters))
        rows.sort(key=lambda row: (-row.last_scanned_at, row.sha256))
        return rows if limit is None else rows[:limit]

    def query_page(
        self,
        cursor: Optional[str] = None,
        page_size: int = 100,
        **filters,
    ) -> Tuple[List[VerdictRow], Optional[str]]:
        """Merged keyset page: each partition answers the same cursor
        predicate, the merge re-sorts, and the next cursor is the merged
        page's last sort key -- identical to the single-db page."""
        if cursor is not None:
            decode_cursor(cursor)  # fail fast on garbage, like single-db
        if page_size < 1:
            raise RegistryError("page_size must be >= 1")
        rows: List[VerdictRow] = []
        more = False
        for registry in self.partitions.values():
            part_rows, part_cursor = registry.query_page(
                cursor=cursor, page_size=page_size, **filters
            )
            rows.extend(part_rows)
            more = more or part_cursor is not None
        rows.sort(key=lambda row: (-row.last_scanned_at, row.sha256))
        next_cursor: Optional[str] = None
        if len(rows) > page_size or (rows and more):
            rows = rows[:page_size]
            next_cursor = encode_cursor(
                rows[-1].last_scanned_at, rows[-1].sha256
            )
        return rows, next_cursor

    def select_where(
        self,
        where: str,
        params: Sequence[object],
        after_sha256: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[VerdictRow]:
        rows: List[VerdictRow] = []
        for registry in self.partitions.values():
            rows.extend(
                registry.select_where(
                    where, params, after_sha256=after_sha256, limit=limit
                )
            )
        rows.sort(key=lambda row: row.sha256)
        return rows if limit is None else rows[:limit]

    def explain_where(
        self,
        where: str,
        params: Sequence[object],
        after_sha256: Optional[str] = None,
    ) -> List[str]:
        lines: List[str] = []
        for registry in self.partitions.values():
            lines.extend(
                registry.explain_where(where, params, after_sha256)
            )
        return lines

    def history(
        self, sha256: str, fingerprint: Optional[str] = None
    ) -> List[Dict[str, object]]:
        events: List[Dict[str, object]] = []
        for registry in self.partitions.values():
            events.extend(registry.history(sha256, fingerprint))
        events.sort(key=lambda event: event["scanned_at"])
        return events

    def counts(self, fingerprint: Optional[str] = None) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for registry in self.partitions.values():
            for key, value in registry.counts(fingerprint).items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def fingerprints(self) -> List[str]:
        seen = set()
        for registry in self.partitions.values():
            seen.update(registry.fingerprints())
        return sorted(seen)

    def purge_stale(self, keep_fingerprint: Optional[str] = None) -> int:
        return sum(
            registry.purge_stale(keep_fingerprint)
            for registry in self.partitions.values()
        )

    # ------------------------------------------------------------------ #
    # deployment bookkeeping: first partition only

    def watched_files(self, *args, **kwargs):
        return self._primary.watched_files(*args, **kwargs)

    def upsert_watched_files(self, *args, **kwargs):
        return self._primary.upsert_watched_files(*args, **kwargs)

    def mark_deleted(self, *args, **kwargs):
        return self._primary.mark_deleted(*args, **kwargs)

    def find_triage_run(self, *args, **kwargs):
        return self._primary.find_triage_run(*args, **kwargs)

    def start_triage_run(self, *args, **kwargs):
        return self._primary.start_triage_run(*args, **kwargs)

    def advance_triage_run(self, *args, **kwargs):
        return self._primary.advance_triage_run(*args, **kwargs)

    def finish_triage_run(self, *args, **kwargs):
        return self._primary.finish_triage_run(*args, **kwargs)

    def __repr__(self) -> str:
        return (
            f"PartitionedScanRegistry(path={str(self.path)!r}, "
            f"platforms={self.platforms!r}, "
            f"fingerprint={self._fingerprint!r})"
        )

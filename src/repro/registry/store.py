"""Persistent verdict registry: a SQLite-backed, content-addressed store.

Every scan the service stack performs today is stateless -- verdicts vanish
with the process.  :class:`ScanRegistry` is the durable read-model under the
continuous-scanning path: verdict rows are keyed by ``(sha256 of the raw
bytecode, graph fingerprint)``, so

* re-scanning bytecode the registry already knows is a **registry hit** that
  needs no lowering and no model inference at all (one SQLite point lookup),
* a config change that alters graph lowering gets a new fingerprint and can
  never be served another config's verdicts, while the stale rows stay
  queryable under their own fingerprint until pruned.

Durability/concurrency model (mirrors the incremental read-model shape of
``azuline/rose``'s cache layer):

* **WAL journal mode** so ``scamdetect watch`` can write while CLI ``query`` /
  HTTP ``GET /verdicts`` readers run concurrently, also across processes.
* **Schema versioning** via ``PRAGMA user_version`` with ordered, in-place
  migrations -- opening an old registry upgrades it; opening a *newer*
  registry than this code understands refuses loudly instead of guessing.
* **Upsert-on-rescan**: the ``verdicts`` row always holds the latest
  verdict, and every ``record`` appends to ``scan_history`` so score drift
  across re-scans/model refreshes stays auditable.
* **Corruption recovery**: a registry file that SQLite rejects is moved
  aside to ``<name>.corrupt-N`` and rebuilt empty with a warning -- a
  damaged registry degrades to a cold start, never a crashed daemon.

The registry stores every field of :class:`~repro.core.report.VerdictReport`
verbatim (probabilities as 8-byte IEEE doubles, notes as JSON), which is
what makes ``watch``-then-``query`` verdicts byte-identical to a direct
``scan-batch`` over the same corpus.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import pathlib
import sqlite3
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.report import VerdictReport
from repro.obs.trace import trace
from repro.resilience.faults import fault_point
from repro.resilience.retry import RetryPolicy

PathLike = Union[str, pathlib.Path]

#: Schema version written by this code; see :data:`_MIGRATIONS`.
SCHEMA_VERSION = 4

#: Ordered migrations; ``_MIGRATIONS[v]`` upgrades a version ``v-1`` registry
#: to version ``v``.  Migrations only ever append (new tables, new columns
#: with defaults), so older rows survive every upgrade verbatim.
_MIGRATIONS: Dict[int, str] = {
    1: """
        CREATE TABLE verdicts (
            sha256 TEXT NOT NULL,
            fingerprint TEXT NOT NULL,
            sample_id TEXT NOT NULL,
            source_path TEXT,
            platform TEXT NOT NULL,
            label INTEGER NOT NULL,
            malicious_probability REAL NOT NULL,
            cfg_blocks INTEGER NOT NULL DEFAULT 0,
            cfg_edges INTEGER NOT NULL DEFAULT 0,
            num_instructions INTEGER NOT NULL DEFAULT 0,
            model TEXT NOT NULL DEFAULT '',
            model_identity TEXT NOT NULL DEFAULT '',
            notes TEXT NOT NULL DEFAULT '[]',
            explained INTEGER NOT NULL DEFAULT 0,
            first_seen_at REAL NOT NULL,
            last_scanned_at REAL NOT NULL,
            scan_count INTEGER NOT NULL DEFAULT 1,
            PRIMARY KEY (sha256, fingerprint)
        );
        CREATE INDEX verdicts_label ON verdicts(fingerprint, label);
        CREATE INDEX verdicts_score
            ON verdicts(fingerprint, malicious_probability);
        CREATE INDEX verdicts_scanned_at
            ON verdicts(fingerprint, last_scanned_at);
        CREATE TABLE watched_files (
            path TEXT NOT NULL,
            fingerprint TEXT NOT NULL,
            sha256 TEXT NOT NULL,
            size INTEGER NOT NULL,
            mtime_ns INTEGER NOT NULL,
            first_seen_at REAL NOT NULL,
            last_seen_at REAL NOT NULL,
            deleted_at REAL,
            PRIMARY KEY (path, fingerprint)
        );
    """,
    2: """
        CREATE TABLE scan_history (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            sha256 TEXT NOT NULL,
            fingerprint TEXT NOT NULL,
            label INTEGER NOT NULL,
            malicious_probability REAL NOT NULL,
            model TEXT NOT NULL DEFAULT '',
            scanned_at REAL NOT NULL
        );
        CREATE INDEX scan_history_key ON scan_history(sha256, fingerprint);
        ALTER TABLE verdicts ADD COLUMN tags TEXT NOT NULL DEFAULT '[]';
    """,
    # which pipeline stage produced the verdict: 'gnn' (full scoring) or
    # 'prefilter' (cascade tier-0 short-circuit); pre-cascade rows were all
    # GNN-scored, so the backfill default is exact, not a guess
    3: """
        ALTER TABLE verdicts ADD COLUMN stage TEXT NOT NULL DEFAULT 'gnn';
    """,
    # registry v2 (compiled triage + cursor pagination): indexes backing the
    # rule-to-SQL compiler's platform / model-identity matchers and the
    # keyset-paginated listing order, plus the resumable retro-triage
    # progress table (one row per `scamdetect triage` run)
    4: """
        CREATE INDEX verdicts_platform ON verdicts(fingerprint, platform);
        CREATE INDEX verdicts_model_identity
            ON verdicts(fingerprint, model_identity);
        CREATE INDEX verdicts_page
            ON verdicts(fingerprint, last_scanned_at DESC, sha256);
        CREATE TABLE triage_runs (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            rules_digest TEXT NOT NULL,
            fingerprint TEXT NOT NULL,
            dry_run INTEGER NOT NULL DEFAULT 0,
            rule_index INTEGER NOT NULL DEFAULT 0,
            cursor_sha256 TEXT NOT NULL DEFAULT '',
            rows_scanned INTEGER NOT NULL DEFAULT 0,
            rows_matched INTEGER NOT NULL DEFAULT 0,
            started_at REAL NOT NULL,
            updated_at REAL NOT NULL,
            finished_at REAL
        );
        CREATE INDEX triage_runs_key
            ON triage_runs(rules_digest, fingerprint, dry_run);
    """,
}

_VERDICT_COLUMNS = (
    "sha256, fingerprint, sample_id, source_path, platform, label, "
    "malicious_probability, cfg_blocks, cfg_edges, num_instructions, "
    "model, model_identity, notes, explained, first_seen_at, "
    "last_scanned_at, scan_count, tags, stage"
)


class RegistryError(RuntimeError):
    """A registry problem the caller must deal with (bad path, future
    schema, invalid query)."""


def encode_cursor(last_scanned_at: float, sha256: str) -> str:
    """Encode one keyset-pagination position as an opaque cursor token.

    The position is the ``(last_scanned_at, sha256)`` sort key of the last
    row already returned; ``float.hex()`` keeps the timestamp bit-exact
    through the round trip (SQLite REAL is the same 8-byte IEEE double), so
    resuming never skips or repeats a row on timestamp ties.
    """
    payload = json.dumps([float(last_scanned_at).hex(), sha256])
    return base64.urlsafe_b64encode(payload.encode("ascii")).decode("ascii")


def decode_cursor(cursor: str) -> Tuple[float, str]:
    """Decode an :func:`encode_cursor` token; raises :class:`RegistryError`
    on anything that was not produced by this build (clients must treat
    cursors as opaque)."""
    try:
        payload = json.loads(
            base64.urlsafe_b64decode(cursor.encode("ascii")).decode("ascii")
        )
        timestamp_hex, sha256 = payload
        timestamp = float.fromhex(timestamp_hex)
        if not isinstance(sha256, str):
            raise ValueError("sha256 position must be a string")
    except (ValueError, TypeError, binascii.Error) as error:
        raise RegistryError(f"invalid cursor {cursor!r}: {error}") from error
    return timestamp, sha256


def content_sha256(raw: bytes) -> str:
    """The content address of one contract: SHA-256 over the raw bytecode.

    Unlike :func:`repro.service.cache.bytecode_key` this deliberately does
    *not* mix in the platform -- the registry row records the platform the
    contract actually resolved to, and external systems (block explorers,
    submission queues) address contracts by plain code hash.
    """
    return hashlib.sha256(raw).hexdigest()


def _verdict_label(verdict: str) -> int:
    from repro.datasets.labels import LABEL_NAMES

    lowered = verdict.lower()
    for label, name in LABEL_NAMES.items():
        if name == lowered:
            return int(label)
    if lowered in ("malicious", "scam", "1"):
        return 1
    if lowered in ("benign", "0"):
        return 0
    raise RegistryError(f"unknown verdict {verdict!r}; use 'malicious' or 'benign'")


def _glob_from_fnmatch(pattern: str) -> str:
    """Translate an :mod:`fnmatch` pattern to SQLite ``GLOB`` syntax.

    The two dialects agree on ``*``, ``?``, and ``[seq]``; they disagree
    only on negated classes (``[!seq]`` vs ``[^seq]``), so that is the one
    rewrite.  A ``!`` anywhere else in a class is literal in both.
    """
    return pattern.replace("[!", "[^")


def _sha256_range(prefix: str) -> Tuple[str, Optional[str]]:
    """The half-open hex range equivalent to ``startswith(prefix)``.

    Returns ``(low, high)``; ``high`` is None for an all-``f`` prefix
    (nothing sorts above it, so the range is one-sided).
    """
    low = prefix
    stripped = prefix.rstrip("f")
    if not stripped:
        return low, None
    bumped = format(int(stripped, 16) + 1, f"0{len(stripped)}x")
    return low, bumped


def filter_clauses(
    verdict: Optional[str] = None,
    min_score: Optional[float] = None,
    max_score: Optional[float] = None,
    platform: Optional[str] = None,
    since: Optional[float] = None,
    until: Optional[float] = None,
    path_glob: Optional[str] = None,
    tag: Optional[str] = None,
    sha256_prefix: Optional[str] = None,
) -> Tuple[List[str], List[object]]:
    """WHERE clauses (ANDed) and their parameters for the matchers that
    registry queries and triage rules share.

    This is the one translation of those matchers to SQL, behind
    :meth:`ScanRegistry.query` / :meth:`ScanRegistry.query_page`
    (``scamdetect query``, ``GET /v1/verdicts``) and
    :func:`~repro.registry.compile.compile_rule` (rules, ``triage``), and
    it agrees with :meth:`~repro.registry.rules.TriageRule.matches`:

    * ``path_glob`` is an :mod:`fnmatch` shell glob (``[!a]`` negates),
      matched case-sensitively against the source path, or the sample id
      of a row recorded without one;
    * ``tag`` is an exact member of the row's tag set, via ``json_each``
      (a substring ``LIKE`` would match tags containing each other);
    * ``sha256_prefix`` is validated hex and becomes a half-open range
      over the primary key (``sha256 >= lo AND sha256 < hi``): identical
      to ``startswith`` on a column that only holds lowercase hex, and
      sargable on the key.
    """
    clauses: List[str] = []
    params: List[object] = []
    if verdict is not None:
        clauses.append("label = ?")
        params.append(_verdict_label(verdict))
    if min_score is not None:
        clauses.append("malicious_probability >= ?")
        params.append(float(min_score))
    if max_score is not None:
        clauses.append("malicious_probability <= ?")
        params.append(float(max_score))
    if platform is not None:
        clauses.append("platform = ?")
        params.append(platform)
    if since is not None:
        clauses.append("last_scanned_at >= ?")
        params.append(float(since))
    if until is not None:
        clauses.append("last_scanned_at <= ?")
        params.append(float(until))
    if path_glob is not None:
        clauses.append("COALESCE(source_path, sample_id) GLOB ?")
        params.append(_glob_from_fnmatch(path_glob))
    if tag is not None:
        clauses.append(
            "EXISTS (SELECT 1 FROM json_each(verdicts.tags) "
            "WHERE json_each.value = ?)"
        )
        params.append(tag)
    if sha256_prefix is not None:
        lowered = sha256_prefix.lower()
        if any(char not in "0123456789abcdef" for char in lowered):
            raise RegistryError(f"sha256 prefix must be hex, got {sha256_prefix!r}")
        low, high = _sha256_range(lowered)
        clauses.append("sha256 >= ?")
        params.append(low)
        if high is not None:
            clauses.append("sha256 < ?")
            params.append(high)
    return clauses, params


@dataclass
class VerdictRow:
    """One registry row: the latest verdict for ``(sha256, fingerprint)``.

    ``to_report()`` reconstructs the exact :class:`VerdictReport` that was
    recorded, which is what the byte-identical ``watch`` / ``scan-batch``
    invariant rests on.
    """

    sha256: str
    fingerprint: str
    sample_id: str
    source_path: Optional[str]
    platform: str
    label: int
    malicious_probability: float
    cfg_blocks: int
    cfg_edges: int
    num_instructions: int
    model: str
    model_identity: str
    notes: List[str]
    explained: bool
    first_seen_at: float
    last_scanned_at: float
    scan_count: int
    tags: List[str] = field(default_factory=list)
    stage: str = "gnn"

    @classmethod
    def _from_sql(cls, row: sqlite3.Row) -> "VerdictRow":
        return cls(
            sha256=row["sha256"],
            fingerprint=row["fingerprint"],
            sample_id=row["sample_id"],
            source_path=row["source_path"],
            platform=row["platform"],
            label=int(row["label"]),
            malicious_probability=float(row["malicious_probability"]),
            cfg_blocks=int(row["cfg_blocks"]),
            cfg_edges=int(row["cfg_edges"]),
            num_instructions=int(row["num_instructions"]),
            model=row["model"],
            model_identity=row["model_identity"],
            notes=json.loads(row["notes"]),
            explained=bool(row["explained"]),
            first_seen_at=float(row["first_seen_at"]),
            last_scanned_at=float(row["last_scanned_at"]),
            scan_count=int(row["scan_count"]),
            tags=json.loads(row["tags"]),
            stage=row["stage"],
        )

    def to_report(self, sample_id: Optional[str] = None) -> VerdictReport:
        """Rebuild the stored :class:`VerdictReport`.

        ``sample_id`` rebinds the caller's identifier (a registry hit serves
        every path/submission with identical bytecode); every scored field
        comes back exactly as recorded.
        """
        return VerdictReport(
            sample_id=self.sample_id if sample_id is None else sample_id,
            platform=self.platform,
            label=self.label,
            malicious_probability=self.malicious_probability,
            cfg_blocks=self.cfg_blocks,
            cfg_edges=self.cfg_edges,
            num_instructions=self.num_instructions,
            model=self.model,
            notes=list(self.notes),
            stage=self.stage,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready row: registry metadata plus the nested report dict."""
        return {
            "sha256": self.sha256,
            "fingerprint": self.fingerprint,
            "source_path": self.source_path,
            "first_seen_at": self.first_seen_at,
            "last_scanned_at": self.last_scanned_at,
            "scan_count": self.scan_count,
            "explained": self.explained,
            "tags": list(self.tags),
            "report": self.to_report().to_dict(),
        }

    def format(self) -> str:
        verdict = self.to_report().verdict
        tags = f" tags={','.join(self.tags)}" if self.tags else ""
        return (
            f"{self.sha256[:12]}  {verdict:<9} "
            f"p={self.malicious_probability:.3f}  [{self.platform}]  "
            f"{self.source_path or self.sample_id}  "
            f"(scans={self.scan_count}{tags})"
        )


@dataclass
class TriageRun:
    """One row of ``triage_runs``: resumable progress of a retro-triage.

    A run is keyed by ``(rules_digest, fingerprint, dry_run)`` -- the
    SHA-256 of the rules file text plus the verdict scope -- so resuming
    with an *edited* rules file starts a fresh run instead of continuing a
    cursor whose rule indexes no longer line up.
    """

    id: int
    rules_digest: str
    fingerprint: str
    dry_run: bool
    rule_index: int
    cursor_sha256: str
    rows_scanned: int
    rows_matched: int
    started_at: float
    updated_at: float
    finished_at: Optional[float] = None

    @classmethod
    def _from_sql(cls, row: sqlite3.Row) -> "TriageRun":
        return cls(
            id=int(row["id"]),
            rules_digest=row["rules_digest"],
            fingerprint=row["fingerprint"],
            dry_run=bool(row["dry_run"]),
            rule_index=int(row["rule_index"]),
            cursor_sha256=row["cursor_sha256"],
            rows_scanned=int(row["rows_scanned"]),
            rows_matched=int(row["rows_matched"]),
            started_at=float(row["started_at"]),
            updated_at=float(row["updated_at"]),
            finished_at=(
                None
                if row["finished_at"] is None
                else float(row["finished_at"])
            ),
        )


@dataclass
class WatchedFile:
    """One row of the ``watched_files`` table (the ingest tier's file index)."""

    path: str
    fingerprint: str
    sha256: str
    size: int
    mtime_ns: int
    first_seen_at: float
    last_seen_at: float
    deleted_at: Optional[float] = None


class ScanRegistry:
    """The persistent verdict store (see module docstring).

    Args:
        path: SQLite database file (parent directories are created).
            ``":memory:"`` builds a private in-memory registry for tests.
        fingerprint: Default graph-fingerprint scope for :meth:`record` /
            :meth:`get` / :meth:`query`; pass
            ``config.graph_fingerprint()`` (or use :meth:`for_config`).
            Queries may widen to all fingerprints explicitly.

    Thread safety: one instance may be shared between threads (a lock
    serialises statements on the single connection).  Cross-*process* safety
    comes from SQLite itself -- WAL journal mode plus a generous busy
    timeout let concurrent writers retry instead of failing.
    """

    #: How long a writer waits on a locked database before giving up.
    BUSY_TIMEOUT_SECONDS = 15.0

    #: Application-level retry over SQLite's own busy wait: a write that
    #: still came back ``SQLITE_BUSY``/``SQLITE_LOCKED`` after the
    #: connection timeout (WAL writer pile-up across a fleet of daemons)
    #: is retried with backoff instead of failing the scan cycle.
    WRITE_RETRY = RetryPolicy(max_attempts=5, base_delay_s=0.05,
                              max_delay_s=1.0, deadline_s=15.0)

    def __init__(self, path: PathLike, fingerprint: str = "",
                 write_retry: Optional[RetryPolicy] = None) -> None:
        self.path = pathlib.Path(path) if path != ":memory:" else path
        self.fingerprint = fingerprint
        self.write_retry = (self.WRITE_RETRY if write_retry is None
                            else write_retry)
        #: write transactions retried after SQLITE_BUSY/SQLITE_LOCKED over
        #: this handle's lifetime (fleet-contention telemetry)
        self.busy_retries = 0
        self._lock = threading.Lock()
        self._conn = self._open()

    @classmethod
    def for_config(cls, path: PathLike, config) -> "ScanRegistry":
        """Build a registry scoped to ``config.graph_fingerprint()``."""
        return cls(path, fingerprint=config.graph_fingerprint())

    # ------------------------------------------------------------------ #
    # connection + schema lifecycle

    def _open(self) -> sqlite3.Connection:
        if self.path != ":memory:":
            self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            return self._connect_and_migrate()
        except sqlite3.DatabaseError as error:
            # not a database / malformed image: salvage is hopeless, but a
            # triage daemon must come back up -- move the damaged file aside
            # and rebuild an empty registry, loudly
            self._quarantine_corrupt(error)
            return self._connect_and_migrate()

    def _connect_and_migrate(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            str(self.path),
            timeout=self.BUSY_TIMEOUT_SECONDS,
            check_same_thread=False,
        )
        try:
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA foreign_keys=ON")
            # a malformed file often only surfaces on first real read
            version = int(conn.execute("PRAGMA user_version").fetchone()[0])
            if version > SCHEMA_VERSION:
                raise RegistryError(
                    f"registry {self.path} has schema version {version}, "
                    f"newer than this build understands "
                    f"({SCHEMA_VERSION}); upgrade the scamdetect install "
                    f"instead of downgrading the registry"
                )
            for target in range(version + 1, SCHEMA_VERSION + 1):
                # one REAL transaction per migration step: executescript
                # auto-commits any pending transaction before running, so
                # the BEGIN/COMMIT (and the version bump) must live INSIDE
                # the script -- a crash mid-migration then rolls back to
                # the previous version instead of leaving half-applied DDL
                # that a later open would misread as corruption
                conn.executescript(
                    "BEGIN;\n"
                    + _MIGRATIONS[target]
                    + f"\nPRAGMA user_version = {target};\nCOMMIT;"
                )
            # integrity_check also validates pre-existing pages of an old
            # registry we did not just create
            status = conn.execute("PRAGMA quick_check").fetchone()[0]
            if status != "ok":
                raise sqlite3.DatabaseError(f"quick_check: {status}")
            return conn
        except Exception:
            conn.close()
            raise

    def _quarantine_corrupt(self, error: Exception) -> None:
        if self.path == ":memory:":  # pragma: no cover - cannot corrupt
            raise RegistryError(f"in-memory registry corrupt: {error}")
        suffix = 0
        while True:
            target = self.path.with_name(f"{self.path.name}.corrupt-{suffix}")
            if not target.exists():
                break
            suffix += 1
        warnings.warn(
            f"scan registry {self.path} is corrupt ({error}); moving it to "
            f"{target.name} and rebuilding an empty registry -- verdict "
            f"history up to this point is lost",
            stacklevel=4,
        )
        self.path.replace(target)
        for companion in (".wal", ".shm"):
            side = self.path.with_name(self.path.name + f"-{companion[1:]}")
            try:
                side.unlink()
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ScanRegistry":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    @property
    def schema_version(self) -> int:
        with self._lock:
            return int(
                self._conn.execute("PRAGMA user_version").fetchone()[0]
            )

    @property
    def journal_mode(self) -> str:
        with self._lock:
            return str(
                self._conn.execute("PRAGMA journal_mode").fetchone()[0]
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
        """Upsert one verdict; returns True when the row was new.

        A re-scan of known bytecode refreshes the latest-verdict row
        (keeping ``first_seen_at`` and bumping ``scan_count``) and appends
        to ``scan_history`` either way.  Two extra facts scope when a row
        may be *reused* by the scan path: ``explained`` records whether
        indicator notes were attached (see
        :class:`~repro.core.detector.ScamDetector` ``explain``), and
        ``model_identity`` is the weight-level fingerprint of the scoring
        model (:meth:`~repro.core.pipeline.ScamDetectPipeline.
        model_fingerprint`).  Lookups only trust rows recorded under the
        same identity and explain setting, so a retrained model or a
        notes-mode mismatch re-scans instead of serving stale verdicts.
        """
        return self.record_many(
            [(sha256, report, source_path)],
            fingerprint=fingerprint,
            explained=explained,
            model_identity=model_identity,
            scanned_at=scanned_at,
        )[0]

    @staticmethod
    def _is_busy(error: BaseException) -> bool:
        """True for SQLITE_BUSY/SQLITE_LOCKED; other operational errors
        (malformed statements, missing tables) must not be retried."""
        text = str(error).lower()
        return "locked" in text or "busy" in text

    def _write_txn(self, fn):
        """Run one write transaction under the busy-retry policy.

        The transaction body holds the instance lock, so retries re-enter
        it from scratch; the ``registry.write`` fault site lets tests and
        the E13 chaos campaign inject ``SQLITE_BUSY`` deterministically.
        """

        def attempt():
            fault_point("registry.write")
            return fn()

        def count_retry(attempt_number, error, delay) -> None:
            self.busy_retries += 1

        # obs site registry.write: spans the whole retried transaction, so
        # busy-retry backoff shows up as write latency in traces
        with trace("registry.write"):
            return self.write_retry.call(
                attempt,
                retry_on=(sqlite3.OperationalError,),
                should_retry=self._is_busy,
                on_retry=count_retry,
            )

    def record_many(
        self,
        entries: Sequence[Tuple[str, VerdictReport, Optional[str]]],
        fingerprint: Optional[str] = None,
        explained: bool = False,
        model_identity: str = "",
        scanned_at: Optional[float] = None,
    ) -> List[bool]:
        """Upsert many ``(sha256, report, source_path)`` rows in one
        transaction; returns per-entry "was new" flags."""
        fingerprint = self._scope(fingerprint)
        now = time.time() if scanned_at is None else scanned_at
        return self._write_txn(
            lambda: self._record_many_txn(
                entries, fingerprint, explained, model_identity, now
            )
        )

    def _record_many_txn(
        self,
        entries: Sequence[Tuple[str, VerdictReport, Optional[str]]],
        fingerprint: str,
        explained: bool,
        model_identity: str,
        now: float,
    ) -> List[bool]:
        fresh: List[bool] = []
        with self._lock, self._conn:
            for sha256, report, source_path in entries:
                existing = self._conn.execute(
                    "SELECT scan_count FROM verdicts "
                    "WHERE sha256 = ? AND fingerprint = ?",
                    (sha256, fingerprint),
                ).fetchone()
                fresh.append(existing is None)
                self._conn.execute(
                    "INSERT INTO verdicts ("
                    "sha256, fingerprint, sample_id, source_path, platform,"
                    " label, malicious_probability, cfg_blocks, cfg_edges,"
                    " num_instructions, model, model_identity, notes,"
                    " explained, first_seen_at, last_scanned_at, scan_count,"
                    " tags, stage) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?,"
                    " ?, 1, '[]', ?) "
                    "ON CONFLICT(sha256, fingerprint) DO UPDATE SET "
                    "sample_id = excluded.sample_id, "
                    "source_path = excluded.source_path, "
                    "platform = excluded.platform, "
                    "label = excluded.label, "
                    "malicious_probability = excluded.malicious_probability,"
                    " cfg_blocks = excluded.cfg_blocks, "
                    "cfg_edges = excluded.cfg_edges, "
                    "num_instructions = excluded.num_instructions, "
                    "model = excluded.model, "
                    "model_identity = excluded.model_identity, "
                    "notes = excluded.notes, "
                    "explained = excluded.explained, "
                    "last_scanned_at = excluded.last_scanned_at, "
                    "scan_count = verdicts.scan_count + 1, "
                    "stage = excluded.stage",
                    (
                        sha256,
                        fingerprint,
                        report.sample_id,
                        source_path,
                        report.platform,
                        report.label,
                        report.malicious_probability,
                        report.cfg_blocks,
                        report.cfg_edges,
                        report.num_instructions,
                        report.model,
                        model_identity,
                        json.dumps(report.notes),
                        int(explained),
                        now,
                        now,
                        report.stage,
                    ),
                )
                self._conn.execute(
                    "INSERT INTO scan_history (sha256, fingerprint, label,"
                    " malicious_probability, model, scanned_at) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        sha256,
                        fingerprint,
                        report.label,
                        report.malicious_probability,
                        report.model,
                        now,
                    ),
                )
        return fresh

    def add_tags(
        self,
        sha256: str,
        tags: Iterable[str],
        fingerprint: Optional[str] = None,
    ) -> List[str]:
        """Merge ``tags`` into the row's tag set; returns the merged list."""
        fingerprint = self._scope(fingerprint)

        def txn() -> List[str]:
            with self._lock, self._conn:
                row = self._conn.execute(
                    "SELECT tags FROM verdicts "
                    "WHERE sha256 = ? AND fingerprint = ?",
                    (sha256, fingerprint),
                ).fetchone()
                if row is None:
                    raise RegistryError(
                        f"cannot tag unknown verdict {sha256[:12]} "
                        f"(fingerprint {fingerprint!r})"
                    )
                merged = sorted(set(json.loads(row["tags"])) | set(tags))
                self._conn.execute(
                    "UPDATE verdicts SET tags = ? "
                    "WHERE sha256 = ? AND fingerprint = ?",
                    (json.dumps(merged), sha256, fingerprint),
                )
            return merged

        return self._write_txn(txn)

    def add_tags_many(
        self,
        entries: Sequence[Tuple[str, Iterable[str]]],
        fingerprint: Optional[str] = None,
        missing_ok: bool = False,
    ) -> Dict[str, List[str]]:
        """Bulk :meth:`add_tags`: merge many ``(sha256, tags)`` pairs in one
        write transaction (the retro-triage bulk-action path).

        Returns ``{sha256: merged tag list}`` for the rows that exist.  A
        sha256 the registry does not know raises :class:`RegistryError`
        unless ``missing_ok`` (a concurrent ``purge_stale`` between a triage
        SELECT and its tag batch must not kill the whole run).
        """
        fingerprint = self._scope(fingerprint)

        def txn() -> Dict[str, List[str]]:
            merged: Dict[str, List[str]] = {}
            with self._lock, self._conn:
                for sha256, tags in entries:
                    row = self._conn.execute(
                        "SELECT tags FROM verdicts "
                        "WHERE sha256 = ? AND fingerprint = ?",
                        (sha256, fingerprint),
                    ).fetchone()
                    if row is None:
                        if missing_ok:
                            continue
                        raise RegistryError(
                            f"cannot tag unknown verdict {sha256[:12]} "
                            f"(fingerprint {fingerprint!r})"
                        )
                    combined = sorted(
                        set(json.loads(row["tags"])) | set(tags)
                    )
                    self._conn.execute(
                        "UPDATE verdicts SET tags = ? "
                        "WHERE sha256 = ? AND fingerprint = ?",
                        (json.dumps(combined), sha256, fingerprint),
                    )
                    merged[sha256] = combined
            return merged

        return self._write_txn(txn)

    # ------------------------------------------------------------------ #
    # lookups

    def get(
        self, sha256: str, fingerprint: Optional[str] = None
    ) -> Optional[VerdictRow]:
        """Point lookup of the latest verdict for one content hash."""
        fingerprint = self._scope(fingerprint)
        with self._lock:
            row = self._conn.execute(
                f"SELECT {_VERDICT_COLUMNS} FROM verdicts "
                f"WHERE sha256 = ? AND fingerprint = ?",
                (sha256, fingerprint),
            ).fetchone()
        return None if row is None else VerdictRow._from_sql(row)

    def get_many(
        self, sha256s: Sequence[str], fingerprint: Optional[str] = None
    ) -> Dict[str, VerdictRow]:
        """Bulk point lookup; returns ``{sha256: row}`` for the known ones.

        This is the hot call on the batch-scan path (one query per chunk of
        1000 hashes instead of one per contract).
        """
        fingerprint = self._scope(fingerprint)
        found: Dict[str, VerdictRow] = {}
        unique = list(dict.fromkeys(sha256s))
        with self._lock:
            for start in range(0, len(unique), 1000):
                chunk = unique[start:start + 1000]
                marks = ",".join("?" for _ in chunk)
                for row in self._conn.execute(
                    f"SELECT {_VERDICT_COLUMNS} FROM verdicts "
                    f"WHERE fingerprint = ? AND sha256 IN ({marks})",
                    [fingerprint, *chunk],
                ):
                    found[row["sha256"]] = VerdictRow._from_sql(row)
        return found

    def query(
        self,
        verdict: Optional[str] = None,
        min_score: Optional[float] = None,
        max_score: Optional[float] = None,
        platform: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        path_glob: Optional[str] = None,
        tag: Optional[str] = None,
        sha256_prefix: Optional[str] = None,
        fingerprint: Optional[str] = None,
        all_fingerprints: bool = False,
        limit: Optional[int] = None,
    ) -> List[VerdictRow]:
        """Filtered scan over the latest-verdict rows.

        Args:
            verdict: ``"malicious"`` / ``"benign"`` (or a raw label name).
            min_score: Inclusive lower bound on the malicious probability.
            max_score: Inclusive upper bound.
            platform: ``"evm"`` or ``"wasm"``.
            since: Inclusive lower bound on ``last_scanned_at`` (epoch
                seconds).
            until: Inclusive upper bound on ``last_scanned_at``.
            path_glob: Shell glob matched against ``source_path`` (falls
                back to ``sample_id`` for rows recorded without a path);
                the same :mod:`fnmatch` dialect as a rule's ``path_glob``.
            tag: Only rows carrying this triage tag.
            sha256_prefix: Only rows whose content hash starts with this
                hex prefix.
            fingerprint: Explicit fingerprint scope (default: the
                registry's own).
            all_fingerprints: Ignore fingerprint scoping entirely.
            limit: Cap on returned rows (newest first).

        The filters are :func:`filter_clauses`, the translation triage
        rules compile through.  Every filter -- including ``tag`` and
        ``sha256_prefix`` -- runs inside the SQL WHERE clause *before*
        ``LIMIT``, so a capped query can never silently drop matching rows
        older than the newest N.  Rows come back ordered by
        ``last_scanned_at`` descending, then sha256 for a stable tiebreak.
        """
        clauses, params = self._filter_clauses(
            verdict=verdict,
            min_score=min_score,
            max_score=max_score,
            platform=platform,
            since=since,
            until=until,
            path_glob=path_glob,
            tag=tag,
            sha256_prefix=sha256_prefix,
            fingerprint=fingerprint,
            all_fingerprints=all_fingerprints,
        )
        if limit is not None and limit < 1:
            raise RegistryError("query limit must be >= 1")
        return self._listing(clauses, params, limit)

    def query_page(
        self,
        cursor: Optional[str] = None,
        page_size: int = 100,
        **filters,
    ) -> Tuple[List[VerdictRow], Optional[str]]:
        """Keyset-paginated :meth:`query`: returns ``(rows, next_cursor)``.

        Ordering is the listing order (``last_scanned_at DESC, sha256``)
        and the page boundary is a keyset predicate over that sort key, so
        pagination stays stable under concurrent writers: a row inserted or
        re-scanned mid-pagination can move *itself* across the boundary,
        but can never shift, duplicate, or hide any other row -- the
        failure mode OFFSET pagination has on a live fleet.

        ``next_cursor`` is ``None`` on the final page; any ``cursor`` not
        produced by :func:`encode_cursor` raises :class:`RegistryError`.
        """
        if page_size < 1:
            raise RegistryError("page_size must be >= 1")
        clauses, params = self._filter_clauses(**filters)
        if cursor is not None:
            after_scanned_at, after_sha256 = decode_cursor(cursor)
            clauses.append(
                "(last_scanned_at < ? OR "
                "(last_scanned_at = ? AND sha256 > ?))"
            )
            params.extend([after_scanned_at, after_scanned_at, after_sha256])
        # fetch one row beyond the page: its existence is the "there is a
        # next page" signal, without a second COUNT query
        rows = self._listing(clauses, params, int(page_size) + 1)
        next_cursor: Optional[str] = None
        if len(rows) > page_size:
            rows = rows[:page_size]
            next_cursor = encode_cursor(
                rows[-1].last_scanned_at, rows[-1].sha256
            )
        return rows, next_cursor

    def _listing(
        self, clauses: List[str], params: List[object], limit: Optional[int]
    ) -> List[VerdictRow]:
        """Rows matching every clause in listing order
        (``last_scanned_at DESC, sha256``), at most ``limit`` of them."""
        sql = f"SELECT {_VERDICT_COLUMNS} FROM verdicts"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY last_scanned_at DESC, sha256"
        if limit is not None:
            sql += " LIMIT ?"
            params = [*params, int(limit)]
        with self._lock:
            return [
                VerdictRow._from_sql(row)
                for row in self._conn.execute(sql, params)
            ]

    def _filter_clauses(
        self,
        fingerprint: Optional[str] = None,
        all_fingerprints: bool = False,
        **matchers,
    ) -> Tuple[List[str], List[object]]:
        """The WHERE builder behind :meth:`query` / :meth:`query_page`: the
        fingerprint scope, then :func:`filter_clauses`."""
        clauses, params = filter_clauses(**matchers)
        if not all_fingerprints:
            clauses.insert(0, "fingerprint = ?")
            params.insert(0, self._scope(fingerprint))
        return clauses, params

    def select_where(
        self,
        where: str,
        params: Sequence[object],
        after_sha256: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[VerdictRow]:
        """Run a compiled WHERE clause (see :mod:`repro.registry.compile`)
        in keyset batches ordered by sha256.

        ``after_sha256`` resumes past the last row of the previous batch --
        the retro-triage scan order is the primary key itself, so batch
        boundaries cost an index seek, not an OFFSET walk.
        """
        sql = f"SELECT {_VERDICT_COLUMNS} FROM verdicts WHERE ({where})"
        bound = list(params)
        if after_sha256 is not None:
            sql += " AND sha256 > ?"
            bound.append(after_sha256)
        sql += " ORDER BY sha256"
        if limit is not None:
            sql += " LIMIT ?"
            bound.append(int(limit))
        with self._lock:
            return [
                VerdictRow._from_sql(row)
                for row in self._conn.execute(sql, bound)
            ]

    def explain_where(self, where: str, params: Sequence[object]) -> List[str]:
        """EXPLAIN QUERY PLAN detail lines for a compiled WHERE clause.

        The compiler's index check asserts none of these is a full-table
        ``SCAN verdicts`` -- every compiled matcher must reach the rows
        through the primary key or one of the ``verdicts_*`` indexes.
        """
        sql = (
            f"EXPLAIN QUERY PLAN SELECT {_VERDICT_COLUMNS} FROM verdicts "
            f"WHERE ({where}) ORDER BY sha256"
        )
        with self._lock:
            return [str(row["detail"]) for row in self._conn.execute(sql, params)]

    def history(
        self, sha256: str, fingerprint: Optional[str] = None
    ) -> List[Dict[str, object]]:
        """Every recorded scan of one contract, oldest first."""
        fingerprint = self._scope(fingerprint)
        with self._lock:
            return [
                {
                    "label": int(row["label"]),
                    "malicious_probability": float(
                        row["malicious_probability"]
                    ),
                    "model": row["model"],
                    "scanned_at": float(row["scanned_at"]),
                }
                for row in self._conn.execute(
                    "SELECT label, malicious_probability, model, scanned_at"
                    " FROM scan_history "
                    "WHERE sha256 = ? AND fingerprint = ? ORDER BY id",
                    (sha256, fingerprint),
                )
            ]

    def counts(self, fingerprint: Optional[str] = None) -> Dict[str, int]:
        """Row counts for health/metrics: total, malicious, benign, files."""
        fingerprint = self._scope(fingerprint)
        with self._lock:
            total, malicious = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(label), 0) FROM verdicts "
                "WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
            files = self._conn.execute(
                "SELECT COUNT(*) FROM watched_files "
                "WHERE fingerprint = ? AND deleted_at IS NULL",
                (fingerprint,),
            ).fetchone()[0]
        return {
            "verdicts": int(total),
            "malicious": int(malicious),
            "benign": int(total) - int(malicious),
            "watched_files": int(files),
        }

    def fingerprints(self) -> List[str]:
        """Every fingerprint holding at least one verdict row."""
        with self._lock:
            return [
                row[0]
                for row in self._conn.execute(
                    "SELECT DISTINCT fingerprint FROM verdicts "
                    "ORDER BY fingerprint"
                )
            ]

    def purge_stale(self, keep_fingerprint: Optional[str] = None) -> int:
        """Delete rows of every fingerprint except ``keep_fingerprint``.

        A fingerprint change never *overwrites* old rows (they are invisible
        to the new scope by keying alone); this reclaims their space once
        the old config is truly retired.  Returns deleted verdict rows.
        """
        keep = self._scope(keep_fingerprint)

        def txn() -> int:
            with self._lock, self._conn:
                removed = self._conn.execute(
                    "DELETE FROM verdicts WHERE fingerprint != ?", (keep,)
                ).rowcount
                self._conn.execute(
                    "DELETE FROM scan_history WHERE fingerprint != ?",
                    (keep,),
                )
                self._conn.execute(
                    "DELETE FROM watched_files WHERE fingerprint != ?",
                    (keep,),
                )
            return int(removed)

        return self._write_txn(txn)

    # ------------------------------------------------------------------ #
    # triage-run progress (used by repro.registry.triage)

    def find_triage_run(
        self,
        rules_digest: str,
        fingerprint: Optional[str] = None,
        dry_run: bool = False,
    ) -> Optional[TriageRun]:
        """The unfinished run for this exact (rules file, scope, mode), if
        one exists -- the resume point `scamdetect triage` picks up."""
        fingerprint = self._scope(fingerprint)
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM triage_runs "
                "WHERE rules_digest = ? AND fingerprint = ? AND dry_run = ?"
                " AND finished_at IS NULL ORDER BY id DESC LIMIT 1",
                (rules_digest, fingerprint, int(dry_run)),
            ).fetchone()
        return None if row is None else TriageRun._from_sql(row)

    def start_triage_run(
        self,
        rules_digest: str,
        fingerprint: Optional[str] = None,
        dry_run: bool = False,
        started_at: Optional[float] = None,
    ) -> TriageRun:
        """Open a fresh progress row (rule 0, empty cursor)."""
        fingerprint = self._scope(fingerprint)
        now = time.time() if started_at is None else started_at

        def txn() -> TriageRun:
            with self._lock, self._conn:
                run_id = self._conn.execute(
                    "INSERT INTO triage_runs (rules_digest, fingerprint,"
                    " dry_run, started_at, updated_at) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (rules_digest, fingerprint, int(dry_run), now, now),
                ).lastrowid
            return TriageRun(
                id=int(run_id),
                rules_digest=rules_digest,
                fingerprint=fingerprint,
                dry_run=dry_run,
                rule_index=0,
                cursor_sha256="",
                rows_scanned=0,
                rows_matched=0,
                started_at=now,
                updated_at=now,
                finished_at=None,
            )

        return self._write_txn(txn)

    def advance_triage_run(
        self,
        run_id: int,
        rule_index: int,
        cursor_sha256: str,
        rows_scanned: int,
        rows_matched: int,
        updated_at: Optional[float] = None,
    ) -> None:
        """Persist one batch boundary: position plus cumulative counters.

        This commits *after* the batch's actions were applied, so a killed
        triage resumes from the last durable boundary -- re-applying at
        most one batch of idempotent tag merges, never skipping rows.
        """
        now = time.time() if updated_at is None else updated_at

        def txn() -> None:
            with self._lock, self._conn:
                self._conn.execute(
                    "UPDATE triage_runs SET rule_index = ?,"
                    " cursor_sha256 = ?, rows_scanned = ?,"
                    " rows_matched = ?, updated_at = ? WHERE id = ?",
                    (
                        int(rule_index),
                        cursor_sha256,
                        int(rows_scanned),
                        int(rows_matched),
                        now,
                        int(run_id),
                    ),
                )

        self._write_txn(txn)

    def finish_triage_run(
        self, run_id: int, finished_at: Optional[float] = None
    ) -> None:
        """Mark a run complete; a later triage of the same rules starts
        over instead of resuming."""
        now = time.time() if finished_at is None else finished_at

        def txn() -> None:
            with self._lock, self._conn:
                self._conn.execute(
                    "UPDATE triage_runs SET finished_at = ?,"
                    " updated_at = ? WHERE id = ?",
                    (now, now, int(run_id)),
                )

        self._write_txn(txn)

    # ------------------------------------------------------------------ #
    # watched-files index (used by repro.registry.watch)

    def watched_files(
        self, fingerprint: Optional[str] = None, include_deleted: bool = False
    ) -> Dict[str, WatchedFile]:
        """The ingest tier's file index as ``{path: WatchedFile}``."""
        fingerprint = self._scope(fingerprint)
        sql = (
            "SELECT path, fingerprint, sha256, size, mtime_ns,"
            " first_seen_at, last_seen_at, deleted_at "
            "FROM watched_files WHERE fingerprint = ?"
        )
        if not include_deleted:
            sql += " AND deleted_at IS NULL"
        with self._lock:
            return {
                row["path"]: WatchedFile(
                    path=row["path"],
                    fingerprint=row["fingerprint"],
                    sha256=row["sha256"],
                    size=int(row["size"]),
                    mtime_ns=int(row["mtime_ns"]),
                    first_seen_at=float(row["first_seen_at"]),
                    last_seen_at=float(row["last_seen_at"]),
                    deleted_at=(
                        None
                        if row["deleted_at"] is None
                        else float(row["deleted_at"])
                    ),
                )
                for row in self._conn.execute(sql, (fingerprint,))
            }

    def upsert_watched_files(
        self,
        entries: Sequence[Tuple[str, str, int, int]],
        fingerprint: Optional[str] = None,
        seen_at: Optional[float] = None,
    ) -> None:
        """Record ``(path, sha256, size, mtime_ns)`` sightings in one
        transaction (un-deleting paths that reappeared)."""
        fingerprint = self._scope(fingerprint)
        now = time.time() if seen_at is None else seen_at

        def txn() -> None:
            with self._lock, self._conn:
                self._conn.executemany(
                    "INSERT INTO watched_files (path, fingerprint, sha256,"
                    " size, mtime_ns, first_seen_at, last_seen_at,"
                    " deleted_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, NULL) "
                    "ON CONFLICT(path, fingerprint) DO UPDATE SET "
                    "sha256 = excluded.sha256, size = excluded.size, "
                    "mtime_ns = excluded.mtime_ns, "
                    "last_seen_at = excluded.last_seen_at, "
                    "deleted_at = NULL",
                    [
                        (path, fingerprint, sha256, size, mtime_ns, now, now)
                        for path, sha256, size, mtime_ns in entries
                    ],
                )

        self._write_txn(txn)

    def mark_deleted(
        self,
        paths: Sequence[str],
        fingerprint: Optional[str] = None,
        deleted_at: Optional[float] = None,
    ) -> None:
        """Flag watched paths that vanished from the corpus.

        Their verdict rows stay (the bytecode may reappear elsewhere); only
        the file index records the deletion.
        """
        if not paths:
            return
        fingerprint = self._scope(fingerprint)
        now = time.time() if deleted_at is None else deleted_at

        def txn() -> None:
            with self._lock, self._conn:
                self._conn.executemany(
                    "UPDATE watched_files SET deleted_at = ? "
                    "WHERE path = ? AND fingerprint = ?",
                    [(now, path, fingerprint) for path in paths],
                )

        self._write_txn(txn)

    # ------------------------------------------------------------------ #

    def _scope(self, fingerprint: Optional[str]) -> str:
        scope = self.fingerprint if fingerprint is None else fingerprint
        if not scope:
            raise RegistryError(
                "this operation needs a graph fingerprint scope; construct "
                "the registry with ScanRegistry.for_config(...) or pass "
                "fingerprint=..."
            )
        return scope

    def __repr__(self) -> str:
        return (
            f"ScanRegistry(path={str(self.path)!r}, "
            f"fingerprint={self.fingerprint!r}, "
            f"schema=v{self.schema_version})"
        )

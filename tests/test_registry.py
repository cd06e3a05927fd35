"""Tests for the persistent verdict registry (store layer).

Covers the durability contracts the continuous-scanning stack leans on:
WAL-mode concurrency (including two *processes* upserting the same row),
schema versioning with a v1 -> v2 migration round-trip, corrupted-database
recovery to a warned rebuild, upsert-on-rescan history, and the query API.
"""

from __future__ import annotations

import json
import multiprocessing
import sqlite3

import pytest

from repro.core.report import VerdictReport
from repro.registry import RegistryError, ScanRegistry, content_sha256
from repro.registry.store import _MIGRATIONS, SCHEMA_VERSION

FP = "fp-test-0001"
OTHER_FP = "fp-other-9999"


def make_report(sample_id="contract-0", platform="evm", label=0,
                probability=0.25, notes=None):
    return VerdictReport(
        sample_id=sample_id, platform=platform, label=label,
        malicious_probability=probability, cfg_blocks=3, cfg_edges=4,
        num_instructions=40, model="scamdetect-test",
        notes=list(notes or []))


@pytest.fixture()
def registry(tmp_path):
    with ScanRegistry(tmp_path / "verdicts.db", fingerprint=FP) as reg:
        yield reg


# --------------------------------------------------------------------------- #
# basics


def test_registry_opens_wal_mode_at_current_schema(registry):
    assert registry.journal_mode == "wal"
    assert registry.schema_version == SCHEMA_VERSION


def test_record_and_get_roundtrip_exact(registry):
    report = make_report(probability=0.123456789012345,
                         notes=["indicator: DELEGATECALL"])
    sha = content_sha256(b"\x60\x60")
    assert registry.record(sha, report, source_path="feed/a.bin") is True
    row = registry.get(sha)
    assert row is not None
    assert row.source_path == "feed/a.bin"
    assert row.scan_count == 1
    # the stored report reconstructs byte-identically (REAL is an 8-byte
    # IEEE double, so the probability round-trips exactly)
    assert row.to_report().to_dict() == report.to_dict()
    # a rebind serves another path with identical bytecode
    assert row.to_report(sample_id="feed/b.bin").sample_id == "feed/b.bin"


def test_get_unknown_and_other_fingerprint_miss(registry):
    sha = content_sha256(b"\x01")
    registry.record(sha, make_report())
    assert registry.get("0" * 64) is None
    assert registry.get(sha, fingerprint=OTHER_FP) is None


def test_upsert_on_rescan_keeps_history(registry):
    sha = content_sha256(b"\x02")
    assert registry.record(sha, make_report(probability=0.2),
                           scanned_at=100.0) is True
    assert registry.record(sha, make_report(probability=0.9, label=1),
                           scanned_at=200.0) is False
    row = registry.get(sha)
    assert row.scan_count == 2
    assert row.malicious_probability == 0.9
    assert row.first_seen_at == 100.0
    assert row.last_scanned_at == 200.0
    history = registry.history(sha)
    assert [entry["malicious_probability"] for entry in history] == [0.2, 0.9]
    assert [entry["scanned_at"] for entry in history] == [100.0, 200.0]


def test_record_many_single_transaction(registry):
    entries = [(content_sha256(bytes([i])), make_report(f"c-{i}"), f"p/{i}")
               for i in range(10)]
    fresh = registry.record_many(entries)
    assert fresh == [True] * 10
    assert registry.counts()["verdicts"] == 10
    found = registry.get_many([sha for sha, _, _ in entries])
    assert len(found) == 10


def test_add_tags_merges_and_requires_known_row(registry):
    sha = content_sha256(b"\x03")
    registry.record(sha, make_report())
    assert registry.add_tags(sha, ["hot", "review"]) == ["hot", "review"]
    assert registry.add_tags(sha, ["hot", "alpha"]) == \
        ["alpha", "hot", "review"]
    assert registry.get(sha).tags == ["alpha", "hot", "review"]
    with pytest.raises(RegistryError):
        registry.add_tags("f" * 64, ["x"])


def test_scope_required_for_unscoped_registry(tmp_path):
    with ScanRegistry(tmp_path / "v.db") as reg:
        with pytest.raises(RegistryError):
            reg.record(content_sha256(b"\x04"), make_report())
        # explicit fingerprint always works
        reg.record(content_sha256(b"\x04"), make_report(), fingerprint=FP)
        assert reg.get(content_sha256(b"\x04"), fingerprint=FP) is not None


# --------------------------------------------------------------------------- #
# query API


@pytest.fixture()
def populated(registry):
    rows = [
        ("a", "evm", 0, 0.10, "inbox/a.bin", 100.0),
        ("b", "evm", 1, 0.80, "inbox/b.bin", 200.0),
        ("c", "wasm", 1, 0.95, "archive/c.wasm", 300.0),
        ("d", "evm", 0, 0.40, "archive/d.bin", 400.0),
    ]
    for name, platform, label, probability, path, when in rows:
        registry.record(content_sha256(name.encode()),
                        make_report(name, platform, label, probability),
                        source_path=path, scanned_at=when)
    return registry


def test_query_by_verdict(populated):
    assert {row.sample_id for row in populated.query(verdict="malicious")} \
        == {"b", "c"}
    assert {row.sample_id for row in populated.query(verdict="benign")} \
        == {"a", "d"}
    with pytest.raises(RegistryError):
        populated.query(verdict="suspicious")


def test_query_by_score_range(populated):
    assert {row.sample_id
            for row in populated.query(min_score=0.4, max_score=0.9)} \
        == {"b", "d"}


def test_query_by_platform_and_time_window(populated):
    assert {row.sample_id for row in populated.query(platform="wasm")} \
        == {"c"}
    assert {row.sample_id
            for row in populated.query(since=150.0, until=350.0)} \
        == {"b", "c"}


def test_query_by_path_glob(populated):
    assert {row.sample_id for row in populated.query(path_glob="inbox/*")} \
        == {"a", "b"}
    assert {row.sample_id for row in populated.query(path_glob="*.wasm")} \
        == {"c"}


def test_query_order_and_limit(populated):
    rows = populated.query(limit=2)
    # newest first
    assert [row.sample_id for row in rows] == ["d", "c"]
    with pytest.raises(RegistryError):
        populated.query(limit=0)


def test_query_by_tag(populated):
    sha = content_sha256(b"b")
    populated.add_tags(sha, ["hot"])
    assert [row.sample_id for row in populated.query(tag="hot")] == ["b"]
    assert populated.query(tag="cold") == []
    # tag matching is exact, not substring: "hot" must not match "hotter"
    populated.add_tags(content_sha256(b"a"), ["hotter"])
    assert [row.sample_id for row in populated.query(tag="hot")] == ["b"]


def test_query_tag_filter_applies_before_limit(registry):
    # 30 rows; only the OLDEST one is tagged.  A limited query must still
    # find it (the filter runs in SQL before LIMIT, not on the first page).
    for index in range(30):
        registry.record(content_sha256(bytes([index])),
                        make_report(f"c-{index}"),
                        scanned_at=float(index))
    registry.add_tags(content_sha256(bytes([0])), ["needle"])
    rows = registry.query(tag="needle", limit=5)
    assert [row.sample_id for row in rows] == ["c-0"]


def test_query_by_sha256_prefix_before_limit(registry):
    for index in range(30):
        registry.record(content_sha256(bytes([index])),
                        make_report(f"c-{index}"),
                        scanned_at=float(index))
    oldest = content_sha256(bytes([0]))
    rows = registry.query(sha256_prefix=oldest[:10], limit=5)
    assert [row.sha256 for row in rows] == [oldest]
    # prefixes are validated hex: a LIKE wildcard is an error, not a match
    with pytest.raises(RegistryError, match="must be hex"):
        registry.query(sha256_prefix="ab%")


# --------------------------------------------------------------------------- #
# fingerprint scoping


def test_fingerprint_change_invalidates_only_stale_rows(registry):
    sha = content_sha256(b"\x05")
    registry.record(sha, make_report(probability=0.3))
    # the same bytecode under a different lowering config is a distinct row
    registry.record(sha, make_report(probability=0.7),
                    fingerprint=OTHER_FP)
    assert registry.get(sha).malicious_probability == 0.3
    assert registry.get(sha, fingerprint=OTHER_FP) \
        .malicious_probability == 0.7
    assert len(registry.query(all_fingerprints=True)) == 2
    assert registry.fingerprints() == sorted([FP, OTHER_FP])
    # purging stale fingerprints keeps the current one untouched
    assert registry.purge_stale() == 1
    assert registry.get(sha).malicious_probability == 0.3
    assert registry.get(sha, fingerprint=OTHER_FP) is None


# --------------------------------------------------------------------------- #
# schema versioning + migrations


def _build_v1_registry(path):
    """Create a registry the way the v1 code would have left it on disk."""
    conn = sqlite3.connect(path)
    with conn:
        conn.executescript(_MIGRATIONS[1])
        conn.execute("PRAGMA user_version = 1")
        conn.execute(
            "INSERT INTO verdicts (sha256, fingerprint, sample_id,"
            " source_path, platform, label, malicious_probability,"
            " cfg_blocks, cfg_edges, num_instructions, model,"
            " model_identity, notes, explained, first_seen_at,"
            " last_scanned_at, scan_count) "
            "VALUES (?, ?, 'old', 'old.bin', 'evm', 1, 0.77, 2, 2, 10,"
            " 'scamdetect-test', 'id-v1', '[\"note\"]', 0, 50.0, 60.0, 3)",
            ("ab" * 32, FP))
        conn.execute(
            "INSERT INTO watched_files (path, fingerprint, sha256, size,"
            " mtime_ns, first_seen_at, last_seen_at) "
            "VALUES ('old.bin', ?, ?, 10, 123, 50.0, 60.0)",
            (FP, "ab" * 32))
    conn.close()


def test_v1_to_v2_migration_roundtrip(tmp_path):
    path = tmp_path / "old.db"
    _build_v1_registry(path)
    with ScanRegistry(path, fingerprint=FP) as registry:
        assert registry.schema_version == SCHEMA_VERSION
        # v1 rows survive the migration verbatim, with v2 defaults applied
        row = registry.get("ab" * 32)
        assert row.malicious_probability == 0.77
        assert row.scan_count == 3
        assert row.tags == []
        assert registry.watched_files()["old.bin"].sha256 == "ab" * 32
        # v2 features work on the migrated database
        registry.add_tags("ab" * 32, ["legacy"])
        registry.record("ab" * 32, make_report(probability=0.9),
                        scanned_at=70.0)
        assert registry.get("ab" * 32).scan_count == 4
        assert len(registry.history("ab" * 32)) == 1  # history is v2-only
    # and the upgrade is persistent
    with ScanRegistry(path, fingerprint=FP) as registry:
        assert registry.schema_version == SCHEMA_VERSION
        assert registry.get("ab" * 32).tags == ["legacy"]


def test_future_schema_version_refuses(tmp_path):
    path = tmp_path / "future.db"
    conn = sqlite3.connect(path)
    conn.execute("PRAGMA user_version = 99")
    conn.close()
    with pytest.raises(RegistryError, match="newer than this build"):
        ScanRegistry(path, fingerprint=FP)


# --------------------------------------------------------------------------- #
# corruption recovery


def test_corrupt_database_rebuilds_with_warning(tmp_path):
    path = tmp_path / "verdicts.db"
    path.write_bytes(b"this is definitely not a sqlite database" * 100)
    with pytest.warns(UserWarning, match="corrupt"):
        registry = ScanRegistry(path, fingerprint=FP)
    try:
        # the damaged file was quarantined, a fresh registry works
        quarantined = list(tmp_path.glob("verdicts.db.corrupt-*"))
        assert len(quarantined) == 1
        assert b"not a sqlite" in quarantined[0].read_bytes()
        sha = content_sha256(b"\x06")
        registry.record(sha, make_report())
        assert registry.get(sha) is not None
        assert registry.schema_version == SCHEMA_VERSION
    finally:
        registry.close()


def test_corrupt_quarantine_names_do_not_collide(tmp_path):
    path = tmp_path / "verdicts.db"
    for expected in ("corrupt-0", "corrupt-1"):
        path.write_bytes(b"garbage" * 1000)
        with pytest.warns(UserWarning, match="corrupt"):
            ScanRegistry(path, fingerprint=FP).close()
        assert (tmp_path / f"verdicts.db.{expected}").exists()
        path.unlink()  # fresh rebuild next round


# --------------------------------------------------------------------------- #
# cross-process concurrency under WAL


def _hammer_upserts(path, sha, worker, rounds):
    with ScanRegistry(path, fingerprint=FP) as registry:
        for index in range(rounds):
            registry.record(
                sha,
                make_report(f"w{worker}-r{index}",
                            probability=(worker + 1) / 10),
                source_path=f"worker-{worker}.bin",
                scanned_at=float(index))


def test_two_processes_upsert_same_sha_under_wal(tmp_path):
    path = tmp_path / "shared.db"
    sha = content_sha256(b"contended")
    # parent opens (and migrates) first, then two writers contend
    ScanRegistry(path, fingerprint=FP).close()
    rounds = 25
    workers = [
        multiprocessing.Process(target=_hammer_upserts,
                                args=(path, sha, worker, rounds))
        for worker in range(2)
    ]
    for process in workers:
        process.start()
    for process in workers:
        process.join(timeout=120)
        assert process.exitcode == 0, "writer crashed (locked database?)"
    with ScanRegistry(path, fingerprint=FP) as registry:
        row = registry.get(sha)
        # every upsert from both processes landed: no lost updates
        assert row.scan_count == 2 * rounds
        assert len(registry.history(sha)) == 2 * rounds
        assert registry.counts()["verdicts"] == 1


def test_concurrent_reader_during_writes(tmp_path):
    # WAL lets a reader hold its own connection open while a writer commits
    path = tmp_path / "rw.db"
    writer = ScanRegistry(path, fingerprint=FP)
    reader = ScanRegistry(path, fingerprint=FP)
    try:
        for index in range(20):
            writer.record(content_sha256(bytes([index])),
                          make_report(f"c-{index}"))
            assert len(reader.query(limit=None)) == index + 1
    finally:
        writer.close()
        reader.close()


# --------------------------------------------------------------------------- #
# watched-files index


def test_watched_files_upsert_delete_and_resurrect(registry):
    registry.upsert_watched_files([("a.bin", "ab" * 32, 10, 111)],
                                  seen_at=1.0)
    assert registry.watched_files()["a.bin"].mtime_ns == 111
    registry.mark_deleted(["a.bin"], deleted_at=2.0)
    assert registry.watched_files() == {}
    deleted = registry.watched_files(include_deleted=True)["a.bin"]
    assert deleted.deleted_at == 2.0
    # the path coming back un-deletes the row
    registry.upsert_watched_files([("a.bin", "cd" * 32, 12, 222)],
                                  seen_at=3.0)
    entry = registry.watched_files()["a.bin"]
    assert entry.deleted_at is None and entry.sha256 == "cd" * 32
    assert registry.counts()["watched_files"] == 1


def test_verdict_row_to_dict_shape(registry):
    sha = content_sha256(b"\x07")
    registry.record(sha, make_report(notes=["n1"]), source_path="x.bin")
    payload = registry.get(sha).to_dict()
    assert payload["sha256"] == sha
    assert payload["report"]["notes"] == ["n1"]
    json.dumps(payload)  # JSON-ready end to end

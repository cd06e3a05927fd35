"""Tests for the registry-v2 surface: rule-to-SQL compilation, keyset
pagination, retro-triage, and busy-retry hardening of concurrent writers.

The load-bearing contracts:

* every compiled rule selects exactly the rows the Python matcher
  (``TriageRule.matches_row``) accepts, in the same sha256 order, and its
  query plan is index-backed (no full-table scan);
* ``query_page`` walks the registry without skipping or duplicating rows,
  rejects foreign cursors, and stays stable under timestamp ties;
* ``RetroTriage`` is resumable, idempotent on tags, and its dry run
  previews exactly what a real run then applies.
"""

from __future__ import annotations

import multiprocessing
import random

import pytest

from repro.core.report import VerdictReport
from repro.registry import (
    CompileError,
    RegistryError,
    RetroTriage,
    ScanRegistry,
    TriageRule,
    check_index_backed,
    compile_rule,
    compile_rules,
    decode_cursor,
    encode_cursor,
    parse_rules,
)
from repro.registry.compile import verify_parity
from repro.registry.store import _glob_from_fnmatch, _sha256_range

FP = "fp-v2-0001"


def make_report(sample_id="c-0", platform="evm", label=0, probability=0.2,
                notes=None):
    return VerdictReport(
        sample_id=sample_id, platform=platform, label=label,
        malicious_probability=probability, cfg_blocks=3, cfg_edges=4,
        num_instructions=40, model="scamdetect-test",
        notes=list(notes or []))


def seed_registry(registry, rows=120, seed=7):
    """Deterministic mixed-population rows; returns the recorded shas."""
    rng = random.Random(seed)
    shas = []
    for index in range(rows):
        sha = f"{rng.randrange(16 ** 8):08x}" + f"{index:056d}"[-56:]
        malicious = rng.random() < 0.4
        notes = []
        if malicious and rng.random() < 0.5:
            notes.append("indicator: selfdestruct-drain fired")
        report = make_report(
            sample_id=f"c-{index}",
            platform="wasm" if rng.random() < 0.3 else "evm",
            label=int(malicious),
            probability=(rng.uniform(0.7, 1.0) if malicious
                         else rng.uniform(0.0, 0.5)),
            notes=notes)
        source = (f"inbox/{index}.bin" if rng.random() < 0.5
                  else f"archive/{index}.bin")
        identity = ("sha256:model-a" if rng.random() < 0.6
                    else "sha256:model-b")
        registry.record(sha, report, source_path=source,
                        model_identity=identity,
                        scanned_at=1000.0 + rng.randrange(0, 5000))
        shas.append(sha)
    # some tagged rows so the has_tag matcher has something to find
    for sha in shas[::10]:
        registry.add_tags(sha, ["seeded"])
    return shas


@pytest.fixture()
def registry(tmp_path):
    with ScanRegistry(tmp_path / "v2.db", fingerprint=FP) as reg:
        yield reg


# --------------------------------------------------------------------------- #
# rules v2: new matchers parse and match


def test_parse_rules_v2_matcher_keys():
    rules = parse_rules(
        '[[rules]]\n'
        'name = "v2"\n'
        '[rules.match]\n'
        'tag = "seeded"\n'
        'model_identity = "sha256:model-b"\n'
        'since = 1500\n'
        'until = "2026-01-01T00:00:00+00:00"\n'
        'sha256 = "0ab"\n'
        '[rules.actions]\n'
        'tag = ["hit"]\n')
    (rule,) = rules
    assert rule.has_tag == "seeded"
    assert rule.model_identity == "sha256:model-b"
    assert rule.since == 1500.0
    assert rule.until == 1767225600.0
    assert rule.sha256_prefix == "0ab"
    assert rule.tag == ("hit",)


def test_matches_row_covers_v2_matchers(registry):
    sha = "ab" + "0" * 62
    registry.record(sha, make_report(label=1, probability=0.95),
                    source_path="inbox/x.bin",
                    model_identity="sha256:model-b", scanned_at=2000.0)
    registry.add_tags(sha, ["seeded"])
    row = registry.get(sha)
    hit = TriageRule(name="hit", has_tag="seeded",
                     model_identity="sha256:model-b", since=1500.0,
                     until=2500.0, sha256_prefix="ab")
    assert hit.matches_row(row)
    for miss in (
        TriageRule(name="m1", has_tag="absent"),
        TriageRule(name="m2", model_identity="sha256:model-a"),
        TriageRule(name="m3", since=3000.0),
        TriageRule(name="m4", until=1500.0),
        TriageRule(name="m5", sha256_prefix="ff"),
    ):
        assert not miss.matches_row(row)


# --------------------------------------------------------------------------- #
# rule-to-SQL compiler: parity, plans, translation corners


PARITY_RULES = [
    TriageRule(name="hot", verdict="malicious", min_score=0.9),
    TriageRule(name="drain", platform="evm",
               indicators=("selfdestruct-drain",)),
    TriageRule(name="window", since=2000.0, until=4000.0),
    TriageRule(name="inbox-b", path_glob="inbox/*",
               model_identity="sha256:model-b"),
    TriageRule(name="tagged", has_tag="seeded"),
    TriageRule(name="prefix", sha256_prefix="0"),
    TriageRule(name="band", min_score=0.1, max_score=0.5,
               verdict="benign"),
]


def test_compiled_rules_agree_with_python_matcher(registry):
    seed_registry(registry)
    all_rows = registry.select_where("fingerprint = ?", (FP,))
    for rule in PARITY_RULES:
        compiled = compile_rule(rule, FP)
        selected = registry.select_where(compiled.where, compiled.params)
        expected = [row.sha256 for row in all_rows
                    if rule.matches_row(row)]
        assert [row.sha256 for row in selected] == expected, rule.name
        assert expected, f"rule {rule.name} matched nothing -- dead test"
        # and the documented one-directional cross-check agrees
        assert verify_parity(compiled, selected) == []


def test_compiled_plans_are_index_backed(registry):
    seed_registry(registry, rows=30)
    compiled = compile_rules(PARITY_RULES, FP)
    lines = check_index_backed(registry, compiled)
    assert lines  # EXPLAIN output surfaced for --explain
    assert all("SCAN verdicts" not in line or "INDEX" in line
               for line in lines)


def test_compile_requires_fingerprint_scope():
    with pytest.raises(CompileError):
        compile_rule(TriageRule(name="x", verdict="malicious"), "")


def test_glob_translation_negated_class(registry):
    assert _glob_from_fnmatch("data/[!ab]*") == "data/[^ab]*"
    assert _glob_from_fnmatch("a[x!y]b") == "a[x!y]b"  # literal mid-class
    registry.record("aa" + "0" * 62, make_report("keep"),
                    source_path="data/zed.bin")
    registry.record("bb" + "0" * 62, make_report("drop"),
                    source_path="data/abc.bin")
    rule = TriageRule(name="neg", path_glob="data/[!ab]*")
    compiled = compile_rule(rule, FP)
    selected = registry.select_where(compiled.where, compiled.params)
    assert [row.source_path for row in selected] == ["data/zed.bin"]
    assert all(rule.matches_row(row) for row in selected)


def test_query_and_rule_read_a_negated_path_glob_alike(registry):
    # one translation: `query --path-glob` and a rule's path_glob take the
    # same fnmatch glob, where [!a] is "any character but a"
    for name in ("a", "b"):
        registry.record(name * 64, make_report(name),
                        source_path=f"feed/{name}.bin")
    glob = "feed/[!a].bin"
    queried = [row.source_path for row in registry.query(path_glob=glob)]
    rows, _ = registry.query_page(path_glob=glob)
    rule = TriageRule(name="not-a", path_glob=glob)
    compiled = compile_rule(rule, FP)
    selected = registry.select_where(compiled.where, compiled.params)
    assert queried == [row.source_path for row in rows] == ["feed/b.bin"]
    assert [row.source_path for row in selected] == ["feed/b.bin"]
    assert [row.source_path for row in registry.query()
            if rule.matches_row(row)] == ["feed/b.bin"]


def test_sha256_prefix_half_open_range():
    assert _sha256_range("00") == ("00", "01")
    assert _sha256_range("ab") == ("ab", "ac")
    # trailing f's are stripped before the bump: "0f" -> high "1", which
    # bounds the same set as "10" over fixed-width lowercase hex
    assert _sha256_range("0f") == ("0f", "1")
    assert _sha256_range("ff") == ("ff", None)


def test_sha256_prefix_compiles_to_range_not_like(registry):
    compiled = compile_rule(TriageRule(name="p", sha256_prefix="ab"), FP)
    assert "LIKE" not in compiled.where
    assert "sha256 >= ?" in compiled.where and "sha256 < ?" in compiled.where
    registry.record("ab" + "f" * 62, make_report("in"))
    registry.record("ac" + "0" * 62, make_report("out"))
    selected = registry.select_where(compiled.where, compiled.params)
    assert [row.sha256[:2] for row in selected] == ["ab"]


# --------------------------------------------------------------------------- #
# keyset pagination


def test_query_page_walks_everything_in_listing_order(registry):
    seed_registry(registry, rows=25)
    listing = registry.query(limit=None)
    walked, cursor, pages = [], None, 0
    while True:
        rows, cursor = registry.query_page(cursor=cursor, page_size=10)
        walked.extend(rows)
        pages += 1
        if cursor is None:
            break
    assert pages == 3
    assert [row.sha256 for row in walked] == \
        [row.sha256 for row in listing]
    assert [row.to_dict() for row in walked] == \
        [row.to_dict() for row in listing]


def test_query_page_stable_under_timestamp_ties(registry):
    for index in range(12):
        registry.record(f"{index:064x}", make_report(f"c-{index}"),
                        scanned_at=777.0)
    walked, cursor = [], None
    while True:
        rows, cursor = registry.query_page(cursor=cursor, page_size=5)
        walked.extend(row.sha256 for row in rows)
        if cursor is None:
            break
    assert walked == sorted(walked)  # sha256 tiebreak, ascending
    assert len(walked) == len(set(walked)) == 12


def test_query_page_walks_mixed_platforms_in_pages_of_seven(registry):
    # 80 rows over three platforms with scan-time ties: the pages of a
    # 7-row walk concatenate to the full listing, row for row
    rng = random.Random(23)
    for index in range(80):
        registry.record(
            f"{rng.randrange(16 ** 12):012x}" + f"{index:052d}",
            make_report(sample_id=f"c-{index}",
                        platform=rng.choice(["evm", "wasm", "sol"]),
                        label=int(rng.random() < 0.4),
                        probability=rng.random()),
            source_path=f"feed/{index}.bin",
            scanned_at=1000.0 + rng.randrange(0, 40))
    listing = [row.to_dict() for row in registry.query(limit=None)]
    walked, cursor, pages = [], None, 0
    while True:
        rows, cursor = registry.query_page(cursor=cursor, page_size=7)
        assert len(rows) == (7 if cursor is not None else 80 % 7)
        walked.extend(row.to_dict() for row in rows)
        pages += 1
        if cursor is None:
            break
    assert pages == 12
    assert walked == listing


def test_query_page_rejects_foreign_cursor(registry):
    with pytest.raises(RegistryError, match="cursor"):
        registry.query_page(cursor="not-a-cursor")
    with pytest.raises(RegistryError, match="cursor"):
        registry.query_page(cursor="garbage")
    with pytest.raises(RegistryError):
        registry.query_page(page_size=0)


def test_query_page_applies_filters(registry):
    seed_registry(registry)
    rows, cursor = registry.query_page(page_size=500, verdict="malicious",
                                       platform="evm")
    assert cursor is None
    assert rows
    assert all(row.label == 1 and row.platform == "evm" for row in rows)


def test_cursor_roundtrip_is_bit_exact():
    stamp = 1700000000.123456789
    token = encode_cursor(stamp, "ab" * 32)
    assert decode_cursor(token) == (stamp, "ab" * 32)
    with pytest.raises(RegistryError):
        decode_cursor("@@@not-base64@@@")


# --------------------------------------------------------------------------- #
# retro-triage


TRIAGE_TEXT = "hot+drain v1"
TRIAGE_RULES = [
    TriageRule(name="hot", verdict="malicious", min_score=0.9,
               tag=("retro-hot",)),
    TriageRule(name="drain", indicators=("selfdestruct-drain",),
               tag=("retro-drain",)),
]


def test_triage_dry_run_previews_then_apply_writes(registry):
    seed_registry(registry)
    dry = RetroTriage(registry, TRIAGE_RULES, TRIAGE_TEXT,
                      dry_run=True).run()
    assert dry.dry_run and dry.rows_matched > 0
    assert dry.tags_applied == 0 and dry.alerts == 0
    assert dry.preview  # the CLI diff output has content
    assert not registry.query(tag="retro-hot", limit=None)

    wet = RetroTriage(registry, TRIAGE_RULES, TRIAGE_TEXT).run()
    assert wet.rows_matched == dry.rows_matched
    assert wet.rule_matches == dry.rule_matches
    tagged = registry.query(tag="retro-hot", limit=None)
    assert len(tagged) == wet.rule_matches["hot"]
    assert all(row.malicious_probability >= 0.9 for row in tagged)

    # idempotent: a second full run matches the same rows but has no new
    # tags to write
    again = RetroTriage(registry, TRIAGE_RULES, TRIAGE_TEXT,
                        resume=False).run()
    assert again.rows_matched == wet.rows_matched
    assert again.tags_applied == 0


def test_triage_resumes_from_last_committed_batch(registry):
    seed_registry(registry)
    calls = []

    class Boom(RuntimeError):
        pass

    def crash_after(rule, row):
        calls.append((rule.name, row.sha256))
        if len(calls) == 5:
            raise Boom()

    with pytest.raises(Boom):
        RetroTriage(registry, TRIAGE_RULES, TRIAGE_TEXT, batch_size=3,
                    on_match=crash_after).run()
    state = registry.find_triage_run(
        RetroTriage(registry, TRIAGE_RULES, TRIAGE_TEXT).digest, FP)
    assert state is not None  # progress row survived the crash

    resumed_calls = []
    result = RetroTriage(
        registry, TRIAGE_RULES, TRIAGE_TEXT, batch_size=3,
        on_match=lambda rule, row: resumed_calls.append(
            (rule.name, row.sha256))).run()
    assert result.resumed

    # the resumed run replays at most the one uncommitted batch, and the
    # union covers every match of a clean run exactly
    clean = []
    RetroTriage(registry, TRIAGE_RULES, TRIAGE_TEXT, dry_run=True,
                resume=False,
                on_match=lambda rule, row: clean.append(
                    (rule.name, row.sha256))).run()
    assert set(calls) | set(resumed_calls) == set(clean)
    assert len(set(calls) & set(resumed_calls)) <= 3  # one batch replay
    assert result.rows_matched == len(clean)

    # finished runs do not resume
    fresh = RetroTriage(registry, TRIAGE_RULES, TRIAGE_TEXT,
                        dry_run=True).run()
    assert not fresh.resumed


def test_triage_edited_rules_start_fresh_run(registry):
    seed_registry(registry, rows=30)
    first = RetroTriage(registry, TRIAGE_RULES, TRIAGE_TEXT).run()
    edited = RetroTriage(registry, TRIAGE_RULES,
                         TRIAGE_TEXT + " # edited").run()
    assert first.run_id != edited.run_id
    assert not edited.resumed


def test_triage_exit_nonzero_propagates(registry):
    seed_registry(registry, rows=30)
    rules = [TriageRule(name="page", verdict="malicious",
                        exit_nonzero=True)]
    result = RetroTriage(registry, rules, "page v1", dry_run=True).run()
    assert result.exit_nonzero


# --------------------------------------------------------------------------- #
# fleet contention: concurrent writer processes, busy-retry hardening


def _fleet_writer(path, worker, shas, rounds, queue, barrier):
    from repro.resilience import RetryPolicy

    registry = ScanRegistry(
        path, fingerprint=FP,
        write_retry=RetryPolicy(max_attempts=20, base_delay_s=0.002,
                                max_delay_s=0.05, deadline_s=120.0))
    try:
        # zero busy timeout: collisions surface as SQLITE_BUSY and must be
        # absorbed by the application-level retry, not sqlite's wait
        with registry._lock:
            registry._conn.execute("PRAGMA busy_timeout = 0")
        # start writing together: forks of a large test process land tens
        # of milliseconds apart, longer than one writer's whole run
        barrier.wait(timeout=60)
        for index in range(rounds):
            sha = shas[(worker + index) % len(shas)]
            registry.record(sha, make_report(f"w{worker}-{index}"),
                            source_path=f"writer-{worker}.bin")
        queue.put(("ok", registry.busy_retries))
    except Exception as error:  # pragma: no cover - failure reporting
        queue.put(("error", repr(error)))
    finally:
        registry.close()


def test_fleet_writers_lose_no_updates_and_retry_busy(tmp_path):
    path = tmp_path / "fleet.db"
    ScanRegistry(path, fingerprint=FP).close()  # schema before the race
    shas = [f"{index:064x}" for index in range(8)]
    writers, rounds = 4, 50
    queue = multiprocessing.Queue()
    barrier = multiprocessing.Barrier(writers)
    processes = [
        multiprocessing.Process(target=_fleet_writer,
                                args=(path, worker, shas, rounds, queue,
                                      barrier))
        for worker in range(writers)
    ]
    for process in processes:
        process.start()
    outcomes = [queue.get(timeout=120) for _ in processes]
    for process in processes:
        process.join(timeout=120)
        assert process.exitcode == 0
    assert all(status == "ok" for status, _ in outcomes), outcomes

    with ScanRegistry(path, fingerprint=FP) as registry:
        rows = registry.select_where("fingerprint = ?", (FP,))
        # no lost updates: every record() landed exactly once
        assert sum(row.scan_count for row in rows) == writers * rounds
        assert len(rows) == len(shas)
    # the zero-timeout writers genuinely collided and the app-level retry
    # absorbed it -- a disarmed retry path fails here
    assert sum(retries for _, retries in outcomes) >= 1

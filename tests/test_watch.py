"""End-to-end tests of ``watch`` (the ingest service) + registry scanning.

Locks the watch path's acceptance invariants on both watcher backends
(inotify, and the ``poll`` backend used on network mounts): a backfill
followed by ``query --all`` returns verdicts byte-identical to a
``scan-batch`` over the same corpus; the next cycle performs zero GNN
inference calls; the registry survives a restart; and a graph fingerprint
change invalidates only the stale rows.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.core.config import ScamDetectConfig
from repro.core.detector import ScamDetector
from repro.ingest import EventIngestService, IngestStats, InotifyWatcher
from repro.registry import RulesEngine, ScanRegistry, content_sha256, \
    parse_rules
from repro.service import BatchScanner, GraphCache

FAST = ScamDetectConfig(epochs=3, num_layers=1, hidden_features=8)

#: every backend this host can run; ``poll`` runs everywhere
BACKENDS = ("poll", "inotify") if InotifyWatcher.available() else ("poll",)


@pytest.fixture(scope="module")
def trained_detector(tiny_evm_corpus):
    detector = ScamDetector(FAST, explain=False)
    detector.train(tiny_evm_corpus)
    return detector


@pytest.fixture()
def feed(tmp_path, tiny_evm_corpus):
    """A corpus directory of .bin files plus the matching raw codes."""
    directory = tmp_path / "feed"
    directory.mkdir()
    for sample in tiny_evm_corpus:
        (directory / f"{sample.sample_id}.bin").write_bytes(sample.bytecode)
    return directory


@pytest.fixture()
def registry(tmp_path, trained_detector):
    with ScanRegistry.for_config(tmp_path / "verdicts.db",
                                 trained_detector.config) as reg:
        yield reg


def watch(detector, registry, feed, backend="poll", **kwargs):
    """An ingest service over ``feed`` (default: the poll backend, whose
    cycles are deterministic walks)."""
    return EventIngestService(detector, registry, roots=[feed],
                              backend=backend, **kwargs)


def started(detector, registry, feed, **kwargs):
    """A watch service after its backfill and its first (immediate, quiet)
    cycle: the steady state of ``scamdetect watch``."""
    service = watch(detector, registry, feed, **kwargs)
    service.backfill()
    service.cycle()
    return service


def write_contract(directory, name, bytecode):
    path = directory / name
    path.write_bytes(bytecode)
    # change detection keys on (size, mtime_ns); same-size rewrites in
    # the same timestamp granule must still be visible
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
    return path


# --------------------------------------------------------------------------- #
# the acceptance invariant


def test_watch_then_query_matches_scan_batch_byte_identical(
        trained_detector, feed, tmp_path):
    oracle = trained_detector.scan_directory(feed)
    for backend in BACKENDS:
        with ScanRegistry.for_config(tmp_path / f"{backend}.db",
                                     trained_detector.config) as registry, \
                watch(trained_detector, registry, feed,
                      backend=backend) as service:
            cold = service.backfill()
            assert cold.enqueued == cold.scanned == oracle.num_scanned
            assert cold.inference_calls >= 1

            rows = {row.source_path: row
                    for row in registry.query(limit=None)}
            assert len(rows) == oracle.num_scanned
            for report in oracle.reports:
                stored = rows[report.sample_id].to_report()
                assert stored.to_dict() == report.to_dict(), backend

            # the backfill already classified the watcher's catch-up
            # events: the next cycle over the unchanged tree has no work
            warm = service.cycle()
            assert warm.events == 0 and warm.unchanged == 0, backend
            assert warm.scanned == 0
            assert warm.registry_hits == 0
            assert warm.inference_calls == 0


def test_watch_query_cli_roundtrip(trained_detector, feed, tmp_path,
                                   capsys):
    model_path = tmp_path / "model"
    trained_detector.save(model_path)
    oracle = trained_detector.scan_directory(feed)

    for backend in BACKENDS:
        registry_path = tmp_path / f"cli-{backend}.db"
        exit_code = main(["watch", str(feed), "--model-path", str(model_path),
                          "--registry", str(registry_path),
                          "--backend", backend,
                          "--interval", "0.05", "--max-polls", "2"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert f"({backend} events" in out
        assert "backfill:" in out, out
        # the backfill classified every file, so both cycles were quiet
        # and a quiet cycle prints nothing
        assert not [line for line in out.splitlines()
                    if line.startswith("cycle ")], out

        exit_code = main(["query", "--registry", str(registry_path),
                          "--model-path", str(model_path), "--all",
                          "--json"])
        assert exit_code == 0
        rows = json.loads(capsys.readouterr().out)

        # CLI parity: the recorded reports equal a scan-batch over the corpus
        batch = main(["scan-batch", "--model-path", str(model_path),
                      "--input-dir", str(feed), "--show-reports"])
        assert batch in (0, 2)
        capsys.readouterr()
        by_path = {row["source_path"]: row["report"] for row in rows}
        assert len(by_path) == oracle.num_scanned
        for report in oracle.reports:
            assert by_path[report.sample_id] == report.to_dict()


# --------------------------------------------------------------------------- #
# incremental change detection


def test_new_changed_deleted_files_are_tracked(trained_detector, feed,
                                               registry, tiny_evm_corpus):
    service = started(trained_detector, registry, feed)

    # drop a brand-new contract, mutate an existing one, delete another
    existing = sorted(feed.glob("evm-*.bin"))
    fresh_code = tiny_evm_corpus[0].bytecode + b"\x00"
    write_contract(feed, "dropped.bin", fresh_code)
    write_contract(feed, existing[0].name,
                   existing[0].read_bytes() + b"\x00\x00")
    removed = existing[1]
    removed.unlink()

    stats = service.cycle()
    service.close()
    assert stats.upserts == 2
    assert stats.deletes == 1
    assert stats.scanned == 2 and stats.inference_calls == 1

    # the deleted path is flagged in the index; its verdict row remains
    assert removed.name not in registry.watched_files()
    deleted_entry = registry.watched_files(
        include_deleted=True)[removed.name]
    assert deleted_entry.deleted_at is not None
    assert registry.get(deleted_entry.sha256) is not None

    # and the new verdicts landed
    assert registry.get(content_sha256(fresh_code)) is not None


def test_duplicate_content_served_from_registry_without_inference(
        trained_detector, feed, registry):
    service = started(trained_detector, registry, feed)
    clone_source = sorted(feed.glob("*.bin"))[0]
    write_contract(feed, "clone-of-first.bin", clone_source.read_bytes())
    stats = service.cycle()
    service.close()
    assert stats.upserts == 1
    assert stats.registry_hits == 1
    assert stats.scanned == 0
    assert stats.inference_calls == 0
    # the registry hit is indexed under the new path
    entry = registry.watched_files()["clone-of-first.bin"]
    assert entry.sha256 == content_sha256(clone_source.read_bytes())


def test_registry_survives_daemon_restart(trained_detector, feed, tmp_path):
    registry_path = tmp_path / "restart.db"
    with ScanRegistry.for_config(registry_path,
                                 trained_detector.config) as registry:
        with watch(trained_detector, registry, feed) as service:
            service.backfill()
        before = {row.sha256: row.malicious_probability
                  for row in registry.query(limit=None)}
    assert before

    # a brand-new watch process-equivalent: fresh handles, same file.  The
    # stat index survives too, so not even re-hashing happens.
    with ScanRegistry.for_config(registry_path,
                                 trained_detector.config) as registry:
        with watch(trained_detector, registry, feed) as service:
            stats = service.backfill()
        assert stats.inference_calls == 0
        assert stats.scanned == 0 and stats.unchanged == len(before)
        after = {row.sha256: row.malicious_probability
                 for row in registry.query(limit=None)}
    assert after == before


def test_fingerprint_change_invalidates_only_stale_rows(
        trained_detector, feed, tmp_path, tiny_evm_corpus):
    registry_path = tmp_path / "fp.db"
    with ScanRegistry.for_config(registry_path,
                                 trained_detector.config) as registry:
        with watch(trained_detector, registry, feed) as service:
            service.backfill()
        old_rows = len(registry.query(limit=None))
    assert old_rows > 0
    files = len(list(feed.glob("*.bin")))

    # a lowering-config change (different max_nodes) gets a new fingerprint
    changed = ScamDetector(
        ScamDetectConfig(epochs=3, num_layers=1, hidden_features=8,
                         max_nodes=64),
        explain=False).train(tiny_evm_corpus)
    assert changed.config.graph_fingerprint() != \
        trained_detector.config.graph_fingerprint()

    with ScanRegistry.for_config(registry_path,
                                 changed.config) as registry:
        with watch(changed, registry, feed) as service:
            stats = service.backfill()
        # nothing of the old fingerprint is trusted: everything re-scans
        assert stats.scanned == files
        assert stats.inference_calls >= 1
        # ... but the stale rows are still there under their own scope
        assert len(registry.query(limit=None)) == files
        assert len(registry.query(all_fingerprints=True)) \
            == old_rows + files
        assert registry.purge_stale() == old_rows


def test_mismatched_registry_fingerprint_is_rejected(trained_detector,
                                                     feed, tmp_path):
    registry = ScanRegistry(tmp_path / "wrong.db", fingerprint="deadbeef")
    try:
        with pytest.raises(ValueError, match="fingerprint"):
            watch(trained_detector, registry, feed)
        with pytest.raises(ValueError, match="fingerprint"):
            BatchScanner(trained_detector, registry=registry)
    finally:
        registry.close()


# --------------------------------------------------------------------------- #
# triage rules on the watch path


def test_watch_runs_triage_rules_on_new_verdicts(trained_detector, feed,
                                                 registry, tmp_path):
    # threshold 0.05 flags essentially everything malicious, so the rule
    # deterministically fires on this tiny corpus
    spicy = ScamDetector(FAST, threshold=0.05, explain=False)
    spicy.pipeline = trained_detector.pipeline
    sink = tmp_path / "alerts.jsonl"
    engine = RulesEngine(parse_rules("""
[[rules]]
name = "page-on-scam"
[rules.match]
verdict = "malicious"
[rules.actions]
tag = ["hot"]
alert = true
exit_nonzero = true
"""), alert_path=sink)
    with watch(spicy, registry, feed, rules=engine) as service:
        stats = service.backfill()
    assert stats.malicious > 0
    assert stats.rules_matched == stats.malicious
    assert stats.alerts == stats.malicious
    assert stats.exit_nonzero and service.exit_nonzero
    alerts = [json.loads(line) for line in sink.read_text().splitlines()]
    assert len(alerts) == stats.malicious
    assert all(alert["rule"] == "page-on-scam" for alert in alerts)
    # tags landed on the registry rows
    tagged = registry.query(tag="hot")
    assert len(tagged) == stats.malicious


# --------------------------------------------------------------------------- #
# BatchScanner registry integration (hits distinct from cache hits)


def test_batch_scanner_registry_hits_skip_inference(trained_detector,
                                                    tiny_evm_corpus,
                                                    registry):
    codes = [sample.bytecode for sample in tiny_evm_corpus[:8]]
    ids = [sample.sample_id for sample in tiny_evm_corpus[:8]]
    scanner = BatchScanner(trained_detector, registry=registry)
    cold = scanner.scan_codes(codes, sample_ids=ids)
    assert cold.registry_hits == 0
    assert sum(cold.batch_sizes.values()) >= 1

    warm = scanner.scan_codes(codes, sample_ids=ids)
    assert warm.registry_hits == len(codes)
    assert warm.batch_sizes == {}  # zero inference calls
    for fresh, cached in zip(cold.reports, warm.reports):
        assert fresh.to_dict() == cached.to_dict()

    stats = warm.stats_dict()
    assert stats["registry"] == {"hits": len(codes), "misses": 0}
    assert "registry" in warm.format()


def test_registry_hits_are_distinct_from_cache_hits(trained_detector,
                                                    tiny_evm_corpus,
                                                    registry):
    codes = [sample.bytecode for sample in tiny_evm_corpus[:6]]
    cache = GraphCache.for_config(trained_detector.config)
    scanner = BatchScanner(trained_detector, cache=cache)
    try:
        cache_only = scanner.scan_codes(codes)
        cache_warm = scanner.scan_codes(codes)
        # graph-cache hits still run inference ...
        assert cache_warm.cache_stats.hit_rate == 1.0
        assert sum(cache_warm.batch_sizes.values()) >= 1
        assert cache_warm.registry_hits == 0

        with_registry = BatchScanner(trained_detector, cache=cache,
                                     registry=registry)
        first = with_registry.scan_codes(codes)
        second = with_registry.scan_codes(codes)
        # ... while registry hits skip the model entirely
        assert first.registry_hits == 0
        assert second.registry_hits == len(codes)
        assert second.batch_sizes == {}
        for one, two in zip(cache_only.reports, second.reports):
            assert one.to_dict() == two.to_dict()
    finally:
        trained_detector.pipeline.graph_cache = None


def test_registry_threshold_change_relabels_hits(trained_detector,
                                                 tiny_evm_corpus, registry):
    codes = [sample.bytecode for sample in tiny_evm_corpus[:6]]
    BatchScanner(trained_detector, registry=registry).scan_codes(codes)

    spicy = ScamDetector(FAST, threshold=0.05, explain=False)
    spicy.pipeline = trained_detector.pipeline
    result = BatchScanner(spicy, registry=registry).scan_codes(codes)
    # stored probabilities are reused, labels reflect the new threshold
    assert result.registry_hits == len(codes)
    for report in result.reports:
        assert report.label == int(report.malicious_probability >= 0.05)


def test_registry_ignores_rows_from_other_model_or_explain(
        trained_detector, tiny_evm_corpus, registry):
    codes = [sample.bytecode for sample in tiny_evm_corpus[:4]]
    BatchScanner(trained_detector, registry=registry).scan_codes(codes)

    # a retrain with IDENTICAL hyper-parameters produces different weights
    # (different seed) but the same architecture label and the same graph
    # fingerprint -- the registry must re-scan, never serve the old
    # model's verdicts
    retrained = ScamDetector(
        ScamDetectConfig(epochs=3, num_layers=1, hidden_features=8,
                         seed=99),
        explain=False)
    retrained.train(tiny_evm_corpus)
    assert retrained.config.graph_fingerprint() == \
        trained_detector.config.graph_fingerprint()
    assert retrained.pipeline.model_fingerprint() != \
        trained_detector.pipeline.model_fingerprint()
    result = BatchScanner(retrained, registry=registry).scan_codes(codes)
    assert result.registry_hits == 0
    for report in result.reports:
        direct = retrained.scan(codes[result.reports.index(report)])
        assert report.malicious_probability == direct.malicious_probability

    # same fingerprint, different explain setting: rows must not be reused
    # (their notes would not match a fresh scan's)
    explainer = ScamDetector(FAST, explain=True)
    explainer.pipeline = trained_detector.pipeline
    result = BatchScanner(explainer, registry=registry).scan_codes(codes)
    assert result.registry_hits == 0
    # the re-scan upserted explained rows; now both settings hit
    again = BatchScanner(explainer, registry=registry).scan_codes(codes)
    assert again.registry_hits == len(codes)
    for report in again.reports:
        direct = explainer.scan(codes[again.reports.index(report)])
        assert report.malicious_probability == direct.malicious_probability


def test_sharded_scan_records_and_serves_registry(trained_detector,
                                                  tiny_evm_corpus,
                                                  registry):
    codes = [sample.bytecode for sample in tiny_evm_corpus[:8]]
    ids = [sample.sample_id for sample in tiny_evm_corpus[:8]]
    with BatchScanner(trained_detector, shards=2,
                      registry=registry) as scanner:
        cold = scanner.scan_codes(codes, sample_ids=ids)
        warm = scanner.scan_codes(codes, sample_ids=ids)
    assert cold.registry_hits == 0 and cold.shard_stats
    # the warm pass never reaches the shard pool
    assert warm.registry_hits == len(codes)
    oracle = [trained_detector.scan(code, sample_id=sample_id)
              for code, sample_id in zip(codes, ids)]
    for single, cached in zip(oracle, warm.reports):
        assert single.to_dict() == cached.to_dict()


# --------------------------------------------------------------------------- #
# directory walking: recursion + glob filtering


def test_scan_directory_recursive_flag_and_glob(trained_detector, feed,
                                                tiny_evm_corpus):
    nested = feed / "nested"
    nested.mkdir()
    write_contract(nested, "deep.bin", tiny_evm_corpus[0].bytecode)

    everything = trained_detector.scan_directory(feed)
    assert "nested/deep.bin" in \
        [report.sample_id for report in everything.reports]

    flat = trained_detector.scan_directory(feed, recursive=False)
    assert len(flat.reports) == len(everything.reports) - 1
    assert all("nested" not in report.sample_id for report in flat.reports)

    only_nested = trained_detector.scan_directory(feed,
                                                  pattern="nested/*.bin")
    assert [report.sample_id for report in only_nested.reports] \
        == ["nested/deep.bin"]


def test_watch_respects_recursive_and_pattern(trained_detector, feed,
                                              registry, tiny_evm_corpus):
    nested = feed / "sub"
    nested.mkdir()
    write_contract(nested, "inner.bin", tiny_evm_corpus[0].bytecode)
    top_level = {path.name for path in feed.glob("*.bin")}

    with watch(trained_detector, registry, feed, recursive=False) as service:
        service.backfill()
    assert set(registry.watched_files()) == top_level

    # the second watch sweeps the paths its pattern no longer covers
    with watch(trained_detector, registry, feed,
               pattern="sub/*.bin") as service:
        stats = service.backfill()
    assert stats.deletes == len(top_level)
    assert set(registry.watched_files()) == {"sub/inner.bin"}


def test_watch_skips_registry_database_in_corpus_dir(trained_detector,
                                                     feed, tmp_path):
    # a registry living inside the watched directory must never be scanned,
    # neither by the backfill walk nor by either watcher backend
    files = {path.name for path in feed.glob("*.bin")}
    for backend in BACKENDS:
        with ScanRegistry.for_config(feed / f"verdicts-{backend}.db",
                                     trained_detector.config) as registry:
            with started(trained_detector, registry, feed,
                         backend=backend) as service:
                assert set(registry.watched_files()) == files, backend
                assert service.stats.skipped == 0
            assert all(not row.source_path.endswith(".db")
                       for row in registry.query(limit=None))


# --------------------------------------------------------------------------- #
# drain + recovery under injected faults


def test_stop_during_injected_slow_poll_finishes_the_cycle(
        trained_detector, feed, registry):
    # a SIGTERM-style stop() landing mid-cycle (the CLI's signal handler
    # calls exactly this) must let the cycle in flight finish and record
    # its verdicts -- shutdown latency is bounded, work is never dropped
    import threading

    from repro.resilience import FaultPlan, FaultSpec, fault_plan

    service = watch(trained_detector, registry, feed)
    with service, fault_plan(FaultPlan(specs=(
            FaultSpec(site="ingest.drain", kind="delay", delay_s=0.4,
                      max_fires=1),))):
        stopper = threading.Timer(0.1, service.stop)
        stopper.start()
        try:
            # no backfill: the first cycle takes the catch-up events for
            # the whole tree and its drain is the slow one
            completed = service.run(interval=0.05)
        finally:
            stopper.cancel()
    assert completed == 1
    # the interrupted cycle still recorded every contract durably
    recorded = {row.sha256 for row in registry.query(limit=None)}
    assert {content_sha256(path.read_bytes())
            for path in feed.glob("*.bin")} == recorded


def test_faulted_poll_cycle_is_skipped_then_retried(trained_detector, feed,
                                                    registry):
    from repro.resilience import FaultPlan, FaultSpec, fault_plan

    service = watch(trained_detector, registry, feed)
    with service, fault_plan(FaultPlan(specs=(
            FaultSpec(site="ingest.event", kind="exception",
                      max_fires=1),))):
        with pytest.warns(UserWarning, match="transient fault"):
            completed = service.run(interval=0.01, max_cycles=1)
    # the faulted cycle aborted before taking any event; the retry cycle
    # saw the whole corpus and recorded everything
    assert completed == 1 and service.stats.faulted_cycles == 1
    assert len(registry.query(limit=None)) == len(list(feed.glob("*.bin")))
    with watch(trained_detector, registry, feed) as restarted:
        stats = restarted.backfill()
    assert stats.inference_calls == 0     # nothing was lost or half-recorded


# --------------------------------------------------------------------------- #
# discovery-path correctness: stat failures and mid-cycle rewrites


def test_unstatable_file_is_not_marked_deleted(trained_detector, feed,
                                               registry):
    from repro.resilience import FaultPlan, FaultSpec, fault_plan

    service = started(trained_detector, registry, feed)
    live = set(registry.watched_files())
    assert live

    def faulted(step):
        # one file transiently fails stat() (NFS hiccup, racing chmod): it
        # must be skipped, NOT swept as deleted
        with fault_plan(FaultPlan(specs=(
                FaultSpec(site="watch.stat", kind="exception",
                          exception="oserror", max_fires=1),))):
            with pytest.warns(UserWarning, match="cannot stat"):
                return step()

    # the walk (backfill and overflow resync) ...
    stats = faulted(service.backfill)
    assert stats.skipped == 1
    assert stats.deletes == 0
    # ... and the poll backend's diffing walk
    stats = faulted(service.cycle)
    assert stats.deletes == 0 and stats.events == 0
    # the skipped path is still live in the index -- no deleted_at stamp
    assert set(registry.watched_files()) == live
    index = registry.watched_files(include_deleted=True)
    assert all(index[rel].deleted_at is None for rel in live)

    # the next walk stats everything again: nothing changed, nothing
    # re-scans
    clean = service.backfill()
    service.close()
    assert clean.unchanged == len(live)
    assert clean.deletes == 0 and clean.scanned == 0

    # ... and a restart whose watcher meets the fault in its start-up walk:
    # the backfill classifies that walk's events, which still name the file
    with faulted(lambda: watch(trained_detector, registry, feed)) as restarted:
        stats = restarted.backfill()
    assert stats.deletes == 0 and stats.scanned == 0
    assert set(registry.watched_files()) == live


def test_stat_failure_still_detects_real_deletions(trained_detector, feed,
                                                   registry):
    from repro.resilience import FaultPlan, FaultSpec, fault_plan

    def stat_fault():
        return fault_plan(FaultPlan(specs=(
            FaultSpec(site="watch.stat", kind="exception",
                      exception="oserror", max_fires=1),)))

    service = started(trained_detector, registry, feed)
    first, second = sorted(feed.glob("*.bin"))[:2]

    # a *different* file faults its stat in the same pass; the genuinely
    # deleted file must still be swept -- by the poll backend's diff ...
    first.unlink()
    with stat_fault(), pytest.warns(UserWarning, match="cannot stat"):
        stats = service.cycle()
    assert stats.deletes == 1
    assert first.name not in registry.watched_files()

    # ... and by a restart's backfill walk
    service.close()
    second.unlink()
    with watch(trained_detector, registry, feed) as restarted:
        with stat_fault(), pytest.warns(UserWarning, match="cannot stat"):
            stats = restarted.backfill()
    assert stats.skipped == 1
    assert stats.deletes == 1
    assert second.name not in registry.watched_files()


def test_midcycle_rewrite_records_consistent_stat(trained_detector, feed,
                                                  registry, monkeypatch,
                                                  tiny_evm_corpus):
    import repro.registry.watch as watch_module

    service = started(trained_detector, registry, feed)

    target = sorted(feed.glob("*.bin"))[0]
    first_rewrite = target.read_bytes() + b"\x00"
    final_content = tiny_evm_corpus[1].bytecode + b"\x00\x00"
    write_contract(feed, target.name, first_rewrite)

    # simulate the stat->read race: the first read of the target lands
    # *after* a second rewrite that the discovery stat never saw
    real_read = watch_module.read_contract_file
    raced = {"done": False}

    def racing_read(path):
        raw = real_read(path)
        if path.name == target.name and not raced["done"]:
            raced["done"] = True
            write_contract(feed, target.name, final_content)
            return real_read(path)
        return raw

    monkeypatch.setattr(watch_module, "read_contract_file", racing_read)
    service.cycle()
    monkeypatch.setattr(watch_module, "read_contract_file", real_read)
    assert raced["done"]

    # the recorded index entry must describe the bytes that were hashed:
    # sha of what is on disk now, stat consistent with it -- so the next
    # cycle sees the file as unchanged and nothing was masked
    entry = registry.watched_files()[target.name]
    assert entry.sha256 == content_sha256(final_content)
    stat = target.stat()
    assert (entry.size, entry.mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    assert registry.get(content_sha256(final_content)) is not None

    clean = service.cycle()
    service.close()
    assert clean.enqueued == 0 and clean.scanned == 0
    assert clean.registry_hits == 0


def test_stable_read_rereads_until_stat_settles(tmp_path):
    from repro.registry.watch import stable_read

    path = tmp_path / "contract.bin"
    path.write_bytes(b"\x60\x00\x60\x01")
    stat = path.stat()

    # passing a stale pre-read stat (as if the file changed between the
    # discovery stat and the read) forces a re-read under a fresh stat
    raw, size, mtime_ns = stable_read(path, stat.st_size - 1,
                                      stat.st_mtime_ns - 1)
    assert raw == b"\x60\x00\x60\x01"
    assert (size, mtime_ns) == (stat.st_size, stat.st_mtime_ns)

    # a settled file short-circuits: one read, stat unchanged
    raw, size, mtime_ns = stable_read(path, stat.st_size, stat.st_mtime_ns)
    assert raw == b"\x60\x00\x60\x01"
    assert (size, mtime_ns) == (stat.st_size, stat.st_mtime_ns)


# --------------------------------------------------------------------------- #
# IngestStats reporting: every counter must be visible


def test_ingest_stats_surface_exit_fault_and_cascade_counters():
    stats = IngestStats(events=3, unchanged=3, exit_nonzero=True,
                        faulted_cycles=2, short_circuits=4, escalations=1)
    line = stats.format()
    assert "2 faulted" in line
    assert "exit rule fired" in line
    assert "cascade 4 short-circuited/1 escalated" in line
    payload = stats.to_dict()
    assert payload["exit_nonzero"] is True
    assert payload["faulted_cycles"] == 2
    # every dataclass counter is exported -- nothing silently dropped
    for field in ("events", "upserts", "deletes", "unchanged", "skipped",
                  "enqueued", "deduped", "drained", "registry_hits",
                  "scanned", "malicious", "inference_calls", "alerts",
                  "rules_matched", "short_circuits", "escalations",
                  "disagreements", "exit_nonzero", "faulted_cycles",
                  "faulted_drains"):
        assert field in payload, field
    # the cascade counters are ints, so per-cycle deltas subtract them
    delta = stats.delta(IngestStats(short_circuits=1, disagreements=0))
    assert (delta.short_circuits, delta.escalations) == (3, 1)

    quiet = IngestStats(events=3, unchanged=3)
    assert "faulted" not in quiet.format()
    assert "exit rule" not in quiet.format()
    assert "cascade" not in quiet.format()


def test_watch_cli_json_stream_includes_fault_counters(
        trained_detector, feed, tmp_path, capsys):
    model_path = tmp_path / "json-model"
    trained_detector.save(model_path)
    registry_path = tmp_path / "json-verdicts.db"

    exit_code = main(["watch", str(feed), "--model-path", str(model_path),
                      "--registry", str(registry_path), "--backend", "poll",
                      "--interval", "0.05", "--max-polls", "2", "--json"])
    assert exit_code == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("{")]
    # the backfill is cycle 0, then one object per cycle
    assert len(lines) == 3
    for number, line in enumerate(lines):
        payload = json.loads(line)
        assert payload["cycle"] == number
        assert payload["exit_nonzero"] is False
        assert payload["faulted_cycles"] == 0
    assert json.loads(lines[0])["inference_calls"] >= 1
    # the cycles after the backfill were warm: machine-readable proof
    for line in lines[1:]:
        warm = json.loads(line)
        assert warm["inference_calls"] == 0 and warm["scanned"] == 0

"""Tests of the batch scanning service layer: cache, scanner, persistence."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import ScamDetectConfig
from repro.core.detector import ScamDetector
from repro.core.persistence import PersistenceError, load_pipeline, save_pipeline
from repro.core.pipeline import ScamDetectPipeline
from repro.service import BatchScanner, GraphCache
from repro.service.cache import DISK_META_FILENAME, bytecode_key

FAST = ScamDetectConfig(epochs=3, num_layers=1, hidden_features=8)


@pytest.fixture(scope="module")
def trained_detector(tiny_evm_corpus):
    detector = ScamDetector(FAST, explain=False)
    detector.train(tiny_evm_corpus)
    return detector


# --------------------------------------------------------------------------- #
# fingerprint


def test_graph_fingerprint_stable_and_selective():
    base = ScamDetectConfig()
    assert base.graph_fingerprint() == ScamDetectConfig().graph_fingerprint()
    # model-only settings do not change the lowering fingerprint
    assert (ScamDetectConfig(architecture="gin", epochs=99, seed=5)
            .graph_fingerprint() == base.graph_fingerprint())
    # every graph-shaping knob does
    for variant in (ScamDetectConfig(node_feature_mode="count"),
                    ScamDetectConfig(include_marker_features=False),
                    ScamDetectConfig(include_structural_features=False),
                    ScamDetectConfig(max_nodes=64)):
        assert variant.graph_fingerprint() != base.graph_fingerprint()


def test_bytecode_key_separates_platforms():
    assert bytecode_key(b"\x00\x01", "evm") != bytecode_key(b"\x00\x01", "wasm")
    assert bytecode_key(b"\x00\x01", "evm") == bytecode_key(b"\x00\x01", "evm")


# --------------------------------------------------------------------------- #
# cache behaviour


def test_cache_hit_returns_identical_graph(tiny_evm_corpus):
    pipeline = ScamDetectPipeline(FAST)
    cache = GraphCache.for_config(FAST)
    pipeline.set_graph_cache(cache)
    sample = tiny_evm_corpus[0]
    first = pipeline.sample_to_graph(sample)
    assert cache.stats.misses == 1 and cache.stats.hits == 0
    second = pipeline.sample_to_graph(sample)
    assert cache.stats.hits == 1
    np.testing.assert_array_equal(first.node_features, second.node_features)
    np.testing.assert_array_equal(first.adjacency, second.adjacency)
    np.testing.assert_array_equal(first.normalized_adjacency,
                                  second.normalized_adjacency)
    assert second.label == sample.label
    assert second.sample_id == sample.sample_id


def test_cache_rebinds_label_and_sample_id(tiny_evm_corpus):
    cache = GraphCache.for_config(FAST)
    pipeline = ScamDetectPipeline(FAST, graph_cache=cache)
    sample = tiny_evm_corpus[0]
    pipeline.sample_to_graph(sample)
    hit = cache.get(sample.bytecode, sample.platform, label=1,
                    sample_id="renamed")
    assert hit is not None
    assert hit.label == 1 and hit.sample_id == "renamed"


def test_cache_lru_eviction(tiny_evm_corpus):
    cache = GraphCache.for_config(FAST, capacity=2)
    pipeline = ScamDetectPipeline(FAST, graph_cache=cache)
    a, b, c = tiny_evm_corpus[0], tiny_evm_corpus[1], tiny_evm_corpus[2]
    pipeline.sample_to_graph(a)
    pipeline.sample_to_graph(b)
    pipeline.sample_to_graph(a)       # refresh a: b is now least-recent
    pipeline.sample_to_graph(c)       # evicts b
    assert cache.stats.evictions == 1
    assert len(cache) == 2
    assert cache.get(b.bytecode, b.platform) is None
    assert cache.get(a.bytecode, a.platform) is not None
    assert cache.get(c.bytecode, c.platform) is not None


def test_cache_fingerprint_mismatch_rejected():
    cache = GraphCache.for_config(ScamDetectConfig(node_feature_mode="count"))
    with pytest.raises(ValueError, match="fingerprint"):
        ScamDetectPipeline(FAST, graph_cache=cache)
    pipeline = ScamDetectPipeline(FAST)
    with pytest.raises(ValueError, match="fingerprint"):
        pipeline.set_graph_cache(cache)


def test_disk_tier_roundtrip(tmp_path, tiny_evm_corpus):
    disk = tmp_path / "graph-cache"
    cache = GraphCache.for_config(FAST, disk_dir=disk)
    pipeline = ScamDetectPipeline(FAST, graph_cache=cache)
    sample = tiny_evm_corpus[0]
    fresh = pipeline.sample_to_graph(sample)
    assert cache.stats.disk_writes == 1
    tier = disk / FAST.graph_fingerprint()
    assert json.loads((tier / DISK_META_FILENAME).read_text())["fingerprint"] == \
        cache.fingerprint

    # a new process (new cache object) hits the disk tier, bit-identically
    revived = GraphCache.for_config(FAST, disk_dir=disk)
    hit = revived.get(sample.bytecode, sample.platform, label=sample.label,
                      sample_id=sample.sample_id)
    assert hit is not None and revived.stats.disk_hits == 1
    np.testing.assert_array_equal(hit.node_features, fresh.node_features)
    np.testing.assert_array_equal(hit.normalized_adjacency,
                                  fresh.normalized_adjacency)


def test_disk_tier_isolates_fingerprints(tmp_path, tiny_evm_corpus):
    disk = tmp_path / "graph-cache"
    sample = tiny_evm_corpus[0]
    cache = GraphCache.for_config(FAST, disk_dir=disk)
    ScamDetectPipeline(FAST, graph_cache=cache).sample_to_graph(sample)

    # a cache for a different config shares the directory without seeing
    # (or purging) the other fingerprint's entries
    other = ScamDetectConfig(node_feature_mode="count")
    other_cache = GraphCache.for_config(other, disk_dir=disk)
    assert other_cache.stats.stale_purges == 0
    assert other_cache.get(sample.bytecode, sample.platform) is None
    assert GraphCache.for_config(FAST, disk_dir=disk).get(
        sample.bytecode, sample.platform) is not None


def test_disk_tier_truncated_entry_is_warned_miss(tmp_path, tiny_evm_corpus):
    """A torn/corrupt entry on disk (e.g. from a pre-atomic writer or bit
    rot) is treated as a miss with a warning, deleted, and rewritten clean
    by the next put."""
    import warnings

    disk = tmp_path / "graph-cache"
    sample = tiny_evm_corpus[0]
    cache = GraphCache.for_config(FAST, disk_dir=disk)
    pipeline = ScamDetectPipeline(FAST, graph_cache=cache)
    fresh = pipeline.sample_to_graph(sample)
    key = bytecode_key(sample.bytecode, sample.platform)
    entry = disk / FAST.graph_fingerprint() / f"{key}.npz"
    payload = entry.read_bytes()
    entry.write_bytes(payload[:len(payload) // 2])  # torn write

    revived = GraphCache.for_config(FAST, disk_dir=disk)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert revived.get(sample.bytecode, sample.platform) is None
    assert any("unreadable" in str(entry_.message) for entry_ in caught)
    assert revived.stats.disk_corrupt == 1
    assert revived.stats.misses == 1 and revived.stats.hits == 0
    assert not entry.exists()  # removed, so the next put rewrites it

    relowered = ScamDetectPipeline(FAST, graph_cache=revived) \
        .sample_to_graph(sample)
    np.testing.assert_array_equal(relowered.node_features,
                                  fresh.node_features)
    assert revived.stats.disk_writes == 1
    third = GraphCache.for_config(FAST, disk_dir=disk)
    assert third.get(sample.bytecode, sample.platform) is not None


def test_disk_tier_writes_are_atomic_and_uniquely_named(tmp_path,
                                                        tiny_evm_corpus):
    """The publish step is a temp-file + os.replace with a process-unique
    temp name: no bare .npz ever exists in a partial state, and no temp
    files are left behind."""
    disk = tmp_path / "graph-cache"
    sample = tiny_evm_corpus[0]
    cache = GraphCache.for_config(FAST, disk_dir=disk)
    first = cache._temp_path_for(cache._entry_path("abc123"))
    second = cache._temp_path_for(cache._entry_path("abc123"))
    assert first != second  # unique even for the same key in one process
    assert first.name.startswith(".") and first.suffix == ".npz"

    ScamDetectPipeline(FAST, graph_cache=cache).sample_to_graph(sample)
    tier = disk / FAST.graph_fingerprint()
    leftovers = [path for path in tier.iterdir() if ".tmp." in path.name]
    assert leftovers == []


def test_disk_tier_purges_entries_without_sidecar(tmp_path, tiny_evm_corpus):
    disk = tmp_path / "graph-cache"
    sample = tiny_evm_corpus[0]
    cache = GraphCache.for_config(FAST, disk_dir=disk)
    ScamDetectPipeline(FAST, graph_cache=cache).sample_to_graph(sample)
    (disk / FAST.graph_fingerprint() / DISK_META_FILENAME).unlink()

    reopened = GraphCache.for_config(FAST, disk_dir=disk)
    assert reopened.stats.stale_purges == 1
    assert reopened.get(sample.bytecode, sample.platform) is None


# --------------------------------------------------------------------------- #
# batch scanner


def test_batch_scanner_matches_single_scan(trained_detector, tiny_evm_corpus):
    detector = trained_detector
    codes = [sample.bytecode for sample in tiny_evm_corpus]
    ids = [sample.sample_id for sample in tiny_evm_corpus]
    singles = [detector.scan(code, sample_id=sample_id)
               for code, sample_id in zip(codes, ids)]

    scanner = BatchScanner(detector, cache=GraphCache.for_config(FAST))
    for attempt in range(2):          # cold pass, then fully cached pass
        result = scanner.scan_codes(codes, sample_ids=ids)
        assert [r.to_dict() for r in result.reports] == \
            [r.to_dict() for r in singles]
    assert result.cache_stats.hit_rate == 1.0
    assert result.num_scanned == len(codes)
    assert result.elapsed_seconds > 0.0
    detector.pipeline.set_graph_cache(None)


@pytest.mark.parametrize(
    "path", ["fresh", "memory-hit", "disk-hit", "two-shards"])
def test_explain_reports_identical_across_lowering_paths(
        trained_detector, tiny_evm_corpus, tmp_path, path):
    """With explain on, notes come from the CFG lowering just built, or
    from one CFG build on a graph-cache hit; every path must reproduce a
    fresh single-contract scan byte for byte."""
    trained_detector.save(tmp_path / "model")
    detector = ScamDetector.load(tmp_path / "model", explain=True)
    codes = [sample.bytecode for sample in tiny_evm_corpus[:8]]
    ids = [sample.sample_id for sample in tiny_evm_corpus[:8]]
    expected = [detector.scan(code, sample_id=sample_id).to_json()
                for code, sample_id in zip(codes, ids)]
    assert all(json.loads(report)["notes"] for report in expected)

    if path == "fresh":
        result = detector.scan_many(codes, sample_ids=ids)
    elif path == "memory-hit":
        cache = GraphCache.for_config(detector.config)
        detector.scan_many(codes, sample_ids=ids, cache=cache)
        result = detector.scan_many(codes, sample_ids=ids, cache=cache)
        assert result.cache_stats.misses == 0
        assert result.cache_stats.disk_hits == 0
    elif path == "disk-hit":
        disk_dir = tmp_path / "cache"
        detector.scan_many(codes, sample_ids=ids, cache=GraphCache.for_config(
            detector.config, disk_dir=disk_dir))
        reopened = GraphCache.for_config(detector.config, disk_dir=disk_dir)
        result = detector.scan_many(codes, sample_ids=ids, cache=reopened)
        assert result.cache_stats.misses == 0
        assert result.cache_stats.disk_hits > 0
    else:
        result = detector.scan_many(codes, sample_ids=ids, shards=2)
        assert result.num_workers == 2
    assert [report.to_json() for report in result.reports] == expected


def test_scan_many_and_summary_fields(trained_detector, tiny_evm_corpus):
    detector = trained_detector
    result = detector.scan_many([s.bytecode for s in tiny_evm_corpus[:6]])
    assert result.num_scanned == 6
    assert result.reports[0].sample_id == "contract-0000"
    assert "throughput" in result.format()


def test_scan_many_restores_previous_cache(trained_detector, tiny_evm_corpus):
    detector = trained_detector
    assert detector.pipeline.graph_cache is None
    cache = GraphCache.for_config(FAST)
    detector.scan_many([tiny_evm_corpus[0].bytecode], cache=cache)
    # the throwaway scanner must not leave its cache attached
    assert detector.pipeline.graph_cache is None
    assert cache.stats.lookups == 1


def test_scan_many_sequential_workers(trained_detector, tiny_evm_corpus):
    detector = trained_detector
    result = detector.scan_many([s.bytecode for s in tiny_evm_corpus[:4]])
    assert result.num_workers == 1
    assert result.num_scanned == 4


def test_coerce_bytecode_accepts_wrapped_hex(trained_detector, tiny_evm_corpus):
    from repro.core.detector import coerce_bytecode

    code = tiny_evm_corpus[0].bytecode
    hex_text = code.hex()
    wrapped = "0x" + "\n".join(hex_text[i:i + 32]
                               for i in range(0, len(hex_text), 32)) + "\n"
    assert coerce_bytecode(wrapped) == code


def test_scan_directory(trained_detector, tiny_evm_corpus, tmp_path):
    detector = trained_detector
    feed = tmp_path / "feed"
    feed.mkdir()
    (feed / "a.hex").write_text("0x" + tiny_evm_corpus[0].bytecode.hex())
    (feed / "b.bin").write_bytes(tiny_evm_corpus[1].bytecode)
    (feed / ".hidden").write_bytes(b"\x00")
    (feed / "entry.npz").write_bytes(b"not a contract")
    (feed / DISK_META_FILENAME).write_text("{}")
    result = detector.scan_directory(feed)
    assert sorted(r.sample_id for r in result.reports) == ["a.hex", "b.bin"]
    expected = detector.scan(tiny_evm_corpus[0].bytecode, sample_id="a.hex")
    got = next(r for r in result.reports if r.sample_id == "a.hex")
    assert got.to_dict() == expected.to_dict()


def test_scan_directory_skips_bad_inputs_with_warning(trained_detector,
                                                      tiny_evm_corpus,
                                                      tmp_path, monkeypatch):
    import pathlib

    feed = tmp_path / "feed"
    feed.mkdir()
    (feed / "good.bin").write_bytes(tiny_evm_corpus[0].bytecode)
    (feed / "broken.hex").write_text("this is not hex")
    (feed / "empty.bin").write_bytes(b"")
    (feed / "locked.bin").write_bytes(tiny_evm_corpus[1].bytecode)

    # simulate an unreadable file (chmod is useless when tests run as root)
    original_read_bytes = pathlib.Path.read_bytes

    def read_bytes(self):
        if self.name == "locked.bin":
            raise PermissionError(13, "Permission denied")
        return original_read_bytes(self)

    monkeypatch.setattr(pathlib.Path, "read_bytes", read_bytes)
    with pytest.warns(UserWarning) as warned:
        result = trained_detector.scan_directory(feed)
    # one corrupt submission must not abort the batch
    assert [r.sample_id for r in result.reports] == ["good.bin"]
    assert len(result.skipped) == 3
    assert any("broken.hex" in entry for entry in result.skipped)
    assert any("empty" in entry for entry in result.skipped)
    assert any("locked.bin" in entry for entry in result.skipped)
    assert len(warned) == 3
    assert "skipped 3 unreadable inputs" in result.format()


def test_batch_result_stats_dict_schema(trained_detector, tiny_evm_corpus):
    scanner = BatchScanner(trained_detector, inference_batch_size=4)
    result = scanner.scan_codes([s.bytecode for s in tiny_evm_corpus[:10]])
    stats = result.stats_dict()
    assert stats["contracts"] == 10
    assert stats["malicious"] + stats["benign"] == 10
    assert stats["contracts_per_second"] > 0.0
    # 10 contracts at inference_batch_size=4 -> batches of 4, 4, 2
    assert result.batch_sizes == {4: 2, 2: 1}
    assert stats["batches"] == {"count": 3, "max_size": 4, "coalesced": 3,
                                "histogram": {"2": 1, "4": 2}}
    assert set(stats["cache"]) == {"hits", "misses", "lookups", "hit_rate",
                                   "evictions", "disk_hits", "disk_writes",
                                   "stale_purges", "disk_corrupt"}


def test_batch_scanner_requires_trained_detector():
    with pytest.raises(RuntimeError, match="trained"):
        BatchScanner(ScamDetector(FAST))


def test_batch_scanner_rejected_cache_is_not_attached(trained_detector):
    previous = trained_detector.pipeline.graph_cache
    with pytest.raises(ValueError, match="fingerprint"):
        BatchScanner(trained_detector, cache=GraphCache("another"))
    assert trained_detector.pipeline.graph_cache is previous


def test_batch_scanner_empty_input(trained_detector):
    result = BatchScanner(trained_detector).scan_codes([])
    assert result.num_scanned == 0
    assert result.contracts_per_second == 0.0


# --------------------------------------------------------------------------- #
# CLI


def test_cli_scan_batch(trained_detector, tiny_evm_corpus, tmp_path, capsys):
    from repro.cli import main

    model_path = tmp_path / "model"
    trained_detector.save(model_path)
    feed = tmp_path / "feed"
    feed.mkdir()
    for sample in tiny_evm_corpus[:5]:
        (feed / f"{sample.sample_id}.bin").write_bytes(sample.bytecode)

    exit_code = main(["scan-batch", "--model-path", str(model_path),
                      "--input-dir", str(feed),
                      "--cache-dir", str(tmp_path / "cache")])
    output = capsys.readouterr().out
    assert "scanned 5 contracts" in output
    assert "throughput:" in output
    # verdict-coded exit status: 0 all benign, 2 anything malicious
    assert exit_code in (0, 2)

    # warm run against the persistent cache tier reports full hit rate
    exit_code = main(["scan-batch", "--model-path", str(model_path),
                      "--input-dir", str(feed),
                      "--cache-dir", str(tmp_path / "cache")])
    output = capsys.readouterr().out
    assert "hit_rate=100.0%" in output
    assert "disk_hits=5" in output


# --------------------------------------------------------------------------- #
# persistence round-trip with fingerprints


def test_persistence_roundtrip_identical_verdicts(trained_detector,
                                                  tiny_evm_corpus, tmp_path):
    detector = trained_detector
    path = tmp_path / "model"
    detector.save(path)
    metadata = json.loads((tmp_path / "model.json").read_text())
    assert metadata["graph_fingerprint"] == FAST.graph_fingerprint()

    reloaded = ScamDetector.load(path, explain=False)
    for sample in tiny_evm_corpus[:8]:
        before = detector.scan(sample.bytecode, sample_id=sample.sample_id)
        after = reloaded.scan(sample.bytecode, sample_id=sample.sample_id)
        assert before.to_dict() == after.to_dict()


def test_load_rejects_stale_bundle_fingerprint(trained_detector, tmp_path):
    path = tmp_path / "model"
    trained_detector.save(path)
    metadata = json.loads((tmp_path / "model.json").read_text())
    metadata["graph_fingerprint"] = "0" * 16
    (tmp_path / "model.json").write_text(json.dumps(metadata))
    with pytest.raises(PersistenceError, match="fingerprint"):
        load_pipeline(path)


def test_load_attaches_matching_cache(trained_detector, tiny_evm_corpus,
                                      tmp_path):
    path = tmp_path / "model"
    save_pipeline(trained_detector.pipeline, path)
    cache = GraphCache.for_config(FAST)
    pipeline = load_pipeline(path, graph_cache=cache)
    assert pipeline.graph_cache is cache
    pipeline.sample_to_graph(tiny_evm_corpus[0])
    assert cache.stats.misses == 1

    mismatched = GraphCache.for_config(ScamDetectConfig(max_nodes=64))
    with pytest.raises(PersistenceError, match="fingerprint"):
        load_pipeline(path, graph_cache=mismatched)

"""Oracle parity and crash recovery for the multi-process sharded engine.

The contract under test: whatever the shard count, whatever the cache
temperature, whatever workers die along the way, a sharded scan's verdicts
and probabilities are byte-identical to single-process
``ScamDetector.scan`` -- and every input id comes back exactly once.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.config import ScamDetectConfig
from repro.core.detector import ScamDetector
from repro.datasets.generator import CorpusGenerator, GeneratorConfig
from repro.resilience import FaultPlan, FaultSpec, fault_plan
from repro.service import BatchScanner, ShardedScanner
from repro.service.sharded import shard_for_bytecode

FAST = ScamDetectConfig(epochs=3, num_layers=1, hidden_features=8)


@pytest.fixture(scope="module")
def mixed_corpus(tiny_evm_corpus):
    """EVM + WASM samples interleaved, so every shard sees both platforms."""
    wasm = CorpusGenerator(GeneratorConfig(
        platform="wasm", num_samples=16, label_noise=0.0,
        seed=29)).generate("tiny-wasm")
    samples = list(tiny_evm_corpus) + list(wasm)
    samples.sort(key=lambda sample: sample.sample_id)
    return samples


@pytest.fixture(scope="module")
def trained_detector(tiny_evm_corpus):
    detector = ScamDetector(FAST, explain=False)
    detector.train(tiny_evm_corpus)
    return detector


@pytest.fixture(scope="module")
def oracle(trained_detector, mixed_corpus):
    """Single-process scan() verdicts, the ground truth for every parity
    assertion below."""
    return [trained_detector.scan(sample.bytecode, platform=sample.platform,
                                  sample_id=sample.sample_id)
            for sample in mixed_corpus]


def assert_reports_identical(oracle_reports, reports):
    assert len(reports) == len(oracle_reports)
    for single, sharded in zip(oracle_reports, reports):
        assert single.to_dict() == sharded.to_dict()


# --------------------------------------------------------------------------- #
# partitioning


def test_shard_partition_deterministic_and_in_range():
    for shards in (1, 2, 4):
        for payload in (b"", b"\x60\x00", b"\x00asm\x01\x00\x00\x00"):
            first = shard_for_bytecode(payload, shards)
            assert 0 <= first < shards
            assert shard_for_bytecode(payload, shards) == first


# --------------------------------------------------------------------------- #
# verdict parity across shard counts


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_verdicts_match_oracle(trained_detector, mixed_corpus,
                                       oracle, shards):
    with ShardedScanner(trained_detector, shards=shards,
                        chunk_size=4) as scanner:
        result = scanner.scan_codes(
            [sample.bytecode for sample in mixed_corpus],
            sample_ids=[sample.sample_id for sample in mixed_corpus])
    assert_reports_identical(oracle, result.reports)
    assert result.num_workers == shards
    assert set(result.shard_stats) == {f"shard-{i}" for i in range(shards)}
    assert sum(entry["contracts"] for entry in result.shard_stats.values()) \
        == len(mixed_corpus)


def test_sharded_warm_cache_parity(trained_detector, mixed_corpus, oracle,
                                   tmp_path):
    """A shared on-disk tier, filled by one pool and read by another (with a
    different shard count), must change throughput only, never verdicts."""
    cache_dir = tmp_path / "shared-cache"
    codes = [sample.bytecode for sample in mixed_corpus]
    ids = [sample.sample_id for sample in mixed_corpus]
    with ShardedScanner(trained_detector, shards=2, chunk_size=4,
                        cache_dir=cache_dir) as scanner:
        cold = scanner.scan_codes(codes, sample_ids=ids)
        warm_same_pool = scanner.scan_codes(codes, sample_ids=ids)
    assert cold.cache_stats.misses == len(mixed_corpus)
    assert warm_same_pool.cache_stats.hit_rate == 1.0
    assert_reports_identical(oracle, cold.reports)
    assert_reports_identical(oracle, warm_same_pool.reports)

    # a *fresh* pool with a different shard count re-reads every entry
    # across a process boundary
    with ShardedScanner(trained_detector, shards=4, chunk_size=4,
                        cache_dir=cache_dir) as scanner:
        warm_cross_process = scanner.scan_codes(codes, sample_ids=ids)
    assert warm_cross_process.cache_stats.disk_hits == len(mixed_corpus)
    assert warm_cross_process.cache_stats.hit_rate == 1.0
    assert_reports_identical(oracle, warm_cross_process.reports)


def test_batch_scanner_shards_path(trained_detector, mixed_corpus, oracle):
    """``BatchScanner(shards=N)`` routes through the pool and reports
    per-shard stats in the shared schema."""
    with BatchScanner(trained_detector, shards=2) as scanner:
        result = scanner.scan_codes(
            [sample.bytecode for sample in mixed_corpus],
            sample_ids=[sample.sample_id for sample in mixed_corpus])
        stats = result.stats_dict()
    assert_reports_identical(oracle, result.reports)
    assert set(stats["shards"]) == {"shard-0", "shard-1"}
    for entry in stats["shards"].values():
        assert {"contracts", "cache", "batches", "restarts"} <= set(entry)


def test_batch_scanner_warns_on_unshareable_memory_cache(trained_detector,
                                                         mixed_corpus):
    """A memory-only cache cannot cross the pool boundary; attaching one
    with shards >= 2 must warn instead of silently scanning cold."""
    from repro.service import GraphCache

    cache = GraphCache.for_config(trained_detector.config)
    with BatchScanner(trained_detector, cache=cache, shards=2) as scanner:
        with pytest.warns(UserWarning, match="no disk tier"):
            scanner.scan_codes([mixed_corpus[0].bytecode])
    trained_detector.pipeline.set_graph_cache(None)


def test_scan_many_shards_roundtrip(trained_detector, mixed_corpus, oracle):
    result = trained_detector.scan_many(
        [sample.bytecode for sample in mixed_corpus],
        sample_ids=[sample.sample_id for sample in mixed_corpus], shards=2)
    assert_reports_identical(oracle, result.reports)


# --------------------------------------------------------------------------- #
# crash recovery


def test_worker_crash_requeues_without_loss(trained_detector, mixed_corpus,
                                            oracle):
    """Kill one worker mid-batch: the chunk it was holding is requeued onto
    a respawned replica; no id is lost, none is duplicated, and every
    verdict still matches the oracle."""
    codes = [sample.bytecode for sample in mixed_corpus]
    ids = [sample.sample_id for sample in mixed_corpus]
    crash_once = FaultPlan(specs=(
        FaultSpec(site="shard.worker.*", kind="crash", max_fires=1),))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with fault_plan(crash_once), \
                ShardedScanner(trained_detector, shards=2,
                               chunk_size=4) as scanner:
            result = scanner.scan_codes(codes, sample_ids=ids)
            assert scanner.restarts == 1
    assert any("respawning and requeueing" in str(entry.message)
               for entry in caught)
    # exactly the input ids, in input order -- nothing lost or duplicated
    assert [report.sample_id for report in result.reports] == ids
    assert_reports_identical(oracle, result.reports)
    assert sum(entry["restarts"] for entry in result.shard_stats.values()) == 1


def test_sharded_scanner_empty_and_validation(trained_detector):
    with ShardedScanner(trained_detector, shards=2) as scanner:
        result = scanner.scan_codes([])
        assert result.reports == [] and result.num_workers == 2
    with pytest.raises(ValueError, match="shards"):
        ShardedScanner(trained_detector, shards=0)
    with pytest.raises(RuntimeError, match="trained"):
        ShardedScanner(ScamDetector(FAST), shards=2)


def test_sharded_scan_directory(trained_detector, tiny_evm_corpus, oracle,
                                tmp_path):
    """Directory scans shard too, with the same skip rules as BatchScanner."""
    scan_dir = tmp_path / "submissions"
    scan_dir.mkdir()
    for sample in tiny_evm_corpus[:8]:
        (scan_dir / f"{sample.sample_id}.hex").write_text(
            sample.bytecode.hex())
    (scan_dir / "broken.hex").write_text("zz-not-hex")
    with ShardedScanner(trained_detector, shards=2, chunk_size=3) as scanner:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = scanner.scan_directory(scan_dir)
    assert len(result.reports) == 8
    assert result.skipped and "broken.hex" in result.skipped[0]
    expected = {f"{sample.sample_id}.hex" for sample in tiny_evm_corpus[:8]}
    assert {report.sample_id for report in result.reports} == expected

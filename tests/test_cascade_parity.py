"""Cascade fidelity: tier-0 short-circuits must never change a verdict.

The contract under test, across every scan entry point (single-contract
``scan``, ``BatchScanner``, the sharded pool at 1 and 2 shards, the scan
server's coalesced batch path, and a watch backfill followed by a registry
query):

* every contract the cascade escalates produces a report *byte-identical*
  to the GNN-only report for the same bytecode;
* every contract the cascade short-circuits is one the GNN would have
  called benign anyway (equal recall -- zero disagreements);
* escalated contracts are GNN-scored exactly once (no double inference);
* ``stage: "prefilter"`` survives a round-trip through the SQLite registry.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import ScamDetectConfig
from repro.core.detector import ScamDetector
from repro.datasets.corpus import Corpus
from repro.datasets.generator import CorpusGenerator, GeneratorConfig
from repro.ingest import EventIngestService
from repro.registry import ScanRegistry, content_sha256
from repro.service import BatchScanner, ServerClient, ShardedScanner
from repro.service.server import ScanServer

#: Strong enough that the tiny GNN actually separates its training set --
#: an under-trained model whose scores all hover at 0.5 would flip labels
#: on noise, which is a model-quality problem, not a cascade bug.
PARITY = ScamDetectConfig(epochs=15, num_layers=1, hidden_features=16)


def canonical(report_dict):
    """The byte-level form parity is asserted on."""
    return json.dumps(report_dict, sort_keys=True)


@pytest.fixture(scope="module")
def training_corpus():
    evm = CorpusGenerator(GeneratorConfig(
        platform="evm", num_samples=36, label_noise=0.0,
        seed=17)).generate("parity-evm")
    wasm = CorpusGenerator(GeneratorConfig(
        platform="wasm", num_samples=24, label_noise=0.0,
        seed=29)).generate("parity-wasm")
    return Corpus(list(evm) + list(wasm), name="parity-train")


@pytest.fixture(scope="module")
def scan_corpus(training_corpus):
    """Scans run over the calibration corpus itself (the E12 protocol):
    threshold-at-target-recall only *guarantees* zero short-circuited
    positives on the corpus the thresholds were fitted to, so that is
    where the zero-disagreement fidelity claim is a hard invariant rather
    than a statistical one.  Entry-point parity (every cascade-on path
    byte-identical to cascade-on ``scan``) must hold for any corpus."""
    return list(training_corpus)


@pytest.fixture(scope="module")
def detector(training_corpus):
    built = ScamDetector(PARITY, explain=False, cascade=True)
    built.train(training_corpus, cascade=True)
    return built


@pytest.fixture(scope="module")
def cascade_oracle(detector, scan_corpus):
    """Single-contract ``scan`` verdicts with the cascade on: the ground
    truth every other cascade entry point is compared against."""
    assert detector.cascade
    return [detector.scan(sample.bytecode, platform=sample.platform,
                          sample_id=sample.sample_id)
            for sample in scan_corpus]


@pytest.fixture(scope="module")
def gnn_oracle(detector, scan_corpus):
    """The same scans with the cascade toggled off (identical weights and
    thresholds -- only tier 0 differs)."""
    detector.cascade = False
    try:
        return [detector.scan(sample.bytecode, platform=sample.platform,
                              sample_id=sample.sample_id)
                for sample in scan_corpus]
    finally:
        detector.cascade = True


def assert_byte_identical(oracle_reports, reports):
    assert len(reports) == len(oracle_reports)
    for expected, actual in zip(oracle_reports, reports):
        expected = expected if isinstance(expected, dict) else \
            expected.to_dict()
        actual = actual if isinstance(actual, dict) else actual.to_dict()
        assert canonical(actual) == canonical(expected)


# --------------------------------------------------------------------------- #
# cascade-on vs cascade-off


def test_both_cascade_paths_are_exercised(cascade_oracle):
    stages = {report.stage for report in cascade_oracle}
    assert stages == {"prefilter", "gnn"}  # corpus hits both tiers


def test_cascade_never_changes_a_verdict(cascade_oracle, gnn_oracle,
                                         detector):
    """Equal recall: label parity on every contract, and escalated reports
    are byte-identical to the GNN-only run."""
    for with_cascade, gnn_only in zip(cascade_oracle, gnn_oracle):
        assert with_cascade.label == gnn_only.label
        if with_cascade.stage == "gnn":
            # the escalated band went through the exact same scoring path
            assert canonical(with_cascade.to_dict()) == \
                canonical(gnn_only.to_dict())
        else:
            # short-circuited: confident-benign by construction, and the
            # GNN agrees (that is the zero-disagreement fidelity claim)
            assert with_cascade.label == 0 == gnn_only.label
            assert with_cascade.malicious_probability < detector.threshold
            assert with_cascade.cfg_blocks == 0  # no lowering happened


# --------------------------------------------------------------------------- #
# batch scanner


def test_batch_scanner_parity_and_single_scoring(detector, scan_corpus,
                                                 cascade_oracle):
    with BatchScanner(detector) as scanner:
        result = scanner.scan_codes(
            [sample.bytecode for sample in scan_corpus],
            sample_ids=[sample.sample_id for sample in scan_corpus])
    assert_byte_identical(cascade_oracle, result.reports)

    short_circuits = sum(
        1 for report in cascade_oracle if report.stage == "prefilter")
    stats = result.cascade_stats
    assert stats == {
        "short_circuits": short_circuits,
        "escalations": len(scan_corpus) - short_circuits,
        "disagreements": 0,
    }
    assert result.stats_dict()["cascade"] == stats
    # escalated contracts are GNN-scored exactly once: the graphs pushed
    # through inference add up to the escalation count, nothing more
    inferred = sum(int(size) * count
                   for size, count in result.batch_sizes.items())
    assert inferred == stats["escalations"]


def test_batch_scanner_without_cascade_reports_no_stats(detector,
                                                        scan_corpus,
                                                        gnn_oracle):
    detector.cascade = False
    try:
        with BatchScanner(detector) as scanner:
            result = scanner.scan_codes(
                [sample.bytecode for sample in scan_corpus],
                sample_ids=[sample.sample_id for sample in scan_corpus])
    finally:
        detector.cascade = True
    assert result.cascade_stats is None
    assert "cascade" not in result.stats_dict()
    assert_byte_identical(gnn_oracle, result.reports)


# --------------------------------------------------------------------------- #
# sharded pool


@pytest.mark.parametrize("shards", [1, 2])
def test_sharded_parity(detector, scan_corpus, cascade_oracle, shards):
    with ShardedScanner(detector, shards=shards, chunk_size=4) as scanner:
        result = scanner.scan_codes(
            [sample.bytecode for sample in scan_corpus],
            sample_ids=[sample.sample_id for sample in scan_corpus])
    assert_byte_identical(cascade_oracle, result.reports)
    short_circuits = sum(
        1 for report in cascade_oracle if report.stage == "prefilter")
    assert result.cascade_stats == {
        "short_circuits": short_circuits,
        "escalations": len(scan_corpus) - short_circuits,
        "disagreements": 0,
    }


def test_scan_many_shards_roundtrip(detector, scan_corpus, cascade_oracle):
    """The high-level entry point threads the cascade flags through
    BatchScanner into the pool."""
    result = detector.scan_many(
        [sample.bytecode for sample in scan_corpus],
        sample_ids=[sample.sample_id for sample in scan_corpus], shards=2)
    assert_byte_identical(cascade_oracle, result.reports)
    assert result.cascade_stats["disagreements"] == 0


# --------------------------------------------------------------------------- #
# scan server (coalesced batch path)


def test_server_coalesced_parity_and_metrics(detector, scan_corpus,
                                             cascade_oracle):
    with ScanServer(detector, port=0, workers=8, max_batch=8) as server:
        client = ServerClient(port=server.port)
        client.wait_until_ready(timeout=10.0)
        health = client.healthz()
        assert health["cascade"]["margin"] == \
            detector.effective_cascade_margin()
        response = client.scan_batch(
            [sample.bytecode for sample in scan_corpus],
            sample_ids=[sample.sample_id for sample in scan_corpus])
        assert_byte_identical(cascade_oracle, response["reports"])

        short_circuits = sum(
            1 for report in cascade_oracle if report.stage == "prefilter")
        scans = client.metrics()["scans"]
        assert scans["cascade"] == {
            "short_circuits": short_circuits,
            "escalations": len(scan_corpus) - short_circuits,
            "disagreements": 0,
        }
        # single-contract requests agree with the batch endpoint too
        sample = scan_corpus[0]
        served = client.scan(sample.bytecode, sample_id=sample.sample_id)
        assert canonical(served) == canonical(cascade_oracle[0].to_dict())


# --------------------------------------------------------------------------- #
# watch (the ingest service) -> registry query


def test_watch_then_query_byte_identical(detector, scan_corpus, tmp_path):
    feed = tmp_path / "feed"
    feed.mkdir()
    for sample in scan_corpus:
        (feed / f"{sample.sample_id}.bin").write_bytes(sample.bytecode)

    with ScanRegistry.for_config(tmp_path / "verdicts.db",
                                 detector.config) as registry:
        with EventIngestService(detector, registry, roots=[feed],
                                backend="poll") as service:
            stats = service.backfill()
        assert stats.scanned == len(scan_corpus)
        assert stats.short_circuits > 0
        assert stats.short_circuits + stats.escalations == len(scan_corpus)
        assert stats.disagreements == 0
        assert "cascade" in stats.format()

        oracle = {f"{sample.sample_id}.bin": detector.scan(
            sample.bytecode, platform=sample.platform,
            sample_id=f"{sample.sample_id}.bin") for sample in scan_corpus}
        rows = {row.source_path: row for row in registry.query(limit=None)}
        assert len(rows) == len(oracle)
        stages = set()
        for source_path, report in oracle.items():
            stored = rows[source_path].to_report()
            assert canonical(stored.to_dict()) == canonical(report.to_dict())
            stages.add(stored.stage)
        # schema v3: the stage column round-trips both provenances
        assert stages == {"prefilter", "gnn"}


def test_registry_stage_column_roundtrip(detector, scan_corpus, tmp_path):
    """A prefilter verdict recorded today is served back as a prefilter
    verdict forever -- byte-identical, stage included."""
    sample = scan_corpus[0]
    report = detector.build_prefilter_report(
        sample.bytecode, sample.sample_id, sample.platform, 0.01)
    assert report.stage == "prefilter"
    with ScanRegistry.for_config(tmp_path / "stage.db",
                                 detector.config) as registry:
        sha = content_sha256(sample.bytecode)
        assert registry.record(sha, report,
                               model_identity=detector.model_identity())
        row = registry.get(sha)
        assert row.stage == "prefilter"
        assert canonical(row.to_report().to_dict()) == \
            canonical(report.to_dict())
        # and the default stage for pre-v3 rows stays "gnn"
        gnn_report = detector.scan(scan_corpus[1].bytecode,
                                   platform=scan_corpus[1].platform,
                                   sample_id=scan_corpus[1].sample_id)
        if gnn_report.stage == "gnn":
            sha_gnn = content_sha256(scan_corpus[1].bytecode)
            registry.record(sha_gnn, gnn_report,
                            model_identity=detector.model_identity())
            assert registry.get(sha_gnn).stage == "gnn"

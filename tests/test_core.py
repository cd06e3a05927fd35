"""Tests for the ScamDetect core: frontends, config, pipeline, detector, reports."""

import numpy as np
import pytest

from repro import ScamDetectConfig, ScamDetector
from repro.core.frontends import (
    EVMFrontend,
    FRONTEND_REGISTRY,
    WasmFrontend,
    detect_platform,
    get_frontend,
)
from repro.core.pipeline import ScamDetectPipeline
from repro.core.report import ScanSummary, VerdictReport
from repro.datasets.generator import CorpusGenerator, GeneratorConfig
from repro.evm.contracts import TEMPLATES_BY_NAME, make_minimal_proxy
from repro.wasm.contracts import WASM_TEMPLATES_BY_NAME


# -------------------------------------------------------------------------- #
# frontends


def test_frontend_registry_and_lookup():
    assert set(FRONTEND_REGISTRY) == {"evm", "wasm"}
    assert isinstance(get_frontend("EVM"), EVMFrontend)
    assert isinstance(get_frontend("wasm"), WasmFrontend)
    with pytest.raises(KeyError):
        get_frontend("solana")


def test_platform_sniffing(rng):
    evm_code = TEMPLATES_BY_NAME["erc20_token"].generate(rng)
    wasm_code = WASM_TEMPLATES_BY_NAME["wasm_token"].generate(rng)
    assert detect_platform(evm_code) == "evm"
    assert detect_platform(wasm_code) == "wasm"
    assert detect_platform("0x" + evm_code.hex()) == "evm"
    with pytest.raises(ValueError):
        detect_platform("not-hex")


def test_frontends_lower_to_shared_ir(rng):
    evm_code = TEMPLATES_BY_NAME["staking_vault"].generate(rng)
    wasm_code = WASM_TEMPLATES_BY_NAME["wasm_token"].generate(rng)
    evm_instructions = get_frontend("evm").lower(evm_code)
    wasm_instructions = get_frontend("wasm").lower(wasm_code)
    assert {i.platform for i in evm_instructions} == {"evm"}
    assert {i.platform for i in wasm_instructions} == {"wasm"}
    shared_categories = ({i.category for i in evm_instructions}
                         & {i.category for i in wasm_instructions})
    assert "storage" in shared_categories
    assert "call" in shared_categories


# -------------------------------------------------------------------------- #
# configuration


def test_config_validation():
    ScamDetectConfig().validate()
    with pytest.raises(ValueError):
        ScamDetectConfig(architecture="transformer").validate()
    with pytest.raises(ValueError):
        ScamDetectConfig(readout="median").validate()
    with pytest.raises(ValueError):
        ScamDetectConfig(num_layers=0).validate()
    with pytest.raises(ValueError):
        ScamDetectConfig(dropout=1.5).validate()
    with pytest.raises(ValueError):
        ScamDetectConfig(node_feature_mode="raw").validate()


def test_config_dict_roundtrip():
    config = ScamDetectConfig(architecture="gat", epochs=7, readout="max")
    restored = ScamDetectConfig.from_dict(config.to_dict())
    assert restored == config
    # unknown keys are ignored
    assert ScamDetectConfig.from_dict({"architecture": "gin", "bogus": 1}).architecture == "gin"


# -------------------------------------------------------------------------- #
# pipeline + detector


@pytest.fixture(scope="module")
def trained_detector():
    corpus = CorpusGenerator(GeneratorConfig(num_samples=40, label_noise=0.0,
                                             seed=21)).generate()
    detector = ScamDetector(ScamDetectConfig(epochs=12, hidden_features=16))
    detector.train(corpus)
    return detector, corpus


def test_pipeline_requires_fit_before_use():
    pipeline = ScamDetectPipeline(ScamDetectConfig(epochs=1))
    corpus = CorpusGenerator(GeneratorConfig(num_samples=4, seed=1)).generate()
    with pytest.raises(RuntimeError):
        pipeline.predict(corpus)
    with pytest.raises(RuntimeError):
        pipeline.model


def test_detector_scan_before_train_raises():
    with pytest.raises(RuntimeError):
        ScamDetector().scan(b"\x60\x01")


def test_detector_threshold_validation():
    with pytest.raises(ValueError):
        ScamDetector(threshold=0.0)


def test_detector_end_to_end_accuracy(trained_detector):
    detector, corpus = trained_detector
    metrics = detector.evaluate(corpus)
    assert metrics["accuracy"] >= 0.9
    assert set(metrics) == {"accuracy", "precision", "recall", "f1", "roc_auc"}


def test_reports_walk_no_parameters_per_contract(trained_detector,
                                                 monkeypatch):
    # every report quotes the model description; building it must not walk
    # the parameters once per verdict
    from repro.autograd.module import Module

    detector, corpus = trained_detector
    codes = [sample.bytecode for sample in corpus]
    walks = []
    real_parameters = Module.parameters

    def counting(self):
        walks.append(self)
        return real_parameters(self)

    monkeypatch.setattr(Module, "parameters", counting)

    def walks_for(count):
        walks.clear()
        result = detector.scan_many(codes[:count])
        assert len(result.reports) == count
        return len(walks)

    assert walks_for(2) == walks_for(len(codes))
    model = detector.pipeline.model
    assert model.describe() == (
        f"gcn(layers=2, hidden=16, readout=mean, "
        f"params={sum(p.size for p in real_parameters(model))})")


def test_detector_scan_report_fields(trained_detector, rng):
    detector, _ = trained_detector
    code = TEMPLATES_BY_NAME["approval_drainer"].generate(rng)
    report = detector.scan(code, sample_id="suspicious")
    assert isinstance(report, VerdictReport)
    assert report.sample_id == "suspicious"
    assert report.platform == "evm"
    assert 0.0 <= report.malicious_probability <= 1.0
    assert report.cfg_blocks > 0
    assert report.verdict in ("benign", "malicious")
    assert "suspicious" in report.format()
    assert "verdict" in report.to_dict()
    assert report.to_json().startswith("{")


def test_detector_scan_accepts_hex_and_sniffs_platform(trained_detector, rng):
    detector, _ = trained_detector
    evm_code = TEMPLATES_BY_NAME["erc20_token"].generate(rng)
    wasm_code = WASM_TEMPLATES_BY_NAME["wasm_token"].generate(rng)
    assert detector.scan("0x" + evm_code.hex()).platform == "evm"
    assert detector.scan(wasm_code).platform == "wasm"


def test_detector_scan_flags_minimal_proxy(trained_detector):
    detector, _ = trained_detector
    report = detector.scan(make_minimal_proxy(0xABCDEF))
    assert any("ERC-1167" in note for note in report.notes)


def test_detector_scan_batch_and_summary(trained_detector, rng):
    detector, _ = trained_detector
    codes = [TEMPLATES_BY_NAME["erc20_token"].generate(rng),
             TEMPLATES_BY_NAME["approval_drainer"].generate(rng)]
    summary = detector.scan_batch(codes, sample_ids=["a", "b"])
    assert isinstance(summary, ScanSummary)
    assert summary.num_scanned == 2
    assert summary.num_malicious + summary.num_benign == 2
    assert "scanned 2 contracts" in summary.format()


def test_detector_scan_corpus(trained_detector):
    detector, corpus = trained_detector
    summary = detector.scan_corpus(corpus.subset(range(6)))
    assert summary.num_scanned == 6


def test_detector_discriminates_families(trained_detector, rng):
    """The trained detector must score drainers above benign tokens on average."""
    detector, _ = trained_detector
    benign_scores = [detector.scan(TEMPLATES_BY_NAME["erc20_token"].generate(rng)
                                   ).malicious_probability for _ in range(5)]
    malicious_scores = [detector.scan(TEMPLATES_BY_NAME["approval_drainer"].generate(rng)
                                      ).malicious_probability for _ in range(5)]
    assert np.mean(malicious_scores) > np.mean(benign_scores)


def test_pipeline_mixed_platform_training():
    evm = CorpusGenerator(GeneratorConfig(num_samples=16, label_noise=0.0,
                                          seed=31)).generate()
    wasm = CorpusGenerator(GeneratorConfig(platform="wasm", num_samples=16,
                                           label_noise=0.0, seed=32)).generate()
    from repro.datasets.corpus import Corpus
    mixed = Corpus(list(evm) + list(wasm), name="mixed")
    pipeline = ScamDetectPipeline(ScamDetectConfig(epochs=6, hidden_features=16))
    pipeline.fit(mixed)
    metrics = pipeline.evaluate(mixed)
    assert metrics["accuracy"] >= 0.7

"""Tests for risk indicators, model persistence and the CLI."""


import numpy as np
import pytest

from repro import ScamDetectConfig, ScamDetector
from repro.cli import build_parser, main
from repro.core.indicators import extract_indicators, format_indicators
from repro.core.persistence import PersistenceError, load_pipeline, save_pipeline
from repro.core.pipeline import ScamDetectPipeline
from repro.datasets.generator import CorpusGenerator, GeneratorConfig
from repro.evm.cfg_builder import build_cfg
from repro.evm.contracts import TEMPLATES_BY_NAME
from repro.wasm.cfg_builder import build_cfg as build_wasm_cfg
from repro.wasm.contracts import WASM_TEMPLATES_BY_NAME


# -------------------------------------------------------------------------- #
# indicators


def _indicator_names(cfg):
    return {indicator.name for indicator in extract_indicators(cfg)}


def test_drainer_triggers_origin_and_loop_indicators(rng):
    cfg = build_cfg(TEMPLATES_BY_NAME["approval_drainer"].generate(rng))
    names = _indicator_names(cfg)
    assert "origin-gated-control-flow" in names
    assert "external-call-in-loop" in names


def test_backdoor_triggers_delegatecall_indicator(rng):
    cfg = build_cfg(TEMPLATES_BY_NAME["backdoor_proxy"].generate(rng))
    names = _indicator_names(cfg)
    assert "delegated-execution" in names


def test_honeypot_triggers_selfdestruct_indicator(rng):
    cfg = build_cfg(TEMPLATES_BY_NAME["honeypot"].generate(rng))
    assert "self-destruct-path" in _indicator_names(cfg)


def test_benign_token_has_no_critical_indicators(rng):
    cfg = build_cfg(TEMPLATES_BY_NAME["erc20_token"].generate(rng))
    severities = {i.severity for i in extract_indicators(cfg)}
    assert "critical" not in severities


def test_wasm_backdoor_indicator(rng):
    cfg = build_wasm_cfg(WASM_TEMPLATES_BY_NAME["wasm_backdoor"].generate(rng))
    assert "delegated-execution" in _indicator_names(cfg)


def test_format_indicators_strings(rng):
    cfg = build_cfg(TEMPLATES_BY_NAME["honeypot"].generate(rng))
    lines = format_indicators(extract_indicators(cfg))
    assert all(line.startswith("[") for line in lines)
    assert any("self-destruct-path" in line for line in lines)


def test_empty_indicator_fallback():
    from repro.ir.cfg import ControlFlowGraph
    from repro.ir.basic_block import BasicBlock
    from repro.ir.instruction import IRInstruction
    cfg = ControlFlowGraph()
    cfg.add_block(BasicBlock(block_id=0, instructions=[
        IRInstruction(offset=0, mnemonic="ADD", category="arithmetic")]))
    assert _indicator_names(cfg) == {"no-structural-indicators"}


# -------------------------------------------------------------------------- #
# persistence


@pytest.fixture(scope="module")
def fitted_pipeline():
    corpus = CorpusGenerator(GeneratorConfig(num_samples=30, label_noise=0.0,
                                             seed=61)).generate()
    pipeline = ScamDetectPipeline(ScamDetectConfig(epochs=8, hidden_features=16))
    pipeline.fit(corpus)
    return pipeline, corpus


def test_save_load_pipeline_roundtrip(fitted_pipeline, tmp_path):
    pipeline, corpus = fitted_pipeline
    path = tmp_path / "model"
    save_pipeline(pipeline, path)
    restored = load_pipeline(path)
    original_probabilities = pipeline.predict_proba(corpus)
    restored_probabilities = restored.predict_proba(corpus)
    assert np.allclose(original_probabilities, restored_probabilities, atol=1e-9)
    assert restored.config == pipeline.config


def test_save_unfitted_pipeline_rejected(tmp_path):
    with pytest.raises(PersistenceError):
        save_pipeline(ScamDetectPipeline(ScamDetectConfig(epochs=1)), tmp_path / "m")


def test_load_missing_files_rejected(tmp_path):
    with pytest.raises(PersistenceError):
        load_pipeline(tmp_path / "does-not-exist")


def test_detector_save_load_scan_agreement(fitted_pipeline, tmp_path, rng):
    pipeline, _ = fitted_pipeline
    detector = ScamDetector(pipeline.config)
    detector.pipeline = pipeline
    path = tmp_path / "detector-model"
    detector.save(path)
    restored = ScamDetector.load(path)
    code = TEMPLATES_BY_NAME["approval_drainer"].generate(rng)
    assert restored.scan(code).malicious_probability == pytest.approx(
        detector.scan(code).malicious_probability, abs=1e-9)


# -------------------------------------------------------------------------- #
# CLI


def test_cli_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["corpus", "--num-samples", "10"])
    assert args.command == "corpus"
    args = parser.parse_args(["experiment", "--id", "E2"])
    assert args.id == "E2"
    args = parser.parse_args(["experiment", "--id", "E9"])
    assert args.id == "E9"
    args = parser.parse_args(["experiment", "--id", "E10"])
    assert args.id == "E10"
    args = parser.parse_args(["experiment", "--id", "E11"])
    assert args.id == "E11"
    args = parser.parse_args(["experiment", "--id", "E12"])
    assert args.id == "E12"
    args = parser.parse_args(["experiment", "--id", "E13"])
    assert args.id == "E13"
    args = parser.parse_args(["experiment", "--id", "E14"])
    assert args.id == "E14"
    args = parser.parse_args(["experiment", "--id", "E15"])
    assert args.id == "E15"
    args = parser.parse_args(["experiment", "--id", "E16"])
    assert args.id == "E16"
    with pytest.raises(SystemExit):
        parser.parse_args(["experiment", "--id", "E17"])
    args = parser.parse_args(["scan-batch", "--model-path", "m",
                              "--input-dir", "d", "--shards", "4",
                              "--trace-file", "t.jsonl", "--log-json"])
    assert args.shards == 4
    assert args.trace_file == "t.jsonl" and args.log_json
    args = parser.parse_args(["trace", "summarize", "t.jsonl",
                              "--top", "3", "--json"])
    assert (args.command == "trace" and args.trace_file == "t.jsonl"
            and args.top == 3 and args.json)
    args = parser.parse_args(["watch", "feed", "--model-path", "m",
                              "--registry", "r.db", "--max-polls", "3"])
    assert args.command == "watch" and args.max_polls == 3
    args = parser.parse_args(["query", "--registry", "r.db",
                              "--verdict", "malicious", "--json"])
    assert args.verdict == "malicious" and args.json
    args = parser.parse_args(["rules", "check", "triage.toml"])
    assert args.rules_file == "triage.toml"
    args = parser.parse_args(["triage", "triage.toml", "--registry", "r.db",
                              "--fingerprint", "fp", "--dry-run",
                              "--batch-size", "500"])
    assert (args.command == "triage" and args.rules_file == "triage.toml"
            and args.dry_run and args.batch_size == 500)
    args = parser.parse_args(["query", "--registry", "r.db",
                              "--page-size", "20", "--cursor", "abc"])
    assert args.page_size == 20 and args.cursor == "abc"
    # the server has no shard pool and no batch hold window: both flags
    # are usage errors there
    for flag in ("--shards", "--max-wait-ms"):
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "--model-path", "m", flag, "2"])


def test_cli_corpus_command(capsys):
    exit_code = main(["corpus", "--num-samples", "12", "--seed", "2"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "generated corpus" in output
    assert "family breakdown" in output


def test_cli_train_and_scan_roundtrip(tmp_path, capsys, rng):
    model_path = str(tmp_path / "cli-model")
    exit_code = main(["train", "--num-samples", "30", "--epochs", "6",
                      "--label-noise", "0.0", "--seed", "3",
                      "--model-path", model_path])
    assert exit_code == 0
    assert "model saved" in capsys.readouterr().out

    drainer_hex = tmp_path / "drainer.hex"
    drainer_hex.write_text("0x" + TEMPLATES_BY_NAME["approval_drainer"].generate(rng).hex())
    exit_code = main(["scan", "--model-path", model_path,
                      "--hex-file", str(drainer_hex), "--sample-id", "drainer"])
    output = capsys.readouterr().out
    assert "drainer" in output
    # verdict-coded exit status: 0 benign, 2 malicious (1 is reserved for
    # errors, so a pipeline can tell "scam found" from "scan failed")
    assert exit_code in (0, 2)
    assert exit_code == (2 if "verdict:     malicious" in output else 0)


def test_cli_scan_requires_input(tmp_path, fitted_pipeline):
    pipeline, _ = fitted_pipeline
    model_path = tmp_path / "m2"
    save_pipeline(pipeline, model_path)
    with pytest.raises(SystemExit):
        main(["scan", "--model-path", str(model_path)])

"""The E1-E9 experiment drivers (see DESIGN.md's experiment index).

Each ``run_*`` function generates its workload, trains the relevant models
and returns an :class:`~repro.evaluation.reporting.ExperimentResult`.  Default
configurations are sized to complete on a laptop in minutes; the benchmark
harness in ``benchmarks/`` calls these functions directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ScamDetectConfig
from repro.core.pipeline import ScamDetectPipeline
from repro.datasets.corpus import Corpus
from repro.datasets.dedup import deduplicate
from repro.datasets.generator import CorpusGenerator, GeneratorConfig
from repro.datasets.splits import stratified_split
from repro.evaluation.reporting import ExperimentResult
from repro.features.ngrams import NgramExtractor
from repro.features.opcode_histogram import OpcodeHistogramExtractor
from repro.gnn.model import GNN_ARCHITECTURES
from repro.ml.metrics import accuracy_score, classification_summary
from repro.ml.random_forest import RandomForestClassifier
from repro.obfuscation.evm_passes import (
    ConstantBlinding,
    ControlFlowFlattening,
    DeadCodeInjection,
    InstructionSubstitution,
    JunkSelectorInsertion,
    OpaquePredicateInsertion,
)
from repro.obfuscation.pipeline import EVMObfuscator, WasmObfuscator
from repro.phishinghook.framework import PhishingHookFramework

# Pass split used by the robustness experiments (E3/E4): detectors may be
# hardened with *opcode-level* obfuscation seen at training time, while the
# attacker deploys *structural* obfuscation the detector has never seen.
TRAIN_TIME_PASSES = (InstructionSubstitution(), ConstantBlinding())
UNSEEN_TEST_PASSES = (DeadCodeInjection(), OpaquePredicateInsertion(),
                      ControlFlowFlattening(), JunkSelectorInsertion())


# --------------------------------------------------------------------------- #
# shared helpers


def obfuscate_corpus(corpus: Corpus, intensity: float, seed: int,
                     passes: Optional[Sequence] = None,
                     platform: str = "evm") -> Corpus:
    """Element-wise obfuscation of a corpus at ``intensity`` (labels preserved)."""
    if intensity <= 0.0:
        return corpus
    rng = random.Random(seed)

    def transform(sample):
        if platform == "wasm" or sample.platform == "wasm":
            obfuscator = WasmObfuscator(intensity=intensity,
                                        seed=rng.randrange(1 << 30))
        else:
            obfuscator = EVMObfuscator(passes=passes, intensity=intensity,
                                       seed=rng.randrange(1 << 30))
        return obfuscator.obfuscate(sample.bytecode)

    return corpus.map_bytecode(transform, obfuscated=True, intensity=intensity,
                               name=f"{corpus.name}-obf{intensity:.2f}")


def _histogram_rf_baseline(train: Corpus, seed: int = 0):
    """Fit the strongest PhishingHook-style baseline (opcode histogram + RF)."""
    extractor = OpcodeHistogramExtractor(vocabulary="mnemonic")
    features = extractor.fit_transform(train)
    classifier = RandomForestClassifier(n_estimators=40, random_state=seed)
    classifier.fit(features, np.asarray(train.labels()))
    return extractor, classifier


def _ngram_rf_baseline(train: Corpus, seed: int = 0):
    """Fit the opcode-bigram + random-forest baseline."""
    extractor = NgramExtractor(n=2, top_k=192)
    features = extractor.fit_transform(train)
    classifier = RandomForestClassifier(n_estimators=40, random_state=seed)
    classifier.fit(features, np.asarray(train.labels()))
    return extractor, classifier


def _baseline_accuracy(extractor, classifier, corpus: Corpus) -> float:
    features = extractor.transform(corpus)
    return accuracy_score(np.asarray(corpus.labels()), classifier.predict(features))


def _baseline_metrics(extractor, classifier, corpus: Corpus) -> Dict[str, float]:
    """Full metric set (accuracy/precision/recall/F1/ROC-AUC) of a baseline.

    Baselines are scored with the same :func:`classification_summary` as the
    GNN pipelines so comparison tables never mix real numbers with NaN
    placeholders.
    """
    features = extractor.transform(corpus)
    labels = np.asarray(corpus.labels())
    probabilities = classifier.predict_proba(features)
    predictions = classifier.classes_[np.argmax(probabilities, axis=1)]
    return classification_summary(labels, predictions,
                                  scores=probabilities[:, 1])


def _fit_gnn(train: Corpus, architecture: str, epochs: int, seed: int,
             readout: str = "max", num_layers: int = 2,
             node_feature_mode: str = "presence",
             include_markers: bool = True,
             include_structural: bool = True) -> ScamDetectPipeline:
    """Fit one ScamDetect GNN pipeline with the experiment conventions."""
    config = ScamDetectConfig(architecture=architecture, epochs=epochs, seed=seed,
                              readout=readout, num_layers=num_layers,
                              node_feature_mode=node_feature_mode,
                              include_marker_features=include_markers,
                              include_structural_features=include_structural)
    return ScamDetectPipeline(config).fit(train)


def _augmented_training_corpus(train: Corpus, intensity: float, seed: int) -> Corpus:
    """Training corpus hardened with train-time (opcode-level) obfuscation."""
    augmented = obfuscate_corpus(train, intensity, seed, passes=TRAIN_TIME_PASSES)
    return Corpus(list(train) + list(augmented), name=f"{train.name}-augmented")


# --------------------------------------------------------------------------- #
# E1: the PhishingHook 16-model zoo ("Table 1")


@dataclass
class E1Config:
    """Workload of the E1 zoo benchmark."""

    num_samples: int = 280
    malicious_fraction: float = 0.5
    label_noise: float = 0.05
    folds: int = 5
    seed: int = 0
    entry_names: Optional[Sequence[str]] = None  # None = all 16 models


def run_e1_phishinghook_zoo(config: Optional[E1Config] = None) -> ExperimentResult:
    """E1: reproduce PhishingHook's ~90% average accuracy over the 16-model zoo."""
    config = config or E1Config()
    corpus = CorpusGenerator(GeneratorConfig(
        platform="evm", num_samples=config.num_samples,
        malicious_fraction=config.malicious_fraction,
        label_noise=config.label_noise, seed=config.seed)).generate("e1-corpus")
    framework = PhishingHookFramework(folds=config.folds, seed=config.seed)
    evaluations = framework.evaluate(corpus, entry_names=config.entry_names)

    result = ExperimentResult(
        experiment_id="E1",
        title="PhishingHook 16-model zoo, 5-fold CV on the EVM phishing corpus")
    for evaluation in evaluations:
        result.rows.append({
            "model": evaluation.name,
            "encoding": evaluation.encoding,
            "accuracy": evaluation.mean_metrics["accuracy"],
            "precision": evaluation.mean_metrics["precision"],
            "recall": evaluation.mean_metrics["recall"],
            "f1": evaluation.mean_metrics["f1"],
            "roc_auc": evaluation.mean_metrics["roc_auc"],
        })
    accuracies = [row["accuracy"] for row in result.rows]
    result.summary = {
        "average_accuracy": float(np.mean(accuracies)) if accuracies else float("nan"),
        "best_accuracy": float(np.max(accuracies)) if accuracies else float("nan"),
        "num_models": float(len(accuracies)),
        "corpus_size": float(len(corpus)),
    }
    result.notes.append("paper claim: ~90% average detection accuracy across 16 models")
    return result


# --------------------------------------------------------------------------- #
# E2: obfuscation degrades opcode-pattern classifiers ("Figure 1")


@dataclass
class E2Config:
    """Workload of the E2 degradation sweep."""

    num_samples: int = 240
    label_noise: float = 0.02
    test_fraction: float = 0.3
    intensities: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0)
    seed: int = 0


def run_e2_obfuscation_degradation(config: Optional[E2Config] = None) -> ExperimentResult:
    """E2: train opcode-sequence baselines on clean code, test under obfuscation."""
    config = config or E2Config()
    corpus = CorpusGenerator(GeneratorConfig(
        platform="evm", num_samples=config.num_samples,
        label_noise=config.label_noise, seed=config.seed)).generate("e2-corpus")
    train, test = stratified_split(corpus, config.test_fraction, seed=config.seed)

    histogram = _histogram_rf_baseline(train, seed=config.seed)
    bigram = _ngram_rf_baseline(train, seed=config.seed)

    result = ExperimentResult(
        experiment_id="E2",
        title="Accuracy of opcode-pattern baselines vs obfuscation intensity "
              "(clean-trained)")
    for intensity in config.intensities:
        obfuscated_test = obfuscate_corpus(test, intensity,
                                           seed=config.seed + int(intensity * 1000))
        result.rows.append({
            "intensity": float(intensity),
            "histogram_rf_accuracy": _baseline_accuracy(*histogram, obfuscated_test),
            "ngram_rf_accuracy": _baseline_accuracy(*bigram, obfuscated_test),
        })
    clean_row = result.rows[0]
    worst_row = result.rows[-1]
    result.summary = {
        "histogram_clean": clean_row["histogram_rf_accuracy"],
        "histogram_at_max_intensity": worst_row["histogram_rf_accuracy"],
        "histogram_drop": clean_row["histogram_rf_accuracy"] - worst_row["histogram_rf_accuracy"],
        "ngram_drop": clean_row["ngram_rf_accuracy"] - worst_row["ngram_rf_accuracy"],
    }
    result.notes.append("paper claim: emerging obfuscation techniques threaten the "
                        "reliability of static opcode-pattern detection")
    return result


# --------------------------------------------------------------------------- #
# E3: GNNs vs opcode baselines under unseen obfuscation ("Table 2")


@dataclass
class E3Config:
    """Workload of the E3 robustness table."""

    num_samples: int = 240
    label_noise: float = 0.02
    test_fraction: float = 0.3
    train_augmentation_intensity: float = 0.5
    test_intensity: float = 0.6
    epochs: int = 30
    architectures: Sequence[str] = GNN_ARCHITECTURES
    seed: int = 0


def run_e3_gnn_vs_baseline(config: Optional[E3Config] = None) -> ExperimentResult:
    """E3: clean vs obfuscated accuracy of the five GNNs and the opcode baselines.

    Both detector families are hardened with the *train-time* (opcode-level)
    obfuscation passes; the test set is obfuscated with the *unseen*
    structural passes, reproducing the deployment situation the paper
    motivates (attackers adopt obfuscation the detector was not trained on).
    """
    config = config or E3Config()
    corpus = CorpusGenerator(GeneratorConfig(
        platform="evm", num_samples=config.num_samples,
        label_noise=config.label_noise, seed=config.seed)).generate("e3-corpus")
    train, test = stratified_split(corpus, config.test_fraction, seed=config.seed)
    train_mixed = _augmented_training_corpus(train, config.train_augmentation_intensity,
                                             seed=config.seed + 17)
    obfuscated_test = obfuscate_corpus(test, config.test_intensity,
                                       seed=config.seed + 23,
                                       passes=UNSEEN_TEST_PASSES)

    result = ExperimentResult(
        experiment_id="E3",
        title=f"Clean vs unseen-obfuscation accuracy (test intensity "
              f"{config.test_intensity})")

    def add_row(name: str, clean_accuracy: float, obfuscated_accuracy: float) -> None:
        result.rows.append({
            "model": name,
            "clean_accuracy": clean_accuracy,
            "obfuscated_accuracy": obfuscated_accuracy,
            "accuracy_drop": clean_accuracy - obfuscated_accuracy,
        })

    histogram = _histogram_rf_baseline(train_mixed, seed=config.seed)
    add_row("histogram+random-forest",
            _baseline_accuracy(*histogram, test),
            _baseline_accuracy(*histogram, obfuscated_test))
    bigram = _ngram_rf_baseline(train_mixed, seed=config.seed)
    add_row("2gram+random-forest",
            _baseline_accuracy(*bigram, test),
            _baseline_accuracy(*bigram, obfuscated_test))

    for architecture in config.architectures:
        pipeline = _fit_gnn(train_mixed, architecture, config.epochs, config.seed)
        add_row(f"scamdetect-{architecture}",
                pipeline.evaluate(test)["accuracy"],
                pipeline.evaluate(obfuscated_test)["accuracy"])

    gnn_drops = [row["accuracy_drop"] for row in result.rows
                 if row["model"].startswith("scamdetect-")]
    baseline_drops = [row["accuracy_drop"] for row in result.rows
                      if not row["model"].startswith("scamdetect-")]
    result.summary = {
        "mean_gnn_drop": float(np.mean(gnn_drops)),
        "mean_baseline_drop": float(np.mean(baseline_drops)),
        "best_gnn_obfuscated": float(max(row["obfuscated_accuracy"] for row in result.rows
                                         if row["model"].startswith("scamdetect-"))),
        "best_baseline_obfuscated": float(max(row["obfuscated_accuracy"]
                                              for row in result.rows
                                              if not row["model"].startswith("scamdetect-"))),
    }
    result.notes.append("paper hypothesis: GNNs over CFGs are more resilient to "
                        "obfuscation than opcode-sequence models")
    return result


# --------------------------------------------------------------------------- #
# E4: robustness curve over obfuscation intensity ("Figure 2")


@dataclass
class E4Config:
    """Workload of the E4 robustness sweep."""

    num_samples: int = 240
    label_noise: float = 0.02
    test_fraction: float = 0.3
    train_augmentation_intensity: float = 0.5
    intensities: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0)
    architecture: str = "gin"
    epochs: int = 30
    seed: int = 0


def run_e4_robustness_curve(config: Optional[E4Config] = None) -> ExperimentResult:
    """E4: accuracy vs unseen-obfuscation intensity, best GNN vs opcode baselines."""
    config = config or E4Config()
    corpus = CorpusGenerator(GeneratorConfig(
        platform="evm", num_samples=config.num_samples,
        label_noise=config.label_noise, seed=config.seed)).generate("e4-corpus")
    train, test = stratified_split(corpus, config.test_fraction, seed=config.seed)
    train_mixed = _augmented_training_corpus(train, config.train_augmentation_intensity,
                                             seed=config.seed + 17)

    histogram = _histogram_rf_baseline(train_mixed, seed=config.seed)
    bigram = _ngram_rf_baseline(train_mixed, seed=config.seed)
    pipeline = _fit_gnn(train_mixed, config.architecture, config.epochs, config.seed)

    result = ExperimentResult(
        experiment_id="E4",
        title=f"Robustness curve: scamdetect-{config.architecture} vs opcode baselines")
    for intensity in config.intensities:
        obfuscated_test = obfuscate_corpus(test, intensity,
                                           seed=config.seed + int(intensity * 1000),
                                           passes=UNSEEN_TEST_PASSES)
        result.rows.append({
            "intensity": float(intensity),
            "gnn_accuracy": pipeline.evaluate(obfuscated_test)["accuracy"],
            "histogram_rf_accuracy": _baseline_accuracy(*histogram, obfuscated_test),
            "ngram_rf_accuracy": _baseline_accuracy(*bigram, obfuscated_test),
        })
    result.summary = {
        "gnn_mean_accuracy": float(np.mean([row["gnn_accuracy"] for row in result.rows])),
        "histogram_mean_accuracy": float(np.mean([row["histogram_rf_accuracy"]
                                                  for row in result.rows])),
        "ngram_mean_accuracy": float(np.mean([row["ngram_rf_accuracy"]
                                              for row in result.rows])),
    }
    return result


# --------------------------------------------------------------------------- #
# E5: platform-agnostic detection (EVM vs WASM) ("Table 3")


@dataclass
class E5Config:
    """Workload of the E5 cross-platform comparison."""

    num_samples_per_platform: int = 200
    label_noise: float = 0.03
    test_fraction: float = 0.3
    architecture: str = "gcn"
    epochs: int = 30
    seed: int = 0


def run_e5_cross_platform(config: Optional[E5Config] = None) -> ExperimentResult:
    """E5: the same pipeline configuration evaluated on EVM and WASM corpora."""
    config = config or E5Config()
    result = ExperimentResult(
        experiment_id="E5",
        title="Platform-agnostic detection: identical pipeline on EVM and WASM corpora")

    per_platform_accuracy: Dict[str, float] = {}
    for platform in ("evm", "wasm"):
        corpus = CorpusGenerator(GeneratorConfig(
            platform=platform, num_samples=config.num_samples_per_platform,
            label_noise=config.label_noise, seed=config.seed)).generate(
                f"e5-{platform}")
        train, test = stratified_split(corpus, config.test_fraction, seed=config.seed)

        pipeline = _fit_gnn(train, config.architecture, config.epochs, config.seed)
        gnn_metrics = pipeline.evaluate(test)

        histogram = _histogram_rf_baseline(train, seed=config.seed)
        baseline_metrics = _baseline_metrics(*histogram, test)

        per_platform_accuracy[platform] = gnn_metrics["accuracy"]
        result.rows.append({
            "platform": platform,
            "model": f"scamdetect-{config.architecture}",
            "accuracy": gnn_metrics["accuracy"],
            "f1": gnn_metrics["f1"],
            "roc_auc": gnn_metrics["roc_auc"],
        })
        result.rows.append({
            "platform": platform,
            "model": "histogram+random-forest",
            "accuracy": baseline_metrics["accuracy"],
            "f1": baseline_metrics["f1"],
            "roc_auc": baseline_metrics["roc_auc"],
        })

    result.summary = {
        "evm_gnn_accuracy": per_platform_accuracy.get("evm", float("nan")),
        "wasm_gnn_accuracy": per_platform_accuracy.get("wasm", float("nan")),
        "cross_platform_gap": abs(per_platform_accuracy.get("evm", 0.0)
                                  - per_platform_accuracy.get("wasm", 0.0)),
    }
    result.notes.append("paper goal: consistent detection performance across "
                        "heterogeneous runtimes")
    return result


# --------------------------------------------------------------------------- #
# E6: minimal-proxy dedup ablation ("Table 4")


@dataclass
class E6Config:
    """Workload of the E6 dedup ablation."""

    num_samples: int = 240
    proxy_duplicate_fraction: float = 0.5
    label_noise: float = 0.03
    test_fraction: float = 0.3
    seed: int = 0


def run_e6_dedup_ablation(config: Optional[E6Config] = None) -> ExperimentResult:
    """E6: accuracy inflation when ERC-1167 proxy duplicates are not removed."""
    config = config or E6Config()
    corpus = CorpusGenerator(GeneratorConfig(
        platform="evm", num_samples=config.num_samples,
        proxy_duplicate_fraction=config.proxy_duplicate_fraction,
        label_noise=config.label_noise, seed=config.seed)).generate("e6-corpus")

    result = ExperimentResult(
        experiment_id="E6",
        title="Corpus curation: effect of ERC-1167 minimal-proxy deduplication")

    def evaluate(name: str, working_corpus: Corpus) -> Dict[str, object]:
        train, test = stratified_split(working_corpus, config.test_fraction,
                                       seed=config.seed)
        extractor, classifier = _histogram_rf_baseline(train, seed=config.seed)
        return {
            "setting": name,
            "corpus_size": len(working_corpus),
            "proxy_samples": sum(1 for s in working_corpus if s.is_proxy_duplicate),
            "accuracy": _baseline_accuracy(extractor, classifier, test),
        }

    result.rows.append(evaluate("raw (proxies kept)", corpus))
    deduplicated, stats = deduplicate(corpus)
    row = evaluate("deduplicated", deduplicated)
    row["proxy_samples"] = stats["proxy"]
    result.rows.append(row)

    result.summary = {
        "accuracy_inflation": float(result.rows[0]["accuracy"]) - float(result.rows[1]["accuracy"]),
        "duplicates_removed": float(stats["proxy"] + stats["exact"]),
    }
    result.notes.append("paper plan: remove duplicates (e.g. minimal proxies) from the "
                        "expanded dataset to ensure diversity")
    return result


# --------------------------------------------------------------------------- #
# E7: GNN design ablation ("Figure 3")


@dataclass
class E7Config:
    """Workload of the E7 architecture ablation."""

    num_samples: int = 200
    label_noise: float = 0.02
    test_fraction: float = 0.3
    architecture: str = "gcn"
    epochs: int = 25
    depths: Sequence[int] = (1, 2, 3)
    readouts: Sequence[str] = ("mean", "sum", "max")
    seed: int = 0


def run_e7_gnn_ablation(config: Optional[E7Config] = None) -> ExperimentResult:
    """E7: ablation over depth, readout and node-feature design of the GNN."""
    config = config or E7Config()
    corpus = CorpusGenerator(GeneratorConfig(
        platform="evm", num_samples=config.num_samples,
        label_noise=config.label_noise, seed=config.seed)).generate("e7-corpus")
    train, test = stratified_split(corpus, config.test_fraction, seed=config.seed)
    # the ablation is scored on unseen-obfuscation robustness as well as clean
    # accuracy so feature/readout choices that only matter under attack show up
    obfuscated_test = obfuscate_corpus(test, 0.5, seed=config.seed + 5,
                                       passes=UNSEEN_TEST_PASSES)

    result = ExperimentResult(
        experiment_id="E7",
        title="GNN design ablation: depth, readout and node features")

    def add(variant: str, **overrides) -> None:
        pipeline = _fit_gnn(train, config.architecture, config.epochs, config.seed,
                            **overrides)
        result.rows.append({
            "variant": variant,
            "clean_accuracy": pipeline.evaluate(test)["accuracy"],
            "obfuscated_accuracy": pipeline.evaluate(obfuscated_test)["accuracy"],
        })

    for depth in config.depths:
        add(f"depth={depth}", num_layers=depth)
    for readout_kind in config.readouts:
        add(f"readout={readout_kind}", readout=readout_kind)
    add("features=no-markers", include_markers=False)
    add("features=fraction-histogram", node_feature_mode="fraction",
        include_markers=False)
    add("features=no-structural", include_structural=False)

    best = max(result.rows, key=lambda row: row["obfuscated_accuracy"])
    result.summary = {
        "best_variant_obfuscated_accuracy": float(best["obfuscated_accuracy"]),
        "num_variants": float(len(result.rows)),
    }
    result.notes.append(f"best variant under obfuscation: {best['variant']}")
    return result


# --------------------------------------------------------------------------- #
# E8: batch scanning service throughput


@dataclass
class E8Config:
    """Workload of the E8 scan-throughput experiment.

    The corpus is scanned three ways with the *same* trained detector:
    a sequential ``scan`` loop (the pre-service baseline), a cold batch scan
    that fills the graph cache, and a warm batch scan served from it.
    """

    num_samples: int = 120
    epochs: int = 6
    num_layers: int = 1
    hidden_features: int = 16
    cache_capacity: int = 4096
    seed: int = 0


def run_e8_scan_throughput(config: Optional[E8Config] = None) -> ExperimentResult:
    """E8: cold vs warm batch-scan throughput and verdict fidelity.

    Measures the service layer introduced for deployment-gate workloads:
    repeated scans of the same bytecode should be served from the
    content-addressed graph cache at a large multiple of cold throughput,
    while every batch verdict stays bit-identical to the single-sample
    :meth:`ScamDetector.scan` path.
    """
    import time

    from repro.core.detector import ScamDetector
    from repro.service import BatchScanner, GraphCache

    config = config or E8Config()
    corpus = CorpusGenerator(GeneratorConfig(
        platform="evm", num_samples=config.num_samples,
        label_noise=0.0, seed=config.seed)).generate("e8-corpus")
    detector = ScamDetector(
        ScamDetectConfig(epochs=config.epochs, num_layers=config.num_layers,
                         hidden_features=config.hidden_features,
                         seed=config.seed),
        explain=False)
    detector.train(corpus)
    codes = [sample.bytecode for sample in corpus]
    ids = [sample.sample_id for sample in corpus]

    # sequential baseline: one scan() call per contract, no cache
    started = time.perf_counter()
    sequential = [detector.scan(code, sample_id=sample_id)
                  for code, sample_id in zip(codes, ids)]
    sequential_seconds = time.perf_counter() - started

    cache = GraphCache.for_config(detector.config,
                                  capacity=config.cache_capacity)
    scanner = BatchScanner(detector, cache=cache)
    cold = scanner.scan_codes(codes, sample_ids=ids)
    warm = scanner.scan_codes(codes, sample_ids=ids)

    mismatches = sum(
        1 for single, batch in zip(sequential, warm.reports)
        if single.to_dict() != batch.to_dict())

    def row(mode: str, seconds: float, hit_rate: float) -> Dict[str, object]:
        return {"mode": mode, "contracts": len(codes), "seconds": seconds,
                "contracts_per_second": len(codes) / seconds if seconds else 0.0,
                "cache_hit_rate": hit_rate}

    result = ExperimentResult(
        experiment_id="E8",
        title="Batch scanning service: cold vs cached corpus re-scan")
    result.rows = [
        row("sequential-scan", sequential_seconds, 0.0),
        row("batch-cold", cold.elapsed_seconds, cold.cache_stats.hit_rate),
        row("batch-warm", warm.elapsed_seconds, warm.cache_stats.hit_rate),
    ]
    result.summary = {
        "cold_seconds": cold.elapsed_seconds,
        "warm_seconds": warm.elapsed_seconds,
        "warm_speedup": (cold.elapsed_seconds / warm.elapsed_seconds
                         if warm.elapsed_seconds else float("inf")),
        "warm_hit_rate": warm.cache_stats.hit_rate,
        "verdict_mismatches": float(mismatches),
    }
    result.notes.append(
        "warm batch verdicts are compared field-by-field against sequential "
        "ScamDetector.scan verdicts; mismatches must be zero")
    return result


# --------------------------------------------------------------------------- #
# E9: vectorized batched-graph engine throughput


@dataclass
class E9Config:
    """Workload of the E9 batched-engine throughput experiment.

    One model per engine is trained on the E5-style EVM corpus (identical
    seeds, so both engines perform the same optimizer trajectory), then the
    batched-engine model scores the full EVM + WASM corpora with both
    inference paths.  ``epochs``/``batch_size`` mirror the trainer defaults
    the service and experiments actually use.

    Both engines are timed in interleaved pairs (``train_repeats`` for
    training, ``inference_repeats`` for inference), alternating which runs
    first, and each gated speedup is the median per-pair ratio.  A timing
    repeats its fit or corpus pass until it covers
    :data:`E9_MIN_TIMING_SECONDS`, after a garbage collection.
    """

    num_samples_per_platform: int = 200
    label_noise: float = 0.03
    test_fraction: float = 0.3
    architecture: str = "gcn"
    epochs: int = 6
    batch_size: int = 16
    hidden_features: int = 32
    num_layers: int = 2
    train_repeats: int = 3
    inference_repeats: int = 5
    seed: int = 0


#: Shortest window one E9 timing may cover.
E9_MIN_TIMING_SECONDS = 0.1


def run_e9_gnn_throughput(config: Optional[E9Config] = None) -> ExperimentResult:
    """E9: per-graph vs batched GNN training and inference throughput.

    Measures the vectorized batched-graph engine against the per-graph
    oracle it replaced: training epochs/second over mini-batches of
    ``batch_size`` graphs, inference graphs/second over the E5 corpora, and
    prediction parity (argmax mismatches between the two inference paths,
    which must be zero).
    """
    import gc
    import statistics
    import time

    from repro.gnn.data import corpus_to_graphs
    from repro.gnn.model import GraphClassifier
    from repro.gnn.training import GNNTrainer

    config = config or E9Config()

    graphs_by_platform = {}
    for platform in ("evm", "wasm"):
        corpus = CorpusGenerator(GeneratorConfig(
            platform=platform, num_samples=config.num_samples_per_platform,
            label_noise=config.label_noise, seed=config.seed)).generate(
                f"e5-{platform}")
        graphs_by_platform[platform] = corpus_to_graphs(corpus)
    train_graphs = graphs_by_platform["evm"][
        :int(config.num_samples_per_platform * (1.0 - config.test_fraction))]
    all_graphs = graphs_by_platform["evm"] + graphs_by_platform["wasm"]
    feature_dim = all_graphs[0].feature_dim

    def make_trainer(vectorized: bool, epochs: int) -> GNNTrainer:
        model = GraphClassifier(architecture=config.architecture,
                                in_features=feature_dim,
                                hidden_features=config.hidden_features,
                                num_layers=config.num_layers,
                                seed=config.seed)
        return GNNTrainer(model, epochs=epochs,
                          batch_size=config.batch_size, seed=config.seed,
                          vectorized=vectorized)

    # warm-up: one throwaway epoch per engine populates the lazy per-graph
    # operator caches (CSR forms, aggregators) and the BLAS/scipy kernels,
    # so the timed runs below measure steady-state engine throughput
    for vectorized in (False, True):
        make_trainer(vectorized, epochs=1).fit(train_graphs)

    # -- timing: fresh trainers, then the batched-engine model scored
    # through both paths; both engines run the same trajectory every time
    modes = ("per-graph", "batched")
    trainers: Dict[str, GNNTrainer] = {}
    probabilities: Dict[str, np.ndarray] = {}

    def fit(mode: str) -> None:
        trainer = trainers[mode] = make_trainer(mode == "batched", config.epochs)
        trainer.fit(train_graphs)

    def score(mode: str) -> None:
        trainers["batched"].vectorized = mode == "batched"
        probabilities[mode] = trainers["batched"].predict_proba(all_graphs)

    def seconds_per_call(call: Callable[[], None]) -> float:
        # a collection first: garbage the previous timing left must not
        # be collected inside this one
        gc.collect()
        calls = 0
        started = time.perf_counter()
        while True:
            call()
            calls += 1
            elapsed = time.perf_counter() - started
            if elapsed >= E9_MIN_TIMING_SECONDS:
                return elapsed / calls

    def interleaved(repeats: int, call: Callable[[str], None]
                    ) -> Dict[str, List[float]]:
        timed: Dict[str, List[float]] = {mode: [] for mode in modes}
        for pair in range(max(1, repeats)):
            for mode in modes if pair % 2 == 0 else modes[::-1]:
                timed[mode].append(seconds_per_call(lambda: call(mode)))
        return timed

    train_timed = interleaved(config.train_repeats, fit)
    for mode in modes:  # untimed: populates each path's lazy caches
        score(mode)
    infer_timed = interleaved(config.inference_repeats, score)
    trainers["batched"].vectorized = True
    mismatches = int(np.sum(np.argmax(probabilities["batched"], axis=1)
                            != np.argmax(probabilities["per-graph"], axis=1)))

    result = ExperimentResult(
        experiment_id="E9",
        title=f"Batched-graph engine throughput vs per-graph oracle "
              f"({config.architecture}, batch_size={config.batch_size})")
    for mode in modes:
        train_seconds = statistics.median(train_timed[mode])
        infer_seconds = statistics.median(infer_timed[mode])
        result.rows.append({
            "mode": mode,
            "train_seconds": train_seconds,
            "train_epochs_per_second": config.epochs / train_seconds,
            "infer_seconds": infer_seconds,
            "infer_graphs_per_second": len(all_graphs) / infer_seconds,
        })
    # median per-pair ratios (the dicts keep per-graph before batched)
    result.summary = {
        "train_speedup": statistics.median(
            p / b for p, b in zip(*train_timed.values())),
        "inference_speedup": statistics.median(
            p / b for p, b in zip(*infer_timed.values())),
        "train_graphs": float(len(train_graphs)),
        "inference_graphs": float(len(all_graphs)),
        "prediction_mismatches": float(mismatches),
        "max_probability_delta": float(np.abs(probabilities["batched"]
                                              - probabilities["per-graph"]).max()),
    }
    result.notes.append(
        "identical seeds/shuffling/dropout streams: both engines walk the "
        "same optimizer trajectory, so the speedup is pure execution "
        "efficiency, not a different training run")
    return result


# --------------------------------------------------------------------------- #
# E10: multi-process sharded scan throughput


def available_cores() -> int:
    """CPU cores this process may actually use (affinity-aware)."""
    import os

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class E10Config:
    """Workload of the E10 sharded-scan throughput experiment.

    One corpus is cold-scanned by the single-process :class:`BatchScanner`
    (the verdict oracle), by a 1-shard pool (the sharding-overhead
    baseline) and by a ``shards``-shard pool; a final warm re-scan on a
    fresh pool exercises the cross-process shared disk cache tier.  Pools
    are started *before* their timing window, so the measurement is scan
    throughput, not replica-load time.  The 1-shard and ``shards``-shard
    pools are timed in ``repeats`` interleaved pairs, alternating which
    runs first, and the gated speedup is the median per-pair ratio:
    pairing cancels slow host drift, and the median discards the pairs a
    scheduler hiccup spoiled; one untimed pool of each size runs first.
    The oracle and the warm re-scan, whose times are not gated, take the
    best of two passes.
    """

    # 240 contracts keep per-shard compute well above the pool's IPC and
    # merge overhead, so the >= 2x scaling floor measures lowering
    # parallelism rather than dispatch cost on small corpora
    num_samples: int = 240
    epochs: int = 6
    num_layers: int = 1
    hidden_features: int = 16
    shards: int = 4
    chunk_size: int = 8
    repeats: int = 5
    seed: int = 0


def run_e10_sharded_throughput(config: Optional[E10Config] = None) -> ExperimentResult:
    """E10: multi-process sharded scanning -- throughput scaling + parity.

    The acceptance claim is that on a machine with >= ``shards`` usable
    cores a cold sharded scan is at least 2x faster than the 1-shard pool,
    with **zero** verdict mismatches against the single-process oracle.
    Speedup is hardware-bound (a 1-core container cannot parallelise
    CPU-bound lowering, whatever the software does), so the measured
    ``available_cores`` is part of the result and the benchmark gate scales
    its floor accordingly; parity is asserted unconditionally.
    """
    import statistics
    import tempfile
    import time

    from repro.core.detector import ScamDetector
    from repro.service import BatchScanner, ShardedScanner

    config = config or E10Config()
    corpus = CorpusGenerator(GeneratorConfig(
        platform="evm", num_samples=config.num_samples,
        label_noise=0.0, seed=config.seed)).generate("e10-corpus")
    detector = ScamDetector(
        ScamDetectConfig(epochs=config.epochs, num_layers=config.num_layers,
                         hidden_features=config.hidden_features,
                         seed=config.seed),
        explain=False)
    detector.train(corpus)
    codes = [sample.bytecode for sample in corpus]
    ids = [sample.sample_id for sample in corpus]

    # single-process oracle (no cache): the verdicts every sharded run
    # must reproduce byte-for-byte
    oracle_scanner = BatchScanner(detector)
    single_seconds = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        oracle = oracle_scanner.scan_codes(codes, sample_ids=ids)
        single_seconds = min(single_seconds, time.perf_counter() - started)

    def mismatches(result) -> int:
        return sum(1 for single, sharded in zip(oracle.reports, result.reports)
                   if single.to_dict() != sharded.to_dict())

    total_mismatches = 0

    def sharded_scan(shards: int, cache_dir=None):
        # a FRESH pool each time: workers hold in-memory caches, so
        # re-scanning one pool would silently turn a cold measurement
        # warm.  The pool starts before the timing window, so replica-load
        # cost never pollutes throughput.
        nonlocal total_mismatches
        with ShardedScanner(detector, shards=shards,
                            chunk_size=config.chunk_size,
                            cache_dir=cache_dir) as scanner:
            scanner.start()
            started = time.perf_counter()
            result = scanner.scan_codes(codes, sample_ids=ids)
            seconds = time.perf_counter() - started
        total_mismatches += mismatches(result)
        return result, seconds

    # one untimed pool of each size first: the first spawns pay one-time
    # host costs (cold page cache for the worker imports) that would
    # otherwise land in the first timed pairs
    for shards in (1, config.shards):
        sharded_scan(shards)
    results = {}
    seconds_by_shards: Dict[int, List[float]] = {1: [], config.shards: []}
    for pair in range(max(1, config.repeats)):
        order = (1, config.shards) if pair % 2 == 0 else (config.shards, 1)
        for shards in order:
            results[shards], seconds = sharded_scan(shards)
            seconds_by_shards[shards].append(seconds)
    one_result, many_result = results[1], results[config.shards]
    one_seconds = statistics.median(seconds_by_shards[1])
    many_seconds = statistics.median(seconds_by_shards[config.shards])
    sharded_speedup = statistics.median(
        one / many for one, many
        in zip(seconds_by_shards[1], seconds_by_shards[config.shards]))
    with tempfile.TemporaryDirectory(prefix="e10-cache-") as cache_dir:
        # fill the shared disk tier with one pool, then re-scan with
        # *fresh* pools: every warm hit crosses a process boundary
        sharded_scan(config.shards, cache_dir=cache_dir)
        warm_seconds = float("inf")
        for _ in range(2):
            warm_result, seconds = sharded_scan(config.shards,
                                                cache_dir=cache_dir)
            warm_seconds = min(warm_seconds, seconds)

    def row(mode: str, seconds: float, result) -> Dict[str, object]:
        return {"mode": mode, "contracts": len(codes), "seconds": seconds,
                "contracts_per_second": (len(codes) / seconds
                                         if seconds else 0.0),
                "cache_hit_rate": result.cache_stats.hit_rate}

    result = ExperimentResult(
        experiment_id="E10",
        title=f"Sharded scan engine: process-pool scaling at "
              f"{config.shards} shards ({available_cores()} usable cores)")
    result.rows = [
        row("single-process", single_seconds, oracle),
        row("sharded-1", one_seconds, one_result),
        row(f"sharded-{config.shards}", many_seconds, many_result),
        row(f"sharded-{config.shards}-warm", warm_seconds, warm_result),
    ]
    result.summary = {
        "sharded_speedup": sharded_speedup,
        # deliberately NOT named *_speedup: whether warm disk-tier reads beat
        # fresh lowering of small contracts depends on disk/page-cache state,
        # so this ratio is telemetry, not a gated throughput contract (the
        # gated warm contract is hit_rate == 1.0 + verdict parity)
        "warm_vs_cold_ratio": (many_seconds / warm_seconds
                               if warm_seconds else 0.0),
        "warm_hit_rate": warm_result.cache_stats.hit_rate,
        "verdict_mismatches": float(total_mismatches),
        "available_cores": float(available_cores()),
        "shards": float(config.shards),
    }
    result.notes.append(
        "all sharded verdicts are compared field-by-field against the "
        "single-process BatchScanner oracle; mismatches must be zero")
    result.notes.append(
        "sharded_speedup is CPU-bound: expect >= 2x only with >= "
        f"{config.shards} usable cores (this run saw "
        f"{available_cores()})")
    return result


# --------------------------------------------------------------------------- #
# E11: continuous watch ingest vs warm re-ingest (verdict registry)


@dataclass
class E11Config:
    """Workload of the E11 watch ingest experiment.

    A corpus is written out as a directory of ``.bin`` files and ingested by
    an :class:`~repro.ingest.service.EventIngestService` on the ``poll``
    backend (the walk ``watch`` does on a network mount) three ways: a
    **cold** backfill (every contract lowered and scored), a **warm** cycle
    on the live service after one untimed steady cycle (the poll walk's
    stat short-circuit: nothing is even re-read), and a **restart** backfill
    from a fresh service with every file's mtime bumped, defeating the stat
    index so every contract is re-read and re-hashed -- and every verdict
    answered from SQLite, still with zero inference.
    """

    # same 240-contract scale as E10, so the service benches stay comparable
    num_samples: int = 240
    epochs: int = 6
    num_layers: int = 1
    hidden_features: int = 16
    seed: int = 0


def run_e11_watch_ingest(config: Optional[E11Config] = None) -> ExperimentResult:
    """E11: cold watch ingest vs warm re-ingest of an unchanged corpus.

    The acceptance claims: a warm cycle over an unchanged corpus is at
    least 20x faster than the cold ingest and performs **zero** GNN
    inference calls (so does the backfill of a restarted service), and the
    verdicts the registry hands back are byte-identical to a direct
    ``scan-batch`` over the same directory.
    """
    import pathlib
    import tempfile
    import time

    from repro.core.detector import ScamDetector
    from repro.ingest import EventIngestService
    from repro.registry import ScanRegistry

    config = config or E11Config()
    corpus = CorpusGenerator(GeneratorConfig(
        platform="evm", num_samples=config.num_samples,
        label_noise=0.0, seed=config.seed)).generate("e11-corpus")
    detector = ScamDetector(
        ScamDetectConfig(epochs=config.epochs, num_layers=config.num_layers,
                         hidden_features=config.hidden_features,
                         seed=config.seed),
        explain=False)
    detector.train(corpus)

    with tempfile.TemporaryDirectory(prefix="e11-watch-") as tmp:
        feed = pathlib.Path(tmp) / "feed"
        feed.mkdir()
        for sample in corpus:
            (feed / f"{sample.sample_id}.bin").write_bytes(sample.bytecode)
        registry_path = pathlib.Path(tmp) / "verdicts.db"

        # the stateless oracle every registry verdict must reproduce
        oracle = detector.scan_directory(feed)

        def watch(registry) -> EventIngestService:
            # one drain batch covers the corpus: one scan call, as a
            # single walk over the directory makes
            return EventIngestService(detector, registry, roots=[feed],
                                      backend="poll",
                                      batch_size=config.num_samples)

        with ScanRegistry.for_config(registry_path, detector.config) as registry:
            with watch(registry) as service:
                started = time.perf_counter()
                cold = service.backfill()
                cold_seconds = time.perf_counter() - started
                # one untimed steady cycle first (the backfill already took
                # the watcher's catch-up events, so it walks and finds
                # nothing); the timed cycle is the walk every later one does
                service.cycle()
                started = time.perf_counter()
                warm = service.cycle()
                warm_seconds = time.perf_counter() - started
            rows = {row.source_path: row
                    for row in registry.query(limit=None)}

        # a fresh service on a fresh registry handle: the only state that
        # survives is the SQLite file itself.  Bumping every mtime defeats
        # the stat index, so this measures the re-hash + registry-hit path
        # (the worst honest restart: files touched but content unchanged).
        import os

        for path in feed.iterdir():
            stat = path.stat()
            os.utime(path, ns=(stat.st_atime_ns,
                               stat.st_mtime_ns + 1_000_000))
        with ScanRegistry.for_config(registry_path, detector.config) as registry:
            with watch(registry) as service:
                started = time.perf_counter()
                restart = service.backfill()
                restart_seconds = time.perf_counter() - started

        mismatches = sum(
            1 for report in oracle.reports
            if rows[report.sample_id].to_report().to_dict()
            != report.to_dict())

    def row(mode: str, seconds: float, stats) -> Dict[str, object]:
        return {"mode": mode, "contracts": config.num_samples,
                "seconds": seconds,
                "contracts_per_second": (config.num_samples / seconds
                                         if seconds else 0.0),
                "inference_calls": stats.inference_calls,
                "scanned": stats.scanned,
                "registry_hits": stats.registry_hits}

    result = ExperimentResult(
        experiment_id="E11",
        title="Watch ingest (poll backend): cold corpus vs warm (unchanged) "
              "re-poll")
    result.rows = [
        row("watch-cold", cold_seconds, cold),
        row("watch-warm", warm_seconds, warm),
        row("watch-restart", restart_seconds, restart),
    ]
    result.summary = {
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "warm_speedup": (cold_seconds / warm_seconds
                         if warm_seconds else float("inf")),
        "warm_inference_calls": float(warm.inference_calls),
        "restart_inference_calls": float(restart.inference_calls),
        "registry_rows": float(len(rows)),
        "verdict_mismatches": float(mismatches),
    }
    result.notes.append(
        "registry verdicts are compared field-by-field against a direct "
        "scan_directory over the same corpus; mismatches must be zero")
    result.notes.append(
        "warm polls must perform zero GNN inference calls: unchanged files "
        "are stat-skipped, restarted services answer from the registry")
    return result


# --------------------------------------------------------------------------- #
# E12: two-stage cascade scoring vs GNN-only scanning


@dataclass
class E12Config:
    """Workload of the E12 cascade-throughput experiment.

    A mostly-benign corpus (the realistic submission-feed mix: 75% benign)
    is cold-scanned twice by the same trained detector -- once GNN-only and
    once with the tier-0 calibrated n-gram pre-filter enabled -- and the
    two verdict streams are compared contract-by-contract.
    """

    # same 240-contract scale as E10/E11, but 75% benign: the cascade's
    # value proposition is exactly the confident-benign majority
    num_samples: int = 240
    malicious_fraction: float = 0.25
    epochs: int = 6
    num_layers: int = 1
    hidden_features: int = 16
    repeats: int = 2
    seed: int = 0


def run_e12_cascade_throughput(config: Optional[E12Config] = None) -> ExperimentResult:
    """E12: cascade pre-filter throughput at equal recall.

    The acceptance claims: on a 75%-benign corpus, a cold ``--cascade``
    scan is at least 3x faster than the cold GNN-only scan of the same
    corpus, it flags **exactly the same contracts** malicious (equal
    recall -- zero label disagreements), and every escalated contract is
    GNN-scored exactly once (inference calls == escalations).
    """
    import time

    from repro.core.detector import ScamDetector
    from repro.service import BatchScanner

    config = config or E12Config()
    corpus = CorpusGenerator(GeneratorConfig(
        platform="evm", num_samples=config.num_samples,
        malicious_fraction=config.malicious_fraction,
        label_noise=0.0, seed=config.seed)).generate("e12-corpus")
    detector = ScamDetector(
        ScamDetectConfig(epochs=config.epochs, num_layers=config.num_layers,
                         hidden_features=config.hidden_features,
                         seed=config.seed),
        explain=False)
    detector.train(corpus, cascade=True)
    codes = [sample.bytecode for sample in corpus]
    ids = [sample.sample_id for sample in corpus]

    repeats = max(1, config.repeats)

    def timed_scan(cascade: bool):
        # toggling the flag on one detector keeps weights, thresholds and
        # the trained head bit-identical between the two modes; no cache is
        # attached, so every repeat is a cold scan and best-of-repeats
        # measures steady-state code paths, not page-cache luck
        detector.cascade = cascade
        scanner = BatchScanner(detector)
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            result = scanner.scan_codes(codes, sample_ids=ids)
            best = min(best, time.perf_counter() - started)
        scanner.close()
        return result, best

    gnn_result, gnn_seconds = timed_scan(cascade=False)
    cascade_result, cascade_seconds = timed_scan(cascade=True)
    detector.cascade = False

    disagreements = sum(
        1 for gnn, two_stage in zip(gnn_result.reports,
                                    cascade_result.reports)
        if gnn.label != two_stage.label)
    stats = cascade_result.cascade_stats or {}
    inference_calls = sum(count * size for size, count
                          in cascade_result.batch_sizes.items())

    def row(mode: str, seconds: float, result) -> Dict[str, object]:
        entry = {"mode": mode, "contracts": len(codes), "seconds": seconds,
                 "contracts_per_second": (len(codes) / seconds
                                          if seconds else 0.0),
                 "malicious": result.num_malicious}
        if result.cascade_stats is not None:
            entry["short_circuits"] = result.cascade_stats["short_circuits"]
            entry["escalations"] = result.cascade_stats["escalations"]
        return entry

    result = ExperimentResult(
        experiment_id="E12",
        title=f"Two-stage cascade scoring: pre-filter short-circuit on a "
              f"{1 - config.malicious_fraction:.0%}-benign corpus")
    result.rows = [
        row("gnn-only", gnn_seconds, gnn_result),
        row("cascade", cascade_seconds, cascade_result),
    ]
    result.summary = {
        "cascade_speedup": (gnn_seconds / cascade_seconds
                            if cascade_seconds else 0.0),
        "cascade_disagreements": float(disagreements),
        "runtime_near_miss_disagreements": float(
            stats.get("disagreements", 0)),
        "short_circuits": float(stats.get("short_circuits", 0)),
        "escalations": float(stats.get("escalations", 0)),
        # named to end in "inference_calls" so the regression gate treats
        # it as an exact fidelity counter: any rise above zero means a
        # short-circuited or already-scored contract hit the GNN again
        "excess_inference_calls": float(
            inference_calls - stats.get("escalations", 0)),
        "benign_fraction": 1.0 - config.malicious_fraction,
        "available_cores": float(available_cores()),
    }
    result.notes.append(
        "cascade_disagreements counts label differences between the "
        "GNN-only and cascade verdict streams; equal recall means zero")
    result.notes.append(
        "excess_inference_calls (inference calls minus escalations) proves "
        "every escalated contract is GNN-scored exactly once (and "
        "short-circuited ones never)")
    return result


# --------------------------------------------------------------------------- #
# E13: chaos campaign -- correctness and availability under injected faults


@dataclass
class E13Config:
    """Workload of the E13 chaos-resilience experiment.

    One 240-contract corpus is scanned under six fault classes, each armed
    through the deterministic :mod:`repro.resilience` injector: worker
    crashes mid-batch, repeated crashes that quarantine a shard, corrupted
    disk-cache entries, SQLITE_BUSY registry writes, a dead webhook
    endpoint, and a slow/transiently-failing scan server.  Every scenario's
    verdicts are compared field-by-field against a fault-free
    single-process oracle.
    """

    # same 240-contract scale as E10/E11, so the service benches compare
    num_samples: int = 240
    epochs: int = 6
    num_layers: int = 1
    hidden_features: int = 16
    shards: int = 2
    chunk_size: int = 8
    # single-contract server requests under the slow-server fault class
    server_requests: int = 48
    seed: int = 0
    #: seed of every FaultPlan (CI sweeps it weekly); the zero-wrong-verdict
    #: and availability claims must hold for EVERY value
    chaos_seed: int = 0


def run_e13_chaos_resilience(
        config: Optional[E13Config] = None) -> ExperimentResult:
    """E13: zero wrong/lost verdicts + bounded availability under chaos.

    The acceptance claims, per fault class: (1) **zero** verdict
    mismatches against the fault-free oracle -- retries, requeues and
    cache-recovery may cost time but never correctness; (2) **zero** lost
    or silently-dropped verdicts/alerts (a webhook that stays dead is
    dead-lettered, never discarded); (3) availability stays 1.0 -- every
    scan request is eventually answered, including during shard quarantine
    (degraded mode) and injected 503 bursts (client retry honoring
    ``Retry-After``).  All claims must hold for every ``chaos_seed``.
    """
    import json
    import pathlib
    import tempfile
    import time
    import warnings as _warnings

    from repro.core.detector import ScamDetector
    from repro.registry import ScanRegistry
    from repro.registry.rules import RulesEngine, TriageRule
    from repro.registry.store import content_sha256
    from repro.resilience import (
        FaultPlan,
        FaultSpec,
        active_injector,
        fault_plan,
    )
    from repro.service import (
        BatchScanner,
        GraphCache,
        ScanServer,
        ServerClient,
        ServerClientError,
        ShardedScanner,
    )

    config = config or E13Config()
    corpus = CorpusGenerator(GeneratorConfig(
        platform="evm", num_samples=config.num_samples,
        label_noise=0.0, seed=config.seed)).generate("e13-corpus")
    detector = ScamDetector(
        ScamDetectConfig(epochs=config.epochs, num_layers=config.num_layers,
                         hidden_features=config.hidden_features,
                         seed=config.seed),
        explain=False)
    detector.train(corpus)
    codes = [sample.bytecode for sample in corpus]
    ids = [sample.sample_id for sample in corpus]

    # fault-free oracle: the verdicts every chaos scenario must reproduce
    oracle = BatchScanner(detector).scan_codes(codes, sample_ids=ids)
    oracle_dicts = [report.to_dict() for report in oracle.reports]

    def mismatches(reports) -> int:
        """Field-by-field disagreements (a missing report is a mismatch)."""
        wrong = sum(
            1 for want, got in zip(oracle_dicts, reports)
            if want != (got.to_dict() if hasattr(got, "to_dict") else got))
        return wrong + abs(len(oracle_dicts) - len(reports))

    rows = []
    telemetry: Dict[str, float] = {
        "faults_injected": 0.0, "worker_restarts": 0.0,
        "quarantined_shards": 0.0, "registry_write_retries": 0.0,
        "webhook_dead_lettered": 0.0, "client_retries": 0.0,
        "degraded_mode_mismatches": 0.0, "lost_verdict_mismatches": 0.0,
        "lost_alert_mismatches": 0.0,
    }

    def record(mode: str, contracts: int, seconds: float,
               availability: float, wrong: int) -> None:
        rows.append({
            "mode": mode, "contracts": contracts, "seconds": seconds,
            "contracts_per_second": (contracts / seconds if seconds
                                     else 0.0),
            "availability": availability,
            "verdict_mismatches": float(wrong),
        })

    def finish(mode: str, started: float, availability: float,
               wrong: int, contracts: Optional[int] = None) -> None:
        telemetry["faults_injected"] += float(
            active_injector().fired_total())
        record(mode, len(codes) if contracts is None else contracts,
               time.perf_counter() - started, availability, wrong)

    # -- worker-crash: two mid-batch deaths; respawn + requeue, no loss --
    with fault_plan(FaultPlan(specs=(
            FaultSpec(site="shard.worker.*", kind="crash",
                      after=2, max_fires=2),),
            seed=config.chaos_seed)), \
            _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        started = time.perf_counter()
        with ShardedScanner(detector, shards=config.shards,
                            chunk_size=config.chunk_size) as scanner:
            scanner.start()
            result = scanner.scan_codes(codes, sample_ids=ids)
            telemetry["worker_restarts"] += float(scanner.restarts)
        finish("worker-crash", started,
               len(result.reports) / len(codes), mismatches(result.reports))

    # -- shard-quarantine: shard 0 dies past max_restarts; its hash space
    # rebalances onto healthy shards and the batch completes degraded --
    with fault_plan(FaultPlan(specs=(
            FaultSpec(site="shard.worker.0", kind="crash", max_fires=2),),
            seed=config.chaos_seed)), \
            _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        started = time.perf_counter()
        with ShardedScanner(detector, shards=config.shards,
                            chunk_size=config.chunk_size,
                            max_restarts=1,
                            restart_backoff_s=0.02) as scanner:
            scanner.start()
            result = scanner.scan_codes(codes, sample_ids=ids)
            telemetry["worker_restarts"] += float(scanner.restarts)
            telemetry["quarantined_shards"] += float(
                len(scanner.quarantined_shards))
            if not (scanner.degraded
                    and scanner.quarantined_shards == [0]):
                telemetry["degraded_mode_mismatches"] += 1.0
        finish("shard-quarantine", started,
               len(result.reports) / len(codes), mismatches(result.reports))

    # -- cache-corrupt: scribbled .npz disk entries are detected, dropped
    # and re-lowered; corruption can never flip a verdict --
    with tempfile.TemporaryDirectory(prefix="e13-cache-") as cache_dir:
        cache = GraphCache(detector.config.graph_fingerprint(),
                           disk_dir=cache_dir)
        BatchScanner(detector, cache=cache).scan_codes(codes, sample_ids=ids)
        with fault_plan(FaultPlan(specs=(
                FaultSpec(site="cache.disk_read", kind="corrupt",
                          probability=0.4),),
                seed=config.chaos_seed)), \
                _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            started = time.perf_counter()
            # fresh memory tier: every lookup goes through the disk tier
            cold = GraphCache(detector.config.graph_fingerprint(),
                              disk_dir=cache_dir)
            result = BatchScanner(detector, cache=cold).scan_codes(
                codes, sample_ids=ids)
            finish("cache-corrupt", started,
                   len(result.reports) / len(codes),
                   mismatches(result.reports))

    # -- registry-busy: SQLITE_BUSY on the write path is retried under
    # backoff; every verdict still lands durably --
    with tempfile.TemporaryDirectory(prefix="e13-registry-") as tmp:
        registry = ScanRegistry.for_config(
            pathlib.Path(tmp) / "verdicts.sqlite", detector.config)
        with fault_plan(FaultPlan(specs=(
                FaultSpec(site="registry.write", kind="exception",
                          exception="sqlite_busy", max_fires=3),),
                seed=config.chaos_seed)), \
                _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            started = time.perf_counter()
            result = BatchScanner(detector, registry=registry).scan_codes(
                codes, sample_ids=ids)
            telemetry["registry_write_retries"] += float(
                active_injector().fired_total())
            recorded = registry.counts()["verdicts"]
            unique = len({content_sha256(raw) for raw in codes})
            telemetry["lost_verdict_mismatches"] += float(
                max(0, unique - recorded))
            finish("registry-busy", started,
                   len(result.reports) / len(codes),
                   mismatches(result.reports))
        registry.close()

    # -- webhook-down: every POST fails; exhausted deliveries land in the
    # dead-letter JSONL instead of vanishing --
    with tempfile.TemporaryDirectory(prefix="e13-webhook-") as tmp:
        dead_letter = pathlib.Path(tmp) / "dead-letter.jsonl"
        rule = TriageRule(name="page-on-malicious", verdict="malicious",
                          alert=True,
                          webhook="http://127.0.0.1:9/chaos-hook")
        from repro.resilience import RetryPolicy

        # the production backoff schedule, compressed so the experiment's
        # ~120 exhausted deliveries don't sleep for half a minute
        engine = RulesEngine([rule],
                             alert_path=pathlib.Path(tmp) / "alerts.jsonl",
                             dead_letter_path=dead_letter,
                             retry=RetryPolicy(max_attempts=3,
                                               base_delay_s=0.005,
                                               max_delay_s=0.02,
                                               deadline_s=5.0))
        flagged = [report for report in oracle.reports
                   if report.verdict == "malicious"]
        with fault_plan(FaultPlan(specs=(
                FaultSpec(site="rules.webhook", kind="exception",
                          exception="urlerror",
                          message="connection refused"),),
                seed=config.chaos_seed)), \
                _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            started = time.perf_counter()
            for report in flagged:
                engine.evaluate(report, content_sha256(b"e13"),
                                source_path=report.sample_id)
            dead = (sum(1 for line in
                        dead_letter.read_text().splitlines() if line)
                    if dead_letter.exists() else 0)
            telemetry["webhook_dead_lettered"] += float(dead)
            telemetry["lost_alert_mismatches"] += float(
                max(0, engine.webhook_failures - dead))
            for line in dead_letter.read_text().splitlines():
                json.loads(line)  # the sink must stay machine-readable
            finish("webhook-down", started,
                   dead / len(flagged) if flagged else 1.0,
                   0, contracts=len(flagged))

    # -- slow-server: injected handler delays plus isolated 503 bursts;
    # the client's retry policy (Retry-After honored) hides all of it --
    exception_bursts = (
        FaultSpec(site="server.handler", kind="exception", after=3,
                  max_fires=1),
        FaultSpec(site="server.handler", kind="exception", after=9,
                  max_fires=1),
        FaultSpec(site="server.handler", kind="exception", after=17,
                  max_fires=1),
    )
    with fault_plan(FaultPlan(specs=exception_bursts + (
            FaultSpec(site="server.handler", kind="delay", delay_s=0.005,
                      probability=0.4),),
            seed=config.chaos_seed)), \
            _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        server = ScanServer(detector, port=0, workers=4).start()
        try:
            client = ServerClient(port=server.port, timeout=30.0)
            client.wait_until_ready()
            total = min(config.server_requests, len(codes))
            answered = 0
            wrong = 0
            started = time.perf_counter()
            for index in range(total):
                try:
                    response = client.scan(codes[index],
                                           sample_id=ids[index])
                except ServerClientError:
                    continue
                answered += 1
                want = oracle_dicts[index]
                if any(response.get(key) != value
                       for key, value in want.items()):
                    wrong += 1
            telemetry["client_retries"] += float(client.retries)
            finish("slow-server", started, answered / total, wrong,
                   contracts=total)
        finally:
            server.shutdown()

    total_mismatches = sum(row["verdict_mismatches"] for row in rows)
    result = ExperimentResult(
        experiment_id="E13",
        title=f"Chaos resilience: {len(rows)} fault classes over "
              f"{config.num_samples} contracts (chaos seed "
              f"{config.chaos_seed})")
    result.rows = rows
    result.summary = {
        "verdict_mismatches": float(total_mismatches),
        "min_availability": min(row["availability"] for row in rows),
        "chaos_seed": float(config.chaos_seed),
        **telemetry,
    }
    result.notes.append(
        "every scenario's verdicts are compared field-by-field against a "
        "fault-free single-process oracle; mismatches must be zero for "
        "every chaos seed")
    result.notes.append(
        "availability counts requests eventually answered (after retries "
        "/ requeues / rebalancing); the floor is gated, so a fault class "
        "that starts dropping work fails the bench")
    result.notes.append(
        "degraded_mode_mismatches asserts the quarantine scenario "
        "actually opened shard 0's circuit and finished degraded rather "
        "than failing the batch")
    return result


# --------------------------------------------------------------------------- #
# E14: retro-triage at fleet scale


def _e14_fleet_writer(db_path: str, fingerprint: str, worker_index: int,
                      shas: Sequence[str], writes: int) -> Dict[str, int]:
    """One fleet writer of the E14 WAL-contention phase (spawned process).

    The registry opens with the normal generous busy timeout (the open
    path reads the schema; an aggressive timeout there could misread a
    momentarily locked header as corruption), then drops
    ``busy_timeout`` to zero so every genuine writer collision surfaces
    as SQLITE_BUSY and must be absorbed by the application-level
    busy-retry policy -- the thing this phase exists to prove.
    """
    from repro.core.report import VerdictReport
    from repro.registry import ScanRegistry
    from repro.resilience import RetryPolicy

    registry = ScanRegistry(
        db_path, fingerprint=fingerprint,
        write_retry=RetryPolicy(max_attempts=20, base_delay_s=0.002,
                                max_delay_s=0.05, deadline_s=120.0))
    try:
        with registry._lock:
            registry._conn.execute("PRAGMA busy_timeout = 0")
        written = 0
        for turn in range(writes):
            sha = shas[(worker_index + turn) % len(shas)]
            report = VerdictReport(
                sample_id=f"e14-w{worker_index}-{turn}", platform="evm",
                label=1, malicious_probability=0.95, model="gnn-e14")
            registry.record(sha, report,
                            source_path=f"fleet/writer-{worker_index}")
            written += 1
        return {"written": written,
                "busy_retries": int(registry.busy_retries)}
    finally:
        registry.close()


@dataclass
class E14Config:
    """Workload of the E14 registry-triage experiment.

    A synthetic registry of ``num_rows`` verdicts (mixed platforms,
    verdicts, scores, indicator notes, source paths, model identities and
    scan times) is retro-triaged by five rules that between them exercise
    every compilable matcher.  The compiled SQL path must agree
    byte-for-byte -- same (rule, sha256) sequence in the same order --
    with the row-at-a-time Python oracle (``TriageRule.matches_row``),
    and beat it by the gated speedup.  A second phase hammers one WAL
    registry from ``writers`` concurrent processes with ``busy_timeout``
    forced to zero, proving the busy-retry write path loses nothing.
    """

    num_rows: int = 100_000
    batch_size: int = 2000
    writers: int = 4
    writes_per_writer: int = 150
    contention_rows: int = 25
    seed: int = 0


def run_e14_registry_triage(
        config: Optional[E14Config] = None) -> ExperimentResult:
    """E14: compiled triage parity + speedup, and lossless WAL contention.

    The acceptance claims: (1) **zero** disagreements between the
    compiled-SQL triage sweep and the row-at-a-time Python oracle over
    the full registry -- not just the same match *set* but the same
    (rule, sha256) *sequence*, rules in file order, rows ascending by
    primary key; (2) the compiled sweep is >= 10x faster at the 100k-row
    scale (the indexes discard non-matches in C instead of dragging every
    row through ``VerdictRow``); (3) ``writers`` concurrent processes
    upserting into one WAL registry with a zero busy timeout lose **no**
    updates -- every SQLITE_BUSY is retried, the summed ``scan_count``
    equals the writes issued, and the busy-retry counters actually
    advanced (an accidentally-disarmed retry path must fail loudly).
    """
    import concurrent.futures
    import hashlib
    import multiprocessing
    import pathlib
    import tempfile
    import time

    from repro.core.report import VerdictReport
    from repro.registry import RetroTriage, ScanRegistry, TriageRule

    config = config or E14Config()
    rng = random.Random(config.seed)
    base = 1_700_000_000.0
    fingerprint = f"e14-fingerprint-{config.seed}"
    model_a, model_b = "sha256:e14-model-a", "sha256:e14-model-b"

    rules = [
        TriageRule(name="hot-malicious", verdict="malicious",
                   min_score=0.97, tag=("e14-hot",)),
        TriageRule(name="drain-indicator", platform="evm",
                   indicators=("selfdestruct-drain",), tag=("e14-drain",)),
        TriageRule(name="recent-malicious", verdict="malicious",
                   since=base + 3600.0 * 600, until=base + 3600.0 * 719,
                   tag=("e14-recent",)),
        TriageRule(name="benign-prefix-audit", max_score=0.2,
                   sha256_prefix="0", tag=("e14-audit",)),
        TriageRule(name="inbox-model-b", verdict="benign",
                   max_score=0.2, path_glob="inbox/*",
                   model_identity=model_b, tag=("e14-inbox",)),
    ]
    rules_text = "\n".join(rule.describe() for rule in rules)

    rows = []
    summary: Dict[str, float] = {}

    with tempfile.TemporaryDirectory(prefix="e14-registry-") as tmp:
        registry = ScanRegistry(pathlib.Path(tmp) / "verdicts.sqlite",
                                fingerprint=fingerprint)

        # -- seed num_rows synthetic verdicts; record_many batches share
        # (model identity, hour bucket) so every matcher has something to
        # discriminate on while the seeding stays transactional --
        groups: Dict[tuple, list] = {}
        for index in range(config.num_rows):
            sha = hashlib.sha256(
                f"e14-row-{config.seed}-{index}".encode()).hexdigest()
            malicious = rng.random() < 0.3
            score = (rng.uniform(0.78, 0.999) if malicious
                     else rng.uniform(0.001, 0.45))
            notes = []
            if malicious and rng.random() < 0.15:
                notes.append("indicator: selfdestruct-drain fired")
            if rng.random() < 0.1:
                notes.append("indicator: delegatecall-proxy fired")
            report = VerdictReport(
                sample_id=f"e14-{index}",
                platform="wasm" if rng.random() < 0.25 else "evm",
                label=int(malicious), malicious_probability=score,
                cfg_blocks=rng.randrange(4, 64), model="gnn-e14",
                notes=notes)
            source = (f"inbox/batch-{index % 97}/contract-{index}.bin"
                      if rng.random() < 0.5 else f"archive/{index}.bin")
            identity = model_a if rng.random() < 0.7 else model_b
            scanned_at = base + 3600.0 * rng.randrange(720)
            groups.setdefault((identity, scanned_at), []).append(
                (sha, report, source))
        for (identity, scanned_at), entries in groups.items():
            registry.record_many(entries, model_identity=identity,
                                 scanned_at=scanned_at)

        # -- compiled sweep: dry-run RetroTriage, outcomes recorded by the
        # on_match hook in its deterministic rule-outer/sha-ascending
        # order (elapsed includes compile + EXPLAIN plan check) --
        compiled_outcomes = []
        triage = RetroTriage(
            registry, rules, rules_text, dry_run=True, resume=False,
            batch_size=config.batch_size,
            on_match=lambda rule, row: compiled_outcomes.append(
                (rule.name, row.sha256)))
        triage_result = triage.run()
        compiled_seconds = triage_result.elapsed_seconds

        # -- Python oracle: same rule order, same keyset batching, but
        # every row crosses into Python and matches_row decides --
        started = time.perf_counter()
        python_outcomes = []
        for rule in rules:
            cursor = None
            while True:
                batch = registry.select_where(
                    "fingerprint = ?", (fingerprint,),
                    after_sha256=cursor, limit=config.batch_size)
                if not batch:
                    break
                for row in batch:
                    if rule.matches_row(row):
                        python_outcomes.append((rule.name, row.sha256))
                cursor = batch[-1].sha256
                if len(batch) < config.batch_size:
                    break
        python_seconds = time.perf_counter() - started

        disagreements = (
            sum(1 for want, got in zip(python_outcomes, compiled_outcomes)
                if want != got)
            + abs(len(python_outcomes) - len(compiled_outcomes)))
        considered = config.num_rows * len(rules)
        rows.append({
            "mode": "triage-compiled", "rows_considered": considered,
            "matches": len(compiled_outcomes),
            "seconds": compiled_seconds,
            "rows_per_second": (considered / compiled_seconds
                                if compiled_seconds else 0.0)})
        rows.append({
            "mode": "triage-python-oracle",
            "rows_considered": considered,
            "matches": len(python_outcomes), "seconds": python_seconds,
            "rows_per_second": (considered / python_seconds
                                if python_seconds else 0.0)})
        registry.close()

    # -- WAL contention: concurrent writer processes, zero busy timeout,
    # no lost updates (summed scan_count == writes issued) --
    with tempfile.TemporaryDirectory(prefix="e14-fleet-") as tmp:
        db_path = str(pathlib.Path(tmp) / "fleet.sqlite")
        # parent creates the schema first: worker opens are then pure
        # reads and cannot race the migration scripts
        ScanRegistry(db_path, fingerprint=fingerprint).close()
        shas = [hashlib.sha256(f"e14-fleet-{index}".encode()).hexdigest()
                for index in range(config.contention_rows)]
        # same start-method preference as the sharded scan engine: fork
        # where the platform has it (no __main__ re-import), else spawn
        available = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in available else available[0])
        started = time.perf_counter()
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=config.writers,
                mp_context=context) as pool:
            futures = [
                pool.submit(_e14_fleet_writer, db_path, fingerprint,
                            worker, shas, config.writes_per_writer)
                for worker in range(config.writers)]
            outcomes = [future.result() for future in futures]
        contention_seconds = time.perf_counter() - started

        expected = config.writers * config.writes_per_writer
        reader = ScanRegistry(db_path, fingerprint=fingerprint)
        recorded = sum(
            row.scan_count for row in reader.select_where(
                "fingerprint = ?", (fingerprint,)))
        reader.close()
        busy_retries = sum(out["busy_retries"] for out in outcomes)
        lost = abs(expected - recorded)
        rows.append({
            "mode": "wal-contention", "writers": config.writers,
            "writes": expected, "seconds": contention_seconds,
            "writes_per_second": (expected / contention_seconds
                                  if contention_seconds else 0.0),
            "busy_retries": busy_retries,
            "lost_update_mismatches": float(lost)})

    summary = {
        "registry_rows": float(config.num_rows),
        "triage_rules": float(len(rules)),
        "triage_matches": float(len(compiled_outcomes)),
        "triage_disagreements": float(disagreements),
        "triage_speedup": (python_seconds / compiled_seconds
                           if compiled_seconds else 0.0),
        "compiled_rows_per_second": (considered / compiled_seconds
                                     if compiled_seconds else 0.0),
        "writes_per_second": (expected / contention_seconds
                              if contention_seconds else 0.0),
        "lost_update_mismatches": float(lost),
        "registry_busy_retries": float(busy_retries),
        "writers": float(config.writers),
    }
    result = ExperimentResult(
        experiment_id="E14",
        title=f"Registry triage at fleet scale: {len(rules)} rules over "
              f"{config.num_rows} rows + {config.writers}-writer WAL "
              f"contention")
    result.rows = rows
    result.summary = summary
    result.notes.append(
        "triage_disagreements compares the compiled-SQL sweep against the "
        "row-at-a-time Python oracle as ordered (rule, sha256) sequences "
        "-- rule file order, sha256 ascending -- so equality is "
        "byte-identical action order, not just the same match set")
    result.notes.append(
        "the contention phase forces busy_timeout to zero in every "
        "writer, so each collision exercises the application-level "
        "busy-retry policy; summed scan_count must equal writes issued "
        "and the retry counters must have advanced")
    return result


# --------------------------------------------------------------------------- #
# E15: event-driven ingest vs poll-cycle ingest (steady-state latency)


@dataclass
class E15Config:
    """Workload of the E15 event-driven ingest experiment.

    A corpus is written out as a directory of ``.bin`` files and ingested
    twice by :class:`~repro.ingest.EventIngestService`: once on the ``poll``
    backend (the walk a network mount needs) and once on ``inotify``.  Both
    then idle over the *unchanged* corpus for ``steady_cycles`` rounds --
    the poll backend pays a full stat walk per round, inotify pays one
    empty ``select()`` -- and finally a fresh contract is dropped into the
    tree to measure the inotify path's change-to-verdict latency.
    """

    # same 240-contract scale as E10/E11, so the service benches compare
    num_samples: int = 240
    steady_cycles: int = 20
    epochs: int = 6
    num_layers: int = 1
    hidden_features: int = 16
    #: the gated speedup is reported as ``min(observed, cap)`` -- the raw
    #: walk-vs-select ratio runs into the hundreds and is too noisy to
    #: floor-gate, while "comfortably above the cap" is stable anywhere
    speedup_cap: float = 25.0
    seed: int = 0


def run_e15_event_ingest(config: Optional[E15Config] = None) -> ExperimentResult:
    """E15: event-driven ingest parity + steady-state cycle speedup.

    The acceptance claims: (1) the registry rows produced by the inotify
    backend are **byte-identical** to the poll backend's (same sample ids,
    same verdict dicts field-by-field); (2) a steady-state cycle over the
    unchanged corpus is at least 5x cheaper on inotify than on the poll
    backend (gated via the capped ``steady_state_speedup``); (3) a contract
    dropped into the watched tree reaches a recorded verdict without a
    poll-interval round trip.  Requires inotify (the poll backend alone
    would measure a walk against a walk).
    """
    import pathlib
    import tempfile
    import time

    from repro.core.detector import ScamDetector
    from repro.ingest import EventIngestService, InotifyWatcher
    from repro.registry import ScanRegistry

    config = config or E15Config()
    if not InotifyWatcher.available():
        raise RuntimeError(
            "E15 requires inotify (Linux); the poll fallback would measure "
            "a walk against a walk")
    corpus = CorpusGenerator(GeneratorConfig(
        platform="evm", num_samples=config.num_samples,
        label_noise=0.0, seed=config.seed)).generate("e15-corpus")
    detector = ScamDetector(
        ScamDetectConfig(epochs=config.epochs, num_layers=config.num_layers,
                         hidden_features=config.hidden_features,
                         seed=config.seed),
        explain=False)
    detector.train(corpus)

    def report_rows(registry: ScanRegistry) -> Dict[str, Dict[str, object]]:
        return {row.sample_id: row.to_report().to_dict()
                for row in registry.query(limit=None)}

    with tempfile.TemporaryDirectory(prefix="e15-ingest-") as tmp:
        feed = pathlib.Path(tmp) / "feed"
        feed.mkdir()
        for sample in corpus:
            (feed / f"{sample.sample_id}.bin").write_bytes(sample.bytecode)

        # --- poll backend: backfill, then steady-state walk cycles ------ #
        poll_db = pathlib.Path(tmp) / "verdicts-poll.db"
        with ScanRegistry.for_config(poll_db, detector.config) as registry:
            with EventIngestService(detector, registry, roots=[feed],
                                    backend="poll") as service:
                started = time.perf_counter()
                service.backfill()
                poll_cold_seconds = time.perf_counter() - started
                # one untimed steady cycle first, as below
                service.cycle(timeout=0.0)
                started = time.perf_counter()
                for _ in range(config.steady_cycles):
                    service.cycle(timeout=0.0)
                poll_steady_seconds = (time.perf_counter() - started) \
                    / config.steady_cycles
            poll_rows = report_rows(registry)

        # --- inotify backend: backfill, steady idle cycles, reactivity -- #
        event_db = pathlib.Path(tmp) / "verdicts-event.db"
        with ScanRegistry.for_config(event_db, detector.config) as registry:
            with EventIngestService(detector, registry, roots=[feed],
                                    backend="inotify") as service:
                started = time.perf_counter()
                service.backfill()
                event_cold_seconds = time.perf_counter() - started
                # untimed cycles first (the backfill already took the
                # watcher's catch-up events, so they find nothing)
                service.cycle(timeout=0.0)
                service.cycle(timeout=0.0)
                steady_inference_before = service.stats.inference_calls
                started = time.perf_counter()
                for _ in range(config.steady_cycles):
                    service.cycle(timeout=0.0)
                event_steady_seconds = (time.perf_counter() - started) \
                    / config.steady_cycles
                steady_inference = (service.stats.inference_calls
                                    - steady_inference_before)
                event_rows = report_rows(registry)

                # drop one fresh contract: kernel event -> queue -> verdict
                # (content from a different seed, so it cannot be answered
                # by the content-hash dedupe path)
                extra = CorpusGenerator(GeneratorConfig(
                    platform="evm", num_samples=1, label_noise=0.0,
                    seed=config.seed + 1)).generate("e15-late")[0]
                started = time.perf_counter()
                (feed / "late-drop.bin").write_bytes(extra.bytecode)
                deadline = started + 30.0
                while "late-drop.bin" not in report_rows(registry):
                    if time.perf_counter() > deadline:
                        raise RuntimeError(
                            "E15: late-dropped contract never reached the "
                            "registry")
                    service.cycle(timeout=0.05)
                react_seconds = time.perf_counter() - started
                enqueue_deduped = service.stats.deduped

        mismatches = sum(
            1 for sample_id in set(poll_rows) | set(event_rows)
            if poll_rows.get(sample_id) != event_rows.get(sample_id))

    observed = (poll_steady_seconds / event_steady_seconds
                if event_steady_seconds else float("inf"))
    result = ExperimentResult(
        experiment_id="E15",
        title="Event-driven ingest: inotify + bounded queue vs poll cycles")
    result.rows = [
        {"mode": "poll-cold", "contracts": config.num_samples,
         "seconds": poll_cold_seconds,
         "contracts_per_second": (config.num_samples / poll_cold_seconds
                                  if poll_cold_seconds else 0.0)},
        {"mode": "event-cold", "contracts": config.num_samples,
         "seconds": event_cold_seconds,
         "contracts_per_second": (config.num_samples / event_cold_seconds
                                  if event_cold_seconds else 0.0)},
        {"mode": "poll-steady", "contracts": config.num_samples,
         "seconds": poll_steady_seconds},
        {"mode": "event-steady", "contracts": config.num_samples,
         "seconds": event_steady_seconds},
        {"mode": "event-react", "contracts": 1, "seconds": react_seconds},
    ]
    result.summary = {
        "steady_state_speedup": min(observed, config.speedup_cap),
        "steady_state_ratio_observed": observed,
        "poll_steady_cycle_ms": poll_steady_seconds * 1000.0,
        "event_steady_cycle_ms": event_steady_seconds * 1000.0,
        "event_react_ms": react_seconds * 1000.0,
        "verdict_mismatches": float(mismatches),
        "registry_rows": float(len(event_rows)),
        "enqueue_deduped": float(enqueue_deduped),
        "steady_inference_calls": float(steady_inference),
    }
    result.notes.append(
        "inotify-backend registry rows are compared field-by-field against "
        "the poll backend's over the same corpus; mismatches must be zero")
    result.notes.append(
        f"steady_state_speedup is capped at {config.speedup_cap:g}x for "
        f"gating (raw walk-vs-select ratio in "
        f"steady_state_ratio_observed); the acceptance floor is 5x")
    result.notes.append(
        "steady_inference_calls must be zero: idling over an unchanged "
        "corpus performs no model invocations on either path")
    return result


# --------------------------------------------------------------------------- #
# E16: observability overhead + span accounting


@dataclass
class E16Config:
    """Workload of the E16 tracing-overhead experiment.

    The same per-contract scan loop runs in interleaved pairs of timed
    passes over one corpus -- a disarmed pass, then an armed one -- each on
    a fresh :class:`~repro.service.batch.BatchScanner` and graph cache, so
    every pass performs identical cold-scan work.  The gated overhead is
    the median of the per-pair armed/disarmed ratios: pairing cancels slow
    host drift, and the median discards the pairs a scheduler hiccup
    spoiled.  The jitter yardstick is the median max/min ratio of
    consecutive disarmed passes.
    """

    # same 240-contract scale as E10/E11/E15, so the service benches compare
    num_samples: int = 240
    warmup_samples: int = 40
    pairs: int = 9
    epochs: int = 6
    num_layers: int = 1
    hidden_features: int = 16
    cache_capacity: int = 1024
    #: hard ceiling asserted by the bench: armed tracing must cost <= 10%
    armed_overhead_cap: float = 1.10
    seed: int = 0


def run_e16_observability(
    config: Optional[E16Config] = None,
) -> ExperimentResult:
    """E16: disarmed tracing is free, armed tracing costs <= 10%.

    The acceptance claims: (1) with no tracer armed the instrumented scan
    stack is statistically indistinguishable from an uninstrumented one
    (``disarmed_overhead_ratio``, the median max/min ratio of consecutive
    disarmed passes, stays at repeat-jitter level -- and the seed-gated
    E8/E12 throughputs hold); (2) an armed tracer costs at most 10% wall
    clock (``armed_overhead_ratio``, the median per-pair armed/disarmed
    ratio); (3) span accounting is exact over a
    240-contract run: every scan yields exactly one trace, no orphan
    spans, and every same-thread child nests inside its parent; (4) armed
    and disarmed passes produce identical verdicts.
    """
    import statistics
    import time

    from repro.core.detector import ScamDetector
    from repro.obs import tracing, verify_traces
    from repro.service import BatchScanner, GraphCache

    config = config or E16Config()
    if config.pairs < 2:
        raise ValueError("E16 needs at least 2 pairs for its jitter yardstick")
    corpus = CorpusGenerator(GeneratorConfig(
        platform="evm", num_samples=config.num_samples,
        label_noise=0.0, seed=config.seed)).generate("e16-corpus")
    detector = ScamDetector(
        ScamDetectConfig(epochs=config.epochs, num_layers=config.num_layers,
                         hidden_features=config.hidden_features,
                         seed=config.seed),
        explain=False)
    detector.train(corpus)
    samples = list(corpus)

    def scan_pass(subset) -> Tuple[float, list]:
        """One per-contract scan pass on a fresh scanner + cold cache."""
        cache = GraphCache.for_config(
            detector.config, capacity=config.cache_capacity)
        scanner = BatchScanner(detector, cache=cache)
        reports = []
        started = time.perf_counter()
        try:
            for sample in subset:
                result = scanner.scan_codes(
                    [sample.bytecode], sample_ids=[sample.sample_id])
                reports.extend(result.reports)
        finally:
            scanner.close()
        return time.perf_counter() - started, reports

    # warm the stack (numpy dispatch, lowering tables) outside the timers
    scan_pass(samples[:config.warmup_samples])

    disarmed_seconds: list = []
    armed_seconds: list = []
    span_records: list = []
    for index in range(config.pairs):
        seconds, disarmed_reports = scan_pass(samples)
        disarmed_seconds.append(seconds)
        with tracing() as tracer:
            seconds, armed_reports = scan_pass(samples)
        armed_seconds.append(seconds)
        if index == 0:
            span_records = tracer.drain()

    verdict_mismatches = sum(
        1 for disarmed, armed in zip(disarmed_reports, armed_reports)
        if (disarmed.label, disarmed.malicious_probability)
        != (armed.label, armed.malicious_probability))

    invariants = verify_traces(span_records)
    # one scan == one trace: a count drift is an accounting failure even
    # when every individual trace has exactly one root
    accounting = (invariants["accounting_mismatches"]
                  + invariants["orphan_spans"]
                  + abs(invariants["traces"] - config.num_samples))

    armed_ratio = statistics.median(
        armed / disarmed
        for armed, disarmed in zip(armed_seconds, disarmed_seconds))
    jitter = statistics.median(
        max(pair) / min(pair)
        for pair in zip(disarmed_seconds, disarmed_seconds[1:]))
    disarmed_median = statistics.median(disarmed_seconds)
    armed_median = statistics.median(armed_seconds)

    result = ExperimentResult(
        experiment_id="E16",
        title="Observability: tracing overhead + span accounting")
    result.rows = [
        {"mode": "disarmed", "contracts": config.num_samples,
         "seconds": disarmed_median,
         "contracts_per_second": config.num_samples / disarmed_median},
        {"mode": "armed", "contracts": config.num_samples,
         "seconds": armed_median,
         "contracts_per_second": config.num_samples / armed_median},
    ]
    result.summary = {
        "disarmed_contracts_per_second": config.num_samples / disarmed_median,
        "armed_contracts_per_second": config.num_samples / armed_median,
        "armed_overhead_ratio": armed_ratio,
        "disarmed_overhead_ratio": jitter,
        "traces": float(invariants["traces"]),
        "spans": float(invariants["spans"]),
        "span_accounting_mismatches": float(accounting),
        "span_nesting_mismatches": float(invariants["nesting_mismatches"]),
        "verdict_mismatches": float(verdict_mismatches),
    }
    result.notes.append(
        f"armed_overhead_ratio is the median armed/disarmed ratio over "
        f"{config.pairs} interleaved pairs of identical cold-cache "
        f"per-contract scan loops; disarmed_overhead_ratio is the "
        f"repeat-jitter yardstick (median max/min of consecutive disarmed "
        f"passes)")
    result.notes.append(
        f"the bench asserts armed_overhead_ratio <= "
        f"{config.armed_overhead_cap:g}; the *_mismatches counters are "
        f"zero-rise gated")
    return result

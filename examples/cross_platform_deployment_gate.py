"""A cross-platform deployment gate: one detector for EVM and WASM contracts.

Scenario: a multi-chain platform (an EVM rollup plus a WASM-based chain)
wants a single pre-deployment gate that scans every submitted contract,
whatever its runtime, and blocks the ones that look like malware.  This is
the Phase-2 goal of the ScamDetect roadmap: platform-agnostic detection
through the shared IR.

Run with::

    python examples/cross_platform_deployment_gate.py
"""

from __future__ import annotations

import random

from repro import ScamDetectConfig, ScamDetector
from repro.core.frontends import detect_platform
from repro.datasets import CorpusGenerator, GeneratorConfig
from repro.datasets.corpus import Corpus
from repro.evm.contracts import TEMPLATES_BY_NAME as EVM_TEMPLATES
from repro.wasm.contracts import WASM_TEMPLATES_BY_NAME as WASM_TEMPLATES


def main() -> None:
    print("== cross-platform deployment gate ==")

    # one mixed training corpus: EVM + WASM families through the shared IR
    evm_corpus = CorpusGenerator(GeneratorConfig(
        platform="evm", num_samples=140, label_noise=0.02, seed=8)).generate()
    wasm_corpus = CorpusGenerator(GeneratorConfig(
        platform="wasm", num_samples=140, label_noise=0.02, seed=9)).generate()
    mixed = Corpus(list(evm_corpus) + list(wasm_corpus), name="multichain")

    detector = ScamDetector(ScamDetectConfig(architecture="gcn", epochs=30, seed=8))
    detector.train(mixed)
    print(f"gate trained on {len(mixed)} contracts "
          f"({len(evm_corpus)} EVM + {len(wasm_corpus)} WASM)")
    print(f"per-platform accuracy: evm={detector.evaluate(evm_corpus)['accuracy']:.3f} "
          f"wasm={detector.evaluate(wasm_corpus)['accuracy']:.3f}")

    # submissions arriving at the gate -- the platform is not declared, the
    # gate sniffs it from the binary itself
    rng = random.Random(2024)
    submissions = [
        ("erc20-launch", EVM_TEMPLATES["erc20_token"].generate(rng)),
        ("yield-vault", EVM_TEMPLATES["staking_vault"].generate(rng)),
        ("airdrop-claim-helper", EVM_TEMPLATES["approval_drainer"].generate(rng)),
        ("upgradeable-wallet", EVM_TEMPLATES["backdoor_proxy"].generate(rng)),
        ("wasm-ft-token", WASM_TEMPLATES["wasm_token"].generate(rng)),
        ("wasm-name-registry", WASM_TEMPLATES["wasm_registry"].generate(rng)),
        ("wasm-rewards-booster", WASM_TEMPLATES["wasm_drainer"].generate(rng)),
        ("wasm-vault-v2", WASM_TEMPLATES["wasm_rugpull"].generate(rng)),
    ]

    print("\ngate decisions:")
    print(f"{'submission':<24} {'platform':>8} {'p(malicious)':>13} {'decision':>10}")
    for name, code in submissions:
        platform = detect_platform(code)
        report = detector.scan(code, sample_id=name)
        decision = "REJECT" if report.is_malicious else "allow"
        print(f"{name:<24} {platform:>8} {report.malicious_probability:>13.3f} "
              f"{decision:>10}")

    # the same gate as a batch service call: batched inference, a graph
    # cache shared across submission waves, and throughput telemetry
    from repro.service import GraphCache

    cache = GraphCache.for_config(detector.config)
    summary = detector.scan_many([code for _, code in submissions],
                                 sample_ids=[name for name, _ in submissions],
                                 cache=cache)
    print("\n" + summary.format())
    resubmitted = detector.scan_many([code for _, code in submissions],
                                     sample_ids=[name for name, _ in submissions],
                                     cache=cache)
    print(f"re-submission wave served from cache: "
          f"{resubmitted.cache_stats.hits}/{resubmitted.num_scanned} hits")


if __name__ == "__main__":
    main()

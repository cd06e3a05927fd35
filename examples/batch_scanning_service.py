"""The batch scanning service: cached, batched triage of a contract feed.

Scenario: a security desk receives a rolling feed of contract submissions.
Most of the feed is repeats -- factory clones, re-submissions of yesterday's
contracts, re-audits after a model refresh -- so the desk runs the detector
behind the service layer: a content-addressed graph cache (with an on-disk
tier that survives restarts) plus batched inference.

Run with::

    python examples/batch_scanning_service.py
"""

from __future__ import annotations

import random
import tempfile

from repro import ScamDetectConfig, ScamDetector
from repro.datasets import CorpusGenerator, GeneratorConfig
from repro.evm.contracts import TEMPLATES_BY_NAME as EVM_TEMPLATES
from repro.service import BatchScanner, GraphCache


def main() -> None:
    print("== batch scanning service ==")

    corpus = CorpusGenerator(GeneratorConfig(
        platform="evm", num_samples=160, label_noise=0.02, seed=21)).generate()
    detector = ScamDetector(ScamDetectConfig(architecture="gcn", epochs=25, seed=21),
                            explain=False)
    detector.train(corpus)
    print(f"detector trained on {len(corpus)} contracts")

    # today's feed: fresh deployments mixed with clones of known bytecode
    rng = random.Random(77)
    fresh = [(f"fresh-{name}-{index}", EVM_TEMPLATES[name].generate(rng))
             for index, name in enumerate(
                 ("erc20_token", "staking_vault", "approval_drainer",
                  "honeypot", "backdoor_proxy", "multisig_wallet"))]
    clones = [(f"clone-{index:03d}", corpus[index % len(corpus)].bytecode)
              for index in range(60)]
    feed = fresh + clones

    with tempfile.TemporaryDirectory() as cache_home:
        cache = GraphCache.for_config(detector.config, capacity=2048,
                                      disk_dir=cache_home)
        scanner = BatchScanner(detector, cache=cache)

        print("\nfirst pass (cold cache):")
        first = scanner.scan_codes([code for _, code in feed],
                                   sample_ids=[name for name, _ in feed])
        print(first.format())

        print("\nsecond pass (warm cache, same feed re-submitted):")
        second = scanner.scan_codes([code for _, code in feed],
                                    sample_ids=[name for name, _ in feed])
        print(second.format())

        speedup = (first.elapsed_seconds / second.elapsed_seconds
                   if second.elapsed_seconds else float("inf"))
        print(f"\nwarm-over-cold speedup: {speedup:.1f}x")

        flagged = second.malicious_reports()
        print(f"flagged for analyst review: "
              f"{', '.join(report.sample_id for report in flagged[:6])}"
              f"{' ...' if len(flagged) > 6 else ''}")


if __name__ == "__main__":
    main()

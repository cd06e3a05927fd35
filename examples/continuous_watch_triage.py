"""Continuous watching with a persistent registry and triage rules.

Scenario: a security desk points the detector at a drop directory that other
systems write contract submissions into.  Instead of re-scanning the corpus
on a cron job, the watch service (``scamdetect watch``) follows it: new and
changed files are scanned, verdicts land durably in a SQLite registry (so
restarts, queries and the scan server all share one source of truth), and
declarative TOML rules tag and alert on the dangerous ones at ingest time.

Run with::

    python examples/continuous_watch_triage.py
"""

from __future__ import annotations

import json
import pathlib
import random
import tempfile

from repro import ScamDetectConfig, ScamDetector
from repro.datasets import CorpusGenerator, GeneratorConfig
from repro.evm.contracts import TEMPLATES_BY_NAME as EVM_TEMPLATES
from repro.ingest import EventIngestService
from repro.registry import RulesEngine, ScanRegistry, parse_rules

TRIAGE_RULES = """
[[rules]]
name = "page-on-high-confidence-scam"

[rules.match]
verdict = "malicious"
min_score = 0.8

[rules.actions]
tag = ["hot"]
alert = true

[[rules]]
name = "track-low-confidence"

[rules.match]
verdict = "malicious"
max_score = 0.8

[rules.actions]
tag = ["review"]
"""


def main() -> None:
    print("== continuous watch + rules-based triage ==")

    corpus = CorpusGenerator(
        GeneratorConfig(
            platform="evm", num_samples=160, label_noise=0.02, seed=33
        )
    ).generate()
    detector = ScamDetector(
        ScamDetectConfig(architecture="gcn", epochs=25, seed=33),
        explain=False,
    )
    detector.train(corpus)
    print(f"detector trained on {len(corpus)} contracts")

    rng = random.Random(99)
    with tempfile.TemporaryDirectory(prefix="watch-example-") as tmp:
        root = pathlib.Path(tmp)
        feed = root / "drops"
        feed.mkdir()
        for name in ("erc20_token", "staking_vault", "multisig_wallet"):
            code = EVM_TEMPLATES[name].generate(rng)
            (feed / f"{name}.bin").write_bytes(code)

        alerts = root / "alerts.jsonl"
        engine = RulesEngine(parse_rules(TRIAGE_RULES), alert_path=alerts)
        with ScanRegistry.for_config(
            root / "verdicts.db", detector.config
        ) as registry, EventIngestService(
            # the poll backend walks the drop directory once per cycle (what
            # a network mount needs); the default picks inotify where the
            # kernel offers it
            detector, registry, roots=[feed], rules=engine, backend="poll"
        ) as service:
            stats = service.backfill()
            print(f"backfill (initial ingest): {stats.format()}")

            # nothing changed: the next cycle is pure os.stat
            stats = service.cycle()
            print(f"cycle 1 (unchanged):       {stats.format()}")

            # two malicious drops arrive between cycles
            for name in ("approval_drainer", "honeypot"):
                code = EVM_TEMPLATES[name].generate(rng)
                (feed / f"{name}.bin").write_bytes(code)
            stats = service.cycle()
            print(f"cycle 2 (two new drops):   {stats.format()}")

            print("\nregistry contents (newest first):")
            for row in registry.query(limit=10):
                print(f"  {row.format()}")

            hot = registry.query(tag="hot") + registry.query(tag="review")
            print(f"\n{len(hot)} contracts triaged for review")
            if alerts.exists():
                for line in alerts.read_text().splitlines():
                    alert = json.loads(line)
                    print(
                        f"  ALERT [{alert['rule']}] "
                        f"{alert['source_path']} "
                        f"p={alert['malicious_probability']:.3f}"
                    )

            # a registry hit needs no model: re-dropping known bytecode
            # under a new name is answered from SQLite
            clone = feed / "approval_drainer-clone.bin"
            clone.write_bytes((feed / "approval_drainer.bin").read_bytes())
            stats = service.cycle()
            print(
                f"\ncycle 3 (clone drop):      {stats.format()}"
                f"\n  -> served from the registry with zero inference"
            )


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""CI smoke test for ``scamdetect watch --backend poll`` (a real subprocess).

Drives the full continuous-scanning loop the way an operator on a network
mount would -- the poll backend walks the tree every interval (the ingest
smoke test covers the inotify backend):

1. generate a small corpus directory and a triage rules file,
2. spawn ``scamdetect watch --backend poll`` as a subprocess with a short
   interval,
3. wait for the initial ingest to land in the SQLite registry,
4. drop a *new* contract into the watched directory and assert that its
   registry row and the rule's JSONL alert appear within a few polls,
5. send SIGTERM and assert the watcher drains and exits cleanly (exit code
   0 or 2 -- 2 means an ``exit_nonzero`` triage rule fired, which is
   expected when the corpus contains malicious contracts),
6. re-read the registry with ``scamdetect query --json`` and sanity-check
   the recorded verdicts.

Usage::

    python scripts/ci_watch_smoke.py --model-path /tmp/ci-model
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

RULES = """
[[rules]]
name = "ci-alert-on-scam"

[rules.match]
verdict = "malicious"

[rules.actions]
tag = ["ci-hot"]
alert = true
exit_nonzero = true
"""


def wait_for(predicate, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.25)
    raise SystemExit(f"watch smoke: timed out waiting for {what}")


def registry_rows(registry: pathlib.Path) -> list:
    if not registry.exists():
        return []
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "query",
            "--registry",
            str(registry),
            "--all",
            "--json",
        ],
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        return []
    return json.loads(result.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model-path", required=True)
    parser.add_argument("--num-contracts", type=int, default=12)
    parser.add_argument("--timeout", type=float, default=60.0)
    args = parser.parse_args()

    from repro.datasets.generator import CorpusGenerator, GeneratorConfig

    corpus = CorpusGenerator(
        GeneratorConfig(
            platform="evm",
            num_samples=args.num_contracts + 1,
            label_noise=0.0,
            seed=7,
        )
    ).generate("watch-smoke")
    samples = list(corpus)

    with tempfile.TemporaryDirectory(prefix="watch-smoke-") as tmp:
        root = pathlib.Path(tmp)
        feed = root / "feed"
        feed.mkdir()
        for sample in samples[:-1]:
            (feed / f"{sample.sample_id}.bin").write_bytes(sample.bytecode)
        rules = root / "rules.toml"
        rules.write_text(RULES)
        registry = root / "verdicts.db"
        alerts = root / "alerts.jsonl"

        watcher = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "watch",
                str(feed),
                "--model-path",
                args.model_path,
                "--registry",
                str(registry),
                "--rules",
                str(rules),
                "--alert-file",
                str(alerts),
                "--backend",
                "poll",
                "--interval",
                "0.5",
            ],
        )
        try:
            wait_for(
                lambda: len(registry_rows(registry)) >= args.num_contracts,
                args.timeout,
                "the initial corpus ingest",
            )
            print(
                f"watch smoke: initial ingest of {args.num_contracts} "
                f"contracts recorded"
            )

            dropped = samples[-1]
            (feed / "dropped-late.bin").write_bytes(dropped.bytecode)
            wait_for(
                lambda: any(
                    row["source_path"] == "dropped-late.bin"
                    for row in registry_rows(registry)
                ),
                args.timeout,
                "the late-dropped contract's registry row",
            )
            print("watch smoke: late drop picked up by the poll loop")

            rows = registry_rows(registry)
            malicious = [
                row
                for row in rows
                if row["report"]["verdict"] == "malicious"
            ]
            if malicious:
                wait_for(
                    lambda: alerts.exists()
                    and len(alerts.read_text().splitlines())
                    >= len(malicious),
                    args.timeout,
                    "the triage rule's JSONL alerts",
                )
                tagged = [
                    row for row in rows if "ci-hot" in row["tags"]
                ]
                if not tagged:
                    # tags are applied in the same cycle the verdict lands;
                    # re-read once in case we raced the first query
                    tagged = [
                        row
                        for row in registry_rows(registry)
                        if "ci-hot" in row["tags"]
                    ]
                assert tagged, "rule matched but no ci-hot tags recorded"
                print(
                    f"watch smoke: {len(malicious)} malicious verdicts "
                    f"alerted and tagged"
                )
        finally:
            watcher.send_signal(signal.SIGTERM)
            exit_code = watcher.wait(timeout=30)
        if exit_code not in (0, 2):
            raise SystemExit(
                f"watch smoke: watcher exited {exit_code} after SIGTERM "
                f"(expected 0, or 2 when the exit_nonzero rule fired)"
            )
        print(f"watch smoke: watcher drained cleanly (exit {exit_code})")

        rows = registry_rows(registry)
        expected = args.num_contracts + 1
        if len(rows) != expected:
            raise SystemExit(
                f"watch smoke: registry holds {len(rows)} verdicts, "
                f"expected {expected}"
            )
        print(f"watch smoke: registry holds all {expected} verdicts -- ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""CI smoke test for the event-driven ingest tier (real subprocesses).

Exercises both ingest front doors the way an operator would:

1. generate a small corpus directory,
2. spawn ``scamdetect watch --event-driven`` as a subprocess (inotify on
   Linux runners, the poll-walk fallback elsewhere),
3. wait for the backfill to land in the SQLite registry,
4. drop a *new* contract into the watched tree and assert its registry
   row appears at event latency,
5. SIGTERM the watcher and assert it drains and exits cleanly (0, or 2
   when an ``exit_nonzero`` triage rule fired),
6. spawn ``scamdetect serve --ingest-queue`` against the same registry,
   ``POST /v1/ingest`` a pushed contract, and assert its verdict is
   recorded and the queue counters surface in ``/v1/healthz``,
7. SIGTERM the server and assert the queue drained (no accepted contract
   is lost).

Usage::

    python scripts/ci_ingest_smoke.py --model-path /tmp/ci-model
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
import urllib.request


def wait_for(predicate, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.25)
    raise SystemExit(f"ingest smoke: timed out waiting for {what}")


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


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model-path", required=True)
    parser.add_argument("--num-contracts", type=int, default=12)
    parser.add_argument("--port", type=int, default=8761)
    parser.add_argument("--timeout", type=float, default=60.0)
    args = parser.parse_args()

    from repro.datasets.generator import CorpusGenerator, GeneratorConfig

    corpus = CorpusGenerator(
        GeneratorConfig(
            platform="evm",
            num_samples=args.num_contracts + 2,
            label_noise=0.0,
            seed=11,
        )
    ).generate("ingest-smoke")
    samples = list(corpus)

    with tempfile.TemporaryDirectory(prefix="ingest-smoke-") as tmp:
        root = pathlib.Path(tmp)
        feed = root / "feed"
        feed.mkdir()
        for sample in samples[: args.num_contracts]:
            (feed / f"{sample.sample_id}.bin").write_bytes(sample.bytecode)
        registry = root / "verdicts.db"

        watcher = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "watch",
                str(feed),
                "--event-driven",
                "--model-path",
                args.model_path,
                "--registry",
                str(registry),
                "--interval",
                "0.2",
            ],
        )
        try:
            wait_for(
                lambda: len(registry_rows(registry)) >= args.num_contracts,
                args.timeout,
                "the event-driven backfill",
            )
            print(
                f"ingest smoke: backfill of {args.num_contracts} contracts "
                f"recorded"
            )

            dropped = samples[args.num_contracts]
            (feed / "dropped-late.bin").write_bytes(dropped.bytecode)
            wait_for(
                lambda: any(
                    row["source_path"] == "dropped-late.bin"
                    for row in registry_rows(registry)
                ),
                args.timeout,
                "the late-dropped contract's registry row",
            )
            print("ingest smoke: late drop landed via the event watcher")
        finally:
            watcher.send_signal(signal.SIGTERM)
            exit_code = watcher.wait(timeout=30)
        if exit_code not in (0, 2):
            raise SystemExit(
                f"ingest smoke: watcher exited {exit_code} after SIGTERM "
                f"(expected 0, or 2 when an exit_nonzero rule fired)"
            )
        print(f"ingest smoke: watcher drained cleanly (exit {exit_code})")

        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--model-path",
                args.model_path,
                "--registry",
                str(registry),
                "--ingest-queue",
                "64",
                "--port",
                str(args.port),
            ],
        )
        base = f"http://127.0.0.1:{args.port}"
        try:
            wait_for(
                lambda: server.poll() is None and _probe(base),
                args.timeout,
                "the ingest server to come up",
            )
            health = get_json(f"{base}/v1/healthz")
            ingest = health.get("ingest")
            assert ingest and ingest["capacity"] == 64, health
            print(
                f"ingest smoke: server up, queue capacity "
                f"{ingest['capacity']} (backend {ingest['backend']})"
            )

            pushed = samples[args.num_contracts + 1]
            body = json.dumps(
                {
                    "contracts": [
                        {
                            "bytecode": pushed.bytecode.hex(),
                            "sample_id": "pushed-contract",
                        }
                    ]
                }
            ).encode()
            request = urllib.request.Request(
                f"{base}/v1/ingest",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                accepted = json.loads(response.read())
                assert response.status == 202, response.status
            assert accepted["accepted"] == 1, accepted
            wait_for(
                lambda: any(
                    row["report"]["sample_id"] == "pushed-contract"
                    for row in registry_rows(registry)
                ),
                args.timeout,
                "the pushed contract's registry row",
            )
            print("ingest smoke: POST /v1/ingest verdict recorded")

            metrics = get_json(f"{base}/v1/metrics")
            stats = metrics["ingest"]["stats"]
            assert stats["enqueued"] >= 1, metrics["ingest"]
            print(
                f"ingest smoke: metrics report {stats['enqueued']} enqueued, "
                f"{stats['drained']} drained"
            )
        finally:
            server.send_signal(signal.SIGTERM)
            exit_code = server.wait(timeout=30)
        if exit_code != 0:
            raise SystemExit(
                f"ingest smoke: server exited {exit_code} after SIGTERM"
            )
        print("ingest smoke: server drained cleanly (exit 0)")

        rows = registry_rows(registry)
        expected = args.num_contracts + 2
        if len(rows) != expected:
            raise SystemExit(
                f"ingest smoke: registry holds {len(rows)} verdicts, "
                f"expected {expected}"
            )
        print(f"ingest smoke: registry holds all {expected} verdicts -- ok")
    return 0


def _probe(base: str) -> bool:
    try:
        return get_json(f"{base}/v1/healthz")["status"] == "ok"
    except OSError:
        return False


if __name__ == "__main__":
    sys.exit(main())

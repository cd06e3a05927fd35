#!/usr/bin/env python
"""CI smoke test against a running ``scamdetect serve`` instance.

Started by the CI workflow after launching the server in the background,
with a verdict registry attached (the front door the gate-zipf benchmark
workload measures)::

    scamdetect serve --model-path /tmp/ci-model --port 8742 \
        --registry /tmp/ci-registry.db &
    python scripts/ci_server_smoke.py --port 8742

Asserts, against a live server over real HTTP:

1. ``GET /v1/healthz`` answers 200 with ``status: ok``;
2. ``POST /v1/scan`` of a freshly generated contract returns a well-formed
   verdict (all report fields present, verdict in {benign, malicious},
   probability consistent with the label);
3. rescanning that contract returns the same verdict, answered from the
   registry (``GET /v1/metrics`` shows ``scans.registry.hits >= 1``);
4. a burst of concurrent scans plus one ``/v1/scan-batch`` works and
   ``GET /v1/metrics`` shows the counters advancing and the coalescer forming
   at least one inference batch of size > 1.

Exits non-zero with a readable message on the first violated expectation.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import sys

from repro.datasets.generator import CorpusGenerator, GeneratorConfig
from repro.service import ServerClient


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"server smoke test FAILED: {message}")
    print(f"  ok: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8742)
    parser.add_argument("--startup-timeout", type=float, default=30.0)
    args = parser.parse_args(argv)

    client = ServerClient(host=args.host, port=args.port)
    health = client.wait_until_ready(timeout=args.startup_timeout)
    check(health.get("status") == "ok", "GET /v1/healthz answers status=ok")
    check("model" in health and "uptime_seconds" in health,
          "health payload names the model and uptime")

    corpus = CorpusGenerator(GeneratorConfig(
        platform="evm", num_samples=16, label_noise=0.0, seed=99)).generate()
    report = client.scan(corpus[0].bytecode, sample_id="smoke-0")
    for field in ("sample_id", "platform", "verdict", "label",
                  "malicious_probability", "cfg_blocks", "model"):
        check(field in report, f"verdict JSON carries {field!r}")
    check(report["sample_id"] == "smoke-0", "sample_id echoes the request")
    check(report["verdict"] in ("benign", "malicious"),
          f"verdict is well-formed (got {report['verdict']!r})")
    check(0.0 <= report["malicious_probability"] <= 1.0,
          "malicious_probability is a probability")
    check((report["malicious_probability"] >= 0.5) ==
          (report["verdict"] == "malicious"),
          "verdict agrees with the probability and threshold")
    again = client.scan(corpus[0].bytecode, sample_id="smoke-0")
    check(again == report, "a rescan returns the first verdict")
    hits = client.metrics()["scans"].get("registry", {}).get("hits", 0)
    check(hits >= 1, f"the rescan was a registry hit (scans.registry.hits={hits})")

    # a concurrent burst: every verdict well-formed, coalescing engaged
    codes = [sample.bytecode for sample in corpus] * 2
    with concurrent.futures.ThreadPoolExecutor(max_workers=16) as pool:
        reports = list(pool.map(client.scan, codes))
    check(all(r["verdict"] in ("benign", "malicious") for r in reports),
          f"{len(reports)} concurrent scans all returned verdicts")
    batch = client.scan_batch([sample.bytecode for sample in corpus[:4]])
    check(batch["contracts"] == 4 and len(batch["reports"]) == 4,
          "POST /v1/scan-batch scans all submitted contracts")

    metrics = client.metrics()
    check(metrics["requests"].get("scan", 0) >= len(codes) + 1,
          "metrics count the scan requests")
    check(metrics["scans"]["contracts"] >= len(codes) + 5,
          "metrics count the scanned contracts")
    check(metrics["latency"]["scan"]["p50_ms"] > 0.0,
          "latency percentiles are reported")
    check(metrics["scans"]["batches"]["max_size"] > 1,
          "request coalescing formed at least one batch of size > 1")
    print("server smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

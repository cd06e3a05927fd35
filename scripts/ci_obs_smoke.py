#!/usr/bin/env python
"""CI smoke test for the observability tier (real subprocess under load).

Exercises the tracing + exposition stack the way an operator would:

1. spawn ``scamdetect serve --ingest-queue --trace-file --log-json`` as a
   subprocess against a fresh registry,
2. assert ``/v1/healthz`` reports tracing armed (and fault injection
   disarmed) plus the package version and ``uptime_s``,
3. drive load through every front door: ``POST /v1/scan``,
   ``POST /v1/scan-batch`` and ``POST /v1/ingest``,
4. scrape ``GET /v1/metrics?format=prometheus`` and syntax-check the
   exposition (TYPE/HELP lines, no duplicate families or samples) with
   the same validator the unit tests use,
5. SIGTERM the server, assert a clean drain (exit 0),
6. parse the trace JSONL and gate the span-accounting invariants: every
   trace has exactly one root, no orphan spans, children nest,
7. assert the stderr stream is valid JSON-lines (``--log-json``),
8. run ``scamdetect trace summarize`` over the trace file and assert the
   per-site table renders.

Usage::

    python scripts/ci_obs_smoke.py --model-path /tmp/ci-model
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
import urllib.error
import urllib.request


def wait_for(predicate, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.25)
    raise SystemExit(f"obs smoke: timed out waiting for {what}")


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def post_json(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def _probe(base: str) -> bool:
    try:
        return get_json(f"{base}/v1/healthz")["status"] == "ok"
    except OSError:
        return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model-path", required=True)
    parser.add_argument("--num-contracts", type=int, default=16)
    parser.add_argument("--port", type=int, default=8773)
    parser.add_argument("--timeout", type=float, default=60.0)
    args = parser.parse_args()

    from repro.datasets.generator import CorpusGenerator, GeneratorConfig
    from repro.obs import validate_exposition, verify_traces
    from repro.obs.trace import load_trace_file

    samples = list(
        CorpusGenerator(
            GeneratorConfig(
                platform="evm",
                num_samples=args.num_contracts + 2,
                label_noise=0.0,
                seed=13,
            )
        ).generate("obs-smoke")
    )

    with tempfile.TemporaryDirectory(prefix="obs-smoke-") as tmp:
        root = pathlib.Path(tmp)
        trace_file = root / "trace.jsonl"
        stderr_file = root / "server-stderr.log"
        base = f"http://127.0.0.1:{args.port}"

        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--model-path",
                args.model_path,
                "--registry",
                str(root / "verdicts.db"),
                "--ingest-queue",
                "64",
                "--port",
                str(args.port),
                "--trace-file",
                str(trace_file),
                "--log-json",
            ],
            stderr=stderr_file.open("wb"),
        )
        try:
            wait_for(
                lambda: server.poll() is None and _probe(base),
                args.timeout,
                "the traced server to come up",
            )
            health = get_json(f"{base}/v1/healthz")
            assert health["tracing"] == "armed", health
            assert health["fault_injection"] == "disarmed", health
            assert health["version"] and health["uptime_s"] >= 0.0, health
            print(
                f"obs smoke: server up, tracing armed "
                f"(version {health['version']})"
            )

            # load through every front door
            for index, sample in enumerate(samples[: args.num_contracts]):
                post_json(
                    f"{base}/v1/scan",
                    {
                        "bytecode": sample.bytecode.hex(),
                        "sample_id": f"scan-{index}",
                    },
                )
            post_json(
                f"{base}/v1/scan-batch",
                {
                    "contracts": [
                        {
                            "bytecode": sample.bytecode.hex(),
                            "sample_id": f"batch-{index}",
                        }
                        for index, sample in enumerate(samples[-2:])
                    ]
                },
            )
            accepted = post_json(
                f"{base}/v1/ingest",
                {
                    "contracts": [
                        {
                            "bytecode": samples[-1].bytecode.hex(),
                            "sample_id": "pushed-contract",
                        }
                    ]
                },
            )
            assert accepted["accepted"] == 1, accepted
            wait_for(
                lambda: get_json(f"{base}/v1/metrics")["ingest"]["queue"][
                    "drained"
                ]
                >= 1,
                args.timeout,
                "the ingest queue to drain the pushed contract",
            )
            print(
                f"obs smoke: load done "
                f"({args.num_contracts} scans + 1 batch + 1 ingest)"
            )

            # Prometheus exposition must be syntactically valid and carry
            # the request/scan/ingest families the load just advanced
            request = urllib.request.Request(
                f"{base}/v1/metrics?format=prometheus"
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                content_type = response.headers.get("Content-Type", "")
                text = response.read().decode("utf-8")
            assert content_type.startswith("text/plain"), content_type
            # every route is versioned: the bare path is an unknown one
            try:
                urllib.request.urlopen(f"{base}/metrics", timeout=10)
            except urllib.error.HTTPError as error:
                assert error.code == 404, error.code
            else:
                raise SystemExit("obs smoke: unversioned /metrics answered")
            errors = validate_exposition(text)
            if errors:
                for error in errors[:20]:
                    print(f"obs smoke: exposition error: {error}")
                raise SystemExit(
                    f"obs smoke: invalid Prometheus exposition "
                    f"({len(errors)} errors)"
                )
            for family in (
                'scamdetect_requests_total{endpoint="scan"}',
                "scamdetect_tracing_armed 1",
                "scamdetect_contracts_scanned_total",
                "scamdetect_ingest_queue_drained_total",
            ):
                assert family in text, f"missing {family!r} in exposition"
            print(
                f"obs smoke: Prometheus exposition valid "
                f"({len(text.splitlines())} lines)"
            )
        finally:
            server.send_signal(signal.SIGTERM)
            exit_code = server.wait(timeout=30)
        if exit_code != 0:
            sys.stderr.write(stderr_file.read_text())
            raise SystemExit(f"obs smoke: server exited {exit_code}")
        print("obs smoke: server drained cleanly (exit 0)")

        # the trace JSONL must parse and satisfy the accounting invariants
        records = load_trace_file(trace_file)
        invariants = verify_traces(records)
        print(f"obs smoke: trace invariants {invariants}")
        if (
            invariants["accounting_mismatches"]
            or invariants["orphan_spans"]
            or invariants["nesting_mismatches"]
        ):
            raise SystemExit("obs smoke: span-accounting invariants violated")
        sites = {record["site"] for record in records}
        for site in ("server.request", "gnn.infer", "ingest.enqueue",
                     "ingest.drain", "registry.write"):
            assert site in sites, f"no {site!r} span in {sorted(sites)}"
        # one root trace per server request + per ingest drain, at minimum
        assert invariants["traces"] >= args.num_contracts, invariants

        # --log-json: every stderr line the logger wrote is a JSON object
        json_lines = 0
        for line in stderr_file.read_text().splitlines():
            line = line.strip()
            if not line.startswith("{"):
                continue  # CLI banners (tracing notice etc.) stay human
            record = json.loads(line)
            assert "level" in record and "message" in record, record
            json_lines += 1
        print(f"obs smoke: {json_lines} structured log lines parsed")

        summary = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "trace",
                "summarize",
                str(trace_file),
            ],
            capture_output=True,
            text=True,
        )
        if summary.returncode != 0:
            sys.stderr.write(summary.stderr)
            raise SystemExit(
                f"obs smoke: trace summarize exited {summary.returncode}"
            )
        assert "server.request" in summary.stdout, summary.stdout
        print("obs smoke: trace summarize rendered the per-site table -- ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

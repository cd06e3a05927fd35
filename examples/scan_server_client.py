"""The live scan server: concurrent clients, request coalescing, metrics.

Scenario: the security desk moves from nightly batch scans to a always-on
scanning endpoint.  A :class:`ScanServer` wraps the trained detector behind
``POST /scan`` with a request coalescer: concurrent requests queue up and are
scored together in single block-diagonal GNN batches, sharing one graph
cache -- verdicts stay byte-identical to one-shot ``ScamDetector.scan``.

This example starts the server in-process on a free port, fires a burst of
concurrent clients at it, checks verdict parity, and prints the ``/metrics``
counters that a monitoring stack would scrape.

Run with::

    python examples/scan_server_client.py

(The standalone equivalent: ``scamdetect serve --model-path ...`` and any
HTTP client -- see the curl examples in the README.)
"""

from concurrent.futures import ThreadPoolExecutor

from repro import ScamDetectConfig, ScamDetector
from repro.datasets import CorpusGenerator, GeneratorConfig
from repro.service import ServerClient
from repro.service.server import ScanServer


def main() -> None:
    print("== scan server with request coalescing ==")

    corpus = CorpusGenerator(GeneratorConfig(
        platform="evm", num_samples=160, label_noise=0.02, seed=33)).generate()
    detector = ScamDetector(ScamDetectConfig(architecture="gcn", epochs=25,
                                             seed=33))
    detector.train(corpus)
    print(f"detector trained on {len(corpus)} contracts")

    # today's traffic: clients re-submitting a mix of known bytecode
    feed = [corpus[index % len(corpus)].bytecode for index in range(96)]

    with ScanServer(detector, port=0, workers=16, max_batch=16) as server:
        client = ServerClient(port=server.port)
        health = client.wait_until_ready()
        print(f"server up at {server.url} -- model: {health['model']}")

        with ThreadPoolExecutor(max_workers=24) as pool:
            verdicts = list(pool.map(client.scan, feed))
        flagged = [v for v in verdicts if v["verdict"] == "malicious"]
        print(f"\nscanned {len(verdicts)} concurrent requests, "
              f"{len(flagged)} flagged malicious")

        # every served verdict matches the one-shot scan path exactly
        mismatches = sum(
            1 for code, served in zip(feed, verdicts)
            if served != detector.scan(code).to_dict())
        print(f"verdict mismatches vs ScamDetector.scan: {mismatches}")

        metrics = client.metrics()
        batches = metrics["scans"]["batches"]
        cache = metrics["scans"]["cache"]
        latency = metrics["latency"]["scan"]
        print("\n/metrics after the burst:")
        print(f"  requests:        {metrics['requests']}")
        print(f"  inference calls: {batches['count']} "
              f"(max batch {batches['max_size']}, "
              f"{batches['coalesced']} coalesced)")
        print(f"  batch histogram: {batches['histogram']}")
        print(f"  cache hit rate:  {cache['hit_rate']:.1%} "
              f"({cache['hits']} hits / {cache['lookups']} lookups)")
        print(f"  scan latency:    p50={latency['p50_ms']:.1f}ms "
              f"p90={latency['p90_ms']:.1f}ms p99={latency['p99_ms']:.1f}ms")
    print("\nserver drained and shut down cleanly")


if __name__ == "__main__":
    main()

"""Tests of the scan server: coalescing, verdict parity, metrics, shutdown.

The server fixtures bind to port 0 (a free ephemeral port), so the suite can
run in parallel with anything else on the host.
"""

import concurrent.futures
import threading
import time

import pytest

from repro.core.config import ScamDetectConfig
from repro.core.detector import ScamDetector
from repro.service import ServerClient, ServerClientError
from repro.service.server import (
    RequestCoalescer,
    ScanServer,
    ServerMetrics,
    _percentile,
)

FAST = ScamDetectConfig(epochs=3, num_layers=1, hidden_features=8)


@pytest.fixture(scope="module")
def trained_detector(tiny_evm_corpus):
    # explain stays at the default (True) so server verdicts carry the same
    # indicator notes as a default ScamDetector.scan
    return ScamDetector(FAST).train(tiny_evm_corpus)


@pytest.fixture()
def server(trained_detector):
    with ScanServer(trained_detector, port=0, workers=16,
                    max_batch=16) as running:
        yield running
    # shutdown hands the detector back with its original (absent) cache
    assert trained_detector.pipeline.graph_cache is None


@pytest.fixture()
def client(server):
    probe = ServerClient(port=server.port)
    probe.wait_until_ready(timeout=10.0)
    return probe


# --------------------------------------------------------------------------- #
# endpoints


def test_healthz_reports_configuration(server, client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["workers"] == 16
    assert health["max_batch"] == 16
    assert "scamdetect-" in health["model"]
    assert health["uptime_seconds"] >= 0.0


def test_unknown_paths_are_404(client):
    for method, path in (("GET", "/nope"), ("POST", "/nope")):
        with pytest.raises(ServerClientError) as caught:
            client._request(method, path, {} if method == "POST" else None)
        assert caught.value.status == 404


def test_bad_requests_are_400(client):
    cases = [
        {"bytecode": "zz-not-hex"},
        {"bytecode": "6001", "encoding": "rot13"},
        {"bytecode": "6001", "platform": "solana"},
        {"bytecode": ""},
        {"bytecode": "6001", "sample_id": 7},
        "not an object",
    ]
    for payload in cases:
        with pytest.raises(ServerClientError) as caught:
            client._request("POST", "/scan", payload)
        assert caught.value.status == 400, payload
    with pytest.raises(ServerClientError) as caught:
        client._request("POST", "/scan-batch", {"contracts": "nope"})
    assert caught.value.status == 400


def test_scan_verdict_parity_with_detector_scan(trained_detector, client,
                                                tiny_evm_corpus):
    for sample in tiny_evm_corpus[:8]:
        served = client.scan(sample.bytecode, sample_id=sample.sample_id)
        direct = trained_detector.scan(sample.bytecode,
                                       sample_id=sample.sample_id)
        assert served == direct.to_dict()


def test_scan_accepts_base64_and_hex_string(trained_detector, client,
                                            tiny_evm_corpus):
    code = tiny_evm_corpus[0].bytecode
    direct = trained_detector.scan(code).to_dict()
    assert client.scan(code, encoding="base64") == direct
    assert client.scan("0x" + code.hex()) == direct
    # a hex *string* sent over base64 transport must describe the same
    # bytes, not have its hex digits misread as base64 alphabet
    assert client.scan(code.hex(), encoding="base64") == direct


def test_undecodable_bytecode_is_client_error_not_500(client):
    # decodes fine as hex, then fails inside the WASM frontend: still a 400
    bad_wasm = b"\x00asm\x01\x00\x00\x00" + b"\xff" * 20
    with pytest.raises(ServerClientError) as caught:
        client.scan(bad_wasm)
    assert caught.value.status == 400
    assert "rejected" in str(caught.value)


def test_negative_content_length_is_400(server):
    import http.client

    connection = http.client.HTTPConnection(server.host, server.port,
                                            timeout=10)
    try:
        connection.putrequest("POST", "/v1/scan", skip_host=False)
        connection.putheader("Content-Length", "-1")
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 400
        response.read()
    finally:
        connection.close()


def test_scan_batch_endpoint_orders_and_summarises(trained_detector, client,
                                                   tiny_evm_corpus):
    samples = tiny_evm_corpus[:6]
    response = client.scan_batch(
        [sample.bytecode for sample in samples],
        sample_ids=[sample.sample_id for sample in samples])
    assert response["contracts"] == 6
    assert response["malicious"] + response["benign"] == 6
    assert [report["sample_id"] for report in response["reports"]] == \
        [sample.sample_id for sample in samples]
    for sample, report in zip(samples, response["reports"]):
        assert report == trained_detector.scan(
            sample.bytecode, sample_id=sample.sample_id).to_dict()


# --------------------------------------------------------------------------- #
# coalescing under concurrency (the acceptance scenario)


def test_64_concurrent_scans_coalesce_and_match_single_shot(
        trained_detector, server, client, tiny_evm_corpus):
    codes = [sample.bytecode for sample in tiny_evm_corpus] * 3  # 72 scans
    codes = codes[:64]
    with concurrent.futures.ThreadPoolExecutor(max_workers=32) as pool:
        served = list(pool.map(client.scan, codes))
    direct = [trained_detector.scan(code).to_dict() for code in codes]
    assert served == direct

    metrics = client.metrics()
    batches = metrics["scans"]["batches"]
    assert batches["count"] >= 1
    # coalescing engaged: at least one inference batch held >1 request
    assert batches["max_size"] > 1
    assert batches["coalesced"] >= 1
    assert sum(int(size) * count
               for size, count in batches["histogram"].items()) == \
        metrics["scans"]["contracts"]


def test_metrics_counters_advance(client, tiny_evm_corpus):
    before = client.metrics()
    client.scan(tiny_evm_corpus[0].bytecode)
    client.scan(tiny_evm_corpus[1].bytecode)
    after = client.metrics()
    assert after["requests"]["scan"] == before["requests"].get("scan", 0) + 2
    assert after["requests"]["metrics"] == before["requests"]["metrics"] + 1
    assert after["scans"]["contracts"] == before["scans"]["contracts"] + 2
    assert after["latency"]["scan"]["count"] >= 2
    assert after["latency"]["scan"]["p50_ms"] > 0.0
    assert after["scans"]["cache"]["lookups"] >= \
        before["scans"]["cache"]["lookups"] + 2
    assert after["errors"] == before["errors"]


def test_errors_counted_not_latency(client):
    before = client.metrics()
    with pytest.raises(ServerClientError):
        client._request("POST", "/scan", {"bytecode": "zz"})
    after = client.metrics()
    assert after["errors"] == before["errors"] + 1


# --------------------------------------------------------------------------- #
# graceful shutdown


def _gated_scorer(score):
    """``(gated score, calls, release)``: the gated score records each
    call's graph count, then blocks until ``release`` is set."""
    calls = []
    release = threading.Event()

    def gated(graphs, batch_size=None):
        calls.append(len(graphs))
        release.wait(timeout=10.0)
        return score(graphs, batch_size=batch_size)

    return gated, calls, release


def _wait_until(condition, what, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.005)


def test_shutdown_drains_inflight_http_requests(trained_detector,
                                                tiny_evm_corpus,
                                                monkeypatch):
    # the first model call blocks until shutdown has begun, so every other
    # request is still queued in the coalescer when shutdown starts
    trainer = trained_detector.pipeline._trainer
    gated, calls, release = _gated_scorer(trainer.predict_proba)
    monkeypatch.setattr(trainer, "predict_proba", gated)
    server = ScanServer(trained_detector, port=0, workers=16,
                        max_batch=64).start()
    stopper = threading.Thread(target=server.shutdown)
    try:
        client = ServerClient(port=server.port)
        client.wait_until_ready()
        codes = [sample.bytecode for sample in tiny_evm_corpus[:12]]
        with concurrent.futures.ThreadPoolExecutor(max_workers=12) as pool:
            futures = [pool.submit(client.scan, code) for code in codes]
            _wait_until(
                lambda: calls and server.coalescer.queue_depth + calls[0]
                == len(codes),
                "requests never reached the coalescer")
            stopper.start()           # must drain, not drop
            _wait_until(server._stop_requested.is_set, "shutdown never began")
            release.set()
            served = [future.result(timeout=10.0) for future in futures]
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
    finally:
        release.set()
        server.shutdown()
    assert trained_detector.pipeline.graph_cache is None  # cache restored
    direct = [trained_detector.scan(code).to_dict() for code in codes]
    assert served == direct


def test_coalescer_close_drains_queue(trained_detector, tiny_evm_corpus):
    pipeline = trained_detector.pipeline
    graphs = [pipeline.analyse_bytecode(sample.bytecode)[0]
              for sample in tiny_evm_corpus[:8]]
    gated, calls, release = _gated_scorer(pipeline._trainer.predict_proba)
    coalescer = RequestCoalescer(gated, ServerMetrics(), max_batch=64)
    coalescer.start()
    results = {}
    threads = [threading.Thread(target=lambda i=i: results.update(
        {i: coalescer.submit([graphs[i]])})) for i in range(len(graphs))]
    closer = threading.Thread(target=coalescer.close)
    try:
        for thread in threads:
            thread.start()
        # one model call blocked, everything else queued
        _wait_until(lambda: calls and coalescer.queue_depth + calls[0]
                    == len(graphs), "submissions never queued")
        closer.start()                # drains before stopping
        _wait_until(lambda: coalescer._closed, "close never began")
        with pytest.raises(RuntimeError, match="shutting down"):
            coalescer.submit([graphs[0]])
    finally:
        release.set()
    for thread in threads + [closer]:
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    assert sorted(results) == list(range(len(graphs)))
    expected = pipeline._trainer.predict_proba(graphs)
    for index, probabilities in results.items():
        assert probabilities[0] == pytest.approx(
            float(expected[index][1]), abs=1e-9)

    with pytest.raises(RuntimeError, match="shutting down"):
        coalescer.submit([graphs[0]])


def test_coalescer_scores_what_queued_during_a_model_call(trained_detector,
                                                          tiny_evm_corpus):
    """A lone submission is scored at once, and the submissions made while
    its model call runs are scored together in the next single call."""
    pipeline = trained_detector.pipeline
    graphs = [pipeline.analyse_bytecode(sample.bytecode)[0]
              for sample in tiny_evm_corpus[:6]]
    score = pipeline._trainer.predict_proba
    entered = []

    def timed(batch, batch_size=None):
        entered.append(time.perf_counter())
        return score(batch, batch_size=batch_size)

    coalescer = RequestCoalescer(timed, ServerMetrics(), max_batch=64)
    coalescer.start()
    try:
        # a submission reaching an idle coalescer is scored at once; the
        # minimum over five keeps a scheduler hiccup from failing this
        delays = []
        for graph in graphs[:5]:
            submitted = time.perf_counter()
            coalescer.submit([graph])
            delays.append(entered[-1] - submitted)
        assert min(delays) < 0.005
    finally:
        coalescer.close()

    gated, calls, release = _gated_scorer(score)
    coalescer = RequestCoalescer(gated, ServerMetrics(), max_batch=64)
    coalescer.start()
    results = {}
    threads = [threading.Thread(target=lambda i=i: results.update(
        {i: coalescer.submit([graphs[i]])})) for i in range(len(graphs))]
    try:
        threads[0].start()
        _wait_until(lambda: calls == [1], "lone submission never scored")
        for thread in threads[1:]:
            thread.start()
        _wait_until(lambda: coalescer.queue_depth == len(graphs) - 1,
                    "submissions never queued")
    finally:
        release.set()
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    coalescer.close()
    assert calls == [1, len(graphs) - 1]
    expected = score(graphs)
    for index, probabilities in results.items():
        assert probabilities[0] == pytest.approx(
            float(expected[index][1]), abs=1e-9)


def test_server_refuses_untrained_detector():
    with pytest.raises(RuntimeError, match="trained"):
        ScanServer(ScamDetector(FAST))


def test_failed_construction_leaves_detector_untouched(trained_detector):
    """A busy port, an ingest queue without a registry and a cache for
    another fingerprint all fail without attaching anything to the
    caller's pipeline."""
    import socket

    from repro.service import GraphCache

    busy = socket.socket()
    busy.bind(("127.0.0.1", 0))
    busy.listen(1)
    try:
        with pytest.raises(OSError):
            ScanServer(trained_detector, port=busy.getsockname()[1])
    finally:
        busy.close()
    assert trained_detector.pipeline.graph_cache is None
    with pytest.raises(ValueError, match="registry"):
        ScanServer(trained_detector, port=0, ingest_queue=4)
    assert trained_detector.pipeline.graph_cache is None
    with pytest.raises(ValueError, match="fingerprint"):
        ScanServer(trained_detector, port=0, cache=GraphCache("another"))
    assert trained_detector.pipeline.graph_cache is None


def test_coalescer_validates_parameters(trained_detector):
    score = trained_detector.pipeline._trainer.predict_proba
    with pytest.raises(ValueError, match="max_batch"):
        RequestCoalescer(score, ServerMetrics(), max_batch=0)


def test_percentile_nearest_rank():
    assert _percentile([], 0.5) == 0.0
    assert _percentile([3.0], 0.99) == 3.0
    values = list(range(1, 101))
    assert _percentile(values, 0.0) == 1
    assert _percentile(values, 0.5) == 51
    assert _percentile(values, 1.0) == 100


# --------------------------------------------------------------------------- #
# CLI startup errors


def test_client_scan_batch_rejects_mismatched_sample_ids(client,
                                                         tiny_evm_corpus):
    with pytest.raises(ValueError, match="sample_ids length"):
        client.scan_batch([s.bytecode for s in tiny_evm_corpus[:2]],
                          sample_ids=["only-one"])


def test_cli_serve_missing_bundle_exits_nonzero(tmp_path):
    from repro.cli import main

    with pytest.raises(SystemExit) as caught:
        main(["serve", "--model-path", str(tmp_path / "missing")])
    assert "cannot load model bundle" in str(caught.value)


def test_cli_serve_bad_port_exits_nonzero(trained_detector, tmp_path):
    from repro.cli import main

    model_path = tmp_path / "model"
    trained_detector.save(model_path)
    with pytest.raises(SystemExit) as caught:
        main(["serve", "--model-path", str(model_path), "--port", "99999"])
    assert "cannot bind" in str(caught.value)


def test_cli_serve_bad_parameters_name_the_parameter(trained_detector,
                                                     tmp_path):
    from repro.cli import main

    model_path = tmp_path / "model"
    trained_detector.save(model_path)
    for flags, fragment in ((["--workers", "0"], "workers"),
                            (["--max-batch", "0"], "max_batch"),
                            (["--cache-capacity", "0"], "capacity")):
        with pytest.raises(SystemExit) as caught:
            main(["serve", "--model-path", str(model_path), *flags])
        message = str(caught.value)
        assert "invalid parameters" in message and fragment in message


# --------------------------------------------------------------------------- #
# verdict registry endpoints


@pytest.fixture()
def registry_server(trained_detector, tmp_path):
    from repro.registry import ScanRegistry

    registry = ScanRegistry.for_config(tmp_path / "verdicts.db",
                                       trained_detector.config)
    with ScanServer(trained_detector, port=0, workers=4, max_batch=8,
                    registry=registry) as running:
        yield running, registry
    registry.close()


def test_verdicts_endpoint_serves_recorded_scans(registry_server,
                                                 tiny_evm_corpus):
    from repro.registry import content_sha256

    server, registry = registry_server
    client = ServerClient(port=server.port)
    client.wait_until_ready(timeout=10.0)
    codes = [sample.bytecode for sample in tiny_evm_corpus[:5]]
    direct = [client.scan(code, sample_id=f"c-{index}")
              for index, code in enumerate(codes)]

    listing = client.verdicts(limit=10)
    assert listing["count"] == len({content_sha256(code) for code in codes})
    by_sha = {row["sha256"]: row for row in listing["verdicts"]}
    for code, report in zip(codes, direct):
        row = by_sha[content_sha256(code)]
        assert row["report"]["malicious_probability"] == \
            report["malicious_probability"]

    # point lookup + history
    sha = content_sha256(codes[0])
    detail = client.verdict(sha)
    assert detail["sha256"] == sha
    assert len(detail["history"]) >= 1
    with pytest.raises(ServerClientError) as excinfo:
        client.verdict("0" * 64)
    assert excinfo.value.status == 404

    # filters pass through to the registry query API
    malicious = client.verdicts(verdict="malicious")
    assert all(row["report"]["verdict"] == "malicious"
               for row in malicious["verdicts"])
    with pytest.raises(ServerClientError) as excinfo:
        client.verdicts(min_score="not-a-number")
    assert excinfo.value.status == 400
    with pytest.raises(ServerClientError) as excinfo:
        client._request("GET", "/verdicts?bogus=1")
    assert excinfo.value.status == 400

    # health grows registry counts
    health = client.healthz()
    assert health["registry"]["verdicts"] == listing["count"]


def test_server_registry_hits_skip_inference(registry_server,
                                             tiny_evm_corpus):
    server, registry = registry_server
    client = ServerClient(port=server.port)
    client.wait_until_ready(timeout=10.0)
    code = tiny_evm_corpus[0].bytecode

    first = client.scan(code, sample_id="first")
    inference_before = sum(
        server.metrics.batch_sizes.get(size, 0) * size
        for size in server.metrics.batch_sizes)
    second = client.scan(code, sample_id="second")
    inference_after = sum(
        server.metrics.batch_sizes.get(size, 0) * size
        for size in server.metrics.batch_sizes)

    # verdicts identical (apart from the requested sample id), no new model
    # work for the repeat, and the metrics surface the registry hit
    assert second["malicious_probability"] == first["malicious_probability"]
    assert second["sample_id"] == "second"
    assert inference_after == inference_before
    scans = client.metrics()["scans"]
    assert scans["registry"]["hits"] >= 1
    # scan-batch mixes hits and fresh contracts in one request
    fresh = tiny_evm_corpus[1].bytecode
    batch = client.scan_batch([code, fresh], sample_ids=["again", "new"])
    assert batch["contracts"] == 2
    direct = server.detector.scan(fresh, sample_id="new")
    assert batch["reports"][1]["malicious_probability"] == \
        direct.malicious_probability


def test_verdicts_without_registry_is_503(client):
    with pytest.raises(ServerClientError) as excinfo:
        client.verdicts()
    assert excinfo.value.status == 503
    assert "no verdict registry" in str(excinfo.value)
    assert excinfo.value.code == "no_registry"


# --------------------------------------------------------------------------- #
# /v1 versioning, error envelope, cursor pagination


def _raw_get(port, path):
    import json as _json
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}", timeout=10.0) as response:
            return (response.status, dict(response.headers),
                    _json.loads(response.read() or b"{}"))
    except urllib.error.HTTPError as error:
        return (error.code, dict(error.headers),
                _json.loads(error.read() or b"{}"))


def _raw_post(port, path, payload):
    import json as _json
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=_json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return (response.status, dict(response.headers),
                    _json.loads(response.read() or b"{}"))
    except urllib.error.HTTPError as error:
        return (error.code, dict(error.headers),
                _json.loads(error.read() or b"{}"))


def test_unversioned_paths_answer_not_found(server, client):
    versioned = _raw_get(server.port, "/v1/healthz")
    assert versioned[0] == 200
    assert versioned[2]["api_version"] == "v1"
    # every route lives under /v1: an unversioned path is an unknown path
    for path in ("/healthz", "/metrics", "/verdicts", "/scan"):
        status, headers, body = _raw_get(server.port, path)
        assert status == 404, path
        assert body["error"]["code"] == "not_found"
        assert "Deprecation" not in headers and "Link" not in headers
    status, _, body = _raw_post(server.port, "/scan", {"bytecode": "6001"})
    assert status == 404 and body["error"]["code"] == "not_found"
    assert "deprecated" not in client.metrics()["requests"]


def test_error_envelope_shape_and_typed_client_errors(server, client):
    status, _, body = _raw_get(server.port, "/v1/nope")
    assert status == 404
    assert set(body["error"]) == {"code", "message", "retry_after"}
    assert body["error"]["code"] == "not_found"
    assert body["error"]["retry_after"] is None
    with pytest.raises(ServerClientError) as excinfo:
        client._request("GET", "/nope")
    assert excinfo.value.status == 404
    assert excinfo.value.code == "not_found"
    # client-side connection failures are typed too
    from repro.resilience import RetryPolicy

    dead = ServerClient(port=1, timeout=0.2,
                        retry=RetryPolicy(max_attempts=1))
    with pytest.raises(ServerClientError) as dead_error:
        dead.healthz()
    assert dead_error.value.code == "unreachable"


def test_verdicts_cursor_pagination_via_client(registry_server,
                                               tiny_evm_corpus):
    server, registry = registry_server
    client = ServerClient(port=server.port)
    client.wait_until_ready(timeout=10.0)
    codes = [sample.bytecode for sample in tiny_evm_corpus[:6]]
    client.scan_batch(codes, sample_ids=[f"p-{i}" for i in range(6)])
    total = client.verdicts(page_size=1000)
    assert total["next_cursor"] is None

    # page-by-page walk covers the listing exactly, in order
    walked, cursor = [], None
    while True:
        page = client.verdicts(cursor=cursor, page_size=2)
        assert len(page["verdicts"]) <= 2
        walked.extend(page["verdicts"])
        cursor = page["next_cursor"]
        if cursor is None:
            break
    assert walked == total["verdicts"]

    # and the convenience walker agrees
    assert list(client.verdicts_all(page_size=2)) == total["verdicts"]

    # a foreign cursor is a typed 400, not a 500
    with pytest.raises(ServerClientError) as excinfo:
        client.verdicts(cursor="garbage-cursor")
    assert excinfo.value.status == 400
    assert excinfo.value.code == "invalid_cursor"
    # page_size bounds are validated
    with pytest.raises(ServerClientError) as bounds:
        client.verdicts(page_size=0)
    assert bounds.value.status == 400


# --------------------------------------------------------------------------- #
# drain + recovery under injected faults


def test_shutdown_drains_requests_slowed_by_injected_faults(
        trained_detector, tiny_evm_corpus):
    from repro.resilience import FaultPlan, FaultSpec, fault_plan

    server = ScanServer(trained_detector, port=0, workers=8).start()
    try:
        client = ServerClient(port=server.port)
        client.wait_until_ready()
        codes = [sample.bytecode for sample in tiny_evm_corpus[:6]]
        # every handler sleeps mid-request, so shutdown starts while all
        # six requests are still unanswered inside their handler threads
        with fault_plan(FaultPlan(specs=(
                FaultSpec(site="server.handler", kind="delay",
                          delay_s=0.3),))):
            with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(client.scan, code) for code in codes]
                deadline = time.monotonic() + 10.0
                while server.metrics.requests.get("scan", 0) < len(codes):
                    assert time.monotonic() < deadline, \
                        "requests never accepted"
                    time.sleep(0.01)
                server.shutdown()         # must drain, not drop
                served = [future.result(timeout=10.0) for future in futures]
    finally:
        server.shutdown()
    direct = [trained_detector.scan(code).to_dict() for code in codes]
    assert served == direct


# --------------------------------------------------------------------------- #
# observability: latency windows, Prometheus exposition, /v1 client hygiene


def _raw_get_text(port, path):
    import urllib.request

    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=10.0) as response:
        return (response.status, dict(response.headers),
                response.read().decode("utf-8"))


def test_server_metrics_latency_window_edges():
    from repro.service.cache import CacheStats
    from repro.service.server import _LATENCY_WINDOW

    metrics = ServerMetrics()
    # empty window: no latency section at all, not a zero-filled one
    assert metrics.snapshot(CacheStats())["latency"] == {}
    # single sample: every percentile is that sample
    metrics.record_latency("scan", 0.020)
    window = metrics.snapshot(CacheStats())["latency"]["scan"]
    assert window["count"] == 1
    assert window["p50_ms"] == window["p90_ms"] == window["p99_ms"] \
        == pytest.approx(20.0)
    # rollover: the deque caps the window and evicts the oldest samples
    for index in range(_LATENCY_WINDOW + 1):
        metrics.record_latency("scan", float(index))
    window = metrics.snapshot(CacheStats())["latency"]["scan"]
    assert window["count"] == _LATENCY_WINDOW
    # sample 0.0s (and the single 0.020s) fell out; the window now holds
    # 1.0 .. 4096.0 seconds, whose nearest-rank p50 is sample 2049
    assert window["p50_ms"] == pytest.approx(2049.0 * 1e3)


def test_latency_endpoint_labels_stable_across_v1_and_legacy(server, client):
    before = client.metrics()["requests"].get("healthz", 0)
    _raw_get(server.port, "/healthz")
    _raw_get(server.port, "/v1/healthz")
    metrics = client.metrics()
    # one canonical label per endpoint, without the version prefix; the
    # unversioned path is a 404 that records under no endpoint label
    assert metrics["requests"]["healthz"] == before + 1
    assert not any("v1" in key for key in metrics["requests"])
    assert not any("v1" in key for key in metrics["latency"])
    assert not any(key.startswith("/") for key in metrics["latency"])


def test_client_traffic_is_never_deprecated(registry_server, tiny_evm_corpus,
                                            monkeypatch):
    """Regression: every ServerClient method must speak /v1 -- full client
    traffic reaches a route every time and never meets a ``not_found``."""
    import contextlib

    from repro.registry import content_sha256
    from repro.service.server import _ScanHTTPRequestHandler

    errors = []
    real_send_error = _ScanHTTPRequestHandler._send_error_json

    def recording_send_error(self, status, message, code=None, **kwargs):
        errors.append((status, code))
        return real_send_error(self, status, message, code=code, **kwargs)

    monkeypatch.setattr(_ScanHTTPRequestHandler, "_send_error_json",
                        recording_send_error)
    server, _ = registry_server
    probe = ServerClient(port=server.port)
    probe.wait_until_ready(timeout=10.0)
    probe.healthz()
    code = tiny_evm_corpus[0].bytecode
    probe.scan(code, sample_id="dep-audit")
    probe.scan_batch([code, tiny_evm_corpus[1].bytecode],
                     sample_ids=["dep-a", "dep-b"])
    probe.verdicts(limit=5)
    probe.verdict(content_sha256(code))
    list(probe.verdicts_all(page_size=2))
    with contextlib.suppress(ServerClientError):
        probe.ingest(code)        # ingest_disabled without a queue; /v1
    requests = probe.metrics()["requests"]
    for endpoint in ("healthz", "scan", "scan_batch", "verdicts", "ingest"):
        assert requests.get(endpoint, 0) >= 1, endpoint
    assert errors == [(404, "ingest_disabled")]


def test_metrics_prometheus_exposition(server, client, tiny_evm_corpus):
    from repro.obs import validate_exposition

    client.scan(tiny_evm_corpus[0].bytecode, sample_id="prom")
    status, headers, text = _raw_get_text(
        server.port, "/v1/metrics?format=prometheus")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    assert "version=0.0.4" in headers["Content-Type"]
    assert "Deprecation" not in headers
    errors = validate_exposition(text)
    assert errors == [], errors
    assert 'scamdetect_requests_total{endpoint="scan"}' in text
    assert "scamdetect_tracing_armed 0" in text
    assert "scamdetect_fault_injection_armed 0" in text
    # explicit json and the default agree
    assert _raw_get(server.port, "/v1/metrics?format=json")[0] == 200
    # unknown formats are a typed 400, not a silent json fallback
    status, _, body = _raw_get(server.port, "/v1/metrics?format=xml")
    assert status == 400
    assert body["error"]["code"] == "bad_request"
    # there is no deprecated-traffic family, and no unversioned alias
    assert "requests_deprecated" not in text
    status, _, body = _raw_get(server.port, "/metrics?format=prometheus")
    assert status == 404 and body["error"]["code"] == "not_found"


def test_healthz_reports_observability_state(server, client):
    from repro import __version__
    from repro.obs import tracing

    health = client.healthz()
    assert health["version"] == __version__
    assert health["uptime_s"] >= 0.0
    assert health["uptime_s"] == pytest.approx(health["uptime_seconds"])
    assert health["tracing"] == "disarmed"
    assert health["fault_injection"] == "disarmed"
    # arming a tracer in-process flips the reported state (fleet probes
    # treat a long-lived armed node as degraded tooling)
    with tracing():
        assert client.healthz()["tracing"] == "armed"
    assert client.healthz()["tracing"] == "disarmed"
    status, _, text = _raw_get_text(
        server.port, "/v1/metrics?format=prometheus")
    assert status == 200
    assert "scamdetect_tracing_armed 0" in text

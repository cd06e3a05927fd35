"""Tests of the resilience layer: fault injection, retries, breakers.

Unit coverage of :mod:`repro.resilience` (deterministic fault schedules,
backoff policies, the circuit breaker) plus the integration seams the
chaos experiment (E13) leans on: cache corruption recovery, registry
busy-write retries, webhook dead-lettering, client-side 503/Retry-After
handling, server overload backpressure and shard quarantine.
"""

from __future__ import annotations

import errno
import io
import json
import sqlite3
import urllib.error

import pytest

from repro.core.config import ScamDetectConfig
from repro.core.detector import ScamDetector
from repro.registry import ScanRegistry, parse_rules
from repro.registry.rules import RulesEngine
from repro.resilience import (
    CircuitBreaker,
    FAULT_CRASH_EXIT_CODE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    active_injector,
    evaluate_fault,
    fault_plan,
    fault_point,
)
from repro.service import (
    BatchScanner,
    GraphCache,
    ScanServer,
    ServerClient,
    ServerClientError,
    ShardedScanner,
)

FAST = ScamDetectConfig(epochs=3, num_layers=1, hidden_features=8)


@pytest.fixture(scope="module")
def trained_detector(tiny_evm_corpus):
    detector = ScamDetector(FAST, explain=False)
    detector.train(tiny_evm_corpus)
    return detector


# --------------------------------------------------------------------------- #
# FaultSpec / FaultPlan


def test_fault_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        FaultSpec(site="x", kind="meteor-strike")
    with pytest.raises(ValueError, match="probability"):
        FaultSpec(site="x", kind="delay", probability=1.5)
    with pytest.raises(ValueError, match="exception"):
        FaultSpec(site="x", kind="exception", exception="segfault")


def test_fault_plan_roundtrip_and_load(tmp_path):
    plan = FaultPlan(specs=(
        FaultSpec(site="cache.*", kind="corrupt", probability=0.5),
        FaultSpec(site="registry.write", kind="exception",
                  exception="sqlite_busy", after=1, max_fires=2),
    ), seed=42)
    assert FaultPlan.from_dict(plan.to_dict()) == plan
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_dict()))
    assert FaultPlan.load(path) == plan


def test_fault_plan_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        FaultPlan.from_dict({"seed": 0, "specs": [
            {"site": "x", "kind": "delay", "flux_capacitor": True}]})


# --------------------------------------------------------------------------- #
# FaultInjector schedules


def test_injector_after_and_max_fires_schedule():
    injector = FaultInjector(FaultPlan(specs=(
        FaultSpec(site="s", kind="exception", after=2, max_fires=2),)))
    fired = [injector.evaluate("s") is not None for _ in range(6)]
    assert fired == [False, False, True, True, False, False]
    assert injector.fired_total() == 2


def test_injector_site_patterns_and_first_firing_wins():
    injector = FaultInjector(FaultPlan(specs=(
        FaultSpec(site="shard.worker.*", kind="crash", max_fires=1),
        FaultSpec(site="shard.*", kind="delay"),
    )))
    assert injector.evaluate("cache.disk_read") is None
    # both specs match; the first (crash) wins its single fire
    assert injector.evaluate("shard.worker.0").kind == "crash"
    # its budget spent, the broader delay spec takes over
    assert injector.evaluate("shard.worker.0").kind == "delay"


def test_injector_probability_is_seed_deterministic():
    def pattern(seed):
        injector = FaultInjector(FaultPlan(specs=(
            FaultSpec(site="s", kind="delay", probability=0.5),), seed=seed))
        return [injector.evaluate("s") is not None for _ in range(32)]

    assert pattern(7) == pattern(7)
    assert pattern(7) != pattern(8)
    assert any(pattern(7)) and not all(pattern(7))


def test_fault_point_is_noop_when_disarmed():
    assert active_injector() is None
    fault_point("anything.at.all")          # must not raise
    assert evaluate_fault("anything") is None


def test_fault_plan_context_arms_and_disarms():
    plan = FaultPlan(specs=(
        FaultSpec(site="ctx", kind="exception", max_fires=1),))
    with fault_plan(plan) as injector:
        assert active_injector() is injector
        with pytest.raises(InjectedFault) as excinfo:
            fault_point("ctx")
        assert excinfo.value.site == "ctx"
        assert injector.fired_total() == 1
    assert active_injector() is None


def test_exception_kinds_raise_contract_matching_types():
    injector = FaultInjector(FaultPlan(specs=(
        FaultSpec(site="a", kind="exception", exception="sqlite_busy"),
        FaultSpec(site="b", kind="exception", exception="urlerror"),
        FaultSpec(site="c", kind="exception", exception="oserror"),
    )))
    with pytest.raises(sqlite3.OperationalError, match="locked"):
        injector.trigger("a")
    with pytest.raises(urllib.error.URLError):
        injector.trigger("b")
    with pytest.raises(OSError):
        injector.trigger("c")


def test_disk_full_and_corrupt_faults(tmp_path):
    target = tmp_path / "entry.npz"
    target.write_bytes(b"A" * 64)
    injector = FaultInjector(FaultPlan(specs=(
        FaultSpec(site="write", kind="disk_full"),
        FaultSpec(site="read", kind="corrupt"),
    )))
    with pytest.raises(OSError) as excinfo:
        injector.trigger("write")
    assert excinfo.value.errno == errno.ENOSPC
    injector.trigger("read", path=target)
    scribbled = target.read_bytes()
    assert scribbled[:4] == b"\xde\xad\xbe\xef" and len(scribbled) == 64


# --------------------------------------------------------------------------- #
# RetryPolicy


def test_retry_delays_are_bounded_and_deterministic():
    policy = RetryPolicy(max_attempts=5, base_delay_s=0.1, max_delay_s=0.3,
                         multiplier=2.0, jitter=0.25, seed=9)
    first = list(policy.delays())
    assert first == list(policy.delays())          # same seed, same jitter
    assert len(first) == 4                         # one per retry
    assert all(0.0 < delay <= 0.3 * 1.25 for delay in first)


def test_retry_call_recovers_and_counts():
    calls = {"n": 0}
    retried = []

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise ConnectionError("nope")
        return "ok"

    policy = RetryPolicy(max_attempts=4, base_delay_s=0.001,
                         max_delay_s=0.002)
    result = policy.call(flaky, retry_on=(ConnectionError,),
                         on_retry=lambda *args: retried.append(args),
                         sleep=lambda _: None)
    assert result == "ok" and calls["n"] == 3 and len(retried) == 2


def test_retry_exhaustion_reraises_last_underlying_error():
    policy = RetryPolicy(max_attempts=2, base_delay_s=0.001)
    with pytest.raises(ConnectionError, match="always"):
        policy.call(lambda: (_ for _ in ()).throw(ConnectionError("always")),
                    retry_on=(ConnectionError,), sleep=lambda _: None)


def test_retry_should_retry_gate_and_retry_after_override():
    slept = []

    def fail():
        raise ServerClientError(503, "busy", retry_after=7.5)

    policy = RetryPolicy(max_attempts=3, base_delay_s=0.001)
    with pytest.raises(ServerClientError):
        policy.call(fail, retry_on=(ServerClientError,),
                    retry_after=lambda error: error.retry_after,
                    sleep=slept.append)
    assert slept == [7.5, 7.5]                     # header beat the schedule

    # a non-transient verdict short-circuits without any retry
    slept.clear()
    with pytest.raises(ServerClientError):
        policy.call(fail, retry_on=(ServerClientError,),
                    should_retry=lambda error: False, sleep=slept.append)
    assert slept == []


def test_retry_deadline_stops_early():
    policy = RetryPolicy(max_attempts=50, base_delay_s=10.0,
                         deadline_s=0.5)
    attempts = {"n": 0}

    def fail():
        attempts["n"] += 1
        raise ConnectionError("down")

    with pytest.raises(ConnectionError):
        policy.call(fail, retry_on=(ConnectionError,), sleep=lambda _: None)
    # the first computed delay already blows the budget
    assert attempts["n"] == 1


# --------------------------------------------------------------------------- #
# CircuitBreaker


def test_breaker_opens_once_at_threshold():
    breaker = CircuitBreaker(failure_threshold=3)
    assert [breaker.record_failure("s0") for _ in range(5)] == \
        [False, False, True, False, False]
    assert breaker.is_open("s0") and breaker.open_keys() == ["s0"]
    assert not breaker.is_open("s1")


def test_breaker_success_clears_streak_only_while_closed():
    breaker = CircuitBreaker(failure_threshold=2)
    breaker.record_failure("k")
    breaker.record_success("k")                    # streak reset
    assert not breaker.record_failure("k")
    assert breaker.record_failure("k")             # 2nd in a row: opens
    breaker.record_success("k")                    # no silent half-open
    assert breaker.is_open("k")
    breaker.reset("k")
    assert not breaker.is_open("k")


# --------------------------------------------------------------------------- #
# integration: cache recovery under corruption / full disk


def test_cache_corrupt_disk_entry_recovers_as_miss(trained_detector,
                                                   tiny_evm_corpus,
                                                   tmp_path):
    codes = [sample.bytecode for sample in tiny_evm_corpus[:6]]
    oracle = [report.to_dict() for report in BatchScanner(
        trained_detector).scan_codes(codes).reports]
    warm = GraphCache(trained_detector.config.graph_fingerprint(),
                      disk_dir=tmp_path)
    BatchScanner(trained_detector, cache=warm).scan_codes(codes)
    cold = GraphCache(trained_detector.config.graph_fingerprint(),
                      disk_dir=tmp_path)
    with fault_plan(FaultPlan(specs=(
            FaultSpec(site="cache.disk_read", kind="corrupt"),))):
        with pytest.warns(UserWarning, match="corrupt"):
            result = BatchScanner(trained_detector,
                                  cache=cold).scan_codes(codes)
    assert [report.to_dict() for report in result.reports] == oracle
    # every disk lookup hit really-corrupted bytes and fell back to lowering
    assert cold.stats.hits == 0


def test_cache_disk_full_write_keeps_serving(trained_detector,
                                             tiny_evm_corpus, tmp_path):
    codes = [sample.bytecode for sample in tiny_evm_corpus[:4]]
    oracle = [report.to_dict() for report in BatchScanner(
        trained_detector).scan_codes(codes).reports]
    cache = GraphCache(trained_detector.config.graph_fingerprint(),
                       disk_dir=tmp_path)
    with fault_plan(FaultPlan(specs=(
            FaultSpec(site="cache.disk_write", kind="disk_full"),))):
        with pytest.warns(UserWarning):
            result = BatchScanner(trained_detector,
                                  cache=cache).scan_codes(codes)
    assert [report.to_dict() for report in result.reports] == oracle


# --------------------------------------------------------------------------- #
# integration: registry busy-write retry


def test_registry_write_retries_through_sqlite_busy(trained_detector,
                                                    tiny_evm_corpus,
                                                    tmp_path):
    registry = ScanRegistry.for_config(tmp_path / "verdicts.db",
                                       trained_detector.config)
    codes = [sample.bytecode for sample in tiny_evm_corpus[:6]]
    with registry, fault_plan(FaultPlan(specs=(
            FaultSpec(site="registry.write", kind="exception",
                      exception="sqlite_busy", max_fires=2),))):
        BatchScanner(trained_detector, registry=registry).scan_codes(codes)
        assert registry.counts()["verdicts"] > 0
        assert active_injector().fired_total() == 2


def test_registry_write_raises_after_retry_exhaustion(trained_detector,
                                                      tmp_path):
    registry = ScanRegistry.for_config(
        tmp_path / "verdicts.db", trained_detector.config,)
    registry.write_retry = RetryPolicy(max_attempts=2, base_delay_s=0.001,
                                       max_delay_s=0.002)
    report = trained_detector.scan(b"\x60\x01\x60\x02\x01\x00")
    with registry, fault_plan(FaultPlan(specs=(
            FaultSpec(site="registry.write", kind="exception",
                      exception="sqlite_busy"),))):
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            registry.record_many([("ab" * 32, report, "x.bin")])


# --------------------------------------------------------------------------- #
# integration: webhook retry + dead-letter


RULE = """
[[rules]]
name = "page"

[rules.match]
min_score = 0.0

[rules.actions]
alert = true
webhook = "http://hooks.test/scam"
"""


def _report(detector):
    return detector.scan(b"\x60\x01\x60\x02\x01\x00")


def test_webhook_retry_recovers_without_dead_letter(trained_detector,
                                                    tmp_path):
    calls = []

    def opener(request, timeout=None):
        calls.append(request.full_url)
        return io.BytesIO(b"ok")

    engine = RulesEngine(parse_rules(RULE),
                         alert_path=tmp_path / "alerts.jsonl",
                         dead_letter_path=tmp_path / "dead.jsonl",
                         opener=opener,
                         retry=RetryPolicy(max_attempts=3,
                                           base_delay_s=0.001,
                                           max_delay_s=0.002))
    with fault_plan(FaultPlan(specs=(
            FaultSpec(site="rules.webhook", kind="exception",
                      exception="urlerror", max_fires=1),))):
        engine.evaluate(_report(trained_detector), "a" * 64)
    assert calls == ["http://hooks.test/scam"]
    assert engine.webhook_retries == 1 and engine.webhook_failures == 0
    assert not (tmp_path / "dead.jsonl").exists()


def test_webhook_exhaustion_dead_letters_the_payload(trained_detector,
                                                     tmp_path):
    dead = tmp_path / "dead.jsonl"
    engine = RulesEngine(parse_rules(RULE),
                         alert_path=tmp_path / "alerts.jsonl",
                         dead_letter_path=dead,
                         retry=RetryPolicy(max_attempts=2,
                                           base_delay_s=0.001,
                                           max_delay_s=0.002))
    with fault_plan(FaultPlan(specs=(
            FaultSpec(site="rules.webhook", kind="exception",
                      exception="urlerror", message="refused"),))):
        with pytest.warns(UserWarning, match="webhook POST .* failed"):
            engine.evaluate(_report(trained_detector), "b" * 64,
                            source_path="inbox/x.bin")
    assert engine.webhook_failures == 1
    entries = [json.loads(line) for line in dead.read_text().splitlines()]
    assert len(entries) == 1
    assert entries[0]["url"] == "http://hooks.test/scam"
    assert entries[0]["attempts"] == 2
    assert entries[0]["payload"]["sha256"] == "b" * 64
    assert "refused" in entries[0]["error"]


# --------------------------------------------------------------------------- #
# integration: client retries, Retry-After, overload backpressure


def test_client_retries_injected_503_and_counts(trained_detector,
                                                tiny_evm_corpus):
    server = ScanServer(trained_detector, port=0, workers=2).start()
    try:
        client = ServerClient(port=server.port)
        client.wait_until_ready()
        code = tiny_evm_corpus[0].bytecode
        with fault_plan(FaultPlan(specs=(
                FaultSpec(site="server.handler", kind="exception",
                          max_fires=1),))):
            served = client.scan(code)
        assert client.retries == 1
        assert served == trained_detector.scan(code).to_dict()
    finally:
        server.shutdown()


def test_injected_503_carries_retry_after_header(trained_detector,
                                                 tiny_evm_corpus):
    server = ScanServer(trained_detector, port=0, workers=2,
                        retry_after_s=2.0).start()
    try:
        client = ServerClient(port=server.port,
                              retry=RetryPolicy(max_attempts=1))
        client.wait_until_ready()
        with fault_plan(FaultPlan(specs=(
                FaultSpec(site="server.handler", kind="exception",
                          max_fires=1),))):
            with pytest.raises(ServerClientError) as excinfo:
                client.scan(tiny_evm_corpus[0].bytecode)
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after == 2.0
    finally:
        server.shutdown()


def test_bounded_coalescer_queue_sheds_load(trained_detector,
                                            tiny_evm_corpus):
    import threading
    import time

    from repro.service import RequestCoalescer, ServerMetrics, \
        ServerOverloaded

    pipeline = trained_detector.pipeline
    graphs = [pipeline.analyse_bytecode(tiny_evm_corpus[0].bytecode)[0]]
    release = threading.Event()

    def slow_scorer(batch, batch_size=None):
        release.wait(timeout=10.0)
        return [[0.5, 0.5]] * len(batch)       # predict_proba-shaped rows

    coalescer = RequestCoalescer(score=slow_scorer, metrics=ServerMetrics(),
                                 max_queue=1)
    coalescer.start()
    try:
        workers = [threading.Thread(target=coalescer.submit, args=(graphs,),
                                    daemon=True)
                   for _ in range(2)]
        workers[0].start()
        # wait until the drain thread is stuck scoring the first submission
        deadline = time.monotonic() + 5.0
        while coalescer._queue.qsize() != 0:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        workers[1].start()          # fills the single queue slot
        while coalescer._queue.qsize() != 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        with pytest.raises(ServerOverloaded, match="queue is full"):
            coalescer.submit(graphs)
    finally:
        release.set()
        for worker in workers:
            worker.join(timeout=10.0)
        coalescer.close()


# --------------------------------------------------------------------------- #
# integration: shard quarantine + degraded serving


def test_quarantined_shard_rebalances_and_completes(trained_detector,
                                                    tiny_evm_corpus):
    codes = [sample.bytecode for sample in tiny_evm_corpus]
    ids = [sample.sample_id for sample in tiny_evm_corpus]
    oracle = BatchScanner(trained_detector).scan_codes(codes, sample_ids=ids)
    plan = FaultPlan(specs=(
        FaultSpec(site="shard.worker.0", kind="crash", max_fires=1),))
    with fault_plan(plan), \
            ShardedScanner(trained_detector, shards=2, chunk_size=2,
                           max_restarts=0) as scanner:
        scanner.start()
        with pytest.warns(UserWarning, match="quarantining"):
            result = scanner.scan_codes(codes, sample_ids=ids)
        assert scanner.degraded and scanner.quarantined_shards == [0]
        # degraded-but-correct: nothing lost, nothing wrong
        assert [report.to_dict() for report in result.reports] == \
            [report.to_dict() for report in oracle.reports]
        # the pool keeps serving follow-up batches on the healthy shard
        again = scanner.scan_codes(codes[:4], sample_ids=ids[:4])
        assert [report.to_dict() for report in again.reports] == \
            [report.to_dict() for report in oracle.reports[:4]]


def test_single_shard_quarantine_fails_loudly(trained_detector,
                                              tiny_evm_corpus):
    from repro.service import ShardError

    codes = [sample.bytecode for sample in tiny_evm_corpus[:4]]
    plan = FaultPlan(specs=(
        FaultSpec(site="shard.worker.0", kind="crash", max_fires=1),))
    with fault_plan(plan), \
            ShardedScanner(trained_detector, shards=1, chunk_size=2,
                           max_restarts=0) as scanner:
        scanner.start()
        with pytest.raises(ShardError, match="no healthy shard"):
            scanner.scan_codes(codes)


def test_crash_exit_code_is_stable():
    # the heal loop's warnings and CI triage key on this value
    assert FAULT_CRASH_EXIT_CODE == 3

"""Unit tests for the observability package (``repro.obs``).

Covers the tracer's arming contract (disarmed sites are shared no-ops,
no orphan roots from helper threads), span linkage (root / child /
follows), the JSONL export round-trip, the span-accounting verifier,
the Prometheus renderer + exposition validator, structured JSON logging,
and trace-carrier propagation through the ingest queue.
"""

from __future__ import annotations

import io
import json
import threading
import time
import warnings

import pytest

from repro.obs import (
    JsonlTraceWriter,
    Tracer,
    armed,
    carrier,
    disable_json_logs,
    emit_span,
    enable_json_logs,
    format_summary,
    json_log,
    json_logs_enabled,
    load_trace_file,
    render_prometheus,
    summarize_traces,
    trace,
    trace_from,
    tracing,
    validate_exposition,
    verify_traces,
)
from repro.obs.trace import _NOOP
from repro.ingest.queue import IngestItem, IngestQueue, PRIORITY_NEW
from repro.service.cache import CacheStats
from repro.service.server import ServerMetrics


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with tracing and JSON logs disarmed."""
    assert not armed(), "a previous test leaked an armed tracer"
    yield
    from repro.obs.trace import disarm

    disarm()
    disable_json_logs()


# ---------------------------------------------------------------------- #
# tracer: arming contract


def test_disarmed_sites_are_shared_noop():
    assert not armed()
    span = trace("cache.lookup", root=True)
    assert span is _NOOP
    assert trace_from({"trace_id": "t", "span_id": "s"}, "x") is _NOOP
    assert carrier() is None
    # the no-op span is inert and chainable
    with span as inner:
        assert inner.set(result="hit") is inner
    # emit_span silently drops when disarmed
    emit_span({"trace_id": "t", "span_id": "s"}, "x", 0.0, 1.0)


def test_trace_without_root_or_context_records_nothing():
    with tracing() as tracer:
        with trace("cache.lookup"):  # helper-thread pattern: no context
            pass
        assert tracer.drain() == []


def test_root_span_then_children_nest():
    with tracing() as tracer:
        with trace("batch.scan", root=True, items=3):
            with trace("lowering"):
                pass
            with trace("gnn.infer") as span:
                span.set(batch=3)
        records = tracer.drain()
    by_site = {record["site"]: record for record in records}
    root = by_site["batch.scan"]
    assert root["link"] == "root"
    assert root["parent_id"] is None
    assert root["attrs"] == {"items": 3}
    for site in ("lowering", "gnn.infer"):
        child = by_site[site]
        assert child["link"] == "child"
        assert child["trace_id"] == root["trace_id"]
        assert child["parent_id"] == root["span_id"]
    assert by_site["gnn.infer"]["attrs"] == {"batch": 3}
    assert verify_traces(records) == {
        "traces": 1,
        "spans": 3,
        "accounting_mismatches": 0,
        "orphan_spans": 0,
        "nesting_mismatches": 0,
    }


def test_root_true_inside_existing_context_records_child():
    """``root=True`` marks an entry point, not a forced new trace."""
    with tracing() as tracer:
        with trace("server.request", root=True):
            with trace("ingest.enqueue", root=True):
                pass
        records = tracer.drain()
    links = {record["site"]: record["link"] for record in records}
    assert links == {"server.request": "root", "ingest.enqueue": "child"}
    assert len({record["trace_id"] for record in records}) == 1


def test_error_is_recorded_on_span():
    with tracing() as tracer:
        with pytest.raises(ValueError):
            with trace("registry.write", root=True):
                raise ValueError("boom")
        (record,) = tracer.drain()
    assert record["error"] == "ValueError"


def test_trace_from_crosses_threads_as_follows():
    with tracing() as tracer:
        captured = {}
        with trace("server.request", root=True):
            captured["carrier"] = carrier()

        def worker():
            with trace_from(captured["carrier"], "shard.chunk", shard="s0"):
                # a follows span establishes context on its thread too
                with trace("cache.lookup"):
                    pass

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        records = tracer.drain()
    by_site = {record["site"]: record for record in records}
    root = by_site["server.request"]
    follows = by_site["shard.chunk"]
    assert follows["link"] == "follows"
    assert follows["trace_id"] == root["trace_id"]
    assert follows["parent_id"] == root["span_id"]
    assert by_site["cache.lookup"]["parent_id"] == follows["span_id"]
    invariants = verify_traces(records)
    assert invariants["accounting_mismatches"] == 0
    assert invariants["orphan_spans"] == 0


def test_trace_from_none_carrier_is_noop():
    with tracing() as tracer:
        assert trace_from(None, "shard.chunk") is _NOOP
        assert trace_from({"trace_id": None}, "shard.chunk") is _NOOP
        assert tracer.drain() == []


def test_emit_span_records_premeasured_follows():
    with tracing() as tracer:
        with trace("ingest.enqueue", root=True):
            parent = carrier()
        emit_span(parent, "ingest.drained", time.time(), 12.5, batch=4)
        records = tracer.drain()
    drained = next(r for r in records if r["site"] == "ingest.drained")
    assert drained["link"] == "follows"
    assert drained["dur_ms"] == 12.5
    assert drained["attrs"] == {"batch": 4}
    assert drained["parent_id"] == parent["span_id"]


def test_tracer_capacity_drops_oldest():
    with tracing(capacity=2) as tracer:
        for index in range(4):
            with trace("batch.scan", root=True, index=index):
                pass
        records = tracer.drain()
    assert tracer.recorded == 4
    assert tracer.dropped == 2
    assert [record["attrs"]["index"] for record in records] == [2, 3]


def test_tracing_restores_previous_tracer():
    outer = Tracer()
    from repro.obs.trace import active_tracer, arm, disarm

    arm(outer)
    try:
        with tracing() as inner:
            assert active_tracer() is inner
        assert active_tracer() is outer
    finally:
        disarm()


# ---------------------------------------------------------------------- #
# JSONL round-trip


def test_jsonl_writer_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    with JsonlTraceWriter(path) as writer:
        with tracing(sink=writer):
            with trace("batch.scan", root=True):
                with trace("gnn.infer"):
                    pass
        assert writer.written == 2
    records = load_trace_file(path)
    assert [record["site"] for record in records] == [
        "gnn.infer",
        "batch.scan",
    ]
    invariants = verify_traces(records)
    assert invariants["traces"] == 1
    assert invariants["accounting_mismatches"] == 0


def test_load_trace_file_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"trace_id": "t"}\nnot json\n')
    with pytest.raises(ValueError, match="invalid JSON"):
        load_trace_file(path)
    path.write_text('["a", "list"]\n')
    with pytest.raises(ValueError, match="not an object"):
        load_trace_file(path)


# ---------------------------------------------------------------------- #
# span-accounting verifier negatives


def _span(trace_id, span_id, parent_id, link, start=0.0, dur_ms=10.0):
    return {
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "site": "x",
        "link": link,
        "start": start,
        "dur_ms": dur_ms,
        "pid": 1,
        "thread": "t",
        "attrs": {},
    }


def test_verify_traces_flags_double_root():
    records = [
        _span("t1", "a", None, "root"),
        _span("t1", "b", None, "root"),
    ]
    assert verify_traces(records)["accounting_mismatches"] == 1


def test_verify_traces_flags_orphan():
    records = [
        _span("t1", "a", None, "root"),
        _span("t1", "b", "missing", "child"),
    ]
    assert verify_traces(records)["orphan_spans"] == 1


def test_verify_traces_flags_nesting_violation():
    records = [
        _span("t1", "a", None, "root", start=100.0, dur_ms=10.0),
        _span("t1", "b", "a", "child", start=100.5, dur_ms=5000.0),
    ]
    assert verify_traces(records)["nesting_mismatches"] == 1
    # a follows span with the same interval is exempt (cross-clock)
    records[1]["link"] = "follows"
    assert verify_traces(records)["nesting_mismatches"] == 0


# ---------------------------------------------------------------------- #
# trace summary


def test_summarize_traces_and_format():
    with tracing() as tracer:
        for _ in range(3):
            with trace("batch.scan", root=True):
                with trace("gnn.infer"):
                    pass
        records = tracer.drain()
    summary = summarize_traces(records, top=2)
    assert summary["traces"] == 3
    assert summary["spans"] == 6
    assert summary["sites"]["batch.scan"]["count"] == 3
    assert len(summary["slowest"]) == 2
    assert summary["critical_path"][0]["site"] == "batch.scan"
    rendered = format_summary(summary)
    assert "batch.scan" in rendered
    assert "p99" in rendered


# ---------------------------------------------------------------------- #
# scan-engine span taxonomy through the server's front doors


@pytest.fixture(scope="module")
def served_detector(tiny_evm_corpus):
    from repro.core.config import ScamDetectConfig
    from repro.core.detector import ScamDetector

    detector = ScamDetector(
        ScamDetectConfig(epochs=3, num_layers=1, hidden_features=8),
        explain=False,
    )
    detector.train(tiny_evm_corpus)
    return detector


def test_server_spans_match_the_engine_stages(served_detector,
                                              tiny_evm_corpus):
    """With the cascade off no request records a tier-0 span, and a
    ``/v1/scan-batch`` request records one ``lowering`` span per contract,
    like every other front door."""
    from repro.service import ServerClient
    from repro.service.server import ScanServer

    codes = [sample.bytecode for sample in tiny_evm_corpus[:3]]
    with ScanServer(served_detector, port=0) as server:
        client = ServerClient(port=server.port)
        with tracing() as tracer:
            client.scan(codes[0], sample_id="single")
            client.scan_batch(codes, sample_ids=["a", "b", "c"])
            records = tracer.drain()
    sites = [record["site"] for record in records]
    assert sites.count("server.request") == 2
    assert "cascade.tier0" not in sites
    assert sites.count("lowering") == 1 + len(codes)
    lowered = sorted(
        record["attrs"]["sample"]
        for record in records
        if record["site"] == "lowering"
    )
    assert lowered == ["a", "b", "c", "single"]


# ---------------------------------------------------------------------- #
# Prometheus exposition


def _populated_snapshot():
    metrics = ServerMetrics()
    for endpoint, n in (("scan", 5), ("healthz", 2), ("metrics", 1)):
        for _ in range(n):
            metrics.record_request(endpoint)
            metrics.record_latency(endpoint, 0.012)
    metrics.record_request("scan")
    metrics.record_error()
    metrics.record_verdicts(6, 2)
    metrics.record_batch(4)
    metrics.record_batch(1)
    metrics.record_registry(hit=True)
    metrics.record_registry(hit=False)
    metrics.record_cascade(3, 2, 0)
    cache = CacheStats(hits=10, misses=4, disk_hits=1)
    queue = IngestQueue(capacity=8)
    queue.put(IngestItem(PRIORITY_NEW, "a" * 64, b"\x60", "s1"))
    ingest = {
        "backend": "push",
        "queue": queue.snapshot(),
        "stats": {"scanned": 1, "malicious": 0, "alerts": 0},
    }
    return metrics.snapshot(
        cache,
        cascade_enabled=True,
        registry_busy_retries=0,
        ingest=ingest,
    )


def test_render_prometheus_is_valid_exposition():
    text = render_prometheus(
        _populated_snapshot(), tracing_armed=True, fault_injection_armed=False
    )
    assert validate_exposition(text) == [], validate_exposition(text)
    for family in (
        "scamdetect_uptime_seconds",
        "scamdetect_tracing_armed 1",
        "scamdetect_fault_injection_armed 0",
        'scamdetect_requests_total{endpoint="scan"} 6',
        "scamdetect_errors_total 1",
        'scamdetect_request_latency_ms{endpoint="scan",quantile="0.99"}',
        "scamdetect_contracts_scanned_total 6",
        "scamdetect_contracts_malicious_total 2",
        'scamdetect_cache_lookups_total{result="hit"} 10',
        "scamdetect_inference_batches_total 2",
        'scamdetect_inference_batch_size_total{size="4"} 1',
        'scamdetect_registry_lookups_total{result="miss"} 1',
        "scamdetect_registry_busy_retries_total 0",
        'scamdetect_cascade_contracts_total{outcome="short_circuit"} 3',
        "scamdetect_cascade_disagreements_total 0",
        "scamdetect_ingest_queue_depth 1",
        "scamdetect_ingest_queue_capacity 8",
        "scamdetect_ingest_queue_enqueued_total 1",
        "scamdetect_ingest_scanned_total 1",
    ):
        assert family in text, f"missing {family!r} in exposition"
    # every route is versioned: there is no deprecated-traffic family
    assert "requests_deprecated" not in text


def test_render_prometheus_minimal_snapshot_valid():
    metrics = ServerMetrics()
    text = render_prometheus(metrics.snapshot(CacheStats()))
    assert validate_exposition(text) == []
    assert "scamdetect_ingest_queue_depth" not in text
    assert "scamdetect_cascade_contracts_total" not in text


def test_validate_exposition_catches_errors():
    assert validate_exposition(
        "# TYPE a counter\n# TYPE a counter\na 1\n"
    ) != []  # duplicate TYPE
    assert validate_exposition("orphan_metric 1\n") != []  # no TYPE
    assert validate_exposition(
        "# TYPE a counter\na 1\na 2\n"
    ) != []  # duplicate sample
    assert validate_exposition(
        "# TYPE a counter\na notanumber\n"
    ) != []  # bad value
    assert validate_exposition(
        "# TYPE a wibble\na 1\n"
    ) != []  # bad type
    assert validate_exposition(
        '# TYPE a counter\na{9bad="x"} 1\n'
    ) != []  # bad label name
    # a healthy document with labels, escapes and +Inf passes
    healthy = (
        "# HELP a help text\n# TYPE a counter\n"
        'a{l="x\\"y"} 1\na{l="z"} +Inf\n'
    )
    assert validate_exposition(healthy) == []


# ---------------------------------------------------------------------- #
# structured JSON logging


def test_json_logs_stamp_trace_ids():
    stream = io.StringIO()
    enable_json_logs(stream)
    assert json_logs_enabled()
    with tracing():
        with trace("batch.scan", root=True):
            context = carrier()
            warnings.warn("skipped 1 unreadable file", RuntimeWarning)
            json_log("info", "drain complete", items=3)
    disable_json_logs()
    assert not json_logs_enabled()
    lines = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert len(lines) == 2
    warn_line, info_line = lines
    assert warn_line["level"] == "warning"
    assert warn_line["category"] == "RuntimeWarning"
    assert warn_line["message"] == "skipped 1 unreadable file"
    assert warn_line["trace_id"] == context["trace_id"]
    assert info_line["level"] == "info"
    assert info_line["items"] == 3
    assert info_line["trace_id"] == context["trace_id"]


def test_json_logs_without_trace_context_omit_ids():
    stream = io.StringIO()
    enable_json_logs(stream)
    json_log("info", "no trace armed")
    disable_json_logs()
    (line,) = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert "trace_id" not in line
    # plain warnings go back through the stock path after disable
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.warn("plain again")
    assert len(caught) == 1
    assert stream.getvalue().count("\n") == 1


# ---------------------------------------------------------------------- #
# carrier propagation through the ingest queue


def test_ingest_coalesce_keeps_first_carrier():
    queue = IngestQueue(capacity=4)
    first = IngestItem(
        PRIORITY_NEW, "c" * 64, b"\x60", "s1",
        trace={"trace_id": "t1", "span_id": "a"},
    )
    duplicate = IngestItem(
        PRIORITY_NEW, "c" * 64, b"\x60", "s2",
        trace={"trace_id": "t2", "span_id": "b"},
    )
    assert queue.put(first) == "queued"
    assert queue.put(duplicate) == "deduped"
    item = queue.get()
    assert item.trace == {"trace_id": "t1", "span_id": "a"}
    assert item.sample_ids == ["s1", "s2"]

"""Tests of the event-driven ingest tier: watcher, queue, drain, HTTP.

Locks the ingest tier's acceptance invariants: the inotify and poll
backends record byte-identical verdicts and select the same files as a
``scan-batch`` walk; a poll-backend cycle waits out its interval; a full queue
backpressures (503 + Retry-After over HTTP, a stalled pump on the watch
path) instead of buffering; an identical-contract flood coalesces to one
scan; and stopping the service drains every admitted item -- SIGTERM
never strands work the queue accepted.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.core.config import ScamDetectConfig
from repro.core.detector import ScamDetector
from repro.ingest import (
    EVENT_DELETE,
    EVENT_RMDIR,
    EVENT_UPSERT,
    EventIngestService,
    IngestItem,
    IngestQueue,
    IngestQueueFull,
    InotifyWatcher,
    PollWatcher,
    PRIORITY_CHANGED,
    PRIORITY_NEW,
    PRIORITY_RESEEN,
    open_watcher,
)
from repro.registry import RulesEngine, ScanRegistry, content_sha256, \
    parse_rules
from repro.resilience import FaultPlan, FaultSpec, fault_plan
from repro.service.server import MAX_BODY_BYTES

FAST = ScamDetectConfig(epochs=3, num_layers=1, hidden_features=8)

needs_inotify = pytest.mark.skipif(
    not InotifyWatcher.available(), reason="inotify unavailable")


@pytest.fixture(scope="module")
def trained_detector(tiny_evm_corpus):
    detector = ScamDetector(FAST, explain=False)
    detector.train(tiny_evm_corpus)
    return detector


@pytest.fixture()
def feed(tmp_path, tiny_evm_corpus):
    directory = tmp_path / "feed"
    directory.mkdir()
    for sample in tiny_evm_corpus:
        (directory / f"{sample.sample_id}.bin").write_bytes(sample.bytecode)
    return directory


@pytest.fixture()
def registry(tmp_path, trained_detector):
    with ScanRegistry.for_config(tmp_path / "verdicts.db",
                                 trained_detector.config) as reg:
        yield reg


def item(sha: str, priority: int = PRIORITY_NEW, **kwargs) -> IngestItem:
    defaults = dict(raw=sha.encode(), sample_id=f"id-{sha}")
    defaults.update(kwargs)
    return IngestItem(priority=priority, sha256=sha, **defaults)


# --------------------------------------------------------------------------- #
# the bounded priority queue


def test_queue_orders_by_priority_then_fifo():
    queue = IngestQueue(capacity=10)
    queue.put(item("a", PRIORITY_RESEEN))
    queue.put(item("b", PRIORITY_NEW))
    queue.put(item("c", PRIORITY_CHANGED))
    queue.put(item("d", PRIORITY_NEW))
    order = [queue.get().sha256 for _ in range(4)]
    assert order == ["c", "b", "d", "a"]
    assert queue.get(timeout=0.0) is None


def test_queue_coalesces_duplicate_content():
    queue = IngestQueue(capacity=10)
    assert queue.put(item("x", sightings=[("a.bin", "x", 1, 1)])) == "queued"
    assert queue.put(item("x", sample_id="id-x2",
                          sightings=[("b.bin", "x", 1, 2)])) == "deduped"
    assert queue.depth() == 1
    merged = queue.get()
    assert merged.sample_ids == ["id-x", "id-x2"]
    assert [s[0] for s in merged.sightings] == ["a.bin", "b.bin"]
    snapshot = queue.snapshot()
    assert snapshot["enqueued"] == 1 and snapshot["deduped"] == 1


def test_queue_duplicate_promotes_priority():
    queue = IngestQueue(capacity=10)
    queue.put(item("slow", PRIORITY_RESEEN))
    queue.put(item("other", PRIORITY_NEW))
    # a changed-class sighting of the same content jumps the line
    assert queue.put(item("slow", PRIORITY_CHANGED)) == "deduped"
    assert queue.get().sha256 == "slow"
    assert queue.get().sha256 == "other"
    # the stale re-seen heap entry was skipped, not double-served
    assert queue.get(timeout=0.0) is None
    assert queue.snapshot()["drained"] == 2


def test_queue_full_raises_and_counts_drops():
    queue = IngestQueue(capacity=2, retry_after_s=7.5)
    queue.put(item("a"))
    queue.put(item("b"))
    with pytest.raises(IngestQueueFull) as exc:
        queue.put(item("c"))
    assert exc.value.capacity == 2
    assert exc.value.retry_after_s == 7.5
    # coalescing is NOT bounded: a duplicate costs no slot
    assert queue.put(item("a")) == "deduped"
    snapshot = queue.snapshot()
    assert snapshot["dropped"] == 1 and snapshot["depth"] == 2


def test_queue_requeue_bypasses_capacity():
    queue = IngestQueue(capacity=1)
    first = item("a")
    queue.put(first)
    popped = queue.get()
    queue.put(item("b"))  # at capacity again
    queue.requeue([popped])  # fault recovery must never drop verdicts
    assert queue.depth() == 2
    assert {queue.get().sha256, queue.get().sha256} == {"a", "b"}
    assert queue.snapshot()["drained"] == 2  # requeue undid the first pop


def test_queue_close_wakes_getters_and_refuses_puts():
    queue = IngestQueue(capacity=2)
    queue.put(item("a"))
    queue.close()
    with pytest.raises(RuntimeError, match="closed"):
        queue.put(item("b"))
    # what was admitted is still drained; then a blocking get returns None
    assert queue.get(timeout=None).sha256 == "a"
    assert queue.get(timeout=None) is None


def test_queue_get_batch_waits_for_first_item_only():
    queue = IngestQueue(capacity=10)
    started = time.perf_counter()
    assert queue.get_batch(8, timeout=0.05) == []
    assert time.perf_counter() - started >= 0.04
    for sha in "abc":
        queue.put(item(sha))
    batch = queue.get_batch(8, timeout=0.0)
    assert [entry.sha256 for entry in batch] == ["a", "b", "c"]


# --------------------------------------------------------------------------- #
# event backends


@needs_inotify
def test_inotify_watcher_reports_upsert_delete(tmp_path):
    root = tmp_path / "watched"
    root.mkdir()
    (root / "before.bin").write_bytes(b"\x60\x00")
    with InotifyWatcher([root], "*") as watcher:
        # startup catch-up: pre-existing files surface as upserts
        kinds = {(e.kind, e.path.name) for e in watcher.poll(0.2)}
        assert (EVENT_UPSERT, "before.bin") in kinds

        (root / "fresh.bin").write_bytes(b"\x60\x01")
        events = watcher.poll(2.0)
        assert any(e.kind == EVENT_UPSERT and e.path.name == "fresh.bin"
                   for e in events)

        (root / "fresh.bin").unlink()
        events = watcher.poll(2.0)
        assert any(e.kind == EVENT_DELETE and e.path.name == "fresh.bin"
                   for e in events)


@needs_inotify
def test_inotify_watcher_follows_new_subdirectories(tmp_path):
    root = tmp_path / "watched"
    root.mkdir()
    with InotifyWatcher([root], "*") as watcher:
        watcher.poll(0.1)
        nested = root / "deep"
        nested.mkdir()
        (nested / "late.bin").write_bytes(b"\x60\x02")
        deadline = time.monotonic() + 5.0
        seen = []
        while time.monotonic() < deadline:
            seen.extend(watcher.poll(0.2))
            if any(e.kind == EVENT_UPSERT and e.path.name == "late.bin"
                   for e in seen):
                break
        else:
            pytest.fail(f"no upsert for nested file; saw {seen}")

        import shutil
        shutil.rmtree(nested)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if any(e.kind == EVENT_RMDIR for e in watcher.poll(0.2)):
                break
        else:
            pytest.fail("directory removal never produced an rmdir event")


def test_poll_watcher_diffs_snapshots(tmp_path):
    root = tmp_path / "watched"
    root.mkdir()
    (root / "a.bin").write_bytes(b"\x60\x00")
    watcher = PollWatcher([root], "*")
    assert {(e.kind, e.path.name) for e in watcher.poll(0.0)} == \
        {(EVENT_UPSERT, "a.bin")}
    assert watcher.poll(0.0) == []  # unchanged: no events

    (root / "b.bin").write_bytes(b"\x60\x01")
    (root / "a.bin").unlink()
    kinds = {(e.kind, e.path.name) for e in watcher.poll(0.0)}
    assert kinds == {(EVENT_UPSERT, "b.bin"), (EVENT_DELETE, "a.bin")}


def test_open_watcher_backend_selection(tmp_path):
    assert open_watcher([tmp_path], backend="poll").backend == "poll"
    auto = open_watcher([tmp_path], backend="auto")
    assert auto.backend == (
        "inotify" if InotifyWatcher.available() else "poll")
    auto.close()
    with pytest.raises(ValueError, match="backend"):
        open_watcher([tmp_path], backend="carrier-pigeon")


def test_poll_backend_cycle_waits_out_its_interval(trained_detector, feed,
                                                   registry, monkeypatch):
    import threading

    import repro.ingest.events as events_module

    walks = []
    real_walk = events_module.iter_contract_files

    def counting_walk(*args, **kwargs):
        walks.append(args[0])
        return real_walk(*args, **kwargs)

    with EventIngestService(trained_detector, registry, roots=[feed],
                            backend="poll") as service:
        service.backfill()
        monkeypatch.setattr(events_module, "iter_contract_files",
                            counting_walk)
        started = time.monotonic()
        assert service.run(interval=0.2, max_cycles=3) == 3
        elapsed = time.monotonic() - started
        # an unchanged tree is walked once per interval, not back to back:
        # the first cycle runs at once, each later one waits an interval
        assert elapsed >= 0.4, f"3 quiet cycles took {elapsed:.3f}s"
        assert len(walks) <= 4, f"{len(walks)} walks in {elapsed:.3f}s"

        # stop() lands within one interval, as on the inotify backend
        stopper = threading.Timer(0.25, service.stop)
        started = time.monotonic()
        stopper.start()
        try:
            service.run(interval=0.2)
        finally:
            stopper.cancel()
        assert time.monotonic() - started < 0.25 + 0.2 + 0.5


def test_poll_backend_sees_deletes_between_backfill_and_first_cycle(
        trained_detector, feed, registry):
    # the poll watcher snapshots the tree when it is built, before the
    # backfill: a file removed after the backfill walked past it must
    # still reach the index as a delete on the first cycle
    with EventIngestService(trained_detector, registry, roots=[feed],
                            backend="poll") as service:
        service.backfill()
        removed = sorted(feed.glob("*.bin"))[0]
        removed.unlink()
        stats = service.cycle()
    assert stats.deletes == 1
    assert removed.name not in registry.watched_files()


@pytest.mark.parametrize(
    "backend", ["poll", pytest.param("inotify", marks=needs_inotify)])
def test_event_and_walk_select_the_same_paths(trained_detector, tmp_path,
                                              tiny_evm_corpus, backend):
    from repro.service.batch import iter_contract_files

    root = tmp_path / "tree"
    codes = [sample.bytecode for sample in tiny_evm_corpus]

    def write(rel, index):
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(codes[index % len(codes)])

    # nested tree, non-.bin files, hidden file and directory
    for index, rel in enumerate([
            "top.bin", "other.raw", "other2.raw", "sub/x.bin", "sub/y.raw",
            "a/sub/z.bin", "a/w.bin", ".hidden.bin", ".dot/h.bin",
            "sub/.dot.bin"]):
        write(rel, index)

    def walk(pattern, recursive):
        return {str(path.relative_to(root)) for path
                in iter_contract_files(root, pattern, recursive=recursive)}

    # the walk itself: nothing hidden, a slashed pattern at any depth
    assert walk("*", True) == {"top.bin", "other.raw", "other2.raw",
                               "sub/x.bin", "sub/y.raw", "a/sub/z.bin",
                               "a/w.bin"}
    assert walk("sub/*.bin", True) == {"sub/x.bin", "a/sub/z.bin"}
    assert walk("*.bin", False) == {"top.bin"}

    for case, (pattern, recursive) in enumerate(
            [("*", True), ("sub/*.bin", True), ("*.bin", True),
             ("*.bin", False)]):
        # the registry lives inside the watched root (plus its WAL files)
        with ScanRegistry.for_config(root / f"verdicts-{case}.db",
                                     trained_detector.config) as registry:
            with EventIngestService(
                    trained_detector, registry, roots=[root],
                    pattern=pattern, recursive=recursive,
                    backend=backend) as service:
                # startup catch-up events alone (no backfill walk)
                service.cycle(timeout=0.1)
                assert set(registry.watched_files()) \
                    == walk(pattern, recursive), (pattern, recursive)

                # live events, including a directory created after startup
                for index, rel in enumerate([
                        f"late-{case}.bin", f"late-{case}.raw",
                        f"sub/late-{case}.bin", f"a/sub/late-{case}.raw",
                        f".late-{case}.bin", f"new-{case}/sub/late.bin"]):
                    write(rel, index + 3)
                expected = walk(pattern, recursive)
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    service.cycle(timeout=0.1)
                    if set(registry.watched_files()) == expected:
                        break
                service.cycle(timeout=0.2)  # stragglers that must not land
                assert set(registry.watched_files()) == expected, \
                    (pattern, recursive)
                assert all(not row.source_path.startswith(".")
                           and ".db" not in row.source_path
                           for row in registry.query(limit=None))


# --------------------------------------------------------------------------- #
# the acceptance invariant: inotify backend == poll backend, byte for byte

#: the kernel backend where this host has one (else both sides poll)
EVENT_BACKEND = "inotify" if InotifyWatcher.available() else "poll"


def report_rows(registry):
    return {row.sample_id: row.to_report().to_dict()
            for row in registry.query(limit=None)}


def index_entries(registry):
    return {path: (entry.sha256, entry.size, entry.mtime_ns)
            for path, entry in registry.watched_files().items()}


def test_event_ingest_matches_poll_daemon_byte_identical(
        trained_detector, feed, tmp_path):
    registries = {
        backend: ScanRegistry.for_config(tmp_path / f"{backend}.db",
                                         trained_detector.config)
        for backend in ("poll", EVENT_BACKEND)}
    services = {
        backend: EventIngestService(trained_detector, registry,
                                    roots=[feed], backend=backend)
        for backend, registry in registries.items()}
    try:
        for service in services.values():
            service.backfill()
        poll, event = registries["poll"], registries[EVENT_BACKEND]
        assert report_rows(poll)
        assert report_rows(event) == report_rows(poll)
        assert index_entries(event) == index_entries(poll)

        # live change + delete flow through both backends alike
        target = sorted(feed.glob("*.bin"))[0]
        mutated = target.read_bytes() + b"\x00"
        target.write_bytes(mutated)
        removed = sorted(feed.glob("*.bin"))[1]
        removed.unlink()
        for backend, service in services.items():
            registry = registries[backend]
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                service.cycle(timeout=0.1)
                index = registry.watched_files()
                if (removed.name not in index
                        and index.get(target.name) is not None
                        and index[target.name].sha256
                        == content_sha256(mutated)):
                    break
            else:
                pytest.fail(f"{backend} service never caught up with the "
                            f"change + delete")
            assert registry.get(content_sha256(mutated)) is not None
            assert service.stats.deletes >= 1
        assert report_rows(event) == report_rows(poll)
        assert index_entries(event) == index_entries(poll)
    finally:
        for service in services.values():
            service.close()
        for registry in registries.values():
            registry.close()


def test_event_ingest_triage_rules_fire(trained_detector, feed, registry,
                                        tmp_path):
    spicy = ScamDetector(FAST, threshold=0.05, explain=False)
    spicy.pipeline = trained_detector.pipeline
    sink = tmp_path / "alerts.jsonl"
    engine = RulesEngine(parse_rules("""
[[rules]]
name = "page-on-scam"
[rules.match]
verdict = "malicious"
[rules.actions]
alert = true
exit_nonzero = true
"""), alert_path=sink)
    with EventIngestService(spicy, registry, roots=[feed],
                            rules=engine) as service:
        service.backfill()
        assert service.stats.malicious > 0
        assert service.stats.alerts == service.stats.malicious
        assert service.exit_nonzero and service.stats.exit_nonzero
    alerts = [json.loads(line) for line in sink.read_text().splitlines()]
    assert len(alerts) == service.stats.malicious


def test_triage_reuses_the_scan_model_identity(trained_detector, feed,
                                               registry, monkeypatch):
    # the model identity is a digest of every weight: the drain's triage
    # reuses the value the scan computed instead of recomputing it
    engine = RulesEngine(parse_rules("""
[[rules]]
name = "tag-scams"
[rules.match]
verdict = "malicious"
[rules.actions]
tag = ["hot"]
"""))
    calls = {"identity": 0, "scan": 0}
    real_identity = trained_detector.model_identity

    def counting_identity():
        calls["identity"] += 1
        return real_identity()

    monkeypatch.setattr(trained_detector, "model_identity", counting_identity)
    with EventIngestService(trained_detector, registry, roots=[feed],
                            backend="poll", rules=engine,
                            batch_size=8) as service:
        real_scan = service.scanner.scan_codes

        def counting_scan(*args, **kwargs):
            calls["scan"] += 1
            return real_scan(*args, **kwargs)

        monkeypatch.setattr(service.scanner, "scan_codes", counting_scan)
        service.backfill()
    assert calls["scan"] == 3  # 24 files in drains of 8
    assert calls["identity"] == calls["scan"]


def test_enqueue_dedupe_flood_costs_one_scan(trained_detector, registry,
                                             tiny_evm_corpus):
    raw = tiny_evm_corpus[0].bytecode
    with EventIngestService(trained_detector, registry,
                            queue_capacity=4) as service:
        assert service.submit_bytes(raw, sample_id="flood-0") == "queued"
        for index in range(1, 50):
            assert service.submit_bytes(
                raw, sample_id=f"flood-{index}") == "deduped"
        assert service.queue.depth() == 1  # 50 submissions, one slot
        assert service.stats.deduped == 49
        drained = service.drain()
        assert drained == 1
        assert service.stats.scanned == 1
        assert service.stats.inference_calls >= 1
    assert registry.get(content_sha256(raw)) is not None
    assert registry.query(limit=None)[0].scan_count == 1


def test_shutdown_drains_admitted_queue(trained_detector, registry,
                                        tiny_evm_corpus):
    # SIGTERM contract: stop() + shutdown() scans everything the queue
    # admitted before the stop -- no verdict is stranded
    service = EventIngestService(trained_detector, registry,
                                 queue_capacity=64)
    try:
        shas = []
        for sample in tiny_evm_corpus[:6]:
            service.submit_bytes(sample.bytecode, sample_id=sample.sample_id)
            shas.append(content_sha256(sample.bytecode))
        assert service.queue.depth() == len(set(shas))
        service.start()
        service.stop()
        service.shutdown(drain=True)
        assert service.queue.depth() == 0
        for sha in shas:
            assert registry.get(sha) is not None, "verdict lost on shutdown"
    finally:
        service.close()


def test_drain_fault_requeues_without_losing_verdicts(
        trained_detector, registry, tiny_evm_corpus):
    with EventIngestService(trained_detector, registry,
                            queue_capacity=16) as service:
        shas = []
        for sample in tiny_evm_corpus[:4]:
            service.submit_bytes(sample.bytecode, sample_id=sample.sample_id)
            shas.append(content_sha256(sample.bytecode))
        depth = service.queue.depth()
        with fault_plan(FaultPlan(specs=(
                FaultSpec(site="ingest.drain", kind="exception",
                          max_fires=1),))):
            assert service.drain() == 0  # the faulted batch went back
            assert service.stats.faulted_drains == 1
            assert service.queue.depth() == depth
            service.drain()
        assert service.queue.depth() == 0
        for sha in shas:
            assert registry.get(sha) is not None, "fault dropped a verdict"


def test_backpressure_stalls_event_pump(trained_detector, registry, feed):
    # capacity 2 cannot hold the backfill of a 24-file corpus in one go:
    # the walk interleaves draining, admits everything, loses nothing
    with EventIngestService(trained_detector, registry, roots=[feed],
                            queue_capacity=2) as service:
        service.backfill()
    rows = report_rows(registry)
    oracle = trained_detector.scan_directory(feed)
    assert len(rows) == oracle.num_scanned
    for report in oracle.reports:
        assert rows[report.sample_id] == report.to_dict()


# --------------------------------------------------------------------------- #
# POST /v1/ingest


@pytest.fixture()
def ingest_server(trained_detector, tmp_path):
    from repro.service.server import ScanServer

    with ScanRegistry.for_config(tmp_path / "server.db",
                                 trained_detector.config) as registry:
        server = ScanServer(trained_detector, port=0, workers=4,
                            ingest_queue=8, registry=registry)
        server.start()
        try:
            yield server, registry
        finally:
            server.shutdown()


def wait_for_rows(registry, count, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        rows = registry.query(limit=None)
        if len(rows) >= count:
            return rows
        time.sleep(0.02)
    raise AssertionError(
        f"registry never reached {count} rows ({len(registry.query(limit=None))})")


def test_server_ingest_records_verdicts(ingest_server, tiny_evm_corpus):
    from repro.service import ServerClient

    server, registry = ingest_server
    client = ServerClient(port=server.port)
    codes = [sample.bytecode for sample in tiny_evm_corpus[:3]]
    ids = [f"push-{index}" for index in range(3)]

    response = client.ingest(codes, sample_ids=ids)
    assert response["accepted"] == 3 and response["rejected"] == 0
    rows = wait_for_rows(registry, 3)
    by_sha = {row.sha256: row for row in rows}
    oracle = {content_sha256(code): server.detector.scan(code)
              for code in codes}
    for sha, report in oracle.items():
        stored = by_sha[sha].to_report(sample_id=report.sample_id)
        assert stored.to_dict() == report.to_dict()

    # re-pushing identical content coalesces or answers from the registry;
    # either way no second scan is recorded
    response = client.ingest(codes, sample_ids=ids)
    assert response["accepted"] + response["deduped"] == 3
    health = client.healthz()
    assert health["ingest"]["capacity"] == 8
    assert health["ingest"]["backend"] == "push"
    metrics = client.metrics()
    assert metrics["ingest"]["queue"]["capacity"] == 8
    assert metrics["ingest"]["stats"]["drained"] >= 3


def test_server_ingest_ndjson_and_base64(ingest_server, tiny_evm_corpus):
    from repro.service import ServerClient

    server, registry = ingest_server
    client = ServerClient(port=server.port)
    codes = [sample.bytecode for sample in tiny_evm_corpus[3:6]]
    response = client.ingest(codes, encoding="base64", ndjson=True,
                             sample_ids=[f"nd-{i}" for i in range(3)])
    assert response["accepted"] == 3
    rows = wait_for_rows(registry, 3)
    assert {content_sha256(code) for code in codes} <= \
        {row.sha256 for row in rows}


def test_server_ingest_chunked_transfer_encoding(ingest_server,
                                                 tiny_evm_corpus):
    import http.client

    server, registry = ingest_server
    before = len(registry.query(limit=None))
    payload = json.dumps({
        "bytecode": tiny_evm_corpus[6].bytecode.hex(),
        "sample_id": "chunked-one",
    }).encode()
    chunks = [payload[i:i + 7] for i in range(0, len(payload), 7)]
    connection = http.client.HTTPConnection(server.host, server.port,
                                            timeout=10.0)
    try:
        connection.request("POST", "/v1/ingest", body=iter(chunks),
                           headers={"Content-Type": "application/json"},
                           encode_chunked=True)
        response = connection.getresponse()
        body = json.loads(response.read())
        assert response.status == 202, body
        assert body["accepted"] == 1
    finally:
        connection.close()
    wait_for_rows(registry, before + 1)


def test_server_ingest_bad_requests(ingest_server):
    server, _ = ingest_server

    def post(body: bytes, content_type="application/json"):
        request = urllib.request.Request(
            f"{server.url}/v1/ingest", data=body,
            headers={"Content-Type": content_type}, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=10.0) as reply:
                return reply.status, json.loads(reply.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    status, body = post(b"{not json")
    assert status == 400 and "error" in body
    status, body = post(json.dumps({"bytecode": "zz-not-hex"}).encode())
    assert status == 400 and "bytecode" in body["error"]["message"]
    status, body = post(json.dumps({"contracts": []}).encode())
    assert status == 400
    status, body = post(b'{"bytecode": "6000"}\n{not json}\n',
                        content_type="application/x-ndjson")
    assert status == 400 and "line 2" in body["error"]["message"]


def test_server_ingest_disabled_returns_404(trained_detector):
    from repro.service.server import ScanServer

    with ScanServer(trained_detector, port=0, workers=2) as server:
        request = urllib.request.Request(
            f"{server.url}/v1/ingest",
            data=json.dumps({"bytecode": "6000"}).encode(),
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=10.0)
        assert exc.value.code == 404
        assert json.loads(exc.value.read())["error"]["code"] == \
            "ingest_disabled"


def test_server_ingest_requires_registry(trained_detector):
    from repro.service.server import ScanServer

    with pytest.raises(ValueError, match="registry"):
        ScanServer(trained_detector, port=0, ingest_queue=4)
    with pytest.raises(ValueError, match="ingest_queue"):
        ScanServer(trained_detector, port=0, ingest_queue=0)


def test_rejected_service_attaches_no_cache(trained_detector, tmp_path,
                                            monkeypatch):
    """A service that fails to construct leaves the caller's pipeline as
    it was, and closes the watcher it opened."""
    from repro.service import GraphCache

    cache = GraphCache.for_config(trained_detector.config)
    previous = trained_detector.pipeline.graph_cache
    closed = []
    close = PollWatcher.close
    monkeypatch.setattr(PollWatcher, "close",
                        lambda self: closed.append(self) or close(self))
    with ScanRegistry.for_config(tmp_path / "verdicts.db",
                                 trained_detector.config) as registry:
        with pytest.raises(ValueError, match="capacity"):
            EventIngestService(trained_detector, registry,
                               queue_capacity=0, cache=cache)
        assert trained_detector.pipeline.graph_cache is previous
        with pytest.raises(ValueError, match="backend"):
            EventIngestService(trained_detector, registry,
                               roots=(tmp_path,), backend="bogus",
                               cache=cache)
        assert trained_detector.pipeline.graph_cache is previous
    other_config = ScamDetectConfig(node_feature_mode="count")
    with ScanRegistry.for_config(tmp_path / "other.db",
                                 other_config) as other:
        with pytest.raises(ValueError, match="fingerprint"):
            EventIngestService(trained_detector, other, roots=(tmp_path,),
                               backend="poll", cache=cache)
    assert trained_detector.pipeline.graph_cache is previous
    assert len(closed) == 1


@pytest.mark.parametrize("length, status, message", [
    (None, 411, "Content-Length header is required"),
    ("abc", 400, "invalid Content-Length"),
    ("-1", 400, "invalid Content-Length"),
    (str(MAX_BODY_BYTES + 1), 413,
     f"request body exceeds {MAX_BODY_BYTES} bytes"),
])
def test_scan_and_ingest_share_content_length_rules(ingest_server, length,
                                                    status, message):
    import http.client

    server, _ = ingest_server
    for path in ("/v1/scan", "/v1/ingest"):
        connection = http.client.HTTPConnection(server.host, server.port,
                                                timeout=10)
        try:
            connection.putrequest("POST", path)
            if length is not None:
                connection.putheader("Content-Length", length)
            connection.endheaders()
            response = connection.getresponse()
            error = json.loads(response.read())["error"]
        finally:
            connection.close()
        expected = message
        if status == 411 and path == "/v1/ingest":
            expected += " (or use Transfer-Encoding: chunked)"
        assert response.status == status
        assert error["message"] == expected
        assert error["code"] == {411: "length_required", 400: "bad_request",
                                 413: "payload_too_large"}[status]


def test_server_ingest_full_queue_answers_503(ingest_server,
                                              tiny_evm_corpus):
    from repro.service import ServerClient, ServerClientError
    from repro.resilience.retry import RetryPolicy

    server, registry = ingest_server
    # park the drain worker: the first batch blocks on the scan lock, the
    # queue then fills to capacity and stays full
    with server.ingest._scan_lock:
        rejected = None
        for index, sample in enumerate(tiny_evm_corpus):
            request = urllib.request.Request(
                f"{server.url}/v1/ingest",
                data=json.dumps({
                    "bytecode": sample.bytecode.hex(),
                    "sample_id": f"flood-{index}",
                }).encode(),
                headers={"Content-Type": "application/json"},
                method="POST")
            try:
                urllib.request.urlopen(request, timeout=10.0).read()
            except urllib.error.HTTPError as error:
                rejected = error
                break
        assert rejected is not None, "queue never filled"
        assert rejected.code == 503
        assert rejected.headers["Retry-After"] == "1"
        envelope = json.loads(rejected.read())["error"]
        assert envelope["code"] == "overloaded"
        assert envelope["retry_after"] == 1

        # the client's retry loop honors Retry-After before giving up
        client = ServerClient(port=server.port,
                              retry=RetryPolicy(max_attempts=2,
                                                base_delay_s=0.01))
        started = time.perf_counter()
        with pytest.raises(ServerClientError) as exc:
            client.ingest([tiny_evm_corpus[-1].bytecode],
                          sample_ids=["latecomer"])
        elapsed = time.perf_counter() - started
        assert exc.value.code == "overloaded"
        assert exc.value.status == 503
        assert elapsed >= 0.9, "client did not honor Retry-After"

    # lock released: the drain catches up and nothing admitted was lost
    accepted = server.ingest.queue.enqueued
    wait_for_rows(registry, accepted)


# --------------------------------------------------------------------------- #
# CLI: watch --event-driven


@needs_inotify
def test_watch_event_driven_cli_roundtrip(trained_detector, feed, tmp_path,
                                          tiny_evm_corpus, capsys):
    from repro.cli import main

    model_path = tmp_path / "model"
    trained_detector.save(model_path)
    registry_path = tmp_path / "cli-event.db"
    extra_root = tmp_path / "second-root"
    extra_root.mkdir()
    (extra_root / "other.bin").write_bytes(
        tiny_evm_corpus[0].bytecode + b"\x00")

    exit_code = main(["watch", str(feed), "--event-driven",
                      "--root", str(extra_root),
                      "--model-path", str(model_path),
                      "--registry", str(registry_path),
                      "--interval", "0.05", "--max-polls", "3", "--json"])
    assert exit_code == 0
    out = capsys.readouterr().out
    payloads = [json.loads(line) for line in out.splitlines()
                if line.startswith("{")]
    assert payloads, out
    # satellite: the JSON stream surfaces the fault/exit counters
    assert all("exit_nonzero" in p and "faulted_cycles" in p
               for p in payloads)

    with ScanRegistry.for_config(registry_path,
                                 trained_detector.config) as registry:
        rows = registry.query(limit=None)
        oracle = trained_detector.scan_directory(feed)
        # both roots were ingested: the single-root corpus plus the extra
        assert len(rows) == oracle.num_scanned + 1
        index = registry.watched_files()
    assert any(rel.endswith("other.bin") for rel in index)

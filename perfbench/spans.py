"""Outside-in layer tracing for the front-door benchmark.

The program has no spans of its own at the layer boundaries this
benchmark needs, so the benchmark wraps each layer's public functions
from here (:func:`install`), and only in a traced run.  A wrapper records
one span per call:

    (id, parent, name, start, end, cpu, thread, key, note)

``start``/``end`` are ``time.perf_counter()`` values -- CLOCK_MONOTONIC
on Linux, so they line up with the load generator's clock in the
benchmark process.  ``cpu`` is the calling thread's CPU time inside the
call; wall time minus it is time spent waiting (for the GIL, the disk or
another thread).  ``parent`` is the innermost open span on the same
thread; a span opened on a thread with no open span (the lowering pool's
workers) is adopted by the open ``BatchScanner.scan_codes`` span, if any.
``key`` is the request or contract id when the call carries one, and
``note`` a small per-call fact (graphs in a batch, registry hit, ...).
Spans stay in memory and are written once, when the program exits.

:func:`layer_metrics` turns the spans of one timed window into the
per-layer table.  Self time is a span's wall time minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# field positions in a span record
SID, PARENT, NAME, START, END, CPU, THREAD, KEY, NOTE = range(9)


class SpanRecorder:
    """Collects spans from the wrapped functions of one process."""

    def __init__(self) -> None:
        self.records: List[list] = []
        self.thread_names: Dict[int, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._ambient: Optional[int] = None

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        key: Optional[Callable] = None,
        note: Optional[Callable] = None,
        ambient: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = getattr(owner, attr)
        recorder = self
        clock = time.perf_counter
        cpu_clock = time.thread_time

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
                thread = threading.current_thread()
                recorder.thread_names[thread.ident] = thread.name
            parent = stack[-1] if stack else recorder._ambient
            sid = next(recorder._ids)
            owns_ambient = ambient and recorder._ambient is None
            if owns_ambient:
                recorder._ambient = sid
            stack.append(sid)
            result = None
            cpu0 = cpu_clock()
            start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = clock()
                cpu = cpu_clock() - cpu0
                stack.pop()
                if owns_ambient:
                    recorder._ambient = None
                recorder.records.append([
                    sid, parent, name, start, end, cpu,
                    threading.get_ident(),
                    key(args, kwargs) if key is not None else None,
                    note(args, kwargs, result) if note is not None else None,
                ])

        setattr(owner, attr, wrapper)

    def dump(self, path: str) -> None:
        payload = {
            "records": self.records,
            "threads": {str(k): v for k, v in self.thread_names.items()},
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _arg(index: int, name: str):
    """Key extractor: positional ``index`` (self included) or keyword."""

    def extract(args, kwargs):
        value = kwargs.get(name, args[index] if len(args) > index else None)
        return value if isinstance(value, str) else None

    return extract


def _count(index: int):
    return lambda args, kwargs, result: len(args[index]) if len(args) > index else 0


def _decided(args, kwargs, result):
    if result is None:
        return None
    return [len(result), sum(1 for d in result if d.short_circuit)]


def _registry_write(args, kwargs, result):
    return [len(args[1]) if len(args) > 1 else 0, int(args[0].busy_retries)]


def _queue_put(args, kwargs, result):
    return [args[1].sha256, result]


def _queue_batch(args, kwargs, result):
    return [item.sha256 for item in result or ()]


def _scanned(args, kwargs, result):
    return len(result.reports) if result is not None else 0


def _nodes(args, kwargs, result):
    return int(result.num_nodes) if result is not None else None


def _matched(args, kwargs, result):
    return bool(result.matched) if result is not None else None


def _hit(args, kwargs, result):
    return result is not None


# (module, attribute owner or None for the module itself, attribute,
#  span name, key, note, adopts orphan spans)
_TARGETS: Sequence[tuple] = (
    ("repro.core.frontends", "EVMFrontend", "build_cfg", "lowering.cfg",
     _arg(2, "name"), None, False),
    ("repro.core.frontends", "WasmFrontend", "build_cfg", "lowering.cfg",
     _arg(2, "name"), None, False),
    ("repro.evm.cfg_builder", None, "disassemble", "lowering.disasm",
     None, None, False),
    ("repro.wasm.cfg_builder", None, "parse_module", "lowering.disasm",
     None, None, False),
    ("repro.core.pipeline", None, "cfg_to_graph", "lowering.graph",
     None, _nodes, False),
    ("repro.core.detector", "ScamDetector", "build_report", "report",
     _arg(2, "sample_id"), None, False),
    ("repro.cascade.head", "CascadeHead", "decide", "cascade.decide",
     None, _decided, False),
    ("repro.service.server", "RequestCoalescer", "submit", "coalescer.submit",
     None, _count(1), False),
    ("repro.gnn.training", "GNNTrainer", "predict_proba", "gnn.predict",
     None, _count(1), False),
    ("repro.gnn.data", "GraphBatch", "__init__", "gnn.batch_build",
     None, _count(1), False),
    ("repro.service.cache", "GraphCache", "get", "cache.get",
     None, _hit, False),
    ("repro.service.cache", "GraphCache", "put", "cache.put",
     None, None, False),
    ("repro.service.batch", "BatchScanner", "scan_codes", "batch.scan_codes",
     None, _scanned, True),
    ("repro.service.server", "ScanServer", "scan_one", "server.scan_one",
     _arg(3, "sample_id"), None, False),
    ("repro.registry.store", "ScanRegistry", "get_many", "registry.read",
     None, _count(1), False),
    ("repro.registry.store", "ScanRegistry", "record_many", "registry.write",
     None, _registry_write, False),
    ("repro.registry.store", "ScanRegistry", "upsert_watched_files",
     "registry.upsert", None, _registry_write, False),
    ("repro.ingest.service", "EventIngestService", "pump_events",
     "ingest.pump", None, lambda a, k, r: r, False),
    ("repro.ingest.service", "EventIngestService", "drain", "ingest.drain",
     None, lambda a, k, r: r, False),
    ("repro.ingest.events", "InotifyWatcher", "poll", "ingest.poll",
     None, None, False),
    ("repro.ingest.events", "PollWatcher", "poll", "ingest.poll",
     None, None, False),
    ("repro.ingest.queue", "IngestQueue", "put", "ingest.put",
     None, _queue_put, False),
    ("repro.ingest.queue", "IngestQueue", "get_batch", "ingest.get_batch",
     None, _queue_batch, False),
    ("repro.registry.watch", None, "stable_read", "ingest.stable_read",
     None, None, False),
    ("repro.registry.rules", "RulesEngine", "evaluate", "rules.evaluate",
     None, _matched, False),
)


def install(recorder: SpanRecorder) -> SpanRecorder:
    """Wrap every layer boundary in :data:`_TARGETS`.

    A target that a refactor renamed or removed fails the traced run at
    once: a layer whose wrapper is gone would otherwise read 0 with 0
    samples, which looks like the best possible gain in that layer.
    """
    for module_name, owner_name, attr, name, key, note, ambient in _TARGETS:
        try:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            recorder.wrap(owner, attr, name, key=key, note=note, ambient=ambient)
        except (ImportError, AttributeError) as error:
            target = ".".join(filter(None, (module_name, owner_name, attr)))
            raise LookupError(
                f"span target {target} is gone ({error}); "
                f"update _TARGETS in perfbench/spans.py") from error
    return recorder


# --------------------------------------------------------------------------- #
# analysis (benchmark process)


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


class _Table:
    """Ordered per-layer rows: name -> [value, unit, samples]."""

    def __init__(self) -> None:
        self.rows: Dict[str, list] = {}

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.rows[name] = [float(value), unit, int(samples)]


def layer_metrics(
    trace: dict, window: Tuple[float, float], client: Optional[dict] = None
) -> Dict[str, list]:
    """The per-layer table of one traced window.

    Args:
        trace: The payload :meth:`SpanRecorder.dump` wrote.
        window: ``(start, end)`` of the timed phase (perf_counter).
        client: For the HTTP workload, ``{request id: client latency in
            seconds from send to response}``.

    Returns ``{metric: [value, unit, samples]}``; a layer that did no work
    in the window reads 0 with 0 samples.
    """
    lo, hi = window
    # by end time: a watcher poll that blocked before the window and
    # returned the window's first events belongs to the window
    records = [r for r in trace["records"] if lo <= r[END] <= hi]
    by_name: Dict[str, List[list]] = {}
    children: Dict[int, List[list]] = {}
    for record in records:
        by_name.setdefault(record[NAME], []).append(record)
        if record[PARENT] is not None:
            children.setdefault(record[PARENT], []).append(record)
    names_by_sid = {r[SID]: r[NAME] for r in records}
    threads = {int(k): v for k, v in trace.get("threads", {}).items()}

    def spans(name: str) -> List[list]:
        return by_name.get(name, [])

    def wall(record) -> float:
        return record[END] - record[START]

    def self_time(record) -> float:
        covered = _union_length(
            (max(c[START], record[START]), min(c[END], record[END]))
            for c in children.get(record[SID], ())
            if c[END] > record[START] and c[START] < record[END]
        )
        return wall(record) - covered

    table = _Table()
    us, ms = 1e6, 1e3

    # lowering: CFG builds on the scan path (report rebuilds count below)
    builds = [r for r in spans("lowering.cfg")
              if names_by_sid.get(r[PARENT]) != "report"]
    build_ids = {r[SID] for r in builds}
    table.add("lowering.cfg_us", _mean([wall(r) for r in builds]) * us,
              "us", len(builds))
    table.add("lowering.cfg_cpu_us", _mean([r[CPU] for r in builds]) * us,
              "us", len(builds))
    disasm = [r for r in spans("lowering.disasm") if r[PARENT] in build_ids]
    table.add("lowering.disasm_us", _mean([wall(r) for r in disasm]) * us,
              "us", len(disasm))
    graphs = spans("lowering.graph")
    table.add("lowering.graph_us", _mean([wall(r) for r in graphs]) * us,
              "us", len(graphs))
    nodes = [r[NOTE] for r in graphs if r[NOTE] is not None]
    table.add("lowering.nodes_mean", _mean(nodes), "count", len(nodes))

    reports = spans("report")
    rebuilds = [r for r in spans("lowering.cfg")
                if names_by_sid.get(r[PARENT]) == "report"]
    table.add("report.self_us", _mean([self_time(r) for r in reports]) * us,
              "us", len(reports))
    table.add("report.rebuilds_per_report",
              len(rebuilds) / len(reports) if reports else 0.0,
              "count", len(reports))

    decides = [r for r in spans("cascade.decide") if r[NOTE]]
    decided = sum(r[NOTE][0] for r in decides)
    table.add("cascade.decide_us",
              sum(wall(r) for r in decides) / decided * us if decided else 0.0,
              "us", decided)
    table.add("cascade.short_circuit_ratio",
              sum(r[NOTE][1] for r in decides) / decided if decided else 0.0,
              "ratio", decided)

    submits = spans("coalescer.submit")
    table.add("coalescer.wait_ms", _mean([wall(r) for r in submits]) * ms,
              "ms", len(submits))
    predicts = spans("gnn.predict")
    drained = [r for r in predicts
               if threads.get(r[THREAD], "").startswith("scamdetect-coalescer")]
    table.add("coalescer.graphs_per_call", _mean([r[NOTE] for r in drained]),
              "count", len(drained))

    scored = sum(r[NOTE] for r in predicts)
    table.add("gnn.infer_us_per_graph",
              sum(wall(r) for r in predicts) / scored * us if scored else 0.0,
              "us", scored)
    table.add("gnn.graphs_per_call", _mean([r[NOTE] for r in predicts]),
              "count", len(predicts))
    batches = spans("gnn.batch_build")
    table.add("gnn.batch_build_us", _mean([wall(r) for r in batches]) * us,
              "us", len(batches))

    gets = spans("cache.get")
    puts = spans("cache.put")
    table.add("cache.get_us", _mean([wall(r) for r in gets]) * us, "us",
              len(gets))
    table.add("cache.put_us", _mean([wall(r) for r in puts]) * us, "us",
              len(puts))
    table.add("cache.hit_ratio",
              sum(1 for r in gets if r[NOTE]) / len(gets) if gets else 0.0,
              "ratio", len(gets))

    scans = spans("batch.scan_codes")
    scanned = sum(r[NOTE] for r in scans)
    table.add("batch.self_us",
              sum(self_time(r) for r in scans) / scanned * us if scanned else 0.0,
              "us", scanned)

    handled = spans("server.scan_one")
    hits, misses = [], []
    for record in handled:
        kinds = {c[NAME] for c in children.get(record[SID], ())}
        (hits if kinds <= {"registry.read"} else misses).append(record)
    table.add("server.handler_hit_ms", _mean([wall(r) for r in hits]) * ms,
              "ms", len(hits))
    table.add("server.handler_miss_ms", _mean([wall(r) for r in misses]) * ms,
              "ms", len(misses))
    outside = []
    if client:
        for record in handled:
            latency = client.get(record[KEY])
            if latency is not None:
                outside.append(latency - wall(record))
    table.add("server.outside_ms", _mean(outside) * ms, "ms", len(outside))

    reads = spans("registry.read")
    writes = spans("registry.write")
    upserts = spans("registry.upsert")
    table.add("registry.read_us", _mean([wall(r) for r in reads]) * us, "us",
              len(reads))
    table.add("registry.write_us", _mean([wall(r) for r in writes]) * us,
              "us", len(writes))
    table.add("registry.rows_per_write", _mean([r[NOTE][0] for r in writes]),
              "count", len(writes))
    table.add("registry.upsert_us", _mean([wall(r) for r in upserts]) * us,
              "us", len(upserts))
    retries = [r[NOTE][1] for r in writes + upserts]
    all_retries = [r[NOTE][1] for r in trace["records"]
                   if r[NAME] in ("registry.write", "registry.upsert")
                   and r[END] < lo]
    table.add("registry.busy_retries",
              (max(retries) - max(all_retries, default=0)) if retries else 0,
              "count", len(retries))

    pumps = [r for r in spans("ingest.pump") if r[NOTE]]
    table.add("ingest.pump_ms", _mean([self_time(r) for r in pumps]) * ms,
              "ms", len(pumps))
    drains = [r for r in spans("ingest.drain") if r[NOTE]]
    table.add("ingest.drain_ms", _mean([wall(r) for r in drains]) * ms, "ms",
              len(drains))
    table.add("ingest.items_per_drain", _mean([r[NOTE] for r in drains]),
              "count", len(drains))
    enqueues = spans("ingest.put")
    table.add("ingest.dedupe_ratio",
              sum(1 for r in enqueues if r[NOTE][1] == "deduped") / len(enqueues)
              if enqueues else 0.0,
              "ratio", len(enqueues))
    # replay puts and pops in time order: the same content can be queued
    # again after an earlier copy was drained
    queued_at: Dict[str, float] = {}
    waits = []
    for record in sorted(enqueues + spans("ingest.get_batch"),
                         key=lambda r: r[END]):
        if record[NAME] == "ingest.put":
            if record[NOTE][1] == "queued":
                queued_at[record[NOTE][0]] = record[END]
            continue
        for sha in record[NOTE]:
            if sha in queued_at:
                waits.append(record[END] - queued_at.pop(sha))
    table.add("ingest.queue_wait_ms", _mean(waits) * ms, "ms", len(waits))
    stable = spans("ingest.stable_read")
    table.add("ingest.stable_read_us", _mean([wall(r) for r in stable]) * us,
              "us", len(stable))

    evaluations = spans("rules.evaluate")
    table.add("rules.evaluate_us", _mean([wall(r) for r in evaluations]) * us,
              "us", len(evaluations))
    table.add("rules.match_ratio",
              sum(1 for r in evaluations if r[NOTE]) / len(evaluations)
              if evaluations else 0.0,
              "ratio", len(evaluations))

    covered = _union_length(
        (max(r[START], lo), min(r[END], hi)) for r in records if r[END] > lo
    )
    span_wall = hi - lo
    table.add("trace.uncovered_share",
              1.0 - covered / span_wall if span_wall > 0 else 0.0,
              "ratio", len(records))
    return table.rows

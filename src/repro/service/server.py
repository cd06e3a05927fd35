"""Long-running scan server: versioned HTTP endpoints + request coalescing.

This module turns a trained :class:`~repro.core.detector.ScamDetector` into a
stdlib-only daemon (``http.server`` + ``threading`` + ``queue``) that serves
live scan traffic.  The API is versioned under ``/v1/``:

* ``POST /v1/scan`` -- one contract (hex or base64 bytecode) -> verdict JSON,
* ``POST /v1/scan-batch`` -- many contracts in one request,
* ``GET /v1/healthz`` -- liveness probe (model description, uptime, queue
  depth),
* ``GET /v1/metrics`` -- request counts, latency percentiles, cache hit rate
  and the inference batch-size histogram, in the same stats schema the
  offline :class:`~repro.service.batch.BatchScanResult` reports,
* ``GET /v1/verdicts`` / ``GET /v1/verdicts/<sha256>`` -- keyset-paginated
  reads over the attached persistent
  :class:`~repro.registry.store.ScanRegistry` (scan traffic is recorded into
  it, and registry hits skip inference entirely).

An unversioned path (``/scan``, ``/healthz``, ...) is answered like any
unknown path: ``404`` with code ``not_found``.  Errors are a uniform JSON
envelope::

    {"error": {"code": "overloaded", "message": "...", "retry_after": 1}}

``code`` is a stable machine-readable slug, ``retry_after`` is the backoff
hint in seconds (null unless the server sent ``Retry-After``).

The core of the serving path is the :class:`RequestCoalescer`: handler
threads lower bytecode to graphs (through the shared
:class:`~repro.service.cache.GraphCache`) and enqueue them; a single
inference thread drains the queue into one block-diagonal
:class:`~repro.gnn.data.GraphBatch` call per micro-batch (whatever is queued
when it wakes, up to ``max_batch`` graphs).  Because
:meth:`ScamDetector.build_report` quantizes scores far above the batch
composition noise floor, coalesced verdicts are byte-identical to
single-shot :meth:`ScamDetector.scan` verdicts -- concurrency changes
latency, never answers.

Start it from the CLI (``scamdetect serve --model-path ... --port 8742``) or
programmatically::

    with ScanServer(detector, port=0) as server:       # port 0: pick free port
        client = ServerClient(port=server.port)
        verdict = client.scan(bytecode)
"""

from __future__ import annotations

import json
import queue
import threading
import time
import urllib.parse
from base64 import b64decode
from collections import deque
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.detector import ScamDetector, coerce_bytecode
from repro.core.engine import ScanEngine
from repro.core.report import VerdictReport
from repro.gnn.data import ContractGraph
from repro.ingest.queue import IngestQueueFull
from repro.obs.prometheus import render_prometheus
from repro.obs.trace import armed as tracing_armed, trace
from repro.resilience.faults import (
    InjectedFault,
    active_injector,
    fault_point,
)
from repro.service.batch import throughput_stats
from repro.service.cache import CacheStats, GraphCache

#: Default TCP port of the scan server (spells "scan" on a phone pad, almost).
DEFAULT_PORT = 8742

#: Largest accepted request body; anything bigger is rejected with 413.
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Current API version prefix; every route lives under it.
API_PREFIX = "/v1"

#: Default (and maximum) page size of ``GET /v1/verdicts``.
VERDICTS_PAGE_SIZE = 100
VERDICTS_MAX_PAGE_SIZE = 1000

_LATENCY_WINDOW = 4096

#: Fallback machine-readable error codes per HTTP status (a handler may
#: always pass a more specific code explicitly).
_STATUS_CODES = {
    400: "bad_request",
    404: "not_found",
    411: "length_required",
    413: "payload_too_large",
    500: "internal",
    503: "unavailable",
}


class ServerShuttingDown(RuntimeError):
    """Raised by :meth:`RequestCoalescer.submit` once shutdown has begun.

    A ``RuntimeError`` subclass so callers may catch either; the HTTP layer
    maps exactly this type to 503 (anything else is a real 500).
    """


class ServerOverloaded(RuntimeError):
    """Raised by :meth:`RequestCoalescer.submit` when the inference queue is
    over its ``max_queue`` bound.

    The HTTP layer maps this to 503 with a ``Retry-After`` header --
    explicit backpressure instead of unbounded queueing under overload --
    and :class:`~repro.service.ServerClient` honors the header.
    """


def _percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 for an empty window)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(
        0,
        min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))),
    )
    return ordered[rank]


class ServerMetrics:
    """Thread-safe counters behind ``GET /v1/metrics``.

    Latencies are kept in bounded per-endpoint windows (the last
    ``_LATENCY_WINDOW`` requests) so percentiles reflect recent traffic and
    memory stays constant under sustained load.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started_monotonic = time.monotonic()
        self.requests: Dict[str, int] = {}
        self.errors = 0
        self.contracts = 0
        self.malicious = 0
        self.batch_sizes: Dict[int, int] = {}
        self.registry_hits = 0
        self.registry_misses = 0
        self.cascade_short_circuits = 0
        self.cascade_escalations = 0
        self.cascade_disagreements = 0
        self._latencies: Dict[str, deque] = {}

    def record_request(self, endpoint: str) -> None:
        with self._lock:
            self.requests[endpoint] = self.requests.get(endpoint, 0) + 1

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    def record_latency(self, endpoint: str, seconds: float) -> None:
        with self._lock:
            window = self._latencies.setdefault(
                endpoint, deque(maxlen=_LATENCY_WINDOW)
            )
            window.append(seconds)

    def record_batch(self, size: int) -> None:
        """Record one GNN inference call over ``size`` graphs."""
        with self._lock:
            self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1

    def record_verdicts(self, num_contracts: int, num_malicious: int) -> None:
        with self._lock:
            self.contracts += num_contracts
            self.malicious += num_malicious

    def record_registry(self, hit: bool, count: int = 1) -> None:
        """Record ``count`` persistent-registry lookups on the scan path."""
        with self._lock:
            if hit:
                self.registry_hits += count
            else:
                self.registry_misses += count

    def record_cascade(
        self, short_circuits: int, escalations: int, disagreements: int
    ) -> None:
        """Record tier-0 pre-filter outcomes for one scored request.

        ``disagreements`` counts escalated contracts the GNN flagged as
        malicious whose pre-filter score sat below the raw at-target-recall
        threshold -- only the safety margin escalated them.  A rising count
        means the pre-filter is drifting toward benign-labelling malicious
        contracts; in healthy operation it stays at zero.
        """
        with self._lock:
            self.cascade_short_circuits += short_circuits
            self.cascade_escalations += escalations
            self.cascade_disagreements += disagreements

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started_monotonic

    def snapshot(
        self,
        cache_stats: CacheStats,
        cascade_enabled: bool = False,
        registry_busy_retries: Optional[int] = None,
        ingest: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """The ``GET /v1/metrics`` payload.

        The ``scans`` section uses the exact schema of
        :meth:`~repro.service.batch.BatchScanResult.stats_dict`, so offline
        batch runs and the live server feed the same dashboards.
        """
        with self._lock:
            requests = dict(self.requests)
            errors = self.errors
            contracts = self.contracts
            malicious = self.malicious
            batch_sizes = dict(self.batch_sizes)
            registry_hits = self.registry_hits
            registry_misses = self.registry_misses
            cascade = {
                "short_circuits": self.cascade_short_circuits,
                "escalations": self.cascade_escalations,
                "disagreements": self.cascade_disagreements,
            }
            latencies = {
                endpoint: list(window)
                for endpoint, window in self._latencies.items()
            }
        latency_ms = {}
        for endpoint, window in sorted(latencies.items()):
            latency_ms[endpoint] = {
                "count": len(window),
                "p50_ms": _percentile(window, 0.50) * 1e3,
                "p90_ms": _percentile(window, 0.90) * 1e3,
                "p99_ms": _percentile(window, 0.99) * 1e3,
            }
        scans = throughput_stats(
            contracts, malicious, self.uptime_seconds, cache_stats, batch_sizes
        )
        # mirror BatchScanResult.stats_dict's registry section so offline
        # and online paths keep one dashboard schema
        scans["registry"] = {"hits": registry_hits, "misses": registry_misses}
        if registry_busy_retries is not None:
            # WAL write contention over this server's registry handle: a
            # climbing counter means writers collide on the one database
            # file (or the write batch sizes need another look)
            scans["registry"]["busy_retries"] = registry_busy_retries
        if cascade_enabled:
            # same key as BatchScanResult.stats_dict's cascade section
            scans["cascade"] = cascade
        payload = {
            "uptime_seconds": self.uptime_seconds,
            "requests": {
                "total": sum(requests.values()),
                **requests,
            },
            "errors": errors,
            "latency": latency_ms,
            "scans": scans,
        }
        if ingest is not None:
            # queue depth / enqueue-dedupe / drop counters of the ingest
            # tier (see EventIngestService.snapshot)
            payload["ingest"] = ingest
        return payload


class _PendingInference:
    """One submitter's graphs waiting for the coalescer to score them."""

    __slots__ = ("graphs", "probabilities", "error", "ready")

    def __init__(self, graphs: List[ContractGraph]) -> None:
        self.graphs = graphs
        self.probabilities: Optional[List[float]] = None
        self.error: Optional[BaseException] = None
        self.ready = threading.Event()


class RequestCoalescer:
    """Micro-batches concurrent inference requests into single model calls.

    Handler threads call :meth:`submit` with already-lowered graphs and
    block; a single drain thread waits for the first submission, takes
    whatever else is already queued (up to ``max_batch`` graphs) and scores
    them with one batched ``score`` call.  Batches form while a model call
    runs, and an idle server never holds a request back.  The drain thread is
    not the model's only caller: under ``--ingest-queue`` the ingest drain
    thread scores its own batches at the same time, so ``score`` must be
    safe to call from several threads (inference reads the weights only,
    and the autograd grad mode is per thread).

    Shutdown is graceful: :meth:`close` rejects new submissions but drains
    everything already queued before the thread exits, so no accepted request
    is ever dropped.

    Args:
        score: ``(graphs, batch_size) -> rows`` of class probabilities, one
            row per graph; the server passes the fitted
            :meth:`~repro.gnn.training.GNNTrainer.predict_proba`.
        metrics: Sink for the batch-size histogram.
        max_batch: Graph budget per inference call.  A single oversized
            submission (a big ``/v1/scan-batch`` request) is still honoured;
            it is chunked internally at this size.
        max_queue: Bound on queued (not yet scored) submissions; a submit
            over the bound raises :class:`ServerOverloaded` (-> 503 +
            ``Retry-After``) instead of growing the queue without limit.
            None (the default) keeps the historical unbounded behavior.
    """

    def __init__(
        self,
        score: Callable[..., Sequence[Sequence[float]]],
        metrics: ServerMetrics,
        max_batch: int = 32,
        max_queue: Optional[int] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 (or None)")
        self._score_graphs = score
        self._metrics = metrics
        self.max_batch = max_batch
        self.max_queue = max_queue
        self._queue: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._closed = False
        #: queued by close() AFTER the closed flag flips, under the same
        #: lock submit() enqueues under -- FIFO ordering then guarantees the
        #: sentinel sits behind every accepted submission, so the drain
        #: thread cannot exit with work still queued
        self._shutdown_sentinel = object()
        self._thread = threading.Thread(
            target=self._drain_loop,
            name="scamdetect-coalescer",
            daemon=True,
        )

    def start(self) -> None:
        self._thread.start()

    def submit(self, graphs: Sequence[ContractGraph]) -> List[float]:
        """Score ``graphs``; blocks until the drain thread has answered.

        Returns the malicious-class probability per graph, in input order.

        Raises:
            ServerShuttingDown: If the coalescer is shutting down.
            ServerOverloaded: If ``max_queue`` submissions are already
                waiting (bounded-queue backpressure).
        """
        if not graphs:
            return []
        pending = _PendingInference(list(graphs))
        with self._lock:
            if self._closed:
                raise ServerShuttingDown("scan server is shutting down")
            if (
                self.max_queue is not None
                and self._queue.qsize() >= self.max_queue
            ):
                raise ServerOverloaded(
                    f"inference queue is full ({self.max_queue} waiting); "
                    f"retry later"
                )
            self._queue.put(pending)
        # obs site coalescer.wait: time this submitter spent blocked on the
        # drain thread (queueing behind the model call in progress + its own
        # model call)
        with trace("coalescer.wait", graphs=len(graphs)):
            pending.ready.wait()
        if pending.error is not None:
            raise pending.error
        assert pending.probabilities is not None
        return pending.probabilities

    def close(self) -> None:
        """Stop accepting work, drain the queue, then stop the thread."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(self._shutdown_sentinel)
        if self._thread.is_alive():
            self._thread.join()

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    # ------------------------------------------------------------------ #

    def _drain_loop(self) -> None:
        done = False
        while not done:
            first = self._queue.get()
            if first is self._shutdown_sentinel:
                return
            batch = [first]
            total = len(first.graphs)
            while total < self.max_batch:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is self._shutdown_sentinel:
                    done = True
                    break
                batch.append(extra)
                total += len(extra.graphs)
            self._score(batch, total)

    def _score(self, batch: List[_PendingInference], total: int) -> None:
        graphs = [graph for pending in batch for graph in pending.graphs]
        try:
            # obs root: the drain thread serves many requests per model
            # call, so the inference span is its own (infra) trace rather
            # than a child of any single request
            with trace(
                "gnn.infer", root=True, graphs=total, requests=len(batch)
            ):
                probabilities = self._score_graphs(
                    graphs, batch_size=self.max_batch
                )
        except BaseException as error:  # propagate to every blocked submitter
            for pending in batch:
                pending.error = error
                pending.ready.set()
            return
        # record the chunk sizes the model actually saw (predict_proba
        # splits anything beyond max_batch internally)
        full, remainder = divmod(total, self.max_batch)
        for _ in range(full):
            self._metrics.record_batch(self.max_batch)
        if remainder:
            self._metrics.record_batch(remainder)
        offset = 0
        for pending in batch:
            rows = probabilities[offset : offset + len(pending.graphs)]
            pending.probabilities = [float(row[1]) for row in rows]
            offset += len(pending.graphs)
            pending.ready.set()


# ---------------------------------------------------------------------- #
# HTTP plumbing


class _RequestError(Exception):
    """A client error carrying its HTTP status and machine-readable code."""

    def __init__(
        self, status: int, message: str, code: Optional[str] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = (
            code
            if code is not None
            else _STATUS_CODES.get(status, "error")
        )


def _error_envelope(
    code: str, message: str, retry_after: Optional[int] = None
) -> Dict[str, object]:
    """The uniform error body: ``{"error": {code, message, retry_after}}``.

    ``retry_after`` mirrors the ``Retry-After`` header (seconds) so clients
    that only look at the body still back off correctly; it is null for
    non-retryable errors.
    """
    return {
        "error": {
            "code": code,
            "message": message,
            "retry_after": retry_after,
        }
    }


def _parse_contract(
    entry: object,
    index: Optional[int] = None,
    default_platform: Optional[str] = None,
) -> Tuple[bytes, Optional[str], str]:
    """Decode one contract object from a request payload.

    Accepted shape: ``{"bytecode": "...", "encoding": "hex"|"base64",
    "platform": "evm"|"wasm", "sample_id": "..."}`` -- only ``bytecode`` is
    required.  Returns ``(raw bytes, platform or None, sample id)``.
    """
    where = f"contracts[{index}]" if index is not None else "request body"
    if not isinstance(entry, dict):
        raise _RequestError(400, f"{where} must be a JSON object")
    bytecode = entry.get("bytecode")
    if not isinstance(bytecode, str) or not bytecode:
        raise _RequestError(
            400,
            f"{where}: 'bytecode' must be a non-empty hex or base64 string",
        )
    encoding = entry.get("encoding", "hex")
    if encoding not in ("hex", "base64"):
        raise _RequestError(
            400,
            f"{where}: unsupported encoding {encoding!r} "
            f"(use 'hex' or 'base64')",
        )
    try:
        if encoding == "base64":
            raw = b64decode(bytecode, validate=True)
        else:
            raw = coerce_bytecode(bytecode)
    except (ValueError, TypeError) as error:
        raise _RequestError(
            400,
            f"{where}: bytecode does not decode as {encoding} ({error})",
        ) from error
    if not raw:
        raise _RequestError(400, f"{where}: bytecode decodes to zero bytes")
    platform = entry.get("platform", default_platform)
    if platform is not None and platform not in ("evm", "wasm"):
        raise _RequestError(400, f"{where}: unknown platform {platform!r}")
    sample_id = entry.get("sample_id")
    if sample_id is None:
        sample_id = "contract" if index is None else f"contract-{index:04d}"
    elif not isinstance(sample_id, str):
        raise _RequestError(400, f"{where}: 'sample_id' must be a string")
    return raw, platform, sample_id


class _ScanHTTPRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning :class:`ScanServer`."""

    server_version = "scamdetect"
    # HTTP/1.0: one request per connection, so pool workers are never pinned
    # by an idle keep-alive peer
    protocol_version = "HTTP/1.0"
    # per-connection socket timeout: a peer that stalls mid-request (slow
    # headers, missing body bytes) frees its pool worker instead of pinning
    # it forever -- and shutdown's worker join can always complete
    timeout = 30.0

    @property
    def scan_server(self) -> "ScanServer":
        return self.server.scan_server  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # access logging would swamp the smoke tests; metrics cover it

    def _route(self, path: str) -> Optional[str]:
        """Strip the version prefix: ``/v1/scan`` -> ``/scan``; None for an
        unversioned path, which answers 404."""
        if path == API_PREFIX or path.startswith(API_PREFIX + "/"):
            return path[len(API_PREFIX):] or "/"
        return None

    def _send_json(
        self,
        status: int,
        payload: Dict[str, object],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_error_json(
        self,
        status: int,
        message: str,
        code: Optional[str] = None,
        retry_after: Optional[int] = None,
    ) -> None:
        headers = {}
        if retry_after is not None:
            headers["Retry-After"] = str(retry_after)
        self._send_json(
            status,
            _error_envelope(
                code or _STATUS_CODES.get(status, "error"),
                message,
                retry_after,
            ),
            headers=headers,
        )

    def _retry_after_seconds(self) -> int:
        return max(1, int(round(self.scan_server.retry_after_s)))

    def _read_sized_body(self, missing_length: str) -> bytes:
        """The request body as announced by ``Content-Length``; a missing
        header answers 411 with ``missing_length`` as the message."""
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise _RequestError(411, missing_length)
        try:
            length = int(length_header)
        except ValueError:
            raise _RequestError(400, "invalid Content-Length") from None
        if length < 0:
            # a negative length would turn rfile.read() into read-to-EOF,
            # pinning a pool worker until the peer hangs up
            raise _RequestError(400, "invalid Content-Length")
        if length > MAX_BODY_BYTES:
            raise _RequestError(
                413, f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        return self.rfile.read(length)

    def _read_json(self) -> object:
        body = self._read_sized_body("Content-Length header is required")
        try:
            return json.loads(body)
        except ValueError as error:
            raise _RequestError(
                400, f"request body is not valid JSON ({error})"
            ) from error

    def _read_body_bytes(self) -> bytes:
        """Raw request body; honors ``Transfer-Encoding: chunked`` so
        streaming producers can POST without knowing the length upfront."""
        encoding = (self.headers.get("Transfer-Encoding") or "").lower()
        if "chunked" in encoding:
            return self._read_chunked_body()
        return self._read_sized_body(
            "Content-Length header is required "
            "(or use Transfer-Encoding: chunked)"
        )

    def _read_chunked_body(self) -> bytes:
        blocks = []
        total = 0
        while True:
            size_line = self.rfile.readline(80)
            if not size_line:
                raise _RequestError(400, "truncated chunked body")
            try:
                size = int(size_line.split(b";", 1)[0].strip() or b"x", 16)
            except ValueError:
                raise _RequestError(400, "invalid chunk size") from None
            if size == 0:
                # consume optional trailers up to the terminating blank line
                while True:
                    line = self.rfile.readline(1024)
                    if line in (b"\r\n", b"\n", b""):
                        break
                return b"".join(blocks)
            total += size
            if total > MAX_BODY_BYTES:
                raise _RequestError(
                    413, f"request body exceeds {MAX_BODY_BYTES} bytes"
                )
            chunk = self.rfile.read(size)
            if len(chunk) != size:
                raise _RequestError(400, "truncated chunk")
            blocks.append(chunk)
            self.rfile.read(2)  # the CRLF closing each chunk

    # -------------------------------------------------------------- #

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler name
        server = self.scan_server
        parsed = urllib.parse.urlsplit(self.path)
        path = self._route(parsed.path)
        if path == "/healthz":
            server.metrics.record_request("healthz")
            self._send_json(200, server.health())
        elif path == "/metrics":
            server.metrics.record_request("metrics")
            query = urllib.parse.parse_qs(parsed.query)
            formats = query.get("format", ["json"])
            snapshot = server.metrics.snapshot(
                server.cache_stats,
                cascade_enabled=server.detector.cascade,
                registry_busy_retries=server.registry_busy_retries(),
                ingest=(
                    server.ingest.snapshot()
                    if server.ingest is not None
                    else None
                ),
            )
            if formats[-1] == "prometheus":
                self._send_text(
                    200,
                    render_prometheus(
                        snapshot,
                        tracing_armed=tracing_armed(),
                        fault_injection_armed=active_injector() is not None,
                    ),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif formats[-1] == "json":
                self._send_json(200, snapshot)
            else:
                server.metrics.record_error()
                self._send_error_json(
                    400,
                    f"unknown metrics format {formats[-1]!r} "
                    f"(use 'json' or 'prometheus')",
                    code="bad_request",
                )
        elif path is not None and (
            path == "/verdicts" or path.startswith("/verdicts/")
        ):
            server.metrics.record_request("verdicts")
            try:
                if path == "/verdicts":
                    payload = server.verdicts_index(
                        urllib.parse.parse_qs(parsed.query)
                    )
                else:
                    payload = server.verdicts_detail(
                        path[len("/verdicts/"):]
                    )
                self._send_json(200, payload)
            except _RequestError as error:
                server.metrics.record_error()
                self._send_error_json(error.status, str(error), code=error.code)
        else:
            server.metrics.record_error()
            self._send_error_json(
                404, f"unknown path {self.path!r}", code="not_found"
            )

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler name
        server = self.scan_server
        path = self._route(self.path)
        routes = {
            "/scan": ("scan", self._handle_scan),
            "/scan-batch": ("scan_batch", self._handle_scan_batch),
            "/ingest": ("ingest", self._handle_ingest),
        }
        if path not in routes:
            server.metrics.record_error()
            self._send_error_json(
                404, f"unknown path {self.path!r}", code="not_found"
            )
            return
        endpoint, handler = routes[path]
        server.metrics.record_request(endpoint)
        started = time.perf_counter()
        try:
            # obs root: one served request = one trace; every span the
            # handler touches (lowering, cache, coalescer wait, registry
            # writes) nests under it via the thread-local context
            with trace("server.request", root=True, endpoint=endpoint):
                # chaos site: delay = slow handler; exception-kind faults
                # land in the InjectedFault arm below as a retryable 503
                fault_point("server.handler")
                status, payload = handler()
        except _RequestError as error:
            server.metrics.record_error()
            self._send_error_json(error.status, str(error), code=error.code)
            return
        except ServerShuttingDown as error:
            server.metrics.record_error()
            self._send_error_json(503, str(error), code="shutting_down")
            return
        except ServerOverloaded as error:
            server.metrics.record_error()
            self._send_error_json(
                503,
                str(error),
                code="overloaded",
                retry_after=self._retry_after_seconds(),
            )
            return
        except InjectedFault as error:
            # an injected transient server fault is answered like overload:
            # 503 + Retry-After, so well-behaved clients retry
            server.metrics.record_error()
            self._send_error_json(
                503,
                f"transient fault: {error}",
                code="transient_fault",
                retry_after=self._retry_after_seconds(),
            )
            return
        except ValueError as error:
            # bytecode that decoded but failed to parse/lower is a client
            # problem, not a server fault
            server.metrics.record_error()
            self._send_error_json(
                400,
                f"bytecode rejected: {error}",
                code="bad_request",
            )
            return
        except Exception as error:  # noqa: BLE001 - last-resort 500
            server.metrics.record_error()
            self._send_error_json(
                500,
                f"internal error: {error}",
                code="internal",
            )
            return
        server.metrics.record_latency(endpoint, time.perf_counter() - started)
        self._send_json(status, payload)

    # -------------------------------------------------------------- #

    def _handle_scan(self) -> Tuple[int, Dict[str, object]]:
        server = self.scan_server
        raw, platform, sample_id = _parse_contract(self._read_json())
        report = server.scan_one(raw, platform, sample_id)
        return 200, report.to_dict()

    def _handle_ingest(self) -> Tuple[int, Dict[str, object]]:
        """``POST /v1/ingest``: push bytecode into the ingest queue.

        Accepts one contract object, a ``{"contracts": [...]}`` batch, or
        NDJSON (one contract object per line; ``Content-Type:
        application/x-ndjson``), optionally chunk-encoded.  Answers 202
        with accepted/deduped counts -- verdicts land asynchronously in
        the registry.  A full queue turns into 503 + ``Retry-After``
        (nothing accepted) or a partial 202 with a ``rejected`` count.
        """
        server = self.scan_server
        ingest = server.ingest
        if ingest is None:
            raise _RequestError(
                404,
                "ingest is not enabled; start the server with "
                "--ingest-queue N (and a registry)",
                code="ingest_disabled",
            )
        body = self._read_body_bytes()
        content_type = (self.headers.get("Content-Type") or "").lower()
        if "ndjson" in content_type:
            entries: List[object] = []
            for number, line in enumerate(body.splitlines(), start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entries.append(json.loads(line))
                except ValueError as error:
                    raise _RequestError(
                        400,
                        f"ingest line {number} is not valid JSON ({error})",
                    ) from error
        else:
            try:
                payload = json.loads(body)
            except ValueError as error:
                raise _RequestError(
                    400, f"request body is not valid JSON ({error})"
                ) from error
            if isinstance(payload, dict) and isinstance(
                payload.get("contracts"), list
            ):
                entries = payload["contracts"]
            else:
                entries = [payload]
        if not entries:
            raise _RequestError(400, "ingest request carries no contracts")
        contracts = [
            _parse_contract(entry, index=index)
            for index, entry in enumerate(entries)
        ]
        accepted = deduped = rejected = 0
        retry_after: Optional[int] = None
        for raw, platform, sample_id in contracts:
            try:
                outcome = ingest.submit_bytes(
                    raw, sample_id=sample_id, platform=platform,
                    source="http",
                )
            except IngestQueueFull as error:
                if accepted + deduped == 0:
                    # nothing landed: plain backpressure, retry the lot
                    raise ServerOverloaded(str(error)) from error
                rejected = len(contracts) - accepted - deduped
                retry_after = self._retry_after_seconds()
                break
            if outcome == "deduped":
                deduped += 1
            else:
                accepted += 1
        response: Dict[str, object] = {
            "accepted": accepted,
            "deduped": deduped,
            "rejected": rejected,
            "queue_depth": ingest.queue.depth(),
        }
        if retry_after is not None:
            response["retry_after"] = retry_after
        return 202, response

    def _handle_scan_batch(self) -> Tuple[int, Dict[str, object]]:
        server = self.scan_server
        payload = self._read_json()
        if not isinstance(payload, dict) or not isinstance(
            payload.get("contracts"), list
        ):
            raise _RequestError(
                400,
                "request body must be a JSON object with a 'contracts' array",
            )
        default_platform = payload.get("platform")
        if default_platform is not None and default_platform not in (
            "evm",
            "wasm",
        ):
            raise _RequestError(400, f"unknown platform {default_platform!r}")
        contracts = [
            _parse_contract(
                entry, index=index, default_platform=default_platform
            )
            for index, entry in enumerate(payload["contracts"])
        ]
        started = time.perf_counter()
        reports = server.scan_group(contracts)
        elapsed = time.perf_counter() - started
        malicious = sum(1 for report in reports if report.is_malicious)
        return 200, {
            "reports": [report.to_dict() for report in reports],
            "contracts": len(reports),
            "malicious": malicious,
            "benign": len(reports) - malicious,
            "elapsed_seconds": elapsed,
        }


class _ThreadPoolHTTPServer(HTTPServer):
    """An :class:`HTTPServer` handling connections on a fixed worker pool.

    The stdlib ``ThreadingHTTPServer`` spawns an unbounded thread per
    connection; a fixed pool keeps the ``--workers`` knob honest and bounds
    the requests in flight.  Accepted connections queue up; on shutdown the
    sentinel values are enqueued *behind* any pending connections, so every
    accepted request is answered before the workers exit.
    """

    daemon_threads = True
    allow_reuse_address = True
    # the stdlib default listen backlog of 5 resets connections under the
    # very bursts the coalescer exists for (64 concurrent clients is the
    # acceptance scenario); size it like a daemon, not a toy
    request_queue_size = 128

    def __init__(
        self, address, handler, scan_server: "ScanServer", workers: int
    ) -> None:
        super().__init__(address, handler)
        self.scan_server = scan_server
        self._tasks: queue.Queue = queue.Queue()
        self._workers = [
            threading.Thread(
                target=self._work,
                name=f"scamdetect-http-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]

    def start_workers(self) -> None:
        for worker in self._workers:
            worker.start()

    def stop_workers(self) -> None:
        for _ in self._workers:
            self._tasks.put(None)
        for worker in self._workers:
            if worker.is_alive():
                worker.join()

    def process_request(self, request, client_address) -> None:
        self._tasks.put((request, client_address))

    def _work(self) -> None:
        while True:
            task = self._tasks.get()
            if task is None:
                return
            request, client_address = task
            try:
                self.finish_request(request, client_address)
            except Exception:  # noqa: BLE001 - a broken peer must not kill
                pass  # the worker; the error surfaced to the peer already
            finally:
                self.shutdown_request(request)


class ScanServer:
    """The long-running scan daemon.

    Binds immediately (so a bad port fails at construction, not at
    ``start()``), serves on a fixed pool of handler threads, and scores all
    traffic through one :class:`RequestCoalescer`, one shared
    :class:`~repro.service.cache.GraphCache` and one pipeline.  A failed
    construction leaves the detector untouched: the arguments are checked
    and the port bound before the cache is attached.

    Args:
        detector: A trained detector; its threshold/explain settings apply
            to every verdict (leave both at the defaults for verdicts
            byte-identical to a default ``ScamDetector.scan``).
        host: Bind address.
        port: TCP port; 0 picks a free port (see :attr:`port`).
        workers: Handler threads, i.e. requests served at once.  Lowering
            holds the GIL, so more threads overlap waits (I/O, the
            coalescer, the registry), not CFG recovery.
        max_batch: Coalescer graph budget per inference call.
        max_queue: Bound on queued inference submissions; requests over the
            bound get 503 + ``Retry-After`` (backpressure) instead of
            queueing without limit.  None = unbounded (the default).
        retry_after_s: The ``Retry-After`` value sent with overload and
            injected-transient-fault 503s.
        cache: Optional :class:`GraphCache`; one scoped to the detector's
            config is created when omitted, so repeated bytecode is lowered
            once across all clients.
        registry: Optional persistent
            :class:`~repro.registry.store.ScanRegistry`.  When attached, every
            served verdict is recorded durably, contracts the registry
            already knows are answered without lowering or inference, and
            ``GET /v1/verdicts`` (+ ``/v1/verdicts/<sha256>``) serve
            keyset-paginated reads over the store.  Must be scoped to the
            detector config's graph fingerprint.

    Raises:
        OSError: If the address cannot be bound.
        RuntimeError: If the detector is not trained.
    """

    def __init__(
        self,
        detector: ScamDetector,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        workers: int = 8,
        max_batch: int = 32,
        cache: Optional[GraphCache] = None,
        registry=None,
        max_queue: Optional[int] = None,
        retry_after_s: float = 1.0,
        ingest_queue: Optional[int] = None,
    ) -> None:
        if not detector.is_trained:
            raise RuntimeError("ScanServer requires a trained detector")
        # a cascade-enabled detector without a trained head must fail at
        # construction, not on the first served request
        detector.cascade_head()
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if ingest_queue is not None:
            if ingest_queue < 1:
                raise ValueError("ingest_queue must be >= 1")
            if registry is None:
                raise ValueError(
                    "ingest_queue requires an attached registry: "
                    "POST /v1/ingest records its verdicts durably"
                )
        # built first: it rejects a registry scoped to another fingerprint
        # before anything below touches the detector
        self.engine = ScanEngine(
            detector,
            registry=registry,
            infer=lambda graphs: self.coalescer.submit(graphs),
        )
        self.registry = registry
        self.detector = detector
        self.workers = workers
        self.retry_after_s = retry_after_s
        self.metrics = ServerMetrics()
        self.coalescer = RequestCoalescer(
            detector.pipeline._trainer.predict_proba,
            self.metrics,
            max_batch=max_batch,
            max_queue=max_queue,
        )
        self._httpd = _ThreadPoolHTTPServer(
            (host, port), _ScanHTTPRequestHandler, self, workers
        )
        if cache is None:
            cache = GraphCache.for_config(detector.config)
        self.cache = cache
        # remember what the pipeline had so shutdown() leaves the caller's
        # detector exactly as it was found
        self._previous_cache = detector.pipeline.graph_cache
        self.ingest = None
        try:
            detector.pipeline.set_graph_cache(cache)
            if ingest_queue is not None:
                # deferred import: repro.ingest.service imports the batch
                # module from this package
                from repro.ingest.service import EventIngestService

                self.ingest = EventIngestService(
                    detector,
                    registry,
                    roots=(),
                    queue_capacity=ingest_queue,
                    batch_size=max_batch,
                    cache=cache,
                    retry_after_s=retry_after_s,
                )
        except BaseException:
            # a cache for another fingerprint, a failing ingest tier: hand
            # the detector back as found and release the port
            self._restore_cache()
            self._httpd.server_close()
            raise
        self._accept_thread: Optional[threading.Thread] = None
        self._stop_requested = threading.Event()
        self._started = False
        self._stopped = False

    # -------------------------------------------------------------- #

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def cache_stats(self) -> CacheStats:
        return self.cache.stats if self.cache is not None else CacheStats()

    def registry_busy_retries(self) -> Optional[int]:
        """WAL busy-retry count of the attached registry (None without
        one) -- fleet write-contention telemetry for ``/v1/metrics``."""
        if self.registry is None:
            return None
        return int(self.registry.busy_retries)

    def health(self) -> Dict[str, object]:
        from repro import __version__

        uptime = self.metrics.uptime_seconds
        payload = {
            "status": "ok",
            "api_version": API_PREFIX.lstrip("/"),
            "version": __version__,
            "model": self.detector.pipeline.describe(),
            "uptime_seconds": uptime,
            # fleet probes compare uptime_s (a cold restart resets it) and
            # the armed flags (a long-lived node left armed is degraded
            # tooling, not degraded serving) against expectations
            "uptime_s": uptime,
            "tracing": "armed" if tracing_armed() else "disarmed",
            "fault_injection": (
                "armed" if active_injector() is not None else "disarmed"
            ),
            "workers": self.workers,
            "max_batch": self.coalescer.max_batch,
            "queue_depth": self.coalescer.queue_depth,
        }
        if self.detector.cascade:
            payload["cascade"] = {
                "margin": self.detector.effective_cascade_margin()
            }
        if self.registry is not None:
            payload["registry"] = self.registry.counts()
        if self.ingest is not None:
            queue = self.ingest.queue.snapshot()
            payload["ingest"] = {
                "backend": self.ingest.backend,
                "queue_depth": queue["depth"],
                "capacity": queue["capacity"],
                "enqueue_deduped": queue["deduped"],
                "dropped": queue["dropped"],
            }
        return payload

    # -------------------------------------------------------------- #
    # scoring entry points used by the HTTP handlers (and tests)

    def scan_one(self, raw: bytes, platform: Optional[str], sample_id: str):
        """Report one contract through the scan engine (registry, tier 0,
        lowering, coalesced inference, report, registry record)."""
        return self._scan([raw], [sample_id], [platform])[0]

    def scan_group(
        self, contracts: Sequence[Tuple[bytes, Optional[str], str]]
    ):
        """Score one ``/v1/scan-batch`` request of ``(raw, platform,
        sample_id)`` contracts as a single engine run: one registry query,
        and one coalescer submission for the escalated contracts."""
        return self._scan(
            [raw for raw, _, _ in contracts],
            [sample_id for _, _, sample_id in contracts],
            [platform for _, platform, _ in contracts],
        )

    def _scan(
        self,
        raw_codes: List[bytes],
        ids: List[str],
        platforms: List[Optional[str]],
    ) -> List[VerdictReport]:
        outcome = self.engine.run(raw_codes, ids, platforms)
        reports = outcome.reports
        if self.registry is not None:
            hits = outcome.registry_hits
            self.metrics.record_registry(True, hits)
            self.metrics.record_registry(False, len(reports) - hits)
        self.metrics.record_verdicts(
            len(reports), sum(1 for report in reports if report.is_malicious)
        )
        if outcome.cascade_stats is not None:
            self.metrics.record_cascade(**outcome.cascade_stats)
        return reports

    def verdicts_index(
        self, params: Dict[str, List[str]]
    ) -> Dict[str, object]:
        """``GET /v1/verdicts`` -- keyset-paginated registry rows.

        Ordering is newest-first (``last_scanned_at DESC, sha256``); the
        response envelope carries ``next_cursor`` (null on the final page),
        and passing it back as ``cursor=`` resumes exactly after the last
        returned row -- stable under concurrent writers, unlike an OFFSET.
        ``limit`` is accepted as a legacy alias for ``page_size``.
        """
        registry = self._require_registry()
        from repro.registry.store import RegistryError

        def single(name: str) -> Optional[str]:
            values = params.pop(name, None)
            if values is None:
                return None
            if len(values) != 1:
                raise _RequestError(400, f"{name} given more than once")
            return values[0]

        def number(name: str) -> Optional[float]:
            value = single(name)
            if value is None:
                return None
            try:
                return float(value)
            except ValueError:
                raise _RequestError(
                    400, f"{name} must be a number, not {value!r}"
                ) from None

        query = {
            "verdict": single("verdict"),
            "platform": single("platform"),
            "path_glob": single("path_glob"),
            "tag": single("tag"),
            "sha256_prefix": single("sha256_prefix"),
            "min_score": number("min_score"),
            "max_score": number("max_score"),
            "since": number("since"),
            "until": number("until"),
        }
        cursor = single("cursor")
        page_size = number("page_size")
        if page_size is None:
            # legacy alias from the offset-era listing; same meaning now
            page_size = number("limit")
        page_size = (
            VERDICTS_PAGE_SIZE if page_size is None else int(page_size)
        )
        if not 1 <= page_size <= VERDICTS_MAX_PAGE_SIZE:
            raise _RequestError(
                400,
                f"page_size must be in [1, {VERDICTS_MAX_PAGE_SIZE}], "
                f"not {page_size}",
            )
        if params:
            raise _RequestError(
                400, f"unknown query parameters {sorted(params)}"
            )
        try:
            rows, next_cursor = registry.query_page(
                cursor=cursor, page_size=page_size, **query
            )
        except RegistryError as error:
            code = (
                "invalid_cursor"
                if "cursor" in str(error)
                else "bad_request"
            )
            raise _RequestError(400, str(error), code=code) from error
        return {
            "count": len(rows),
            "verdicts": [row.to_dict() for row in rows],
            "next_cursor": next_cursor,
        }

    def verdicts_detail(self, sha256: str) -> Dict[str, object]:
        """``GET /v1/verdicts/<sha256>`` -- one row plus its scan history."""
        registry = self._require_registry()
        row = registry.get(sha256)
        if row is None:
            raise _RequestError(
                404,
                f"no verdict recorded for {sha256!r} under the current "
                f"graph fingerprint",
            )
        payload = row.to_dict()
        payload["history"] = registry.history(sha256)
        return payload

    def _require_registry(self):
        if self.registry is None:
            raise _RequestError(
                503,
                "no verdict registry attached; start the server with "
                "registry=... (CLI: scamdetect serve --registry PATH)",
                code="no_registry",
            )
        return self.registry

    # -------------------------------------------------------------- #
    # lifecycle

    def start(self) -> "ScanServer":
        """Start the coalescer, the worker pool and the accept loop."""
        if self._started:
            raise RuntimeError("ScanServer.start called twice")
        self._started = True
        self.coalescer.start()
        if self.ingest is not None:
            self.ingest.start()
        self._httpd.start_workers()
        self._accept_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="scamdetect-accept",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Block the calling thread until :meth:`shutdown` (or a signal)."""
        if not self._started:
            self.start()
        while not self._stop_requested.wait(0.2):
            pass

    def shutdown(self) -> None:
        """Graceful stop: accept no new connections, answer everything
        already accepted, drain the inference queue, release the socket,
        and hand the detector back with its original cache."""
        if not self._started or self._stopped:
            self._stopped = True
            self._stop_requested.set()
            self._httpd.server_close()
            if self.ingest is not None:
                self.ingest.close(drain=False)
            self._restore_cache()
            return
        self._stopped = True
        self._stop_requested.set()
        self._httpd.shutdown()  # stops the accept loop
        if self._accept_thread is not None:
            self._accept_thread.join()
        self._httpd.stop_workers()  # drains accepted connections
        if self.ingest is not None:
            # after the worker pool: no more pushes can land; drain the
            # queued backlog so a SIGTERM never strands admitted work
            self.ingest.close(drain=True)
        self.coalescer.close()  # drains queued inference work
        self._httpd.server_close()
        self._restore_cache()

    def _restore_cache(self) -> None:
        # direct assignment like ScamDetector.scan_many's restore: the
        # previous cache (or None) was attached to this very pipeline, so it
        # needs no re-validation
        self.detector.pipeline.graph_cache = self._previous_cache

    def __enter__(self) -> "ScanServer":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.shutdown()

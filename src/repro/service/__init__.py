"""Scanning service layer: batch offline scans and the live scan server.

This package turns the one-shot :class:`~repro.core.detector.ScamDetector`
into a service that can sustain repeated, high-volume scanning workloads:

* :mod:`repro.service.cache` -- a content-addressed graph cache keyed by
  SHA-256 of the bytecode plus the config's graph fingerprint, with an
  in-memory LRU tier and an optional on-disk ``.npz`` tier.
* :mod:`repro.service.batch` -- :class:`BatchScanner`, which lowers a corpus
  or a directory of bytecode files and feeds the resulting graphs to the GNN
  in batches.
* :mod:`repro.service.server` -- :class:`ScanServer`, a long-running HTTP
  daemon whose :class:`~repro.service.server.RequestCoalescer` micro-batches
  concurrent scan requests into single block-diagonal inference calls, and
  :class:`ServerClient` (defined here), the stdlib client used by the tests,
  the examples and the CI smoke test.  The HTTP API is versioned under
  ``/v1/``; the client targets the versioned paths and surfaces the
  server's error envelope as typed :class:`ServerClientError` values.
* :mod:`repro.service.sharded` -- :class:`ShardedScanner`, a multi-process
  engine that partitions scans by content hash across pipeline replicas
  (one per worker process), shares the warm disk cache tier between shards
  via atomic writes, and recovers from killed workers by requeueing their
  unacknowledged chunks.  ``BatchScanner(shards=N)`` routes through it.

The service layer plugs into the existing stack through the pipeline's
``graph_cache`` hook, so training, evaluation and single-contract scans all
benefit from warm caches without any API change.
"""

import json as _json
import urllib.error as _urllib_error
import urllib.parse as _urllib_parse
import urllib.request as _urllib_request
from base64 import b64encode as _b64encode
from typing import Iterable, Optional, Sequence, Union

from repro.core.detector import coerce_bytecode as _coerce_bytecode
from repro.resilience.retry import RetryPolicy as _RetryPolicy
from repro.service.batch import BatchScanner, BatchScanResult, throughput_stats
from repro.service.cache import CacheStats, GraphCache
from repro.service.server import (
    API_PREFIX,
    DEFAULT_PORT,
    RequestCoalescer,
    ScanServer,
    ServerMetrics,
    ServerOverloaded,
    ServerShuttingDown,
)
from repro.service.sharded import ShardedScanner, ShardError, shard_for_bytecode

__all__ = [
    "GraphCache",
    "CacheStats",
    "BatchScanner",
    "BatchScanResult",
    "throughput_stats",
    "ScanServer",
    "RequestCoalescer",
    "ServerMetrics",
    "ServerOverloaded",
    "ServerShuttingDown",
    "ServerClient",
    "ServerClientError",
    "ShardedScanner",
    "ShardError",
    "shard_for_bytecode",
    "API_PREFIX",
    "DEFAULT_PORT",
]

#: Default client-side retry: connection errors and 503s are retried a
#: couple of times under a short deadline, so one transient server fault
#: (an injected one included) never surfaces to the caller.
DEFAULT_CLIENT_RETRY = _RetryPolicy(
    max_attempts=3,
    base_delay_s=0.05,
    max_delay_s=1.0,
    deadline_s=5.0,
)


class ServerClientError(RuntimeError):
    """An HTTP-level error returned by the scan server.

    Attributes:
        status: HTTP status code (0 when the server was unreachable).
        code: The machine-readable slug from the server's error envelope
            (``"overloaded"``, ``"no_registry"``, ...); ``"unreachable"``
            for connection failures, ``"error"`` when the server sent no
            recognizable envelope.
        retry_after: The backoff hint of a 503 in seconds, parsed from the
            ``Retry-After`` header or the envelope's ``retry_after`` field
            (None when absent) -- the client's retry loop honors it.
    """

    def __init__(
        self,
        status: int,
        message: str,
        retry_after: Optional[float] = None,
        code: str = "error",
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.retry_after = retry_after


class ServerClient:
    """Minimal stdlib client for :class:`~repro.service.server.ScanServer`.

    Used by the test suite, ``examples/scan_server_client.py`` and the CI
    smoke test; application code can use it too, or speak the (plain JSON
    over HTTP) protocol directly -- see the curl examples in the README.
    All requests target the versioned ``/v1/`` paths.

    Args:
        host: Server host.
        port: Server port (``ScanServer.port`` tells the bound one).
        timeout: Per-request socket timeout in seconds.
        retry: Retry policy for transient failures -- connection errors
            (status 0) and 503s, the two shapes a briefly-unavailable or
            overloaded server produces.  A 503's ``Retry-After`` header
            overrides the policy's computed backoff.  Pass
            ``RetryPolicy(max_attempts=1)`` to disable retries.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: float = 30.0,
        retry: Optional[_RetryPolicy] = None,
    ) -> None:
        self.base_url = f"http://{host}:{port}"
        self.timeout = timeout
        self.retry = retry if retry is not None else DEFAULT_CLIENT_RETRY
        #: transient failures retried away over this client's lifetime
        self.retries = 0

    # -------------------------------------------------------------- #

    @staticmethod
    def _is_transient(error: BaseException) -> bool:
        return isinstance(error, ServerClientError) and error.status in (
            0,
            503,
        )

    @staticmethod
    def _mandated_wait(error: BaseException) -> Optional[float]:
        if isinstance(error, ServerClientError):
            return error.retry_after
        return None

    def _count_retry(
        self, attempt: int, error: BaseException, delay: float
    ) -> None:
        self.retries += 1

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        body: Optional[bytes] = None,
        content_type: str = "application/json",
    ) -> dict:
        return self.retry.call(
            lambda: self._request_once(
                method, path, payload, body=body, content_type=content_type
            ),
            retry_on=(ServerClientError,),
            should_retry=self._is_transient,
            retry_after=self._mandated_wait,
            on_retry=self._count_retry,
        )

    def _request_once(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        body: Optional[bytes] = None,
        content_type: str = "application/json",
    ) -> dict:
        data = body
        if data is None:
            data = (
                _json.dumps(payload).encode("utf-8")
                if payload is not None
                else None
            )
        request = _urllib_request.Request(
            self.base_url + API_PREFIX + path,
            data=data,
            method=method,
            headers={"Content-Type": content_type},
        )
        try:
            with _urllib_request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return _json.loads(response.read().decode("utf-8"))
        except _urllib_error.HTTPError as error:
            body = error.read().decode("utf-8", errors="replace")
            message, code, envelope_wait = self._parse_error(body)
            header = error.headers.get("Retry-After")
            try:
                retry_after = float(header) if header is not None else None
            except ValueError:
                retry_after = None
            if retry_after is None:
                retry_after = envelope_wait
            raise ServerClientError(
                error.code,
                message,
                retry_after=retry_after,
                code=code,
            ) from error
        except _urllib_error.URLError as error:
            raise ServerClientError(
                0,
                f"scan server unreachable at {self.base_url}: "
                f"{error.reason}",
                code="unreachable",
            ) from error

    @staticmethod
    def _parse_error(body: str):
        """Decode the ``{"error": {code, message, retry_after}}`` envelope.

        Returns ``(message, code, retry_after)``; a legacy flat
        ``{"error": "..."}`` body or plain text degrades to the raw string
        with code ``"error"``.
        """
        try:
            envelope = _json.loads(body).get("error", body)
        except (ValueError, AttributeError):
            return body, "error", None
        if isinstance(envelope, dict):
            message = str(envelope.get("message", body))
            code = str(envelope.get("code", "error"))
            wait = envelope.get("retry_after")
            try:
                retry_after = float(wait) if wait is not None else None
            except (TypeError, ValueError):
                retry_after = None
            return message, code, retry_after
        return str(envelope), "error", None

    @staticmethod
    def _encode(code: Union[bytes, bytearray, str], encoding: str) -> str:
        """Encode ``code`` for transport under ``encoding``.

        A ``str`` input always means *hex bytecode text* (``0x`` prefix and
        whitespace allowed); it is normalized to raw bytes first so that
        requesting base64 transport re-encodes the same bytes instead of
        shipping hex digits that the server would misread as base64.
        """
        raw = _coerce_bytecode(code) if isinstance(code, str) else bytes(code)
        if encoding == "base64":
            return _b64encode(raw).decode("ascii")
        return raw.hex()

    # -------------------------------------------------------------- #

    def healthz(self) -> dict:
        """``GET /v1/healthz`` -- raises :class:`ServerClientError` if
        down."""
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        """``GET /v1/metrics`` -- the server's live counters."""
        return self._request("GET", "/metrics")

    def verdicts(
        self,
        cursor: Optional[str] = None,
        page_size: Optional[int] = None,
        **filters,
    ) -> dict:
        """``GET /v1/verdicts`` over the server's persistent registry.

        Keyword filters mirror
        :meth:`repro.registry.store.ScanRegistry.query`: ``verdict``,
        ``min_score``, ``max_score``, ``platform``, ``since``, ``until``,
        ``path_glob``, ``tag``, ``sha256_prefix``.  Pagination is
        keyset-based: the response's ``next_cursor`` (null on the last
        page) feeds the next call's ``cursor=``.  Raises
        :class:`ServerClientError` (503, code ``no_registry``) when no
        registry is attached.
        """
        query = {
            key: str(value)
            for key, value in filters.items()
            if value is not None
        }
        if cursor is not None:
            query["cursor"] = cursor
        if page_size is not None:
            query["page_size"] = str(page_size)
        path = "/verdicts"
        if query:
            path += "?" + _urllib_parse.urlencode(query)
        return self._request("GET", path)

    def verdicts_all(self, page_size: int = 200, **filters) -> list:
        """Every matching verdict row, walking ``next_cursor`` to the end."""
        rows: list = []
        cursor: Optional[str] = None
        while True:
            page = self.verdicts(
                cursor=cursor, page_size=page_size, **filters
            )
            rows.extend(page["verdicts"])
            cursor = page.get("next_cursor")
            if not cursor:
                return rows

    def verdict(self, sha256: str) -> dict:
        """``GET /v1/verdicts/<sha256>`` -- one stored verdict + history."""
        return self._request("GET", f"/verdicts/{sha256}")

    def scan(
        self,
        code: Union[bytes, bytearray, str],
        platform: Optional[str] = None,
        sample_id: str = "contract",
        encoding: str = "hex",
    ) -> dict:
        """``POST /v1/scan`` one contract; returns the verdict report dict.

        ``code`` may be raw bytes (encoded for transport per ``encoding``)
        or an already-hex string.
        """
        payload = {
            "bytecode": self._encode(code, encoding),
            "encoding": encoding,
            "sample_id": sample_id,
        }
        if platform is not None:
            payload["platform"] = platform
        return self._request("POST", "/scan", payload)

    def scan_batch(
        self,
        codes: Iterable[Union[bytes, bytearray, str]],
        platform: Optional[str] = None,
        sample_ids: Optional[Sequence[str]] = None,
        encoding: str = "hex",
    ) -> dict:
        """``POST /v1/scan-batch`` many contracts in one request."""
        codes = list(codes)
        if sample_ids is not None and len(sample_ids) != len(codes):
            raise ValueError(
                f"sample_ids length ({len(sample_ids)}) must "
                f"match codes length ({len(codes)})"
            )
        contracts = []
        for index, code in enumerate(codes):
            entry = {
                "bytecode": self._encode(code, encoding),
                "encoding": encoding,
            }
            if sample_ids is not None:
                entry["sample_id"] = sample_ids[index]
            contracts.append(entry)
        payload: dict = {"contracts": contracts}
        if platform is not None:
            payload["platform"] = platform
        return self._request("POST", "/scan-batch", payload)

    def ingest(
        self,
        codes: Iterable[Union[bytes, bytearray, str]],
        platform: Optional[str] = None,
        sample_ids: Optional[Sequence[str]] = None,
        encoding: str = "hex",
        ndjson: bool = False,
    ) -> dict:
        """``POST /v1/ingest`` -- push bytecode into the server's ingest
        queue (fire-and-forget: verdicts land in the registry, not in the
        response).

        Returns the 202 body: ``{"accepted", "deduped", "rejected",
        "queue_depth"}``.  A full queue answers 503 + ``Retry-After``,
        which this client's retry loop honors like any other overload;
        with retries exhausted the :class:`ServerClientError` (code
        ``"overloaded"``) surfaces.  ``ndjson=True`` ships the contracts
        as ``application/x-ndjson`` (one JSON object per line), the
        framing streaming producers emit.
        """
        codes = list(codes)
        if sample_ids is not None and len(sample_ids) != len(codes):
            raise ValueError(
                f"sample_ids length ({len(sample_ids)}) must "
                f"match codes length ({len(codes)})"
            )
        entries = []
        for index, code in enumerate(codes):
            entry: dict = {
                "bytecode": self._encode(code, encoding),
                "encoding": encoding,
            }
            if platform is not None:
                entry["platform"] = platform
            if sample_ids is not None:
                entry["sample_id"] = sample_ids[index]
            entries.append(entry)
        if ndjson:
            body = b"".join(
                _json.dumps(entry).encode("utf-8") + b"\n"
                for entry in entries
            )
            return self._request(
                "POST",
                "/ingest",
                body=body,
                content_type="application/x-ndjson",
            )
        return self._request("POST", "/ingest", {"contracts": entries})

    def wait_until_ready(
        self, timeout: float = 10.0, interval: float = 0.05
    ) -> dict:
        """Poll ``/v1/healthz`` until the server answers or ``timeout``
        runs out.

        Returns the first health payload; raises :class:`ServerClientError`
        with the last failure if the server never came up.  The poll loop is
        the shared :class:`~repro.resilience.retry.RetryPolicy` with a flat
        schedule (no backoff growth, no jitter) bounded by ``timeout``.
        """
        step = max(interval, 1e-3)
        policy = _RetryPolicy(
            max_attempts=max(2, min(10_000, int(timeout / step) + 2)),
            base_delay_s=interval,
            max_delay_s=step,
            multiplier=1.0,
            jitter=0.0,
            deadline_s=max(timeout, 1e-3),
        )
        try:
            return policy.call(
                lambda: self._request_once("GET", "/healthz"),
                retry_on=(ServerClientError,),
            )
        except ServerClientError as error:
            raise ServerClientError(
                error.status,
                f"scan server not ready after {timeout:.1f}s: {error}",
                code=error.code,
            ) from error

"""Prometheus text exposition for the scan server's metrics snapshot.

:func:`render_prometheus` turns the JSON payload of ``GET /v1/metrics``
(see :meth:`repro.service.server.ServerMetrics.snapshot`) into the
Prometheus text format (version 0.0.4), with one stable family per
counter the stack already tracks -- requests, latency percentiles,
cache, inference batches, registry, cascade and ingest.  Scrape
it with ``GET /v1/metrics?format=prometheus``.

:func:`validate_exposition` is the shared syntax checker used by the
unit tests and the CI ``obs-smoke`` job: metric-name/label grammar, one
``TYPE``/``HELP`` per family, no duplicate families, no duplicate
samples.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional

__all__ = ["render_prometheus", "validate_exposition"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_TYPES = frozenset(("counter", "gauge", "histogram", "summary", "untyped"))


class _Exposition:
    """Accumulates families + samples and renders the text format."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self._lines: List[str] = []
        self._declared: set = set()

    def family(self, name: str, kind: str, help_text: str) -> None:
        full = f"{self.prefix}_{name}"
        if full in self._declared:
            raise ValueError(f"duplicate metric family {full}")
        self._declared.add(full)
        self._lines.append(f"# HELP {full} {help_text}")
        self._lines.append(f"# TYPE {full} {kind}")

    def sample(
        self,
        name: str,
        value: object,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        full = f"{self.prefix}_{name}"
        rendered = ""
        if labels:
            pairs = ",".join(
                f'{key}="{_escape(str(val))}"'
                for key, val in sorted(labels.items())
            )
            rendered = "{" + pairs + "}"
        self._lines.append(f"{full}{rendered} {_number(value)}")

    def metric(
        self,
        name: str,
        kind: str,
        help_text: str,
        value: object,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """One-sample family: declare and emit in one call."""
        self.family(name, kind, help_text)
        self.sample(name, value, labels)

    def text(self) -> str:
        return "\n".join(self._lines) + "\n"


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _number(value: object) -> str:
    number = float(value)
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _cache_families(
    out: _Exposition, cache: Dict[str, object], prefix: str, labels=None
) -> None:
    out.family(
        f"{prefix}_lookups_total",
        "counter",
        "Graph-cache lookups by result.",
    )
    out.sample(
        f"{prefix}_lookups_total",
        cache.get("hits", 0),
        {**(labels or {}), "result": "hit"},
    )
    out.sample(
        f"{prefix}_lookups_total",
        cache.get("misses", 0),
        {**(labels or {}), "result": "miss"},
    )
    out.metric(
        f"{prefix}_hit_rate",
        "gauge",
        "Graph-cache hit rate over all lookups.",
        cache.get("hit_rate", 0.0),
        labels,
    )
    for key, help_text in (
        ("evictions", "In-memory LRU evictions."),
        ("disk_hits", "Lookups answered from the on-disk tier."),
        ("disk_writes", "Entries published to the on-disk tier."),
        ("stale_purges", "Disk entries purged by fingerprint mismatch."),
        ("disk_corrupt", "Unreadable disk entries treated as misses."),
    ):
        out.metric(
            f"{prefix}_{key}_total", "counter", help_text,
            cache.get(key, 0), labels,
        )


def render_prometheus(
    snapshot: Dict[str, object],
    tracing_armed: bool = False,
    fault_injection_armed: bool = False,
    prefix: str = "scamdetect",
) -> str:
    """Render a ``/v1/metrics`` snapshot as Prometheus exposition text."""
    out = _Exposition(prefix)
    out.metric(
        "uptime_seconds",
        "gauge",
        "Seconds since the scan server started.",
        snapshot.get("uptime_seconds", 0.0),
    )
    out.metric(
        "tracing_armed",
        "gauge",
        "1 when a span tracer is armed in this process.",
        int(bool(tracing_armed)),
    )
    out.metric(
        "fault_injection_armed",
        "gauge",
        "1 when a deterministic fault plan is armed in this process.",
        int(bool(fault_injection_armed)),
    )

    requests = dict(snapshot.get("requests", {}))
    total = requests.pop("total", 0)
    out.family(
        "requests_total", "counter", "HTTP requests served, by endpoint."
    )
    for endpoint, count in sorted(requests.items()):
        out.sample("requests_total", count, {"endpoint": endpoint})
    if not requests and total:
        out.sample("requests_total", total, {"endpoint": "unknown"})
    out.metric(
        "errors_total",
        "counter",
        "Requests answered with an error envelope.",
        snapshot.get("errors", 0),
    )

    latency = snapshot.get("latency", {})
    out.family(
        "request_latency_ms",
        "gauge",
        "Request latency percentiles over the recent window, by endpoint.",
    )
    for endpoint, window in sorted(latency.items()):
        for quantile, key in (
            ("0.5", "p50_ms"),
            ("0.9", "p90_ms"),
            ("0.99", "p99_ms"),
        ):
            out.sample(
                "request_latency_ms",
                window.get(key, 0.0),
                {"endpoint": endpoint, "quantile": quantile},
            )
    out.family(
        "request_latency_window",
        "gauge",
        "Samples in the bounded latency window, by endpoint.",
    )
    for endpoint, window in sorted(latency.items()):
        out.sample(
            "request_latency_window",
            window.get("count", 0),
            {"endpoint": endpoint},
        )

    scans = snapshot.get("scans", {})
    out.metric(
        "contracts_scanned_total",
        "counter",
        "Contracts scored since start.",
        scans.get("contracts", 0),
    )
    out.metric(
        "contracts_malicious_total",
        "counter",
        "Contracts flagged malicious since start.",
        scans.get("malicious", 0),
    )
    out.metric(
        "scan_rate_contracts_per_second",
        "gauge",
        "Lifetime scan throughput (contracts / uptime).",
        scans.get("contracts_per_second", 0.0),
    )
    _cache_families(out, scans.get("cache", {}), "cache")

    batches = scans.get("batches", {})
    out.metric(
        "inference_batches_total",
        "counter",
        "Batched GNN inference calls.",
        batches.get("count", 0),
    )
    out.metric(
        "inference_batches_coalesced_total",
        "counter",
        "Inference calls that scored more than one graph.",
        batches.get("coalesced", 0),
    )
    out.family(
        "inference_batch_size_total",
        "counter",
        "Inference calls by exact batch size.",
    )
    histogram = batches.get("histogram", {})
    for size in sorted(histogram, key=lambda value: int(value)):
        out.sample(
            "inference_batch_size_total",
            histogram[size],
            {"size": str(size)},
        )

    registry = scans.get("registry", {})
    out.family(
        "registry_lookups_total",
        "counter",
        "Persistent-registry verdict lookups by result.",
    )
    out.sample(
        "registry_lookups_total", registry.get("hits", 0), {"result": "hit"}
    )
    out.sample(
        "registry_lookups_total",
        registry.get("misses", 0),
        {"result": "miss"},
    )
    if "busy_retries" in registry:
        out.metric(
            "registry_busy_retries_total",
            "counter",
            "SQLite WAL busy retries on registry writes.",
            registry["busy_retries"],
        )

    cascade = scans.get("cascade")
    if cascade is not None:
        out.family(
            "cascade_contracts_total",
            "counter",
            "Tier-0 cascade outcomes.",
        )
        out.sample(
            "cascade_contracts_total",
            cascade.get("short_circuits", 0),
            {"outcome": "short_circuit"},
        )
        out.sample(
            "cascade_contracts_total",
            cascade.get("escalations", 0),
            {"outcome": "escalated"},
        )
        out.metric(
            "cascade_disagreements_total",
            "counter",
            "Escalated contracts the GNN flagged against the pre-filter.",
            cascade.get("disagreements", 0),
        )

    ingest = snapshot.get("ingest")
    if ingest:
        queue = ingest.get("queue", {})
        for key, kind, help_text in (
            ("depth", "gauge", "Items pending in the ingest queue."),
            ("capacity", "gauge", "Hard bound of the ingest queue."),
            (
                "peak_depth",
                "gauge",
                "Deepest the ingest queue has been since start.",
            ),
        ):
            out.metric(
                f"ingest_queue_{key}", kind, help_text, queue.get(key, 0)
            )
        for key, help_text in (
            ("enqueued", "Items admitted to the ingest queue."),
            ("deduped", "Enqueues coalesced into a pending duplicate."),
            ("dropped", "Enqueues rejected by the capacity bound."),
            ("drained", "Items handed to the drain workers."),
        ):
            out.metric(
                f"ingest_queue_{key}_total",
                "counter",
                help_text,
                queue.get(key, 0),
            )
        stats = ingest.get("stats", {})
        for key, help_text in (
            ("scanned", "Contracts scanned by the ingest drain."),
            ("malicious", "Ingest-drained contracts flagged malicious."),
            ("registry_hits", "Drained contracts answered from the registry."),
            ("inference_calls", "Model calls made by the ingest drain."),
            ("rules_matched", "Triage rule matches on drained verdicts."),
            ("alerts", "Triage alerts emitted by the ingest drain."),
            (
                "backpressure_stalls",
                "Watcher event-pump stalls on a full queue.",
            ),
        ):
            out.metric(
                f"ingest_{key}_total", "counter", help_text, stats.get(key, 0)
            )
    return out.text()


# ---------------------------------------------------------------------- #
# exposition-format validation (tests + CI smoke)

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)(?: (?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$'
)


def validate_exposition(text: str) -> List[str]:
    """Syntax-check Prometheus exposition text; returns error strings.

    An empty return value means the text is valid: every sample parses,
    every sample's family carries exactly one ``TYPE`` (declared before
    its samples) and at most one ``HELP``, no family or ``(name,
    labels)`` sample appears twice.
    """
    errors: List[str] = []
    typed: Dict[str, str] = {}
    helped: set = set()
    seen_samples: set = set()
    sampled_families: set = set()
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                # other comments are legal exposition; ignore them
                continue
            keyword, name = parts[1], parts[2]
            if not _NAME_RE.match(name):
                errors.append(f"line {number}: invalid metric name {name!r}")
                continue
            if keyword == "TYPE":
                kind = parts[3].strip() if len(parts) > 3 else ""
                if kind not in _TYPES:
                    errors.append(
                        f"line {number}: invalid type {kind!r} for {name}"
                    )
                if name in typed:
                    errors.append(
                        f"line {number}: duplicate TYPE for family {name}"
                    )
                if name in sampled_families:
                    errors.append(
                        f"line {number}: TYPE for {name} after its samples"
                    )
                typed[name] = kind
            else:
                if name in helped:
                    errors.append(
                        f"line {number}: duplicate HELP for family {name}"
                    )
                helped.add(name)
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            errors.append(f"line {number}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        sampled_families.add(name)
        if name not in typed:
            errors.append(
                f"line {number}: sample for {name} has no TYPE declaration"
            )
        labels = match.group("labels")
        label_key = ()
        if labels is not None:
            pairs = []
            for chunk in _split_labels(labels):
                pair = _LABEL_PAIR_RE.match(chunk)
                if pair is None:
                    errors.append(
                        f"line {number}: invalid label pair {chunk!r}"
                    )
                    continue
                if not _LABEL_RE.match(pair.group("key")):
                    errors.append(
                        f"line {number}: invalid label name "
                        f"{pair.group('key')!r}"
                    )
                pairs.append((pair.group("key"), pair.group("value")))
            if len({key for key, _ in pairs}) != len(pairs):
                errors.append(f"line {number}: repeated label name")
            label_key = tuple(sorted(pairs))
        value = match.group("value")
        if value not in ("NaN", "+Inf", "-Inf"):
            try:
                float(value)
            except ValueError:
                errors.append(
                    f"line {number}: sample value {value!r} is not a number"
                )
        sample_key = (name, label_key)
        if sample_key in seen_samples:
            errors.append(
                f"line {number}: duplicate sample {name}{{{labels or ''}}}"
            )
        seen_samples.add(sample_key)
    return errors


def _split_labels(labels: str) -> List[str]:
    """Split a label body on commas outside quoted values."""
    chunks: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for char in labels:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            chunks.append("".join(current).strip())
            current = []
            continue
        current.append(char)
    if current:
        chunks.append("".join(current).strip())
    return [chunk for chunk in chunks if chunk]

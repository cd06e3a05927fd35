"""Persistent verdict registry and triage rules.

This package is the stateful layer over the scanning service stack:

* :mod:`repro.registry.store` -- :class:`ScanRegistry`, a SQLite-backed,
  content-addressed verdict store keyed by ``(sha256, graph fingerprint)``
  with WAL concurrency, schema migrations, rescan history, a query API,
  and keyset-cursor pagination.
* :mod:`repro.registry.watch` -- :func:`~repro.registry.watch.stable_read`,
  the stat-consistent file read of the ingest tier
  (:mod:`repro.ingest`, behind ``scamdetect watch DIR``).
* :mod:`repro.registry.rules` -- the declarative TOML triage rules engine
  (tag / JSONL alert / webhook / exit-nonzero) evaluated on new verdicts.
* :mod:`repro.registry.compile` -- the rule-to-SQL compiler turning those
  matchers into index-backed registry queries.
* :mod:`repro.registry.triage` -- :class:`RetroTriage`, resumable
  batched retro-application of a rules file over historical rows
  (``scamdetect triage RULES``).

``BatchScanner(registry=...)`` and ``ScanServer(registry=...)`` plug the
store into the offline and online scan paths; ``scamdetect query`` and
``GET /v1/verdicts`` read it back.
"""

from repro.registry.compile import (
    CompiledRule,
    CompileError,
    check_index_backed,
    compile_rule,
    compile_rules,
)
from repro.registry.rules import (
    RuleParseError,
    RulesEngine,
    TriageOutcome,
    TriageRule,
    load_rules,
    parse_rules,
)
from repro.registry.store import (
    SCHEMA_VERSION,
    RegistryError,
    ScanRegistry,
    TriageRun,
    VerdictRow,
    WatchedFile,
    content_sha256,
    decode_cursor,
    encode_cursor,
)
from repro.registry.triage import RetroTriage, RetroTriageResult, rules_digest

__all__ = [
    "SCHEMA_VERSION",
    "RegistryError",
    "ScanRegistry",
    "TriageRun",
    "VerdictRow",
    "WatchedFile",
    "content_sha256",
    "decode_cursor",
    "encode_cursor",
    "CompileError",
    "CompiledRule",
    "check_index_backed",
    "compile_rule",
    "compile_rules",
    "RetroTriage",
    "RetroTriageResult",
    "rules_digest",
    "RuleParseError",
    "RulesEngine",
    "TriageOutcome",
    "TriageRule",
    "load_rules",
    "parse_rules",
]

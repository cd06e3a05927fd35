"""Rule-to-SQL compiler: triage matchers as index-backed registry queries.

The rules engine (:mod:`repro.registry.rules`) matches one report at a time
-- fine on the live path where every verdict is already in hand, hopeless
for retro-triage over millions of stored rows, where Python-side matching
would drag every row through ``VerdictRow`` construction just to discard
almost all of them.  This module compiles each :class:`TriageRule`'s
matcher conjunction into a parameterized SQL ``WHERE`` clause over the
``verdicts`` table (the matcher/action-DSL-compiled-to-read-cache-queries
shape of ``azuline/rose``'s rules engine), so the database's indexes do the
discarding and only *matching* rows ever cross into Python.

The compiled predicates are exact translations of the Python matchers --
:func:`verify_parity` below states the contract, and the E14 harness
enforces it byte-for-byte.  The matchers a registry query also takes
(verdict, score range, platform, time window, path glob, tag, sha256
prefix) go through :func:`~repro.registry.store.filter_clauses`, the one
translation ``scamdetect query`` and ``GET /v1/verdicts`` use too.  This
module adds the two that only rules have:

* ``indicators`` become ``EXISTS`` probes with ``instr`` over the
  JSON-decoded notes array -- substring containment per note, exactly
  Python's ``any(ind in note for note in notes)``, never a cross-note
  false positive from matching the JSON text itself.
* ``model_identity`` is an equality on the stored scoring-model identity.

Every compiled query is also *plan-checked*: :func:`check_index_backed`
runs ``EXPLAIN QUERY PLAN`` and refuses any plan that full-scans the
verdicts table, so a schema change that silently drops an index fails
loudly at triage start instead of turning a fleet-sized triage into an
accidental table walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.registry.rules import TriageRule
from repro.registry.store import RegistryError, ScanRegistry, filter_clauses


class CompileError(RegistryError):
    """A rule that cannot be compiled, or a compiled plan that is not
    index-backed."""


@dataclass(frozen=True)
class CompiledRule:
    """One rule's matcher conjunction as a parameterized WHERE clause.

    ``where``/``params`` plug straight into
    :meth:`ScanRegistry.select_where` (and its ``explain_where`` twin);
    the clause always begins with the fingerprint scope, so every plan can
    reach the rows through a ``fingerprint``-leading index even when the
    rule itself constrains nothing else.
    """

    rule: TriageRule
    where: str
    params: Tuple[object, ...]

    def describe(self) -> str:
        return f"{self.rule.name}: WHERE {self.where} {list(self.params)}"


def compile_rule(rule: TriageRule, fingerprint: str) -> CompiledRule:
    """Compile one rule's matchers for the given fingerprint scope."""
    if not fingerprint:
        raise CompileError(
            f"rule {rule.name!r}: compiling needs a graph fingerprint scope"
        )
    clauses, params = filter_clauses(
        verdict=rule.verdict,
        min_score=rule.min_score,
        max_score=rule.max_score,
        platform=rule.platform,
        since=rule.since,
        until=rule.until,
        path_glob=rule.path_glob,
        tag=rule.has_tag,
        sha256_prefix=rule.sha256_prefix,
    )
    clauses.insert(0, "fingerprint = ?")
    params.insert(0, fingerprint)
    for indicator in rule.indicators:
        clauses.append(
            "EXISTS (SELECT 1 FROM json_each(verdicts.notes) "
            "WHERE instr(json_each.value, ?) > 0)"
        )
        params.append(indicator)
    if rule.model_identity is not None:
        clauses.append("model_identity = ?")
        params.append(rule.model_identity)
    return CompiledRule(
        rule=rule, where=" AND ".join(clauses), params=tuple(params)
    )


def compile_rules(
    rules: Sequence[TriageRule], fingerprint: str
) -> List[CompiledRule]:
    """Compile a whole parsed rules file, preserving file order (actions of
    an earlier rule may feed a later rule's ``tag`` matcher)."""
    return [compile_rule(rule, fingerprint) for rule in rules]


def check_index_backed(
    registry: ScanRegistry, compiled: Sequence[CompiledRule]
) -> List[str]:
    """Assert no compiled rule's plan full-scans the verdicts table.

    Returns the collected ``EXPLAIN QUERY PLAN`` detail lines (the triage
    CLI prints them under ``--explain``).  ``SCAN verdicts`` without an
    index is the smoking gun; ``SEARCH verdicts USING ... INDEX`` and the
    virtual-table scans of the ``json_each`` probes are fine.
    """
    details: List[str] = []
    for entry in compiled:
        plan = registry.explain_where(entry.where, entry.params)
        for line in plan:
            details.append(f"{entry.rule.name}: {line}")
            if line.startswith("SCAN verdicts") and "INDEX" not in line:
                raise CompileError(
                    f"rule {entry.rule.name!r} compiled to a full table "
                    f"scan ({line}); a required index is missing -- "
                    f"refusing to retro-triage without index backing"
                )
    return details


def verify_parity(
    compiled: CompiledRule, rows: Sequence[object]
) -> List[str]:
    """Cross-check compiled-SQL selection against the Python matcher.

    ``rows`` are the :class:`~repro.registry.store.VerdictRow` objects the
    compiled query selected; every one must satisfy
    :meth:`TriageRule.matches_row`.  Returns the sha256s of any
    disagreements (always empty unless the compiler has a bug -- the E14
    harness additionally checks the reverse direction, that Python-side
    matching selects nothing the SQL missed).
    """
    return [
        row.sha256
        for row in rows
        if not compiled.rule.matches_row(row)
    ]

"""Declarative triage rules evaluated on every new verdict.

Continuous scanning produces verdicts nobody is sitting in front of, so the
watch daemon routes every *new* verdict through a small rules engine the
operator configures in TOML (the same user-facing shape as the metadata
rules of ``azuline/rose``: declarative matchers, explicit actions, loud
validation errors).  A rules file looks like::

    [[rules]]
    name = "hot-scams"

    [rules.match]
    verdict = "malicious"        # "malicious" or "benign"
    min_score = 0.9              # inclusive probability bounds
    platform = "evm"             # restrict to one frontend
    indicators = ["DELEGATECALL"]  # substrings that must appear in notes
    path_glob = "inbox/*"        # shell glob on the source path
    tag = "hot"                  # row already carries this triage tag
    model_identity = "sha256:.." # scored by this exact model fingerprint
    since = 1700000000           # scanned-at window (epoch / ISO / TOML
    until = "2026-01-01T00:00"   # datetime), inclusive on both ends
    sha256 = "ab12"              # content-hash hex prefix

    [rules.actions]
    tag = ["hot", "escalate"]    # merged into the registry row's tag set
    alert = true                 # append a JSONL line to the alert sink
    webhook = "http://hooks.internal/scam"   # POST the alert as JSON
    exit_nonzero = true          # make `scamdetect watch` exit 2

Every ``match`` condition must hold for a rule to fire (conditions are
AND-ed; omit a key to not constrain it) and every listed action runs.
Unknown keys are *errors*, not ignored -- a typo in a triage rule must not
silently disable paging.

:class:`RulesEngine` is deliberately I/O-light: tag application is returned
to the caller (the daemon owns the registry transaction), the JSONL sink is
an append, and webhook failures warn instead of raising -- a dead HTTP
endpoint must never stall the scan loop.  Webhook deliveries are retried
under a shared :class:`~repro.resilience.retry.RetryPolicy`; a delivery
that exhausts its retries is appended to the dead-letter JSONL sink (when
configured) so a flapping endpoint loses no alerts, only freshness.
"""

from __future__ import annotations

import datetime
import fnmatch
import json
import pathlib
import time
import urllib.error
import urllib.request
import warnings

try:
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - Python < 3.11
    import tomli as tomllib  # type: ignore[no-redef]

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.core.report import VerdictReport
from repro.obs.trace import trace
from repro.resilience.faults import InjectedFault, fault_point
from repro.resilience.retry import RetryPolicy

PathLike = Union[str, pathlib.Path]

_MATCH_KEYS = frozenset(
    ("verdict", "min_score", "max_score", "platform", "indicators",
     "path_glob", "tag", "model_identity", "since", "until", "sha256")
)
_ACTION_KEYS = frozenset(("tag", "alert", "webhook", "exit_nonzero"))

#: How long a webhook POST may take before it is abandoned with a warning.
WEBHOOK_TIMEOUT_SECONDS = 5.0

#: Default delivery retry: three tries under a short budget, so a flapping
#: endpoint gets its alert while a dead one dead-letters quickly.
WEBHOOK_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.1,
                            max_delay_s=2.0, deadline_s=10.0)


class RuleParseError(ValueError):
    """A rules file that cannot be trusted: syntax or validation failure."""


@dataclass(frozen=True)
class TriageRule:
    """One parsed rule: a conjunction of matchers plus its actions."""

    name: str
    verdict: Optional[str] = None
    min_score: Optional[float] = None
    max_score: Optional[float] = None
    platform: Optional[str] = None
    indicators: tuple = ()
    path_glob: Optional[str] = None
    # registry-level matchers (v2): these constrain *stored* facts about a
    # verdict -- its tag set, the scoring model's weight fingerprint, the
    # scan-time window, and the content-hash prefix -- so rules can slice
    # history ("everything model X tagged hot last week"), not just the
    # report fields a fresh scan carries.  TOML keys `tag` / `sha256` map
    # to `has_tag` / `sha256_prefix` (the action field `tag` and the full
    # content hash already own the plain names).
    has_tag: Optional[str] = None
    model_identity: Optional[str] = None
    since: Optional[float] = None
    until: Optional[float] = None
    sha256_prefix: Optional[str] = None
    tag: tuple = ()
    alert: bool = False
    webhook: Optional[str] = None
    exit_nonzero: bool = False

    def matches(
        self,
        report: VerdictReport,
        source_path: Optional[str],
        sha256: Optional[str] = None,
        model_identity: Optional[str] = None,
        tags: Sequence[str] = (),
        scanned_at: Optional[float] = None,
    ) -> bool:
        """True when every configured condition holds for ``report``.

        The keyword context carries the registry-level facts the report
        itself does not: a rule constraining one of them can only match
        when the caller supplies it (a missing fact fails the condition --
        conservative, never a silent wildcard).
        """
        if self.verdict is not None and report.verdict != self.verdict:
            return False
        score = report.malicious_probability
        if self.min_score is not None and score < self.min_score:
            return False
        if self.max_score is not None and score > self.max_score:
            return False
        if self.platform is not None and report.platform != self.platform:
            return False
        for indicator in self.indicators:
            if not any(indicator in note for note in report.notes):
                return False
        if self.path_glob is not None:
            candidate = source_path or report.sample_id
            if not fnmatch.fnmatchcase(candidate, self.path_glob):
                return False
        if self.has_tag is not None and self.has_tag not in tags:
            return False
        if (
            self.model_identity is not None
            and model_identity != self.model_identity
        ):
            return False
        if self.since is not None and (
            scanned_at is None or scanned_at < self.since
        ):
            return False
        if self.until is not None and (
            scanned_at is None or scanned_at > self.until
        ):
            return False
        if self.sha256_prefix is not None and (
            sha256 is None or not sha256.startswith(self.sha256_prefix.lower())
        ):
            return False
        return True

    def matches_row(self, row) -> bool:
        """:meth:`matches` over a stored registry row
        (:class:`~repro.registry.store.VerdictRow`) with its full context.

        This is the row-at-a-time oracle the compiled-SQL triage path is
        verified against (E14's byte-identical parity check).
        """
        return self.matches(
            row.to_report(),
            row.source_path,
            sha256=row.sha256,
            model_identity=row.model_identity,
            tags=row.tags,
            scanned_at=row.last_scanned_at,
        )

    def describe(self) -> str:
        conditions = []
        if self.verdict is not None:
            conditions.append(f"verdict={self.verdict}")
        if self.min_score is not None:
            conditions.append(f"score>={self.min_score}")
        if self.max_score is not None:
            conditions.append(f"score<={self.max_score}")
        if self.platform is not None:
            conditions.append(f"platform={self.platform}")
        if self.indicators:
            conditions.append(f"indicators={list(self.indicators)}")
        if self.path_glob is not None:
            conditions.append(f"path={self.path_glob}")
        if self.has_tag is not None:
            conditions.append(f"tag={self.has_tag}")
        if self.model_identity is not None:
            conditions.append(f"model_identity={self.model_identity}")
        if self.since is not None:
            conditions.append(f"since={self.since}")
        if self.until is not None:
            conditions.append(f"until={self.until}")
        if self.sha256_prefix is not None:
            conditions.append(f"sha256={self.sha256_prefix}*")
        actions = []
        if self.tag:
            actions.append(f"tag={list(self.tag)}")
        if self.alert:
            actions.append("alert")
        if self.webhook:
            actions.append(f"webhook={self.webhook}")
        if self.exit_nonzero:
            actions.append("exit_nonzero")
        return (
            f"{self.name}: {' and '.join(conditions) or 'match everything'}"
            f" -> {', '.join(actions)}"
        )


def _require(condition: bool, rule_name: str, message: str) -> None:
    if not condition:
        raise RuleParseError(f"rule {rule_name!r}: {message}")


def _parse_when(value, rule_name: str, key: str) -> float:
    """``since``/``until`` accept epoch seconds, a TOML datetime, or an
    ISO-8601 string -- the same forms `scamdetect query --since` takes."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, datetime.datetime):
        return value.timestamp()
    if isinstance(value, str):
        try:
            return datetime.datetime.fromisoformat(value).timestamp()
        except ValueError:
            pass
    raise RuleParseError(
        f"rule {rule_name!r}: {key} must be epoch seconds, a TOML "
        f"datetime, or an ISO-8601 string, not {value!r}"
    )


def parse_rules(text: str, origin: str = "<rules>") -> List[TriageRule]:
    """Parse and validate a TOML rules document.

    Raises:
        RuleParseError: On TOML syntax errors, unknown keys, out-of-range
            scores, impossible score windows, or a rule with no actions.
    """
    try:
        document = tomllib.loads(text)
    except tomllib.TOMLDecodeError as error:
        raise RuleParseError(f"{origin}: invalid TOML: {error}") from error
    entries = document.pop("rules", None)
    if document:
        raise RuleParseError(
            f"{origin}: unknown top-level keys {sorted(document)}; rules "
            f"files hold only [[rules]] tables"
        )
    if not isinstance(entries, list) or not entries:
        raise RuleParseError(
            f"{origin}: no [[rules]] tables found; define at least one rule"
        )
    rules: List[TriageRule] = []
    seen_names = set()
    for index, entry in enumerate(entries):
        name = entry.pop("name", None)
        _require(
            isinstance(name, str) and bool(name),
            f"#{index}",
            "every rule needs a non-empty string 'name'",
        )
        _require(name not in seen_names, name, "duplicate rule name")
        seen_names.add(name)
        match = entry.pop("match", {})
        actions = entry.pop("actions", {})
        _require(
            not entry,
            name,
            f"unknown keys {sorted(entry)}; rules hold 'name', [rules."
            f"match] and [rules.actions]",
        )
        _require(isinstance(match, dict), name, "'match' must be a table")
        _require(
            isinstance(actions, dict), name, "'actions' must be a table"
        )
        unknown = set(match) - _MATCH_KEYS
        _require(
            not unknown,
            name,
            f"unknown match keys {sorted(unknown)} "
            f"(known: {sorted(_MATCH_KEYS)})",
        )
        unknown = set(actions) - _ACTION_KEYS
        _require(
            not unknown,
            name,
            f"unknown action keys {sorted(unknown)} "
            f"(known: {sorted(_ACTION_KEYS)})",
        )

        verdict = match.get("verdict")
        if verdict is not None:
            _require(
                verdict in ("malicious", "benign"),
                name,
                f"verdict must be 'malicious' or 'benign', not {verdict!r}",
            )
        bounds = {}
        for key in ("min_score", "max_score"):
            value = match.get(key)
            if value is not None:
                _require(
                    isinstance(value, (int, float))
                    and not isinstance(value, bool)
                    and 0.0 <= value <= 1.0,
                    name,
                    f"{key} must be a probability in [0, 1]",
                )
                bounds[key] = float(value)
        if "min_score" in bounds and "max_score" in bounds:
            _require(
                bounds["min_score"] <= bounds["max_score"],
                name,
                "min_score must not exceed max_score",
            )
        platform = match.get("platform")
        if platform is not None:
            _require(
                platform in ("evm", "wasm"),
                name,
                f"platform must be 'evm' or 'wasm', not {platform!r}",
            )
        indicators = match.get("indicators", [])
        _require(
            isinstance(indicators, list)
            and all(isinstance(item, str) and item for item in indicators),
            name,
            "indicators must be a list of non-empty strings",
        )
        path_glob = match.get("path_glob")
        if path_glob is not None:
            _require(
                isinstance(path_glob, str) and bool(path_glob),
                name,
                "path_glob must be a non-empty string",
            )
        has_tag = match.get("tag")
        if has_tag is not None:
            _require(
                isinstance(has_tag, str) and bool(has_tag),
                name,
                "match.tag must be a non-empty string",
            )
        model_identity = match.get("model_identity")
        if model_identity is not None:
            _require(
                isinstance(model_identity, str) and bool(model_identity),
                name,
                "model_identity must be a non-empty string",
            )
        since = match.get("since")
        if since is not None:
            since = _parse_when(since, name, "since")
        until = match.get("until")
        if until is not None:
            until = _parse_when(until, name, "until")
        if since is not None and until is not None:
            _require(
                since <= until, name, "since must not be after until"
            )
        sha256_prefix = match.get("sha256")
        if sha256_prefix is not None:
            _require(
                isinstance(sha256_prefix, str)
                and 0 < len(sha256_prefix) <= 64
                and all(
                    char in "0123456789abcdefABCDEF"
                    for char in sha256_prefix
                ),
                name,
                "match.sha256 must be a hex prefix (1-64 chars)",
            )
            sha256_prefix = sha256_prefix.lower()

        tags = actions.get("tag", [])
        _require(
            isinstance(tags, list)
            and all(isinstance(item, str) and item for item in tags),
            name,
            "actions.tag must be a list of non-empty strings",
        )
        alert = actions.get("alert", False)
        _require(
            isinstance(alert, bool), name, "actions.alert must be a boolean"
        )
        webhook = actions.get("webhook")
        if webhook is not None:
            _require(
                isinstance(webhook, str)
                and webhook.startswith(("http://", "https://")),
                name,
                "actions.webhook must be an http(s) URL",
            )
        exit_nonzero = actions.get("exit_nonzero", False)
        _require(
            isinstance(exit_nonzero, bool),
            name,
            "actions.exit_nonzero must be a boolean",
        )
        _require(
            bool(tags) or alert or webhook is not None or exit_nonzero,
            name,
            "rule has no actions; add tag/alert/webhook/exit_nonzero",
        )
        rules.append(
            TriageRule(
                name=name,
                verdict=verdict,
                min_score=bounds.get("min_score"),
                max_score=bounds.get("max_score"),
                platform=platform,
                indicators=tuple(indicators),
                path_glob=path_glob,
                has_tag=has_tag,
                model_identity=model_identity,
                since=since,
                until=until,
                sha256_prefix=sha256_prefix,
                tag=tuple(tags),
                alert=alert,
                webhook=webhook,
                exit_nonzero=exit_nonzero,
            )
        )
    return rules


def load_rules(path: PathLike) -> List[TriageRule]:
    """Load and validate a TOML rules file from disk."""
    path = pathlib.Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise RuleParseError(
            f"cannot read rules file {path}: {error}"
        ) from error
    return parse_rules(text, origin=str(path))


@dataclass
class TriageOutcome:
    """What the rules engine decided for one verdict."""

    matched: List[str] = field(default_factory=list)
    tags: List[str] = field(default_factory=list)
    alerts: int = 0
    exit_nonzero: bool = False


class RulesEngine:
    """Evaluates a parsed rule set against verdicts and runs the actions.

    Args:
        rules: Parsed rules (see :func:`load_rules`).
        alert_path: JSONL sink for the ``alert`` action (one JSON object
            per line, append-only); None drops alerts with a warning the
            first time a rule wants one.
        opener: Replacement for :func:`urllib.request.urlopen` (tests
            inject a recorder; production uses the default).
        dead_letter_path: JSONL sink for webhook deliveries that exhausted
            their retries (one object per line: url, payload, last error,
            attempts); None keeps the historical drop-with-warning behavior.
        retry: Delivery retry policy (default :data:`WEBHOOK_RETRY`).

    The engine is stateless apart from counters, so one instance can serve
    every poll cycle of a daemon.
    """

    def __init__(
        self,
        rules: Sequence[TriageRule],
        alert_path: Optional[PathLike] = None,
        opener=urllib.request.urlopen,
        dead_letter_path: Optional[PathLike] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.rules = list(rules)
        self.alert_path = (
            pathlib.Path(alert_path) if alert_path is not None else None
        )
        self.dead_letter_path = (
            pathlib.Path(dead_letter_path)
            if dead_letter_path is not None
            else None
        )
        self.retry = retry if retry is not None else WEBHOOK_RETRY
        self._opener = opener
        self._warned_no_sink = False
        self.alerts_emitted = 0
        self.webhook_failures = 0
        self.webhook_retries = 0
        self.dead_lettered = 0

    def evaluate(
        self,
        report: VerdictReport,
        sha256: str,
        source_path: Optional[str] = None,
        fired_at: Optional[float] = None,
        model_identity: Optional[str] = None,
        tags: Sequence[str] = (),
        scanned_at: Optional[float] = None,
    ) -> TriageOutcome:
        """Run every matching rule's actions for one new verdict.

        Returns the outcome; the caller applies ``outcome.tags`` to the
        registry (the engine does not hold a registry handle, so rules stay
        usable on ad-hoc reports too).  ``model_identity`` / ``tags`` /
        ``scanned_at`` feed the registry-level matchers; callers that do
        not supply them simply never match rules constraining them.
        """
        outcome = TriageOutcome()
        fired_tags: List[str] = []
        # obs site rules.action: spans matching plus every fired action
        # (alert appends, webhook retries), so a slow endpoint is visible
        # as rules latency in traces rather than unexplained drain time
        with trace("rules.action", rules=len(self.rules)) as span:
            for rule in self.rules:
                if not rule.matches(
                    report,
                    source_path,
                    sha256=sha256,
                    model_identity=model_identity,
                    tags=tags,
                    scanned_at=scanned_at,
                ):
                    continue
                outcome.matched.append(rule.name)
                fired_tags.extend(rule.tag)
                if rule.alert or rule.webhook:
                    payload = self._alert_payload(
                        rule, report, sha256, source_path, fired_at
                    )
                    if rule.alert:
                        self._emit_alert(payload)
                        outcome.alerts += 1
                    if rule.webhook:
                        self._post_webhook(rule.webhook, payload)
                if rule.exit_nonzero:
                    outcome.exit_nonzero = True
            span.set(matched=len(outcome.matched), alerts=outcome.alerts)
        outcome.tags = sorted(set(fired_tags))
        return outcome

    # ------------------------------------------------------------------ #

    @staticmethod
    def _alert_payload(
        rule: TriageRule,
        report: VerdictReport,
        sha256: str,
        source_path: Optional[str],
        fired_at: Optional[float],
    ) -> Dict[str, object]:
        return {
            "rule": rule.name,
            "sha256": sha256,
            "source_path": source_path,
            "sample_id": report.sample_id,
            "platform": report.platform,
            "verdict": report.verdict,
            "malicious_probability": report.malicious_probability,
            "notes": list(report.notes),
            "fired_at": time.time() if fired_at is None else fired_at,
        }

    def _emit_alert(self, payload: Dict[str, object]) -> None:
        if self.alert_path is None:
            if not self._warned_no_sink:
                self._warned_no_sink = True
                warnings.warn(
                    "triage rule requested an alert but no alert sink is "
                    "configured (pass alert_path= / --alert-file); alerts "
                    "are being dropped",
                    stacklevel=3,
                )
            return
        line = json.dumps(payload, sort_keys=True)
        self.alert_path.parent.mkdir(parents=True, exist_ok=True)
        with self.alert_path.open("a") as handle:
            handle.write(line + "\n")
        self.alerts_emitted += 1

    def _post_webhook(self, url: str, payload: Dict[str, object]) -> None:
        request = urllib.request.Request(
            url,
            data=json.dumps(payload, sort_keys=True).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )

        def deliver() -> None:
            fault_point("rules.webhook")
            with self._opener(
                request, timeout=WEBHOOK_TIMEOUT_SECONDS
            ) as response:
                response.read()

        def count_retry(attempt, error, delay) -> None:
            self.webhook_retries += 1

        try:
            self.retry.call(
                deliver,
                retry_on=(
                    urllib.error.URLError,
                    OSError,
                    ValueError,
                    InjectedFault,
                ),
                on_retry=count_retry,
            )
        except (
            urllib.error.URLError,
            OSError,
            ValueError,
            InjectedFault,
        ) as error:
            # a dead endpoint must never stall or kill the scan loop: after
            # the retries are spent the alert goes to the dead-letter sink
            self.webhook_failures += 1
            self._dead_letter(url, payload, error)
            warnings.warn(
                f"triage webhook POST to {url} failed ({error}); "
                f"continuing",
                stacklevel=3,
            )

    def _dead_letter(
        self, url: str, payload: Dict[str, object], error: BaseException
    ) -> None:
        """Append an exhausted delivery to the dead-letter JSONL sink."""
        if self.dead_letter_path is None:
            return
        line = json.dumps(
            {
                "url": url,
                "payload": payload,
                "error": str(error),
                "attempts": self.retry.max_attempts,
                "failed_at": time.time(),
            },
            sort_keys=True,
        )
        self.dead_letter_path.parent.mkdir(parents=True, exist_ok=True)
        with self.dead_letter_path.open("a") as handle:
            handle.write(line + "\n")
        self.dead_lettered += 1

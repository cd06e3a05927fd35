"""The scan engine: the one place the scan sequence is written.

:meth:`ScanEngine.run` takes a list of contracts through six stages:

1. **registry lookup** -- with a verdict registry attached, bytecode already
   recorded under this model identity and explain setting is answered from
   its stored row, and a hit skips every later stage;
2. **tier 0** -- with the cascade on, the pre-filter scores the raw bytes
   and confident-benign contracts short-circuit to ``stage: "prefilter"``
   reports;
3. **lowering** -- the escalated contracts are lowered to graphs through
   the pipeline's graph cache, serially on the caller's thread;
4. **inference** -- the one plug-in: the trainer's batched
   ``iter_predict_proba`` by default, or an ``infer(graphs)`` callable (the
   scan server passes its request coalescer);
5. **report** -- :meth:`~repro.core.detector.ScamDetector.build_report`
   composes each verdict; with ``explain`` on, the CFG that lowering just
   built yields the indicator notes, and only a graph-cache hit builds a
   CFG, once, for them;
6. **registry record** -- the fresh verdicts are written back in one
   transaction.

``ScamDetector.scan``, :class:`~repro.service.batch.BatchScanner`, the shard
pool's workers and :class:`~repro.service.server.ScanServer` are thin callers.
A sharded ``BatchScanner`` hands stages 2-5 of its registry misses to the
shard pool, whose workers run this same engine without a registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.frontends import detect_platform, get_frontend
from repro.core.indicators import extract_indicators, format_indicators
from repro.core.report import VerdictReport
from repro.obs.trace import trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.detector import ScamDetector
    from repro.gnn.data import ContractGraph
    from repro.service.cache import CacheStats


@dataclass
class ScanOutcome:
    """What one engine run produced.

    Attributes:
        reports: One verdict per input contract, in input order.
        registry_hits: Contracts answered from the registry.
        cascade_stats: ``short_circuits``, ``escalations`` and
            ``disagreements`` when the cascade is on and at least one
            contract reached tier 0; None otherwise.
        batch_sizes: Histogram of direct model calls
            (``{graphs: calls}``); empty when an ``infer`` plug-in scored.
        cache_stats: Graph-cache counters this run added (None without a
            cache).
        shard_stats: Per-shard telemetry when the shard pool scanned.
        model_identity: The detector's model identity the registry lookup
            and record used (None without a registry).
    """

    reports: List[VerdictReport] = field(default_factory=list)
    registry_hits: int = 0
    cascade_stats: Optional[Dict[str, int]] = None
    batch_sizes: Dict[int, int] = field(default_factory=dict)
    cache_stats: Optional["CacheStats"] = None
    shard_stats: Dict[str, Dict[str, object]] = field(default_factory=dict)
    model_identity: Optional[str] = None


class ScanEngine:
    """Runs the scan sequence for one trained detector.

    Args:
        detector: The detector whose threshold, explain and cascade settings
            shape every report.
        registry: Optional verdict store, read first and written last.  Its
            fingerprint scope must match the detector config; an unscoped
            registry adopts it.
        infer: Optional inference plug-in, ``infer(graphs)`` -> the
            malicious-class probability per graph.
        pool: Optional shard pool, ``pool(raw_codes, ids, platforms)`` -> a
            :class:`ScanOutcome`, that runs tier 0 through report for the
            registry misses.
        inference_batch_size: Graphs per direct model call.

    Raises:
        ValueError: If the registry is scoped to another graph fingerprint,
            or ``inference_batch_size`` is below 1.
    """

    def __init__(
        self,
        detector: "ScamDetector",
        registry=None,
        infer: Optional[Callable[[List["ContractGraph"]], Sequence[float]]] = None,
        pool: Optional[Callable[..., ScanOutcome]] = None,
        inference_batch_size: int = 256,
    ) -> None:
        if inference_batch_size < 1:
            raise ValueError("inference_batch_size must be >= 1")
        if registry is not None:
            fingerprint = detector.config.graph_fingerprint()
            if registry.fingerprint and registry.fingerprint != fingerprint:
                raise ValueError(
                    f"registry fingerprint {registry.fingerprint!r} does not "
                    f"match the detector config's {fingerprint!r}; a "
                    f"fingerprint change must never serve stale verdicts "
                    f"(open the registry with ScanRegistry.for_config)"
                )
            registry.fingerprint = fingerprint
        self.detector = detector
        self.registry = registry
        self.infer = infer
        self.pool = pool
        self.inference_batch_size = inference_batch_size

    def run(
        self,
        raw_codes: Sequence[bytes],
        ids: Sequence[str],
        platforms: Sequence[Optional[str]],
    ) -> ScanOutcome:
        """Scan ``raw_codes``; a None platform is sniffed from the code."""
        if self.registry is None:
            return self._scan(raw_codes, ids, platforms)
        # deferred: the registry package imports the service layer
        from repro.registry.store import content_sha256

        detector = self.detector
        shas = [content_sha256(raw) for raw in raw_codes]
        # weight-level identity plus the cascade mode and margin: a
        # retrained model, or the same bundle with the cascade toggled, is
        # never served another model's rows
        identity = detector.model_identity()
        rows = self.registry.get_many(shas)
        reports: List[Optional[VerdictReport]] = []
        misses: List[int] = []
        for index, sha in enumerate(shas):
            row = rows.get(sha)
            if (
                row is None
                or row.model_identity != identity
                or row.explained != detector.explain
            ):
                reports.append(None)
                misses.append(index)
                continue
            # rebind the caller's id and re-derive the label from the
            # current threshold: a threshold change needs no re-scan
            report = row.to_report(sample_id=ids[index])
            report.label = int(report.malicious_probability >= detector.threshold)
            reports.append(report)
        if not misses:
            return ScanOutcome(
                reports=reports, registry_hits=len(shas), model_identity=identity
            )
        outcome = self._scan(
            [raw_codes[index] for index in misses],
            [ids[index] for index in misses],
            [platforms[index] for index in misses],
        )
        self.registry.record_many(
            [
                (shas[index], report, ids[index])
                for index, report in zip(misses, outcome.reports)
            ],
            explained=detector.explain,
            model_identity=identity,
        )
        for index, report in zip(misses, outcome.reports):
            reports[index] = report
        outcome.reports = reports
        outcome.registry_hits = len(shas) - len(misses)
        outcome.model_identity = identity
        return outcome

    # ------------------------------------------------------------------ #

    def _scan(
        self,
        raw_codes: Sequence[bytes],
        ids: Sequence[str],
        platforms: Sequence[Optional[str]],
    ) -> ScanOutcome:
        """Tier 0, lowering, inference and report for ``raw_codes``."""
        if self.pool is not None:
            return self.pool(raw_codes, ids, platforms)
        detector = self.detector
        cache = detector.pipeline.graph_cache
        before = cache.stats.copy() if cache is not None else None
        resolved = [
            platform or detect_platform(raw)
            for raw, platform in zip(raw_codes, platforms)
        ]
        decisions = None
        if detector.cascade and raw_codes:
            with trace("cascade.tier0", contracts=len(raw_codes)):
                decisions = detector.cascade_decide(raw_codes, resolved)
        escalated = [
            index
            for index in range(len(raw_codes))
            if decisions is None or not decisions[index].short_circuit
        ]
        lowered = [
            self._lower(raw_codes[index], ids[index], resolved[index])
            for index in escalated
        ]
        probabilities, batch_sizes = self._infer([graph for graph, _ in lowered])
        reports: List[Optional[VerdictReport]] = [None] * len(raw_codes)
        disagreements = 0
        for index, (graph, notes), probability in zip(
            escalated, lowered, probabilities
        ):
            report = detector.build_report(
                raw_codes[index],
                ids[index],
                resolved[index],
                probability,
                graph,
                notes,
            )
            # the GNN flagged a contract that only the safety margin
            # escalated: the pre-filter is drifting towards missing it
            if decisions is not None and report.label == 1:
                disagreements += int(decisions[index].near_miss)
            reports[index] = report
        cascade_stats = None
        if decisions is not None:
            for index, decision in enumerate(decisions):
                if decision.short_circuit:
                    reports[index] = detector.build_prefilter_report(
                        raw_codes[index],
                        ids[index],
                        resolved[index],
                        decision.probability,
                    )
            cascade_stats = {
                "short_circuits": len(raw_codes) - len(escalated),
                "escalations": len(escalated),
                "disagreements": disagreements,
            }
        return ScanOutcome(
            reports=reports,
            cascade_stats=cascade_stats,
            batch_sizes=batch_sizes,
            cache_stats=cache.stats.delta(before) if cache is not None else None,
        )

    def _lower(
        self, raw: bytes, sample_id: str, platform: str
    ) -> Tuple["ContractGraph", List[str]]:
        """One contract's graph, plus its indicator notes with explain on."""
        with trace("lowering", sample=sample_id):
            graph, cfg = self.detector.pipeline.analyse_bytecode(
                raw, platform=platform, sample_id=sample_id
            )
            if not self.detector.explain:
                return graph, []
            if cfg is None:
                # a graph-cache hit: build the CFG once, for the notes
                cfg = get_frontend(platform).build_cfg(raw, name=sample_id)
            return graph, format_indicators(extract_indicators(cfg))

    def _infer(
        self, graphs: List["ContractGraph"]
    ) -> Tuple[List[float], Dict[int, int]]:
        """Probabilities for ``graphs`` plus the direct-call histogram."""
        if not graphs:
            return [], {}
        if self.infer is not None:
            return list(self.infer(graphs)), {}
        probabilities: List[float] = []
        batch_sizes: Dict[int, int] = {}
        with trace("gnn.infer", graphs=len(graphs)):
            for chunk in self.detector.pipeline._trainer.iter_predict_proba(
                graphs, batch_size=self.inference_batch_size
            ):
                batch_sizes[len(chunk)] = batch_sizes.get(len(chunk), 0) + 1
                probabilities.extend(float(row[1]) for row in chunk)
        return probabilities, batch_sizes

"""High-level ScamDetect API: train once, scan contracts, get verdict reports."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union, TYPE_CHECKING

from repro.core.config import ScamDetectConfig
from repro.core.engine import ScanEngine
from repro.core.pipeline import ScamDetectPipeline
from repro.core.report import ScanSummary, VerdictReport
from repro.datasets.corpus import Corpus
from repro.evm.contracts import is_minimal_proxy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.cascade.head import CascadeConfig, CascadeDecision, CascadeHead
    from repro.gnn.data import ContractGraph
    from repro.registry.store import ScanRegistry
    from repro.service.batch import BatchScanResult
    from repro.service.cache import GraphCache

BytecodeLike = Union[bytes, bytearray, str]


def coerce_bytecode(code: BytecodeLike) -> bytes:
    """Normalize any accepted bytecode representation to raw bytes.

    Accepts ``bytes``/``bytearray`` as-is and hex strings with or without a
    ``0x`` prefix.  Every scanning entry point funnels through this helper so
    single-contract and batch scans agree byte-for-byte on their input.
    """
    if isinstance(code, (bytes, bytearray)):
        return bytes(code)
    # collapse ALL whitespace, not just the edges: line-wrapped hex dumps are
    # common, and bytes.fromhex only skips interior spaces from Python 3.11 on
    text = "".join(code.split())
    if text.startswith(("0x", "0X")):
        text = text[2:]
    return bytes.fromhex(text)


class ScamDetector:
    """The user-facing detector.

    Typical usage::

        detector = ScamDetector()
        detector.train(training_corpus)
        report = detector.scan(bytecode)         # platform sniffed automatically
        if report.is_malicious:
            print(report.format())

    For repeated or high-volume scanning, attach a graph cache and use the
    batch entry points (both delegate to
    :class:`~repro.service.batch.BatchScanner`)::

        from repro.service import GraphCache

        cache = GraphCache.for_config(detector.config, disk_dir="~/.scamdetect")
        result = detector.scan_many(codes, cache=cache)
        result = detector.scan_directory("submissions/", cache=cache)

    Args:
        config: Pipeline configuration; defaults train a 2-layer GCN.
        threshold: Probability above which a contract is flagged malicious.
        explain: Attach human-readable indicator notes to every report
            (runs the indicator rules over each lowered CFG, plus one CFG
            build per graph-cache hit; batch deployments that only need
            verdicts can disable it).
        cascade: Enable the tier-0 cascade pre-filter on every scan entry
            point: confident-benign contracts short-circuit before graph
            lowering (verdicts carry ``stage: "prefilter"``), the uncertain
            band escalates to the GNN.  Requires a cascade head on the
            pipeline (train with ``cascade=True`` or load a bundle saved
            with one); scanning without one raises.
        cascade_margin: Override the head's configured safety margin
            (larger = fewer short-circuits); ``None`` keeps the trained
            default.
    """

    def __init__(self, config: Optional[ScamDetectConfig] = None,
                 threshold: float = 0.5, explain: bool = True,
                 cascade: bool = False,
                 cascade_margin: Optional[float] = None) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        if cascade_margin is not None and cascade_margin < 0.0:
            raise ValueError("cascade_margin must be >= 0")
        self.config = config or ScamDetectConfig()
        self.threshold = threshold
        self.explain = explain
        self.cascade = bool(cascade)
        self.cascade_margin = cascade_margin
        self.pipeline = ScamDetectPipeline(self.config)

    # ------------------------------------------------------------------ #

    @property
    def is_trained(self) -> bool:
        """True once :meth:`train` (or :meth:`load`) has produced a model."""
        return self.pipeline.is_fitted

    def train(self, corpus: Corpus,
              validation_corpus: Optional[Corpus] = None,
              cascade: Union[bool, "CascadeConfig", None] = None
              ) -> "ScamDetector":
        """Train the underlying pipeline on a labelled corpus; returns self.

        Args:
            corpus: Labelled training corpus (may mix EVM and WASM samples).
            validation_corpus: Optional held-out corpus enabling
                early-stopping on validation accuracy.
            cascade: ``True`` (or a
                :class:`~repro.cascade.head.CascadeConfig`) additionally
                trains the tier-0 pre-filter head on the same corpus and
                attaches it to the pipeline; ``None``/``False`` trains the
                GNN only.  Training the head changes
                :meth:`~repro.core.pipeline.ScamDetectPipeline.
                model_fingerprint`.
        """
        self.pipeline.fit(corpus, validation_corpus=validation_corpus)
        if cascade:
            self.pipeline.fit_cascade(
                corpus, cascade if cascade is not True else None)
        return self

    def evaluate(self, corpus: Corpus) -> Dict[str, float]:
        """Headline metrics (accuracy, precision, recall, F1, ROC-AUC) on a
        labelled corpus."""
        return self.pipeline.evaluate(corpus)

    # ------------------------------------------------------------------ #
    # tier-0 cascade pre-filter

    def cascade_head(self) -> Optional["CascadeHead"]:
        """The *active* tier-0 head, or None when the cascade is off.

        Raises RuntimeError when the cascade was requested but the
        pipeline carries no trained head (the bundle was saved without
        one) -- silently scanning GNN-only would misreport the served
        configuration.
        """
        if not self.cascade:
            return None
        head = self.pipeline.cascade
        if head is None or not head.is_fitted:
            raise RuntimeError(
                "cascade scanning requested but the pipeline has no trained "
                "cascade head; train with cascade=True (CLI: train "
                "--cascade) or load a bundle saved with one")
        return head

    def effective_cascade_margin(self) -> float:
        """The margin in force for this detector's scans."""
        head = self.cascade_head()
        if head is None:
            raise RuntimeError("cascade is not enabled on this detector")
        return head.effective_margin(self.cascade_margin)

    def cascade_decide(self, raw_codes: Sequence[bytes],
                       platforms: Sequence[str]
                       ) -> Optional[List["CascadeDecision"]]:
        """Tier-0 decisions for resolved-platform raw bytecode, or None
        when the cascade is off.

        The detector's own verdict ``threshold`` caps the short-circuit
        band, so a short-circuited report is always labelled benign no
        matter how aggressive the scan threshold is.
        """
        head = self.cascade_head()
        if head is None:
            return None
        return head.decide(raw_codes, platforms,
                           margin=self.cascade_margin,
                           benign_ceiling=self.threshold)

    def build_prefilter_report(self, raw: bytes, sample_id: str,
                               platform: str,
                               probability: float) -> VerdictReport:
        """Compose the report for a tier-0 short-circuited contract.

        Mirrors :meth:`build_report` minus everything that needs lowering:
        no CFG statistics, no indicator notes (they require a CFG build,
        which is exactly the cost the short-circuit avoids).  The cheap
        raw-bytes minimal-proxy check still runs so that warning is never
        lost.  ``stage: "prefilter"`` marks the verdict's provenance.
        """
        probability = round(float(probability), 9)
        notes: List[str] = []
        if platform == "evm" and is_minimal_proxy(raw):
            notes.append("ERC-1167 minimal proxy: verdict reflects the proxy stub, "
                         "scan the implementation contract for a definitive answer")
        return VerdictReport(
            sample_id=sample_id,
            platform=platform,
            label=1 if probability >= self.threshold else 0,
            malicious_probability=probability,
            cfg_blocks=0,
            cfg_edges=0,
            num_instructions=len(raw),
            model=self.pipeline.describe(),
            notes=notes,
            stage="prefilter")

    def model_identity(self) -> str:
        """The identity registry rows and caches are keyed on.

        The pipeline's :meth:`~repro.core.pipeline.ScamDetectPipeline.
        model_fingerprint` already folds in the fingerprint of an attached
        cascade head; on top of that, scanning with the cascade *enabled*
        (and the margin in force) is recorded in the identity, so verdict
        rows written by a cascade scan are never served to a GNN-only scan
        of the same bundle, or to a scan at a different margin.
        """
        identity = self.pipeline.model_fingerprint()
        if self.cascade:
            margin = self.effective_cascade_margin()
            identity = f"{identity}+cascade-m{margin:.9g}"
        return identity

    # ------------------------------------------------------------------ #

    def build_report(self, raw: bytes, sample_id: str, platform: str,
                     probability: float, graph: "ContractGraph",
                     indicator_notes: Sequence[str] = ()) -> VerdictReport:
        """Compose the :class:`VerdictReport` for one scored contract.

        The scan engine (:mod:`repro.core.engine`) calls this for every
        entry point, which is what guarantees their verdicts are identical:
        the threshold rule, notes and CFG statistics all come from the same
        code path.  ``indicator_notes`` are the formatted indicators of the
        contract's CFG; the engine passes them when ``explain`` is on.  The
        probability is quantized to 9 decimals before anything
        else happens so that verdicts are *batch-invariant*: BLAS reduction
        order differs between a lone forward pass and the same graph inside
        a stacked mini-batch (~1e-13 score noise), and quantizing far above
        that noise floor -- but far below any decision-relevant precision --
        keeps the published report independent of batch composition.
        """
        probability = round(float(probability), 9)
        label = 1 if probability >= self.threshold else 0
        notes = list(indicator_notes)
        if platform == "evm" and is_minimal_proxy(raw):
            notes.append("ERC-1167 minimal proxy: verdict reflects the proxy stub, "
                         "scan the implementation contract for a definitive answer")
        if graph.num_nodes >= (self.config.max_nodes or 512):
            notes.append("CFG truncated to max_nodes; consider raising "
                         "ScamDetectConfig.max_nodes for very large contracts")
        return VerdictReport(
            sample_id=sample_id,
            platform=platform,
            label=label,
            malicious_probability=probability,
            cfg_blocks=graph.num_nodes,
            cfg_edges=int(graph.adjacency.sum() - graph.num_nodes),
            num_instructions=len(raw),
            model=self.pipeline.describe(),
            notes=notes)

    def scan(self, code: BytecodeLike, platform: Optional[str] = None,
             sample_id: str = "contract") -> VerdictReport:
        """Scan a single contract and return a :class:`VerdictReport`.

        Args:
            code: Raw bytecode (bytes or hex string).
            platform: "evm" or "wasm"; sniffed from the code when omitted.
            sample_id: Identifier echoed into the report.

        Raises:
            RuntimeError: If called before :meth:`train` / :meth:`load`.
        """
        return self._run_engine([code], [sample_id], [platform])[0]

    def scan_batch(self, codes: Iterable[BytecodeLike],
                   platform: Optional[str] = None,
                   sample_ids: Optional[Sequence[str]] = None) -> ScanSummary:
        """Scan many contracts in one engine run (one batched model call)
        and return a :class:`ScanSummary`; prefer :meth:`scan_many` to reuse
        a graph cache or a verdict registry across calls."""
        codes = list(codes)
        if sample_ids is None:
            sample_ids = [f"contract-{index:04d}" for index in range(len(codes))]
        return ScanSummary(reports=self._run_engine(
            codes, sample_ids, [platform] * len(codes)))

    def _run_engine(self, codes: Sequence[BytecodeLike], ids: Sequence[str],
                    platforms: Sequence[Optional[str]]) -> List[VerdictReport]:
        """Reports of one engine run without a registry."""
        if not self.is_trained:
            raise RuntimeError("ScamDetector.scan called before train()")
        raw_codes = [coerce_bytecode(code) for code in codes]
        return ScanEngine(self).run(raw_codes, ids, platforms).reports

    def scan_many(self, codes: Iterable[BytecodeLike],
                  platform: Optional[str] = None,
                  sample_ids: Optional[Sequence[str]] = None,
                  cache: Optional["GraphCache"] = None,
                  shards: int = 1,
                  registry: Optional["ScanRegistry"] = None
                  ) -> "BatchScanResult":
        """Scan many contracts through the batch service layer.

        Args:
            codes: Bytecode inputs (bytes or hex strings).
            platform: Force one platform for all inputs; sniffed per input
                when omitted.
            sample_ids: Optional identifiers, parallel to ``codes``.
            cache: Optional :class:`~repro.service.cache.GraphCache`; attach
                the same cache across calls to skip re-lowering repeated
                bytecode.
            shards: Scan worker *processes*; ``>= 2`` shards the scan
                across a :class:`~repro.service.sharded.ShardedScanner`
                pool by content hash (verdicts stay bit-identical to
                :meth:`scan`).  The throwaway pool is released before this
                returns; hold a ``BatchScanner(shards=N)`` instead to amortise
                pool startup over many calls.
            registry: Optional persistent
                :class:`~repro.registry.store.ScanRegistry`: known bytecode
                is answered from the store without lowering or inference,
                and fresh verdicts are recorded durably (see
                :class:`~repro.service.batch.BatchScanner`).

        Returns:
            A :class:`~repro.service.batch.BatchScanResult` with per-contract
            reports (bit-identical to :meth:`scan`), wall-clock timing and
            cache statistics.
        """
        from repro.service.batch import BatchScanner

        previous_cache = self.pipeline.graph_cache
        scanner = BatchScanner(self, cache=cache, shards=shards,
                               registry=registry)
        try:
            return scanner.scan_codes(codes, platform=platform,
                                      sample_ids=sample_ids)
        finally:
            # the scanner is throwaway here: restore whatever cache (or None)
            # the pipeline had so this call has no lasting side effect
            scanner.close()
            self.pipeline.graph_cache = previous_cache

    def scan_directory(self, directory, pattern: str = "*",
                       platform: Optional[str] = None,
                       cache: Optional["GraphCache"] = None,
                       shards: int = 1,
                       registry: Optional["ScanRegistry"] = None,
                       recursive: bool = True) -> "BatchScanResult":
        """Scan every bytecode file under ``directory`` (see
        :meth:`~repro.service.batch.BatchScanner.scan_directory`).

        Files ending in ``.hex`` are parsed as hex text; anything else is
        read as raw binary.  Sample ids are the file names relative to
        ``directory``.  ``shards >= 2`` scans on a multi-process pool, and
        ``registry=`` answers known bytecode from the persistent verdict
        store (see :meth:`scan_many`).  ``recursive=False`` restricts the
        walk to the top level.
        """
        from repro.service.batch import BatchScanner

        previous_cache = self.pipeline.graph_cache
        scanner = BatchScanner(self, cache=cache, shards=shards,
                               registry=registry)
        try:
            return scanner.scan_directory(directory, pattern=pattern,
                                          platform=platform,
                                          recursive=recursive)
        finally:
            scanner.close()
            self.pipeline.graph_cache = previous_cache

    def save(self, path) -> None:
        """Persist the trained pipeline to ``path`` (.json + .npz pair).

        The bundle records the config's graph fingerprint so that loads can
        detect caches (or bundles) produced under an incompatible lowering
        configuration.
        """
        from repro.core.persistence import save_pipeline

        save_pipeline(self.pipeline, path)

    @classmethod
    def load(cls, path, threshold: float = 0.5, explain: bool = True,
             cascade: bool = False,
             cascade_margin: Optional[float] = None) -> "ScamDetector":
        """Load a detector previously written by :meth:`save`.

        Args:
            path: Base path of the ``.json``/``.npz`` bundle.
            threshold: Malicious-probability decision threshold.
            explain: Attach indicator notes to reports (see ``__init__``).
            cascade: Enable the tier-0 pre-filter; the bundle must have
                been saved with a trained cascade head (the first scan
                raises otherwise).
            cascade_margin: Override the head's configured margin (see
                ``__init__``).
        """
        from repro.core.persistence import load_pipeline

        pipeline = load_pipeline(path)
        detector = cls(pipeline.config, threshold=threshold, explain=explain,
                       cascade=cascade, cascade_margin=cascade_margin)
        detector.pipeline = pipeline
        return detector

    def scan_corpus(self, corpus: Corpus) -> ScanSummary:
        """Scan every sample of a corpus in one engine run (labels in the
        corpus are ignored)."""
        samples = list(corpus)
        return ScanSummary(reports=self._run_engine(
            [sample.bytecode for sample in samples],
            [sample.sample_id for sample in samples],
            [sample.platform for sample in samples]))

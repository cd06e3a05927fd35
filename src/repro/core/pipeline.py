"""The trainable ScamDetect pipeline: bytecode -> CFG -> GNN -> verdict."""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.config import ScamDetectConfig
from repro.core.frontends import detect_platform, get_frontend
from repro.datasets.corpus import ContractSample, Corpus
from repro.gnn.data import ContractGraph, cfg_to_graph
from repro.gnn.model import GraphClassifier
from repro.gnn.training import GNNTrainer
from repro.ir.cfg import ControlFlowGraph
from repro.ir.features import NUM_STRUCTURAL_FEATURES, SEMANTIC_MARKERS
from repro.ir.normalization import CATEGORY_VOCABULARY
from repro.ml.metrics import classification_summary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.cascade.head import CascadeConfig, CascadeHead
    from repro.service.cache import GraphCache


class ScamDetectPipeline:
    """End-to-end trainable detection pipeline.

    The pipeline is platform-agnostic: training corpora and scan inputs may
    mix EVM and WASM contracts freely, because every sample is lowered into
    the shared IR by its platform frontend before reaching the model.

    Lowering (bytecode -> CFG -> graph) is the dominant cost of both training
    and scanning, so every lowering entry point honours the optional
    ``graph_cache`` hook: attach a
    :class:`~repro.service.cache.GraphCache` (directly or via
    :meth:`set_graph_cache`) and repeated lowerings of identical bytecode are
    served from the cache instead of being recomputed.

    Args:
        config: Pipeline hyper-parameters (defaults are sensible for the
            synthetic corpora used in the experiments).
        graph_cache: Optional content-addressed cache consulted by
            :meth:`sample_to_graph` and everything built on it.
    """

    def __init__(self, config: Optional[ScamDetectConfig] = None,
                 graph_cache: Optional["GraphCache"] = None) -> None:
        self.config = config or ScamDetectConfig()
        self.config.validate()
        self._check_cache_fingerprint(graph_cache)
        self.graph_cache = graph_cache
        self._trainer: Optional[GNNTrainer] = None
        self._model: Optional[GraphClassifier] = None
        #: Optional tier-0 pre-filter head (see :mod:`repro.cascade`);
        #: attached by :meth:`fit_cascade` or restored from a bundle.
        self.cascade: Optional["CascadeHead"] = None

    def set_graph_cache(self, cache: Optional["GraphCache"]) -> "ScamDetectPipeline":
        """Attach (or detach, with None) a lowering cache; returns self.

        Raises ValueError if the cache was built for a different graph
        fingerprint: serving graphs lowered under another config would
        silently change verdicts, so a mismatch is always an error, and the
        rejected cache is never attached.
        """
        self._check_cache_fingerprint(cache)
        self.graph_cache = cache
        return self

    def _check_cache_fingerprint(self, cache: Optional["GraphCache"]) -> None:
        if cache is not None and cache.fingerprint != self.config.graph_fingerprint():
            raise ValueError(
                f"graph cache fingerprint {cache.fingerprint!r} does not match "
                f"the pipeline config fingerprint "
                f"{self.config.graph_fingerprint()!r}; build the cache with "
                f"GraphCache.for_config(pipeline.config)")

    # ------------------------------------------------------------------ #
    # graph preparation

    def _node_feature_dim(self) -> int:
        width = len(CATEGORY_VOCABULARY)
        if self.config.include_marker_features:
            width += len(SEMANTIC_MARKERS)
        if self.config.include_structural_features:
            width += NUM_STRUCTURAL_FEATURES
        return width

    def sample_to_graph(self, sample: ContractSample) -> ContractGraph:
        """Lower one sample into a GNN-ready graph via its platform frontend.

        When a ``graph_cache`` is attached the lowering is served from the
        cache on a hit and stored into it on a miss; cached graphs are
        bit-identical to freshly lowered ones.
        """
        return self._lower(sample)[0]

    def _lower(self, sample: ContractSample
               ) -> Tuple[ContractGraph, Optional[ControlFlowGraph]]:
        """``(graph, cfg)`` of one sample; ``cfg`` is None on a cache hit."""
        cache = self.graph_cache
        if cache is not None:
            cached = cache.get(sample.bytecode, sample.platform,
                               label=sample.label, sample_id=sample.sample_id)
            if cached is not None:
                return cached, None
        frontend = get_frontend(sample.platform)
        cfg = frontend.build_cfg(sample.bytecode, name=sample.sample_id)
        graph = cfg_to_graph(cfg, label=sample.label, sample_id=sample.sample_id,
                             include_structural=self.config.include_structural_features,
                             feature_mode=self.config.node_feature_mode,
                             include_markers=self.config.include_marker_features,
                             max_nodes=self.config.max_nodes)
        if cache is not None:
            cache.put(sample.bytecode, sample.platform, graph)
        return graph, cfg

    def corpus_to_graphs(self, corpus: Corpus) -> List[ContractGraph]:
        """Lower a whole corpus into graphs (cache-aware, order-preserving)."""
        return [self.sample_to_graph(sample) for sample in corpus]

    # ------------------------------------------------------------------ #
    # training and inference

    @property
    def is_fitted(self) -> bool:
        return self._trainer is not None

    @property
    def model(self) -> GraphClassifier:
        if self._model is None:
            raise RuntimeError("pipeline used before fit")
        return self._model

    def fit(self, corpus: Corpus,
            validation_corpus: Optional[Corpus] = None) -> "ScamDetectPipeline":
        """Train the GNN on ``corpus`` (optionally with early-stopping validation)."""
        graphs = self.corpus_to_graphs(corpus)
        validation_graphs = (self.corpus_to_graphs(validation_corpus)
                             if validation_corpus is not None else None)
        self._model = GraphClassifier(
            architecture=self.config.architecture,
            in_features=self._node_feature_dim(),
            hidden_features=self.config.hidden_features,
            num_layers=self.config.num_layers,
            readout_kind=self.config.readout,
            dropout_rate=self.config.dropout,
            seed=self.config.seed)
        self._trainer = GNNTrainer(
            self._model,
            learning_rate=self.config.learning_rate,
            epochs=self.config.epochs,
            batch_size=self.config.batch_size,
            weight_decay=self.config.weight_decay,
            seed=self.config.seed,
            patience=5 if validation_graphs is not None else None)
        self._trainer.fit(graphs,
                          validation_graphs=validation_graphs,
                          validation_labels=[g.label for g in validation_graphs]
                          if validation_graphs is not None else None)
        return self

    def fit_cascade(self, corpus: Corpus,
                    cascade_config: Optional["CascadeConfig"] = None
                    ) -> "ScamDetectPipeline":
        """Train and attach the tier-0 cascade pre-filter on ``corpus``.

        The head is persisted inside the bundle by
        :func:`~repro.core.persistence.save_pipeline` and its fingerprint
        is folded into :meth:`model_fingerprint`, so attaching (or
        retraining) a cascade changes the model identity the registry and
        caches key on.
        """
        from repro.cascade.head import CascadeHead

        self.cascade = CascadeHead(cascade_config).fit(corpus)
        return self

    def predict_proba(self, corpus: Corpus) -> np.ndarray:
        """Malicious-class probability matrix over ``corpus``."""
        if self._trainer is None:
            raise RuntimeError("pipeline used before fit")
        graphs = self.corpus_to_graphs(corpus)
        return self._trainer.predict_proba(graphs)

    def predict(self, corpus: Corpus) -> np.ndarray:
        """Predicted labels over ``corpus``."""
        return np.argmax(self.predict_proba(corpus), axis=1)

    def evaluate(self, corpus: Corpus) -> Dict[str, float]:
        """Headline metrics of the fitted pipeline on ``corpus``."""
        probabilities = self.predict_proba(corpus)
        predictions = np.argmax(probabilities, axis=1)
        labels = np.asarray(corpus.labels())
        return classification_summary(labels, predictions,
                                      scores=probabilities[:, 1])

    # ------------------------------------------------------------------ #
    # raw-bytecode entry points (used by the detector API)

    def analyse_bytecode(self, code: bytes, platform: Optional[str] = None,
                         sample_id: str = "contract"
                         ) -> Tuple[ContractGraph, Optional[ControlFlowGraph]]:
        """Lower raw contract code; returns ``(graph, cfg)``.

        Args:
            code: Raw bytecode bytes.
            platform: "evm" or "wasm"; sniffed from the code when omitted.
            sample_id: Identifier carried into the graph for traceability.

        The lowering goes through :meth:`sample_to_graph`'s cache-aware
        path, so an attached ``graph_cache`` short-circuits repeated
        analyses of the same code.  ``cfg`` is the control-flow graph the
        lowering built (the scan engine's explain notes come from it), or
        None when the graph came from the cache.
        """
        resolved_platform = platform or detect_platform(code)
        sample = ContractSample(sample_id=sample_id, platform=resolved_platform,
                                bytecode=bytes(code), label=0, family="unknown")
        return self._lower(sample)

    def describe(self) -> str:
        """One-line description of the fitted model (or the configuration)."""
        if self._model is not None:
            return f"scamdetect-{self._model.describe()}"
        return (f"scamdetect-{self.config.architecture}"
                f"(unfitted, layers={self.config.num_layers})")

    def model_fingerprint(self) -> str:
        """Content identity of the *fitted model*: the description plus a
        digest of every parameter tensor.

        :meth:`describe` is an architecture label -- two retrains of the
        same config share it even though their scores differ.  Anything
        that must never serve one model's verdicts as another's (the
        persistent :class:`~repro.registry.store.ScanRegistry`) keys on
        this fingerprint instead, which changes whenever any weight does.
        Hashing the ~1e3-1e5 parameters costs well under a millisecond, so
        callers may recompute it per scan batch.

        Raises:
            RuntimeError: If called before :meth:`fit` (an unfitted model
                has no scores to identify).
        """
        if self._model is None:
            raise RuntimeError("pipeline used before fit")
        digest = hashlib.sha256(self.describe().encode("utf-8"))
        for parameter in self._model.parameters():
            array = np.ascontiguousarray(parameter.data)
            digest.update(str(array.shape).encode("utf-8"))
            digest.update(array.tobytes())
        if self.cascade is not None:
            # an attached tier-0 head changes what the bundle can decide,
            # so its own fingerprint is part of the model identity --
            # registry rows and caches never mix cascade generations
            digest.update(b"cascade:")
            digest.update(self.cascade.fingerprint().encode("utf-8"))
        return digest.hexdigest()[:16]

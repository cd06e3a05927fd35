"""Graph-classification model assembled from convolution layers + readout + head."""

from __future__ import annotations


import numpy as np

from repro.autograd.functional import dropout, relu
from repro.autograd.module import Linear, Module
from repro.autograd.tensor import Tensor
from repro.gnn.data import ContractGraph, GraphBatch
from repro.gnn.layers import make_conv
from repro.gnn.pooling import READOUTS, readout, readout_batch

#: The architectures evaluated in E3/E4 (the paper's Phase-1 candidate list).
GNN_ARCHITECTURES = ("gcn", "gat", "gin", "tag", "graphsage")


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift stabilization (plain NumPy)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exponentials = np.exp(shifted)
    return exponentials / exponentials.sum(axis=1, keepdims=True)


class GraphClassifier(Module):
    """A stack of graph convolutions, a readout and an MLP classification head.

    Args:
        architecture: One of :data:`GNN_ARCHITECTURES`.
        in_features: Node feature dimensionality.
        hidden_features: Width of every convolution layer.
        num_layers: Number of convolution layers (ablated in E7).
        num_classes: Output classes (2 for benign/malicious).
        readout_kind: ``"mean"``, ``"sum"`` or ``"max"`` (ablated in E7).
        dropout_rate: Dropout applied to the graph embedding during training.
        seed: Parameter-initialization seed.
    """

    def __init__(self, architecture: str = "gcn", in_features: int = 24,
                 hidden_features: int = 32, num_layers: int = 2,
                 num_classes: int = 2, readout_kind: str = "mean",
                 dropout_rate: float = 0.1, seed: int = 0) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if readout_kind not in READOUTS:
            raise ValueError(f"unknown readout {readout_kind!r}")
        self.architecture = architecture.lower()
        self.readout_kind = readout_kind
        self.dropout_rate = dropout_rate
        self._rng = np.random.default_rng(seed)

        self.convs = []
        width_in = in_features
        for _ in range(num_layers):
            self.convs.append(make_conv(self.architecture, width_in, hidden_features,
                                        rng=self._rng))
            width_in = hidden_features
        self.head_hidden = Linear(hidden_features, hidden_features, rng=self._rng)
        self.head_output = Linear(hidden_features, num_classes, rng=self._rng)
        # every verdict report quotes this; the layer shapes are fixed here
        # (load_state_dict refuses a shape change), so count the parameters
        # once instead of walking them per report
        self._description = (
            f"{self.architecture}(layers={len(self.convs)}, "
            f"hidden={self.head_hidden.in_features}, "
            f"readout={self.readout_kind}, params={self.num_parameters()})")

    # ------------------------------------------------------------------ #

    def embed(self, graph: ContractGraph) -> Tensor:
        """Graph embedding of shape (1, hidden_features)."""
        x = Tensor(graph.node_features)
        for conv in self.convs:
            x = relu(conv(x, graph))
        return readout(x, self.readout_kind)

    def forward(self, graph: ContractGraph) -> Tensor:
        """Class logits of shape (1, num_classes)."""
        embedding = self.embed(graph)
        embedding = dropout(embedding, self.dropout_rate, self._rng,
                            training=self.training)
        hidden = relu(self.head_hidden(embedding))
        return self.head_output(hidden)

    def predict_proba_graph(self, graph: ContractGraph) -> np.ndarray:
        """Class probabilities of a single graph (inference helper)."""
        logits = self.forward(graph).numpy()
        return _softmax_rows(logits)[0]

    # ------------------------------------------------------------------ #
    # batched paths (one pass per mini-batch instead of per graph)

    def embed_batch(self, batch: GraphBatch) -> Tensor:
        """Graph embeddings of shape (num_graphs, hidden_features)."""
        x = Tensor(batch.node_features)
        for conv in self.convs:
            x = relu(conv.forward_batch(x, batch))
        return readout_batch(x, batch.segment_ids, batch.num_graphs,
                             self.readout_kind)

    def forward_batch(self, batch: GraphBatch) -> Tensor:
        """Class logits of shape (num_graphs, num_classes).

        Row ``i`` equals :meth:`forward` on ``batch.graphs[i]`` up to
        floating-point reduction-order noise.  Dropout draws one (B, hidden)
        mask, which consumes the model RNG stream exactly as B per-graph
        (1, hidden) draws would -- so batched and per-graph training see the
        same dropout noise.
        """
        embeddings = self.embed_batch(batch)
        embeddings = dropout(embeddings, self.dropout_rate, self._rng,
                             training=self.training)
        hidden = relu(self.head_hidden(embeddings))
        return self.head_output(hidden)

    def predict_proba_batch(self, batch: GraphBatch) -> np.ndarray:
        """Class-probability matrix (num_graphs, num_classes) of a batch."""
        return _softmax_rows(self.forward_batch(batch).numpy())

    def describe(self) -> str:
        """One-line architecture summary (experiment tables, the ``model``
        field of every verdict report)."""
        return self._description

"""Skeleton-conditioned message-passing regressors.

Each table row becomes one graph: nodes are the feature columns, node
features are the row's scalar values, and the regression target's node is
masked to zero so its label can never leak through the input side.
``build_instances`` turns a whole table into one ``GraphBatch``: the
skeleton's node order, a (rows, nodes) feature matrix with the target slot
zeroed, the labels, and the rows' field/day/treatment tags.  Training and
prediction read its arrays directly.  Two architectures share the encoding
and one model type, a stack of graph convolutions and a dense head read off
the target node:

* GraphSAGE-style — three convolutions, each concatenating a node's state
  with the mean of its in-neighbors' states before an affine map (ReLU on
  the first two, identity on the last), then a three-layer head;
* edge-conditioned (ECC) — two convolutions whose weight [W_root | Θ] is
  generated from the (constant 1.0) edge attribute by a small filter
  network: x_i' = W_root x_i + mean_j Θ x_j + b over in-neighbors j (the
  root weight of ECC and MPNN, PyG's ``NNConv``), ReLU between them, then
  a one-layer head.

A model is its list of ``engine.Layer``s, drawn as layers: the
convolutions, each weight read against [self | mean] (an ECC layer holds
two weight tensors, its filter's weight and bias, whose sum is the
generated weight), then the head, dense layers as in the MLP baseline, on
the target's final states.  Both run on node-major (nodes, rows, dim)
states.  Training is ``engine.fit`` and prediction one ``engine.Step``'s
forward half, over the convolutions given the plan's graphs.  So
each convolution computes only the node states that the target reads
(GraphSAGE's minibatch scheme, Hamilton et al. 2017, Alg. 2, exact here
because every neighbor is kept).
A model owns the skeleton it was built on: prediction refuses any other
skeleton, and a checkpoint's header is written from the model's own.
``layer_plan`` walks out from the target, once per fit and once per
prediction: the last layer outputs the target alone, and each layer's
input nodes — its in-set — are its output nodes and their in-neighbors,
the outputs of the layer before.  So layer k outputs the nodes within
(depth − k) in-hops of the target.
Each layer's graph is two fixed arrays: the position of every output node
in the in-set, and an (out, in) block whose row i averages node i's
in-neighbors.
A node with no in-neighbors has an all-zero row there, so its aggregate is
zero: its SAGE output reads its own state alone, its ECC output is
W_root x_self + b.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from numbers import Integral
from typing import NamedTuple

import numpy as np

from . import engine, graphs
from .engine import Layer, Tensor
from .errors import ConfigError, GraphError, NumericError, SchemaError, require_count
from .ingest import require_finite


@dataclass(frozen=True)
class GraphSkeleton:
    """Directed feature graph over the model table's columns.

    ``nodes`` are kept as a tuple and ``edges`` as a sorted tuple of pairs,
    so the skeleton hashes whatever sequences it was given and downstream
    passes are invariant to the edges' order.  N(i) are i's parents.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    target: str

    def __post_init__(self):
        nodes, edges = graphs.checked_graph(self.nodes, self.edges)
        if self.target not in nodes:
            raise GraphError(f"target {self.target!r} not among nodes")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", tuple(sorted(edges)))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def index(self, node: str) -> int:
        return self.nodes.index(node)

    def in_neighbors(self, node: str) -> tuple[str, ...]:
        return tuple(sorted(graphs.in_neighbors(self, node)))


def skeleton_from_pattern(pattern, nodes, target: str) -> GraphSkeleton:
    """Build a skeleton from a mixed-edge discovery pattern.

    Directed edges are kept as-is; an undirected edge carries messages
    both ways, so it expands to a directed pair.  The skeleton's nodes are
    the sorted ``nodes``, so the caller's column order cannot reach the
    models' node layout.
    """
    edges = list(pattern.directed)
    for a, b in pattern.undirected:
        edges.append((a, b))
        edges.append((b, a))
    return GraphSkeleton(nodes=tuple(graphs.sorted_labels(nodes)), edges=tuple(edges), target=target)


class ConvLayer(NamedTuple):
    """One convolution's graph."""

    self_index: np.ndarray  # (out,) each output node's position in the in-set
    agg: np.ndarray  # (out, in) row i: mean over output node i's in-neighbors


@dataclass(frozen=True, eq=False)
class LayerPlan:
    """The node sets a stack of convolutions reads the target through."""

    reads: np.ndarray  # skeleton slots of the first layer's in-set, ascending
    layers: tuple[ConvLayer, ...]  # input side first; the last outputs the target


def layer_plan(skeleton: GraphSkeleton, depth: int) -> LayerPlan:
    """The target's receptive field, layer by layer, for ``depth``
    convolutions: a layer's in-set is its output nodes and their
    in-neighbors.  Each fit and each prediction builds its own.
    GraphError unless ``depth`` is an int, not a bool, of at least 0."""
    if isinstance(depth, bool) or not isinstance(depth, Integral) or depth < 0:
        raise GraphError(f"a convolution depth must be an int >= 0, got {depth!r}")
    slot = {node: i for i, node in enumerate(skeleton.nodes)}
    nbrs = [[slot[a] for a in skeleton.in_neighbors(node)] for node in skeleton.nodes]
    sets = [[slot[skeleton.target]]]  # output sets, from the target outward
    for _ in range(depth):
        nxt = {j for i in sets[-1] for j in nbrs[i]}
        sets.append(sorted(nxt.union(sets[-1])))
    layers = []
    for out, ins in zip(sets[-2::-1], sets[::-1]):
        pos = {j: k for k, j in enumerate(ins)}
        agg = np.zeros((len(out), len(ins)))
        for r, i in enumerate(out):
            for j in nbrs[i]:
                agg[r, pos[j]] = 1.0 / len(nbrs[i])
        layers.append(ConvLayer(np.array([pos[i] for i in out], dtype=np.intp), agg))
    return LayerPlan(np.array(sets[-1], dtype=np.intp), tuple(layers))


def prune_to_target(skeleton: GraphSkeleton, hops: int) -> GraphSkeleton:
    """Induced subgraph on the target's ``hops``-step in-closure: the
    nodes a stack of ``hops`` convolutions reads (``layer_plan``'s
    first in-set).  Training on it gives the same predictions and
    gradients as on the full skeleton."""
    keep = {skeleton.nodes[i] for i in layer_plan(skeleton, hops).reads}
    nodes = tuple(n for n in skeleton.nodes if n in keep)
    edges = tuple((a, b) for a, b in skeleton.edges if a in keep and b in keep)
    return GraphSkeleton(nodes=nodes, edges=edges, target=skeleton.target)


CONV_DEPTH = {"sage": 3, "ecc": 2}


@dataclass(frozen=True, eq=False)
class GraphBatch:
    """A table's rows as model inputs over one skeleton's ``nodes``."""

    nodes: tuple[str, ...]
    features: np.ndarray  # (rows, n_nodes) node scalar inputs, target slot 0
    labels: np.ndarray  # (rows,) target values
    field_id: np.ndarray  # provenance of each row
    timestamps: np.ndarray
    treatment: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


def build_instances(table, skeleton: GraphSkeleton) -> GraphBatch:
    """The table's rows as one batch, its columns aligned to the skeleton
    by name."""
    if set(table.names) != set(skeleton.nodes):
        missing = sorted(set(skeleton.nodes) - set(table.names))
        extra = sorted(set(table.names) - set(skeleton.nodes))
        raise SchemaError(f"table/skeleton mismatch: missing {missing}, extra {extra}")
    feats = table.matrix(skeleton.nodes)
    t_idx = skeleton.index(skeleton.target)
    labels = feats[:, t_idx].copy()
    feats[:, t_idx] = 0.0
    require_finite(feats, "features", table)
    return GraphBatch(skeleton.nodes, feats, labels, table.field_id, table.timestamps, table.treatment)


# ---------------------------------------------------------------------------
# models


@dataclass
class GnnModel:
    """A stack of convolutions (input side first, with no graph: each fit
    and prediction gives them the plan's) and the dense head read off the
    target, over the skeleton the model was built on."""

    kind: str
    skeleton: GraphSkeleton
    convs: tuple[Layer, ...]
    head: list[Layer]

    @property
    def hidden(self) -> int:
        return self.convs[0].shape[0]

    @property
    def params(self) -> list[Tensor]:
        return engine.layer_params([*self.convs, *self.head])


def init_sage(skeleton: GraphSkeleton, seed: int = 0, hidden: int = 16) -> GnnModel:
    rng = np.random.default_rng(seed)
    h = hidden
    convs = tuple(engine.dense_layer(rng, h, 2 * d, relu=k < 2) for k, d in enumerate((1, h, h)))
    return GnnModel("sage", skeleton, convs, engine.dense_layers(rng, h, (h, h)))


def _ecc_layer(rng, out_dim: int, in_dim: int, relu: bool) -> Layer:
    """An ECC convolution: the (out, 2in) weight [W_root | Θ] its filter
    network generates from the edge attribute 1.0, the filter's weight
    column plus its bias, each read in that shape, and the layer's bias."""
    filt = engine.dense_layer(rng, out_dim * 2 * in_dim, 1)
    # same small-bias convention as dense_layer: keeps preactivations of
    # all-zero inputs (exactly the bias) off the ReLU kink
    bias = engine.parameter(rng.uniform(-0.05, 0.05, size=out_dim))
    return Layer((*filt.weight, filt.bias), (out_dim, 2 * in_dim), bias, relu=relu)


def init_ecc(skeleton: GraphSkeleton, seed: int = 0, hidden: int = 16) -> GnnModel:
    rng = np.random.default_rng(seed)
    h = hidden
    convs = (_ecc_layer(rng, h, 1, relu=True), _ecc_layer(rng, h, h, relu=False))
    return GnnModel("ecc", skeleton, convs, engine.dense_layers(rng, h, ()))


# ---------------------------------------------------------------------------
# forward


def _node_inputs(model: GnnModel, skeleton: GraphSkeleton, batch: GraphBatch) -> tuple[LayerPlan, np.ndarray]:
    """The batch's layer plan and node-major (in-set, rows, 1) input states."""
    if skeleton != model.skeleton:
        raise SchemaError("skeleton is not the graph the model was built on")
    if batch.nodes != skeleton.nodes:
        raise SchemaError(f"batch over nodes {batch.nodes} fed to a skeleton over {skeleton.nodes}")
    if not len(batch):
        raise NumericError("empty batch")
    plan = layer_plan(skeleton, CONV_DEPTH[model.kind])
    return plan, np.ascontiguousarray(batch.features[:, plan.reads].T)[:, :, None]


def _stack(model: GnnModel, plan: LayerPlan) -> list[engine.Layer]:
    """The convolutions on the plan's graphs, then the head on the
    target's (1, rows, hidden) final states."""
    return [c._replace(graph=g) for c, g in zip(model.convs, plan.layers, strict=True)] + model.head


def predict(model: GnnModel, skeleton: GraphSkeleton, batch: GraphBatch) -> np.ndarray:
    plan, h = _node_inputs(model, skeleton, batch)
    return engine.Step(h, _stack(model, plan)).forward().reshape(-1)


# ---------------------------------------------------------------------------
# training


_DEFAULT_LR = {"sage": 0.0015, "ecc": 0.0020}
_INIT = {"sage": init_sage, "ecc": init_ecc}


def _init_model(kind: str, skeleton: GraphSkeleton, seed: int, hidden: int) -> GnnModel:
    if kind not in _INIT:
        raise ConfigError(f"kind must be one of {sorted(_INIT)}")
    require_count(hidden, 1, f"{kind}: hidden must be >= 1, got {hidden}")
    require_count(seed, 0, f"{kind}: seed must be an int >= 0, got {seed!r}")
    return _INIT[kind](skeleton, seed=seed, hidden=hidden)


@dataclass
class TrainResult:
    model: GnnModel
    loss_history: list[float] = field(default_factory=list)

    @property
    def skeleton(self) -> GraphSkeleton:
        return self.model.skeleton


def train(
    kind: str,
    skeleton: GraphSkeleton,
    batch: GraphBatch,
    lr: float | None = None,
    epochs: int = 500,
    seed: int = 0,
    hidden: int = 16,
) -> TrainResult:
    """Full-batch MSE training with Adam; deterministic given ``seed``."""
    model = _init_model(kind, skeleton, seed, hidden)
    require_finite(batch.labels, "label", batch)
    if lr is None:
        lr = _DEFAULT_LR[kind]
    plan, h = _node_inputs(model, skeleton, batch)  # once per fit
    history = engine.fit(h, _stack(model, plan), batch.labels, lr, epochs, f"{kind} training (hidden={hidden})")
    return TrainResult(model=model, loss_history=history)


def _checkpoint_header(kind: str, hidden: int, skeleton: GraphSkeleton) -> dict:
    """What a checkpoint is valid for: the model, and the graph that fixes
    its layer plan."""
    return {
        "kind": kind,
        "hidden": hidden,
        "nodes": list(skeleton.nodes),
        "target": skeleton.target,
        "edges_sha256": hashlib.sha256(json.dumps(skeleton.edges).encode()).hexdigest(),
    }


def save_model(path, model: GnnModel) -> None:
    """A one-line JSON header naming the model and the graph it owns, then
    the parameters in ``engine.pack_params``'s layout."""
    header = json.dumps(_checkpoint_header(model.kind, model.hidden, model.skeleton), sort_keys=True)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n" + engine.pack_params(model.params))


def load_model(path, skeleton: GraphSkeleton) -> GnnModel:
    """The model saved at ``path``, of the kind and hidden size its header
    names; ``SchemaError`` unless it names a known kind and a size of at
    least 1, and was saved on this skeleton.  The header and the payload's
    size are checked before the model is drawn, so a header naming a
    large model costs nothing."""
    with open(path, "rb") as fh:
        line, _, payload = fh.read().partition(b"\n")
    try:
        header = json.loads(line)
    except (ValueError, RecursionError):  # no JSON header line: raw parameters or another file
        header = None
    if not isinstance(header, dict):
        raise SchemaError(f"{path} is not a checkpoint of this model and graph: no header")
    kind, hidden = header.get("kind"), header.get("hidden")
    if kind not in tuple(_INIT) or isinstance(hidden, bool) or not isinstance(hidden, int) or hidden < 1:
        raise SchemaError(f"{path} names no model: kind {kind!r}, hidden size {hidden!r}")
    expected = _checkpoint_header(kind, hidden, skeleton)
    if header != expected:
        problems = [
            f"{what} {', '.join(keys)}"
            for what, keys in (
                ("missing", [k for k in expected if k not in header]),
                ("unexpected", sorted(k for k in header if k not in expected)),
                ("differing", [k for k in expected if k in header and header[k] != expected[k]]),
            )
            if keys
        ]
        raise SchemaError(f"{path} is not a checkpoint of this model and graph: {'; '.join(problems)}")
    # every model of either kind holds more than hidden^2 float64 weights
    if len(payload) < 8 * hidden * hidden:
        raise SchemaError(f"{path}: checkpoint payload of {len(payload)} bytes cannot hold a model of hidden size {hidden}")
    model = _INIT[kind](skeleton, seed=0, hidden=hidden)
    engine.assign_params(model.params, engine.unpack_params(payload))
    return model

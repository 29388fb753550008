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
* edge-conditioned (ECC) — two convolutions whose weight matrix is
  generated from the (constant 1.0) edge attribute by a small filter
  network, mean-aggregated over in-neighbors plus a bias, ReLU between
  them, then a one-layer head.

The forward pass is the same for both: each convolution is one
``engine.graph_conv`` on node-major (nodes, rows, dim) states, given the
self positions (SAGE) or none (ECC) and the layer's weight (ECC's is
generated per pass), and the head is ``engine.dense_stack``, the stack the
MLP baseline uses.  Both read only the target's final state, so each
convolution computes only the node states that the target reads
(GraphSAGE's minibatch scheme, Hamilton et al. 2017, Alg. 2, exact here
because every neighbor is kept).  ``layer_plan`` walks out from the target
once per skeleton: the last layer outputs the target alone, and each
layer's input nodes — its in-set — are the outputs of the layer before.  A
SAGE layer's in-set is its output nodes and their in-neighbors; an ECC
layer, having no self term, reads the in-neighbors alone.  So SAGE layer k
outputs the nodes within (depth − k) in-hops of the target.  Each layer
carries two constants: the position of every output node in the in-set,
and an (out, in) block whose row i averages node i's in-neighbors.  A node
with no in-neighbors has an all-zero row there, so its aggregate is zero
(SAGE) and its ECC output is the bias alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import engine
from .engine import DenseParams, Tensor, constant
from .errors import GraphError, NumericError, SchemaError
from .ingest import require_finite


@dataclass(frozen=True)
class GraphSkeleton:
    """Directed feature graph over the model table's columns.

    ``edges`` are canonicalized to a sorted tuple so downstream passes
    are invariant to the order the edges were listed in.  A node's
    neighbors N(i) are its parents.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    target: str

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise GraphError("duplicate node labels")
        known = set(self.nodes)
        if self.target not in known:
            raise GraphError(f"target {self.target!r} not among nodes")
        for a, b in self.edges:
            if a not in known or b not in known:
                raise GraphError(f"edge ({a!r}, {b!r}) leaves the node set")
            if a == b:
                raise GraphError(f"self-loop on {a!r}")
        object.__setattr__(self, "edges", tuple(sorted(set(self.edges))))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def index(self, node: str) -> int:
        return self.nodes.index(node)

    def in_neighbors(self, node: str) -> tuple[str, ...]:
        return tuple(sorted(a for a, b in self.edges if b == node))


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
    return GraphSkeleton(nodes=tuple(sorted(nodes)), edges=tuple(edges), target=target)


@dataclass(frozen=True, eq=False)
class ConvLayer:
    """One convolution's graph constants (read-only arrays)."""

    self_index: np.ndarray | None  # (out,) each output node's position in the in-set (SAGE)
    agg: np.ndarray  # (out, in) row i: mean over output node i's in-neighbors


@dataclass(frozen=True, eq=False)
class LayerPlan:
    """The node sets a stack of convolutions reads the target through."""

    reads: np.ndarray  # skeleton slots of the first layer's in-set, ascending
    layers: tuple[ConvLayer, ...]  # input side first; the last outputs the target


@lru_cache(maxsize=128)
def layer_plan(skeleton: GraphSkeleton, depth: int, self_term: bool) -> LayerPlan:
    """The target's receptive field, layer by layer, for ``depth``
    convolutions: with ``self_term`` (SAGE) a layer's in-set is its output
    nodes and their in-neighbors, without (ECC) the in-neighbors alone.
    Built once per frozen skeleton."""
    slot = {node: i for i, node in enumerate(skeleton.nodes)}
    nbrs = [[slot[a] for a in skeleton.in_neighbors(node)] for node in skeleton.nodes]
    sets = [[slot[skeleton.target]]]  # output sets, from the target outward
    for _ in range(depth):
        nxt = {j for i in sets[-1] for j in nbrs[i]}
        sets.append(sorted(nxt.union(sets[-1]) if self_term else nxt))
    layers = []
    for out, ins in zip(sets[-2::-1], sets[::-1]):
        pos = {j: k for k, j in enumerate(ins)}
        agg = np.zeros((len(out), len(ins)))
        for r, i in enumerate(out):
            for j in nbrs[i]:
                agg[r, pos[j]] = 1.0 / len(nbrs[i])
        self_index = _frozen(np.array([pos[i] for i in out], dtype=np.intp)) if self_term else None
        layers.append(ConvLayer(self_index, _frozen(agg)))
    return LayerPlan(_frozen(np.array(sets[-1], dtype=np.intp)), tuple(layers))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # the plan is cached and shared
    return a


def prune_to_target(skeleton: GraphSkeleton, hops: int) -> GraphSkeleton:
    """Induced subgraph on the target's ``hops``-step in-closure: the
    nodes a stack of ``hops`` SAGE convolutions reads (``layer_plan``'s
    first in-set).  Training on it gives the same predictions and
    gradients as on the full skeleton."""
    if hops < 0:
        raise GraphError("hops must be nonnegative")
    keep = {skeleton.nodes[i] for i in layer_plan(skeleton, hops, True).reads}
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
class EccLayer:
    """Edge filter (scalar attribute -> flat out*in weight) plus bias."""

    filter: DenseParams
    bias: Tensor
    out_dim: int
    in_dim: int

    def __post_init__(self):
        if self.filter.weight.values.shape != (self.out_dim * self.in_dim, 1):
            raise NumericError("filter output does not reshape to out x in")

    @property
    def weight(self) -> Tensor:
        """The (out, in) weight the filter network generates from the edge
        attribute 1.0, fed to it as a (1, 1) matrix."""
        theta_flat = engine.dense(constant([[1.0]]), self.filter)
        return engine.reshape(theta_flat, (self.out_dim, self.in_dim))

    @property
    def tensors(self) -> tuple[Tensor, Tensor, Tensor]:
        return (*self.filter.tensors, self.bias)


@dataclass
class GnnModel:
    """A stack of convolutions (``DenseParams`` for SAGE, ``EccLayer`` for
    ECC; input side first) and the dense head read off the target."""

    kind: str
    nodes: tuple[str, ...]
    target: str
    convs: tuple[DenseParams | EccLayer, ...]
    head: list[DenseParams]
    hidden: int = 16

    @property
    def params(self) -> list[Tensor]:
        return [t for layer in (*self.convs, *self.head) for t in layer.tensors]


def init_sage(skeleton: GraphSkeleton, seed: int = 0, hidden: int = 16) -> GnnModel:
    rng = np.random.default_rng(seed)
    h = hidden
    convs = tuple(engine.dense_params(rng, h, 2 * d) for d in (1, h, h))
    head = engine.dense_stack_params(rng, h, (h, h))
    return GnnModel("sage", skeleton.nodes, skeleton.target, convs, head, h)


def _ecc_layer(rng, out_dim: int, in_dim: int) -> EccLayer:
    # same small-bias convention as dense_params: keeps empty-neighborhood
    # outputs (exactly the bias) off the ReLU kink
    return EccLayer(
        filter=engine.dense_params(rng, out_dim * in_dim, 1),
        bias=engine.parameter(rng.uniform(-0.05, 0.05, size=out_dim)),
        out_dim=out_dim,
        in_dim=in_dim,
    )


def init_ecc(skeleton: GraphSkeleton, seed: int = 0, hidden: int = 16) -> GnnModel:
    rng = np.random.default_rng(seed)
    h = hidden
    convs = (_ecc_layer(rng, h, 1), _ecc_layer(rng, h, h))
    head = engine.dense_stack_params(rng, h, ())
    return GnnModel("ecc", skeleton.nodes, skeleton.target, convs, head, h)


# ---------------------------------------------------------------------------
# forward


def _forward_batch(model: GnnModel, skeleton: GraphSkeleton, batch: GraphBatch) -> Tensor:
    if skeleton.nodes != model.nodes or skeleton.target != model.target:
        raise SchemaError("skeleton does not match the model's node layout")
    if batch.nodes != skeleton.nodes:
        raise SchemaError(f"batch over nodes {batch.nodes} fed to a skeleton over {skeleton.nodes}")
    if not len(batch):
        raise NumericError("empty batch")
    plan = layer_plan(skeleton, CONV_DEPTH[model.kind], model.kind == "sage")
    # node-major (in-set, rows, 1)
    h = constant(np.ascontiguousarray(batch.features[:, plan.reads].T)[:, :, None])
    last = len(plan.layers) - 1
    for k, (layer, conv) in enumerate(zip(plan.layers, model.convs)):
        h = engine.graph_conv(h, layer.self_index, layer.agg, conv.weight, conv.bias, relu=k < last)
    return engine.dense_stack(engine.reshape(h, (len(batch), model.hidden)), model.head)


def predict(model: GnnModel, skeleton: GraphSkeleton, batch: GraphBatch) -> np.ndarray:
    return _forward_batch(model, skeleton, batch).values.copy()


# ---------------------------------------------------------------------------
# training


_DEFAULT_LR = {"sage": 0.0015, "ecc": 0.0020}
_INIT = {"sage": init_sage, "ecc": init_ecc}


def _init_model(kind: str, skeleton: GraphSkeleton, seed: int, hidden: int) -> GnnModel:
    if kind not in _INIT:
        raise NumericError(f"kind must be one of {sorted(_INIT)}")
    return _INIT[kind](skeleton, seed=seed, hidden=hidden)


@dataclass
class TrainResult:
    model: GnnModel
    skeleton: GraphSkeleton
    loss_history: list[float] = field(default_factory=list)


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
    history = engine.adam_fit(
        lambda: _forward_batch(model, skeleton, batch),
        model.params,
        batch.labels,
        lr,
        epochs,
        f"{kind} training (hidden={hidden})",
    )
    return TrainResult(model=model, skeleton=skeleton, loss_history=history)


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


def save_model(path, model: GnnModel, skeleton: GraphSkeleton) -> None:
    """A one-line JSON header naming the model and its graph, then the
    parameters in ``engine.pack_params``'s layout."""
    if skeleton.nodes != model.nodes or skeleton.target != model.target:
        raise SchemaError("skeleton does not match the model's node layout")
    header = json.dumps(_checkpoint_header(model.kind, model.hidden, skeleton), sort_keys=True)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n" + engine.pack_params(model.params))


def load_model(path, kind: str, skeleton: GraphSkeleton, hidden: int = 16) -> GnnModel:
    """The model saved at ``path``; ``SchemaError`` unless it was saved as
    this ``kind`` and ``hidden`` size on this skeleton."""
    model = _init_model(kind, skeleton, 0, hidden)
    with open(path, "rb") as fh:
        line, _, payload = fh.read().partition(b"\n")
    try:
        header = json.loads(line)
    except ValueError:  # no JSON header line: raw parameters or another file
        header = None
    expected = _checkpoint_header(kind, hidden, skeleton)
    if not isinstance(header, dict):
        raise SchemaError(f"{path} is not a checkpoint of this model and graph: no header")
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
    engine.assign_params(model.params, engine.unpack_params(payload))
    return model

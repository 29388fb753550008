"""Skeleton-conditioned message-passing regressors.

Each table row becomes one graph: nodes are the feature columns, node
features are the row's scalar values, and the regression target's node is
masked to zero so its label can never leak through the input side.  Two
architectures share the encoding:

* a GraphSAGE-style stack — three convolutions, each concatenating a
  node's state with the mean of its in-neighbors' states before an
  affine map (ReLU on the first two, identity on the last), then a
  three-layer feed-forward head read off the target node;
* an edge-conditioned stack — two convolutions whose weight matrix is
  generated from the (constant 1.0) edge attribute by a small filter
  network, mean-aggregated over in-neighbors plus a bias, ReLU between
  them, then a single linear head.

Mean aggregation is expressed as multiplication by a row-normalized
in-adjacency matrix, which batches over instances and makes the
empty-neighborhood conventions (zero aggregate / bias only) literal:
an empty row of the matrix is a row of zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import engine
from .engine import AdamState, DenseParams, Tensor, adam_step, constant
from .errors import GraphError, NumericError, SchemaError
from .graphs import reachable

_NEIGHBORHOODS = ("parents", "ancestors")


@dataclass(frozen=True)
class GraphSkeleton:
    """Directed feature graph over the model table's columns.

    ``edges`` are canonicalized to a sorted tuple so downstream passes
    are invariant to the order the edges were listed in.  ``neighborhood``
    selects what counts as N(i): direct parents (default) or all
    ancestors (transitive closure).
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    target: str
    neighborhood: str = "parents"

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
        if self.neighborhood not in _NEIGHBORHOODS:
            raise GraphError(f"neighborhood must be one of {_NEIGHBORHOODS}")
        object.__setattr__(self, "edges", tuple(sorted(set(self.edges))))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def index(self, node: str) -> int:
        return self.nodes.index(node)

    def in_neighbors(self, node: str) -> tuple[str, ...]:
        if self.neighborhood == "parents":
            return tuple(sorted(a for a, b in self.edges if b == node))
        parents: dict[str, list[str]] = {n: [] for n in self.nodes}
        for a, b in self.edges:
            parents[b].append(a)
        return tuple(sorted(reachable(parents.__getitem__, node) - {node}))

    def aggregation_matrix(self) -> np.ndarray:
        """Row-normalized in-neighbor indicator: (A h)_i = mean over N(i).

        Cached (the skeleton is frozen); the returned array is read-only.
        """
        return _aggregation_matrix(self)


@lru_cache(maxsize=128)
def _aggregation_matrix(skeleton: GraphSkeleton) -> np.ndarray:
    n = skeleton.n_nodes
    index = {node: i for i, node in enumerate(skeleton.nodes)}
    mat = np.zeros((n, n), dtype=np.float64)
    for i, node in enumerate(skeleton.nodes):
        nbrs = skeleton.in_neighbors(node)
        if not nbrs:
            continue
        w = 1.0 / len(nbrs)
        for a in nbrs:
            mat[i, index[a]] = w
    mat.flags.writeable = False
    return mat


def skeleton_from_pattern(pattern, nodes, target: str, neighborhood: str = "parents") -> GraphSkeleton:
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
    return GraphSkeleton(nodes=tuple(sorted(nodes)), edges=tuple(edges), target=target, neighborhood=neighborhood)


def prune_to_target(skeleton: GraphSkeleton, hops: int) -> GraphSkeleton:
    """Induced subgraph on the target's ``hops``-step in-closure.

    A stack of ``hops`` convolutions reads the target's final state only;
    that state is a function of nodes reaching the target within ``hops``
    in-edges, and every state it actually consumes has its full
    neighborhood inside the closure.  Training on the pruned graph
    therefore produces the same predictions and the same parameter
    gradients as the full graph (unused node states get zero adjoints),
    while the per-layer buffers shrink from |V| to |closure| slots.
    """
    if hops < 0:
        raise GraphError("hops must be nonnegative")
    keep = {skeleton.target}
    frontier = {skeleton.target}
    for _ in range(hops):
        frontier = {a for node in frontier for a in skeleton.in_neighbors(node)} - keep
        if not frontier:
            break
        keep |= frontier
    nodes = tuple(n for n in skeleton.nodes if n in keep)
    edges = tuple((a, b) for a, b in skeleton.edges if a in keep and b in keep)
    return GraphSkeleton(nodes=nodes, edges=edges, target=skeleton.target, neighborhood=skeleton.neighborhood)


CONV_DEPTH = {"sage": 3, "ecc": 2}


@dataclass(frozen=True)
class GraphInstance:
    features: np.ndarray  # (n_nodes,) node scalar inputs, target slot 0
    label: float
    provenance: tuple  # (field_id, date, treatment)

    def __post_init__(self):
        if not np.all(np.isfinite(self.features)):
            raise NumericError(f"non-finite features in instance {self.provenance}")


def build_instances(table, skeleton: GraphSkeleton) -> list[GraphInstance]:
    """One graph instance per table row, aligned to the skeleton by name."""
    if set(table.names) != set(skeleton.nodes):
        missing = sorted(set(skeleton.nodes) - set(table.names))
        extra = sorted(set(table.names) - set(skeleton.nodes))
        raise SchemaError(f"table/skeleton mismatch: missing {missing}, extra {extra}")
    cols = table.matrix(skeleton.nodes)
    t_idx = skeleton.index(skeleton.target)
    out = []
    for r in range(cols.shape[0]):
        feats = cols[r].copy()
        label = float(feats[t_idx])
        feats[t_idx] = 0.0
        out.append(
            GraphInstance(
                features=feats,
                label=label,
                provenance=(str(table.field_id[r]), table.timestamps[r], str(table.treatment[r])),
            )
        )
    return out


# ---------------------------------------------------------------------------
# models


@dataclass
class SageModel:
    nodes: tuple[str, ...]
    target: str
    convs: tuple[DenseParams, DenseParams, DenseParams]
    ff: tuple[DenseParams, DenseParams, DenseParams]
    hidden: int = 16

    @property
    def params(self) -> list[Tensor]:
        out: list[Tensor] = []
        for p in (*self.convs, *self.ff):
            out.extend(p.tensors)
        return out


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


@dataclass
class EccModel:
    nodes: tuple[str, ...]
    target: str
    convs: tuple[EccLayer, EccLayer]
    head: DenseParams
    hidden: int = 16

    @property
    def params(self) -> list[Tensor]:
        out: list[Tensor] = []
        for layer in self.convs:
            out.extend(layer.filter.tensors)
            out.append(layer.bias)
        out.extend(self.head.tensors)
        return out


def init_sage(skeleton: GraphSkeleton, seed: int = 0, hidden: int = 16) -> SageModel:
    rng = np.random.default_rng(seed)
    h = hidden
    convs = (
        engine.dense_params(rng, h, 2 * 1),
        engine.dense_params(rng, h, 2 * h),
        engine.dense_params(rng, h, 2 * h),
    )
    ff = (
        engine.dense_params(rng, h, h),
        engine.dense_params(rng, h, h),
        engine.dense_params(rng, 1, h),
    )
    return SageModel(nodes=skeleton.nodes, target=skeleton.target, convs=convs, ff=ff, hidden=h)


def _ecc_layer(rng, out_dim: int, in_dim: int) -> EccLayer:
    # same small-bias convention as dense_params: keeps empty-neighborhood
    # outputs (exactly the bias) off the ReLU kink
    return EccLayer(
        filter=engine.dense_params(rng, out_dim * in_dim, 1),
        bias=engine.parameter(rng.uniform(-0.05, 0.05, size=out_dim)),
        out_dim=out_dim,
        in_dim=in_dim,
    )


def init_ecc(skeleton: GraphSkeleton, seed: int = 0, hidden: int = 16) -> EccModel:
    rng = np.random.default_rng(seed)
    h = hidden
    convs = (_ecc_layer(rng, h, 1), _ecc_layer(rng, h, h))
    head = engine.dense_params(rng, 1, h)
    return EccModel(nodes=skeleton.nodes, target=skeleton.target, convs=convs, head=head, hidden=h)


# ---------------------------------------------------------------------------
# convolutions (batched: h is (batch, n_nodes, dim))


def sage_conv(h: Tensor, skeleton: GraphSkeleton, params: DenseParams, activate: bool = True) -> Tensor:
    """One mean-aggregator convolution: affine(concat(self, mean N(i))).

    Evaluated as W_self h + W_agg (A h) + b — the same map with the weight
    split at the concat boundary, skipping the stacked buffer.
    """
    d = h.values.shape[-1]
    if params.weight.values.shape[1] != 2 * d:
        raise NumericError(
            f"conv weight expects width {params.weight.values.shape[1]}, state dim is {d}"
        )
    agg = engine.matmul(constant(skeleton.aggregation_matrix()), h)
    self_part = engine.matmul(h, engine.transpose(engine.slice_last(params.weight, 0, d)))
    agg_part = engine.matmul(agg, engine.transpose(engine.slice_last(params.weight, d, 2 * d)))
    mixed = engine.add(engine.add(self_part, agg_part), params.bias)
    return engine.relu(mixed) if activate else mixed


def ecc_filter_matrix(layer: EccLayer, edge_attr: float = 1.0) -> Tensor:
    """Generate the layer's weight matrix from the scalar edge attribute."""
    theta_flat = engine.dense(constant(np.array([edge_attr])), layer.filter)
    return engine.reshape(theta_flat, (layer.out_dim, layer.in_dim))


def ecc_conv(h: Tensor, skeleton: GraphSkeleton, layer: EccLayer) -> Tensor:
    """Mean of filter-mapped neighbor states plus bias; bias alone when
    N(i) is empty (the aggregation matrix row is all zero there)."""
    theta = ecc_filter_matrix(layer, 1.0)
    mapped = engine.matmul(h, engine.transpose(theta))
    agg = engine.matmul(constant(skeleton.aggregation_matrix()), mapped)
    return engine.add(agg, layer.bias)


def _features_matrix(model, instances: list[GraphInstance]) -> tuple[np.ndarray, np.ndarray]:
    if not instances:
        raise NumericError("no instances")
    n = len(model.nodes)
    feats = np.stack([inst.features for inst in instances])
    if feats.shape[1] != n:
        raise SchemaError(f"instance width {feats.shape[1]} != {n} nodes")
    labels = np.array([inst.label for inst in instances])
    return feats, labels


def _forward_batch(model, skeleton: GraphSkeleton, feats: np.ndarray, preacts: list | None = None) -> Tensor:
    if skeleton.nodes != model.nodes or skeleton.target != model.target:
        raise SchemaError("skeleton does not match the model's node layout")

    def _relu(t: Tensor) -> Tensor:
        if preacts is not None:
            preacts.append(t.values.copy())
        return engine.relu(t)

    h = constant(feats[:, :, None])  # (B, n, 1)
    if isinstance(model, SageModel):
        h = _relu(sage_conv(h, skeleton, model.convs[0], activate=False))
        h = _relu(sage_conv(h, skeleton, model.convs[1], activate=False))
        h = sage_conv(h, skeleton, model.convs[2], activate=False)
        z = engine.take_node(h, skeleton.index(model.target), axis=-2)
        z = _relu(engine.dense(z, model.ff[0]))
        z = _relu(engine.dense(z, model.ff[1]))
        z = engine.dense(z, model.ff[2])
    elif isinstance(model, EccModel):
        h = _relu(ecc_conv(h, skeleton, model.convs[0]))
        h = ecc_conv(h, skeleton, model.convs[1])
        z = engine.take_node(h, skeleton.index(model.target), axis=-2)
        z = engine.dense(z, model.head)
    else:  # pragma: no cover
        raise NumericError(f"unknown model type {type(model).__name__}")
    return engine.reshape(z, (feats.shape[0],))


def relu_kink_margin(model, skeleton: GraphSkeleton, feats: np.ndarray) -> float:
    """Smallest |preactivation| feeding any ReLU in one forward pass.

    Central-difference gradient checks are only meaningful when no unit
    sits within the difference stencil of the kink; callers screen seeds
    with this before running finite_diff_check.
    """
    collected: list = []
    _forward_batch(model, skeleton, feats, preacts=collected)
    if not collected:
        return np.inf
    return float(min(np.abs(arr).min() for arr in collected))


def predict(model, skeleton: GraphSkeleton, instances: list[GraphInstance]) -> np.ndarray:
    feats, _ = _features_matrix(model, instances)
    return _forward_batch(model, skeleton, feats).values.copy()


# ---------------------------------------------------------------------------
# training


_DEFAULT_LR = {"sage": 0.0015, "ecc": 0.0020}
_INIT = {"sage": init_sage, "ecc": init_ecc}


def _init_model(kind: str, skeleton: GraphSkeleton, seed: int, hidden: int):
    if kind not in _INIT:
        raise NumericError(f"kind must be one of {sorted(_INIT)}")
    return _INIT[kind](skeleton, seed=seed, hidden=hidden)


@dataclass
class TrainResult:
    model: object
    skeleton: GraphSkeleton
    loss_history: list[float] = field(default_factory=list)


def train(
    kind: str,
    skeleton: GraphSkeleton,
    instances: list[GraphInstance],
    lr: float | None = None,
    epochs: int = 500,
    seed: int = 0,
    hidden: int = 16,
) -> TrainResult:
    """Full-batch MSE training with Adam; deterministic given ``seed``."""
    model = _init_model(kind, skeleton, seed, hidden)
    if lr is None:
        lr = _DEFAULT_LR[kind]
    feats, labels = _features_matrix(model, instances)
    params = model.params
    state = AdamState.for_params(params, lr=lr)
    history: list[float] = []
    for epoch in range(epochs):
        for p in params:
            p.zero_grad()
        loss = engine.mse(_forward_batch(model, skeleton, feats), labels)
        value = float(loss.values)
        if not np.isfinite(value):
            tail = ", ".join(f"{v:.6g}" for v in history[-5:])
            raise NumericError(
                f"{kind} training diverged at epoch {epoch} (loss {value}); "
                f"recent losses [{tail}]; lr={lr}, hidden={hidden}"
            )
        history.append(value)
        loss.backward()
        grads = [p.grad if p.grad is not None else np.zeros(p.values.shape) for p in params]
        adam_step(params, grads, state)
    return TrainResult(model=model, skeleton=skeleton, loss_history=history)


def save_model(path, model) -> None:
    engine.save_params(path, model.params)


def load_model(path, kind: str, skeleton: GraphSkeleton, hidden: int = 16):
    model = _init_model(kind, skeleton, 0, hidden)
    engine.assign_params(model.params, engine.load_params(path))
    return model

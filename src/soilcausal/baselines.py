"""Non-causal comparison models: forests, boosting, an MLP grid, and the
random-edges skeleton control.

All of them consume the flat model table with the target column removed
from the inputs.  Feature iteration order is the sorted column names, so
column permutations of the table cannot change any model.  Trees are
deterministic given the master seed: per-tree seeds come from the same
splitmix derivation the synthesizer uses, so results do not depend on
training schedule.

Trees are exact CART on variance reduction.  Each tree sorts its design
once, with a stable argsort per feature, into one (d + 1, n) index buffer:
row f lists the rows by (x_f, row id), and the last row lists them by row
id.  A node owns the slice [lo, hi) of every row.  It scores all of its
candidate features at once from that slice (a cumulative sum along each
row, the first minimum per row, then the lowest feature), and then
stably partitions the slice in place, so each row keeps the (x_f, row id)
order inside both children.  That order is the one a per-node stable
argsort of the node's ascending row ids gives, and the targets' sums run
in the same order, so every threshold and leaf value is the one such a
per-node sort would produce, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine
from .errors import ConfigError, NumericError
from .gnn import GraphSkeleton
from .seeding import derive_seed

_SPLIT_EPS = 1e-12  # require a real variance reduction before splitting


@dataclass
class TreeNode:
    """Internal node (feature/threshold/children) or leaf (value)."""

    feature: int | None
    threshold: float
    left: "TreeNode | None"
    right: "TreeNode | None"
    value: float

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _features_of(table) -> tuple[str, ...]:
    if not table.target:
        raise ConfigError("model table has no target column set")
    return tuple(sorted(n for n in table.names if n != table.target))


def _design(table) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    names = _features_of(table)
    return table.matrix(names), table.column(table.target), names


def cart_train(X, y, max_depth=None, min_leaf=2, rng=None, n_features=None) -> TreeNode:
    """One exact CART tree on the presorted buffer of the module docstring.

    ``n_features`` features are drawn from ``rng`` at each node that is
    not a leaf by size or depth, in pre-order (node, left subtree, right
    subtree).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],) or X.shape[0] == 0:
        raise NumericError(f"bad design shapes {X.shape} / {y.shape}")
    if rng is None:
        rng = np.random.default_rng(0)
    n, d = X.shape
    xt = np.ascontiguousarray(X.T)
    order = np.empty((d + 1, n), dtype=np.intp)
    order[:d] = np.argsort(X, axis=0, kind="stable").T
    order[d] = np.arange(n)
    ks = np.arange(1, n, dtype=np.float64)  # left-child sizes of a split
    all_features = np.arange(d)
    goes_left = np.zeros(n, dtype=bool)
    kmin = max(min_leaf, 1)  # smallest child a split may leave

    def best_split(lo, hi, features, ys, mean):
        """Lowest-SSE split over ``features``: returns (feature, threshold,
        left size) or None.  Ties break toward the lowest feature, then
        the leftmost threshold (argmin picks the first minimum)."""
        m = hi - lo
        # left sizes k in [kmin, m - kmin], at positions k - 1 of the sums
        p0, p1 = kmin - 1, m - kmin
        if p1 <= p0:
            return None
        rows = order[features, lo:hi]
        xs = xt[features[:, None], rows]
        yr = y[rows]
        csum = yr.cumsum(axis=1)
        csq = (yr * yr).cumsum(axis=1)
        total, total_sq = csum[:, -1:], csq[:, -1:]
        csum, csq, k = csum[:, p0:p1], csq[:, p0:p1], ks[p0:p1]
        left_sse = csq - csum**2 / k
        right_sse = (total_sq - csq) - (total - csum) ** 2 / (m - k)
        sse = np.where(xs[:, p0 + 1 : p1 + 1] > xs[:, p0:p1], left_sse + right_sse, np.inf)
        best_sse, best = np.inf, None
        for r, s in enumerate(sse.min(axis=1).tolist()):
            if s < best_sse - _SPLIT_EPS:
                best_sse, best = s, r
        if best is None or best_sse >= float(((ys - mean) ** 2).sum()) - _SPLIT_EPS:
            return None
        j = p0 + int(sse[best].argmin())
        lo, hi = xs[best, j], xs[best, j + 1]
        mid = 0.5 * (lo + hi)
        # the midpoint of adjacent doubles can round up to hi; lo then
        # splits off the same j + 1 rows
        return int(features[best]), float(mid if mid < hi else lo), j + 1

    def grow(lo, hi, depth):
        ys = y[order[d, lo:hi]]
        mean = ys.sum() / (hi - lo)  # what ys.mean() computes, without its dispatch
        value = float(mean)
        if hi - lo < 2 * min_leaf or (max_depth is not None and depth >= max_depth):
            return TreeNode(None, 0.0, None, None, value)
        if n_features is not None and n_features < d:
            features = np.sort(rng.choice(d, size=n_features, replace=False))
        else:
            features = all_features
        split = best_split(lo, hi, features, ys, mean)
        if split is None:
            return TreeNode(None, 0.0, None, None, value)
        f, thr, n_left = split
        # rows sorted by feature f put the left child first; mark them and
        # move them to the front of every row, keeping each row's order
        seg = order[:, lo:hi]
        goes_left[seg[f, :n_left]] = True
        goes_left[seg[f, n_left:]] = False
        mask = goes_left[seg]
        left, right = seg[mask], seg[~mask]
        seg[:, :n_left] = left.reshape(d + 1, n_left)
        seg[:, n_left:] = right.reshape(d + 1, hi - lo - n_left)
        mid = lo + n_left
        return TreeNode(f, thr, grow(lo, mid, depth + 1), grow(mid, hi, depth + 1), value)

    return grow(0, n, 0)


def tree_predict(node: TreeNode, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(node, np.arange(X.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if idx.size == 0:
            continue
        if nd.is_leaf:
            out[idx] = nd.value
            continue
        mask = X[idx, nd.feature] <= nd.threshold
        stack.append((nd.left, idx[mask]))
        stack.append((nd.right, idx[~mask]))
    return out


# ---------------------------------------------------------------------------
# random forest


@dataclass
class RandomForest:
    trees: list[TreeNode]
    feature_names: tuple[str, ...]
    target: str


def rf_train(table, n_trees: int = 100, seed: int = 0, bootstrap: bool = True) -> RandomForest:
    """Bagged variance-reduction trees; sqrt(d) features per split,
    unlimited depth, min leaf 2.  Rows are already canonically ordered by
    the table itself, so bootstrap indices are order-independent."""
    X, y, names = _design(table)
    n, d = X.shape
    n_features = max(1, int(np.sqrt(d)))
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(derive_seed(seed, t))
        idx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        sub_rng = np.random.default_rng(derive_seed(seed, t, 1))
        trees.append(cart_train(X[idx], y[idx], None, 2, sub_rng, n_features))
    return RandomForest(trees=trees, feature_names=names, target=table.target)


def rf_predict(model: RandomForest, table) -> np.ndarray:
    X = table.matrix(model.feature_names)
    acc = np.zeros(X.shape[0], dtype=np.float64)
    for tree in model.trees:
        acc += tree_predict(tree, X)
    return acc / len(model.trees)


# ---------------------------------------------------------------------------
# gradient boosting


@dataclass
class GbtModel:
    init_value: float
    trees: list[TreeNode]
    lr: float
    feature_names: tuple[str, ...]
    target: str
    loss_history: list[float] = field(default_factory=list)


def gbt_train(table, n_estimators: int = 100, max_depth: int = 20, lr: float = 0.1, seed: int = 0) -> GbtModel:
    """Squared-error boosting: each round fits a depth-capped tree to the
    current residuals; shrinkage lr; initial prediction = train mean."""
    X, y, names = _design(table)
    model = GbtModel(init_value=float(y.mean()), trees=[], lr=lr, feature_names=names, target=table.target)
    current = np.full(y.shape, model.init_value)
    for t in range(n_estimators):
        rng = np.random.default_rng(derive_seed(seed, t))
        tree = cart_train(X, y - current, max_depth, 1, rng, None)
        model.trees.append(tree)
        current = current + lr * tree_predict(tree, X)
        model.loss_history.append(float(np.mean((y - current) ** 2)))
    return model


def gbt_predict(model: GbtModel, table) -> np.ndarray:
    X = table.matrix(model.feature_names)
    acc = np.full(X.shape[0], model.init_value, dtype=np.float64)
    for tree in model.trees:
        acc += model.lr * tree_predict(tree, X)
    return acc


# ---------------------------------------------------------------------------
# MLP with a replayable grid search

_GRID_DEPTHS = (1, 2, 3)
_GRID_WIDTHS = (16, 64, 128)
_GRID_LRS = (1e-3, 1e-2)


@dataclass
class MlpModel:
    layers: list[engine.DenseParams]
    feature_names: tuple[str, ...]
    target: str
    hidden: tuple[int, ...]
    lr: float
    grid_log: list[tuple[tuple[int, ...], float, float]] = field(default_factory=list)
    # grid_log rows: (hidden widths, lr, validation MSE)


def _mlp_build(rng, d_in: int, hidden: tuple[int, ...]) -> list[engine.DenseParams]:
    dims = [d_in, *hidden, 1]
    return [engine.dense_params(rng, dims[k + 1], dims[k]) for k in range(len(dims) - 1)]


def _mlp_forward(layers, x: engine.Tensor) -> engine.Tensor:
    h = x
    for k, layer in enumerate(layers):
        h = engine.dense(h, layer)
        if k < len(layers) - 1:
            h = engine.relu(h)
    return engine.reshape(h, (h.values.shape[0],))


def _mlp_fit(X, y, hidden, lr, epochs, seed):
    layers = _mlp_build(np.random.default_rng(seed), X.shape[1], hidden)
    params = [t for layer in layers for t in layer.tensors]
    xc = engine.constant(X)
    engine.adam_fit(lambda: _mlp_forward(layers, xc), params, y, lr, epochs, f"mlp (hidden={hidden})")
    return layers


def mlp_train(table, hidden_sizes=None, lr=None, epochs: int = 500, seed: int = 0) -> MlpModel:
    """Dense ReLU stack on the flat features.

    With explicit ``hidden_sizes`` and ``lr``: a single fit.  Otherwise a
    full grid search {1,2,3} layers x {16,64,128} width x {1e-3,1e-2} lr,
    scored by MSE on a held-out 20% of the training rows, logged so the
    selection is replayable; the winner is refit on all rows.
    """
    X, y, names = _design(table)
    if hidden_sizes is not None and lr is not None:
        hidden = tuple(hidden_sizes)
        layers = _mlp_fit(X, y, hidden, lr, epochs, seed)
        return MlpModel(layers=layers, feature_names=names, target=table.target, hidden=hidden, lr=lr)
    if (hidden_sizes is None) != (lr is None):
        raise ConfigError("give both hidden_sizes and lr, or neither (grid search)")

    n = X.shape[0]
    if n < 5:
        raise NumericError(f"grid search needs >= 5 rows, got {n}")
    perm = np.random.default_rng(derive_seed(seed, 0xA11D)).permutation(n)
    n_val = max(1, n // 5)
    val_idx, fit_idx = perm[:n_val], perm[n_val:]

    log: list[tuple[tuple[int, ...], float, float]] = []
    best = None
    for depth in _GRID_DEPTHS:
        for width in _GRID_WIDTHS:
            for glr in _GRID_LRS:
                hidden = (width,) * depth
                layers = _mlp_fit(X[fit_idx], y[fit_idx], hidden, glr, epochs, seed)
                pred = _mlp_forward(layers, engine.constant(X[val_idx])).values
                val_mse = float(np.mean((pred - y[val_idx]) ** 2))
                log.append((hidden, glr, val_mse))
                if best is None or val_mse < best[2]:
                    best = (hidden, glr, val_mse)
    hidden, glr, _ = best
    layers = _mlp_fit(X, y, hidden, glr, epochs, seed)
    return MlpModel(
        layers=layers, feature_names=names, target=table.target, hidden=hidden, lr=glr, grid_log=log
    )


def mlp_predict(model: MlpModel, table) -> np.ndarray:
    X = table.matrix(model.feature_names)
    return _mlp_forward(model.layers, engine.constant(X)).values.copy()


# ---------------------------------------------------------------------------
# random-edges control


def random_skeleton(nodes, target: str, n_edges: int = 50, seed: int = 0) -> GraphSkeleton:
    """n_edges distinct directed non-self pairs, uniform without
    replacement; cycles allowed (message passing does not need a DAG)."""
    nodes = tuple(nodes)
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    if n_edges > len(pairs):
        raise ConfigError(f"asked for {n_edges} edges, only {len(pairs)} ordered pairs exist")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(pairs), size=n_edges, replace=False)
    return GraphSkeleton(nodes=nodes, edges=tuple(pairs[int(k)] for k in chosen), target=target)

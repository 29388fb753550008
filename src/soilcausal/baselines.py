"""Non-causal comparison models: forests, boosting, an MLP grid, and the
random-edges skeleton control.

All of them consume the flat model table with the target column removed
from the inputs.  Feature iteration order is the sorted column names, so
column permutations of the table cannot change any model.  Trees are
deterministic given the master seed: per-tree seeds come from the same
splitmix derivation the synthesizer uses, so results do not depend on
training schedule.

Trees are exact CART on variance reduction.  A node sorts its candidate
features by (x, row id), with a stable argsort of its rows in row-id
order, and sums its targets in that order, so every threshold and leaf
value is the one such a per-node sort gives, bit for bit.  Nodes of
similar size share a padded block, and one cumulative sum per block scores
every candidate feature of every node (``_best_splits``): it runs along
one node's rows alone, padding only after them.  A node's mean is taken
once, when the node is made, and its mean and squared deviations add up
in row-id order with numpy's row-wise sum, as np.sum does (``_sums``).

Forests grow node by node, trees in lock-step (``_grow_forest``).  A tree
draws ``n_features`` features per node from its generator in pre-order
(node, left subtree, right subtree), so each step pops off every tree's
stack the nodes that may split, up to the first whose children may too,
since they draw next; one ``_best_splits`` call per block splits the
step's nodes of all trees.  A node keeps its rows as design columns in
sample order (its sample position is the row id) and stable-argsorts only
the features it drew.

Boosting and ``cart_train`` draw nothing: their tree grows depth by depth
on a presorted index buffer (``_Grower``).  Row f of the (d + 1, n) buffer
lists the rows by (x_f, row id), the last row by row id; a node owns the
slice [lo, hi) of every row, and splitting it stably partitions that
slice, so both children keep the order and are made after it.

The MLP is its list of dense ``engine.Layer``s on the (1, rows, features)
design.  Every grid fit and the refit train with ``engine.fit``, the loop
the graph models use, whose buffers are allocated once per fit; the
validation scores and predictions run one step's forward half.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine
from .errors import ConfigError, NumericError, require_count, require_rate
from .gnn import GraphSkeleton
from .graphs import sorted_labels
from .ingest import require_finite
from .seeding import derive_seed

_SPLIT_EPS = 1e-12  # require a real variance reduction before splitting
_BLOCK_WASTE = 2048  # padded (feature, row) cells worth one more block's calls
_BLOCK_CELLS = 1 << 15  # (feature, row) cells of a block of several nodes, at most


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
    if not (names := tuple(sorted(n for n in table.names if n != table.target))):
        raise ConfigError(f"model table has no feature column besides its target {table.target!r}")
    return names


def _feature_matrix(table, names) -> np.ndarray:
    """Rows x ``names``, for training and prediction (``require_finite``)."""
    X = table.matrix(names)
    require_finite(X, "features", table)
    return X


def _design(table) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Features (rows x sorted names), labels and names.  ``NumericError``
    for no rows, or naming the first row with a non-finite value."""
    names = _features_of(table)
    y = table.column(table.target)
    if y.shape[0] == 0:
        raise NumericError(f"bad design shapes {(0, len(names))} / {y.shape}")
    require_finite(y, "label", table)
    return _feature_matrix(table, names), y, names


def _presort(xt) -> np.ndarray:
    """The index buffer of the design ``xt`` (features x rows): row f lists
    the rows by (x_f, row id), the last row by row id."""
    d, n = xt.shape
    order = np.empty((d + 1, n), dtype=np.intp)
    order[:d] = np.argsort(xt, axis=1, kind="stable")
    order[d] = np.arange(n)
    return order


def _sums(a, m) -> np.ndarray:
    """``a[s, :m[s]].sum()`` for every row s of the padded ``a``, bit for
    bit: numpy's row-wise sum over the rows of each length, which adds up
    each row as np.sum does."""
    out = np.empty(m.size)
    for length in set(m.tolist()):
        rows = m == length
        out[rows] = a[rows, :length].sum(axis=1)
    return out


def _blocks(m, width: int) -> list:
    """Groups (index lists) of the slices with lengths ``m`` (a list) that
    are padded together.  From the longest down, slices join the current
    group until padding them to its longest costs more than
    ``_BLOCK_WASTE`` cells of ``width`` features; a group of more than
    ``_BLOCK_CELLS`` cells is cut in equal parts."""
    if len(m) == 1:
        return [[0]]
    perm = sorted(range(len(m)), key=m.__getitem__, reverse=True)
    ms = [m[s] for s in perm]
    runs = [0] + [i for i in range(1, len(ms)) if ms[i] != ms[i - 1]]  # starts of one length
    cuts, top, waste = [0], ms[0], 0
    for a, b in zip(runs, runs[1:] + [len(ms)]):
        waste += (b - a) * (top - ms[a]) * width
        if waste > _BLOCK_WASTE:
            cuts.append(a)
            top, waste = ms[a], 0
    groups = []
    for a, b in zip(cuts, cuts[1:] + [len(ms)]):
        parts = -(-(b - a) * ms[a] * width // _BLOCK_CELLS)  # ceil(cells / _BLOCK_CELLS)
        size = -(-(b - a) // parts)
        groups += [perm[k : min(k + size, b)] for k in range(a, b, size)]
    return groups


def _is_open(m, depth, max_depth, min_leaf) -> bool:
    """Whether a node of ``m`` rows at ``depth`` may split: not a leaf by
    size or depth."""
    return m >= 2 * min_leaf and (max_depth is None or depth < max_depth)


def _stack(parts) -> np.ndarray:
    """The (F, m_s) arrays ``parts`` as one (F, S, L) array: a view of one,
    or each padded to the longest by repeating its last column."""
    if len(parts) == 1:
        return parts[0][:, None]
    out = np.empty((len(parts[0]), len(parts), max(part.shape[1] for part in parts)), parts[0].dtype)
    for k, part in enumerate(parts):
        out[:, k] = part[:, -1:]
        out[:, k, : part.shape[1]] = part
    return out


class _Grower:
    """One tree that draws no features, grown depth by depth on its
    presorted buffer ``order`` (see the module docstring).  Node i's fields
    sit at index i of the lists; ``left``/``right`` are -1 for a leaf."""

    def __init__(self, xt, y, order, max_depth, min_leaf):
        self.xt, self.y, self.order = xt, y, order
        self.limits = max_depth, min_leaf  # of open nodes; a split leaves min_leaf >= 1 rows a side
        self.steps = np.arange(y.size)
        self.all_features = np.arange(xt.shape[0])[:, None, None]
        self.goes_left = np.zeros(y.size, dtype=bool)
        self.lo, self.hi, self.depth, self.value = [], [], [], []
        self.feature, self.threshold, self.left, self.right = [], [], [], []

    def add(self, lo, hi, depth) -> range:
        """New nodes of the slices [lo, hi) at ``depth``, with their means:
        their targets add up in the order of the buffer's last row."""
        ids = range(len(self.lo), len(self.lo) + len(lo))
        m, last = np.subtract(hi, lo), np.subtract(hi, 1)
        pos = np.minimum(np.array(lo)[:, None] + self.steps[: m.max()], last[:, None])  # padded by the last
        self.value += (_sums(self.y[self.order[-1, pos]], m) / m).tolist()
        self.lo += lo
        self.hi += hi
        self.depth += depth
        self.feature += [None] * len(lo)
        self.threshold += [0.0] * len(lo)
        self.left += [-1] * len(lo)
        self.right += [-1] * len(lo)
        return ids

    def grow(self) -> None:
        """Split the open nodes of each depth, a block at a time."""
        level = self.add([0], [self.y.size], [0])
        while True:
            batch = [[i, self.lo[i], self.hi[i], self.depth[i]] for i in level]
            batch = [b for b in batch if _is_open(b[2] - b[1], b[3], *self.limits)]
            if not batch:
                return
            for b in _blocks([hi - lo for _, lo, hi, _ in batch], self.xt.shape[0]):
                self._split_block(*np.array([batch[s] for s in b]).T)
            level = [c for i, *_ in batch if self.left[i] >= 0 for c in (self.left[i], self.right[i])]

    def _split_block(self, ids, lo, hi, depth) -> None:
        """Split those of one padded block of nodes ``ids`` of rows [lo, hi)
        at ``depth`` that have a split."""
        split, feature, threshold, n_left = self._search(lo, hi, np.array([self.value[i] for i in ids.tolist()]))
        if not split:
            return
        lo, hi, depth = ([v[s] for s in split] for v in (lo.tolist(), hi.tolist(), (depth + 1).tolist()))
        cut = [a + n for a, n in zip(lo, n_left)]
        # leaves by size or depth read only the row-id row
        deeper = any(_is_open(b - a - self.limits[1], e, *self.limits) for a, b, e in zip(lo, hi, depth))
        self._partition(lo, cut, hi, slice(None) if deeper else slice(-1, None))
        children = self.add(lo + cut, cut + hi, depth + depth)
        for s, f, t, l, r in zip(split, feature, threshold, children, children[len(split) :]):
            i = ids[s]
            self.feature[i], self.threshold[i], self.left[i], self.right[i] = f, t, l, r

    def _search(self, lo, hi, mean):
        """The best split of each of the nodes [lo, hi) of one block, of
        means ``mean``, that splits: their indices, feature, threshold and
        left size.  Marks the left rows of those splits in ``goes_left``."""
        xt, y, order, kmin = self.xt, self.y, self.order, self.limits[1]
        m = hi - lo
        ms = m.tolist()
        S, L = len(ms), max(ms)
        # one row of buffer positions per node; padding repeats the last
        pos = np.minimum(lo[:, None] + self.steps[:L], (hi - 1)[:, None]) if S > 1 else slice(lo[0], hi[0])
        ys = y[order[-1, pos]].reshape(S, L)  # targets by row id
        frows = order[:-1, pos].reshape(-1, S, L)
        parent_sse = _sums(np.square(ys - mean[:, None]), m).tolist()
        split, feature, cut, threshold = _best_splits(xt[self.all_features, frows], y[frows], ms, kmin, parent_sse)
        if split:
            # padding repeats a slice's last row by the split feature, which goes right
            self.goes_left[frows[feature, split]] = self.steps[:L] < np.array(cut)[:, None]
        return split, feature, threshold, cut

    def _partition(self, lo, cut, hi, buffer_rows):
        """Stably move the rows marked in ``goes_left`` to the front of
        their slice [lo, hi) in the ``buffer_rows`` of the buffer; ``cut`` is
        where the right ones start."""
        order = self.order[buffer_rows]
        if len(lo) == 1:
            span, lefts, rights = slice(lo[0], hi[0]), slice(lo[0], cut[0]), slice(cut[0], hi[0])
        else:  # the slices one after another
            steps = self.steps
            span = np.concatenate([steps[a:b] for a, b in zip(lo, hi)])
            lefts = np.concatenate([steps[a:c] for a, c in zip(lo, cut)])
            rights = np.concatenate([steps[c:b] for c, b in zip(cut, hi)])
        rows = order[:, span]
        mask = self.goes_left[rows]
        # each buffer row holds the same left rows of a slice, so its left
        # rows, slice after slice, fill the left parts
        left, right = rows[mask], rows[~mask]
        order[:, lefts] = left.reshape(len(order), -1)
        order[:, rights] = right.reshape(len(order), -1)

    def finish(self):
        """The tree's root as a TreeNode, and each row's fitted value (its
        leaf's)."""
        value, left, right = self.value, self.left, self.right
        nodes = [None] * len(value)
        for i in range(len(value) - 1, -1, -1):
            if left[i] < 0:
                nodes[i] = TreeNode(None, 0.0, None, None, value[i])
            else:
                nodes[i] = TreeNode(self.feature[i], self.threshold[i], nodes[left[i]], nodes[right[i]], value[i])
        lo, hi = np.array(self.lo), np.array(self.hi)
        leaves = np.flatnonzero(np.array(left) < 0)
        leaves = leaves[np.argsort(lo[leaves])]  # they tile the buffer
        fitted = np.empty(self.y.size)
        fitted[self.order[-1]] = np.repeat(np.array(value)[leaves], hi[leaves] - lo[leaves])
        return nodes[0], fitted


def _grow(xt, y, max_depth, min_leaf, order=None):
    """A tree that draws no features on the design ``xt`` (features x
    rows), grown on the buffer ``order`` (its ``_presort``, taken if not
    given; modified in place).  Returns its root and each row's fitted
    value."""
    grower = _Grower(xt, y, _presort(xt) if order is None else order, max_depth, min_leaf)
    grower.grow()
    return grower.finish()


def _grow_forest(xt, y, samples, max_depth, min_leaf, rngs, n_features) -> list:
    """The roots of the trees on the design ``xt`` (features x rows) whose
    rows are the design columns ``samples[t]``, grown node by node in
    lock-step (see the module docstring).  Tree t draws ``n_features``
    features per node from ``rngs[t]``; from d on it takes every one."""
    d, kmin = xt.shape[0], max(min_leaf, 1)  # kmin: smallest child a split may leave
    roots = [TreeNode(None, 0.0, None, None, 0.0) for _ in samples]
    stacks = [[(root, rows, 0)] for root, rows in zip(roots, samples)]
    while True:
        batch = []
        for t, stack in enumerate(stacks):
            while stack:
                node, rows, depth = stack.pop()
                if not _is_open(rows.size, depth, max_depth, min_leaf):
                    node.value = float(y[rows].sum() / rows.size)
                    continue
                feats = np.sort(rngs[t].choice(d, size=n_features, replace=False)) if n_features < d else np.arange(d)
                batch.append((t, node, rows, depth, feats))
                if _is_open(rows.size - kmin, depth + 1, max_depth, min_leaf):
                    break  # its children draw next
        if not batch:
            break
        x_rows, ranked, sse = [], [], []  # per node
        for _, node, rows, _, feats in batch:
            x_rows.append(xt[feats[:, None], rows])  # in sample order
            ranked.append(rows[x_rows[-1].argsort(axis=1, kind="stable")])  # by (x, sample position)
            ys = y[rows]
            node.value = float(ys.sum() / rows.size)
            sse.append(float(np.square(ys - node.value).sum()))
        m, children = [rows.size for _, _, rows, _, _ in batch], [[] for _ in batch]
        for sel in _blocks(m, len(batch[0][4])):
            fs, fr = _stack([batch[s][4][:, None] for s in sel]), _stack([ranked[s] for s in sel])
            split, pick, _, thr = _best_splits(xt[fs, fr], y[fr], [m[s] for s in sel], kmin, [sse[s] for s in sel])
            for k, r, t in zip(split, pick, thr):
                s = sel[k]
                _, node, rows, depth, feats = batch[s]
                goes_left = x_rows[s][r] <= t
                node.feature, node.threshold = int(feats[r]), t
                node.left, node.right = TreeNode(None, 0.0, None, None, 0.0), TreeNode(None, 0.0, None, None, 0.0)
                children[s] = [(node.right, rows[~goes_left], depth + 1), (node.left, rows[goes_left], depth + 1)]
        for b, pair in zip(batch, children):
            stacks[b[0]] += pair
    return roots


def _best_splits(xs, yr, m, kmin, parent_sse):
    """The best split of each node s of a block, from the x of its F
    candidate features sorted by (x, row id), ``xs`` (F, S, L), and the
    targets in that order, ``yr`` (squared in place): a slice of m[s] < L
    rows is padded by repeating its last.  Each left size k from ``kmin``
    to m[s] - ``kmin`` between two distinct x is scored by left plus right
    SSE; a feature's first minimum is its leftmost threshold, ties between
    features go to the lowest, and the node splits only if the best SSE
    beats ``parent_sse[s]``.  Returns lists of the nodes that split, the
    chosen feature of each (an index into F), its left size j + 1 and its
    threshold: the midpoint of the x at j and j + 1 or, where that midpoint
    rounds up to the right x, the left x."""
    F, S, L = xs.shape
    ragged = S > 1 and min(m) < L
    if ragged:
        m = np.array(m)
    p0, p1 = kmin - 1, L - kmin  # positions j of the left sizes k = j + 1 allowed
    if p1 <= p0:
        return [], [], [], []
    csum = yr.cumsum(axis=2)
    csq = np.multiply(yr, yr, out=yr).cumsum(axis=2)
    if ragged:
        seg, last = np.arange(S), m - 1
        total, total_sq = csum[:, seg, last, None], csq[:, seg, last, None]
    else:
        total, total_sq = csum[:, :, -1:], csq[:, :, -1:]
    csum, csq, k = csum[:, :, p0:p1], csq[:, :, p0:p1], np.arange(kmin, L - kmin + 1, dtype=np.float64)
    # left SSE csq - csum^2 / k plus right SSE, in the reference's order
    sse = np.square(csum)
    sse /= k
    np.subtract(csq, sse, out=sse)
    np.subtract(total, csum, out=csum)
    np.square(csum, out=csum)
    right_size = m[:, None] - k if ragged else L - k
    csum /= np.maximum(right_size, 1.0) if ragged else right_size
    np.subtract(total_sq, csq, out=csq)
    csq -= csum
    sse += csq
    # padding repeats a slice's last x, so it never passes x_j < x_j+1
    invalid = xs[:, :, p0 + 1 : p1 + 1] <= xs[:, :, p0:p1]
    if ragged and kmin > 1:
        invalid |= right_size < kmin
    np.copyto(sse, np.inf, where=invalid)
    jmin = sse.argmin(axis=2).tolist()  # first minimum: the leftmost threshold
    split, pick, cut, threshold = [], [], [], []
    for s, (col, parent) in enumerate(zip(sse.min(axis=2).T.tolist(), parent_sse)):
        best, r = np.inf, -1
        for f, v in enumerate(col):  # ties go to the lowest feature
            if v < best - _SPLIT_EPS:
                best, r = v, f
        if r >= 0 and best < parent - _SPLIT_EPS:
            j = jmin[r][s] + p0
            left, right = xs[r, s, j : j + 2].tolist()
            mid = 0.5 * (left + right)
            split.append(s)
            pick.append(r)
            cut.append(j + 1)
            # the midpoint of adjacent doubles can round up to the right x;
            # the left one then splits off the same j + 1 rows
            threshold.append(mid if mid < right else left)
    return split, pick, cut, threshold


def cart_train(X, y, max_depth=None, min_leaf=2) -> TreeNode:
    """One exact CART tree on every feature (see the module docstring).
    ``ConfigError`` unless ``max_depth`` is None or an int >= 0 and
    ``min_leaf`` an int >= 1; ``NumericError`` for no rows or no columns,
    or naming the first row with a non-finite label or feature."""
    if max_depth is not None:
        require_count(max_depth, 0, f"max_depth must be None or an int >= 0, got {max_depth!r}")
    require_count(min_leaf, 1, f"min_leaf must be an int >= 1, got {min_leaf!r}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],) or 0 in X.shape:
        raise NumericError(f"bad design shapes {X.shape} / {y.shape}")
    bad = ~(np.isfinite(y) & np.isfinite(X).all(axis=1))
    if bad.any():
        raise NumericError(f"non-finite label or features in row {int(bad.argmax())}")
    return _grow(X.T.copy(), y, max_depth, min_leaf)[0]


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


def rf_train(table, n_trees: int = 100, seed: int = 0) -> RandomForest:
    """Bagged variance-reduction trees; sqrt(d) features per split,
    unlimited depth, min leaf 2.  Rows are already canonically ordered by
    the table itself, so bootstrap indices are order-independent.  All
    trees grow node by node in lock-step (``_grow_forest``)."""
    require_count(n_trees, 1, f"a forest needs at least one tree, got n_trees={n_trees!r}")
    require_count(seed, 0, f"seed must be an int >= 0, got {seed!r}")
    X, y, names = _design(table)
    n, d = X.shape
    samples = [np.random.default_rng(derive_seed(seed, t)).integers(0, n, size=n) for t in range(n_trees)]
    rngs = [np.random.default_rng(derive_seed(seed, t, 1)) for t in range(n_trees)]
    trees = _grow_forest(X.T.copy(), y, samples, None, 2, rngs, max(1, int(np.sqrt(d))))
    return RandomForest(trees=trees, feature_names=names, target=table.target)


def rf_predict(model: RandomForest, table) -> np.ndarray:
    X = _feature_matrix(table, model.feature_names)
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


def gbt_train(table, n_estimators: int = 100, max_depth: int = 20, lr: float = 0.1) -> GbtModel:
    """Squared-error boosting: each round fits a depth-capped tree to the
    current residuals; shrinkage lr; initial prediction = train mean.

    The trees draw no features, so boosting is deterministic.  The design
    is presorted once for all rounds, and each round takes the training
    rows' predictions from its grown leaves.
    """
    require_count(n_estimators, 1, f"boosting needs at least one round, got n_estimators={n_estimators!r}")
    if max_depth is not None:
        require_count(max_depth, 0, f"max_depth must be None or an int >= 0, got {max_depth!r}")
    require_rate(lr, f"lr must be finite and >= 0, got {lr!r}")
    X, y, names = _design(table)
    model = GbtModel(init_value=float(y.mean()), trees=[], lr=lr, feature_names=names, target=table.target)
    xt = X.T.copy()
    presorted = _presort(xt)
    current = np.full(y.shape, model.init_value)
    for _ in range(n_estimators):
        tree, fitted = _grow(xt, y - current, max_depth, 1, presorted.copy())
        model.trees.append(tree)
        current = current + lr * fitted
        model.loss_history.append(float(np.mean((y - current) ** 2)))
    return model


def gbt_predict(model: GbtModel, table) -> np.ndarray:
    X = _feature_matrix(table, model.feature_names)
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
    layers: list[engine.Layer]
    feature_names: tuple[str, ...]
    target: str
    hidden: tuple[int, ...]
    lr: float
    grid_log: list[tuple[tuple[int, ...], float, float]] = field(default_factory=list)
    # grid_log rows: (hidden widths, lr, validation MSE)


def _mlp_fit(X, y, hidden, lr, epochs, seed):
    layers = engine.dense_layers(np.random.default_rng(seed), X.shape[1], hidden)
    engine.fit(X[None], layers, y, lr, epochs, f"mlp (hidden={hidden})")
    return layers


def _mlp_forward(X, layers) -> np.ndarray:
    return engine.Step(X[None], layers).forward().reshape(-1)


def mlp_train(table, epochs: int = 500, seed: int = 0) -> MlpModel:
    """A dense ``engine`` layer stack on the flat features, chosen by grid
    search.

    The grid is {1,2,3} layers x {16,64,128} width x {1e-3,1e-2} lr, each
    point fit on 80% of the training rows and scored by MSE on the held-out
    20%, logged so the selection is replayable; the winner is refit on all
    rows.
    """
    require_count(seed, 0, f"seed must be an int >= 0, got {seed!r}")
    X, y, names = _design(table)
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
                pred = _mlp_forward(X[val_idx], layers)
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
    return _mlp_forward(_feature_matrix(table, model.feature_names), model.layers)


# ---------------------------------------------------------------------------
# random-edges control


def random_skeleton(nodes, target: str, n_edges: int = 50, seed: int = 0) -> GraphSkeleton:
    """n_edges distinct directed non-self pairs, uniform without
    replacement over the sorted nodes, so the edges do not depend on the
    order ``nodes`` comes in; cycles allowed (message passing does not need
    a DAG)."""
    nodes = tuple(sorted_labels(nodes))
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    message = f"asked for {n_edges!r} edges, an int between 0 and the {len(pairs)} ordered pairs that exist"
    require_count(n_edges, 0, message)
    if n_edges > len(pairs):
        raise ConfigError(message)
    require_count(seed, 0, f"seed must be an int >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(pairs), size=n_edges, replace=False)
    return GraphSkeleton(nodes=nodes, edges=tuple(pairs[int(k)] for k in chosen), target=target)

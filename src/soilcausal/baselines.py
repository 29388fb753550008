"""Non-causal comparison models: forests, boosting, an MLP grid, and the
random-edges skeleton control.

All of them consume the flat model table with the target column removed
from the inputs.  Feature iteration order is the sorted column names, so
column permutations of the table cannot change any model.  Trees are
deterministic given the master seed: per-tree seeds come from the same
splitmix derivation the synthesizer uses, so results do not depend on
training schedule.

Trees are exact CART on variance reduction, grown on one presorted index
buffer.  The design is sorted once, with a stable argsort per feature,
into a (d + 1, n) buffer: row f lists the rows by (x_f, row id), and the
last row lists them by row id.  A node owns the slice [lo, hi) of every
row.  Splitting it stably partitions its slice in place, so each row keeps
the (x_f, row id) order inside both children.  That order is the one a
per-node stable argsort of the node's ascending row ids gives, and the
targets' sums run in the same order, so every threshold and leaf value is
the one such a per-node sort would produce, bit for bit.

The grower expands a batch of open nodes per step.  One gather pads the
slices of a batch's nodes to a common length (nodes of similar size share
a padded block, so padding stays small), one cumulative sum per block
scores every candidate feature of every node, and one stable partition
moves the rows of every node that splits.  A cumulative sum runs along one
node's slice alone, with padding only after it, and a node's mean and
squared deviations add up in row-id order exactly as np.sum does (see
``_sums``).

Each batch is one pass of a single loop: every tree pops its open nodes
off a stack in pre-order (node, left subtree, right subtree), and the
children of every node split are pushed back.  The forest draws
``n_features`` features per node from its tree's generator, in that
pre-order, so which draw a node gets depends on how many nodes draw before
it: a tree stops popping at the first node whose children may be open,
since they draw next, and the trees of a forest advance in lock-step with
their buffers side by side.  Boosting and ``cart_train`` without
``n_features`` draw nothing, so each tree empties its stack and a batch is
one whole depth of it.

A forest whose ``_FOREST_BYTES`` group holds fewer than
``_LOCKSTEP_TREES`` trees (a design with many rows, such as the 400-day
tables) grows each tree node by node instead (``_grow_alone``): each node
sorts only its drawn features, by a stable argsort of its rows in row-id
order, which is the buffer's order, and ``_best_splits`` chooses its split
as for a block, so the tree is the same node for node.  A few trees in
lock-step have a few nodes per batch, and each split partitions every
buffer row; many trees share a batch's Python work.  Over 12-column
tables of 900 to 6000 rows, node by node was faster where a group held 3
to 5 trees, and lock-step where it held 6 or more.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine
from .errors import ConfigError, NumericError, require_count, require_rate
from .gnn import GraphSkeleton
from .ingest import require_finite
from .seeding import derive_seed

_SPLIT_EPS = 1e-12  # require a real variance reduction before splitting
_PAIRWISE_BLOCK = 128  # np.sum adds up to this many values in one unrolled run
_FEW_ROWS = 8  # up to this many nodes, sum each with np.sum itself
_BLOCK_WASTE = 2048  # padded (feature, row) cells worth one more block's calls
_BLOCK_CELLS = 1 << 15  # (feature, row) cells of a block of several nodes, at most
_FOREST_BYTES = 4 << 20  # buffers of the trees a forest grows side by side, at most
_LOCKSTEP_TREES = 6  # fewest trees grown side by side; smaller groups grow node by node


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


def _presort(xt, n_rows: int) -> np.ndarray:
    """The index buffer of the trees whose designs are the consecutive
    ``n_rows``-column blocks of ``xt`` (features x rows), side by side:
    row f lists each block's rows by (x_f, row id), the last row by row
    id."""
    d, N = xt.shape
    order = np.empty((d + 1, N), dtype=np.intp)
    order[:d] = np.argsort(xt.reshape(d, -1, max(n_rows, 1)), axis=2, kind="stable").reshape(d, N)
    if N > n_rows:
        order[:d] += np.repeat(np.arange(0, N, n_rows), n_rows)
    order[d] = np.arange(N)
    return order


def _sums(a, m) -> np.ndarray:
    """``a[s, :m[s]].sum()`` for every row s of the padded ``a``, bit for
    bit: np.sum row by row for a few rows; for more, ``_block_sums`` on
    the rows of up to ``_PAIRWISE_BLOCK`` values and np.sum on the rows of
    each longer length."""
    if m.size <= _FEW_ROWS:
        return np.array([np.add.reduce(row[:n]) for row, n in zip(a, m.tolist())])
    out = _block_sums(a, m) + 0.0  # np.sum starts from 0.0
    for length in set(m[m > _PAIRWISE_BLOCK].tolist()):
        rows = m == length
        out[rows] = a[rows, :length].sum(axis=1)
    return out


def _block_sums(a, m) -> np.ndarray:
    """np.sum of ``a[s, :m[s]]`` for rows of up to ``_PAIRWISE_BLOCK``
    values (longer rows come out wrong), following numpy's float64 steps:
    fewer than 8 values in sequence from 0.0; otherwise eight interleaved
    running sums over the first multiple of 8 values, added as a tree, then
    the rest in sequence."""
    S, edge = m.size, a.shape[1] - 1
    blocks = np.minimum(m, _PAIRWISE_BLOCK) // 8
    head = np.zeros(S)
    if blocks.max() > 0:
        lanes = a[:, : 8 * blocks.max()].reshape(S, -1, 8).cumsum(axis=1)
        lanes = lanes[np.arange(S), np.maximum(blocks - 1, 0)]
        pairs = lanes[:, 0::2] + lanes[:, 1::2]
        quads = pairs[:, 0::2] + pairs[:, 1::2]
        head = np.where(blocks > 0, quads[:, 0] + quads[:, 1], 0.0)
    rest = a[np.arange(S)[:, None], np.minimum(8 * blocks[:, None] + np.arange(7), edge)]
    run = np.column_stack([head, rest]).cumsum(axis=1)
    return run[np.arange(S), np.minimum(m - 8 * blocks, 7)]


def _blocks(m, width: int) -> list:
    """Groups of the slices with lengths ``m`` that are padded together.
    From the longest down, slices join the current group until padding
    them to its longest costs more than ``_BLOCK_WASTE`` cells of ``width``
    features; a group of more than ``_BLOCK_CELLS`` cells is cut in equal
    parts."""
    if m.size == 1:
        return [slice(None)]
    perm = np.argsort(m, kind="stable")[::-1]
    ms = m[perm].tolist()
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


class _Grower:
    """The trees of one presorted buffer, grown a batch of nodes at a time
    (see the module docstring).  Node i's fields sit at index i of the
    lists; ``left``/``right`` are -1 for a leaf, ``value`` None until the
    node's mean is taken."""

    def __init__(self, xt, y, order, max_depth, min_leaf):
        self.xt, self.y, self.order = xt, y, order
        self.max_depth, self.min_leaf = max_depth, min_leaf
        self.kmin = max(min_leaf, 1)  # smallest child a split may leave
        N = y.size
        self.steps = np.arange(N)
        self.all_features = np.arange(xt.shape[0])[:, None, None]
        self.goes_left = np.zeros(N, dtype=bool)
        self.lo, self.hi, self.depth, self.value = [], [], [], []
        self.feature, self.threshold, self.left, self.right = [], [], [], []

    def add(self, lo, hi, depth) -> range:
        ids = range(len(self.lo), len(self.lo) + len(lo))
        self.lo += lo
        self.hi += hi
        self.depth += depth
        self.value += [None] * len(lo)
        self.feature += [None] * len(lo)
        self.threshold += [0.0] * len(lo)
        self.left += [-1] * len(lo)
        self.right += [-1] * len(lo)
        return ids

    def is_open(self, m, depth):
        """Whether nodes of ``m`` rows at ``depth`` may split: not leaves
        by size or depth."""
        ok = m >= 2 * self.min_leaf
        return ok if self.max_depth is None else ok & (depth < self.max_depth)

    def grow(self, roots, rngs, n_features):
        """Per batch, the open nodes each tree pops off its pre-order stack.
        A tree that draws ``n_features`` features per node from its
        generator in ``rngs`` stops at the first node whose children may be
        open, since they draw next; a tree that draws none empties its
        stack, so its batch is one whole depth."""
        d = self.xt.shape[0]
        draws = n_features is not None and n_features < d
        width = n_features if draws else d
        stacks = [[root] for root in roots]
        while True:
            batch, owner, feats = [], [], []
            for t, stack in enumerate(stacks):
                while stack:
                    i = stack.pop()
                    m, depth = self.hi[i] - self.lo[i], self.depth[i]
                    if not self.is_open(m, depth):
                        continue
                    batch.append([i, self.lo[i], self.hi[i], depth])
                    owner.append(t)
                    if draws:
                        feats.append(rngs[t].choice(d, size=n_features, replace=False))
                        if self.is_open(m - self.kmin, depth + 1):
                            break
            if not batch:
                return
            ids, lo, hi, depth = np.array(batch).T
            feats = np.sort(feats, axis=1) if draws else None
            for b in _blocks(hi - lo, width):
                self._split_block(ids[b], lo[b], hi[b], depth[b], feats[b] if draws else None)
            for t, i in zip(owner, ids.tolist()):
                if self.left[i] >= 0:
                    stacks[t] += [self.right[i], self.left[i]]

    def _split_block(self, ids, lo, hi, depth, feats) -> None:
        """Take the means of one padded block of nodes ``ids`` of rows
        [lo, hi) at ``depth`` (their candidate features, one row each, or
        None for all) and split those with a split."""
        mean, split, feature, threshold, n_left = self._search(lo, hi, feats)
        ids, lo, hi, depth = ids.tolist(), lo.tolist(), hi.tolist(), depth.tolist()
        for i, v in zip(ids, mean.tolist()):
            self.value[i] = v
        lo, hi, depth = [lo[s] for s in split], [hi[s] for s in split], [depth[s] + 1 for s in split]
        cut = [a + n for a, n in zip(lo, n_left)]
        children = self.add(lo + cut, cut + hi, depth + depth)
        for s, f, t, l, r in zip(split, feature, threshold, children, children[len(split) :]):
            i = ids[s]
            self.feature[i], self.threshold[i], self.left[i], self.right[i] = f, t, l, r
        if split:
            # leaves by size or depth read only the row-id row
            deeper = any(self.is_open(b - a - self.kmin, e) for a, b, e in zip(lo, hi, depth))
            self._partition(lo, cut, hi, slice(None) if deeper else slice(-1, None))

    def _search(self, lo, hi, feats):
        """Means of the nodes [lo, hi) of one block, and the best split of
        each that splits: their indices, feature, threshold and left size.
        Marks the left rows of those splits in ``goes_left``."""
        xt, y, order = self.xt, self.y, self.order
        m = hi - lo
        ms = m.tolist()
        S, L = len(ms), max(ms)
        # one row of buffer positions per node; padding repeats the last
        pos = np.minimum(lo[:, None] + self.steps[:L], (hi - 1)[:, None]) if S > 1 else slice(lo[0], hi[0])
        ys = y[order[-1, pos]].reshape(S, L)  # targets by row id
        mean = _sums(ys, m) / m
        if feats is None:
            fids, frows = self.all_features, order[:-1, pos]
        else:
            fids = feats.T[:, :, None]
            frows = order[fids, pos]
        frows = frows.reshape(len(fids), S, L)
        parent_sse = _sums(np.square(ys - mean[:, None]), m).tolist()
        split, pick, cut, threshold = _best_splits(xt[fids, frows], y[frows], m, self.kmin, parent_sse)
        if not split:
            return mean, [], [], [], []
        # padding repeats a slice's last row by the split feature, which goes right
        self.goes_left[frows[pick, split]] = self.steps[:L] < np.array(cut)[:, None]
        feature = pick if feats is None else feats[split, pick].tolist()
        return mean, split, feature, threshold, cut

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
        """Values of the leaves by size or depth, the trees as TreeNodes,
        and each row's fitted value (its leaf's)."""
        todo = np.array([i for i, v in enumerate(self.value) if v is None], dtype=np.intp)
        lo, hi = np.array(self.lo), np.array(self.hi)
        for b in _blocks(hi[todo] - lo[todo], 1) if todo.size else []:
            ids = todo[b]
            m = hi[ids] - lo[ids]
            pos = np.minimum(lo[ids, None] + self.steps[: m.max()], (hi[ids] - 1)[:, None])
            for i, v in zip(ids.tolist(), (_sums(self.y[self.order[-1, pos]], m) / m).tolist()):
                self.value[i] = v
        value, left, right = self.value, self.left, self.right
        nodes = [None] * len(value)
        for i in range(len(value) - 1, -1, -1):
            if left[i] < 0:
                nodes[i] = TreeNode(None, 0.0, None, None, value[i])
            else:
                nodes[i] = TreeNode(self.feature[i], self.threshold[i], nodes[left[i]], nodes[right[i]], value[i])
        leaves = np.flatnonzero(np.array(left) < 0)
        leaves = leaves[np.argsort(lo[leaves])]  # they tile the buffer
        fitted = np.empty(self.y.size)
        fitted[self.order[-1]] = np.repeat(np.array(value)[leaves], hi[leaves] - lo[leaves])
        return nodes, fitted


def _grow(xt, y, n_rows, max_depth, min_leaf, rngs=None, n_features=None, order=None):
    """Grow the trees whose designs are the consecutive ``n_rows``-column
    blocks of ``xt`` (features x rows), on the buffer ``order`` (their
    ``_presort``, taken if not given; modified in place).  Returns their
    roots and each row's fitted value."""
    if n_rows == 0:
        raise NumericError(f"bad design shapes {xt.T.shape} / {y.shape}")
    if order is None:
        order = _presort(xt, n_rows)
    starts = list(range(0, y.size, n_rows))
    grower = _Grower(xt, y, order, max_depth, min_leaf)
    roots = grower.add(starts, [s + n_rows for s in starts], [0] * len(starts))
    grower.grow(roots, rngs, n_features)
    nodes, fitted = grower.finish()
    return [nodes[i] for i in roots], fitted


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
    ragged = S > 1 and m.min() < L
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


def _grow_alone(xt, y, min_leaf, rng, n_features) -> TreeNode:
    """One forest tree (unlimited depth) on the design ``xt`` (features x
    rows), grown node by node in pre-order.  Each node that may split draws
    ``n_features`` features from ``rng`` and sorts only those, with a
    stable argsort of its rows in row-id order, so its x and target orders
    are the presorted buffer's and ``_best_splits`` picks ``_grow``'s split."""
    d = xt.shape[0]
    root = TreeNode(None, 0.0, None, None, 0.0)
    stack = [(root, np.arange(y.size))]
    while stack:
        node, idx = stack.pop()
        ys = y[idx]
        node.value = float(ys.sum() / idx.size)
        if idx.size < 2 * min_leaf:
            continue
        feats = np.sort(rng.choice(d, size=n_features, replace=False)) if n_features < d else np.arange(d)
        frows = idx[xt[feats[:, None], idx].argsort(axis=1, kind="stable")][:, None]
        parent_sse = [float(np.square(ys - node.value).sum())]
        xs, yr = xt[feats[:, None, None], frows], y[frows]
        split, pick, _, threshold = _best_splits(xs, yr, np.array([idx.size]), max(min_leaf, 1), parent_sse)
        if not split:
            continue
        node.feature, node.threshold = int(feats[pick[0]]), threshold[0]
        goes_left = xt[node.feature, idx] <= node.threshold
        node.left, node.right = TreeNode(None, 0.0, None, None, 0.0), TreeNode(None, 0.0, None, None, 0.0)
        stack += [(node.right, idx[~goes_left]), (node.left, idx[goes_left])]
    return root


def cart_train(X, y, max_depth=None, min_leaf=2, rng=None, n_features=None) -> TreeNode:
    """One exact CART tree (see the module docstring).

    ``n_features`` features are drawn from ``rng`` at each node that is
    not a leaf by size or depth, in pre-order (node, left subtree, right
    subtree).  ``ConfigError`` unless ``n_features`` is None or an int of at
    least 1; from d on it means every feature.
    """
    if n_features is not None:
        require_count(n_features, 1, f"n_features must be None or an int >= 1, got {n_features!r}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],) or X.shape[0] == 0:
        raise NumericError(f"bad design shapes {X.shape} / {y.shape}")
    if rng is None:
        rng = np.random.default_rng(0)
    (tree,), _ = _grow(X.T.copy(), y, X.shape[0], max_depth, min_leaf, [rng], n_features)
    return tree


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
    the table itself, so bootstrap indices are order-independent.  The
    trees grow side by side, as many at a time as ``_FOREST_BYTES``
    holds, or node by node when it holds fewer than ``_LOCKSTEP_TREES``."""
    require_count(n_trees, 1, f"a forest needs at least one tree, got n_trees={n_trees!r}")
    X, y, names = _design(table)
    n, d = X.shape
    n_features = max(1, int(np.sqrt(d)))
    group = max(1, _FOREST_BYTES // (8 * max(n, 1) * (2 * d + 5)))  # buffer, design, node arrays
    trees = []
    for first in range(0, n_trees, group):
        members = range(first, min(first + group, n_trees))
        rows = [
            np.random.default_rng(derive_seed(seed, t)).integers(0, n, size=n) if bootstrap else np.arange(n)
            for t in members
        ]
        rngs = [np.random.default_rng(derive_seed(seed, t, 1)) for t in members]
        if group < _LOCKSTEP_TREES:
            trees += [_grow_alone(X.T[:, idx], y[idx], 2, rng, n_features) for idx, rng in zip(rows, rngs)]
        else:
            idx = np.concatenate(rows)
            trees += _grow(X.T[:, idx], y[idx], n, None, 2, rngs, n_features)[0]
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


def gbt_train(table, n_estimators: int = 100, max_depth: int = 20, lr: float = 0.1) -> GbtModel:
    """Squared-error boosting: each round fits a depth-capped tree to the
    current residuals; shrinkage lr; initial prediction = train mean.

    The trees draw no features, so boosting is deterministic.  The design
    is presorted once for all rounds, and each round takes the training
    rows' predictions from its grown leaves.
    """
    require_count(n_estimators, 1, f"boosting needs at least one round, got n_estimators={n_estimators!r}")
    require_rate(lr, f"lr must be finite and >= 0, got {lr!r}")
    X, y, names = _design(table)
    model = GbtModel(init_value=float(y.mean()), trees=[], lr=lr, feature_names=names, target=table.target)
    xt, n = X.T.copy(), X.shape[0]
    presorted = _presort(xt, n)
    current = np.full(y.shape, model.init_value)
    for _ in range(n_estimators):
        (tree,), fitted = _grow(xt, y - current, n, max_depth, 1, order=presorted.copy())
        model.trees.append(tree)
        current = current + lr * fitted
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


def _mlp_fit(X, y, hidden, lr, epochs, seed):
    layers = engine.dense_stack_params(np.random.default_rng(seed), X.shape[1], hidden)
    params = [t for layer in layers for t in layer.tensors]
    xc = engine.constant(X)
    engine.adam_fit(lambda: engine.dense_stack(xc, layers), params, y, lr, epochs, f"mlp (hidden={hidden})")
    return layers


def mlp_train(table, epochs: int = 500, seed: int = 0) -> MlpModel:
    """``engine.dense_stack`` on the flat features, chosen by grid search.

    The grid is {1,2,3} layers x {16,64,128} width x {1e-3,1e-2} lr, each
    point fit on 80% of the training rows and scored by MSE on the held-out
    20%, logged so the selection is replayable; the winner is refit on all
    rows.
    """
    X, y, names = _design(table)
    require_finite(y, "label", table)
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
                pred = engine.dense_stack(engine.constant(X[val_idx]), layers).values
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
    return engine.dense_stack(engine.constant(X), model.layers).values.copy()


# ---------------------------------------------------------------------------
# random-edges control


def random_skeleton(nodes, target: str, n_edges: int = 50, seed: int = 0) -> GraphSkeleton:
    """n_edges distinct directed non-self pairs, uniform without
    replacement; cycles allowed (message passing does not need a DAG)."""
    nodes = tuple(nodes)
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    if not 0 <= n_edges <= len(pairs):
        raise ConfigError(f"asked for {n_edges} edges, between 0 and {len(pairs)} ordered pairs exist")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(pairs), size=n_edges, replace=False)
    return GraphSkeleton(nodes=nodes, edges=tuple(pairs[int(k)] for k in chosen), target=target)

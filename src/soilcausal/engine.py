"""Minimal dense reverse-mode differentiation engine.

Float64 throughout: downstream gradient checks run at tolerances that
float32 cannot hold.  Graphs are built eagerly — every op returns a
``Tensor`` holding its value, its parents, and a closure that pushes the
adjoint back one step.  ``backward`` replays the closures in reverse
topological order.

The op set is intentionally small: matmul/add (and the dense affine map
built from them), ReLU, transpose/reshape/slice/node-select plumbing, and
the mean squared error.  That is everything the message-passing models and
the MLP baseline use.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError

__all__ = [
    "AdamState",
    "DenseParams",
    "FiniteDiffReport",
    "Tensor",
    "adam_step",
    "add",
    "constant",
    "dense",
    "dense_params",
    "finite_diff_check",
    "glorot_uniform",
    "load_params",
    "matmul",
    "mse",
    "parameter",
    "relu",
    "reshape",
    "save_params",
    "slice_last",
    "take_node",
    "transpose",
]


class Tensor:
    """A node in the computation graph.

    ``values`` is always a float64 ndarray (scalars become 0-d arrays).
    ``grad`` is lazily allocated by ``backward``.  Leaf tensors created
    with ``parameter`` participate in gradient accumulation; ``constant``
    leaves do not.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_push")

    def __init__(self, values, parents=(), push=None, requires_grad=True):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = tuple(parents)
        self._push = push

    @property
    def shape(self):
        return self.values.shape

    def item(self) -> float:
        return float(self.values)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        if self.values.ndim != 0:
            raise NumericError("backward starts from a scalar loss")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(order):
            if node._push is not None and node.grad is not None:
                node._push(node.grad)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.values.shape})"


def parameter(values) -> Tensor:
    return Tensor(np.array(values, dtype=np.float64), requires_grad=True)


def constant(values) -> Tensor:
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=False)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # copy, not alias: g is often a view into a consumer's grad buffer
        t.grad = np.array(g, dtype=np.float64)
        if t.grad.shape != t.values.shape:
            t.grad = np.broadcast_to(t.grad, t.values.shape).copy()
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(k for k, n in enumerate(shape) if n == 1 and g.shape[k] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _node(values, parents, push) -> Tensor:
    """Op result: participates in backward only if some parent does."""
    if any(p.requires_grad for p in parents):
        return Tensor(values, parents, push, requires_grad=True)
    return Tensor(values, (), None, requires_grad=False)


def add(a: Tensor, b: Tensor) -> Tensor:
    out_vals = a.values + b.values

    def push(g):
        _accumulate(a, _unbroadcast(g, a.values.shape))
        _accumulate(b, _unbroadcast(g, b.values.shape))

    return _node(out_vals, (a, b), push)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` with numpy matmul semantics (batched stacks included)."""
    out_vals = a.values @ b.values
    a_vec = a.values.ndim == 1
    b_vec = b.values.ndim == 1

    def push(g):
        # guard each side: computing the adjoint of a constant operand
        # (e.g. a fixed aggregation matrix) would be pure wasted GEMMs
        av, bv = a.values, b.values
        gg = g
        if a_vec and b_vec:  # inner product -> scalar adjoint
            _accumulate(a, gg * bv)
            _accumulate(b, gg * av)
            return
        if a_vec:
            if a.requires_grad:
                _accumulate(a, _unbroadcast(gg @ np.swapaxes(bv, -1, -2), av.shape))
            if b.requires_grad:
                _accumulate(b, _unbroadcast(np.outer(av, gg) if bv.ndim == 2 else av[..., None] * gg[..., None, :], bv.shape))
            return
        if b_vec:
            if a.requires_grad:
                _accumulate(a, _unbroadcast(gg[..., None] * bv, av.shape))
            if b.requires_grad:
                _accumulate(b, _unbroadcast(np.swapaxes(av, -1, -2) @ gg if av.ndim == 2 else (av * gg[..., None]).sum(axis=tuple(range(av.ndim - 1))), bv.shape))
            return
        if a.requires_grad:
            _accumulate(a, _unbroadcast(gg @ np.swapaxes(bv, -1, -2), av.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.swapaxes(av, -1, -2) @ gg, bv.shape))

    return _node(out_vals, (a, b), push)


def relu(x: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is 0."""
    mask = x.values > 0.0
    out_vals = np.where(mask, x.values, 0.0)

    def push(g):
        _accumulate(x, g * mask)

    return _node(out_vals, (x,), push)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out_vals = x.values.reshape(shape)

    def push(g):
        _accumulate(x, g.reshape(x.values.shape))

    return _node(out_vals, (x,), push)


def slice_last(x: Tensor, start: int, stop: int) -> Tensor:
    """View of ``x`` restricted to ``start:stop`` along the last axis."""
    out_vals = x.values[..., start:stop]

    def push(g):
        full = np.zeros(x.values.shape, dtype=np.float64)
        full[..., start:stop] = g
        _accumulate(x, full)

    return _node(out_vals, (x,), push)


def take_node(x: Tensor, index: int, axis: int = -2) -> Tensor:
    """Select one slot along ``axis`` (the per-node readout)."""
    out_vals = np.take(x.values, index, axis=axis)

    def push(g):
        full = np.zeros(x.values.shape, dtype=np.float64)
        sl = [slice(None)] * x.values.ndim
        sl[axis if axis >= 0 else x.values.ndim + axis] = index
        full[tuple(sl)] = g
        _accumulate(x, full)

    return _node(out_vals, (x,), push)


def mse(pred: Tensor, target) -> Tensor:
    t = np.asarray(target, dtype=np.float64)
    diff = pred.values - t
    n = diff.size
    out_vals = np.array((diff * diff).sum() / n)

    def push(g):
        _accumulate(pred, g * 2.0 * diff / n)

    return _node(out_vals, (pred,), push)


# ---------------------------------------------------------------------------
# layers


@dataclass
class DenseParams:
    """Affine layer parameters: weight (out x in) and bias (out,)."""

    weight: Tensor
    bias: Tensor

    def __post_init__(self):
        w, b = self.weight.values, self.bias.values
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise NumericError(f"inconsistent dense shapes {w.shape} / {b.shape}")

    @property
    def tensors(self) -> tuple[Tensor, Tensor]:
        return (self.weight, self.bias)


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


def dense_params(rng: np.random.Generator, out_dim: int, in_dim: int) -> DenseParams:
    # small nonzero bias keeps ReLU preactivations off the exact kink
    # (all-zero input slices otherwise land precisely at 0, where central
    # differences and the subgradient disagree)
    return DenseParams(
        weight=parameter(glorot_uniform(rng, out_dim, in_dim)),
        bias=parameter(rng.uniform(-0.05, 0.05, size=out_dim)),
    )


def dense(x: Tensor, params: DenseParams) -> Tensor:
    """y = x W^T + b, applied to the last axis of ``x``."""
    wt = matmul(x, transpose(params.weight))
    return add(wt, params.bias)


def transpose(w: Tensor) -> Tensor:
    out_vals = w.values.T

    def push(g):
        _accumulate(w, g.T)

    return _node(out_vals, (w,), push)


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """Bias-corrected Adam moments for a fixed parameter list."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params: list[Tensor], lr: float) -> "AdamState":
        st = cls(lr=float(lr))
        st.m = [np.zeros(p.values.shape) for p in params]
        st.v = [np.zeros(p.values.shape) for p in params]
        return st


def adam_step(params: list[Tensor], grads: list[np.ndarray], state: AdamState) -> list[Tensor]:
    if len(params) != len(state.m) or len(params) != len(grads):
        raise NumericError("adam_step parameter/moment count mismatch")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g is None:
            continue
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p.values -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params


# ---------------------------------------------------------------------------
# gradient verification


@dataclass(frozen=True)
class FiniteDiffReport:
    max_rel_err: float
    worst_param: int
    worst_entry: int
    n_entries: int
    passed: bool


def finite_diff_check(loss_fn, params: list[Tensor], tol: float = 1e-4, h: float = 1e-5) -> FiniteDiffReport:
    """Compare reverse-mode gradients against central differences.

    ``loss_fn`` rebuilds the forward graph from the current parameter
    values and returns the scalar loss tensor.  Relative error uses
    max(|analytic|, |numeric|, 1e-5) as the denominator, so entries whose
    gradient sits below 1e-5 are effectively compared absolutely — the
    cancellation noise of the central difference itself (~1e-11 per unit
    of loss) lives far under that floor.
    """
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = [np.zeros(p.values.shape) if p.grad is None else p.grad.copy() for p in params]

    worst = (0.0, -1, -1)
    n_entries = 0
    for k, p in enumerate(params):
        flat = p.values.reshape(-1)
        for j in range(flat.size):
            n_entries += 1
            keep = flat[j]
            flat[j] = keep + h
            up = float(loss_fn().values)
            flat[j] = keep - h
            down = float(loss_fn().values)
            flat[j] = keep
            fd = (up - down) / (2.0 * h)
            a = analytic[k].reshape(-1)[j]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-5)
            if rel > worst[0]:
                worst = (rel, k, j)
    return FiniteDiffReport(
        max_rel_err=worst[0],
        worst_param=worst[1],
        worst_entry=worst[2],
        n_entries=n_entries,
        passed=worst[0] < tol,
    )


# ---------------------------------------------------------------------------
# checkpoints
#
# Layout (all integers little-endian uint32, all floats little-endian
# float64, C order):
#   [0]  param count P
#   then P shape records: ndim, dim_0 .. dim_{ndim-1}
#   then P value buffers back to back.


def save_params(path, params: list[Tensor]) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(params)))
        for p in params:
            dims = p.values.shape
            fh.write(struct.pack(f"<I{len(dims)}I", len(dims), *dims))
        for p in params:
            fh.write(np.ascontiguousarray(p.values, dtype="<f8").tobytes())


def load_params(path) -> list[np.ndarray]:
    with open(path, "rb") as fh:
        raw = fh.read()
    off = 0

    def take(fmt):
        nonlocal off
        vals = struct.unpack_from(fmt, raw, off)
        off += struct.calcsize(fmt)
        return vals

    (count,) = take("<I")
    shapes = []
    for _ in range(count):
        (ndim,) = take("<I")
        shapes.append(take(f"<{ndim}I") if ndim else ())
    out = []
    for shape in shapes:
        n = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(raw, dtype="<f8", count=n, offset=off).astype(np.float64)
        off += 8 * n
        out.append(arr.reshape(shape))
    if off != len(raw):
        raise NumericError(f"checkpoint has {len(raw) - off} trailing bytes")
    return out


def assign_params(params: list[Tensor], arrays: list[np.ndarray]) -> None:
    if len(params) != len(arrays):
        raise NumericError("checkpoint parameter count mismatch")
    for p, a in zip(params, arrays):
        if p.values.shape != a.shape:
            raise NumericError(f"checkpoint shape {a.shape} != {p.values.shape}")
        p.values[...] = a

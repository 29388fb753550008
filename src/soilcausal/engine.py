"""Minimal dense reverse-mode differentiation engine.

Float64 throughout: downstream gradient checks run at tolerances that
float32 cannot hold.  Graphs are built eagerly — every op returns a
``Tensor`` holding its value, its parents, and a closure that pushes the
adjoint back one step.  ``backward`` replays the closures in reverse
topological order.  Each gradient buffer has one owner: leaves keep their
``grad``, an interior tensor drops its ``grad`` once pushed, and a buffer
an op hands a parent (fresh, or a view of the op's own gradient) belongs
to the parent, which may add to it or mask it in place.

The op set is intentionally small.  ``layer_stack`` runs a model's
affine layers as one op with a hand-written backward, on node-major
(nodes, rows, dim) states with ReLU between the layers: dense layers, the
map x Wᵀ + b on every node's states (the MLP baseline, both GNN heads, the
ECC filter network), and mean-aggregation convolutions, each output node's
own state and the mean of its neighbours' through an affine map on
[self | mean] (both GNNs' convolutions).  It keeps only each layer's input
and mask.  Besides it there are ``matmul`` on matrices and stacks of
matrices (both operands at least 2-D), ``reshape`` and the mean squared
error of same-shape arrays.  ``dense_stack`` runs dense layers down to one
output per row on a (1, rows, in) state: the MLP baseline and both GNN
heads.  The convolutions take the graph as constants: per layer, the
positions of the output nodes' own states in the input and an (out, in)
mean-aggregation block.  ``adam_fit`` is the one full-batch Adam loop the
models and the MLP baseline train with, and ``pack_params``/
``unpack_params`` are the byte layout of the parameters in a model
checkpoint.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, SchemaError, require_count, require_rate

__all__ = [
    "AdamState",
    "DenseParams",
    "Tensor",
    "adam_fit",
    "adam_step",
    "constant",
    "dense_params",
    "dense_stack",
    "dense_stack_params",
    "glorot_uniform",
    "layer_stack",
    "matmul",
    "mse",
    "pack_params",
    "parameter",
    "reshape",
    "unpack_params",
]


class Tensor:
    """A node in the computation graph.

    ``values`` is always a float64 ndarray (scalars become 0-d arrays).
    ``grad`` is set by ``backward``: ``parameter`` leaves keep it, an op's
    result drops it once it has pushed it, ``constant`` leaves get none.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_push")

    def __init__(self, values, parents=(), push=None, requires_grad=True):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = tuple(parents)
        self._push = push

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
                node.grad = None

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.values.shape})"


def parameter(values) -> Tensor:
    return Tensor(np.array(values, dtype=np.float64), requires_grad=True)


def constant(values) -> Tensor:
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=False)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g``, a float64 array of t's shape that no other tensor reads,
    to ``t.grad``; the first one becomes the grad buffer as it is."""
    if t.requires_grad and t.grad is None:
        t.grad = g
    elif t.requires_grad:
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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for operands of at least two dimensions; leading (stack)
    dimensions broadcast as in numpy."""
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise NumericError(f"matmul takes matrices, got shapes {a.values.shape} and {b.values.shape}")
    out_vals = a.values @ b.values

    def push(g):
        # guard each side: computing the adjoint of a constant operand
        # (e.g. a fixed aggregation matrix) would be pure wasted GEMMs
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ np.swapaxes(b.values, -1, -2), a.values.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.swapaxes(a.values, -1, -2) @ g, b.values.shape))

    return _node(out_vals, (a, b), push)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out_vals = x.values.reshape(shape)

    def push(g):
        _accumulate(x, g.reshape(x.values.shape))

    return _node(out_vals, (x,), push)


def mse(pred: Tensor, target) -> Tensor:
    t = np.asarray(target, dtype=np.float64)
    if t.shape != pred.values.shape:
        raise NumericError(f"mse of predictions {pred.values.shape} against targets {t.shape}")
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


def dense_stack_params(rng: np.random.Generator, in_dim: int, hidden: tuple[int, ...]) -> list[DenseParams]:
    """The layers of a dense stack from ``in_dim`` through the ``hidden``
    widths to one output, drawn input side first."""
    dims = [in_dim, *hidden, 1]
    return [dense_params(rng, dims[k + 1], dims[k]) for k in range(len(dims) - 1)]


def dense_stack(h: Tensor, layers: list[DenseParams]) -> Tensor:
    """The stack on one node's (1, rows, in) states, ReLU after every layer
    but the last: one output per row, (rows,)."""
    out = layer_stack(h, [None] * len(layers), [p.weight for p in layers], [p.bias for p in layers])
    return reshape(out, (out.values.shape[1],))


def _aggregate(agg: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Mean-aggregate node-major states: (m_out, m_in) @ (m_in, B, d),
    as one GEMM over the flattened rows."""
    m_in, rows, d = h.shape
    return (agg @ h.reshape(m_in, rows * d)).reshape(agg.shape[0], rows, d)


def layer_stack(h: Tensor, layers, weights: list[Tensor], biases: list[Tensor]) -> Tensor:
    """Affine layers on node-major states ``h``, (m_in, B, d), ReLU after
    every layer but the last.  Layer k is ``None`` or a pair
    (self_index, agg).  ``None`` is a dense layer, x Wₖᵀ + bₖ on every
    node's states.  A pair is a mean-aggregation graph convolution: its
    output node i reads its own state ``h[self_index[i]]`` and the mean
    ``agg[i] @ h`` of its neighbours' states (an all-zero row of ``agg`` is a
    zero mean) and returns [self | mean] Wₖᵀ + bₖ.  Backward reads only each
    layer's input and ReLU mask: a convolution's output dies once the next
    layer has read it, a dense layer's input is a view of it.
    """
    if not len(layers) == len(weights) == len(biases) > 0:
        raise NumericError(f"{len(layers)} layers, {len(weights)} weights and {len(biases)} biases")
    if h.values.ndim != 3:
        raise NumericError(f"layer_stack takes node-major (nodes, rows, dim) states, got {h.values.shape}")
    saved = []
    out = h.values
    for k, (layer, weight, bias) in enumerate(zip(layers, weights, biases)):
        m_in, rows, d = out.shape
        w, b = weight.values.shape, bias.values.shape
        if layer is None:
            if w[1:] != (d,) or b != w[:1]:
                raise NumericError(f"dense {k} weight {w} and bias {b} do not fit states {out.shape}")
            m_out = m_in
            x = out.reshape(m_in * rows, d)
        else:
            self_index, agg = layer
            m_out = agg.shape[0]
            if w[1:] != (2 * d,) or b != w[:1] or agg.shape[1] != m_in or self_index.shape != (m_out,):
                shapes = f"weight {w}, bias {b}, block {agg.shape} and self positions {self_index.shape}"
                raise NumericError(f"conv {k} {shapes} do not fit states {out.shape}")
            x = np.empty((m_out, rows, 2 * d))
            x[..., :d] = out[self_index]
            x[..., d:] = _aggregate(agg, out)
            x = x.reshape(m_out * rows, 2 * d)
        del out  # unless x is a view of it, the previous output dies here
        out = x @ weight.values.T
        out += bias.values
        mask = None
        if k < len(layers) - 1:
            mask = out > 0.0  # the subgradient at exactly 0 is 0
            np.fmax(out, 0.0, out=out)  # in place; NaN -> 0
        out = out.reshape(m_out, rows, out.shape[1])
        saved.append((x, mask, m_out, d))

    def push(g):
        for k in reversed(range(len(saved))):
            layer, (x, mask, m_out, d) = layers[k], saved[k]
            g = g.reshape(m_out * rows, g.shape[-1])
            if mask is not None:
                g *= mask
            _accumulate(weights[k], g.T @ x)
            _accumulate(biases[k], g.sum(axis=0))
            if k or h.requires_grad:
                w = weights[k].values
                if layer is None:
                    g = (g @ w).reshape(m_out, rows, d)
                else:
                    self_index, agg = layer
                    gh = _aggregate(agg.T, (g @ w[:, d:]).reshape(m_out, rows, d))
                    gh[self_index] += (g @ w[:, :d]).reshape(m_out, rows, d)  # distinct slots
                    g = gh
        _accumulate(h, g)

    return _node(out, (h, *weights, *biases), push)


# ---------------------------------------------------------------------------
# optimizer


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam moments for a fixed parameter list."""

    lr: float
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
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * g * g
        m_hat = m / (1.0 - _BETA1**t)
        v_hat = v / (1.0 - _BETA2**t)
        p.values -= state.lr * m_hat / (np.sqrt(v_hat) + _EPS)
    return params


def adam_fit(forward, params: list[Tensor], target, lr: float, epochs: int, name: str) -> list[float]:
    """Full-batch Adam on ``mse(forward(), target)``, one step per epoch.

    ``forward`` builds the prediction graph from the current parameter
    values.  Returns each epoch's loss, taken before its step.  A
    non-finite loss raises ``NumericError`` naming ``name``, the epoch and
    the last losses.  ``ConfigError`` unless ``epochs`` is an int of at
    least 0 and ``lr`` a finite number of at least 0.
    """
    require_count(epochs, 0, f"{name}: epochs must be >= 0, got {epochs}")
    require_rate(lr, f"{name}: lr must be finite and >= 0, got {lr}")
    state = AdamState.for_params(params, lr=lr)
    history: list[float] = []
    for epoch in range(epochs):
        for p in params:
            p.zero_grad()
        # the previous epoch's graph lives until `loss` is rebound: freeing it
        # first hands the heap back to the OS, which re-faults it each epoch (a
        # SAGE fit: 40k-76k minor faults against 11k-18k, and 17-30% slower)
        loss = mse(forward(), target)
        value = float(loss.values)
        if not np.isfinite(value):
            tail = ", ".join(f"{v:.6g}" for v in history[-5:])
            raise NumericError(
                f"{name} diverged at epoch {epoch} (loss {value}); recent losses [{tail}]; lr={lr}"
            )
        history.append(value)
        loss.backward()
        grads = [np.zeros(p.values.shape) if p.grad is None else p.grad for p in params]
        adam_step(params, grads, state)
    return history


# ---------------------------------------------------------------------------
# checkpoints
#
# Layout (all integers little-endian uint32, all floats little-endian
# float64, C order):
#   [0]  param count P
#   then P shape records: ndim, dim_0 .. dim_{ndim-1}
#   then P value buffers back to back.


def pack_params(params: list[Tensor]) -> bytes:
    head = [struct.pack("<I", len(params))]
    for p in params:
        dims = p.values.shape
        head.append(struct.pack(f"<I{len(dims)}I", len(dims), *dims))
    body = [np.ascontiguousarray(p.values, dtype="<f8").tobytes() for p in params]
    return b"".join(head + body)


def unpack_params(raw: bytes) -> list[np.ndarray]:
    """The arrays ``pack_params`` wrote; ``SchemaError`` unless ``raw`` is
    exactly that layout (cut short or followed by trailing bytes)."""
    off = 0

    def take(fmt):
        nonlocal off
        vals = struct.unpack_from(fmt, raw, off)
        off += struct.calcsize(fmt)
        return vals

    try:
        (count,) = take("<I")
        shapes = []
        for _ in range(count):
            (ndim,) = take("<I")
            shapes.append(take(f"<{ndim}I") if ndim else ())
    except struct.error:
        raise SchemaError(f"checkpoint payload of {len(raw)} bytes ends inside its shape records") from None
    sizes = [math.prod(shape) for shape in shapes]
    if len(raw) - off != 8 * sum(sizes):
        raise SchemaError(f"checkpoint shapes hold {8 * sum(sizes)} data bytes, the payload has {len(raw) - off}")
    out = []
    for shape, n in zip(shapes, sizes):
        out.append(np.frombuffer(raw, dtype="<f8", count=n, offset=off).astype(np.float64).reshape(shape))
        off += 8 * n
    return out


def assign_params(params: list[Tensor], arrays: list[np.ndarray]) -> None:
    """Copy a checkpoint's arrays into ``params``; ``SchemaError`` when
    their count or a shape does not fit the model, as for a cut payload."""
    if len(params) != len(arrays):
        raise SchemaError(f"checkpoint parameter count mismatch: {len(arrays)} != {len(params)}")
    for p, a in zip(params, arrays):
        if p.values.shape != a.shape:
            raise SchemaError(f"checkpoint shape {a.shape} != {p.values.shape}")
        p.values[...] = a

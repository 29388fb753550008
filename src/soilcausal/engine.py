"""Layer stacks and the one full-batch training loop, plus a minimal
reverse-mode engine.

Float64 throughout: downstream gradient checks run at tolerances that
float32 cannot hold.  Every model is a list of affine ``Layer``s on
node-major (nodes, rows, dim) states, drawn as layers: dense layers, the
map x Wᵀ + b on every node's states (the MLP baseline and both GNN
heads), and mean-aggregation convolutions, each output node's own state
and the mean of its neighbours' through an affine map on [self | mean]
(both GNNs' convolutions).  A convolution carries its graph as fixed
arrays: the positions of the output nodes' own states in the input and
an (out, in) mean-aggregation block.  A layer's weight is the sum of its
weight tensors: one for a dense layer or a SAGE convolution, two for an
ECC convolution, whose generated weight is its filter's weight plus its
filter's bias.

``fit`` is the one full-batch Adam loop the models and the MLP baseline
train with.  Each epoch is one ``Step``: a fused forward, squared error
and hand-written backward over arrays allocated once per fit (each
layer's saved input, each ReLU mask, one scratch array for the
convolution outputs that only feed the next convolution, and the weight
and bias gradients).  Backward writes each input gradient into the saved
input it replaces, so an epoch builds no graph.  A prediction runs a
step's forward half alone.  ``layer_params`` lists a stack's tensors in
checkpoint order, and ``pack_params``/``unpack_params`` are their byte
layout in a model checkpoint.

The parameters are ``Tensor`` leaves.  ``Tensor``, with ``matmul`` on
matrices and stacks of matrices, ``reshape`` and the mean squared error
``mse``, is a small eager autodiff graph: every op returns a ``Tensor``
holding its value, its parents and a closure that pushes the adjoint
back one step, and ``backward`` replays the closures in reverse
topological order.  Every tensor in it takes a gradient.  No model runs
through it; ``perfbench``'s inner-layer timings do.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NumericError, SchemaError, require_count, require_rate

__all__ = [
    "AdamState",
    "Layer",
    "Step",
    "Tensor",
    "adam_step",
    "dense_layer",
    "dense_layers",
    "fit",
    "glorot_uniform",
    "layer_params",
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
    result drops it once it has pushed it.
    """

    __slots__ = ("values", "grad", "_parents", "_push")

    def __init__(self, values, parents=(), push=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
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
    return Tensor(np.array(values, dtype=np.float64))


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g``, a float64 array of t's shape that no other tensor reads,
    to ``t.grad``; the first one becomes the grad buffer as it is."""
    if t.grad is None:
        t.grad = g
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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for operands of at least two dimensions; leading (stack)
    dimensions broadcast as in numpy."""
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise NumericError(f"matmul takes matrices, got shapes {a.values.shape} and {b.values.shape}")
    out_vals = a.values @ b.values

    def push(g):
        _accumulate(a, _unbroadcast(g @ np.swapaxes(b.values, -1, -2), a.values.shape))
        _accumulate(b, _unbroadcast(np.swapaxes(a.values, -1, -2) @ g, b.values.shape))

    return Tensor(out_vals, (a, b), push)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out_vals = x.values.reshape(shape)

    def push(g):
        _accumulate(x, g.reshape(x.values.shape))

    return Tensor(out_vals, (x,), push)


def mse(pred: Tensor, target) -> Tensor:
    t = np.asarray(target, dtype=np.float64)
    if t.shape != pred.values.shape:
        raise NumericError(f"mse of predictions {pred.values.shape} against targets {t.shape}")
    diff = pred.values - t
    n = diff.size
    out_vals = np.array((diff * diff).sum() / n)

    def push(g):
        _accumulate(pred, g * 2.0 * diff / n)

    return Tensor(out_vals, (pred,), push)


# ---------------------------------------------------------------------------
# layers


class Layer(NamedTuple):
    """One affine layer of a stack on node-major (nodes, rows, dim) states.

    Its weight is the sum of the ``weight`` tensors, each read in
    ``shape`` (out, in).  ``graph`` is None for a dense layer, x Wᵀ + b on
    every node's states, or a convolution's (self_index, agg): its output
    node i reads its own state ``h[self_index[i]]`` and the mean
    ``agg[i] @ h`` of its neighbours' states (an all-zero row of ``agg`` is
    a zero mean) and returns [self | mean] Wᵀ + b.  A ReLU follows when
    ``relu``.
    """

    weight: tuple[Tensor, ...]
    shape: tuple[int, ...]
    bias: Tensor
    graph: tuple[np.ndarray, np.ndarray] | None = None
    relu: bool = False

    def matrix(self) -> np.ndarray:
        """The (out, in) weight: the sum, or a view of a single tensor."""
        first, *rest = self.weight
        w = first.values.reshape(self.shape)
        for t in rest:
            w = w + t.values.reshape(self.shape)
        return w


def layer_params(layers) -> list[Tensor]:
    """The tensors of ``layers`` in checkpoint order: each layer's weight
    tensors, then its bias, input side first."""
    return [t for layer in layers for t in (*layer.weight, layer.bias)]


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


def dense_layer(rng: np.random.Generator, out_dim: int, in_dim: int, relu: bool = False) -> Layer:
    """A dense (out, in) layer: a glorot weight, then a bias."""
    # small nonzero bias keeps ReLU preactivations off the exact kink
    # (all-zero input slices otherwise land precisely at 0, where central
    # differences and the subgradient disagree)
    weight = parameter(glorot_uniform(rng, out_dim, in_dim))
    return Layer((weight,), (out_dim, in_dim), parameter(rng.uniform(-0.05, 0.05, size=out_dim)), relu=relu)


def dense_layers(rng: np.random.Generator, in_dim: int, hidden: tuple[int, ...]) -> list[Layer]:
    """The dense layers from ``in_dim`` through the ``hidden`` widths to
    one output, drawn input side first, with a ReLU after every one but
    the last."""
    dims = [in_dim, *hidden, 1]
    return [dense_layer(rng, dims[k + 1], dims[k], relu=k < len(hidden)) for k in range(len(dims) - 1)]


class Step:
    """One full-batch epoch of a layer stack, over arrays allocated once.

    ``x`` is the stack's fixed node-major input.  ``step()`` runs the
    forward pass, the mean squared error of the flattened outputs against
    ``target`` and, when that loss is finite, the backward pass; it
    returns the loss, and ``grads`` then holds the gradient of each of
    ``params`` (each layer's weight tensors and bias, input side first).

    The forward pass keeps what backward reads: a convolution's
    [self | mean] input block in its own array, a dense layer's input as
    the previous layer's output, and each ReLU mask.  A layer output that
    only feeds a convolution goes to one scratch array, which is free
    again once the next block is built.  Backward writes each input
    gradient into the saved input it replaces: a dense layer's into its
    input, a convolution's two halves into the two contiguous halves of
    its block, and the aggregated gradient into the scratch that held its
    input.  The self states are gathered and their gradients scatter-added
    one output node at a time.  The first layer's input takes no gradient.
    A step built without a target only runs ``forward``: it allocates no
    ReLU masks and no gradients, and calling it raises NumericError.
    """

    def __init__(self, x, layers, target=None):
        if not layers:
            raise NumericError("a layer stack needs at least one layer")
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise NumericError(f"a layer stack takes node-major (nodes, rows, dim) states, got {x.shape}")
        self.x, self.layers, self.rows = x, list(layers), x.shape[1]
        m, rows, d = x.shape
        sizes = []  # each layer's output nodes and width
        for k, layer in enumerate(self.layers):
            w, b = layer.shape, layer.bias.values.shape
            fits = b == w[:1] and all(t.values.size == math.prod(w) for t in layer.weight)
            if layer.graph is None:
                if w[1:] != (d,) or not fits:
                    raise NumericError(f"dense {k} weight {w} and bias {b} do not fit states {(m, rows, d)}")
            else:
                self_index, agg = layer.graph
                if w[1:] != (2 * d,) or not fits or agg.shape[1:] != (m,) or self_index.shape != agg.shape[:1]:
                    shapes = f"weight {w}, bias {b}, block {agg.shape} and self positions {self_index.shape}"
                    raise NumericError(f"conv {k} {shapes} do not fit states {(m, rows, d)}")
                m = agg.shape[0]
            d = w[0]
            sizes.append((m, d))
        if target is not None:
            target = np.asarray(target, dtype=np.float64)
            if target.shape != (m * rows * d,):
                raise NumericError(f"mse of predictions ({m * rows * d},) against targets {target.shape}")
        self.target, train = target, target is not None
        feeds_conv = [layer.graph is not None for layer in self.layers[1:]] + [False]
        scratch = np.empty(max((m * rows * e for (m, e), f in zip(sizes, feeds_conv) if f), default=0))
        self.inputs, self.outs, self.masks = [], [], []
        prev = x.reshape(-1, x.shape[2])
        for layer, (m, e), f in zip(self.layers, sizes, feeds_conv):
            d = prev.shape[1]
            self.inputs.append(prev if layer.graph is None else np.empty((m * rows, 2 * d)))
            prev = scratch[: m * rows * e].reshape(m * rows, e) if f else np.empty((m * rows, e))
            self.outs.append(prev)
            self.masks.append(np.empty(prev.shape, dtype=bool) if layer.relu and train else None)
        self.dw = [np.empty(layer.shape) for layer in self.layers] if train else []
        self.db = [np.empty(layer.bias.values.shape) for layer in self.layers] if train else []
        self.params = layer_params(self.layers)
        self.grads = [
            g
            for layer, dw, db in zip(self.layers, self.dw, self.db)
            for g in (*(dw.reshape(t.values.shape) for t in layer.weight), db)
        ]

    def forward(self) -> np.ndarray:
        """The stack's node-major output states, in the last layer's buffer
        (the next call overwrites them)."""
        h = self.x
        self._w = [layer.matrix() for layer in self.layers]
        for layer, w, x, out, mask in zip(self.layers, self._w, self.inputs, self.outs, self.masks):
            m_in, rows, d = h.shape
            if layer.graph is not None:
                self_index, agg = layer.graph
                block = x.reshape(len(self_index), rows, 2 * d)
                for i, j in enumerate(self_index):
                    block[i, :, :d] = h[j]
                # a matmul into the strided half could leave BLAS and move the last bits
                block[..., d:] = (agg @ h.reshape(m_in, rows * d)).reshape(len(self_index), rows, d)
            np.matmul(x, w.T, out=out)
            out += layer.bias.values
            if layer.relu:
                if mask is not None:
                    np.greater(out, 0.0, out=mask)  # the subgradient at exactly 0 is 0
                np.fmax(out, 0.0, out=out)  # in place; NaN -> 0
            h = out.reshape(-1, rows, out.shape[1])
        return h

    def __call__(self) -> float:
        if self.target is None:
            raise NumericError("a step built without a target only runs forward")
        diff = self.forward().reshape(-1)
        np.subtract(diff, self.target, out=diff)
        n = diff.size
        loss = float((diff * diff).sum() / n)
        if math.isfinite(loss):
            np.multiply(diff, 2.0, out=diff)  # the gradient of the loss, in the output's buffer
            diff /= n
            self._backward()
        return loss

    def _backward(self) -> None:
        for k in reversed(range(len(self.layers))):
            layer, x, g, mask = self.layers[k], self.inputs[k], self.outs[k], self.masks[k]
            if mask is not None:
                g *= mask
            np.matmul(g.T, x, out=self.dw[k])
            np.sum(g, axis=0, out=self.db[k])
            if k == 0:
                return
            w = self._w[k]
            if layer.graph is None:
                np.matmul(g, w, out=x)
                continue
            self_index, agg = layer.graph
            m_out, rows, d = len(self_index), self.rows, w.shape[1] // 2
            own, mean = x.reshape(2, m_out * rows, d)  # the block's memory, as two C-contiguous halves
            np.matmul(g, w[:, d:], out=mean)
            np.matmul(g, w[:, :d], out=own)
            gh = self.outs[k - 1].reshape(-1, rows * d)
            np.matmul(agg.T, mean.reshape(m_out, rows * d), out=gh)
            gh, own = gh.reshape(-1, rows, d), own.reshape(m_out, rows, d)
            for i, j in enumerate(self_index):
                gh[j] += own[i]


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


def fit(x, layers, target, lr: float, epochs: int, name: str) -> list[float]:
    """Full-batch Adam on the mean squared error of ``layers`` on ``x``
    against ``target``: one ``Step`` and one Adam step per epoch.

    Returns each epoch's loss, taken before its step.  A non-finite loss
    raises ``NumericError`` naming ``name``, the epoch and the last losses.
    ``ConfigError`` unless ``epochs`` is an int of at least 0 and ``lr`` a
    finite number of at least 0.
    """
    require_count(epochs, 0, f"{name}: epochs must be >= 0, got {epochs}")
    require_rate(lr, f"{name}: lr must be finite and >= 0, got {lr}")
    step = Step(x, layers, target)
    state = AdamState.for_params(step.params, lr=lr)
    history: list[float] = []
    for epoch in range(epochs):
        value = step()
        if not math.isfinite(value):
            tail = ", ".join(f"{v:.6g}" for v in history[-5:])
            raise NumericError(
                f"{name} diverged at epoch {epoch} (loss {value}); recent losses [{tail}]; lr={lr}"
            )
        history.append(value)
        adam_step(step.params, step.grads, state)
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

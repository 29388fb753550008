import re

import numpy as np
import pytest

from soilcausal.engine import (
    AdamState,
    Layer,
    Step,
    Tensor,
    adam_step,
    assign_params,
    dense_layer,
    fit,
    glorot_uniform,
    matmul,
    mse,
    pack_params,
    parameter,
    reshape,
    unpack_params,
)

from enumutil import finite_diff_check, step_gradient_check


def _fd_scalar(fn, x, h=1e-5):
    # central differences on a flat parameter vector, one entry at a time
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(x.size)
    flat = x.reshape(-1)
    for j in range(flat.size):
        keep = flat[j]
        flat[j] = keep + h
        up = fn(x)
        flat[j] = keep - h
        down = fn(x)
        flat[j] = keep
        out[j] = (up - down) / (2 * h)
    return out.reshape(x.shape)


def _layer(weight, bias, graph=None, relu=False):
    """A layer of one weight tensor (its shape is the layer's) and a bias."""
    return Layer((weight,), weight.values.shape, bias, graph, relu)


def _relu(n):
    """A ReLU alone: an identity dense layer with zero bias, ReLU after it."""
    return _layer(parameter(np.eye(n)), parameter(np.zeros(n)), relu=True)


# ---------------------------------------------------------------------------
# forward values


def test_relu_values_and_mask():
    x = np.array([[[-1.0, 0.0, 2.0]]])
    step = Step(x, [_relu(3)], np.zeros(3))
    assert np.array_equal(step.forward(), [[[0.0, 0.0, 2.0]]])
    step()
    # the mask stops the gradient of the two cut outputs: their weight rows
    # and bias entries get none, the kept one's do
    dw, db = step.grads
    assert np.array_equal(dw[:2], np.zeros((2, 3))) and np.array_equal(db[:2], [0.0, 0.0])
    assert db[2] != 0.0 and dw[2, 0] != 0.0 and dw[2, 2] != 0.0


def test_mse_values():
    p = parameter([0.0, 2.0])
    assert float(mse(p, np.zeros(2)).values) == pytest.approx(2.0)
    q = parameter([1.0, 1.0])
    assert float(mse(q, np.ones(2)).values) == 0.0


def test_mse_rejects_a_target_of_another_shape():
    # a (4, 1) target against (4,) predictions would broadcast to a 4 x 4
    # difference, averaging 16 pairs and handing back a (4, 4) gradient;
    # a step's squared error reads its outputs flattened, and checks the same
    from soilcausal.errors import NumericError

    p = parameter(np.zeros(4))
    layers = [_layer(parameter(np.zeros((1, 3))), parameter(np.zeros(1)))]  # (1, 4, 1) outputs
    for target in (np.ones((4, 1)), np.ones(3), np.ones((1, 4)), 1.0):
        shape = np.shape(target)
        with pytest.raises(NumericError, match=re.escape(f"predictions (4,) against targets {shape}")):
            mse(p, target)
        with pytest.raises(NumericError, match=re.escape(f"predictions (4,) against targets {shape}")):
            Step(np.ones((1, 4, 3)), layers, target)
    assert float(mse(p, np.ones(4)).values) == 1.0
    assert Step(np.ones((1, 4, 3)), layers, np.ones(4))() == 1.0


def test_dense_identity_and_bias():
    # a dense layer maps every node's states: here two nodes, one row each
    w = parameter(np.eye(3))
    x = np.array([[[1.0, -2.0, 0.5]], [[0.25, 3.0, -1.0]]])
    assert np.allclose(Step(x, [_layer(w, parameter(np.zeros(3)))]).forward(), x)
    bias = parameter([1.0, 2.0, 3.0])
    y0 = Step(np.zeros((2, 1, 3)), [_layer(w, bias)]).forward()
    assert np.allclose(y0, np.broadcast_to(bias.values, (2, 1, 3)))


# ---------------------------------------------------------------------------
# a step's gradients vs central differences


def test_dense_gradients_match_fd():
    rng = np.random.default_rng(0)
    w, b = parameter(rng.standard_normal((4, 3))), parameter(rng.standard_normal(4))
    x = rng.standard_normal((1, 1, 3))
    report = step_gradient_check(Step(x, [_layer(w, b)], rng.standard_normal(4)))
    assert report.passed, report
    assert report.n_entries == 12 + 4


@pytest.mark.parametrize("seed", range(10))
def test_op_zoo_gradients_match_fd(seed):
    # one stack touching every kind of layer, in the shapes the models use
    # them: a dense layer handing a convolution its states, a convolution,
    # a one-node convolution whose weight is the sum of two tensors as ECC's
    # is, and a two-layer dense head
    rng = np.random.default_rng(seed)
    agg = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])  # row-normalized
    first = _layer(parameter(rng.standard_normal((3, 3)) * 0.7), parameter(rng.standard_normal(3) * 0.3))
    conv = _layer(
        parameter(rng.standard_normal((4, 6)) * 0.7), parameter(rng.standard_normal(4) * 0.3), (np.arange(3), agg), True
    )
    terms = (parameter(rng.standard_normal((16, 1)) * 0.5), parameter(rng.standard_normal(16) * 0.5))
    ecc = Layer(terms, (2, 8), parameter(rng.standard_normal(2) * 0.3), (np.array([0]), agg[:1]), True)
    head = [
        _layer(parameter(rng.standard_normal((2, 2)) * 0.7), parameter(rng.standard_normal(2) * 0.3), relu=True),
        _layer(parameter(rng.standard_normal((1, 2))), parameter(rng.standard_normal(1) * 0.3)),
    ]
    step = Step(rng.standard_normal((3, 5, 3)), [first, conv, ecc, *head], rng.standard_normal(5))
    report = step_gradient_check(step)
    assert report.passed, report
    assert report.max_rel_err < 1e-4
    assert report.n_entries == 12 + 28 + 32 + 2 + 6 + 3

    # the autodiff ops: matmul of two matrices and of a stack by a
    # matrix, reshape and mse
    z, v = parameter(rng.standard_normal((5, 2))), parameter(rng.standard_normal((2, 1)))
    target = rng.standard_normal(5)

    def loss_fn():
        mixed = matmul(parameter(np.eye(5)[::-1] + 0.2), z)
        pred = matmul(reshape(mixed, (1, 5, 2)), v)  # (1, 5, 1)
        return mse(reshape(pred, (5,)), target)

    report = finite_diff_check(loss_fn, [z, v])
    assert report.passed, report
    assert report.max_rel_err < 1e-4


def test_relu_gradient_matches_fd_away_from_zero():
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(20)
    x0 = x0[np.abs(x0) > 1e-3]  # keep the kink out of the difference stencil
    step = Step(x0[None, None, :], [_relu(x0.size)], rng.standard_normal(x0.size))
    assert step_gradient_check(step).passed


@pytest.mark.parametrize("relu", [False, True])
def test_conv_ops_gradients_match_fd(relu):
    # one row (B = 1); a dense layer makes the states, so its gradient
    # reads the convolutions' input gradients; then a block whose second
    # output node has no neighbours and whose in-slot 2 is both a self slot
    # and a neighbour, with or without a ReLU, then a block whose output
    # nodes read their own states in reverse slot order
    rng = np.random.default_rng(31)
    dense = _layer(parameter(rng.standard_normal((2, 2))), parameter(rng.standard_normal(2)))
    first = _layer(parameter(rng.standard_normal((3, 4))), parameter(rng.standard_normal(3)))
    theta, bias = parameter(rng.standard_normal((2, 6))), parameter(rng.standard_normal(2))
    blocks = [
        (np.array([0, 2]), np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 0.0]])),
        (np.array([1, 0]), np.array([[0.5, 0.5], [0.0, 1.0]])),
    ]
    layers = [dense, first._replace(graph=blocks[0], relu=relu), _layer(theta, bias, blocks[1])]
    report = step_gradient_check(Step(rng.standard_normal((3, 1, 2)), layers, rng.standard_normal(4)))
    assert report.passed, report
    assert report.n_entries == 6 + 12 + 3 + 12 + 2


def test_handed_over_gradient_buffers_take_a_second_sum():
    # backward writes each input gradient into the saved input it replaces
    # (a dense layer's input, a convolution's [self | mean] block, the
    # scratch that held a convolution's input, the scatter-added self
    # slots).  A second epoch after new parameters must overwrite those
    # buffers, not add to what the first left: its gradients equal a fresh
    # step's bit for bit and central differences
    rng = np.random.default_rng(33)
    agg = np.array([[0, 0.5, 0.5], [1, 0, 0], [0.5, 0, 0.5]])
    layers = [
        dense_layer(rng, 3, 2, relu=True),
        dense_layer(rng, 3, 3, relu=True),
        dense_layer(rng, 3, 6, relu=True)._replace(graph=(np.array([0, 2, 1]), agg)),
        dense_layer(rng, 3, 6)._replace(graph=(np.array([2, 1]), agg[1:])),
        dense_layer(rng, 2, 3, relu=True),
        dense_layer(rng, 1, 2),
    ]
    x, target = rng.standard_normal((3, 4, 2)), rng.standard_normal(8)
    step = Step(x, layers, target)
    first = step()
    for p in step.params:
        p.values += rng.standard_normal(p.values.shape) * 0.1
    fresh = Step(x, layers, target)
    assert step() == fresh() != first
    assert all(np.array_equal(a, b) for a, b in zip(step.grads, fresh.grads))
    report = step_gradient_check(step)
    assert report.passed, report
    assert report.n_entries == 9 + 12 + 21 + 21 + 8 + 3


def test_graph_conv_checks_weight_and_block_widths():
    # the weight reads [self | mean] (2d columns), the bias has a row per
    # output column, the block reads every input node, every output node
    # has a self position, every weight tensor holds the weight, and a
    # stack has a layer
    from soilcausal.errors import NumericError

    h, agg, bias = np.ones((2, 1, 3)), np.full((1, 2), 0.5), parameter(np.zeros(4))
    self_slots = np.array([0])
    assert Step(h, [_layer(parameter(np.ones((4, 6))), bias, (self_slots, agg))]).forward().shape == (1, 1, 4)
    for self_index, block, width, b in (
        (self_slots, agg, 3, bias),
        (self_slots, agg, 6, parameter(np.zeros(3))),
        (self_slots, np.ones((1, 3)), 6, bias),
        (np.array([0, 1]), agg, 6, bias),
    ):
        with pytest.raises(NumericError, match="conv 0 .* do not fit"):
            Step(h, [_layer(parameter(np.ones((4, width))), b, (self_index, block))])
    terms = (parameter(np.ones((24, 1))), parameter(np.ones(23)))
    with pytest.raises(NumericError, match="conv 0 .* do not fit"):
        Step(h, [Layer(terms, (4, 6), bias, (self_slots, agg))])
    # the second layer reads the first's 4-wide states
    with pytest.raises(NumericError, match=r"conv 1 .* do not fit states \(1, 1, 4\)"):
        Step(h, [_layer(parameter(np.ones((4, 6))), bias, (self_slots, agg))] * 2)
    with pytest.raises(NumericError, match="at least one layer"):
        Step(h, [])


def test_dense_layer_checks_weight_and_bias_widths():
    # a dense layer reads its input's d columns and names its position in
    # the stack (in the loop the first layer fits and the second does not),
    # and the stack reads node-major states
    from soilcausal.errors import NumericError

    h, w, b = np.ones((2, 5, 3)), parameter(np.ones((4, 3))), parameter(np.zeros(4))
    assert Step(h, [_layer(w, b)]).forward().shape == (2, 5, 4)
    for weight, bias in (((2, 3), (2,)), ((2, 5), (2,)), ((2, 4), (3,))):
        message = f"dense 1 weight {weight} and bias {bias} do not fit states (2, 5, 4)"
        with pytest.raises(NumericError, match=re.escape(message)):
            Step(h, [_layer(w, b), _layer(parameter(np.ones(weight)), parameter(np.zeros(bias)))])
    with pytest.raises(NumericError, match=r"dense 0 .* do not fit states \(2, 5, 3\)"):
        Step(h, [_layer(parameter(np.ones((4, 2))), b)])
    with pytest.raises(NumericError, match=r"node-major .* got \(5, 3\)"):  # a (rows, in) matrix
        Step(np.ones((5, 3)), [_layer(w, b)])


@pytest.mark.parametrize("seed", range(5))
def test_mixed_stack_equals_its_two_call_composition(seed):
    # two convolutions then two dense layers in one stack: the dense layers
    # read the second convolution's states after its ReLU, so the same
    # layers as two forward calls end the first call with that ReLU
    rng = np.random.default_rng(40 + seed)
    agg = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    graphs = [(np.array([2, 0, 1]), agg), (np.array([1, 2]), np.array([[0.5, 0.0, 0.5], [0.0, 0.0, 1.0]])), None, None]
    weights = [parameter(rng.standard_normal(shape) * 0.7) for shape in ((4, 4), (3, 8), (3, 3), (2, 3))]
    biases = [parameter(rng.standard_normal(n) * 0.3) for n in (4, 3, 3, 2)]
    layers = [_layer(w, b, g, k < 3) for k, (w, b, g) in enumerate(zip(weights, biases, graphs))]
    h, target = rng.standard_normal((3, 5, 2)), rng.standard_normal(20)

    one_call = Step(h, layers).forward()
    assert np.array_equal(one_call, Step(Step(h, layers[:2]).forward(), layers[2:]).forward())
    assert one_call.shape == (2, 5, 2)
    report = step_gradient_check(Step(h, layers, target))
    assert report.passed, report
    assert report.n_entries == 16 + 24 + 9 + 6 + 4 + 3 + 3 + 2


def test_matmul_rejects_vectors():
    from soilcausal.errors import NumericError

    m, v = parameter(np.ones((3, 3))), parameter(np.ones(3))
    for a, b in ((v, m), (m, v), (v, v)):
        with pytest.raises(NumericError):
            matmul(a, b)


def test_grad_accumulates_over_shared_subexpression():
    x = parameter([[2.0]])
    y = matmul(x, x)  # x^2
    loss = mse(reshape(y, (1,)), np.zeros(1))
    loss.backward()
    # d/dx (x^2)^2 = 4x^3 = 32 at x=2: both operand branches must accumulate
    assert x.grad[0, 0] == pytest.approx(32.0)
    # z feeds a reshape, which hands it a view of its own gradient, and a
    # matmul, which hands it a fresh buffer; in either operand order, z's
    # grad is their sum.  s = z.w = 2, loss = |z|^2 s^2 / 2, so
    # dz = z s^2 + |z|^2 s w = (34, -3)
    z = parameter([[1.0, -2.0]])
    weight = parameter([[3.0], [0.5]])
    for pred in (
        lambda: matmul(reshape(z, (2, 1)), matmul(z, weight)),
        lambda: matmul(matmul(z, weight), reshape(z, (1, 2))),
    ):
        z.zero_grad()
        out = pred()
        mse(reshape(out, (2,)), np.zeros(2)).backward()
        assert np.array_equal(z.grad, [[34.0, -3.0]])


def test_backward_keeps_gradients_on_leaves_only():
    # autodiff op results drop their grad once pushed, and no push reaches
    # a forward value.  A step's backward masks gradients and writes them
    # into its own buffers in place, dense or conv: that must reach neither
    # its input nor a parameter, and the next forward pass rebuilds every
    # value it overwrote
    rng = np.random.default_rng(34)
    a, w = parameter(rng.standard_normal((3, 4))), parameter(rng.standard_normal((4, 2)))
    s = matmul(a, w)
    pred = reshape(s, (6,))
    interior = [s, pred, mse(pred, rng.standard_normal(6))]

    before = [t.values.copy() for t in interior]
    interior[-1].backward()
    assert all(t.grad is None for t in interior) and a.grad is not None and w.grad is not None
    assert all(np.array_equal(t.values, v) for t, v in zip(interior, before))

    agg = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    layers = [
        dense_layer(rng, 3, 4, relu=True)._replace(graph=(np.array([0, 2, 1]), agg)),  # (3, 4, 3)
        dense_layer(rng, 2, 3, relu=True),  # (3, 4, 2)
        dense_layer(rng, 2, 2, relu=True),
        dense_layer(rng, 1, 2),
    ]
    x = rng.standard_normal((3, 4, 2))
    step = Step(x, layers, rng.standard_normal(12))
    x_before, params_before = x.copy(), [p.values.copy() for p in step.params]
    out = step.forward().copy()
    assert all(0 < m.mean() < 1 for m in step.masks[:2])  # both masks cut
    step()
    assert np.array_equal(x, x_before)
    assert all(np.array_equal(p.values, v) for p, v in zip(step.params, params_before))
    assert np.array_equal(step.forward(), out)
    report = step_gradient_check(step)
    assert report.passed, report


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_gradients_keep_params():
    p = parameter([1.0, -2.0])
    st = AdamState.for_params([p], lr=0.1)
    adam_step([p], [np.zeros(2)], st)
    assert np.array_equal(p.values, [1.0, -2.0])
    assert st.step == 1


def test_adam_first_step_closed_form():
    p = parameter([0.0])
    st = AdamState.for_params([p], lr=0.05)
    adam_step([p], [np.ones(1)], st)
    # m_hat = v_hat = 1 after bias correction -> step = lr/(1+eps)
    assert p.values[0] == pytest.approx(-0.05, rel=1e-6)


def test_adam_quadratic_converges():
    # f(x) = (x - 3)^2, minimum at 3
    p = parameter([0.0])
    st = AdamState.for_params([p], lr=0.01)
    for _ in range(2000):
        g = 2.0 * (p.values - 3.0)
        adam_step([p], [g], st)
    assert abs(p.values[0] - 3.0) < 1e-6


def test_adam_state_count_mismatch():
    from soilcausal.errors import NumericError

    p = parameter([0.0])
    st = AdamState.for_params([p], lr=0.01)
    with pytest.raises(NumericError):
        adam_step([p, parameter([1.0])], [np.zeros(1), np.zeros(1)], st)


def test_fit_is_the_step_loop_and_names_divergence():
    from soilcausal.errors import NumericError

    rng = np.random.default_rng(4)
    x, y = rng.standard_normal((1, 6, 3)), rng.standard_normal(6)
    w0, b0 = rng.standard_normal((1, 3)), rng.standard_normal(1)
    w, b = parameter(w0), parameter(b0)
    history = fit(x, [_layer(w, b)], y, 0.05, 5, "toy")

    ref = [parameter(w0), parameter(b0)]
    step = Step(x, [_layer(*ref)], y)
    st, ref_history = AdamState.for_params(ref, lr=0.05), []
    for _ in range(5):
        ref_history.append(step())
        adam_step(ref, step.grads, st)
    assert history == ref_history
    assert np.array_equal(w.values, ref[0].values) and np.array_equal(b.values, ref[1].values)
    with pytest.raises(NumericError, match="toy diverged at epoch 0"):
        fit(x, [_layer(w, b)], np.full(6, np.inf), 0.05, 5, "toy")


# ---------------------------------------------------------------------------
# init + checkpoints


def test_glorot_bounds():
    rng = np.random.default_rng(0)
    w = glorot_uniform(rng, 16, 48)
    lim = np.sqrt(6.0 / 64.0)
    assert w.shape == (16, 48)
    assert np.all(np.abs(w) <= lim)
    assert np.abs(w).max() > 0.8 * lim  # actually fills the range


def test_checkpoint_roundtrip():
    rng = np.random.default_rng(5)
    params = [
        parameter(rng.standard_normal((3, 4))),
        parameter(rng.standard_normal(7)),
        parameter(rng.standard_normal((2, 2, 2))),
    ]
    arrays = unpack_params(pack_params(params))
    assert len(arrays) == 3
    for p, a in zip(params, arrays):
        assert a.shape == p.values.shape
        assert np.array_equal(a, p.values)

    fresh = [parameter(np.zeros_like(a)) for a in arrays]
    assign_params(fresh, arrays)
    assert np.array_equal(fresh[0].values, params[0].values)


def test_checkpoint_layout_is_pinned():
    # one 2x1 matrix: header 4 + (4 + 8) bytes, then 16 bytes of data
    raw = pack_params([parameter([[1.5], [-2.0]])])
    assert len(raw) == 4 + 4 + 8 + 16
    assert raw[:4] == b"\x01\x00\x00\x00"
    assert raw[4:8] == b"\x02\x00\x00\x00"  # ndim
    assert raw[8:16] == b"\x02\x00\x00\x00\x01\x00\x00\x00"
    assert np.frombuffer(raw[16:], dtype="<f8").tolist() == [1.5, -2.0]


def test_checkpoint_trailing_bytes_rejected():
    # a padded or cut payload is malformed data: SchemaError, as a wrong
    # header is.  Layout: count (4), records (4 + 8, 4 + 4), data (16 + 8)
    from soilcausal.errors import SchemaError

    raw = pack_params([parameter([[1.5], [-2.0]]), parameter([1.0])])
    assert len(raw) == 48
    for bad in (raw + b"\x00", raw + bytes(8), raw[:-3], raw[:-8], raw[:20], raw[:10], raw[:2], b""):
        with pytest.raises(SchemaError, match="checkpoint"):
            unpack_params(bad)


def test_assign_params_shape_guard():
    # arrays that do not fit the model are malformed checkpoint data
    from soilcausal.errors import SchemaError

    p = parameter(np.zeros((2, 2)))
    with pytest.raises(SchemaError, match="checkpoint shape"):
        assign_params([p], [np.zeros(3)])
    with pytest.raises(SchemaError, match="parameter count mismatch"):
        assign_params([p, parameter(np.zeros(2))], [np.zeros((2, 2))])
    assert (p.values == 0).all()


# ---------------------------------------------------------------------------
# engine mechanics


def test_backward_requires_scalar():
    from soilcausal.errors import NumericError

    x = parameter([1.0, 2.0])
    with pytest.raises(NumericError):
        x.backward()


def test_matmul_pushes_gradients_to_both_operands():
    agg = parameter([[0.0, 1.0], [0.5, 0.5]])
    x = parameter([[3.0], [4.0]])
    loss = mse(reshape(matmul(agg, x), (2,)), np.zeros(2))
    loss.backward()
    # with A x = (4, 3.5): d/dx mean((A x)^2) = A^T (A x), d/dA = (A x) x^T
    assert np.array_equal(x.grad, [[1.75], [5.75]])
    assert np.array_equal(agg.grad, [[12.0, 16.0], [10.5, 14.0]])


def test_finite_diff_reports_failure():
    # deliberately wrong backward: build a tensor with a broken push
    x = parameter([1.0, 2.0])

    def broken_square(t):
        out_vals = t.values**2

        def push(g):
            t.grad = (t.grad if t.grad is not None else 0) + g * 3.0 * t.values  # wrong factor

        return Tensor(out_vals, (t,), push)

    def loss_fn():
        return mse(broken_square(x), np.zeros(2))

    report = finite_diff_check(loss_fn, [x])
    assert not report.passed
    assert report.max_rel_err > 0.1

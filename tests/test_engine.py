import re

import numpy as np
import pytest

from soilcausal.engine import (
    AdamState,
    DenseParams,
    Tensor,
    adam_step,
    assign_params,
    constant,
    dense_params,
    glorot_uniform,
    layer_stack,
    matmul,
    mse,
    pack_params,
    parameter,
    reshape,
    unpack_params,
)

from enumutil import finite_diff_check, one_layer


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


# ---------------------------------------------------------------------------
# forward values


def _relu(x: Tensor) -> Tensor:
    """layer_stack's ReLU alone: a dense layer with identity weight and zero
    bias, and the identity layer after it."""
    n = x.values.shape[-1]
    return one_layer(x, None, constant(np.eye(n)), constant(np.zeros(n)), relu=True)


def test_relu_values_and_mask():
    x = parameter([[[-1.0, 0.0, 2.0]]])
    y = _relu(x)
    assert np.array_equal(y.values, [[[0.0, 0.0, 2.0]]])
    loss = mse(y, np.zeros((1, 1, 3)))
    loss.backward()
    assert x.grad[0, 0, 0] == 0.0 and x.grad[0, 0, 1] == 0.0 and x.grad[0, 0, 2] != 0.0


def test_mse_values():
    p = constant([0.0, 2.0])
    assert float(mse(p, np.zeros(2)).values) == pytest.approx(2.0)
    q = constant([1.0, 1.0])
    assert float(mse(q, np.ones(2)).values) == 0.0


def test_mse_rejects_a_target_of_another_shape():
    # a (4, 1) target against (4,) predictions would broadcast to a 4 x 4
    # difference, averaging 16 pairs and handing back a (4, 4) gradient
    from soilcausal.errors import NumericError

    p = parameter(np.zeros(4))
    for target in (np.ones((4, 1)), np.ones(3), np.ones((1, 4)), 1.0):
        shape = np.shape(target)
        with pytest.raises(NumericError, match=re.escape(f"predictions (4,) against targets {shape}")):
            mse(p, target)
    assert float(mse(p, np.ones(4)).values) == 1.0


def test_dense_identity_and_bias():
    # a dense layer maps every node's states: here two nodes, one row each
    w = parameter(np.eye(3))
    b = parameter(np.zeros(3))
    x = parameter([[[1.0, -2.0, 0.5]], [[0.25, 3.0, -1.0]]])
    y = layer_stack(x, [None], [w], [b])
    assert np.allclose(y.values, x.values)
    x0 = parameter(np.zeros((2, 1, 3)))
    bias = parameter([1.0, 2.0, 3.0])
    y0 = layer_stack(x0, [None], [w], [bias])
    assert np.allclose(y0.values, np.broadcast_to(bias.values, (2, 1, 3)))


def test_dense_params_shape_guard():
    from soilcausal.errors import NumericError

    with pytest.raises(NumericError):
        DenseParams(parameter(np.zeros((3, 2))), parameter(np.zeros(4)))


# ---------------------------------------------------------------------------
# gradients vs central differences


def test_dense_gradients_match_fd():
    rng = np.random.default_rng(0)
    w0 = rng.standard_normal((4, 3))
    b0 = rng.standard_normal(4)
    x0 = rng.standard_normal((1, 1, 3))
    target = rng.standard_normal((1, 1, 4))

    w, b, x = parameter(w0), parameter(b0), parameter(x0)

    def loss_fn():
        return mse(layer_stack(x, [None], [w], [b]), target)

    report = finite_diff_check(loss_fn, [w, b, x])
    assert report.passed, report
    assert report.n_entries == 12 + 4 + 3


@pytest.mark.parametrize("seed", range(10))
def test_op_zoo_gradients_match_fd(seed):
    # one composite graph touching every differentiable op, in the shapes
    # the models use them
    rng = np.random.default_rng(seed)
    agg = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])  # row-normalized
    w1 = parameter(rng.standard_normal((4, 6)) * 0.7)
    b1 = parameter(rng.standard_normal(4) * 0.3)
    theta = parameter(rng.standard_normal((2, 8)) * 0.7)
    b2 = parameter(rng.standard_normal(2) * 0.3)
    w3 = parameter(rng.standard_normal((2, 2)) * 0.7)
    b3 = parameter(rng.standard_normal(2) * 0.3)
    v = parameter(rng.standard_normal((2, 1)))
    x = parameter(rng.standard_normal((3, 5, 3)))
    target = rng.standard_normal(5)

    def loss_fn():
        h = layer_stack(x, [(np.arange(3), agg), (np.array([0]), agg[:1])], [w1, theta], [b1, b2])  # (1, 5, 2)
        z = layer_stack(h, [None], [w3], [b3])  # dense on the conv output
        mixed = matmul(constant(np.eye(5)[::-1] + 0.2), reshape(z, (5, 2)))  # constant left operand
        pred = matmul(reshape(mixed, (1, 5, 2)), v)  # (1, 5, 1): stack times matrix
        return mse(reshape(pred, (5,)), target)

    report = finite_diff_check(loss_fn, [w1, b1, theta, b2, w3, b3, v, x])
    assert report.passed, report
    assert report.max_rel_err < 1e-4


def test_relu_gradient_matches_fd_away_from_zero():
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(20)
    x0 = x0[np.abs(x0) > 1e-3]  # keep the kink out of the difference stencil
    x = parameter(x0[None, None, :])
    target = rng.standard_normal((1, 1, x0.size))

    def loss_fn():
        return mse(_relu(x), target)

    assert finite_diff_check(loss_fn, [x]).passed


@pytest.mark.parametrize("relu", [False, True])
def test_conv_ops_gradients_match_fd(relu):
    # one row (B = 1); a block whose second output node has no neighbours
    # and whose in-slot 2 is both a self slot and a neighbour, then a block
    # whose output nodes read their own states in reverse slot order: one
    # two-layer stack (ReLU between the layers) or, without ReLU, two
    # one-layer stacks, the second taking the first's result as its input
    rng = np.random.default_rng(31)
    h = parameter(rng.standard_normal((3, 1, 2)))
    first = DenseParams(parameter(rng.standard_normal((3, 4))), parameter(rng.standard_normal(3)))
    theta, bias = parameter(rng.standard_normal((2, 6))), parameter(rng.standard_normal(2))
    target = rng.standard_normal(4)
    blocks = [
        (np.array([0, 2]), np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 0.0]])),
        (np.array([1, 0]), np.array([[0.5, 0.5], [0.0, 1.0]])),
    ]

    def loss_fn():
        if relu:
            e = layer_stack(h, blocks, [first.weight, theta], [first.bias, bias])  # (2, 1, 2)
        else:
            s = layer_stack(h, blocks[:1], [first.weight], [first.bias])
            e = layer_stack(s, blocks[1:], [theta], [bias])
        return mse(reshape(e, (4,)), target)

    report = finite_diff_check(loss_fn, [h, *first.tensors, theta, bias])
    assert report.passed, report
    assert report.n_entries == 6 + 12 + 3 + 12 + 2


def test_handed_over_gradient_buffers_take_a_second_sum():
    # layer_stack hands its freshly allocated input gradient over as a grad
    # buffer, from a dense first layer or a convolution.  The states feed two
    # dense stacks and three convolutions, so in any backward order
    # handed-over buffers of each kind take the other ops' sums
    rng = np.random.default_rng(33)
    h = parameter(rng.standard_normal((3, 4, 2)))
    d1, d2, d3 = dense_params(rng, 3, 2), dense_params(rng, 3, 2), dense_params(rng, 3, 3)
    c1, c2, c3 = dense_params(rng, 3, 4), dense_params(rng, 3, 4), dense_params(rng, 3, 4)
    target = rng.standard_normal((8, 4))

    def loss_fn():
        deep = layer_stack(h, [None, None], [d1.weight, d3.weight], [d1.bias, d3.bias])  # (3, 4, 3)
        mix = matmul(reshape(deep, (3, 12)), reshape(one_layer(h, None, *d2.tensors, relu=False), (12, 3)))
        s1 = one_layer(h, (np.array([0, 2]), np.array([[0, 0.5, 0.5], [1, 0, 0]])), *c1.tensors, relu=True)
        s2 = one_layer(h, (np.array([1]), np.array([[0.5, 0, 0.5]])), *c2.tensors, relu=False)  # (1, 4, 3)
        s3 = one_layer(h, (np.array([2, 1]), np.array([[0, 1, 0], [0.5, 0, 0.5]])), *c3.tensors, relu=True)
        gram = matmul(reshape(s3, (3, 8)), reshape(s3, (8, 3)))
        pred = matmul(matmul(reshape(s1, (8, 3)), matmul(mix, gram)), reshape(s2, (3, 4)))
        return mse(pred, target)

    leaves = [h, *d1.tensors, *d2.tensors, *d3.tensors, *c1.tensors, *c2.tensors, *c3.tensors]
    report = finite_diff_check(loss_fn, leaves)
    assert report.passed, report
    assert report.n_entries == 24 + 2 * (6 + 3) + (9 + 3) + 3 * (12 + 3)


def test_graph_conv_checks_weight_and_block_widths():
    # the weight reads [self | mean] (2d columns), the bias has a row per
    # output column, the block reads every input node, every output node
    # has a self position, and each layer has one weight and one bias
    from soilcausal.errors import NumericError

    h, agg, bias = constant(np.ones((2, 1, 3))), np.full((1, 2), 0.5), constant(np.zeros(4))
    self_slots = np.array([0])
    assert layer_stack(h, [(self_slots, agg)], [constant(np.ones((4, 6)))], [bias]).values.shape == (1, 1, 4)
    for self_index, block, width, b in (
        (self_slots, agg, 3, bias),
        (self_slots, agg, 6, constant(np.zeros(3))),
        (self_slots, np.ones((1, 3)), 6, bias),
        (np.array([0, 1]), agg, 6, bias),
    ):
        with pytest.raises(NumericError, match="conv 0 .* do not fit"):
            layer_stack(h, [(self_index, block)], [constant(np.ones((4, width)))], [b])
    # the second layer reads the first's 4-wide states
    with pytest.raises(NumericError, match=r"conv 1 .* do not fit states \(1, 1, 4\)"):
        layer_stack(h, [(self_slots, agg)] * 2, [constant(np.ones((4, 6)))] * 2, [bias] * 2)
    one, weight = [(self_slots, agg)], constant(np.ones((4, 6)))
    for layers, weights, biases in (([], [], []), (one, [weight], [bias] * 2), (one, [weight] * 2, [bias])):
        with pytest.raises(NumericError, match="layers, .* weights and .* biases"):
            layer_stack(h, layers, weights, biases)


def test_dense_layer_checks_weight_and_bias_widths():
    # a dense layer reads its input's d columns and names its position in
    # the stack (in the loop the first layer fits and the second does not),
    # and the stack reads node-major states
    from soilcausal.errors import NumericError

    h, w, b = constant(np.ones((2, 5, 3))), constant(np.ones((4, 3))), constant(np.zeros(4))
    assert layer_stack(h, [None], [w], [b]).values.shape == (2, 5, 4)
    for weight, bias in (((2, 3), (2,)), ((2, 5), (2,)), ((2, 4), (3,))):
        message = f"dense 1 weight {weight} and bias {bias} do not fit states (2, 5, 4)"
        with pytest.raises(NumericError, match=re.escape(message)):
            layer_stack(h, [None, None], [w, constant(np.ones(weight))], [b, constant(np.zeros(bias))])
    with pytest.raises(NumericError, match=r"dense 0 .* do not fit states \(2, 5, 3\)"):
        layer_stack(h, [None], [constant(np.ones((4, 2)))], [b])
    with pytest.raises(NumericError, match=r"node-major .* got \(5, 3\)"):  # a (rows, in) matrix
        layer_stack(constant(np.ones((5, 3))), [None], [w], [b])


@pytest.mark.parametrize("seed", range(5))
def test_mixed_stack_equals_its_two_call_composition(seed):
    # two convolutions then two dense layers in one call: the dense layers
    # read the second convolution's states after the ReLU between them, so
    # the same layers as two calls need a ReLU on the first call's output,
    # which a trailing identity layer gives exactly
    rng = np.random.default_rng(40 + seed)
    agg = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    convs = [(np.array([2, 0, 1]), agg), (np.array([1, 2]), np.array([[0.5, 0.0, 0.5], [0.0, 0.0, 1.0]]))]
    h = parameter(rng.standard_normal((3, 5, 2)))
    weights = [parameter(rng.standard_normal(shape) * 0.7) for shape in ((4, 4), (3, 8), (3, 3), (2, 3))]
    biases = [parameter(rng.standard_normal(n) * 0.3) for n in (4, 3, 3, 2)]
    target = rng.standard_normal((2, 5, 2))
    eye = constant(np.eye(3))

    def one_call():
        return layer_stack(h, [*convs, None, None], weights, biases)

    def two_calls():
        s = layer_stack(h, [*convs, None], [*weights[:2], eye], [*biases[:2], constant(np.zeros(3))])
        return layer_stack(s, [None, None], weights[2:], biases[2:])

    assert np.array_equal(one_call().values, two_calls().values)
    assert one_call().values.shape == (2, 5, 2)
    for build in (one_call, two_calls):
        report = finite_diff_check(lambda: mse(build(), target), [h, *weights, *biases])
        assert report.passed, report
        assert report.n_entries == 30 + 16 + 24 + 9 + 6 + 4 + 3 + 3 + 2


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
    # dense layer, which hands it a fresh buffer; in either operand order,
    # z's grad is their sum.  s = z.w = 2, loss = |z|^2 s^2 / 2, so
    # dz = z s^2 + |z|^2 s w = (34, -3)
    z = parameter([[[1.0, -2.0]]])
    weight, bias = constant([[3.0, 0.5]]), constant([0.0])
    for pred in (
        lambda: matmul(reshape(z, (2, 1)), layer_stack(z, [None], [weight], [bias])),
        lambda: matmul(layer_stack(z, [None], [weight], [bias]), reshape(z, (1, 2))),
    ):
        z.zero_grad()
        out = pred()
        mse(reshape(out, (2,)), np.zeros(2)).backward()
        assert np.array_equal(z.grad, [[[34.0, -3.0]]])


def test_backward_keeps_gradients_on_leaves_only():
    # op results drop their grad once pushed, and layer_stack masks the
    # gradients it passes between its layers in place, dense or conv: that
    # must reach no forward value, not even the states a dense layer reads
    # as a view of the layer before
    rng = np.random.default_rng(34)
    h = parameter(rng.standard_normal((3, 4, 2)))
    conv, layer = dense_params(rng, 3, 4), dense_params(rng, 2, 3)
    mid, out = dense_params(rng, 2, 2), dense_params(rng, 2, 2)
    agg = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    target = rng.standard_normal(24)

    def build():
        s = one_layer(h, (np.array([0, 2, 1]), agg), *conv.tensors, relu=True)  # (3, 4, 3)
        z = one_layer(s, None, *layer.tensors, relu=True)  # (3, 4, 2)
        y = layer_stack(z, [None, None], [mid.weight, out.weight], [mid.bias, out.bias])  # (3, 4, 2)
        pred = reshape(y, (24,))
        return [s, z, y, pred, mse(pred, target)]

    interior = build()
    before = [t.values.copy() for t in interior]
    assert all(0 < (t.values > 0).mean() < 1 for t in (interior[0], interior[1]))  # both masks cut
    leaves = [h, *conv.tensors, *layer.tensors, *mid.tensors, *out.tensors]
    interior[-1].backward()
    assert all(t.grad is None for t in interior)
    assert all(t.grad is not None for t in leaves)
    assert all(np.array_equal(t.values, v) for t, v in zip(interior, before))
    report = finite_diff_check(lambda: build()[-1], leaves)
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


def test_adam_fit_is_the_step_loop_and_names_divergence():
    from soilcausal.engine import adam_fit
    from soilcausal.errors import NumericError

    rng = np.random.default_rng(4)
    x, y = constant(rng.standard_normal((6, 3))), rng.standard_normal(6)
    w0 = rng.standard_normal((3, 1))
    w = parameter(w0)
    history = adam_fit(lambda: reshape(matmul(x, w), (6,)), [w], y, 0.05, 5, "toy")

    ref, st, ref_history = parameter(w0), AdamState.for_params([parameter(w0)], lr=0.05), []
    for _ in range(5):
        ref.zero_grad()
        loss = mse(reshape(matmul(x, ref), (6,)), y)
        ref_history.append(float(loss.values))
        loss.backward()
        adam_step([ref], [ref.grad], st)
    assert history == ref_history
    assert np.array_equal(w.values, ref.values)
    with pytest.raises(NumericError, match="toy diverged at epoch 0"):
        adam_fit(lambda: reshape(matmul(x, w), (6,)), [w], np.full(6, np.inf), 0.05, 5, "toy")


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


def test_constants_collect_no_gradient():
    # a constant left operand in matmul
    agg = constant([[0.0, 1.0], [0.5, 0.5]])
    x = parameter([[3.0], [4.0]])
    loss = mse(reshape(matmul(agg, x), (2,)), np.zeros(2))
    loss.backward()
    assert agg.grad is None
    # d/dx mean((A x)^2) = A^T (A x) with A x = (4, 3.5)
    assert np.array_equal(x.grad, [[1.75], [5.75]])


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

import numpy as np
import pytest

from soilcausal.engine import (
    AdamState,
    DenseParams,
    Tensor,
    adam_step,
    add,
    assign_params,
    constant,
    dense,
    dense_params,
    finite_diff_check,
    glorot_uniform,
    load_params,
    matmul,
    mse,
    parameter,
    relu,
    reshape,
    save_params,
    slice_last,
    take_node,
    transpose,
)


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


def test_relu_values_and_mask():
    x = parameter([-1.0, 0.0, 2.0])
    y = relu(x)
    assert np.array_equal(y.values, [0.0, 0.0, 2.0])
    loss = mse(y, np.zeros(3))
    loss.backward()
    assert x.grad[0] == 0.0 and x.grad[1] == 0.0 and x.grad[2] != 0.0


def test_mse_values():
    p = constant([0.0, 2.0])
    assert mse(p, np.zeros(2)).item() == pytest.approx(2.0)
    q = constant([1.0, 1.0])
    assert mse(q, np.ones(2)).item() == 0.0


def test_dense_identity_and_bias():
    w = parameter(np.eye(3))
    b = parameter(np.zeros(3))
    x = parameter([1.0, -2.0, 0.5])
    y = dense(x, DenseParams(w, b))
    assert np.allclose(y.values, x.values)
    x0 = parameter(np.zeros(3))
    bias = parameter([1.0, 2.0, 3.0])
    y0 = dense(x0, DenseParams(w, bias))
    assert np.allclose(y0.values, bias.values)


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
    x0 = rng.standard_normal(3)
    target = rng.standard_normal(4)

    w, b, x = parameter(w0), parameter(b0), parameter(x0)

    def loss_fn():
        return mse(dense(x, DenseParams(w, b)), target)

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
    w2 = parameter(rng.standard_normal((2, 4)) * 0.7)
    b2 = parameter(rng.standard_normal(2) * 0.3)
    v = parameter(rng.standard_normal(2))
    u = parameter(rng.standard_normal(2))
    x = parameter(rng.standard_normal((5, 3, 3)))
    target = rng.standard_normal(5)

    def loss_fn():
        neigh = matmul(constant(agg), x)  # (5, 3, 3): constant left operand
        h = add(
            matmul(x, transpose(slice_last(w1, 0, 3))),
            matmul(neigh, transpose(slice_last(w1, 3, 6))),
        )  # (5, 3, 4)
        h = relu(add(h, b1))  # bias broadcast over batch and nodes
        z = dense(take_node(h, 1), DenseParams(w2, b2))  # (5, 2)
        pred = add(matmul(z, v), matmul(u, transpose(z)))  # vector on each side
        return mse(reshape(pred, (5,)), target)

    report = finite_diff_check(loss_fn, [w1, b1, w2, b2, v, u, x])
    assert report.passed, report
    assert report.max_rel_err < 1e-4


def test_relu_gradient_matches_fd_away_from_zero():
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(20)
    x0 = x0[np.abs(x0) > 1e-3]  # keep the kink out of the difference stencil
    x = parameter(x0)
    target = rng.standard_normal(x0.size)

    def loss_fn():
        return mse(relu(x), target)

    assert finite_diff_check(loss_fn, [x]).passed


def test_matmul_vector_cases_match_fd():
    rng = np.random.default_rng(7)
    a = parameter(rng.standard_normal(4))
    m = parameter(rng.standard_normal((4, 3)))
    v = parameter(rng.standard_normal(3))

    def loss_fn():
        inner = matmul(matmul(a, m), v)  # scalar chain
        return mse(reshape(inner, (1,)), np.array([0.3]))

    assert finite_diff_check(loss_fn, [a, m, v]).passed


def test_grad_accumulates_over_shared_subexpression():
    x = parameter([2.0])
    y = add(x, x)  # dy/dx = 2
    loss = mse(y, np.zeros(1))
    loss.backward()
    # d/dx (2x)^2 = 8x = 16 at x=2: both add branches must accumulate
    assert x.grad[0] == pytest.approx(16.0)


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


# ---------------------------------------------------------------------------
# init + checkpoints


def test_glorot_bounds():
    rng = np.random.default_rng(0)
    w = glorot_uniform(rng, 16, 48)
    lim = np.sqrt(6.0 / 64.0)
    assert w.shape == (16, 48)
    assert np.all(np.abs(w) <= lim)
    assert np.abs(w).max() > 0.8 * lim  # actually fills the range


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    params = [
        parameter(rng.standard_normal((3, 4))),
        parameter(rng.standard_normal(7)),
        parameter(rng.standard_normal((2, 2, 2))),
    ]
    path = tmp_path / "model.bin"
    save_params(path, params)
    arrays = load_params(path)
    assert len(arrays) == 3
    for p, a in zip(params, arrays):
        assert a.shape == p.values.shape
        assert np.array_equal(a, p.values)

    fresh = [parameter(np.zeros_like(a)) for a in arrays]
    assign_params(fresh, arrays)
    assert np.array_equal(fresh[0].values, params[0].values)


def test_checkpoint_layout_is_pinned(tmp_path):
    # one 2x1 matrix: header 4 + (4 + 8) bytes, then 16 bytes of data
    path = tmp_path / "tiny.bin"
    save_params(path, [parameter([[1.5], [-2.0]])])
    raw = path.read_bytes()
    assert len(raw) == 4 + 4 + 8 + 16
    assert raw[:4] == b"\x01\x00\x00\x00"
    assert raw[4:8] == b"\x02\x00\x00\x00"  # ndim
    assert raw[8:16] == b"\x02\x00\x00\x00\x01\x00\x00\x00"
    assert np.frombuffer(raw[16:], dtype="<f8").tolist() == [1.5, -2.0]


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    from soilcausal.errors import NumericError

    path = tmp_path / "bad.bin"
    save_params(path, [parameter([1.0])])
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(NumericError):
        load_params(path)


def test_assign_params_shape_guard():
    from soilcausal.errors import NumericError

    p = parameter(np.zeros((2, 2)))
    with pytest.raises(NumericError):
        assign_params([p], [np.zeros(3)])


# ---------------------------------------------------------------------------
# engine mechanics


def test_backward_requires_scalar():
    from soilcausal.errors import NumericError

    x = parameter([1.0, 2.0])
    with pytest.raises(NumericError):
        x.backward()


def test_constants_collect_no_gradient():
    # a fixed aggregation matrix in matmul, as in sage_conv
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

"""Autodiff core: values match numpy, gradients match finite differences."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit as scipy_expit
from scipy.special import logsumexp as scipy_logsumexp

import sepsim.nn.tensor as tensor_module
from sepsim.nn.gradcheck import check_gradients
from sepsim.nn.layers import MLP, LSTMCell
from sepsim.nn.losses import mse
from sepsim.nn.tensor import (Parameter, Tensor, exp, log, log_softmax,
                              logsumexp, logsumexp_np, no_grad, relu, sigmoid,
                              sigmoid_np, tanh)


def numeric_grad(f, x, h=1e-6):
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = f()
        flat[i] = keep - h
        lo = f()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2 * h)
    return g


def check(build, *arrays, tol=1e-6):
    """build(*tensors) -> scalar Tensor; compares grads to central diffs."""
    params = [Parameter(a.copy()) for a in arrays]
    out = build(*params)
    out.backward()
    for p, a in zip(params, arrays):
        num = numeric_grad(lambda p=p: build(*params).data.item(), p.data)
        err = np.max(np.abs(p.grad - num)) / max(np.max(np.abs(num)), 1e-8)
        assert err < tol, f"gradient mismatch: {err}"


def test_add_mul_grads(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    check(lambda x, y: ((x + y) * x).sum(), a, b)


def test_broadcast_add_bias(rng):
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=(3,))
    check(lambda x, y: (x + y).sum(), a, b)
    check(lambda x, y: ((x * 2.0 + y) * (x + 1.0)).mean(), a, b)


def test_sub_div_neg(rng):
    a = rng.normal(size=(4,)) + 3.0
    b = rng.normal(size=(4,)) + 3.0
    check(lambda x, y: (x * y - (-x) - y).sum(), a, b)


def test_matmul_grads(rng):
    a = rng.normal(size=(3, 5))
    b = rng.normal(size=(5, 2))
    check(lambda x, y: (x @ y).sum(), a, b)
    c = rng.normal(size=(2,)) * 0 + rng.normal(size=(2,))
    check(lambda x, y: ((x @ y) * (x @ y)).mean(), a, b)


def test_elementwise_functions(rng):
    a = rng.normal(size=(6,))
    check(lambda x: exp(x).sum(), a)
    check(lambda x: log(exp(x) + 1.5).sum(), a)
    check(lambda x: tanh(x).sum(), a)
    check(lambda x: sigmoid(x).sum(), a)


def test_relu_grad_away_from_kink():
    # keep probes off the nondifferentiable point
    a = np.array([-2.0, -0.5, 0.7, 3.0])
    check(lambda x: (relu(x) * x).sum(), a)


def test_sum_axis_keepdims(rng):
    a = rng.normal(size=(3, 4))
    check(lambda x: x.sum(axis=0).sum(), a)
    check(lambda x: (x - x.sum(axis=1, keepdims=True)).sum(), a)
    check(lambda x: x.mean(), a)


def test_reshape_getitem(rng):
    a = rng.normal(size=(4, 6))
    check(lambda x: x.reshape((2, 12)).sum(), a)
    check(lambda x: x[1:3, 2:5].sum(), a)
    idx = np.array([0, 2, 2, 3])
    cols = np.array([1, 1, 4, 0])
    # fancy indexing with repeats must accumulate, not overwrite
    check(lambda x: x[idx, cols].sum(), a)


def test_logsumexp_matches_scipy(rng):
    from scipy.special import logsumexp as sp_lse
    a = rng.normal(size=(3, 5)) * 10
    t = Tensor(a)
    out = logsumexp(t, axis=1)
    np.testing.assert_allclose(out.data, sp_lse(a, axis=1), rtol=1e-12)
    check(lambda x: logsumexp(x, axis=1).sum(), a)


def test_logsumexp_overflow_safe():
    a = np.array([[1000.0, 1000.0]])
    out = logsumexp(Tensor(a), axis=1)
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data, 1000.0 + np.log(2.0))


def test_softmax_rows_sum_to_one(rng):
    a = rng.normal(size=(4, 7))
    s = exp(log_softmax(Tensor(a), axis=1))
    np.testing.assert_allclose(s.data.sum(axis=1), 1.0, rtol=1e-12)
    check(lambda x: (exp(log_softmax(x, axis=1)) * x).sum(), a)
    check(lambda x: log_softmax(x, axis=1)[:, 0].sum(), a)


def test_diamond_graph_accumulates():
    # same node feeding two paths must get both contributions
    p = Parameter(np.array([2.0]))
    y = p * p + p * 3.0
    out = y.sum()
    out.backward()
    np.testing.assert_allclose(p.grad, np.array([2 * 2.0 + 3.0]))


def test_backward_requires_scalar(rng):
    p = Parameter(rng.normal(size=(3,)))
    with pytest.raises(ValueError):
        (p * 2.0).backward()


def test_grad_accumulates_across_backwards():
    p = Parameter(np.array([1.0, 2.0]))
    (p * p).sum().backward()
    first = p.grad.copy()
    (p * p).sum().backward()
    np.testing.assert_allclose(p.grad, 2 * first)


def test_repeated_node_in_sum():
    p = Parameter(np.array([3.0]))
    out = (p + p + p).sum()
    out.backward()
    np.testing.assert_allclose(p.grad, np.array([3.0]))


# ---- logsumexp_np: bitwise equal to scipy, which stays the oracle ----------

# few distinct values make ties (several maxima) common; the infinities and
# NaN exercise scipy's fall-back to log(sum(exp(a)))
_LSE_ELEMENTS = st.one_of(
    st.floats(min_value=-800.0, max_value=800.0),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 700.0, -np.inf, np.inf,
                     np.nan]),
)


@st.composite
def _lse_case(draw):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=5))
    a = draw(hnp.arrays(np.float64, shape, elements=_LSE_ELEMENTS))
    spoil = draw(st.sampled_from(["none", "tie", "all -inf", "-inf row"]))
    if spoil == "tie":
        # the max copied to another entry, or to the same one
        a.flat[draw(st.integers(0, a.size - 1))] = a.max()
    elif spoil == "all -inf":
        a[...] = -np.inf
    elif spoil == "-inf row" and a.ndim == 2:
        a[draw(st.integers(0, a.shape[0] - 1))] = -np.inf
    axes = [None, -1, *range(a.ndim), tuple(range(a.ndim))]
    if a.ndim == 2:
        axes.append((1,))
    axis = draw(st.sampled_from(axes))
    return a, axis, draw(st.booleans())


@settings(max_examples=600, deadline=None)
@given(_lse_case())
def test_logsumexp_np_bitwise_equals_scipy(case):
    """1-D and 2-D inputs, ties at the max, -inf entries and rows, +inf and
    NaN, every kind of axis, with and without keepdims: scipy's result, type
    and shape, and no RuntimeWarning, which scipy may give."""
    a, axis, keepdims = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = scipy_logsumexp(a, axis=axis, keepdims=keepdims)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = logsumexp_np(a, axis=axis, keepdims=keepdims)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# ---- sigmoid_np: numpy's exp, within a few ULP of scipy's expit ------------


@pytest.mark.parametrize("draw", [lambda g: g.normal(0.0, 3.0, 200_000),
                                  lambda g: g.uniform(-700.0, 700.0, 200_000)],
                         ids=["normal(0,3)", "uniform(-700,700)"])
def test_sigmoid_np_within_4_ulp_of_scipy_expit(draw):
    x = draw(np.random.default_rng(0))
    got, want = sigmoid_np(x), scipy_expit(x)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))


def test_sigmoid_np_edge_values():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        floor = sigmoid_np(np.array([-709.0]))[0]
        assert 0.0 < floor < 1.3e-308
        got = sigmoid_np(np.array([np.inf, -np.inf, np.nan, 0.0, -0.0,
                                   800.0, -800.0]))
        zero_d = sigmoid_np(np.array(0.0))
        empty = [sigmoid_np(np.zeros(shape)) for shape in ((0,), (0, 3))]
    assert got[0] == 1.0 and got[1] == floor and np.isnan(got[2])
    assert got[3] == 0.5 and got[4] == 0.5
    assert got[5] == 1.0 and got[6] == floor
    assert type(zero_d) is np.float64 and zero_d == 0.5
    assert [e.shape for e in empty] == [(0,), (0, 3)]


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 64),
                  elements=st.floats(allow_nan=False)))
def test_sigmoid_np_monotone_and_in_unit_interval(x):
    y = sigmoid_np(np.sort(x))
    assert np.all((0.0 <= y) & (y <= 1.0))
    assert np.all(np.diff(y) >= 0.0)


def test_sigmoid_np_rows_equal_single_row_calls():
    """RollingWindow runs one sigmoid over the gates of all W stacked
    lanes; its bit-for-bit match with StateModel.predict relies on each row
    of a batch equalling the call on that row alone."""
    z = np.random.default_rng(0).normal(0.0, 4.0, size=(64, 256))
    batch = sigmoid_np(z)
    for i in range(z.shape[0]):
        assert batch[i].tobytes() == sigmoid_np(z[i:i + 1])[0].tobytes()


def _sigmoid_subjects(rng):
    """(parameters, scalar loss) for each user of the kernel that has a
    backward, with pre-activations wide enough to reach the flat tails."""
    x = Parameter(rng.normal(0.0, 3.0, size=(6, 5)))
    weights = rng.normal(size=(6, 5))
    yield [("x", x)], lambda: (sigmoid(x) * weights).sum()
    cell = LSTMCell(5, 4, rng=rng)
    cell.b.data[...] = rng.normal(0.0, 3.0, size=16)
    window = rng.normal(0.0, 3.0, size=(5, 6, 5))
    wu = rng.normal(size=(5, 4))
    yield cell.named_parameters(), lambda: (cell.unroll(window) * wu).sum()


def test_sigmoid_users_pass_criterion_01_gradcheck():
    """tensor.sigmoid and LSTMCell.unroll at criterion 01's
    probe count, step and bound."""
    for params, loss in _sigmoid_subjects(np.random.default_rng(3)):
        report = check_gradients(params, loss, probe_count=50, h=1e-5,
                                 rng=np.random.default_rng(0))
        assert report.max_rel_error <= 1e-4, report.worst()


# ---- no_grad ----------------------------------------------------------------


def _small_mlp_loss(net, x, y):
    return mse(net(Tensor(x)), y)


def test_no_grad_records_no_parents(rng):
    p = Parameter(rng.normal(size=(3, 2)))
    with no_grad():
        out = (Tensor(rng.normal(size=(4, 3))) @ p).sum()
    assert out._parents == ()
    assert out._backward is None
    assert not out.requires_grad
    with pytest.raises(RuntimeError, match="no recorded computation"):
        out.backward()


def test_no_grad_values_equal_taped_forward(rng):
    net = MLP([5, 7, 3], rng=np.random.default_rng(1))
    x, y = rng.normal(size=(6, 5)), rng.normal(size=(6, 3))
    taped = _small_mlp_loss(net, x, y)
    with no_grad():
        free = _small_mlp_loss(net, x, y)
    assert taped.requires_grad and not free.requires_grad
    assert np.array_equal(taped.data, free.data)


def test_no_grad_leaves_parameter_grads_untouched(rng):
    net = MLP([5, 7, 3], rng=np.random.default_rng(1))
    x, y = rng.normal(size=(6, 5)), rng.normal(size=(6, 3))
    _small_mlp_loss(net, x, y).backward()
    before = [p.grad.copy() for p in net.parameters()]
    with no_grad():
        _small_mlp_loss(net, x, y)
    for p, g in zip(net.parameters(), before):
        assert np.array_equal(p.grad, g)


def test_no_grad_restores_flag_after_exception():
    with pytest.raises(ZeroDivisionError):
        with no_grad():
            with no_grad():
                pass
            assert not tensor_module._grad_enabled
            1 / 0
    assert tensor_module._grad_enabled
    p = Parameter(np.array([2.0]))
    out = (p * p).sum()
    out.backward()
    assert p.grad[0] == 4.0


# ---- getitem and matmul backward ------------------------------------------


@pytest.mark.parametrize("idx", [
    np.s_[1:3, 2:5], np.s_[:, ::2], np.s_[-1], np.s_[2, 1],
    np.s_[None, 1:, ...], np.s_[..., 3], np.s_[np.int64(1), :],
])
def test_getitem_basic_backward_matches_add_at(rng, idx):
    a = Parameter(rng.normal(size=(4, 6)))
    out = a[idx]
    g = rng.normal(size=out.shape)
    (out * g).sum().backward()
    want = np.zeros((4, 6))
    np.add.at(want, idx, g)
    assert np.array_equal(a.grad, want)
    assert np.array_equal(np.signbit(a.grad), np.signbit(want))


def test_getitem_duplicate_advanced_indices_accumulate():
    a = Parameter(np.zeros((3, 4)))
    rows = np.array([0, 2, 2, 2])
    cols = np.array([1, 3, 3, 0])
    a[rows, cols].sum().backward()
    want = np.zeros((3, 4))
    want[0, 1], want[2, 3], want[2, 0] = 1.0, 2.0, 1.0
    assert np.array_equal(a.grad, want)
    b = Parameter(np.zeros(4))
    b[[1, 1, 1]].sum().backward()
    assert np.array_equal(b.grad, [0.0, 3.0, 0.0, 0.0])


@pytest.mark.parametrize("constant_side", ["left", "right"])
def test_matmul_with_constant_operand_passes_gradcheck(rng, constant_side):
    """Criterion-01 style check; the constant side gets no gradient."""
    x = Tensor(rng.normal(size=(4, 5)))
    if constant_side == "left":
        w = Parameter(rng.normal(size=(5, 3)))
        product = lambda: x @ w  # noqa: E731
    else:
        w = Parameter(rng.normal(size=(3, 4)))
        product = lambda: w @ x  # noqa: E731
    target = rng.normal(size=product().shape)
    report = check_gradients([w], lambda: mse(tanh(product()), target),
                             probe_count=12, h=1e-5,
                             rng=np.random.default_rng(0))
    assert report.max_rel_error <= 1e-4
    node = product()
    grads = node._backward(np.ones(node.shape))
    assert (grads[0] is None) == (constant_side == "left")
    assert (grads[1] is None) == (constant_side == "right")

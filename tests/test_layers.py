"""Dense / MLP / LSTM layers against independent numpy references."""
import numpy as np
import pytest
from scipy.special import expit

from sepsim.nn.layers import ACTIVATIONS, MLP, Dense, LSTMCell
from sepsim.nn.tensor import Tensor, relu


def test_dense_forward_matches_manual(rng):
    layer = Dense(4, 3, activation="tanh", rng=rng)
    x = rng.normal(size=(5, 4))
    want = np.tanh(x @ layer.W.data + layer.b.data)
    np.testing.assert_allclose(layer.forward_np(x), want, rtol=1e-12)
    got = layer(Tensor(x))
    np.testing.assert_array_equal(got.data, layer.forward_np(x))


def test_mlp_graph_and_numpy_agree(rng):
    net = MLP((6, 8, 8, 2), hidden_activation="relu",
              output_activation="linear", rng=rng)
    x = rng.normal(size=(7, 6))
    np.testing.assert_array_equal(net(Tensor(x)).data, net.forward_np(x))


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_nan_input_reaches_dense_output(rng, activation):
    """relu is max(x, 0) on both paths, so a NaN is not masked to zero."""
    layer = Dense(3, 2, activation=activation, rng=rng)
    x = np.array([[np.nan, 1.0, 2.0], [0.5, -1.0, 0.0]])
    for out in (layer(Tensor(x)).data, layer.forward_np(x)):
        assert np.isnan(out[0]).all()
        assert np.isfinite(out[1]).all()


def test_relu_keeps_nan(rng):
    x = Tensor(np.array([np.nan, -1.0, 2.0]))
    out = relu(x).data
    assert np.isnan(out[0]) and out[1] == 0.0 and out[2] == 2.0


def test_mlp_rejects_short_dims(rng):
    with pytest.raises(ValueError):
        MLP((4,), rng=rng)


def test_parameter_names_unique(rng):
    net = MLP((3, 5, 2), rng=rng)
    names = [n for n, _ in net.named_parameters()]
    assert len(names) == len(set(names))
    assert len(names) == 4  # two layers, W and b each


def test_state_arrays_round_trip(rng):
    net = MLP((3, 4, 2), rng=rng)
    saved = {k: v.copy() for k, v in net.state_arrays().items()}
    for p in net.parameters():
        p.data += 1.0
    net.load_state_arrays(saved)
    for k, v in net.state_arrays().items():
        np.testing.assert_array_equal(v, saved[k])


def reference_lstm_step(x, h, c, Wx, Wh, b):
    """Plain-numpy LSTM with gate order i, f, g, o."""
    H = h.shape[-1]
    z = x @ Wx + h @ Wh + b
    i = expit(z[..., 0 * H:1 * H])
    f = expit(z[..., 1 * H:2 * H])
    g = np.tanh(z[..., 2 * H:3 * H])
    o = expit(z[..., 3 * H:4 * H])
    c_next = f * c + i * g
    h_next = o * np.tanh(c_next)
    return h_next, c_next


def test_lstm_matches_reference(rng):
    cell = LSTMCell(5, 7, rng=rng)
    B = 4
    x = rng.normal(size=(B, 5))
    h, c = cell.init_state(B)
    got_h, got_c = cell.step_np(x, h, c)
    want_h, want_c = reference_lstm_step(x, h, c, cell.Wx.data, cell.Wh.data,
                                         cell.b.data)
    np.testing.assert_allclose(got_h, want_h, rtol=1e-12)
    np.testing.assert_allclose(got_c, want_c, rtol=1e-12)


def test_lstm_sequence_matches_reference(rng):
    cell = LSTMCell(3, 4, rng=rng)
    B, T = 2, 6
    xs = rng.normal(size=(T, B, 3))
    h, c = cell.init_state(B)
    h_ref, c_ref = h.copy(), c.copy()
    for t in range(T):
        h, c = cell.step_np(xs[t], h, c)
        h_ref, c_ref = reference_lstm_step(xs[t], h_ref, c_ref, cell.Wx.data,
                                           cell.Wh.data, cell.b.data)
    np.testing.assert_allclose(h, h_ref, rtol=1e-10)
    np.testing.assert_allclose(c, c_ref, rtol=1e-10)


def test_lstm_graph_and_numpy_agree(rng):
    cell = LSTMCell(3, 4, rng=rng)
    x = rng.normal(size=(2, 3))
    h, c = cell.init_state(2)
    gh, gc = cell.step(x, h, c)
    nh, nc = cell.step_np(x, h, c)
    np.testing.assert_array_equal(gh.data, nh)
    np.testing.assert_array_equal(gc.data, nc)


def test_lstm_forget_bias_zero_init(rng):
    cell = LSTMCell(3, 4, rng=rng)
    np.testing.assert_array_equal(cell.b.data, np.zeros(16))


def test_lstm_rejects_bad_shapes(rng):
    cell = LSTMCell(3, 4, rng=rng)
    h, c = cell.init_state(2)
    with pytest.raises(ValueError):
        cell.step_np(np.zeros((2, 5)), h, c)


@pytest.mark.parametrize("batch", [1, 64])
def test_lstm_step_np_is_recur_np_of_projection(rng, batch):
    cell = LSTMCell(9, 16, rng=rng)
    x = rng.normal(size=(batch, 9))
    h = rng.normal(size=(batch, 16))
    c = rng.normal(size=(batch, 16))
    want_h, want_c = cell.step_np(x, h, c)
    got_h, got_c = cell.recur_np(x @ cell.Wx.data, h, c)
    assert np.array_equal(got_h, want_h)
    assert np.array_equal(got_c, want_c)


WINDOW, HIDDEN = 10, 64


@pytest.mark.parametrize("k", [55, 64, 71])
def test_stacked_matmul_rows_equal_batch1_products(k):
    """The env's history window advances its W unrolls as W stacked lanes.

    A stacked (W, 1, k) @ (k, n) product runs one batch-1 product per lane,
    so each lane's bits are those of `X[i:i+1] @ W`; a 2-D (W, k) @ (k, n)
    gemm may block and sum differently, and its rows can differ from the
    batch-1 product in the last bits. That is why the lanes are stacked,
    not 2-D. k covers the input projections from 55 (latent) and 71 (raw)
    features and the recurrent product from 64 hidden units, n = 4 * 64.
    """
    rng = np.random.default_rng(k)
    weights = rng.normal(size=(k, 4 * HIDDEN)) / np.sqrt(k)
    rows = rng.normal(size=(WINDOW, k))
    stacked = rows[:, None, :] @ weights
    assert stacked.shape == (WINDOW, 1, 4 * HIDDEN)
    for i in range(WINDOW):
        assert stacked[i].tobytes() == (rows[i:i + 1] @ weights).tobytes()


@pytest.mark.parametrize("input_size", [55, 71])
def test_recur_np_lanes_equal_batch1_calls(input_size):
    """`recur_np` over (W, 1, hidden) lanes, with one input projection
    shared by every lane as the env's window feeds it, equals W separate
    batch-1 calls byte for byte: the recurrent product, the sigmoid over
    the gates and both np.tanh calls included."""
    rng = np.random.default_rng(input_size)
    cell = LSTMCell(input_size, HIDDEN, rng=rng)
    cell.b.data[:] = rng.normal(size=4 * HIDDEN)
    xw = rng.normal(0.0, 3.0, size=(1, input_size)) @ cell.Wx.data
    # lanes at several scales, so the gates reach their flat tails too
    scale = np.geomspace(0.01, 10.0, WINDOW)[:, None, None]
    h = rng.normal(size=(WINDOW, 1, HIDDEN)) * scale
    c = rng.normal(size=(WINDOW, 1, HIDDEN)) * scale
    lanes_h, lanes_c = cell.recur_np(xw, h, c)
    assert lanes_h.shape == lanes_c.shape == (WINDOW, 1, HIDDEN)
    for i in range(WINDOW):
        want_h, want_c = cell.recur_np(xw, h[i], c[i])
        assert lanes_h[i].tobytes() == want_h.tobytes()
        assert lanes_c[i].tobytes() == want_c.tobytes()

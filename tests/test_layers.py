"""Dense / MLP / LSTM layers against independent numpy references."""
import numpy as np
import pytest
from scipy.special import expit

from sepsim.nn import ACTIVATIONS, Dense, LSTMCell, MLP, Tensor, relu


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

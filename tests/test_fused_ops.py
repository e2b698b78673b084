"""Fused tape ops (Dense.__call__, LSTMCell.unroll) against the per-op
graphs they replace: same loss and gradients bit for bit, and gradcheck."""
import numpy as np
import pytest

from sepsim.dynamics import StateModel, StateModelConfig
from sepsim.nn import (ACTIVATIONS, Dense, LSTMCell, Parameter, Tensor,
                       check_gradients, mdn_loss_graph, mse, no_grad, relu,
                       sigmoid, tanh)
from sepsim.vae import VaeModel, vae_loss_graph

PER_OP_ACTIVATION = {"linear": lambda t: t, "relu": relu, "tanh": tanh,
                     "sigmoid": sigmoid}


def per_op_dense(layer: Dense, x: Tensor) -> Tensor:
    """Dense as three tape nodes: matmul, bias add, activation."""
    return PER_OP_ACTIVATION[layer.activation](x @ layer.W + layer.b)


def per_op_unroll(cell: LSTMCell, *parts) -> Tensor:
    """The window as a chain of `step` graphs, one per time step."""
    h, c = cell.init_state(parts[0].shape[0])
    for t in range(parts[0].shape[1]):
        x = np.concatenate([p[:, t] for p in parts], axis=1)
        h, c = cell.step(Tensor(x), h, c)
    return h


def grads_of(loss_fn, params):
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    return loss.data.copy(), [p.grad.copy() for p in params]


def assert_bitwise_parity(loss_fn, params):
    """loss_fn with the fused ops, then with the per-op graphs swapped in."""
    loss_a, grads_a = grads_of(loss_fn, params)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Dense, "__call__", per_op_dense)
        patch.setattr(LSTMCell, "unroll", per_op_unroll)
        loss_b, grads_b = grads_of(loss_fn, params)
    # bytes, not values: a zero's sign or a NaN's payload must match too
    assert loss_a.tobytes() == loss_b.tobytes()
    for ga, gb in zip(grads_a, grads_b):
        assert ga.tobytes() == gb.tobytes()


def randomize_biases(module, rng):
    for name, p in module.named_parameters():
        if name.endswith("b"):
            p.data[...] = rng.normal(size=p.data.shape)


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("x_grad", [False, True])
def test_dense_parity(rng, activation, x_grad):
    layer = Dense(6, 5, activation=activation, rng=rng)
    randomize_biases(layer, rng)
    x = Parameter(rng.normal(size=(9, 6))) if x_grad else Tensor(rng.normal(size=(9, 6)))
    weights = rng.normal(size=(9, 5))
    params = layer.parameters() + ([x] if x_grad else [])
    assert_bitwise_parity(lambda: (layer(x) * weights).sum(), params)


def test_dense_input_feeding_two_layers(rng):
    """One input into two Denses, as the VAE's mu and log-sigma heads."""
    trunk = Dense(4, 7, activation="relu", rng=rng)
    left = Dense(7, 3, activation="linear", rng=rng)
    right = Dense(7, 3, activation="tanh", rng=rng)
    for layer in (trunk, left, right):
        randomize_biases(layer, rng)
    x = Tensor(rng.normal(size=(8, 4)))

    def loss():
        h = trunk(x)
        return (left(h) * right(h)).sum()

    assert_bitwise_parity(loss, [p for layer in (trunk, left, right)
                                 for p in layer.parameters()])


def test_vae_loss_parity(rng):
    model = VaeModel(beta=0.5, rng=rng)
    randomize_biases(model, rng)
    batch = rng.normal(size=(16, 46))
    eps = rng.normal(size=(16, 30))
    assert_bitwise_parity(lambda: vae_loss_graph(model, batch, eps)[0],
                          model.parameters())


@pytest.mark.parametrize("steps", [1, 4, 10])
@pytest.mark.parametrize("batch", [1, 7])
def test_unroll_parity(rng, steps, batch):
    cell = LSTMCell(5 + 3, 6, rng=rng)
    randomize_biases(cell, rng)
    window_states = rng.normal(size=(batch, steps, 5))
    window_actions = rng.normal(size=(batch, steps, 3))
    weights = rng.normal(size=(batch, 6))
    assert_bitwise_parity(
        lambda: (cell.unroll(window_states, window_actions) * weights).sum(),
        cell.parameters())


@pytest.mark.parametrize("variant", ["rnn", "vae_mdn_rnn"])
def test_state_model_loss_parity(rng, variant):
    """A state model's training loss: unroll, head and loss together."""
    config = StateModelConfig(variant=variant, window=10, rnn_hidden=12,
                              n_mixtures=3)
    model = StateModel(config, rng=rng)
    randomize_biases(model, rng)
    d = model.state_dim
    ws = rng.normal(size=(11, 10, d))
    wa = np.eye(25)[rng.integers(25, size=(11, 10))]
    ws[:, :3] = wa[:, :3] = 0.0  # front padding rows, as in short histories
    targets = rng.normal(size=(11, d))

    def loss():
        out = model.forward_graph(ws, wa)
        if config.uses_mdn:
            return mdn_loss_graph(*model.split_head(out), targets)
        return mse(out, targets)

    assert_bitwise_parity(loss, model.parameters())


def test_unroll_forward_matches_step_np(rng):
    cell = LSTMCell(4, 5, rng=rng)
    randomize_biases(cell, rng)
    xs = rng.normal(size=(3, 6, 4))
    h, c = cell.init_state(3)
    for t in range(6):
        h, c = cell.step_np(xs[:, t], h, c)
    with no_grad():
        got = cell.unroll(xs)
    assert np.array_equal(got.data, h)
    assert not got.requires_grad


def test_unroll_checks_shapes(rng):
    cell = LSTMCell(4, 5, rng=rng)
    with pytest.raises(ValueError, match="input size"):
        cell.unroll(np.zeros((2, 3, 3)))
    with pytest.raises(ValueError, match="2-d"):
        cell.unroll(np.zeros((2, 3, 1, 4)))


def test_dense_rejects_non_matrix_input(rng):
    layer = Dense(4, 2, rng=rng)
    with pytest.raises(ValueError, match="2-d"):
        layer(Tensor(np.zeros(4)))


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_dense_gradcheck(rng, activation):
    layer = Dense(5, 4, activation=activation, rng=rng)
    randomize_biases(layer, rng)
    x = Parameter(rng.normal(size=(6, 5)))
    weights = rng.normal(size=(6, 4))
    report = check_gradients(layer.named_parameters() + [("x", x)],
                             lambda: (layer(x) * weights).sum(),
                             probe_count=40, rng=np.random.default_rng(1))
    assert report.max_rel_error < 1e-6


def test_unroll_gradcheck(rng):
    cell = LSTMCell(3 + 2, 4, rng=rng)
    randomize_biases(cell, rng)
    window_states = rng.normal(size=(5, 6, 3))
    window_actions = rng.normal(size=(5, 6, 2))
    weights = rng.normal(size=(5, 4))
    report = check_gradients(
        cell.named_parameters(),
        lambda: (cell.unroll(window_states, window_actions) * weights).sum(),
        probe_count=60, rng=np.random.default_rng(2))
    assert report.max_rel_error < 1e-6

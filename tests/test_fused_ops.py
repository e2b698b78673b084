"""Fused tape ops (Dense.__call__, LSTMCell.unroll) and the tape-free TD
step against the per-op graphs they replace: same loss and gradients (and,
for the TD step, trained weights) bit for bit, and gradcheck."""
import numpy as np
import pytest

from sepsim import agent
from sepsim.agent import QNetwork, td_targets
from sepsim.data import ACTION_COUNT, N_FEATURES
from sepsim.dynamics import StateModel, StateModelConfig
from sepsim.nn.gradcheck import check_gradients
from sepsim.nn.layers import ACTIVATIONS, Dense, LSTMCell
from sepsim.nn.losses import mdn_loss_graph, mse
from sepsim.nn.optim import SGD, Adam, Optimizer
from sepsim.nn.tensor import Parameter, Tensor, no_grad, relu, tanh
from sepsim.vae import VaeModel, vae_loss_graph

PER_OP_ACTIVATION = {"linear": lambda t: t, "relu": relu, "tanh": tanh}


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


# ---- the tape-free TD step ---------------------------------------------------


def tape_td_update(net, target_net, batch, gamma, optimizer):
    """`td_update` as the tape computes it, with per-op Dense graphs."""
    targets = td_targets(target_net, batch, gamma)
    optimizer.zero_grad()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Dense, "__call__", per_op_dense)
        q = net.net(Tensor(batch["states"]))
    rows = np.arange(len(batch["actions"]))
    loss = mse(q[rows, batch["actions"]], targets)
    loss.backward()
    optimizer.step()
    return loss.item()


def td_batch(rng, n, dones, actions, obs_dim=N_FEATURES):
    done = {"none": np.zeros(n), "all": np.ones(n),
            "mixed": (rng.random(n) < 0.3).astype(float)}[dones]
    taken = (np.full(n, 7) if actions == "repeated"
             else rng.integers(0, ACTION_COUNT, size=n))
    return {"states": rng.normal(size=(n, obs_dim)), "actions": taken,
            "rewards": rng.normal(size=n) * 5.0,
            "next_states": rng.normal(size=(n, obs_dim)), "dones": done}


def run_td_updates(optimizer_cls, batch_size, dones, actions, steps=200):
    """Losses and final weights of `agent.td_update` over `steps` updates,
    with the target synced every 50 as `train_agent` does."""
    rng = np.random.default_rng(11)
    net = QNetwork(rng=np.random.default_rng(12))
    target = net.clone()
    optimizer = optimizer_cls(net.parameters(), lr=1e-3)
    losses = []
    for step in range(1, steps + 1):
        batch = td_batch(rng, batch_size, dones, actions)
        losses.append(agent.td_update(net, target, batch, 0.99, optimizer))
        if step % 50 == 0:
            target.load_state_arrays(net.state_arrays())
    return np.array(losses), net.state_arrays()


@pytest.mark.parametrize("optimizer_cls", [Adam, SGD])
@pytest.mark.parametrize("batch_size", [1, 7, 64])
@pytest.mark.parametrize("dones, actions", [("mixed", "random"),
                                            ("none", "repeated"),
                                            ("all", "random")])
def test_td_update_parity(optimizer_cls, batch_size, dones, actions):
    losses_a, weights_a = run_td_updates(optimizer_cls, batch_size, dones,
                                         actions)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(agent, "td_update", tape_td_update)
        losses_b, weights_b = run_td_updates(optimizer_cls, batch_size, dones,
                                             actions)
    assert losses_a.tobytes() == losses_b.tobytes()
    assert weights_a.keys() == weights_b.keys()
    for name in weights_a:
        assert weights_a[name].tobytes() == weights_b[name].tobytes(), name


class _FrozenOptimizer(Optimizer):
    """Leaves the weights alone, so `td_update` only fills the gradients."""

    def step(self) -> None:
        pass


class _Evaluated:
    """A loss already computed, with its gradient already in `p.grad`."""

    def __init__(self, value: float):
        self.value = value

    def backward(self) -> None:
        pass

    def item(self) -> float:
        return self.value


def test_td_update_gradcheck(rng):
    """Criterion-01-style: the gradient `td_update` hands its optimizer
    against central differences of the loss it returns."""
    net = QNetwork(obs_dim=6, n_actions=4, rng=np.random.default_rng(5))
    randomize_biases(net, rng)
    target = QNetwork(obs_dim=6, n_actions=4, rng=np.random.default_rng(6))
    batch = td_batch(rng, 9, "mixed", "random", obs_dim=6)
    batch["actions"] = rng.integers(0, 4, size=9)
    optimizer = _FrozenOptimizer(net.parameters(), lr=1.0)
    report = check_gradients(
        net.named_parameters(),
        lambda: _Evaluated(agent.td_update(net, target, batch, 0.9, optimizer)),
        probe_count=50, rng=np.random.default_rng(3))
    assert report.max_rel_error <= 1e-4, report.worst()  # criterion 01's bound

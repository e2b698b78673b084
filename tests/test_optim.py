"""Optimizers over one flat buffer against per-parameter reference loops,
and the parameter views they hand out."""
import numpy as np
import pytest

from sepsim.nn.gradcheck import check_gradients
from sepsim.nn.layers import MLP, Dense
from sepsim.nn.losses import mse
from sepsim.nn.optim import SGD, Adam
from sepsim.nn.tensor import Parameter, Tensor
from sepsim.nn.training import TrainSchedule, fit

SHAPES = [(4, 3), (3,), (2, 2, 5), (), (1, 7)]


def reference_sgd(lr):
    def step(datas, grads, state):
        for d, g in zip(datas, grads):
            d -= lr * g
    return step


def reference_adam(lr, betas, eps):
    b1, b2 = betas

    def step(datas, grads, state):
        if not state:
            state.update(t=0, m=[np.zeros_like(d) for d in datas],
                         v=[np.zeros_like(d) for d in datas])
        state["t"] += 1
        c1 = 1.0 - b1 ** state["t"]
        c2 = 1.0 - b2 ** state["t"]
        for d, g, m, v in zip(datas, grads, state["m"], state["v"]):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            d -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return step


CASES = {
    "sgd": (lambda ps: SGD(ps, lr=0.05), reference_sgd(0.05)),
    "adam": (lambda ps: Adam(ps, lr=0.01, betas=(0.8, 0.99), eps=1e-6),
             reference_adam(0.01, (0.8, 0.99), 1e-6)),
}


def random_params(rng):
    return [Parameter(rng.normal(size=shape)) for shape in SHAPES]


def random_grads(rng):
    # magnitudes over six decades, and some exact zeros
    grads = []
    for shape in SHAPES:
        g = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
        grads.append(np.where(rng.random(shape) < 0.1, 0.0, g))
    return grads


@pytest.mark.parametrize("case", sorted(CASES))
def test_flat_update_equals_per_parameter_loop(rng, case):
    make, reference = CASES[case]
    params = random_params(rng)
    ref_datas = [p.data.copy() for p in params]
    optimizer = make(params)
    state = {}
    for _ in range(50):
        grads = random_grads(rng)
        optimizer.zero_grad()
        for p, g in zip(params, grads):
            p.grad += g
        optimizer.step()
        reference(ref_datas, grads, state)
        for p, d in zip(params, ref_datas):
            assert p.data.shape == d.shape
            assert p.data.tobytes() == d.tobytes()


def test_packing_keeps_values_and_grads(rng):
    params = random_params(rng)
    for p in params:
        p.grad[...] = rng.normal(size=p.grad.shape)
    before = [(p.data.copy(), p.grad.copy()) for p in params]
    optimizer = SGD(params, lr=0.1)
    for p, (data, grad) in zip(params, before):
        assert p.data.shape == data.shape and p.grad.shape == grad.shape
        assert p.data.tobytes() == data.tobytes()
        assert p.grad.tobytes() == grad.tobytes()
    optimizer.zero_grad()
    assert all(not p.grad.any() for p in params)


def test_state_arrays_round_trip_through_views(rng):
    net = MLP([3, 5, 2], rng=rng)
    optimizer = Adam(net.parameters(), lr=0.01)
    loaded = {k: rng.normal(size=v.shape) for k, v in net.state_arrays().items()}
    net.load_state_arrays(loaded)
    for k, v in net.state_arrays().items():
        assert v.tobytes() == loaded[k].tobytes()
    # the optimizer updates the loaded values, as a fresh loop would
    reference = reference_adam(0.01, (0.9, 0.999), 1e-8)
    names = [name for name, _ in net.named_parameters()]
    ref_datas = [loaded[name].copy() for name in names]
    grads = [rng.normal(size=d.shape) for d in ref_datas]
    optimizer.zero_grad()
    for p, g in zip(net.parameters(), grads):
        p.grad += g
    optimizer.step()
    reference(ref_datas, grads, {})
    after = net.state_arrays()
    for name, d in zip(names, ref_datas):
        assert after[name].tobytes() == d.tobytes()


def test_gradcheck_through_views(rng):
    layer = Dense(4, 3, activation="tanh", rng=rng)
    optimizer = Adam(layer.parameters(), lr=0.01)
    before = layer.state_arrays()
    x = rng.normal(size=(5, 4))
    weights = rng.normal(size=(5, 3))
    report = check_gradients(layer.named_parameters(),
                             lambda: (layer(Tensor(x)) * weights).sum(),
                             probe_count=30, rng=np.random.default_rng(1))
    assert report.max_rel_error < 1e-6
    for k, v in layer.state_arrays().items():
        assert v.tobytes() == before[k].tobytes()
    optimizer.step()  # the views are still the optimizer's
    assert not np.array_equal(layer.W.data, before["W"])


def test_fit_restore_best_through_views(rng):
    layer = Dense(3, 1, rng=rng)
    optimizer = SGD(layer.parameters(), lr=0.5)
    seen = []
    losses = iter([1.0, 2.0, 3.0, 4.0])

    def val_loss():
        seen.append(layer.state_arrays())
        return next(losses)

    fit(layer, optimizer, TrainSchedule(max_epochs=4, patience=3, batch_size=4),
        train_size=8,
        batch_loss=lambda idx: mse(layer(Tensor(np.ones((len(idx), 3)))),
                                   np.full((len(idx), 1), 10.0)),
        val_loss=val_loss)
    assert not np.array_equal(seen[0]["W"], seen[-1]["W"])
    for k, v in layer.state_arrays().items():
        assert v.tobytes() == seen[0][k].tobytes()
    optimizer.zero_grad()
    mse(layer(Tensor(np.ones((2, 3)))), np.zeros((2, 1))).backward()
    optimizer.step()
    assert not np.array_equal(layer.W.data, seen[0]["W"])


def test_duplicate_parameter_rejected(rng):
    p = Parameter(rng.normal(size=3))
    with pytest.raises(ValueError, match="more than once"):
        SGD([p, Parameter(np.zeros(2)), p], lr=0.1)


def test_parameter_without_grad_rejected():
    with pytest.raises(ValueError, match="require gradients"):
        SGD([Tensor(np.zeros(3))], lr=0.1)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stale_optimizer_raises_after_repack(rng, case):
    params = random_params(rng)
    stale = CASES[case][0](params)
    fresh = Adam(params[1:3], lr=0.01)
    with pytest.raises(RuntimeError, match="no longer views"):
        stale.step()
    with pytest.raises(RuntimeError, match="no longer views"):
        stale.zero_grad()
    fresh.zero_grad()
    fresh.step()


def test_rebound_data_detaches(rng):
    params = random_params(rng)
    optimizer = SGD(params, lr=0.1)
    params[0].data = params[0].data.copy()
    with pytest.raises(RuntimeError, match="no longer views"):
        optimizer.step()

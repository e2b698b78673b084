"""Optimizers and the fit loop: early stopping, restoration, determinism."""
import numpy as np
import pytest

from sepsim.nn.layers import Dense
from sepsim.nn.losses import mse
from sepsim.nn.optim import SGD, Adam
from sepsim.nn.tensor import Parameter, Tensor
from sepsim.nn.training import TrainSchedule, fit


class LinearModel:
    def __init__(self, rng):
        self.layer = Dense(3, 1, activation="linear", rng=rng)

    def named_parameters(self):
        return self.layer.named_parameters()

    def parameters(self):
        return self.layer.parameters()

    def state_arrays(self):
        return self.layer.state_arrays()

    def load_state_arrays(self, arrays):
        self.layer.load_state_arrays(arrays)


def make_regression(rng, n=256):
    X = rng.normal(size=(n, 3))
    w = np.array([[1.5], [-2.0], [0.5]])
    y = X @ w + 0.3
    return X, y


def test_sgd_step_is_plain_descent():
    p = Parameter(np.array([1.0]))
    opt = SGD([p], lr=0.1)
    (p * p).sum().backward()
    opt.step()
    np.testing.assert_allclose(p.data, np.array([1.0 - 0.1 * 2.0]))


def test_adam_first_step_size():
    p = Parameter(np.array([5.0]))
    opt = Adam([p], lr=0.01)
    (p * 3.0).sum().backward()
    opt.step()
    # first Adam step is ~lr regardless of gradient scale
    np.testing.assert_allclose(p.data, np.array([5.0 - 0.01]), atol=1e-8)


def test_optimizer_rejects_empty():
    with pytest.raises(ValueError):
        SGD([], lr=0.1)


def test_fit_recovers_ols_solution(rng):
    X, y = make_regression(rng)
    model = LinearModel(rng)
    schedule = TrainSchedule(max_epochs=300, patience=300, batch_size=32, seed=1)

    def batch_loss(idx):
        return mse(model.layer(Tensor(X[idx])), y[idx])

    def val_loss():
        return float(np.mean((model.layer.forward_np(X) - y) ** 2))

    history = fit(model, Adam(model.parameters(), lr=0.02), schedule,
                  train_size=X.shape[0], batch_loss=batch_loss,
                  val_loss=val_loss)
    # closed-form least squares with intercept
    A = np.hstack([X, np.ones((X.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    np.testing.assert_allclose(model.layer.W.data, coef[:3], atol=1e-3)
    np.testing.assert_allclose(model.layer.b.data, coef[3], atol=1e-3)
    assert history.best_val_loss < 1e-5


def test_early_stopping_on_scripted_losses(rng):
    """val sequence 5, 4, 4.1, 4.2, 4.3 with patience 3 stops after epoch 5."""
    model = LinearModel(rng)
    losses = iter([5.0, 4.0, 4.1, 4.2, 4.3, 3.0])
    schedule = TrainSchedule(max_epochs=10, patience=3, batch_size=4, seed=0)
    history = fit(model, SGD(model.parameters(), lr=1e-9), schedule,
                  train_size=8,
                  batch_loss=lambda idx: mse(model.layer(Tensor(np.zeros((len(idx), 3)))),
                                             np.zeros((len(idx), 1))),
                  val_loss=lambda: next(losses))
    assert history.stopped_early
    assert history.n_epochs == 5
    assert history.best_epoch == 2
    assert history.best_val_loss == 4.0


def test_restore_best_rewinds_weights(rng):
    model = LinearModel(rng)
    start = {k: v.copy() for k, v in model.state_arrays().items()}
    # degrade forever: epoch 1 is the best, so fit must restore epoch-1 weights
    losses = iter([1.0, 2.0, 3.0, 4.0])
    schedule = TrainSchedule(max_epochs=4, patience=3, batch_size=4, seed=0)

    def batch_loss(idx):
        return mse(model.layer(Tensor(np.ones((len(idx), 3)))),
                   np.full((len(idx), 1), 10.0))

    fit(model, SGD(model.parameters(), lr=0.5), schedule, train_size=8,
        batch_loss=batch_loss, val_loss=lambda: next(losses))
    after_epoch1 = model.state_arrays()
    for key in start:
        assert not np.array_equal(after_epoch1[key], start[key]), \
            "weights should have moved during epoch 1"


def test_patience_must_be_positive():
    with pytest.raises(ValueError):
        TrainSchedule(max_epochs=5, patience=0)


def test_fit_deterministic_under_seed(rng):
    X, y = make_regression(rng, n=64)

    def run():
        m = LinearModel(np.random.default_rng(7))
        sched = TrainSchedule(max_epochs=5, patience=5, batch_size=16, seed=3)
        hist = fit(m, Adam(m.parameters(), lr=0.01), sched, train_size=64,
                   batch_loss=lambda idx: mse(m.layer(Tensor(X[idx])), y[idx]),
                   val_loss=lambda: float(np.mean((m.layer.forward_np(X) - y) ** 2)))
        return [r.val_loss for r in hist.records], m.state_arrays()

    losses_a, state_a = run()
    losses_b, state_b = run()
    assert losses_a == losses_b
    for k in state_a:
        np.testing.assert_array_equal(state_a[k], state_b[k])

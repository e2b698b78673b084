"""Loss functions against closed forms and brute-force density evaluation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sepsim.nn.losses import (MixtureParams, bce_with_logits, gaussian_kl,
                              mdn_loss_graph, mdn_nll, mse)
from sepsim.nn.tensor import Tensor


def brute_force_nll(weights, means, stds, target):
    """Mixture density summed the slow way, no log-space tricks."""
    total = 0.0
    for k in range(len(weights)):
        dens = 1.0
        for j in range(means.shape[1]):
            z = (target[j] - means[k, j]) / stds[k, j]
            dens *= math.exp(-0.5 * z * z) / (stds[k, j] * math.sqrt(2 * math.pi))
        total += weights[k] * dens
    return -math.log(total)


def random_mixture(rng, k=3, d=2):
    w = rng.dirichlet(np.ones(k))
    mu = rng.normal(size=(k, d))
    sigma = rng.uniform(0.3, 2.0, size=(k, d))
    return MixtureParams(w, mu, sigma)


def test_mdn_nll_matches_brute_force(rng):
    for _ in range(100):
        params = random_mixture(rng)
        target = rng.normal(size=2)
        want = brute_force_nll(params.weights, params.means, params.stds, target)
        assert abs(mdn_nll(params, target) - want) < 1e-9


def test_single_gaussian_closed_form():
    params = MixtureParams(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1)))
    # standard normal at 0: nll = 0.5 * ln(2*pi)
    assert abs(mdn_nll(params, np.zeros(1)) - 0.5 * math.log(2 * math.pi)) < 1e-12


def test_duplicated_components_equal_single(rng):
    mu = rng.normal(size=(1, 3))
    sigma = rng.uniform(0.5, 1.5, size=(1, 3))
    single = MixtureParams(np.array([1.0]), mu, sigma)
    doubled = MixtureParams(np.array([0.5, 0.5]), np.vstack([mu, mu]),
                            np.vstack([sigma, sigma]))
    t = rng.normal(size=3)
    assert abs(mdn_nll(single, t) - mdn_nll(doubled, t)) < 1e-12


@given(st.integers(0, 5))
@settings(deadline=None, max_examples=10)
def test_component_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    params = random_mixture(rng, k=4, d=2)
    perm = rng.permutation(4)
    shuffled = MixtureParams(params.weights[perm], params.means[perm],
                             params.stds[perm])
    t = rng.normal(size=2)
    assert abs(mdn_nll(params, t) - mdn_nll(shuffled, t)) < 1e-12


def test_mixture_params_validation(rng):
    with pytest.raises(ValueError):
        MixtureParams(np.array([0.7, 0.7]), np.zeros((2, 1)), np.ones((2, 1)))
    with pytest.raises(ValueError):
        MixtureParams(np.array([1.0]), np.zeros((1, 1)), np.zeros((1, 1)))


@pytest.mark.parametrize("bad_std, message", [
    (np.nan, "strictly positive"),
    (np.inf, "finite"),
])
def test_mixture_params_rejects_non_finite_std(bad_std, message):
    """NaN compares False both ways, so `stds <= 0` alone lets it through;
    an infinite std is no distribution to sample from."""
    stds = np.array([[1.0, 1.0], [bad_std, 1.0]])
    with pytest.raises(ValueError, match=message):
        MixtureParams(np.array([0.5, 0.5]), np.zeros((2, 2)), stds)


def test_mixture_params_rejects_nan_weight():
    with pytest.raises(ValueError, match="simplex"):
        MixtureParams(np.array([np.nan, 1.0]), np.zeros((2, 1)), np.ones((2, 1)))
    with pytest.raises(ValueError, match="simplex"):
        MixtureParams(np.array([np.nan]), np.zeros((1, 1)), np.ones((1, 1)))


def test_mixture_mean_weighted(rng):
    params = random_mixture(rng, k=3, d=2)
    want = (params.weights[:, None] * params.means).sum(axis=0)
    np.testing.assert_allclose(params.mixture_mean(), want, rtol=1e-12)


def test_mdn_loss_graph_matches_nll(rng):
    B, K, d = 6, 3, 2
    logits = rng.normal(size=(B, K))
    means = rng.normal(size=(B, K, d))
    log_stds = rng.normal(size=(B, K, d)) * 0.3
    targets = rng.normal(size=(B, d))
    loss = mdn_loss_graph(Tensor(logits), Tensor(means), Tensor(log_stds),
                          targets)
    per_row = []
    for b in range(B):
        w = np.exp(logits[b] - logits[b].max())
        w = w / w.sum()
        params = MixtureParams(w, means[b], np.exp(log_stds[b]))
        per_row.append(mdn_nll(params, targets[b]))
    assert abs(loss.item() - np.mean(per_row)) < 1e-9


def test_kl_closed_form_zero():
    assert gaussian_kl(Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 3)))).item() == 0.0


def test_kl_unit_mean_example():
    # d=1, mu=1, sigma=1: KL = 0.5
    val = gaussian_kl(Tensor(np.ones((1, 1))), Tensor(np.zeros((1, 1)))).item()
    assert abs(val - 0.5) < 1e-12


def test_kl_manual_formula(rng):
    mu = rng.normal(size=(5, 4))
    log_sigma = rng.normal(size=(5, 4)) * 0.2
    sigma2 = np.exp(2 * log_sigma)
    want = np.mean(0.5 * np.sum(mu ** 2 + sigma2 - 1 - np.log(sigma2), axis=1))
    got = gaussian_kl(Tensor(mu), Tensor(log_sigma)).item()
    assert abs(got - want) < 1e-12


def test_mse_matches_numpy(rng):
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(4, 3))
    assert abs(mse(Tensor(a), b).item() - np.mean((a - b) ** 2)) < 1e-12


def test_bce_matches_naive_in_safe_range(rng):
    logits = rng.normal(size=(8, 1)) * 3
    y = (rng.random(size=(8, 1)) < 0.5).astype(float)
    p = 1 / (1 + np.exp(-logits))
    want = np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p)))
    got = bce_with_logits(Tensor(logits), y).item()
    assert abs(got - want) < 1e-10


def test_bce_stable_at_extreme_logits():
    logits = np.array([[500.0], [-500.0]])
    y = np.array([[1.0], [0.0]])
    val = bce_with_logits(Tensor(logits), y).item()
    assert math.isfinite(val) and val < 1e-12


def test_bce_gradient_sign():
    from sepsim.nn.tensor import Parameter
    p = Parameter(np.array([[2.0]]))
    loss = bce_with_logits(p, np.array([[0.0]]))
    loss.backward()
    assert p.grad[0, 0] > 0  # positive logit, label 0: push down

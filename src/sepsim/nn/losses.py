"""Training losses and the Gaussian-mixture density machinery.

`mdn_nll` is the reference (plain numpy) mixture negative log-likelihood,
which tests use as an oracle; `mdn_loss_graph` builds the identical quantity
inside the autodiff tape from raw network outputs (logits, means, log-stddevs).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, exp, log, log_softmax, logsumexp, logsumexp_np, relu

LOG_2PI = float(np.log(2.0 * np.pi))

WEIGHT_SUM_TOL = 1e-6


@dataclass(frozen=True)
class MixtureParams:
    """Diagonal Gaussian mixture over a d-dimensional target, or a batch of
    them along an optional leading axis.

    One mixture: weights (K,) simplex, means/stds (K, d) with
    0 < stds < inf. A batch of B: weights (B, K) and means/stds (B, K, d),
    row b being one mixture. `mixture_mean` and `dynamics.sample_next` take
    either; `entropy`, `component_log_likelihoods` and `mdn_nll` take one.
    """

    weights: np.ndarray
    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        means = np.asarray(self.means, dtype=np.float64)
        stds = np.asarray(self.stds, dtype=np.float64)
        if weights.ndim == 1:
            # one mixture: a (d,) row is one component's
            means, stds = np.atleast_2d(means), np.atleast_2d(stds)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)
        if weights.ndim not in (1, 2) or weights.shape[-1] < 1:
            raise ValueError("weights must be a non-empty vector, or a batch of them")
        if means.shape != stds.shape or means.shape[:-1] != weights.shape:
            raise ValueError(
                f"inconsistent mixture shapes: weights {self.weights.shape}, "
                f"means {self.means.shape}, stds {self.stds.shape}"
            )
        # min, max and sum propagate NaN, and every comparison with NaN is
        # False, so each test below fails on a NaN entry
        if self.stds.size and not self.stds.min() > 0:
            raise ValueError("mixture stds must be strictly positive")
        if self.stds.size and not self.stds.max() < np.inf:
            raise ValueError("mixture stds must be finite")
        if (not self.weights.min() >= 0
                or not (abs(self.weights.sum(axis=-1) - 1.0) <= WEIGHT_SUM_TOL).all()):
            raise ValueError("mixture weights must be a simplex")

    @classmethod
    def _checked(cls, weights: np.ndarray, means: np.ndarray,
                 stds: np.ndarray) -> "MixtureParams":
        """A mixture of float64 arrays that pass the checks above, which a
        caller has made sure of; they are not run again."""
        params = object.__new__(cls)
        # the fields a frozen dataclass keeps in the instance dict, set
        # there directly, as object.__setattr__ would set them one by one
        params.__dict__.update(weights=weights, means=means, stds=stds)
        return params

    @property
    def dim(self) -> int:
        return self.means.shape[-1]

    def mixture_mean(self) -> np.ndarray:
        """(d,), or (B, d) for a batch: a stacked (B, 1, K) @ (B, K, d)
        product, each row of which is that row's (K,) @ (K, d) product."""
        return (self.weights[..., None, :] @ self.means)[..., 0, :]

    def entropy(self) -> float:
        """Entropy of the component-choice distribution of one mixture."""
        if self.weights.ndim != 1:
            raise ValueError("entropy takes one mixture, not a batch")
        w = self.weights[self.weights > 0]
        return float(-np.add.reduce(w * np.log(w)))


def component_log_likelihoods(params: MixtureParams, target: np.ndarray) -> np.ndarray:
    """Per-component log N(target; mean_k, diag std_k^2), shape (K,)."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (params.dim,):
        raise ValueError(f"target shape {target.shape} does not match mixture dim {params.dim}")
    z = (target[None, :] - params.means) / params.stds
    return (-0.5 * z * z - np.log(params.stds) - 0.5 * LOG_2PI).sum(axis=1)


def mdn_nll(params: MixtureParams, target: np.ndarray) -> float:
    """Mixture negative log-likelihood, log-sum-exp stabilized."""
    comp = component_log_likelihoods(params, target)
    with np.errstate(divide="ignore"):
        log_w = np.log(params.weights)
    return float(-logsumexp_np(log_w + comp))


# ---- graph losses -----------------------------------------------------------


def mse(pred: Tensor, target: np.ndarray) -> Tensor:
    diff = pred - np.asarray(target, dtype=np.float64)
    return (diff * diff).mean()


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy from logits, stable for large |logit|.

    Uses max(x, 0) - x*y + log(1 + exp(-|x|)); the exp argument is <= 0 so it
    never overflows.
    """
    y = np.asarray(targets, dtype=np.float64)
    abs_x = relu(logits) + relu(-logits)
    return (relu(logits) - logits * y + log(exp(-abs_x) + 1.0)).mean()


def gaussian_kl(mu: Tensor, log_sigma: Tensor) -> Tensor:
    """KL(N(mu, sigma^2) || N(0, I)), summed over dims, mean over batch."""
    sigma_sq = exp(log_sigma * 2.0)
    per_dim = (mu * mu + sigma_sq - 1.0 - log_sigma * 2.0) * 0.5
    return per_dim.sum(axis=1).mean()


def mdn_loss_graph(logits: Tensor, means: Tensor, log_stds: Tensor,
                   targets: np.ndarray) -> Tensor:
    """Mean mixture NLL from raw head outputs.

    logits: (B, K); means, log_stds: (B, K, d); targets: (B, d).
    """
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim != 2:
        raise ValueError(f"targets must be (batch, dim), got {t.shape}")
    z = (Tensor(t[:, None, :]) - means) * exp(-log_stds)
    comp = (z * z * (-0.5) - log_stds - 0.5 * LOG_2PI).sum(axis=2)
    log_mix = log_softmax(logits, axis=1) + comp
    return -logsumexp(log_mix, axis=1).mean()

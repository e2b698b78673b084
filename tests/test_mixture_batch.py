"""A batch of mixtures equals its rows, bit for bit.

`StateModel` builds a whole batch's mixtures in one pass, `sample_next`
draws for a batch row by row, and the teacher-forced sweep keeps its
mixtures one batch. Each is compared with a per-row reference written here
from the per-row algorithm: scipy's logsumexp for the weights, each row's
own (K,) @ (K, d) mixture mean, and each row's draw made by
Generator.choice, from a generator seeded alike.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from sepsim.data import (Cohort, Outcome, PatientEpisode, N_FEATURES,
                         default_feature_names)
from sepsim.dynamics import (StateModel, StateModelConfig,
                             build_training_sequences, sample_next)
from sepsim.evaluation import teacher_forced_eval
from sepsim.nn.losses import MixtureParams
from sepsim.nn.tensor import no_grad

# ties at the max, a weight that is exactly 0 (-800 against the rest) and
# stds near both ends of float64's range, beside ordinary values
_LOGITS = np.array([0.0, 1.0, -1.0, 5.0, 5.0, -800.0, 30.0])
_LOG_STDS = np.array([-740.0, -700.0, 0.0, 700.0, 709.0])


def _model(k: int, d: int) -> StateModel:
    return StateModel(StateModelConfig(variant="mdn_rnn", window=2,
                                       rnn_hidden=4, n_mixtures=k, state_dim=d),
                      rng=np.random.default_rng(0))


@st.composite
def _head_rows(draw):
    """(K, d, (B, K + 2Kd) head rows) for B 1-40, K 1-6, d 1-8."""
    b, k, d = draw(st.integers(1, 40)), draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tie_share, extreme_share = draw(st.sampled_from([0.0, 0.5, 1.0])), draw(
        st.sampled_from([0.0, 0.1, 0.5]))
    logits = np.where(rng.random((b, k)) < tie_share,
                      rng.choice(_LOGITS, size=(b, k)), rng.normal(0.0, 3.0, (b, k)))
    means = rng.normal(0.0, 10.0, (b, k * d))
    log_stds = np.where(rng.random((b, k * d)) < extreme_share,
                        rng.choice(_LOG_STDS, size=(b, k * d)),
                        rng.normal(0.0, 1.0, (b, k * d)))
    return k, d, np.hstack([logits, means, log_stds])


def _reference_row(row: np.ndarray, k: int, d: int):
    """(weights, means, stds) of one head row, as the per-row head made them."""
    logits = row[:k]
    weights = np.exp(logits - scipy_logsumexp(logits))
    return (weights, row[k:k + k * d].reshape(k, d),
            np.exp(row[k + k * d:].reshape(k, d)))


def _reference_draw(weights, means, stds, temperature, rng):
    """One row's draw: the component by Generator.choice, then the noise."""
    with np.errstate(divide="ignore"):
        scaled = np.log(weights) / temperature
    probs = np.exp(scaled - scipy_logsumexp(scaled))
    component = int(rng.choice(weights.size, p=probs / probs.sum()))
    noise = rng.normal(size=means.shape[1])
    return means[component] + stds[component] * math.sqrt(temperature) * noise


@settings(max_examples=150, deadline=None)
@given(_head_rows())
def test_batch_mixtures_equal_their_rows(case):
    k, d, out = case
    model = _model(k, d)
    batch = model._mixtures(out)
    assert batch.weights.shape == (len(out), k)
    assert batch.means.shape == batch.stds.shape == (len(out), k, d)
    mixture_means = batch.mixture_mean()
    for b, row in enumerate(out):
        weights, means, stds = _reference_row(row, k, d)
        assert batch.weights[b].tobytes() == weights.tobytes()
        assert batch.means[b].tobytes() == means.tobytes()
        assert batch.stds[b].tobytes() == stds.tobytes()
        assert mixture_means[b].tobytes() == (weights @ means).tobytes()
        # the env's single row: the same function on a (n,) row
        single = model._mixtures(row)
        for got, want in ((single.weights, weights), (single.means, means),
                          (single.stds, stds)):
            assert got.tobytes() == want.tobytes()
        assert single.mixture_mean().tobytes() == (weights @ means).tobytes()


@settings(max_examples=150, deadline=None)
@given(_head_rows(), st.sampled_from([1.0, 0.5, 2.0, 1e-3]),
       st.integers(0, 2**32 - 1))
def test_batch_draws_equal_one_call_per_row(case, temperature, seed):
    """Row by row in row order: the draws, the values and the generator
    state after equal B single calls and the per-row reference."""
    k, d, out = case
    batch = _model(k, d)._mixtures(out)
    ours, singles, theirs = (np.random.default_rng(seed) for _ in range(3))
    # stds near 1e308 times the noise may overflow, alike on every side
    with np.errstate(over="ignore", invalid="ignore"):
        got = sample_next(batch, temperature, ours)
        one_by_one = np.stack([
            sample_next(MixtureParams._checked(w, m, s), temperature, singles)
            for w, m, s in zip(batch.weights, batch.means, batch.stds)])
        reference = np.stack([_reference_draw(*_reference_row(row, k, d),
                                              temperature, theirs)
                              for row in out])
    assert got.shape == (len(out), d)
    assert got.tobytes() == one_by_one.tobytes() == reference.tobytes()
    assert ours.random() == singles.random() == theirs.random()


def _cohort(seed: int = 0, episodes: int = 6, length: int = 7) -> Cohort:
    rng = np.random.default_rng(seed)
    return Cohort(tuple(PatientEpisode(f"p{i}", rng.normal(size=(length, N_FEATURES)),
                                       rng.integers(0, 25, size=length),
                                       Outcome.RELEASE)
                        for i in range(episodes)), default_feature_names())


def test_teacher_forced_sweep_equals_a_per_row_loop():
    model = StateModel(StateModelConfig(variant="mdn_rnn", window=3, rnn_hidden=8,
                                        n_mixtures=3),
                       rng=np.random.default_rng(1))
    cohort = _cohort()
    report = teacher_forced_eval(model, cohort, sample_rng=np.random.default_rng(5))
    data = build_training_sequences(cohort, window=3)
    with no_grad():
        out = model.forward_graph(*data.windows()).data
    rng = np.random.default_rng(5)
    predictions, sampled = [], []
    for row in out:
        weights, means, stds = _reference_row(row, 3, N_FEATURES)
        predictions.append(weights @ means)
        sampled.append(_reference_draw(weights, means, stds, 1.0, rng))
    assert report.predictions.tobytes() == np.stack(predictions).tobytes()
    assert report.sampled.tobytes() == np.stack(sampled).tobytes()
    # and through predict_batch's per-row views, as its callers use them
    views = model.predict_batch(*data.windows())
    assert report.predictions.tobytes() == np.stack(
        [p.mixture_mean() for p in views]).tobytes()


def test_teacher_forced_sweep_of_a_point_model_takes_its_predict_batch():
    model = StateModel(StateModelConfig(variant="rnn", window=3, rnn_hidden=8),
                       rng=np.random.default_rng(1))
    cohort = _cohort()
    report = teacher_forced_eval(model, cohort, sample_rng=np.random.default_rng(5))
    data = build_training_sequences(cohort, window=3)
    assert report.predictions.tobytes() == model.predict_batch(
        *data.windows()).tobytes()
    assert report.sampled is None


# (head entry, value) that spoil a row, and the message the per-row check
# gives for it
_SPOILS = {
    "std underflow": ("log_std", -800.0,
                      "MDN std underflow: exp(log_std) is 0 in float64 for "
                      "log_std -800; the state model's output is out of range"),
    "NaN log-std": ("log_std", np.nan, "mixture stds must be strictly positive"),
    "std overflow": ("log_std", 800.0, "mixture stds must be finite"),
    "NaN logit": ("logit", np.nan, "mixture weights must be a simplex"),
}


@pytest.mark.parametrize("first", list(_SPOILS))
@pytest.mark.parametrize("later", list(_SPOILS))
def test_the_first_bad_row_raises_its_own_message(first, later):
    """Rows 2 and 4 of 6 are spoilt; row 2's message is raised, as a
    per-row loop would raise it, and a single-row call on it gives the same."""
    k, d = 2, 3
    out = np.random.default_rng(0).normal(size=(6, k + 2 * k * d))
    for row, name in ((2, first), (4, later)):
        where, value, _ = _SPOILS[name]
        out[row, k + k * d if where == "log_std" else 0] = value
    model = _model(k, d)
    message = _SPOILS[first][2]
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError) as batch_error:
            model._mixtures(out)
        with pytest.raises(ValueError) as row_error:
            model._mixtures(out[2])
    assert str(batch_error.value) == str(row_error.value) == message


def test_batch_draw_refuses_the_first_nan_row_with_its_own_message():
    """A batch whose rows 1 and 3 have NaN weights (which MixtureParams
    refuses, so they are built unchecked) raises row 1's message, the one a
    call on row 1 alone raises."""
    weights = np.full((4, 2), 0.5)
    weights[1, 0], weights[3, 1] = np.nan, np.nan
    weights[1, 1] = 0.25
    batch = MixtureParams._checked(weights, np.zeros((4, 2, 1)), np.ones((4, 2, 1)))
    row = MixtureParams._checked(weights[1], np.zeros((2, 1)), np.ones((2, 1)))
    errors = []
    for params in (batch, row):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError) as error:
            sample_next(params, 1.0, np.random.default_rng(0))
        errors.append(str(error.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith("mixture probabilities at temperature 1.0 are "
                                "NaN or negative: [nan")

"""The env's rolling history window against a full window rebuilt per step.

`PatientEnv.step` advances the W unrolls that share each history row as
stacked lanes, in lockstep; these tests hold it to the stateless
definition, `StateModel.predict(HistoryWindow.from_history(...))`, bit for
bit. The whole-env reference reaches the models by other paths than the
env does (the training graphs, scipy's logsumexp, Generator.choice), so a
drift in the env's own inference functions shows too.
"""
import copy

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from sepsim.data import ACTION_COUNT, N_FEATURES, Outcome
from sepsim.dynamics import (VARIANTS, HistoryWindow, RollingWindow,
                             StateModel, StateModelConfig)
from sepsim.env import TERMINATION_MODES, PatientEnv
from sepsim.heads import BinaryHead
from sepsim.nn.tensor import Tensor, no_grad, sigmoid_np
from sepsim.vae import AeModel, LATENT_DIM, VaeModel

WINDOW = 3


def _model(variant: str, seed: int = 0, window: int = WINDOW,
           rnn_hidden: int = 8, n_mixtures: int = 2) -> StateModel:
    config = StateModelConfig(variant=variant, window=window,
                              rnn_hidden=rnn_hidden, n_mixtures=n_mixtures)
    model = StateModel(config, rng=np.random.default_rng(seed))
    # a fresh cell has zero biases, which leave the zero state unchanged
    # through the padding rows; a trained one does not
    model.cell.b.data[:] = np.random.default_rng(seed + 1).normal(
        size=model.cell.b.data.shape)
    return model


def _head(kind: str, logit: float, state_dim: int) -> BinaryHead:
    head = BinaryHead(kind, state_dim=state_dim, rng=np.random.default_rng(1))
    head.net.layers[-1].b.data[:] = logit
    return head


def _env(variant: str, mode: str) -> PatientEnv:
    model = _model(variant)
    d = model.state_dim
    encoder = None
    if variant == "ae_rnn":
        encoder = AeModel(rng=np.random.default_rng(2))
    elif model.config.uses_encoder:
        encoder = VaeModel(rng=np.random.default_rng(2))
    # bernoulli episodes end at random; threshold ones only at max_steps
    term_logit = -2.5 if mode == "bernoulli" else -50.0
    return PatientEnv(model, _head("termination", term_logit, d),
                      _head("outcome", 0.0, d),
                      np.random.default_rng(3).normal(size=(4, N_FEATURES)),
                      encoder=encoder, max_steps=8, termination_mode=mode,
                      seed=5)


def _perturb(model: StateModel) -> None:
    """Change every parameter the padding prefix and the rows depend on."""
    for p in model.parameters():
        p.data += 0.05


def _env_rollout(env, episode_actions, between) -> list:
    steps = []
    for n, actions in enumerate(episode_actions):
        if n:
            between(env.state_model)
        env.reset()
        for action in actions:
            steps.append(env.step(int(action)))
            if steps[-1].done:
                break
    return steps


def _reference_head(head: BinaryHead, state, action: int, step: int) -> float:
    """The head's probability from features built by hand, through the
    training graph's logits."""
    one_hot = np.zeros(ACTION_COUNT)
    one_hot[action] = 1.0
    features = np.concatenate([state, one_hot, [step / head.step_norm]])[None]
    return float(sigmoid_np(head.net(Tensor(features)).data)[0, 0])


def _reference_encode(encoder, observation):
    with no_grad():
        code = encoder.encode_graph(Tensor(observation[None]))
    return (code[0] if isinstance(code, tuple) else code).data[0]


def _reference_decode(encoder, internal):
    with no_grad():
        return encoder.decode_graph(Tensor(internal[None])).data[0]


def _reference_next(model, window, temperature, rng):
    """(next state, mixture entropy or None) from the training graph's raw
    output: scipy's logsumexp for the mixture weights, and the component
    drawn by Generator.choice, whose steps sample_next copies."""
    with no_grad():
        out = model.forward_graph(window.states[None], window.actions[None]).data[0]
    if not model.config.uses_mdn:
        return out, None
    k, d = model.config.n_mixtures, model.state_dim
    logits = out[:k]
    means = out[k:k + k * d].reshape(k, d)
    stds = np.exp(out[k + k * d:].reshape(k, d))
    weights = np.exp(logits - scipy_logsumexp(logits))
    kept = weights[weights > 0]
    entropy = float(-(kept * np.log(kept)).sum())
    with np.errstate(divide="ignore"):
        scaled = np.log(weights) / temperature
    probs = np.exp(scaled - scipy_logsumexp(scaled))
    component = int(rng.choice(k, p=probs / probs.sum()))
    noise = rng.normal(size=d)
    return means[component] + stds[component] * np.sqrt(temperature) * noise, entropy


def _reference_rollout(env, episode_actions, between) -> list:
    """PatientEnv.step as specified, rebuilding the whole window every step,
    drawing from a generator seeded as the env's is, and reaching the models
    by other paths than the env's: the training graphs, scipy's logsumexp
    and Generator.choice."""
    model, rng = env.state_model, np.random.default_rng(env.seed)
    encoder = env.encoder
    magnitude = env.reward_spec.terminal_magnitude
    bernoulli = env.termination_mode == "bernoulli"
    steps = []
    for n, actions in enumerate(episode_actions):
        if n:
            between(model)
        internal = env.initial_pool[int(rng.integers(4))].copy()
        if encoder is not None:
            internal = _reference_encode(encoder, internal)
        states, taken = [], []
        for t, action in enumerate(int(a) for a in actions):
            states.append(internal)
            taken.append(action)
            window = HistoryWindow.from_history(np.stack(states), np.array(taken),
                                                WINDOW)
            nxt, entropy = _reference_next(model, window, env.temperature, rng)
            p_term = _reference_head(env.termination, internal, action, t)
            done = bool(rng.random() < p_term) if bernoulli else bool(p_term >= 0.5)
            hit = t + 1 >= env.max_steps
            done = done or hit
            reward, p_death, outcome = 0.0, None, None
            if done:
                p_death = _reference_head(env.outcome, internal, action, t)
                died = bool(rng.random() < p_death) if bernoulli else bool(p_death >= 0.5)
                outcome = int(Outcome.DEATH if died else Outcome.RELEASE)
                reward += -magnitude if died else magnitude
            internal = nxt
            obs = nxt if encoder is None else _reference_decode(encoder, nxt)
            steps.append((obs, reward, done, {
                "p_terminate": p_term, "p_death": p_death,
                "outcome": outcome, "mixture_entropy": entropy,
                "step": t + 1, "hit_max_steps": hit}))
            if done:
                break
    return steps


@pytest.mark.parametrize("mode", TERMINATION_MODES)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("perturb", [False, True], ids=["fixed", "retrained"])
def test_env_rollout_equals_full_window_reference(variant, mode, perturb):
    episode_actions = np.random.default_rng(11).integers(0, 25, size=(4, 8))
    between = _perturb if perturb else (lambda model: None)
    got = _env_rollout(_env(variant, mode), episode_actions, between)
    want = _reference_rollout(_env(variant, mode), episode_actions, between)
    assert max(r.info["step"] for r in got) > WINDOW
    assert sum(r.done for r in got) == len(episode_actions)
    assert len(got) == len(want)
    for result, (obs, reward, done, info) in zip(got, want):
        assert np.array_equal(result.observation, obs)
        assert result.reward == reward
        assert result.done == done
        assert result.info == info


@pytest.mark.parametrize("variant", VARIANTS)
def test_rolling_window_predicts_as_state_model(variant):
    model = _model(variant, seed=4)
    d = model.state_dim
    rng = np.random.default_rng(6)
    states = rng.normal(size=(7, d))
    actions = rng.integers(0, 25, size=7)
    rolling = RollingWindow(model)
    for t in range(7):
        rolling.push(states[t], int(actions[t]))
        want = model.predict(HistoryWindow.from_history(
            states[:t + 1], actions[:t + 1], WINDOW))
        _assert_same_prediction(rolling.predict(), want)


def _assert_same_prediction(got, want) -> None:
    """Byte equality of two point estimates or two MixtureParams."""
    names = ("weights", "means", "stds")
    if hasattr(want, "weights"):
        got = [getattr(got, name) for name in names]
        want = [getattr(want, name) for name in names]
    else:
        got, want = [got], [want]
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


# the env's shapes: a 10-step window, 64 hidden units, 5 mixture components
REAL_WINDOW = 10


@pytest.mark.parametrize("window, length", [
    (REAL_WINDOW, 1), (REAL_WINDOW, REAL_WINDOW - 1), (REAL_WINDOW, REAL_WINDOW),
    (REAL_WINDOW, 2 * REAL_WINDOW + 3), (1, 5)])
@pytest.mark.parametrize("variant", VARIANTS)
def test_rolling_window_at_real_shapes(variant, window, length):
    """Every prediction of an episode, as each lane completes its window
    and restarts, equals the full window rebuilt and unrolled."""
    model = _model(variant, seed=7, window=window, rnn_hidden=64, n_mixtures=5)
    rng = np.random.default_rng(8)
    states = rng.normal(size=(length, model.state_dim))
    actions = rng.integers(0, 25, size=length)
    rolling = RollingWindow(model)
    for t in range(length):
        rolling.push(states[t], int(actions[t]))
        _assert_same_prediction(rolling.predict(), model.predict(
            HistoryWindow.from_history(states[:t + 1], actions[:t + 1], window)))


@pytest.mark.parametrize("variant", ["rnn", "vae_mdn_rnn"])
def test_rolling_window_prediction_survives_next_push(variant):
    """A prediction, and the row it comes from, are copies: the lane it was
    read from is zeroed and advanced by the next push."""
    model = _model(variant, seed=9, window=REAL_WINDOW, rnn_hidden=64,
                   n_mixtures=5)
    rng = np.random.default_rng(10)
    rolling = RollingWindow(model)
    for t in range(2 * REAL_WINDOW + 3):
        rolling.push(rng.normal(size=model.state_dim), int(rng.integers(25)))
        got = rolling.predict()
        kept = copy.deepcopy(got)
        _assert_same_prediction(rolling.predict(), kept)
        rolling.push(rng.normal(size=model.state_dim), int(rng.integers(25)))
        _assert_same_prediction(got, kept)


@pytest.mark.parametrize("change", [None, "Wh", "b"])
def test_rolling_window_reset_starts_a_new_episode(change):
    """After reset, predictions are those of the new history alone, with
    the padding states rebuilt when a parameter they depend on changed in
    place, and kept otherwise."""
    model = _model("vae_mdn_rnn", seed=12, window=REAL_WINDOW, rnn_hidden=64,
                   n_mixtures=5)
    rng = np.random.default_rng(13)
    rolling = RollingWindow(model)
    for _ in range(REAL_WINDOW + 4):
        rolling.push(rng.normal(size=model.state_dim), int(rng.integers(25)))
    if change is not None:
        getattr(model.cell, change).data[:] += 0.05
    rolling.reset()
    with pytest.raises(ValueError, match="at least one step"):
        rolling.predict()
    states = rng.normal(size=(REAL_WINDOW + 2, model.state_dim))
    actions = rng.integers(0, 25, size=REAL_WINDOW + 2)
    for t in range(len(states)):
        rolling.push(states[t], int(actions[t]))
        _assert_same_prediction(rolling.predict(), model.predict(
            HistoryWindow.from_history(states[:t + 1], actions[:t + 1],
                                       REAL_WINDOW)))


def test_rolling_window_checks_its_rows():
    rolling = RollingWindow(_model("vae_rnn"))
    with pytest.raises(ValueError, match="at least one step"):
        rolling.predict()
    real = RollingWindow(_model("mdn_rnn", window=REAL_WINDOW, rnn_hidden=64,
                                n_mixtures=5))
    with pytest.raises(ValueError, match="^history must contain at least one step$"):
        real.predict()
    with pytest.raises(ValueError, match=f"must have {LATENT_DIM} entries"):
        rolling.push(np.zeros(N_FEATURES), 0)
    with pytest.raises(ValueError, match="out of range"):
        rolling.push(np.zeros(LATENT_DIM), 25)

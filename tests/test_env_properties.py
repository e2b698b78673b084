"""Hypothesis property tests for PatientEnv's invariants on toy models."""
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sepsim.data import N_FEATURES, NormalizationStats, Outcome, action_intensity
from sepsim.dynamics import VARIANTS, StateModel, StateModelConfig
from sepsim.env import (REWARD_FORMULATIONS, TERMINATION_MODES, PatientEnv,
                        RewardSpec, rollout, shaped_reward)
from sepsim.heads import BinaryHead
from sepsim.vae import AeModel, VaeModel

STATS = NormalizationStats(np.linspace(-1.0, 1.0, N_FEATURES),
                           np.linspace(0.5, 2.0, N_FEATURES))


@lru_cache(maxsize=None)
def _models(variant: str):
    config = StateModelConfig(variant=variant, window=3, rnn_hidden=8,
                              n_mixtures=2)
    model = StateModel(config, rng=np.random.default_rng(0))
    encoder = None
    if variant == "ae_rnn":
        encoder = AeModel(rng=np.random.default_rng(1))
    elif config.uses_encoder:
        encoder = VaeModel(rng=np.random.default_rng(1))
    return model, encoder


def _env(variant, formulation, mode, max_steps, head_seed, seed):
    model, encoder = _models(variant)
    d = model.state_dim
    spec = RewardSpec(formulation, sofa_index=3, lactate_index=7) \
        if formulation == "sofa_lactate_shaped" else RewardSpec(formulation)
    heads = [BinaryHead(kind, d, rng=np.random.default_rng(head_seed + i))
             for i, kind in enumerate(("termination", "outcome"))]
    return PatientEnv(model, *heads,
                      np.random.default_rng(2).normal(size=(3, N_FEATURES)),
                      reward_spec=spec, encoder=encoder, stats=STATS,
                      max_steps=max_steps, termination_mode=mode, seed=seed)


def _episode(env, actions):
    """(reset observation, step results) up to done or the last action."""
    first = env.reset()
    steps = []
    for action in actions:
        steps.append(env.step(action))
        if steps[-1].done:
            break
    return first, steps


cases = given(variant=st.sampled_from(VARIANTS),
              formulation=st.sampled_from(REWARD_FORMULATIONS),
              mode=st.sampled_from(TERMINATION_MODES),
              max_steps=st.integers(1, 7),
              head_seed=st.integers(0, 2**16), seed=st.integers(0, 2**16),
              actions=st.lists(st.integers(0, 24), min_size=7, max_size=7))


@cases
@settings(deadline=None, max_examples=40)
def test_episode_invariants(variant, formulation, mode, max_steps, head_seed,
                            seed, actions):
    env = _env(variant, formulation, mode, max_steps, head_seed, seed)
    prev, steps = _episode(env, actions)
    # done arrives by max_steps; only the cap sets hit_max_steps
    assert steps[-1].done and len(steps) <= max_steps
    assert all(not r.done for r in steps[:-1])
    for t, (action, result) in enumerate(zip(actions, steps), start=1):
        assert result.observation.shape == (N_FEATURES,)
        assert np.all(np.isfinite(result.observation))
        assert result.info["step"] == t
        assert result.info["hit_max_steps"] == (t == max_steps)
        # reward = terminal +/-magnitude, then the formulation's step term;
        # the terminal step shapes nothing
        expected = 0.0
        if result.done:
            died = result.info["outcome"] == int(Outcome.DEATH)
            magnitude = env.reward_spec.terminal_magnitude
            expected += -magnitude if died else magnitude
        else:
            assert result.info["outcome"] is None
        if formulation == "terminal_minus_intensity":
            expected -= action_intensity(action)
        elif formulation == "sofa_lactate_shaped" and not result.done:
            expected += shaped_reward(STATS.denormalize(prev),
                                      STATS.denormalize(result.observation),
                                      env.reward_spec)
        assert result.reward == expected
        prev = result.observation
    with pytest.raises(RuntimeError):
        env.step(actions[0])


@cases
@settings(deadline=None, max_examples=20)
def test_same_seed_and_actions_repeat(variant, formulation, mode, max_steps,
                                      head_seed, seed, actions):
    runs = [_episode(_env(variant, formulation, mode, max_steps, head_seed,
                          seed), actions) for _ in range(2)]
    (first_a, steps_a), (first_b, steps_b) = runs
    assert np.array_equal(first_a, first_b)
    assert len(steps_a) == len(steps_b)
    for a, b in zip(steps_a, steps_b):
        assert np.array_equal(a.observation, b.observation)
        assert (a.reward, a.done, a.info) == (b.reward, b.done, b.info)


@cases
@settings(deadline=None, max_examples=40)
def test_rollout_equals_hand_stepping(variant, formulation, mode, max_steps,
                                      head_seed, seed, actions):
    # 0-7 recorded actions: some run out before the env ends the episode
    fed = actions[:seed % 8]
    first, steps = _episode(_env(variant, formulation, mode, max_steps,
                                 head_seed, seed), fed)
    seen = []

    def policy(obs, t):
        seen.append(obs.tobytes())
        return fed[t] if t < len(fed) else None

    traj = rollout(_env(variant, formulation, mode, max_steps, head_seed, seed),
                   policy)
    # action t is chosen in the reset observation, then in each step's
    expected = [first.tobytes()] + [r.observation.tobytes() for r in steps]
    assert seen == expected[:len(seen)]
    assert traj.initial.tobytes() == first.tobytes()
    assert traj.actions.tolist() == fed[:len(steps)]
    assert traj.observations.shape == (len(steps), N_FEATURES)
    assert traj.observations.tobytes() == b"".join(
        r.observation.tobytes() for r in steps)
    assert traj.rewards.tobytes() == np.array(
        [r.reward for r in steps], dtype=np.float64).tobytes()
    assert traj.dones.tolist() == [r.done for r in steps]
    assert traj.infos == tuple(r.info for r in steps)

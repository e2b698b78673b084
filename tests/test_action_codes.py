"""One action-code rule: every consumer of a dose code checks it through
`data.action_codes`, so each refuses the same bad codes with a ValueError and
takes the same integral codes as the int 3."""
import pickle

import numpy as np
import pytest

from sepsim.agent import ReplayBuffer
from sepsim.data import (N_FEATURES, Outcome, PatientEpisode, SyntheticDynamicsSpec,
                         action_codes, action_intensity, decode_action,
                         generate_synthetic_cohort)
from sepsim.dynamics import (HistoryWindow, RollingWindow, StateModel,
                             StateModelConfig, build_training_sequences,
                             one_hot_actions)
from sepsim.env import PatientEnv, RewardSpec
from sepsim.heads import BinaryHead

BAD_CODES = [3.7, float("nan"), float("inf"), -1, 25, "3"]
GOOD_CODES = [3, np.int64(3), 3.0, np.float64(3.0)]

_MODEL = StateModel(StateModelConfig(variant="mdn_rnn", window=3, rnn_hidden=8,
                                     n_mixtures=2, state_dim=4),
                    rng=np.random.default_rng(0))
_HEAD = BinaryHead("termination", state_dim=4, rng=np.random.default_rng(1))
_STATE = np.linspace(-1.0, 2.0, 4)
_SPEC = SyntheticDynamicsSpec.default(seed=3, max_len=3)


def _env_step(code):
    point = StateModel(StateModelConfig(variant="rnn", window=3, rnn_hidden=8),
                       rng=np.random.default_rng(0))
    env = PatientEnv(point, BinaryHead("termination", N_FEATURES),
                     BinaryHead("outcome", N_FEATURES), np.zeros((1, N_FEATURES)),
                     reward_spec=RewardSpec("terminal_minus_intensity"), seed=0)
    env.reset()
    return env.step(code)


def _rolling_push(code):
    rolling = RollingWindow(_MODEL)
    rolling.push(_STATE, code)
    return rolling.predict()


def _buffer_push(code):
    buffer = ReplayBuffer(2, obs_dim=4)
    buffer.push(_STATE, code, 1.0, _STATE, False)
    return buffer.sample(1, np.random.default_rng(0))


CONSUMERS = {
    "action_codes": action_codes,
    "decode_action": decode_action,
    "action_intensity": action_intensity,
    "RewardSpec.step_reward": RewardSpec("terminal_minus_intensity").step_reward,
    "PatientEnv.step": _env_step,
    "PatientEpisode": lambda code: PatientEpisode(
        "x", np.zeros((2, N_FEATURES)), [0, code], Outcome.RELEASE),
    "one_hot_actions": lambda code: one_hot_actions([0, code]),
    "HistoryWindow.from_history": lambda code: HistoryWindow.from_history(
        np.ones((2, 4)), [0, code], 3),
    "build_training_sequences": lambda code: build_training_sequences(
        [(np.ones((3, 4)), [code, 0, 1])], 2),
    "RollingWindow.push": _rolling_push,
    "BinaryHead.predict_proba": lambda code: _HEAD.predict_proba(_STATE, code, 2),
    "BinaryHead.predict_proba_batch": lambda code: _HEAD.predict_proba_batch(
        _STATE[None], [code], [2]),
    "ReplayBuffer.push": _buffer_push,
    "generate_synthetic_cohort": lambda code: generate_synthetic_cohort(
        _SPEC, 2, policy=lambda rng, latent, t: code),
}


@pytest.mark.parametrize("code", BAD_CODES, ids=repr)
@pytest.mark.parametrize("consumer", CONSUMERS)
def test_every_consumer_refuses_a_bad_code(consumer, code):
    with pytest.raises(ValueError):
        CONSUMERS[consumer](code)


@pytest.mark.parametrize("code", GOOD_CODES[1:], ids=repr)
@pytest.mark.parametrize("consumer", CONSUMERS)
def test_every_consumer_takes_an_integral_code_as_the_int(consumer, code):
    want = pickle.dumps(CONSUMERS[consumer](GOOD_CODES[0]))
    assert pickle.dumps(CONSUMERS[consumer](code)) == want


@pytest.mark.parametrize("codes, message", [
    ([0, 3.5, 2, np.nan], "non-integer action codes in episode 'x': [3.5, nan]"),
    (["3"], "non-integer action codes in episode 'x': ['3']"),
    ([1e300, 4, -2], "action codes out of range in episode 'x': [1e+300, -2.0]"),
    (2**70, "action codes out of range in episode 'x': [1180591620717411303424]"),
    (np.uint64(2**64 - 1), "action codes out of range in episode 'x': "
                           "[18446744073709551615]")])
def test_action_codes_names_every_bad_code(codes, message):
    with pytest.raises(ValueError) as refused:
        action_codes(codes, " in episode 'x'")
    assert str(refused.value) == message


@pytest.mark.parametrize("codes", [[True, 24], np.array([1.0, 24.0]),
                                   np.array([1, 24], dtype=np.uint8)])
def test_action_codes_gives_int64_for_an_array(codes):
    out = action_codes(codes)
    assert out.dtype == np.int64 and out.tolist() == [int(c) for c in codes]

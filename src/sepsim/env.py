"""Step/reset patient simulation environment.

Composes a trained state model, termination and outcome heads, an optional
encoder/decoder pair, a reward formulation, and a sampling temperature into a
gym-style environment: reset() -> observation, step(action) ->
(observation, reward, done, info). rollout(env, policy) runs one whole
episode; every simulated episode except those of DQN training goes through it.

Internals run in the state model's representation (latent for encoder
variants, raw features otherwise); observations are always decoded back to
the 46 clinical features.

Each step adds one (state, action) row to the episode's history window.
The env keeps one RollingWindow, restarted by reset(). It projects the row
once and advances the window's W overlapping unrolls as stacked lanes, in
lockstep, with one LSTM recurrence per step. The prediction itself stays
stateless, each window unrolled from the zero state, so a step returns bit
for bit what StateModel.predict returns for the same history.

A step runs each model on one row and checks each input once, where it
enters: the action in step() (data.action_codes; the window and the heads
take its int fast path again), the state row in RollingWindow.push, the
mixture in StateModel._mixtures, the temperature and the component
probabilities in sample_next (both the batch code, on a mixture with no
batch axis), the (state, action, step) row in BinaryHead.predict_proba and
the latent in the decoder. Each check raises what the batch call raises for
the same input. Inside a model nothing is checked again: each layer's
output has the next layer's input width.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .data import (
    ACTION_COUNT,
    N_FEATURES,
    NormalizationStats,
    Outcome,
    PatientEpisode,
    action_codes,
    action_intensity,
)
from .dynamics import (RollingWindow, StateModel, StateModelConfig,
                       check_temperature, sample_next)
from .heads import BinaryHead

REWARD_FORMULATIONS = ("terminal_only", "terminal_minus_intensity",
                       "sofa_lactate_shaped")

TERMINATION_MODES = ("bernoulli", "threshold")

DEFAULT_MAX_STEPS = 50


@dataclass(frozen=True)
class RewardSpec:
    """Reward formulation and its constants.

    terminal_only: +/-magnitude (default 15) at episode end, 0 otherwise.
    terminal_minus_intensity: -(iv_bin + vaso_bin) each step, +/-magnitude
        (default 1000) added at episode end.
    sofa_lactate_shaped: per-step shaping from SOFA and lactate deltas plus
        the +/-magnitude (default 15) terminal reward; deltas are computed on
        de-normalized (clinical-scale) values.
    """

    formulation: str = "terminal_only"
    terminal_magnitude: float | None = None
    c0: float = -0.025
    c1: float = -0.125
    c2: float = -2.0
    sofa_index: int | None = None
    lactate_index: int | None = None

    def __post_init__(self):
        if self.formulation not in REWARD_FORMULATIONS:
            raise ValueError(f"formulation must be one of {REWARD_FORMULATIONS}, "
                             f"got {self.formulation!r}")
        if self.terminal_magnitude is None:
            default = 1000.0 if self.formulation == "terminal_minus_intensity" else 15.0
            object.__setattr__(self, "terminal_magnitude", default)
        if not self.terminal_magnitude > 0:
            raise ValueError("terminal_magnitude must be positive")
        if self.formulation == "sofa_lactate_shaped":
            for name, idx in (("sofa_index", self.sofa_index),
                              ("lactate_index", self.lactate_index)):
                if idx is None or not 0 <= idx < N_FEATURES:
                    raise ValueError(f"{name} must be a feature index in "
                                     f"[0, {N_FEATURES - 1}], got {idx}")

    def step_reward(self, action, outcome: Outcome | None = None, prev=None,
                    next_state=None, stats: NormalizationStats | None = None) -> float:
        """Reward of one step, or of a run of one episode's steps: +/-magnitude
        when `outcome` is given (minus for death), then minus the intensity of
        `action` (a run's whole-number intensities summed first, exactly), or
        the shaped reward of each `prev` -> `next_state` row in order,
        de-normalized by `stats` when given and skipped without `next_state`."""
        reward = 0.0
        if outcome is not None:
            reward += self.terminal_magnitude * (-1.0 if outcome == Outcome.DEATH else 1.0)
        if self.formulation == "terminal_minus_intensity":
            reward -= sum(map(action_intensity, np.ravel(action)))
        elif self.formulation == "sofa_lactate_shaped" and next_state is not None:
            if stats is not None:
                prev, next_state = stats.denormalize(prev), stats.denormalize(next_state)
            for before, after in zip(np.atleast_2d(prev), np.atleast_2d(next_state)):
                reward += shaped_reward(before, after, self)
        return reward


def shaped_reward(prev_state: np.ndarray, next_state: np.ndarray,
                  spec: RewardSpec) -> float:
    """SOFA/lactate shaping on clinical-scale state vectors:

    r = c0 * 1[sofa unchanged and > 0] + c1 * (sofa delta) + c2 * tanh(lactate delta)
    """
    if spec.formulation != "sofa_lactate_shaped":
        raise ValueError("shaped_reward requires the sofa_lactate_shaped formulation")
    prev_state = np.asarray(prev_state, dtype=np.float64)
    next_state = np.asarray(next_state, dtype=np.float64)
    sofa_prev = prev_state[spec.sofa_index]
    sofa_next = next_state[spec.sofa_index]
    lact_prev = prev_state[spec.lactate_index]
    lact_next = next_state[spec.lactate_index]
    r = 0.0
    if sofa_next == sofa_prev and sofa_next > 0:
        r += spec.c0
    r += spec.c1 * (sofa_next - sofa_prev)
    r += spec.c2 * np.tanh(lact_next - lact_prev)
    return float(r)


class StepResult(NamedTuple):
    observation: np.ndarray
    reward: float
    done: bool
    info: dict


@dataclass(frozen=True)
class SimConfig:
    """Description of a full simulator: checkpoints + knobs."""

    variant: str
    checkpoints: dict
    temperature: float = 1.0
    reward: RewardSpec = field(default_factory=RewardSpec)
    max_steps: int = DEFAULT_MAX_STEPS
    termination_mode: str = "bernoulli"
    seed: int = 0

    def __post_init__(self):
        # refuses an unknown variant, with the message StateModelConfig gives
        model = StateModelConfig(variant=self.variant)
        missing = {"state", "termination", "outcome"} - set(self.checkpoints)
        if missing:
            raise ValueError(f"variant {self.variant!r} lacks checkpoints {sorted(missing)}")
        model.check_encoder("encoder" in self.checkpoints)


class PatientEnv:
    """Mutable step/reset state machine over frozen models.

    All stochasticity (initial-state choice, mixture sampling, Bernoulli
    termination/outcome draws) flows through one seeded generator, so a fixed
    (seed, config, action sequence) reproduces trajectories bit for bit.
    """

    def __init__(self, state_model: StateModel, termination: BinaryHead,
                 outcome: BinaryHead, initial_pool: np.ndarray,
                 reward_spec: RewardSpec | None = None, encoder=None,
                 stats: NormalizationStats | None = None,
                 temperature: float = 1.0, max_steps: int = DEFAULT_MAX_STEPS,
                 termination_mode: str = "bernoulli", seed: int = 0):
        check_temperature(temperature)
        if not max_steps >= 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        if termination_mode not in TERMINATION_MODES:
            raise ValueError(f"termination_mode must be one of {TERMINATION_MODES}")
        initial_pool = np.atleast_2d(np.asarray(initial_pool, dtype=np.float64))
        if initial_pool.shape[0] < 1 or initial_pool.shape[1] != N_FEATURES:
            raise ValueError(f"initial pool must be (n, {N_FEATURES}) with n >= 1")
        state_model.config.check_encoder(encoder is not None)
        reward_spec = reward_spec or RewardSpec()
        if reward_spec.formulation == "sofa_lactate_shaped" and stats is None:
            raise ValueError("shaped rewards need normalization stats to recover "
                             "clinical-scale values")

        self.state_model = state_model
        self.termination = termination
        self.outcome = outcome
        self.encoder = encoder
        self.initial_pool = initial_pool
        self.reward_spec = reward_spec
        self.stats = stats
        self.temperature = float(temperature)
        self.max_steps = int(max_steps)
        self.termination_mode = termination_mode
        self.seed = int(seed)
        self.action_count = ACTION_COUNT
        self._rng = np.random.default_rng(seed)
        self._done = True
        self._step_count = 0
        self._internal: np.ndarray | None = None
        self._last_obs: np.ndarray | None = None
        self._window = RollingWindow(state_model)

    def fresh(self) -> "PatientEnv":
        """A new env over the same models and settings, in the state a new
        build has: no episode running, generator seeded from `seed`."""
        return PatientEnv(self.state_model, self.termination, self.outcome,
                          self.initial_pool, reward_spec=self.reward_spec,
                          encoder=self.encoder, stats=self.stats,
                          temperature=self.temperature,
                          max_steps=self.max_steps,
                          termination_mode=self.termination_mode,
                          seed=self.seed)

    # representation helpers

    def _to_internal(self, observation: np.ndarray) -> np.ndarray:
        if self.encoder is not None:
            return self.encoder.encode_mean(observation)
        return np.asarray(observation, dtype=np.float64)

    def _to_observation(self, internal: np.ndarray) -> np.ndarray:
        if self.encoder is not None:
            return self.encoder.decode(internal)
        return np.asarray(internal, dtype=np.float64)

    # gym-style interface

    def reset(self, rng: np.random.Generator | None = None,
              initial_state: np.ndarray | None = None) -> np.ndarray:
        """Start a fresh episode from a pool state (or the given state)."""
        if rng is not None:
            self._rng = rng
        if initial_state is None:
            idx = int(self._rng.integers(self.initial_pool.shape[0]))
            obs = self.initial_pool[idx].copy()
        else:
            obs = np.asarray(initial_state, dtype=np.float64).copy()
            if obs.shape != (N_FEATURES,):
                raise ValueError(f"initial state must have {N_FEATURES} entries")
        self._done = False
        self._step_count = 0
        self._internal = self._to_internal(obs)
        self._last_obs = obs
        self._window.reset()
        return obs.copy()

    def step(self, action: int) -> StepResult:
        if self._done:
            raise RuntimeError("step() called on a finished episode; call reset()")
        action = action_codes(action)
        t = self._step_count

        # (1) extend history with the current (state, action) pair
        self._window.push(self._internal, action)

        # (2) next internal state: mixture sample or point prediction
        pred = self._window.predict()
        if self.state_model.config.uses_mdn:
            next_internal = sample_next(pred, self.temperature, self._rng)
            mixture_entropy = pred.entropy()
        else:
            next_internal = pred
            mixture_entropy = None

        # (3) termination queried exactly as trained: (state, action, step)
        p_term = self.termination.predict_proba(self._internal, action, t)
        self._step_count += 1
        hit_cap = self._step_count >= self.max_steps
        done = self._decide(p_term) or hit_cap

        # (4) terminal outcome, then the step's reward; the terminal step
        # shapes nothing, as a recorded episode's last action has no next row
        p_death = outcome = None
        if done:
            p_death = self.outcome.predict_proba(self._internal, action, t)
            outcome = Outcome.DEATH if self._decide(p_death) else Outcome.RELEASE
        next_obs = self._to_observation(next_internal)
        reward = self.reward_spec.step_reward(action, outcome, self._last_obs,
                                              None if done else next_obs, self.stats)

        # (5) advance and emit
        self._internal = next_internal
        self._last_obs = next_obs
        self._done = done
        info = {"p_terminate": float(p_term),
                "p_death": None if p_death is None else float(p_death),
                "outcome": None if outcome is None else int(outcome),
                "mixture_entropy": mixture_entropy,
                "step": self._step_count,
                "hit_max_steps": hit_cap}
        # the ufunc reduction that ndarray.all calls, without its wrapper
        if not np.logical_and.reduce(np.isfinite(next_obs)):
            raise FloatingPointError("environment produced a non-finite observation")
        return StepResult(next_obs.copy(), reward, done, info)

    def _decide(self, p: float) -> bool:
        """A head's yes/no: a Bernoulli draw from the env's generator, or
        `p >= 0.5` under threshold termination."""
        if self.termination_mode == "bernoulli":
            return bool(self._rng.random() < p)
        return bool(p >= 0.5)

    @property
    def done(self) -> bool:
        return self._done


@dataclass(frozen=True)
class ReplayTrajectory:
    """One simulated episode: the reset observation, then one entry per step."""

    initial: np.ndarray        # (46,) observation the first action was taken in
    actions: np.ndarray        # (steps,) int64
    observations: np.ndarray   # (steps, 46) model-generated
    rewards: np.ndarray        # (steps,)
    dones: np.ndarray          # (steps,) bool
    infos: tuple[dict, ...]

    @property
    def n_steps(self) -> int:
        return self.rewards.shape[0]

    @property
    def states(self) -> np.ndarray:
        """(steps+1, 46): the initial observation, then the observations."""
        return np.vstack([self.initial, self.observations])

    @property
    def ret(self) -> float:
        """The episode's return: its rewards summed left to right, step by
        step, as they came, which is how `agent.train_agent` sums them."""
        total = 0.0
        for reward in self.rewards.tolist():
            total += reward
        return total

    def episode(self, subject_id: str) -> PatientEpisode | None:
        """The finished episode as recorded rows: row t is the state action t
        was chosen in, and the observation after the terminal decision is
        not a row. None when the model never ended the episode (no outcome
        exists)."""
        if self.n_steps == 0 or not self.dones[-1]:
            return None
        outcome = Outcome(int(self.infos[-1]["outcome"]))
        return PatientEpisode(subject_id, self.states[:-1], self.actions, outcome)


def rollout(env: PatientEnv, policy: Callable[[np.ndarray, int], int | None],
            initial_state: np.ndarray | None = None) -> ReplayTrajectory:
    """Run one episode: reset, then step with `policy(obs, t)` until done.

    Resets to `initial_state`, or to a pool state drawn from the env's
    generator. `obs` is the observation action t is taken in; a policy that
    returns None ends the episode there, before the env does. The policy is
    called just before each step, so a generator it draws from interleaves
    with the env's draws in step order.
    """
    initial = obs = env.reset(initial_state=initial_state)
    actions, observations, rewards, dones, infos = [], [], [], [], []
    while (action := policy(obs, len(actions))) is not None:
        result = env.step(action)
        actions.append(action)
        observations.append(result.observation)
        rewards.append(result.reward)
        dones.append(result.done)
        infos.append(result.info)
        if result.done:
            break
        obs = result.observation
    obs_arr = np.stack(observations) if observations else np.zeros((0, N_FEATURES))
    return ReplayTrajectory(initial, np.array(actions, dtype=np.int64), obs_arr,
                            np.array(rewards, dtype=np.float64),
                            np.array(dones, dtype=bool), tuple(infos))


def replay_physician(env: PatientEnv, episode: PatientEpisode) -> ReplayTrajectory:
    """Reset to the episode's first state and feed its recorded actions.

    Feeds the first length-1 actions (the final recorded action has no
    successor to compare against); stops early if the model ends the episode.
    Returned observations are model-generated only; the real initial state is
    `initial`, not a row of them.
    """
    fed = episode.actions[:-1].tolist()
    return rollout(env, lambda obs, t: fed[t] if t < len(fed) else None,
                   initial_state=episode.states[0])

"""Simulator environment: rewards, termination, determinism, replay."""
import numpy as np
import pytest

from sepsim.data import N_FEATURES, Outcome, PatientEpisode
from sepsim.dynamics import StateModel, StateModelConfig
from sepsim.env import (PatientEnv, ReplayTrajectory, RewardSpec, SimConfig,
                        replay_physician, shaped_reward)
from sepsim.heads import BinaryHead
from sepsim.vae import LATENT_DIM, VaeModel


def _constant_head(kind: str, logit: float, state_dim: int = N_FEATURES) -> BinaryHead:
    head = BinaryHead(kind, state_dim=state_dim)
    for p in head.parameters():
        p.data[:] = 0.0
    head.net.layers[-1].b.data[:] = logit  # relu(0)=0 upstream, so output == b
    return head


def _point_model(seed: int = 0) -> StateModel:
    config = StateModelConfig(variant="rnn", window=3, rnn_hidden=8)
    return StateModel(config, rng=np.random.default_rng(seed))


def _env(term_logit=-50.0, death_logit=-50.0, reward=None, max_steps=10,
         seed=0, temperature=1.0, termination_mode="bernoulli", stats=None,
         pool=None):
    pool = pool if pool is not None else np.zeros((1, N_FEATURES))
    return PatientEnv(_point_model(), _constant_head("termination", term_logit),
                      _constant_head("outcome", death_logit), pool,
                      reward_spec=reward, stats=stats, temperature=temperature,
                      max_steps=max_steps, termination_mode=termination_mode,
                      seed=seed)


class TestRewardSpec:
    def test_default_magnitudes(self):
        assert RewardSpec().terminal_magnitude == 15.0
        assert RewardSpec("terminal_minus_intensity").terminal_magnitude == 1000.0

    def test_unknown_formulation(self):
        with pytest.raises(ValueError):
            RewardSpec("bonus")

    def test_shaped_needs_indices(self):
        with pytest.raises(ValueError, match="sofa_index"):
            RewardSpec("sofa_lactate_shaped")
        with pytest.raises(ValueError, match="lactate_index"):
            RewardSpec("sofa_lactate_shaped", sofa_index=0, lactate_index=99)

    def test_json_round_trip(self):
        spec = RewardSpec("sofa_lactate_shaped", sofa_index=3, lactate_index=7)
        assert RewardSpec.from_json_dict(spec.to_json_dict()) == spec


class TestShapedReward:
    SPEC = RewardSpec("sofa_lactate_shaped", sofa_index=0, lactate_index=1)

    def _states(self, sofa0, lact0, sofa1, lact1):
        a = np.zeros(N_FEATURES)
        b = np.zeros(N_FEATURES)
        a[0], a[1] = sofa0, lact0
        b[0], b[1] = sofa1, lact1
        return a, b

    def test_all_quiet_is_zero(self):
        a, b = self._states(0.0, 2.0, 0.0, 2.0)
        assert shaped_reward(a, b, self.SPEC) == 0.0

    def test_unchanged_positive_sofa_pays_c0(self):
        a, b = self._states(5.0, 2.0, 5.0, 2.0)
        assert shaped_reward(a, b, self.SPEC) == pytest.approx(-0.025, abs=1e-12)

    def test_sofa_rise_pays_c1(self):
        a, b = self._states(4.0, 2.0, 5.0, 2.0)
        assert shaped_reward(a, b, self.SPEC) == pytest.approx(-0.125, abs=1e-12)

    def test_lactate_rise_pays_tanh_term(self):
        a, b = self._states(4.0, 1.0, 5.0, 2.0)
        expected = -0.125 - 2.0 * np.tanh(1.0)
        assert shaped_reward(a, b, self.SPEC) == pytest.approx(expected, abs=1e-12)

    def test_wrong_formulation_rejected(self):
        a, b = self._states(0, 0, 0, 0)
        with pytest.raises(ValueError):
            shaped_reward(a, b, RewardSpec())


class TestStepping:
    def test_reset_then_step(self):
        env = _env()
        obs = env.reset()
        assert obs.shape == (N_FEATURES,)
        result = env.step(0)
        assert result.observation.shape == (N_FEATURES,)
        assert result.reward == 0.0 and not result.done

    def test_step_before_reset_raises(self):
        with pytest.raises(RuntimeError):
            _env().step(0)

    def test_step_after_done_raises(self):
        env = _env(term_logit=50.0)  # always terminates
        env.reset()
        result = env.step(0)
        assert result.done
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_action_range_checked(self):
        env = _env()
        env.reset()
        with pytest.raises(ValueError):
            env.step(25)

    def test_max_steps_cap_pays_terminal(self):
        env = _env(max_steps=4)
        env.reset()
        rewards = [env.step(0).reward for _ in range(4)]
        assert env.done
        assert rewards[:3] == [0.0, 0.0, 0.0]
        assert abs(rewards[3]) == 15.0  # outcome draw signs it

    def test_hit_max_steps_flag(self):
        env = _env(max_steps=2)
        env.reset()
        env.step(0)
        result = env.step(0)
        assert result.done and result.info["hit_max_steps"]

    def test_terminal_reward_signs(self):
        survive = _env(term_logit=50.0, death_logit=-50.0)
        survive.reset()
        assert survive.step(3).reward == 15.0
        die = _env(term_logit=50.0, death_logit=50.0)
        die.reset()
        assert die.step(3).reward == -15.0

    def test_intensity_penalty(self):
        spec = RewardSpec("terminal_minus_intensity")
        env = _env(reward=spec, max_steps=3)
        env.reset()
        # action 24 decodes to iv=4, vaso=4
        assert env.step(24).reward == -8.0
        assert env.step(0).reward == 0.0
        final = env.step(13).reward  # iv=2, vaso=3 at the capped step
        assert final in (1000.0 - 5.0, -1000.0 - 5.0)

    def test_shaped_reward_uses_denormalized_scale(self):
        stats = __import__("sepsim").data.NormalizationStats(
            mean=np.zeros(N_FEATURES), std=np.full(N_FEATURES, 2.0))
        spec = RewardSpec("sofa_lactate_shaped", sofa_index=0, lactate_index=1)
        pool = np.zeros((1, N_FEATURES))
        pool[0, 0] = 1.5  # denormalizes to sofa 3.0
        env = _env(reward=spec, stats=stats, pool=pool, max_steps=5)
        for p in env.state_model.parameters():
            p.data[:] = 0.0  # forces the successor state to all zeros
        env.reset()
        result = env.step(0)
        # zeroed transition model lands on the all-zero state: sofa 3->0,
        # lactate 0->0, so reward is c1 * (0 - 3) on the clinical scale
        assert result.reward == pytest.approx(-0.125 * -3.0, abs=1e-12)

    def test_shaped_without_stats_rejected(self):
        spec = RewardSpec("sofa_lactate_shaped", sofa_index=0, lactate_index=1)
        with pytest.raises(ValueError, match="stats"):
            _env(reward=spec)


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        pool = np.random.default_rng(1).normal(size=(8, N_FEATURES))
        runs = []
        for _ in range(2):
            env = _env(term_logit=-1.0, seed=7, pool=pool)
            obs = env.reset()
            trace = [obs]
            while not env.done:
                trace.append(env.step(2).observation)
            runs.append(np.vstack(trace))
        np.testing.assert_array_equal(runs[0], runs[1])
        assert runs[0].shape[0] > 1

    def test_different_seeds_diverge(self):
        pool = np.random.default_rng(1).normal(size=(8, N_FEATURES))
        first = _env(seed=0, pool=pool).reset()
        second = _env(seed=123, pool=pool).reset()
        assert not np.array_equal(first, second)

    def test_threshold_mode_is_rng_free_for_termination(self):
        # p_term = sigmoid(-1) < 0.5 never ends; sigmoid(+1) > 0.5 always ends
        env = _env(term_logit=1.0, termination_mode="threshold")
        env.reset()
        assert env.step(0).done
        env = _env(term_logit=-1.0, termination_mode="threshold", max_steps=3)
        env.reset()
        assert not env.step(0).done


class TestMdnTemperature:
    def _mdn_env(self, temperature):
        config = StateModelConfig(variant="mdn_rnn", window=3, rnn_hidden=8,
                                  n_mixtures=3)
        model = StateModel(config, rng=np.random.default_rng(0))
        return PatientEnv(model, _constant_head("termination", -50.0),
                          _constant_head("outcome", -50.0),
                          np.zeros((1, N_FEATURES)), temperature=temperature,
                          max_steps=5, seed=0)

    def test_tiny_temperature_is_nearly_deterministic(self):
        draws = []
        for seed in range(5):
            env = self._mdn_env(1e-8)
            env.reset(rng=np.random.default_rng(seed))
            draws.append(env.step(0).observation)
        spread = np.ptp(np.vstack(draws), axis=0)
        assert float(spread.max()) < 1e-3

    def test_unit_temperature_varies(self):
        draws = []
        for seed in range(5):
            env = self._mdn_env(1.0)
            env.reset(rng=np.random.default_rng(seed))
            draws.append(env.step(0).observation)
        spread = np.ptp(np.vstack(draws), axis=0)
        assert float(spread.max()) > 1e-3

    def test_std_underflow_is_named(self):
        env = self._mdn_env(1.0)
        head, k, d = env.state_model.head, 3, N_FEATURES
        head.b.data[k + k * d:] = -800.0  # exp(-800) is 0 in float64
        env.reset()
        with pytest.raises(ValueError, match="MDN std underflow.*-800"):
            env.step(0)


def test_mdn_rollout_unchanged_under_scipy_logsumexp(monkeypatch):
    """The numpy logsumexp port drives a seeded vae_mdn_rnn rollout exactly
    as scipy's does."""
    from scipy.special import logsumexp as scipy_logsumexp

    import sepsim.dynamics

    def rollout():
        config = StateModelConfig(variant="vae_mdn_rnn", window=4,
                                  rnn_hidden=8, n_mixtures=5)
        env = PatientEnv(
            StateModel(config, rng=np.random.default_rng(3)),
            _constant_head("termination", -50.0, state_dim=LATENT_DIM),
            _constant_head("outcome", -50.0, state_dim=LATENT_DIM),
            np.random.default_rng(4).normal(size=(5, N_FEATURES)),
            encoder=VaeModel(rng=np.random.default_rng(5)), max_steps=30,
            seed=6)
        actions = np.random.default_rng(7).integers(0, 25, size=30)
        env.reset()
        steps = [env.step(int(a)) for a in actions]
        # the entropy reads the mixture weights, so it shows any last-bit
        # difference the sampled observations may not
        return (np.stack([r.observation for r in steps]),
                [r.info["mixture_entropy"] for r in steps])

    ours_obs, ours_entropy = rollout()
    monkeypatch.setattr(sepsim.dynamics, "logsumexp_np", scipy_logsumexp)
    scipy_obs, scipy_entropy = rollout()
    assert np.array_equal(scipy_obs, ours_obs)
    assert scipy_entropy == ours_entropy


class TestSimConfig:
    CKPTS = {"state": "s.json", "termination": "t.json", "outcome": "o.json"}

    def test_latent_variant_needs_encoder(self):
        with pytest.raises(ValueError, match="encoder"):
            SimConfig(variant="vae_rnn", checkpoints=dict(self.CKPTS))

    def test_raw_variant_rejects_encoder(self):
        ckpts = dict(self.CKPTS, encoder="e.json")
        with pytest.raises(ValueError, match="does not take"):
            SimConfig(variant="rnn", checkpoints=ckpts)

    def test_missing_checkpoint_listed(self):
        with pytest.raises(ValueError, match="outcome"):
            SimConfig(variant="rnn", checkpoints={"state": "s", "termination": "t"})

    def test_bad_knobs(self):
        with pytest.raises(ValueError):
            SimConfig(variant="rnn", checkpoints=dict(self.CKPTS), temperature=0.0)
        with pytest.raises(ValueError):
            SimConfig(variant="rnn", checkpoints=dict(self.CKPTS), max_steps=0)

    def test_json_round_trip(self, tmp_path):
        config = SimConfig(variant="rnn", checkpoints=dict(self.CKPTS),
                           temperature=0.7, max_steps=20, seed=4)
        path = tmp_path / "sim.json"
        config.to_json(path)
        assert SimConfig.from_json(path) == config


class TestReplay:
    def _episode(self, length=6):
        rng = np.random.default_rng(3)
        return PatientEpisode("p0", rng.normal(size=(length, N_FEATURES)),
                              rng.integers(0, 25, size=length), Outcome.RELEASE)

    def test_replay_feeds_all_but_last_action(self):
        env = _env(max_steps=50)
        traj = replay_physician(env, self._episode(6))
        assert isinstance(traj, ReplayTrajectory)
        assert traj.n_steps == 5
        assert traj.observations.shape == (5, N_FEATURES)
        assert not traj.dones[:-1].any()

    def test_replay_stops_when_model_terminates(self):
        env = _env(term_logit=50.0)
        traj = replay_physician(env, self._episode(6))
        assert traj.n_steps == 1 and traj.dones[0]
        assert traj.infos[0]["outcome"] is not None

    def test_replay_starts_from_recorded_state(self):
        episode = self._episode(4)
        env = _env()
        env.reset(initial_state=episode.states[0])
        expected = env.step(int(episode.actions[0])).observation
        env2 = _env()
        traj = replay_physician(env2, episode)
        np.testing.assert_array_equal(traj.observations[0], expected)

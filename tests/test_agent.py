"""DQN components: replay buffer, epsilon schedule, TD updates, Q-network."""
import math

import numpy as np
import pytest

from sepsim.agent import (DqnConfig, QNetwork, ReplayBuffer, act,
                          policy_histogram, td_targets, td_update,
                          write_reward_curve)
from sepsim.agent import EpisodeRecord
from sepsim.data import N_FEATURES, NormalizationStats
from sepsim.dynamics import StateModel, StateModelConfig
from sepsim.env import PatientEnv, RewardSpec
from sepsim.heads import BinaryHead
from sepsim.nn.optim import Adam


class TestReplayBuffer:
    def test_grows_then_caps(self):
        buf = ReplayBuffer(capacity=3, obs_dim=2)
        for i in range(5):
            buf.push(np.full(2, float(i)), i % 25, float(i),
                     np.full(2, float(i + 1)), False)
        assert len(buf) == 3

    def test_eviction_is_fifo(self):
        buf = ReplayBuffer(capacity=2, obs_dim=1)
        for i in range(3):
            buf.push(np.array([float(i)]), 0, float(i), np.array([0.0]), False)
        batch = buf.sample(2, np.random.default_rng(0))
        # entry 0 was overwritten by entry 2
        assert set(batch["rewards"].tolist()) == {1.0, 2.0}

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(capacity=10, obs_dim=1)
        for i in range(10):
            buf.push(np.array([float(i)]), 0, float(i), np.array([0.0]), False)
        batch = buf.sample(10, np.random.default_rng(1))
        assert sorted(batch["rewards"].tolist()) == [float(i) for i in range(10)]

    def test_sample_bigger_than_buffer_rejected(self):
        buf = ReplayBuffer(capacity=10, obs_dim=1)
        buf.push(np.zeros(1), 0, 0.0, np.zeros(1), True)
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))

    def test_batch_field_shapes(self):
        buf = ReplayBuffer(capacity=8, obs_dim=3)
        for i in range(6):
            buf.push(np.zeros(3), i, 1.0, np.ones(3), i == 5)
        batch = buf.sample(4, np.random.default_rng(0))
        assert batch["states"].shape == (4, 3)
        assert batch["next_states"].shape == (4, 3)
        assert batch["actions"].dtype.kind == "i"
        assert batch["dones"].dtype == np.float64


class TestEpsilonSchedule:
    def test_linear_interpolation(self):
        config = DqnConfig(epsilon_start=1.0, epsilon_end=0.1,
                           epsilon_decay_steps=100)
        assert config.epsilon_at(0) == 1.0
        assert config.epsilon_at(50) == pytest.approx(0.55)
        assert config.epsilon_at(100) == pytest.approx(0.1)
        assert config.epsilon_at(10_000) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            DqnConfig(gamma=1.5)
        with pytest.raises(ValueError):
            DqnConfig(epsilon_start=0.1, epsilon_end=0.5)
        with pytest.raises(ValueError):
            DqnConfig(batch_size=100, buffer_capacity=50)

    @pytest.mark.parametrize("key, value", [("batch_size", 0), ("batch_size", -1),
                                            ("learning_rate", 0.0),
                                            ("learning_rate", -1e-3),
                                            ("learning_rate", float("nan"))])
    def test_refuses_empty_batches_and_non_positive_learning_rates(self, key,
                                                                    value):
        with pytest.raises(ValueError, match=key):
            DqnConfig(**{key: value})


class TestActionSelection:
    def test_greedy_takes_argmax(self, rng):
        net = QNetwork(obs_dim=3, n_actions=4, rng=np.random.default_rng(0))
        obs = rng.normal(size=3)
        expected = int(np.argmax(net.q_values(obs)))
        assert act(net, obs, epsilon=0.0, rng=rng) == expected

    def test_tie_breaks_to_lowest_index(self):
        net = QNetwork(obs_dim=3, n_actions=4, rng=np.random.default_rng(0))
        for p in net.parameters():
            p.data[:] = 0.0  # all Q identical
        assert act(net, np.ones(3), epsilon=0.0,
                   rng=np.random.default_rng(9)) == 0

    def test_full_exploration_is_uniformish(self, rng):
        net = QNetwork(obs_dim=2, n_actions=5, rng=np.random.default_rng(0))
        picks = [act(net, np.zeros(2), epsilon=1.0, rng=rng)
                 for _ in range(500)]
        assert set(picks) == set(range(5))

    def test_epsilon_out_of_range(self, rng):
        net = QNetwork(obs_dim=2, n_actions=5)
        with pytest.raises(ValueError):
            act(net, np.zeros(2), epsilon=1.5, rng=rng)


class TestTdMath:
    def _constant_net(self, value: float, obs_dim=2, n_actions=3) -> QNetwork:
        net = QNetwork(obs_dim=obs_dim, n_actions=n_actions)
        for p in net.parameters():
            p.data[:] = 0.0
        net.net.layers[-1].b.data[:] = value
        return net

    def test_targets_hand_value(self):
        target = self._constant_net(2.0)
        batch = {"states": np.zeros((2, 2)), "actions": np.array([0, 1]),
                 "rewards": np.array([1.0, -1.0]),
                 "next_states": np.zeros((2, 2)),
                 "dones": np.array([0.0, 1.0])}
        got = td_targets(target, batch, gamma=0.5)
        # non-terminal: 1 + 0.5*2 = 2; terminal: just the reward
        np.testing.assert_allclose(got, [2.0, -1.0])

    def test_update_reduces_loss(self, rng):
        net = QNetwork(obs_dim=4, n_actions=3, rng=np.random.default_rng(1))
        target = net.clone()
        batch = {"states": rng.normal(size=(16, 4)),
                 "actions": rng.integers(0, 3, size=16),
                 "rewards": rng.normal(size=16),
                 "next_states": rng.normal(size=(16, 4)),
                 "dones": np.zeros(16)}
        optimizer = Adam(net.parameters(), lr=1e-2)
        losses = [td_update(net, target, batch, 0.9, optimizer)
                  for _ in range(30)]
        assert losses[-1] < losses[0] * 0.5

    def test_clone_is_detached(self):
        net = QNetwork(obs_dim=2, n_actions=2)
        twin = net.clone()
        obs = np.ones(2)
        np.testing.assert_array_equal(net.q_values(obs), twin.q_values(obs))
        for p in net.parameters():
            p.data += 1.0
        assert not np.array_equal(net.q_values(obs), twin.q_values(obs))


class TestQNetworkIo:
    def test_save_load_identical(self, tmp_path, rng):
        net = QNetwork(obs_dim=5, n_actions=7, rng=np.random.default_rng(2))
        path = tmp_path / "qnet.json"
        net.save(path)
        back = QNetwork.load(path)
        obs = rng.normal(size=(6, 5))
        np.testing.assert_array_equal(net.q_values(obs), back.q_values(obs))
        assert back.n_actions == 7

    def test_q_values_single_and_batch(self, rng):
        net = QNetwork(obs_dim=3, n_actions=4)
        single = net.q_values(np.zeros(3))
        batch = net.q_values(np.zeros((2, 3)))
        assert single.shape == (4,)
        assert batch.shape == (2, 4)
        np.testing.assert_array_equal(batch[0], single)


def test_reward_curve_format(tmp_path):
    episodes = [EpisodeRecord(0, 12.5, 9, 1.0), EpisodeRecord(1, -3.0, 4, 0.8)]
    path = tmp_path / "curve.csv"
    write_reward_curve(episodes, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "episode,return,length,epsilon"
    assert lines[1] == "0,12.5,9,1.0"
    assert len(lines) == 3


def test_policy_histogram_sums_returns_left_to_right():
    def never(kind):
        head = BinaryHead(kind, N_FEATURES)
        for p in head.parameters():
            p.data[:] = 0.0
        head.net.layers[-1].b.data[:] = -50.0
        return head

    def env():
        # eight steps, seven of them shaped: np.sum and math.fsum both round
        # this episode's return differently from a left-to-right sum
        model = StateModel(StateModelConfig(variant="rnn", window=3,
                                            rnn_hidden=8),
                           rng=np.random.default_rng(0))
        stats = NormalizationStats(np.linspace(-1.0, 1.0, N_FEATURES),
                                   np.linspace(0.5, 2.0, N_FEATURES))
        return PatientEnv(model, never("termination"), never("outcome"),
                          np.random.default_rng(37).normal(size=(3, N_FEATURES)),
                          reward_spec=RewardSpec("sofa_lactate_shaped",
                                                 sofa_index=3, lactate_index=7),
                          stats=stats, max_steps=8, seed=37)

    net = QNetwork(rng=np.random.default_rng(0))
    rollouts = policy_histogram(net, env(), 1)
    hand = env()
    obs, rewards = hand.reset(), []
    while not hand.done:
        result = hand.step(int(np.argmax(net.q_values(obs))))
        obs = result.observation
        rewards.append(result.reward)
    total = 0.0
    for r in rewards:
        total += r
    assert rollouts.lengths.tolist() == [8]
    assert rollouts.returns.tolist() == [total]
    assert total != float(np.sum(rewards)) and total != math.fsum(rewards)

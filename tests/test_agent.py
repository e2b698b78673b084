"""DQN components: replay buffer, epsilon schedule, TD updates, Q-network."""
import math

import numpy as np
import pytest

from sepsim.agent import (DqnConfig, QNetwork, ReplayBuffer, act,
                          policy_histogram, td_targets, td_update,
                          train_agent, write_reward_curve)
from sepsim.agent import EpisodeRecord
from sepsim.data import N_FEATURES, NormalizationStats
from sepsim.dynamics import StateModel, StateModelConfig
from sepsim.env import PatientEnv, RewardSpec, StepResult
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


def _push_random(buf: ReplayBuffer, rng: np.random.Generator, obs_dim: int):
    buf.push(rng.normal(size=obs_dim), int(rng.integers(5)), float(rng.normal()),
             rng.normal(size=obs_dim), bool(rng.random() < 0.2))


def _serve(buf, target, batch_size, rng, gamma=0.9, must_hold=None):
    """Sample batches until one holds the row `must_hold` (any batch when
    None), checking every batch's cached targets against `td_targets`."""
    for _ in range(50):
        batch = buf.sample(batch_size, rng)
        got = buf.targets(target, batch, gamma)
        assert got.tobytes() == td_targets(target, batch, gamma).tobytes()
        if must_hold is None or must_hold in batch["rows"]:
            return batch
    raise AssertionError(f"row {must_hold} was never sampled")


class TestTargetCache:
    """`ReplayBuffer.targets`, the cached form of `td_targets`."""

    @pytest.mark.parametrize("batch_size", [32, 64])
    def test_targets_equal_td_targets_across_syncs_and_overwrites(
            self, batch_size):
        rng = np.random.default_rng(batch_size)
        capacity, obs_dim = batch_size + 8, 6
        buf = ReplayBuffer(capacity, obs_dim=obs_dim)
        target = QNetwork(obs_dim=obs_dim, n_actions=5,
                          rng=np.random.default_rng(1))
        for _ in range(batch_size):
            _push_random(buf, rng, obs_dim)
        _serve(buf, target, batch_size, rng)
        # the ring wraps more than twice, with a target sync every 25 rows
        for pushed in range(batch_size, 3 * capacity):
            if pushed % 25 == 0:
                target.load_state_arrays(
                    {name: a + rng.normal(scale=0.1, size=a.shape)
                     for name, a in target.state_arrays().items()})
                buf.target_synced()
                _serve(buf, target, batch_size, rng)
            _push_random(buf, rng, obs_dim)
            _serve(buf, target, batch_size, rng, must_hold=pushed % capacity)

    def test_forwards_one_block_only_when_a_sampled_row_is_stale(
            self, monkeypatch):
        rng = np.random.default_rng(0)
        buf = ReplayBuffer(8, obs_dim=3)
        target = QNetwork(obs_dim=3, n_actions=5, rng=np.random.default_rng(1))
        blocks = []
        q_values = target.q_values
        monkeypatch.setattr(target, "q_values",
                            lambda obs: blocks.append(obs.copy()) or q_values(obs))
        stale, pushed = set(), 0  # the test's own account of stale rows
        seen = {"none": 0, "filled": 0, "padded": 0}
        for step in range(1, 200):
            if step % 40 == 0:
                buf.target_synced()
                stale = set(range(len(buf)))
            for _ in range(rng.integers(0, 4)):
                _push_random(buf, rng, 3)
                stale.add(pushed % 8)
                pushed += 1
            if len(buf) < 4:
                continue
            batch = buf.sample(4, rng)
            blocks.clear()
            buf.targets(target, batch, 0.9)
            first = [r for r in batch["rows"].tolist() if r in stale]
            if not first:
                assert blocks == []
                seen["none"] += 1
                continue
            # the batch's stale rows, then other stale rows in row order,
            # then zeros
            assert len(blocks) == 1 and blocks[0].shape == (4, 3)
            block = blocks[0]
            np.testing.assert_array_equal(block[:len(first)],
                                          buf._next_states[first])
            row_of = {x.tobytes(): r
                      for r, x in enumerate(buf._next_states[:len(buf)])}
            fill = [row_of[x.tobytes()] for x in block[len(first):] if x.any()]
            assert fill == sorted(set(fill)) and set(fill) <= stale - set(first)
            assert not block[len(first) + len(fill):].any()
            stale -= set(first + fill)
            seen["filled"] += bool(fill)
            seen["padded"] += len(first) + len(fill) < 4
        assert min(seen.values()) > 0, seen


class _DriftEnv:
    """The action nudges a noisy 46-feature state; episodes last 7 steps."""

    def __init__(self):
        self._rng = np.random.default_rng(5)

    def reset(self):
        self.t = 0
        self.obs = self._rng.normal(size=N_FEATURES)
        return self.obs.copy()

    def step(self, action):
        self.t += 1
        self.obs = np.tanh(self.obs + (action - 12) / 120.0
                           + self._rng.normal(scale=0.1, size=N_FEATURES))
        return StepResult(self.obs.copy(), float(self.obs[0] - 0.01 * action),
                          self.t >= 7, {})


def _reference_train_agent(env, config: DqnConfig):
    """`train_agent` with every batch's targets from `td_targets`, the
    reference formula. Returns the Q-net and the episode returns."""
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.default_rng(seeds[0])
    net = QNetwork(rng=np.random.default_rng(seeds[1]))
    target = net.clone()
    buffer = ReplayBuffer(min(config.buffer_capacity, config.total_steps),
                          net.obs_dim)
    optimizer = Adam(net.parameters(), lr=config.learning_rate)
    returns, ep_return = [], 0.0
    obs = env.reset()
    for step in range(1, config.total_steps + 1):
        action = act(net, obs, config.epsilon_at(step), rng)
        result = env.step(action)
        buffer.push(obs, action, result.reward, result.observation, result.done)
        ep_return += result.reward
        obs = result.observation
        if result.done:
            returns.append(ep_return)
            obs, ep_return = env.reset(), 0.0
        if len(buffer) >= config.batch_size:
            batch = buffer.sample(config.batch_size, rng)
            td_update(net, batch, td_targets(target, batch, config.gamma),
                      optimizer)
        if step % config.target_sync == 0:
            target.load_state_arrays(net.state_arrays())
    return net, np.array(returns)


@pytest.mark.parametrize("batch_size", [4, 32])
def test_train_agent_equals_td_targets_on_every_batch(batch_size):
    config = DqnConfig(total_steps=300, buffer_capacity=100,
                       batch_size=batch_size, target_sync=70,
                       epsilon_decay_steps=150, seed=4)
    result = train_agent(_DriftEnv(), config)
    net, returns = _reference_train_agent(_DriftEnv(), config)
    assert result.returns.tobytes() == returns.tobytes()
    got, want = result.qnet.state_arrays(), net.state_arrays()
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("m", [4, 32, 64])
def test_q_values_rows_are_position_independent(m):
    """A row of an m-row forward gets the same bits wherever it sits and
    whatever its neighbours, zero padding included."""
    rng = np.random.default_rng(m)
    net = QNetwork(rng=np.random.default_rng(3))
    rows = rng.normal(size=(m, N_FEATURES))
    whole = net.q_values(rows)
    for k in (m, m - 1, m // 2 + 1, 1):
        for _ in range(3):
            src = rng.permutation(m)[:k]  # which rows
            at = rng.permutation(m)[:k]   # where they sit; the rest are zeros
            block = np.zeros((m, N_FEATURES))
            block[at] = rows[src]
            assert net.q_values(block)[at].tobytes() == whole[src].tobytes(), (
                f"a row of a {m}-row QNetwork.q_values forward changed bits with "
                "its position or neighbours; ReplayBuffer.targets equals "
                "td_targets byte for byte only while this BLAS property holds")


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
        losses = [td_update(net, batch, td_targets(target, batch, 0.9),
                            optimizer)
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

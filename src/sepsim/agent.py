"""DQN agent: Q-network, ring replay buffer, target network, epsilon-greedy
exploration, and the training loop that runs against the simulator.

The Q-network always consumes the 46-feature decoded observation, whatever
the simulator variant, so learned policies are directly comparable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .data import ACTION_COUNT, N_FEATURES
from .env import rollout
from .nn.layers import UNINITIALIZED, MLP, Module
from .nn.optim import Adam, Optimizer

Q_HIDDEN = (128, 128)


class QNetwork(Module):
    model_kind = "qnet"

    def __init__(self, obs_dim: int = N_FEATURES, n_actions: int = ACTION_COUNT,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.obs_dim = int(obs_dim)
        self.n_actions = int(n_actions)
        self.net = MLP((self.obs_dim, *Q_HIDDEN, self.n_actions),
                       hidden_activation="tanh", output_activation="linear",
                       rng=rng)

    def q_values(self, obs: np.ndarray) -> np.ndarray:
        obs = np.asarray(obs, dtype=np.float64)
        single = obs.ndim == 1
        out = self.net.forward_np(np.atleast_2d(obs))
        return out[0] if single else out

    def clone(self) -> "QNetwork":
        twin = QNetwork(self.obs_dim, self.n_actions, rng=UNINITIALIZED)
        twin.load_state_arrays({name: p.data for name, p in self.named_parameters()})
        return twin

    def save(self, path) -> None:
        hyper = {"obs_dim": self.obs_dim, "n_actions": self.n_actions}
        checkpoint.save_checkpoint(path, self.model_kind, hyper, self.state_arrays())

    @classmethod
    def load(cls, path) -> "QNetwork":
        _, hyper, arrays = checkpoint.load_checkpoint(path, expect_kind=cls.model_kind)
        model = cls(int(hyper["obs_dim"]), int(hyper["n_actions"]), rng=UNINITIALIZED)
        model.load_state_arrays(arrays)
        return model


def act(net: QNetwork, obs: np.ndarray, epsilon: float,
        rng: np.random.Generator) -> int:
    """Epsilon-greedy action; ties break toward the lowest action index."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(net.n_actions))
    return int(np.argmax(net.q_values(obs)))


class ReplayBuffer:
    """Fixed-capacity ring of (s, a, r, s', done) transitions."""

    def __init__(self, capacity: int, obs_dim: int = N_FEATURES):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._states = np.zeros((capacity, obs_dim))
        self._actions = np.zeros(capacity, dtype=np.int64)
        self._rewards = np.zeros(capacity)
        self._next_states = np.zeros((capacity, obs_dim))
        self._dones = np.zeros(capacity)
        self._count = 0

    def __len__(self) -> int:
        return min(self._count, self.capacity)

    def push(self, state, action, reward, next_state, done) -> None:
        i = self._count % self.capacity
        self._states[i] = state
        self._actions[i] = action
        self._rewards[i] = reward
        self._next_states[i] = next_state
        self._dones[i] = float(done)
        self._count += 1

    def sample(self, batch_size: int, rng: np.random.Generator) -> dict:
        """Uniform sample without replacement within the batch."""
        n = len(self)
        if batch_size > n:
            raise ValueError(f"cannot sample {batch_size} from buffer of {n}")
        idx = rng.choice(n, size=batch_size, replace=False)
        return {"states": self._states[idx], "actions": self._actions[idx],
                "rewards": self._rewards[idx],
                "next_states": self._next_states[idx], "dones": self._dones[idx]}


@dataclass(frozen=True)
class DqnConfig:
    gamma: float = 0.99
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 20_000
    target_sync: int = 500
    buffer_capacity: int = 50_000
    batch_size: int = 64
    total_steps: int = 100_000
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        for name in ("epsilon_start", "epsilon_end"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.epsilon_end > self.epsilon_start:
            raise ValueError("epsilon must decay: epsilon_end > epsilon_start")
        for name in ("epsilon_decay_steps", "target_sync", "batch_size", "total_steps"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1")
        if self.batch_size > self.buffer_capacity:
            raise ValueError("batch_size cannot exceed buffer_capacity")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")

    def epsilon_at(self, step: int) -> float:
        frac = min(step / self.epsilon_decay_steps, 1.0)
        return self.epsilon_start + frac * (self.epsilon_end - self.epsilon_start)


def td_targets(target_net: QNetwork, batch: dict, gamma: float) -> np.ndarray:
    q_next = target_net.q_values(batch["next_states"]).max(axis=1)
    return batch["rewards"] + gamma * (1.0 - batch["dones"]) * q_next


def td_update(net: QNetwork, target_net: QNetwork, batch: dict, gamma: float,
              optimizer: Optimizer) -> float:
    """One gradient step of Q(s,a) toward r + gamma * (1-done) * max Q_target.

    Runs on bare arrays, without a tape: each layer's `forward_np`, keeping
    the activations, then the loss gradient back through each layer's
    `backward_np`. The float operations and their order are those of
    `mse(net.net(Tensor(s))[rows, a], targets).backward()`, so the loss and the
    trained weights equal the tape's bit for bit.
    """
    targets = td_targets(target_net, batch, gamma)
    layers = net.net.layers
    acts = [np.asarray(batch["states"], dtype=np.float64)]
    for layer in layers:
        acts.append(layer.forward_np(acts[-1]))
    actions = batch["actions"]
    n = len(actions)
    rows = np.arange(n)
    diff = acts[-1][rows, actions] - targets
    inv_n = 1.0 / n
    loss = (diff * diff).sum() * inv_n
    # the tape passes (1/n) * diff to each factor of diff * diff and adds
    # the two; getitem's backward scatters with add.at into zeros
    half = inv_n * diff
    g = np.zeros_like(acts[-1])
    np.add.at(g, (rows, actions), half + half)
    optimizer.zero_grad()
    for i in range(len(layers) - 1, -1, -1):
        g, g_w, g_b = layers[i].backward_np(acts[i], acts[i + 1], g,
                                            input_grad=i > 0)
        layers[i].W.grad += g_w
        layers[i].b.grad += g_b
    optimizer.step()
    return float(loss)


@dataclass(frozen=True)
class EpisodeRecord:
    episode: int
    ret: float
    length: int
    epsilon: float


@dataclass
class AgentResult:
    qnet: QNetwork
    episodes: list[EpisodeRecord]

    @property
    def returns(self) -> np.ndarray:
        return np.array([e.ret for e in self.episodes])


def train_agent(env, config: DqnConfig | None = None) -> AgentResult:
    """Run the DQN loop against a step/reset environment.

    Determinism: with a fixed config.seed and a freshly seeded env, repeat
    runs produce identical reward curves (the env's own rng is part of that
    contract, so reuse of a stepped env breaks it).
    """
    config = config or DqnConfig()
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.default_rng(seeds[0])
    net = QNetwork(rng=np.random.default_rng(seeds[1]))
    target = net.clone()
    # the loop pushes total_steps rows, so rows past that are never written
    buffer = ReplayBuffer(min(config.buffer_capacity, config.total_steps), net.obs_dim)
    optimizer = Adam(net.parameters(), lr=config.learning_rate)

    episodes: list[EpisodeRecord] = []
    obs = env.reset()
    ep_return, ep_length = 0.0, 0
    for step in range(1, config.total_steps + 1):
        epsilon = config.epsilon_at(step)
        action = act(net, obs, epsilon, rng)
        result = env.step(action)
        buffer.push(obs, action, result.reward, result.observation, result.done)
        ep_return += result.reward
        ep_length += 1
        obs = result.observation
        if result.done:
            episodes.append(EpisodeRecord(len(episodes), ep_return, ep_length, epsilon))
            obs = env.reset()
            ep_return, ep_length = 0.0, 0
        if len(buffer) >= config.batch_size:
            batch = buffer.sample(config.batch_size, rng)
            td_update(net, target, batch, config.gamma, optimizer)
        if step % config.target_sync == 0:
            target.load_state_arrays(net.state_arrays())
    return AgentResult(net, episodes)


@dataclass(frozen=True)
class PolicyRollouts:
    """Greedy-policy rollout statistics for distribution comparisons."""

    action_counts: np.ndarray   # (25,)
    lengths: np.ndarray         # (n_episodes,)
    returns: np.ndarray         # (n_episodes,)


def policy_histogram(net: QNetwork, env, n_episodes: int) -> PolicyRollouts:
    """Greedy rollouts; the env's own rng drives all stochasticity.

    Each return is the trajectory's `ReplayTrajectory.ret`.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    greedy = lambda obs, t: int(np.argmax(net.q_values(obs)))
    counts = np.zeros(ACTION_COUNT, dtype=np.int64)
    lengths, returns = [], []
    for _ in range(n_episodes):
        traj = rollout(env, greedy)
        counts += np.bincount(traj.actions, minlength=ACTION_COUNT)
        lengths.append(traj.n_steps)
        returns.append(traj.ret)
    return PolicyRollouts(counts, np.array(lengths), np.array(returns))


def write_reward_curve(episodes: list[EpisodeRecord], path) -> None:
    returns = checkpoint.float_cells([rec.ret for rec in episodes])
    epsilons = checkpoint.float_cells([rec.epsilon for rec in episodes])
    checkpoint.write_table(path, ["episode", "return", "length", "epsilon"],
                           ([rec.episode, ret, rec.length, eps]
                            for rec, ret, eps in zip(episodes, returns, epsilons)))

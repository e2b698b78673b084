"""End-to-end acceptance suite.

Thirteen numbered checks cover the whole toolkit: gradient fidelity of every
network, representation learning quality, mixture-density behavior under
temperature, reward algebra, agent learning on environments with known
optima, trajectory metrics, pipeline determinism, and checkpoint integrity.
Each heavy check enforces its own wall-clock budget.  The conftest prints a
one-line PASS/FAIL verdict per criterion after the run.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sp_stats

from sepsim.agent import DqnConfig, QNetwork, policy_histogram, train_agent
from sepsim.cli import main as cli_main
from sepsim.data import (Cohort, N_FEATURES, Outcome, PatientEpisode,
                         SyntheticDynamicsSpec, action_intensity,
                         export_cohort, generate_synthetic_cohort,
                         prepare_cohorts, split_cohort)
from sepsim.dynamics import (StateModel, StateModelConfig, one_hot_actions,
                             build_training_sequences, sample_next,
                             train_on_sequences, train_state_model)
from sepsim.env import PatientEnv, RewardSpec, StepResult, shaped_reward
from sepsim.evaluation import build_trajectory_matrix, normalized_trajectory_mean
from sepsim.heads import (BinaryHead, HEAD_KINDS, build_head_rows,
                          train_heads)
from sepsim.nn.gradcheck import check_gradients
from sepsim.nn.losses import (MixtureParams, bce_with_logits, gaussian_kl,
                              mdn_loss_graph, mdn_nll, mse)
from sepsim.nn.tensor import Tensor
from sepsim.nn.training import TrainSchedule
from sepsim.vae import (LATENT_DIM, AeModel, VaeModel, ae_loss_graph,
                        train_ae, train_vae, vae_loss_graph)


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients agree with finite differences everywhere

def test_criterion_01_gradient_fidelity():
    """Every trainable network passes a 50-probe finite-difference check."""
    t0 = time.monotonic()
    rng0 = np.random.default_rng(0)
    batch46 = rng0.normal(size=(4, N_FEATURES))
    eps = rng0.normal(size=(4, LATENT_DIM))
    wa = one_hot_actions(rng0.integers(0, 25, size=12)).reshape(4, 3, 25)

    checks = []

    vae = VaeModel(beta=0.5, rng=np.random.default_rng(1))
    checks.append(("vae", vae, lambda: vae_loss_graph(vae, batch46, eps)[0]))

    ae = AeModel(rng=np.random.default_rng(2))
    checks.append(("ae", ae, lambda: ae_loss_graph(ae, batch46)))

    rnn = StateModel(StateModelConfig(variant="rnn", window=3, rnn_hidden=8,
                                      state_dim=5),
                     rng=np.random.default_rng(3))
    ws5 = rng0.normal(size=(4, 3, 5))
    tg5 = rng0.normal(size=(4, 5))
    checks.append(("rnn", rnn, lambda: mse(rnn.forward_graph(ws5, wa), tg5)))

    mdn = StateModel(StateModelConfig(variant="mdn_rnn", window=3,
                                      rnn_hidden=8, n_mixtures=3, state_dim=4),
                     rng=np.random.default_rng(4))
    ws4 = rng0.normal(size=(4, 3, 4))
    tg4 = rng0.normal(size=(4, 4))

    def mdn_loss():
        out = mdn.forward_graph(ws4, wa)
        return mdn_loss_graph(*mdn.split_head(out), tg4)

    checks.append(("mdn_rnn", mdn, mdn_loss))

    head_states = rng0.normal(size=(8, 6))
    head_actions = rng0.integers(0, 25, size=8)
    head_steps = np.arange(8)
    head_labels = rng0.integers(0, 2, size=8).astype(np.float64)
    for kind, seed in (("termination", 5), ("outcome", 6)):
        head = BinaryHead(kind, state_dim=6, rng=np.random.default_rng(seed))
        feats = head._features(head_states, head_actions, head_steps)
        checks.append((kind, head,
                       lambda h=head, f=feats:
                       bce_with_logits(h.net(Tensor(f)),
                                       head_labels[:, None])))

    qnet = QNetwork(obs_dim=6, n_actions=5, rng=np.random.default_rng(7))
    qs = rng0.normal(size=(8, 6))
    qa = rng0.integers(0, 5, size=8)
    qt = rng0.normal(size=8)
    checks.append(("qnet", qnet,
                   lambda: mse(qnet.net(Tensor(qs))[np.arange(8), qa], qt)))

    for name, model, loss_fn in checks:
        report = check_gradients(model.parameters(), loss_fn, probe_count=50,
                                 h=1e-5, rng=np.random.default_rng(0))
        assert len(report.probes) == 50, name
        assert report.max_rel_error <= 1e-4, (name, report.max_rel_error)

    assert time.monotonic() - t0 <= 60.0


# ---------------------------------------------------------------------------
# criterion 2: the VAE actually compresses and reconstructs clinical states

def test_criterion_02_vae_reconstruction():
    """20 epochs at beta=0 beat the feature-mean baseline by a wide margin."""
    t0 = time.monotonic()
    spec = SyntheticDynamicsSpec.default(seed=7)
    cohort = generate_synthetic_cohort(spec, 320)
    n_states = sum(ep.states.shape[0] for ep in cohort.episodes)
    assert n_states >= 5000

    train_c, val_c, _ = prepare_cohorts(cohort, 0.8, seed=7)
    train_states = np.concatenate([ep.states for ep in train_c.episodes])
    val_states = np.concatenate([ep.states for ep in val_c.episodes])

    schedule = TrainSchedule(max_epochs=20, patience=20, batch_size=64, seed=0)
    model, _ = train_vae(train_states, val_states, schedule,
                         learning_rate=1e-3, beta=0.0)

    recon_mse = float(np.mean((model.reconstruct(val_states) - val_states) ** 2))
    baseline = float(np.mean((val_states - train_states.mean(axis=0)) ** 2))
    assert recon_mse <= 0.15
    assert recon_mse <= 0.7 * baseline
    assert time.monotonic() - t0 <= 300.0


# ---------------------------------------------------------------------------
# criterion 3: KL term hits its closed-form values

def test_criterion_03_kl_closed_form():
    zero = gaussian_kl(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 4))))
    assert abs(zero.item()) <= 1e-9
    # d=1, mu=1, sigma=1: KL = 0.5 * mu^2 = 0.5
    half = gaussian_kl(Tensor(np.ones((1, 1))), Tensor(np.zeros((1, 1))))
    assert abs(half.item() - 0.5) <= 1e-9


# ---------------------------------------------------------------------------
# criterion 4: mixture head captures bimodality a point predictor cannot

def test_criterion_04_bimodal_mdn_vs_rnn():
    """iid +/-1 targets: every conditional is bimodal, so a point model must
    regress to ~0 while mixture samples commit to one branch."""
    t0 = time.monotonic()
    gen = np.random.default_rng(0)
    episodes = []
    for _ in range(60):
        vals = gen.choice([-1.0, 1.0], size=12)[:, None]
        episodes.append((vals, np.zeros(12, dtype=int)))
    data = build_training_sequences(episodes, window=10)

    point, _ = train_on_sequences(
        StateModelConfig(variant="rnn", window=10, rnn_hidden=16, state_dim=1),
        data, data, TrainSchedule(max_epochs=10, patience=10, batch_size=64,
                                  seed=0))
    preds = point.predict_batch(*data.windows())
    assert abs(float(np.mean(preds))) <= 0.2
    assert float(np.mean(np.abs(preds))) <= 0.2

    mdn, _ = train_on_sequences(
        StateModelConfig(variant="mdn_rnn", window=10, rnn_hidden=16,
                         n_mixtures=2, state_dim=1),
        data, data, TrainSchedule(max_epochs=60, patience=60, batch_size=64,
                                  seed=0), learning_rate=1e-2)
    draw_rng = np.random.default_rng(123)
    mixtures = mdn.predict_batch(*data.windows(slice(100)))
    samples = np.array([sample_next(p, 1.0, draw_rng)[0]
                        for p in mixtures for _ in range(5)])
    assert float(np.mean(np.abs(samples) > 0.5)) >= 0.9
    assert time.monotonic() - t0 <= 120.0


# ---------------------------------------------------------------------------
# criterion 5: temperature reshapes component choice exactly as advertised

def test_criterion_05_temperature_sampling():
    params = MixtureParams(np.array([0.5, 0.3, 0.2]),
                           np.array([[-100.0], [0.0], [100.0]]),
                           np.array([[0.1], [0.1], [0.1]]))
    centers = np.array([-100.0, 0.0, 100.0])
    rng = np.random.default_rng(5)
    for tau in (0.5, 1.0, 2.0):
        draws = np.array([sample_next(params, tau, rng)[0]
                          for _ in range(10_000)])
        comp = np.abs(draws[:, None] - centers[None, :]).argmin(axis=1)
        counts = np.bincount(comp, minlength=3)
        # tempered weights: w_k^(1/tau), renormalized
        w = params.weights ** (1.0 / tau)
        expected = w / w.sum() * 10_000
        _, p_value = sp_stats.chisquare(counts, f_exp=expected)
        assert p_value >= 0.01, (tau, p_value)

    cold = np.array([sample_next(params, 1e-6, rng)[0] for _ in range(1000)])
    # near tau=0 every draw picks the dominant component and hugs its mean
    assert np.all(np.abs(cold - centers[0]) < 1.0)
    assert float(cold.std()) <= 1e-2 * float(params.stds.max())


# ---------------------------------------------------------------------------
# criterion 6: mixture NLL agrees with direct density evaluation

def test_criterion_06_mdn_nll_matches_direct_density():
    rng = np.random.default_rng(6)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        d = int(rng.integers(1, 5))
        params = MixtureParams(rng.dirichlet(np.ones(k)),
                               rng.normal(scale=2.0, size=(k, d)),
                               rng.uniform(0.3, 3.0, size=(k, d)))
        target = rng.normal(scale=2.0, size=d)
        density = float(np.sum(params.weights
                               * np.prod(sp_stats.norm.pdf(target,
                                                           params.means,
                                                           params.stds),
                                         axis=1)))
        assert abs(mdn_nll(params, target) + np.log(density)) <= 1e-9

    # duplicating a component at half weight leaves the density unchanged
    mu = np.array([[0.7, -0.3]])
    sd = np.array([[0.9, 1.4]])
    point = np.array([0.2, 0.1])
    single = mdn_nll(MixtureParams(np.array([1.0]), mu, sd), point)
    doubled = mdn_nll(MixtureParams(np.array([0.5, 0.5]),
                                    np.vstack([mu, mu]),
                                    np.vstack([sd, sd])), point)
    assert abs(single - doubled) <= 1e-9


# ---------------------------------------------------------------------------
# criterion 7: heads learn separable rules and beat a label-shuffled AUC

def _separable_cohort(n_episodes: int = 300, seed: int = 11) -> Cohort:
    """Feature 0 announces the final step, feature 1 decides survival."""
    rng = np.random.default_rng(seed)
    eps = []
    for i in range(n_episodes):
        length = int(rng.integers(2, 8))
        states = rng.normal(scale=0.3, size=(length, N_FEATURES))
        states[:-1, 0] = -2.0
        states[-1, 0] = 2.0
        die = i % 2 == 0
        states[-1, 1] = 2.0 if die else -2.0
        actions = rng.integers(0, 25, size=length)
        eps.append(PatientEpisode(f"p{i:03d}", states, actions,
                                  Outcome.DEATH if die else Outcome.RELEASE))
    return Cohort(tuple(eps), tuple(f"f_{j}" for j in range(N_FEATURES)))


def _mann_whitney_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    ranks = sp_stats.rankdata(scores)
    pos = labels >= 0.5
    n_pos = int(pos.sum())
    n_neg = int((~pos).sum())
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2)
                 / (n_pos * n_neg))


def test_criterion_07_head_accuracy_and_auc():
    cohort = _separable_cohort()
    train_c, held = split_cohort(cohort, 0.8, 0)
    result = train_heads(train_c, TrainSchedule(max_epochs=20, patience=20,
                                                batch_size=64, seed=0))

    term_rows, outc_rows = build_head_rows(held)
    term_p = result.termination.predict_proba_batch(
        term_rows.states, term_rows.actions, term_rows.steps)
    outc_p = result.outcome.predict_proba_batch(
        outc_rows.states, outc_rows.actions, outc_rows.steps)
    term_acc = float(np.mean((term_p >= 0.5) == (term_rows.labels >= 0.5)))
    outc_acc = float(np.mean((outc_p >= 0.5) == (outc_rows.labels >= 0.5)))
    assert term_acc >= 0.9
    assert outc_acc >= 0.9

    real_auc = _mann_whitney_auc(term_p, term_rows.labels)
    shuffle_rng = np.random.default_rng(0)
    shuffled = np.array([
        _mann_whitney_auc(term_p, shuffle_rng.permutation(term_rows.labels))
        for _ in range(200)])
    assert real_auc > shuffled.mean() + 3 * shuffled.std(ddof=1)


# ---------------------------------------------------------------------------
# criterion 8: reward algebra across all three formulations

def _constant_head(kind: str, logit: float) -> BinaryHead:
    head = BinaryHead(kind, state_dim=N_FEATURES, rng=np.random.default_rng(0))
    for p in head.parameters():
        p.data[:] = 0.0
    head.net.layers[-1].b.data[:] = logit
    return head


def test_criterion_08_reward_algebra():
    model = StateModel(StateModelConfig(variant="rnn", window=3, rnn_hidden=8),
                       rng=np.random.default_rng(1))
    pool = np.random.default_rng(2).normal(size=(16, N_FEATURES))
    term = _constant_head("termination", -1.0)
    outc = _constant_head("outcome", 0.0)
    act_rng = np.random.default_rng(3)

    env = PatientEnv(model, term, outc, pool, reward_spec=RewardSpec(),
                     max_steps=8, seed=0)
    returns = set()
    for _ in range(1000):
        env.reset()
        rewards = []
        while not env.done:
            rewards.append(env.step(int(act_rng.integers(0, 25))).reward)
        assert all(r == 0.0 for r in rewards[:-1])
        returns.add(sum(rewards))
    assert returns <= {-15.0, 15.0}

    spec = RewardSpec(formulation="terminal_minus_intensity")
    env2 = PatientEnv(model, term, outc, pool, reward_spec=spec,
                      max_steps=8, seed=0)
    for _ in range(300):
        env2.reset()
        while not env2.done:
            result = env2.step(int(act_rng.integers(0, 25)))
            penalty = result.reward
            if result.done:
                penalty -= 1000.0 if result.reward > 0 else -1000.0
            assert -8.0 <= penalty <= 0.0

    shaped_spec = RewardSpec(formulation="sofa_lactate_shaped",
                             sofa_index=0, lactate_index=1)
    base = np.zeros(N_FEATURES)
    assert abs(shaped_reward(base, base, shaped_spec)) <= 1e-9
    held = base.copy()
    held[0] = 3.0
    assert abs(shaped_reward(held, held.copy(), shaped_spec)
               - (-0.025)) <= 1e-9
    worse = held.copy()
    worse[0] = 4.0
    worse[1] = 1.0
    expected = -0.125 - 2.0 * np.tanh(1.0)
    assert abs(shaped_reward(held, worse, shaped_spec) - expected) <= 1e-9


# ---------------------------------------------------------------------------
# criterion 9: the DQN finds known optima and beats random dosing

class _BanditEnv:
    """One-shot environment: action 3 pays 1, everything else pays 0."""

    def __init__(self):
        self._obs = np.zeros(N_FEATURES)

    def reset(self, rng=None):
        return self._obs.copy()

    def step(self, action):
        reward = 1.0 if action == 3 else 0.0
        return StepResult(self._obs.copy(), reward, True, {})


class _TwoStateDag:
    """Even actions in s0 end with +1; odd ones visit s1, which pays +2."""

    def __init__(self):
        self.state = 0

    @staticmethod
    def _obs(state: int) -> np.ndarray:
        obs = np.zeros(N_FEATURES)
        obs[0] = 1.0 if state == 1 else -1.0
        return obs

    def reset(self, rng=None):
        self.state = 0
        return self._obs(0)

    def step(self, action):
        if self.state == 0:
            if action % 2 == 0:
                return StepResult(self._obs(0), 1.0, True, {})
            self.state = 1
            return StepResult(self._obs(1), 0.0, False, {})
        return StepResult(self._obs(0), 2.0, True, {})


def _dag_value_iteration(gamma: float) -> tuple[np.ndarray, np.ndarray]:
    q0 = np.zeros(25)
    q1 = np.zeros(25)
    for _ in range(500):
        v1 = q1.max()
        q0_next = np.where(np.arange(25) % 2 == 0, 1.0, gamma * v1)
        q1_next = np.full(25, 2.0)
        if max(np.abs(q0_next - q0).max(), np.abs(q1_next - q1).max()) < 1e-12:
            return q0_next, q1_next
        q0, q1 = q0_next, q1_next
    return q0, q1


def test_criterion_09_dqn_learning():
    t0 = time.monotonic()

    # (a) bandit: greedy policy picks the single rewarded action
    bandit_cfg = DqnConfig(total_steps=2000, epsilon_decay_steps=1000,
                           buffer_capacity=2000, batch_size=32,
                           target_sync=100, seed=0)
    bandit_result = train_agent(_BanditEnv(), bandit_cfg)
    greedy = int(np.argmax(bandit_result.qnet.q_values(np.zeros(N_FEATURES))))
    assert greedy == 3

    # (b) two-state MDP: learned Q matches value iteration within 1e-2
    gamma = 0.9
    dag_cfg = DqnConfig(gamma=gamma, total_steps=12_000,
                        epsilon_decay_steps=6000, epsilon_end=0.3,
                        buffer_capacity=12_000, batch_size=64,
                        target_sync=100, learning_rate=3e-3, seed=2)
    dag_result = train_agent(_TwoStateDag(), dag_cfg)
    q0_true, q1_true = _dag_value_iteration(gamma)
    q0_hat = dag_result.qnet.q_values(_TwoStateDag._obs(0))
    q1_hat = dag_result.qnet.q_values(_TwoStateDag._obs(1))
    assert np.abs(q0_hat - q0_true).max() <= 1e-2
    assert np.abs(q1_hat - q1_true).max() <= 1e-2

    # (c) learned world model where treatment intensity genuinely helps:
    # greedy returns must beat uniform random dosing by >= 3 standard errors
    master = 11
    horizon = 12
    effects = np.zeros((25, 8))
    for code in range(25):
        effects[code, 0] = -0.8 * (action_intensity(code) - 4) / 4.0
    spec = SyntheticDynamicsSpec.default(
        seed=master, obs_noise_scale=0.01, step_bias=-9.0, max_len=horizon,
        action_effects=effects, hazard_coeffs=np.zeros(8),
        outcome_coeffs=np.concatenate([[40.0], np.zeros(7)]))
    cohort = generate_synthetic_cohort(spec, 400)
    train_c, val_c, stats = prepare_cohorts(cohort, 0.8, seed=master)

    model, _ = train_state_model(
        StateModelConfig(variant="rnn", window=5, rnn_hidden=32), train_c,
        TrainSchedule(max_epochs=4, patience=4, batch_size=64, seed=master))
    heads = train_heads(train_c, TrainSchedule(max_epochs=15, patience=15,
                                               batch_size=64, seed=master))

    def make_env(pool, seed):
        return PatientEnv(model, heads.termination, heads.outcome, pool,
                          reward_spec=RewardSpec(), stats=stats,
                          max_steps=horizon, seed=seed)

    agent_result = train_agent(
        make_env(train_c.initial_states(), master),
        DqnConfig(gamma=0.97, total_steps=30_000, epsilon_decay_steps=12_000,
                  buffer_capacity=30_000, batch_size=64, target_sync=200,
                  learning_rate=1e-3, seed=master))

    rollouts = policy_histogram(agent_result.qnet,
                                make_env(val_c.initial_states(), master + 1000),
                                1000)
    rand_env = make_env(val_c.initial_states(), master + 2000)
    rand_rng = np.random.default_rng(master + 3000)
    rand_returns = []
    for _ in range(1000):
        rand_env.reset()
        total = 0.0
        while not rand_env.done:
            total += rand_env.step(int(rand_rng.integers(0, 25))).reward
        rand_returns.append(total)
    rand_returns = np.array(rand_returns)

    diff = rollouts.returns.mean() - rand_returns.mean()
    se = np.sqrt(rollouts.returns.var(ddof=1) / 1000
                 + rand_returns.var(ddof=1) / 1000)
    assert diff >= 3 * se, (diff, se)
    assert time.monotonic() - t0 <= 600.0


# ---------------------------------------------------------------------------
# criterion 10: trajectory-mean metric on a hand fixture, plus invariances

def test_criterion_10_trajectory_metric_properties():
    # episodes [1], [2,2], [3,3,3]: grid mean 14/9, real norm 36
    trajs = [np.array([[1.0]]), np.array([[2.0], [2.0]]),
             np.array([[3.0], [3.0], [3.0]])]
    real = build_trajectory_matrix(trajs, "real")
    sim = build_trajectory_matrix(trajs, "simulated")
    report = normalized_trajectory_mean(real, sim)
    assert report.real_ntm[0] == (14.0 / 9.0) / 36.0
    assert report.sim_ntm[0] == (14.0 / 9.0) / 36.0
    assert report.gaps[0] == 0.0

    rng = np.random.default_rng(10)
    episodes = [rng.normal(size=(int(rng.integers(1, 6)), 4))
                for _ in range(5)]
    real2 = build_trajectory_matrix(episodes, "real")
    identical = normalized_trajectory_mean(
        real2, build_trajectory_matrix(episodes, "simulated"))
    assert not identical.degenerate.any()
    assert np.all(identical.gaps == 0.0)

    alpha = 3.7
    scaled = normalized_trajectory_mean(
        real2, build_trajectory_matrix([e * alpha for e in episodes],
                                       "simulated"))
    np.testing.assert_allclose(scaled.sim_ntm, alpha * identical.sim_ntm,
                               rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# criterion 11: the full pipeline is reproducible byte for byte

PIPELINE_DIRS = ("data", "vae", "state", "heads", "agent", "eval")


def _run_pipeline(base: Path, seed: int) -> dict[str, Path]:
    base.mkdir(parents=True, exist_ok=True)
    dirs = {name: base / name for name in PIPELINE_DIRS}
    data_csv = str(dirs["data"] / "cohort.csv")
    vae_file = str(dirs["vae"] / "vae.json")
    checkpoints = {"state": str(dirs["state"] / "state_vae_rnn.json"),
                   "termination": str(dirs["heads"] / "termination.json"),
                   "outcome": str(dirs["heads"] / "outcome.json"),
                   "encoder": vae_file}
    stages = [
        ("synth-data", "data", {"synth_data": {"episodes": 200}}),
        ("train-vae", "vae",
         {"train_vae": {"data": data_csv, "epochs": 3, "kind": "vae"}}),
        ("train-state", "state",
         {"train_state": {"data": data_csv, "epochs": 3, "variant": "vae_rnn",
                          "window": 4, "rnn_hidden": 16,
                          "encoder": vae_file}}),
        ("train-heads", "heads",
         {"train_heads": {"data": data_csv, "epochs": 3,
                          "encoder": vae_file}}),
        ("train-agent", "agent",
         {"train_agent": {"data": data_csv, "checkpoints": checkpoints,
                          "variant": "vae_rnn", "max_steps": 20,
                          "dqn": {"total_steps": 3000,
                                  "epsilon_decay_steps": 1500,
                                  "buffer_capacity": 3000, "batch_size": 32,
                                  "target_sync": 200}}}),
        ("eval", "eval",
         {"eval": {"data": data_csv,
                   "variants": [dict(checkpoints, name="vae_rnn")],
                   "qnet": str(dirs["agent"] / "qnet.json"),
                   "policy_episodes": 30, "max_steps": 20,
                   "eval_episodes": 20}}),
    ]
    for stage, out_key, config in stages:
        cfg_path = base / f"{stage}.json"
        cfg_path.write_text(json.dumps(config))
        code = cli_main([stage, "--config", str(cfg_path),
                         "--out", str(dirs[out_key]), "--seed", str(seed)])
        assert code == 0, stage
    return dirs


def test_criterion_11_pipeline_determinism(tmp_path):
    t0 = time.monotonic()
    first = _run_pipeline(tmp_path / "run_a", seed=9)
    second = _run_pipeline(tmp_path / "run_b", seed=9)
    for key in PIPELINE_DIRS:
        a = (first[key] / "metrics.json").read_bytes()
        b = (second[key] / "metrics.json").read_bytes()
        assert a == b, key
    assert ((first["eval"] / "trajectories.csv").read_bytes()
            == (second["eval"] / "trajectories.csv").read_bytes())
    assert time.monotonic() - t0 <= 1800.0


# ---------------------------------------------------------------------------
# criterion 12: checkpoints round-trip to bit-identical predictions

def test_criterion_12_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    batch = rng.normal(size=(5, N_FEATURES))

    vae = VaeModel(beta=0.3, rng=np.random.default_rng(0))
    vae.save(tmp_path / "vae.json")
    vae2 = VaeModel.load(tmp_path / "vae.json")
    assert np.array_equal(vae.reconstruct(batch), vae2.reconstruct(batch))
    assert np.array_equal(vae.encode_mean(batch), vae2.encode_mean(batch))

    ae = AeModel(rng=np.random.default_rng(1))
    ae.save(tmp_path / "ae.json")
    ae2 = AeModel.load(tmp_path / "ae.json")
    assert np.array_equal(ae.reconstruct(batch), ae2.reconstruct(batch))

    ws = rng.normal(size=(4, 3, 6))
    wa = one_hot_actions(rng.integers(0, 25, size=12)).reshape(4, 3, 25)
    for variant in ("rnn", "mdn_rnn"):
        config = StateModelConfig(variant=variant, window=3, rnn_hidden=8,
                                  state_dim=6, n_mixtures=3)
        model = StateModel(config, rng=np.random.default_rng(2))
        model.save(tmp_path / f"{variant}.json")
        again = StateModel.load(tmp_path / f"{variant}.json")
        if variant == "rnn":
            assert np.array_equal(model.predict_batch(ws, wa),
                                  again.predict_batch(ws, wa))
        else:
            for p, q in zip(model.predict_batch(ws, wa),
                            again.predict_batch(ws, wa)):
                assert np.array_equal(p.weights, q.weights)
                assert np.array_equal(p.means, q.means)
                assert np.array_equal(p.stds, q.stds)

    for kind in HEAD_KINDS:
        head = BinaryHead(kind, state_dim=N_FEATURES,
                          rng=np.random.default_rng(3))
        head.save(tmp_path / f"{kind}.json")
        head2 = BinaryHead.load(tmp_path / f"{kind}.json", expect_kind=kind)
        before = [head.predict_proba(batch[i], i % 25, i) for i in range(5)]
        after = [head2.predict_proba(batch[i], i % 25, i) for i in range(5)]
        assert before == after

    qnet = QNetwork(rng=np.random.default_rng(4))
    qnet.save(tmp_path / "qnet.json")
    qnet2 = QNetwork.load(tmp_path / "qnet.json")
    assert np.array_equal(qnet.q_values(batch), qnet2.q_values(batch))


# ---------------------------------------------------------------------------
# criterion 13: the eval stage covers all five model variants

def test_criterion_13_eval_variant_coverage(tmp_path):
    spec = SyntheticDynamicsSpec.default(seed=13)
    cohort = generate_synthetic_cohort(spec, 40)
    export_cohort(cohort, tmp_path / "cohort.csv")
    train_c, val_c, _ = prepare_cohorts(cohort, 0.8, seed=13)

    vae_schedule = TrainSchedule(max_epochs=2, patience=2, batch_size=64,
                                 seed=0)
    train_states = np.concatenate([ep.states for ep in train_c.episodes])
    val_states = np.concatenate([ep.states for ep in val_c.episodes])
    vae, _ = train_vae(train_states, val_states, vae_schedule,
                       learning_rate=1e-3, beta=0.0)
    ae, _ = train_ae(train_states, val_states, vae_schedule, learning_rate=1e-3)
    vae.save(tmp_path / "vae.json")
    ae.save(tmp_path / "ae.json")

    schedule = TrainSchedule(max_epochs=1, patience=1, batch_size=64, seed=0)
    encoders = {"rnn": None, "ae_rnn": ae, "vae_rnn": vae,
                "mdn_rnn": None, "vae_mdn_rnn": vae}
    for name, encoder in encoders.items():
        config = StateModelConfig(variant=name, window=3, rnn_hidden=8,
                                  n_mixtures=3)
        model, _ = train_state_model(config, train_c, schedule,
                                     encoder=encoder)
        model.save(tmp_path / f"state_{name}.json")

    head_schedule = TrainSchedule(max_epochs=2, patience=2, batch_size=64,
                                  seed=0)
    for tag, encoder in (("", None), ("_ae", ae), ("_vae", vae)):
        heads = train_heads(train_c, head_schedule, encoder=encoder)
        heads.termination.save(tmp_path / f"termination{tag}.json")
        heads.outcome.save(tmp_path / f"outcome{tag}.json")

    def entry(name, encoder_file, tag):
        item = {"name": name, "state": str(tmp_path / f"state_{name}.json"),
                "termination": str(tmp_path / f"termination{tag}.json"),
                "outcome": str(tmp_path / f"outcome{tag}.json")}
        if encoder_file:
            item["encoder"] = str(tmp_path / encoder_file)
        return item

    config = {"eval": {"data": str(tmp_path / "cohort.csv"),
                       "variants": [entry("rnn", None, ""),
                                    entry("ae_rnn", "ae.json", "_ae"),
                                    entry("vae_rnn", "vae.json", "_vae"),
                                    entry("mdn_rnn", None, ""),
                                    entry("vae_mdn_rnn", "vae.json", "_vae")],
                       "eval_episodes": 8, "max_steps": 15}}
    cfg_path = tmp_path / "eval.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "eval"
    assert cli_main(["eval", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "13"]) == 0

    names = ("rnn", "ae_rnn", "vae_rnn", "mdn_rnn", "vae_mdn_rnn")
    for name in names:
        for prefix in ("teacher_forced", "closed_loop"):
            csv_path = out / f"{prefix}_{name}.csv"
            assert csv_path.exists(), csv_path.name
            assert len(csv_path.read_text().splitlines()) > 1, csv_path.name

    metrics = json.loads((out / "metrics.json").read_text())
    # the mixture model's closed-loop gap is reported next to the point RNN's
    for name in names:
        assert np.isfinite(metrics[f"ntm_gap_{name}"]), name
    assert "ntm_gap_rnn" in metrics and "ntm_gap_mdn_rnn" in metrics

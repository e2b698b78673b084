"""Train a DQN inside the learned simulator and sanity-check the policy.

The synthetic ground truth here is rigged so that higher treatment intensity
genuinely pulls the severity axis down.  After world-model training, the
agent only ever interacts with the simulator, never the generator.  If
everything fits together, greedy returns should clearly beat random dosing,
and the action histogram should lean toward the high-intensity corner.
"""
import os

# one BLAS thread unless the caller chose: the matmuls here are small, and
# the default thread count makes them slow on a loaded machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from sepsim.agent import DqnConfig, policy_histogram, train_agent
from sepsim.data import (SyntheticDynamicsSpec, action_intensity,
                         generate_synthetic_cohort, prepare_cohorts)
from sepsim.dynamics import StateModelConfig, train_state_model
from sepsim.env import PatientEnv, RewardSpec, rollout
from sepsim.heads import train_heads
from sepsim.nn.training import TrainSchedule

HORIZON = 12

effects = np.zeros((25, 8))
for code in range(25):
    effects[code, 0] = -0.8 * (action_intensity(code) - 4) / 4.0
spec = SyntheticDynamicsSpec.default(
    seed=11, obs_noise_scale=0.01, step_bias=-9.0, max_len=HORIZON,
    action_effects=effects, hazard_coeffs=np.zeros(8),
    outcome_coeffs=np.concatenate([[40.0], np.zeros(7)]))
cohort = generate_synthetic_cohort(spec, 400)
train_c, val_c, stats = prepare_cohorts(cohort, 0.8, seed=11)
print(f"cohort: {len(cohort.episodes)} episodes, "
      f"death rate {np.mean([int(ep.outcome) for ep in cohort.episodes]):.2f}")

model, _ = train_state_model(
    StateModelConfig(variant="rnn", window=5, rnn_hidden=32), train_c,
    TrainSchedule(max_epochs=4, patience=4, batch_size=64, seed=11))
heads = train_heads(train_c, TrainSchedule(max_epochs=15, patience=15,
                                           batch_size=64, seed=11))


def make_env(pool, seed):
    return PatientEnv(model, heads.termination, heads.outcome, pool,
                      reward_spec=RewardSpec(), stats=stats,
                      max_steps=HORIZON, seed=seed)


result = train_agent(make_env(train_c.initial_states(), 11),
                     DqnConfig(gamma=0.97, total_steps=30_000,
                               epsilon_decay_steps=12_000,
                               buffer_capacity=30_000, batch_size=64,
                               target_sync=200, seed=11))
print(f"trained on {len(result.episodes)} simulated episodes; "
      f"last-100 mean return {result.returns[-100:].mean():+.2f}")

greedy = policy_histogram(result.qnet, make_env(val_c.initial_states(), 1011),
                          500)
rand_env = make_env(val_c.initial_states(), 2011)
rand_rng = np.random.default_rng(3011)
uniform = lambda obs, t: int(rand_rng.integers(0, 25))
rand_returns = [rollout(rand_env, uniform).rewards.sum() for _ in range(500)]

print(f"\ngreedy mean return : {greedy.returns.mean():+.2f}")
print(f"random mean return : {np.mean(rand_returns):+.2f}")

top = np.argsort(greedy.action_counts)[::-1][:3]
for code in top:
    share = greedy.action_counts[code] / greedy.action_counts.sum()
    print(f"action {code:2d} (intensity {action_intensity(code):.0f}): "
          f"{share:.1%} of greedy choices")

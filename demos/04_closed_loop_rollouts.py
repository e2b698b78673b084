"""Replay physician actions through the learned simulator.

Teacher-forced evaluation feeds the model real histories and scores one-step
predictions.  Closed-loop replay is the harder test: the simulator consumes
its own outputs step after step, with only the recorded actions coming from
outside.  The normalized trajectory-mean gap summarizes how far the
simulated population drifts from the real one, feature by feature.
"""
import os

# one BLAS thread unless the caller chose: the matmuls here are small, and
# the default thread count makes them slow on a loaded machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from sepsim.data import (SyntheticDynamicsSpec, generate_synthetic_cohort,
                         prepare_cohorts)
from sepsim.dynamics import StateModelConfig, train_state_model
from sepsim.env import PatientEnv, replay_physician, rollout
from sepsim.evaluation import (closed_loop_trajectories,
                               normalized_trajectory_mean,
                               teacher_forced_eval, trajectory_matrices)
from sepsim.heads import train_heads
from sepsim.nn.training import TrainSchedule

spec = SyntheticDynamicsSpec.default(seed=21)
cohort = generate_synthetic_cohort(spec, 250)
train_c, val_c, stats = prepare_cohorts(cohort, 0.8, seed=21)

model, _ = train_state_model(
    StateModelConfig(variant="rnn", window=5, rnn_hidden=32), train_c,
    TrainSchedule(max_epochs=8, patience=8, batch_size=64, seed=0))
heads = train_heads(train_c, TrainSchedule(max_epochs=10, patience=10,
                                           batch_size=64, seed=0))

class _KeepLast:
    """Persistence baseline: predict no change from the latest state."""

    @staticmethod
    def predict_batch(window_states, window_actions):
        return window_states[:, -1, :]


tf = teacher_forced_eval(model, val_c)
persist = teacher_forced_eval(_KeepLast(), val_c, window=5)
print(f"teacher-forced MSE: {tf.mse:.4f} "
      f"(keep-last-state baseline: {persist.mse:.4f})")

env = PatientEnv(model, heads.termination, heads.outcome,
                 train_c.initial_states(), stats=stats, max_steps=30, seed=0)
replays = closed_loop_trajectories(env, val_c)
sim = [r.states for r in replays]   # real initial state, then the model's
real = [ep.states for ep in val_c.episodes]
real_m, sim_m = trajectory_matrices(real, sim)
report = normalized_trajectory_mean(real_m, sim_m)
print(f"closed-loop trajectory-mean gap: {report.mean_gap:.5f} "
      f"over {report.n_features} features")

worst = int(np.nanargmax(report.gaps))
print(f"worst feature: index {worst}, real {report.real_ntm[worst]:+.5f} "
      f"vs sim {report.sim_ntm[worst]:+.5f}")

# single-episode replay, step by step
episode = val_c.episodes[0]
trace = replay_physician(env, episode)
print(f"\nreplayed {episode.subject_id}: real length "
      f"{episode.states.shape[0]}, simulated length {trace.n_steps}")
print("simulated rewards:", np.round(trace.rewards, 2).tolist())

# any policy(obs, t) drives the same loop: here, no treatment from the same
# start until the simulator ends the stay
untreated = rollout(env, lambda obs, t: 0, initial_state=episode.states[0])
print(f"no treatment from the same start: simulated length "
      f"{untreated.n_steps}, return {untreated.rewards.sum():+.2f}")

"""Why the transition model has a mixture head.

Each step of the toy sequence jumps to +1 or -1 with equal probability, so
the conditional distribution of the next value is bimodal everywhere.  A
point predictor trained on squared error answers with the conditional mean
(about zero, a value the process never visits).  The mixture head instead
learns one component per branch, and sampling with a temperature knob shows
how the spread widens and narrows.
"""
import os

# one BLAS thread unless the caller chose: the matmuls here are small, and
# the default thread count makes them slow on a loaded machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from sepsim.dynamics import (StateModelConfig, build_training_sequences,
                             sample_next, train_on_sequences)
from sepsim.nn.training import TrainSchedule

gen = np.random.default_rng(0)
episodes = []
for _ in range(60):
    vals = gen.choice([-1.0, 1.0], size=12)[:, None]
    episodes.append((vals, np.zeros(12, dtype=int)))
data = build_training_sequences(episodes, window=10)
print(f"{data.n_rows} transition windows from {len(episodes)} episodes")

schedule = TrainSchedule(max_epochs=10, patience=10, batch_size=64, seed=0)
point, _ = train_on_sequences(
    StateModelConfig(variant="rnn", window=10, rnn_hidden=16, state_dim=1),
    data, data, schedule)
preds = point.predict_batch(*data.windows())
print(f"\npoint RNN mean prediction: {float(np.mean(preds)):+.3f} "
      "(stuck between the branches)")

mdn, _ = train_on_sequences(
    StateModelConfig(variant="mdn_rnn", window=10, rnn_hidden=16,
                     n_mixtures=2, state_dim=1),
    data, data,
    TrainSchedule(max_epochs=60, patience=60, batch_size=64, seed=0),
    learning_rate=1e-2)

params = mdn.predict_batch(*data.windows(slice(1)))[0]
print(f"\nmixture weights: {np.round(params.weights, 3)}")
print(f"component means: {np.round(params.means[:, 0], 3)}")

rng = np.random.default_rng(7)
print("\nlow temperature sharpens the weights, high temperature flattens them:")
for tau in (0.25, 1.0, 4.0):
    draws = np.array([sample_next(params, tau, rng)[0] for _ in range(2000)])
    plus_share = float(np.mean(draws > 0.0))
    within = float(draws[draws > 0.0].std())
    print(f"tau={tau:<4}: +1 branch share {plus_share:.3f}, "
          f"std within the branch {within:.4f}")

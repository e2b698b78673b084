"""Train the state autoencoders and compare reconstruction quality.

Both encoders map the 46 normalized features to a 30-dimensional code.  The
deterministic autoencoder only has to reconstruct; the variational one also
keeps its posterior near a unit Gaussian when beta > 0.  With this short
training budget the KL pressure wins quickly: already at beta=0.5 the
posterior collapses to the prior and reconstruction degrades to the
predict-the-mean baseline.  That is why the downstream pipeline defaults to
beta=0 and treats the stochastic encoder as a regularizer to switch on
deliberately.
"""
import os

# one BLAS thread unless the caller chose: the matmuls here are small, and
# the default thread count makes them slow on a loaded machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from sepsim.data import (SyntheticDynamicsSpec, generate_synthetic_cohort,
                         prepare_cohorts)
from sepsim.nn.training import TrainSchedule
from sepsim.vae import train_ae, train_vae

spec = SyntheticDynamicsSpec.default(seed=8)
cohort = generate_synthetic_cohort(spec, 200)
train_c, val_c, stats = prepare_cohorts(cohort, 0.8, seed=8)

train_states = np.concatenate([ep.states for ep in train_c.episodes])
val_states = np.concatenate([ep.states for ep in val_c.episodes])
print(f"train states {train_states.shape}, held-out {val_states.shape}")

baseline = float(np.mean((val_states - train_states.mean(axis=0)) ** 2))
print(f"predict-the-mean baseline MSE: {baseline:.4f}\n")

schedule = TrainSchedule(max_epochs=15, patience=15, batch_size=64, seed=0)
for beta in (0.0, 0.5):
    vae, history = train_vae(train_states, val_states, schedule, beta=beta)
    recon = float(np.mean((vae.reconstruct(val_states) - val_states) ** 2))
    note = " <- posterior collapse" if recon > 0.9 * baseline else ""
    print(f"VAE beta={beta}: held-out recon MSE {recon:.4f} "
          f"(best epoch {history.best_epoch}){note}")

ae, history = train_ae(train_states, val_states, schedule)
recon = float(np.mean((ae.reconstruct(val_states) - val_states) ** 2))
print(f"AE          : held-out recon MSE {recon:.4f} "
      f"(best epoch {history.best_epoch})")

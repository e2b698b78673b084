"""Generate a synthetic patient cohort and look at its shape.

The generator evolves a small latent state per patient, emits 46 observed
features per step, and ends each episode through a hazard that rises with
the severity axis.  Nothing here is learned; this is the ground truth the
rest of the toolkit trains against.
"""
import os

# one BLAS thread unless the caller chose: the matmuls here are small, and
# the default thread count makes them slow on a loaded machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from sepsim.data import (SyntheticDynamicsSpec, export_cohort,
                         generate_synthetic_cohort)

spec = SyntheticDynamicsSpec.default(seed=3, treatment_pull=0.5)
cohort = generate_synthetic_cohort(spec, 150)

lengths = np.array([ep.states.shape[0] for ep in cohort.episodes])
deaths = np.array([int(ep.outcome) for ep in cohort.episodes])

print(f"episodes        : {len(cohort.episodes)}")
print(f"total steps     : {lengths.sum()}")
print(f"length min/mean/max : {lengths.min()} / {lengths.mean():.1f} / {lengths.max()}")
print(f"death rate      : {deaths.mean():.3f}")

first = cohort.episodes[0]
print(f"\nfirst episode ({first.subject_id}): {first.states.shape[0]} steps, "
      f"outcome={first.outcome.name}")
print("feature 0 trace :", np.round(first.states[:, 0], 2))
print("actions         :", first.actions.tolist())

export_cohort(cohort, "cohort_demo.csv")
print("\nwrote cohort_demo.csv (one row per patient-step)")

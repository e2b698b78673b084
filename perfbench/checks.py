"""Correctness checks on a workload's outputs, and its quality metrics."""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import workloads


def file_hashes(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def fingerprint(hashes: dict[str, str]) -> str:
    """One sha256 over the sorted (path, sha256) pairs of a run's outputs."""
    text = "\n".join(f"{k} {v}" for k, v in sorted(hashes.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _float_or_none(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _json_numbers(node):
    """Yield every number in a JSON document, and the values of checkpoint
    tensors, which are stored as repr strings."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "values" and isinstance(value, list):
                yield from (float(v) for v in value)
            else:
                yield from _json_numbers(value)
    elif isinstance(node, list):
        for value in node:
            yield from _json_numbers(value)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield float(node)


def non_finite_outputs(root: Path) -> list[str]:
    """Files under ``root`` holding a NaN or infinite number."""
    bad = []
    for path in sorted(root.rglob("*")):
        if path.suffix == ".json":
            doc = json.loads(path.read_text(encoding="utf-8"))
            numbers = _json_numbers(doc)
        elif path.suffix == ".csv":
            with path.open(newline="", encoding="utf-8") as fh:
                cells = (c for row in csv.reader(fh) for c in row)
                numbers = [v for v in map(_float_or_none, cells) if v is not None]
        else:
            continue
        if not all(math.isfinite(v) for v in numbers):
            bad.append(str(path.relative_to(root)))
    return bad


# A score at or above this share of its predict-the-mean baseline fails the
# run. At the benchmark's sizes the scores sit at about 0.25 (recon_mse),
# 0.09 (tf_mse_rnn) and 0.35-0.47 (tf_mse_vae_mdn_rnn) of their baselines
# over seeds 1-10. A model that predicts a constant scores 1.0 or worse.
QUALITY_LIMITS = {"recon_mse": 0.6, "tf_mse_rnn": 0.5, "tf_mse_vae_mdn_rnn": 0.7}


def quality_problems(scores: dict) -> list[str]:
    problems = []
    for name, (score, baseline) in scores.items():
        if not (math.isfinite(score) and score < QUALITY_LIMITS[name] * baseline):
            problems.append(f"{name} = {score!r}, not below "
                            f"{QUALITY_LIMITS[name]} x {baseline!r}")
    return problems


def quality(prep: Path, models: Path, seed: int,
            episodes: int | None = None) -> dict:
    """Held-out scores of the checkpoints under ``models``, each with the
    score of predicting the mean, as ``{name: (score, baseline)}``.

    recon_mse is the VAE's reconstruction error on the validation split;
    tf_mse_<variant> is the teacher-forced one-step error on its first
    ``episodes`` episodes (all by default), as the eval stage computes it.
    """
    import numpy as np
    from sepsim.data import Cohort, load_cohort, prepare_cohorts
    from sepsim.dynamics import StateModel
    from sepsim.evaluation import teacher_forced_eval
    from sepsim.vae import load_encoder

    def mean_baseline(values):
        return float(np.mean((values - values.mean(axis=0)) ** 2))

    cohort = load_cohort(workloads.cohort_path(prep))
    _, val, _ = prepare_cohorts(cohort, fraction=workloads.SPLIT_FRACTION,
                                seed=seed)
    states = val.all_states()
    vae = load_encoder(workloads.latent_checkpoints(models)["encoder"])
    recon = float(np.mean((vae.reconstruct(states) - states) ** 2))
    scores = {"recon_mse": (recon, mean_baseline(states))}
    subset = Cohort(val.episodes[:episodes], val.feature_names,
                    val.normalization)
    for name, ckpts, encoder in (
            ("rnn", workloads.raw_checkpoints(models), None),
            ("vae_mdn_rnn", workloads.latent_checkpoints(models), vae)):
        model = StateModel.load(ckpts["state"])
        report = teacher_forced_eval(model, subset, encoder=encoder)
        scores[f"tf_mse_{name}"] = (report.mse, mean_baseline(report.targets))
    return scores

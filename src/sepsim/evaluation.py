"""Evaluation harness: teacher-forced prediction sweeps, closed-loop rollouts
replaying recorded actions, the normalized trajectory mean metric, and
policy-distribution comparisons between recorded and learned behavior.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .checkpoint import csv_file, csv_lines, float_cells, write_table
from .data import ACTION_COUNT, Cohort, NormalizationStats, PatientEpisode
from .dynamics import build_training_sequences, sample_next
from .env import PatientEnv, ReplayTrajectory, RewardSpec, replay_physician

NTM_MODES = ("sumsq", "rms")
RETURN_BINS = 20   # equal-width bins of the return histograms


@dataclass(frozen=True)
class TrajectoryMatrix:
    """Rectangular (rollouts, timesteps, features) block, zero-imputed.

    mask[r, t] is True where row r actually had data at step t; imputed
    cells hold 0 and mask False.
    """

    values: np.ndarray
    mask: np.ndarray
    source: str

    def __post_init__(self):
        if self.values.ndim != 3:
            raise ValueError("values must be (rollouts, timesteps, features)")
        if self.mask.shape != self.values.shape[:2]:
            raise ValueError("mask must be (rollouts, timesteps)")
        if self.source not in ("real", "simulated"):
            raise ValueError(f"unknown source tag {self.source!r}")
        if not np.isfinite(self.values).all():
            raise ValueError("trajectory values must be finite")

    @property
    def horizon(self) -> int:
        return self.values.shape[1]

    @property
    def n_features(self) -> int:
        return self.values.shape[2]


def build_trajectory_matrix(trajectories: Sequence[np.ndarray], source: str,
                            horizon: int | None = None) -> TrajectoryMatrix:
    """Stack variable-length (L_i, F) rollouts, zero-imputing to a common T."""
    if not trajectories:
        raise ValueError("need at least one trajectory")
    arrays = [np.asarray(t, dtype=np.float64) for t in trajectories]
    n_features = arrays[0].shape[1]
    for a in arrays:
        if a.ndim != 2 or a.shape[1] != n_features:
            raise ValueError("trajectories must share a feature count")
    horizon = horizon if horizon is not None else max(a.shape[0] for a in arrays)
    if horizon < max(a.shape[0] for a in arrays):
        raise ValueError("horizon shorter than the longest trajectory")
    values = np.zeros((len(arrays), horizon, n_features))
    mask = np.zeros((len(arrays), horizon), dtype=bool)
    for i, a in enumerate(arrays):
        values[i, :a.shape[0]] = a
        mask[i, :a.shape[0]] = True
    return TrajectoryMatrix(values, mask, source)


def trajectory_matrices(real: Sequence[np.ndarray], sim: Sequence[np.ndarray],
                        ) -> tuple[TrajectoryMatrix, TrajectoryMatrix]:
    """Build both matrices at the max episode length across the two sets."""
    horizon = max(max(np.asarray(t).shape[0] for t in real),
                  max(np.asarray(t).shape[0] for t in sim))
    return (build_trajectory_matrix(real, "real", horizon),
            build_trajectory_matrix(sim, "simulated", horizon))


@dataclass(frozen=True)
class NtmReport:
    real_ntm: np.ndarray     # (F,), nan where degenerate
    sim_ntm: np.ndarray      # (F,)
    gaps: np.ndarray         # (F,) |sim - real|
    degenerate: np.ndarray   # (F,) bool, real feature had zero norm
    mode: str

    @property
    def n_features(self) -> int:
        return self.gaps.shape[0]

    @property
    def mean_gap(self) -> float:
        ok = ~self.degenerate
        if not ok.any():
            raise ValueError("every feature is degenerate; no gap to average")
        return float(np.mean(self.gaps[ok]))


def normalized_trajectory_mean(real: TrajectoryMatrix, sim: TrajectoryMatrix,
                               mode: str = "sumsq") -> NtmReport:
    """Per-feature grid mean divided by the real data's per-feature norm.

    The default norm is the plain sum of squares of the real values, so the
    metric is not scale-free across features; mode="rms" divides by the
    root-mean-square of the real values present instead.  Imputed zeros
    count toward each grid mean but never change either norm.
    """
    if mode not in NTM_MODES:
        raise ValueError(f"mode must be one of {NTM_MODES}")
    if real.n_features != sim.n_features:
        raise ValueError("feature counts differ")
    if real.horizon != sim.horizon:
        raise ValueError("matrices must share a horizon; impute first")
    sumsq = np.einsum("rtf,rtf->f", real.values, real.values)
    if mode == "sumsq":
        norm = sumsq
    else:
        norm = np.sqrt(sumsq / max(int(real.mask.sum()), 1))
    degenerate = norm == 0.0
    safe = np.where(degenerate, 1.0, norm)
    real_ntm = real.values.mean(axis=(0, 1)) / safe
    sim_ntm = sim.values.mean(axis=(0, 1)) / safe
    real_ntm[degenerate] = np.nan
    sim_ntm[degenerate] = np.nan
    gaps = np.abs(sim_ntm - real_ntm)
    return NtmReport(real_ntm, sim_ntm, gaps, degenerate, mode)


@dataclass(frozen=True)
class TeacherForcedReport:
    """One-step-ahead predictions with the true history always supplied."""

    predictions: np.ndarray           # (n, d) point or mixture-mean
    sampled: np.ndarray | None        # (n, d) one draw per row, mixture only
    targets: np.ndarray               # (n, d)
    subjects: tuple[str, ...]

    @property
    def mse(self) -> float:
        return float(np.mean((self.predictions - self.targets) ** 2))

    @property
    def sample_mse(self) -> float | None:
        if self.sampled is None:
            return None
        return float(np.mean((self.sampled - self.targets) ** 2))


def teacher_forced_eval(model, cohort: Cohort, encoder=None,
                        sample_rng: np.random.Generator | None = None,
                        window: int | None = None) -> TeacherForcedReport:
    """Sweep every transition, predicting one step ahead from true history.

    Mixture outputs are scored at the mixture mean; when sample_rng is
    given each row also gets a single temperature-1 draw. A state model's
    mixtures stay one batch (`StateModel.predict_stacked`): their means are
    one stacked product and their draws one batched `sample_next`, row by
    row in order. Any other model only needs a predict_batch method that
    returns point estimates, so simple baselines can stand in.
    """
    win = window if window is not None else getattr(model, "config").window
    data = build_training_sequences(cohort, window=win, encoder=encoder)
    sampled = None
    if getattr(getattr(model, "config", None), "uses_mdn", False):
        mixtures = model.predict_stacked(*data.windows())
        predictions = mixtures.mixture_mean()
        if sample_rng is not None:
            sampled = sample_next(mixtures, 1.0, sample_rng)
    else:
        predictions = np.asarray(model.predict_batch(*data.windows()),
                                 dtype=np.float64)
    return TeacherForcedReport(predictions, sampled, data.targets, data.subjects)


def closed_loop_trajectories(env: PatientEnv, cohort: Cohort,
                             ) -> list[ReplayTrajectory]:
    """Replay each recorded action sequence through the simulator, in
    cohort order, on one env.

    Each trajectory's `states` is (steps+1, 46): the real initial state
    followed by model-generated observations only.
    """
    return [replay_physician(env, episode) for episode in cohort.episodes]


def episode_return(episode: PatientEpisode, spec: RewardSpec,
                   stats: NormalizationStats | None = None) -> float:
    """Return the recorded episode earns under a reward formulation: its
    steps' `RewardSpec.step_reward` as one run, ended by its outcome.

    Shaped rewards score the L-1 recorded transitions (de-normalized when
    stats are given); the intensity penalty charges every recorded action.
    """
    states = episode.states
    return spec.step_reward(episode.actions, episode.outcome, states[:-1],
                            states[1:], stats)


@dataclass(frozen=True)
class HistogramPair:
    edges: np.ndarray
    real_counts: np.ndarray
    sim_counts: np.ndarray


@dataclass(frozen=True)
class PolicyComparison:
    action_counts_real: np.ndarray   # (25,)
    action_counts_sim: np.ndarray    # (25,)
    lengths: HistogramPair
    returns: HistogramPair
    collapse_real: bool
    collapse_sim: bool


def _collapsed(counts: np.ndarray) -> bool:
    total = counts.sum()
    return bool(total > 0 and counts.max() / total > 0.9)


def compare_policy_distributions(physician: Cohort, agent_rollouts,
                                 reward_spec: RewardSpec | None = None,
                                 stats: NormalizationStats | None = None
                                 ) -> PolicyComparison:
    """Aligned action/length/return histograms, physician vs learned policy.

    agent_rollouts needs action_counts, lengths, and returns attributes
    (the shape produced by greedy simulator rollouts).
    """
    if physician.n_episodes == 0:
        raise ValueError("physician cohort is empty")
    if agent_rollouts.lengths.shape[0] == 0:
        raise ValueError("agent rollouts are empty")
    spec = reward_spec or RewardSpec()
    real_actions = np.concatenate([e.actions for e in physician.episodes])
    action_real = np.bincount(real_actions, minlength=ACTION_COUNT)
    action_sim = np.asarray(agent_rollouts.action_counts, dtype=np.int64)
    real_lengths = np.array([e.length for e in physician.episodes])
    sim_lengths = np.asarray(agent_rollouts.lengths)
    max_len = int(max(real_lengths.max(), sim_lengths.max()))
    length_edges = np.arange(0.5, max_len + 1.5)
    lengths = HistogramPair(length_edges,
                            np.histogram(real_lengths, bins=length_edges)[0],
                            np.histogram(sim_lengths, bins=length_edges)[0])
    real_returns = np.array([episode_return(e, spec, stats)
                             for e in physician.episodes])
    sim_returns = np.asarray(agent_rollouts.returns, dtype=np.float64)
    lo = min(real_returns.min(), sim_returns.min())
    hi = max(real_returns.max(), sim_returns.max())
    if math.isclose(lo, hi):
        lo, hi = lo - 0.5, hi + 0.5
    return_edges = np.linspace(lo, hi, RETURN_BINS + 1)
    # np.histogram drops values above the last edge unless it is inclusive;
    # widen by a hair so the top return lands inside.
    return_edges[-1] = np.nextafter(return_edges[-1], np.inf)
    returns = HistogramPair(return_edges,
                            np.histogram(real_returns, bins=return_edges)[0],
                            np.histogram(sim_returns, bins=return_edges)[0])
    return PolicyComparison(action_real, action_sim, lengths, returns,
                            _collapsed(action_real), _collapsed(action_sim))


NTM_HEADER = ("feature", "real_ntm", "sim_ntm", "abs_gap", "degenerate")


def ntm_rows(report: NtmReport, feature_names: Sequence[str]) -> list[list]:
    """One NTM_HEADER row per feature."""
    if len(feature_names) != report.n_features:
        raise ValueError("feature name count mismatch")
    cells = float_cells(np.column_stack([report.real_ntm, report.sim_ntm,
                                         report.gaps]))
    return [[name, *cells[3 * i:3 * i + 3], int(degenerate)]
            for i, (name, degenerate) in enumerate(zip(feature_names,
                                                       report.degenerate))]


def write_series_csv(path, variant: str, feature_names: Sequence[str],
                     real_rows: Sequence, sim_rows: Sequence) -> None:
    """Tidy plot export: one line per (variant, feature, t) pair.

    real_rows and sim_rows are parallel per-episode series, each the
    `float_cells` of a (T, F) array (its text, row by row), so a caller
    that writes the same rows elsewhere formats them once; episode index is
    included so plots can facet. An episode's lines run over its first
    min(T_real, T_sim) steps, feature by feature, and each (episode,
    feature) block's lead cells are checked once (`csv_lines`).
    """
    if len(real_rows) != len(sim_rows):
        raise ValueError("real and simulated episode counts differ")
    width = len(feature_names)

    def lines():
        for ep, (reals, sims) in enumerate(zip(real_rows, sim_rows)):
            steps = min(len(reals), len(sims)) // width
            ts = list(map(str, range(steps)))
            end = steps * width
            for f, name in enumerate(feature_names):
                yield from csv_lines((variant, ep, name),
                                     (ts, reals[f:end:width], sims[f:end:width]))

    with csv_file(path, ("variant", "episode", "feature", "t", "real",
                         "sim")) as write:
        write(lines())


def write_histograms_csv(comparison: PolicyComparison, path) -> None:
    """All three histogram families in one long-form CSV."""
    rows = [["action", code, int(real), int(sim)] for code, (real, sim)
            in enumerate(zip(comparison.action_counts_real,
                             comparison.action_counts_sim))]
    for pair, family in ((comparison.lengths, "length"),
                         (comparison.returns, "return")):
        rows += ([family, label, int(real), int(sim)] for label, real, sim
                 in zip(float_cells(pair.edges[:-1]), pair.real_counts,
                        pair.sim_counts))
    write_table(path, ["family", "bin", "real", "sim"], rows)

"""Episodic dataset model: schema, action codec, CSV ingestion/export,
normalization, splitting, and a synthetic cohort generator.

An episode is one patient stay: a sequence of 46-feature state vectors, one
discrete action (0..24) per step, a single terminal step at the end, and a
Death/Release outcome. Cohorts loaded from CSV are raw; normalization is a
separate, explicit stage so that statistics can be computed from the training
split alone. `load_cohort` parses a CSV file once: later loads of the same
bytes under the same `CsvSchema` read the cohort back from the file's binary
sidecar (see `checkpoint.load_parsed`).
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .checkpoint import csv_file, csv_lines, float_cells, load_parsed
from .nn.tensor import sigmoid_np

N_FEATURES = 46
N_DOSE_BINS = 5
ACTION_COUNT = N_DOSE_BINS * N_DOSE_BINS

# stds below this are treated as constant columns and clamped to 1.0
STD_CLAMP = 1e-12


class Outcome(IntEnum):
    RELEASE = 0
    DEATH = 1


# ---- action codec -----------------------------------------------------------
# Packing is iv-major: code = 5 * iv_bin + vaso_bin.


def encode_action(iv_bin: int, vaso_bin: int) -> int:
    if not (0 <= iv_bin < N_DOSE_BINS and 0 <= vaso_bin < N_DOSE_BINS):
        raise ValueError(f"dose bins must be in [0, {N_DOSE_BINS - 1}], "
                         f"got iv={iv_bin} vaso={vaso_bin}")
    return N_DOSE_BINS * iv_bin + vaso_bin


def decode_action(code: int) -> tuple[int, int]:
    if not isinstance(code, (int, np.integer)) and not float(code).is_integer():
        raise ValueError(f"action code must be an integer, got {code!r}")
    code = int(code)
    if not 0 <= code < ACTION_COUNT:
        raise ValueError(f"action code must be in [0, {ACTION_COUNT - 1}], got {code}")
    return code // N_DOSE_BINS, code % N_DOSE_BINS


def action_intensity(code: int) -> float:
    iv_bin, vaso_bin = decode_action(code)
    return float(iv_bin + vaso_bin)


# ---- core types -------------------------------------------------------------


@dataclass(frozen=True)
class PatientEpisode:
    subject_id: str
    states: np.ndarray      # (length, 46)
    actions: np.ndarray     # (length,) int, values 0..24
    outcome: Outcome

    def __post_init__(self):
        states = np.ascontiguousarray(self.states, dtype=np.float64)
        actions = np.asarray(self.actions)
        if actions.dtype.kind not in "iu":
            codes = actions.astype(np.float64)
            whole = np.isfinite(codes) & (codes == np.trunc(codes))
            if not whole.all():
                raise ValueError(f"non-integer action codes in episode "
                                 f"{self.subject_id!r}: {codes[~whole].tolist()}")
            # codes out of range stay out of range, without overflowing int64
            actions = np.clip(codes, -1, ACTION_COUNT)
        actions = np.asarray(actions, dtype=np.int64)
        if states.ndim != 2 or states.shape[1] != N_FEATURES:
            raise ValueError(f"states must be (length, {N_FEATURES}), got {states.shape}")
        if states.shape[0] < 1:
            raise ValueError("episode must contain at least one step")
        # the ufunc reductions that ndarray.all, .min and .max call
        if not np.logical_and.reduce(np.isfinite(states), axis=None):
            raise ValueError(f"non-finite state values in episode {self.subject_id!r}")
        if actions.shape != (states.shape[0],):
            raise ValueError(f"actions shape {actions.shape} does not match "
                             f"{states.shape[0]} steps")
        # `actions` has one entry per step, so at least one
        if (np.minimum.reduce(actions) < 0
                or np.maximum.reduce(actions) >= ACTION_COUNT):
            raise ValueError(f"action codes out of range in episode {self.subject_id!r}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "outcome", Outcome(self.outcome))

    @property
    def length(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class NormalizationStats:
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        if mean.shape != (N_FEATURES,) or std.shape != (N_FEATURES,):
            raise ValueError(f"stats must have shape ({N_FEATURES},)")
        if np.any(std <= 0):
            raise ValueError("std entries must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    def normalize(self, states: np.ndarray) -> np.ndarray:
        return (np.asarray(states, dtype=np.float64) - self.mean) / self.std

    def denormalize(self, states: np.ndarray) -> np.ndarray:
        return np.asarray(states, dtype=np.float64) * self.std + self.mean


@dataclass(frozen=True)
class Cohort:
    episodes: tuple[PatientEpisode, ...]
    feature_names: tuple[str, ...]
    normalization: NormalizationStats | None = None

    def __post_init__(self):
        object.__setattr__(self, "episodes", tuple(self.episodes))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if len(self.feature_names) != N_FEATURES:
            raise ValueError(f"expected {N_FEATURES} feature names, "
                             f"got {len(self.feature_names)}")

    @property
    def n_episodes(self) -> int:
        return len(self.episodes)

    def all_states(self) -> np.ndarray:
        return np.concatenate([ep.states for ep in self.episodes], axis=0)

    def initial_states(self) -> np.ndarray:
        return np.stack([ep.states[0] for ep in self.episodes])


def default_feature_names() -> tuple[str, ...]:
    return tuple(f"f_{i}" for i in range(N_FEATURES))


# ---- CSV ingestion / export -------------------------------------------------


@dataclass(frozen=True)
class CsvSchema:
    """Column-name map for episode CSV files.

    `features` lists the 46 feature columns in order; None means "every column
    not otherwise claimed, in file order".
    """

    subject_id: str = "subject_id"
    step: str = "step"
    action: str = "action"
    terminal: str = "terminal"
    outcome: str = "outcome"
    features: tuple[str, ...] | None = None


def _parse_number(cell: str, column: str, row_index: int, caster):
    try:
        return caster(cell)
    except (TypeError, ValueError):
        raise ValueError(
            f"non-numeric value {cell!r} in column {column!r} at data row {row_index}"
        ) from None


def load_cohort(path, schema: CsvSchema | None = None) -> Cohort:
    """Read an episode CSV into a raw (un-normalized) Cohort.

    Episodes are grouped by subject id (first-appearance order) and sorted by
    step within each subject. Every episode must end with exactly one terminal
    row carrying the outcome. Each episode owns its arrays.
    """
    schema = schema or CsvSchema()
    meta, (states, actions, lengths, outcomes) = load_parsed(
        path, lambda data: _cohort_arrays(_parse_cohort(data, schema)),
        ["load_cohort", asdict(schema)])
    ends = np.cumsum(lengths).tolist()
    episodes = (PatientEpisode(sid, states[start:end].copy(),
                               actions[start:end].copy(), outcome)
                for sid, start, end, outcome in zip(meta["subject_ids"],
                                                    [0, *ends], ends,
                                                    outcomes.tolist()))
    return Cohort(tuple(episodes), meta["feature_names"])


def _cohort_arrays(cohort: Cohort) -> tuple[dict, list[np.ndarray]]:
    """A cohort as plain arrays: all states stacked, all actions joined,
    each episode's length and outcome; the names go in the JSON part."""
    eps = cohort.episodes
    meta = {"subject_ids": [ep.subject_id for ep in eps],
            "feature_names": list(cohort.feature_names)}
    return meta, [np.vstack([np.empty((0, N_FEATURES)), *(ep.states for ep in eps)]),
                  np.concatenate([np.empty(0, np.int64), *(ep.actions for ep in eps)]),
                  np.array([ep.length for ep in eps], dtype=np.int64),
                  np.array([int(ep.outcome) for ep in eps], dtype=np.int64)]


def _parse_cohort(data: bytes, schema: CsvSchema) -> Cohort:
    # decoded as open(newline="", encoding="utf-8") decodes the file; a
    # repeated column name reads its last column, blank lines are skipped,
    # and the cells a short row lacks read as None
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        claimed = {schema.subject_id, schema.step, schema.action,
                   schema.terminal, schema.outcome}
        for col in sorted(claimed):
            if col not in header:
                raise ValueError(f"schema error: missing column {col!r}")
        if schema.features is None:
            feature_cols = tuple(c for c in header if c not in claimed)
        else:
            feature_cols = tuple(schema.features)
            for col in feature_cols:
                if col not in header:
                    raise ValueError(f"schema error: missing feature column {col!r}")
        if len(feature_cols) != N_FEATURES:
            raise ValueError(f"schema error: expected {N_FEATURES} feature columns, "
                             f"found {len(feature_cols)}")

        columns = [(schema.step, int), *((c, float) for c in feature_cols),
                   (schema.action, int), (schema.terminal, int)]
        # subject -> list of (step, features, action, terminal, outcome)
        groups: dict[str, list] = {}
        for i, row in enumerate(reader):
            step, *feats, action, terminal = [_parse_number(row[c], c, i, caster)
                                              for c, caster in columns]
            if terminal not in (0, 1):
                raise ValueError(f"terminal flag must be 0 or 1 at data row {i}")
            outcome_cell = (row[schema.outcome] or "").strip()
            outcome = None
            if outcome_cell != "":
                outcome = _parse_number(outcome_cell, schema.outcome, i, int)
            groups.setdefault(row[schema.subject_id], []).append(
                (step, np.array(feats), action, terminal, outcome))

    episodes = []
    for sid, rows in groups.items():
        rows.sort(key=lambda r: r[0])
        steps, states, actions, terminals, outcomes = zip(*rows)
        if len(set(steps)) != len(steps):
            raise ValueError(f"duplicate step values for subject {sid!r}")
        if sum(terminals) != 1 or terminals[-1] != 1:
            raise ValueError(f"subject {sid!r} must have exactly one terminal row, "
                             "at the final step")
        if any(o is not None for o in outcomes[:-1]) or outcomes[-1] is None:
            raise ValueError(f"subject {sid!r} must carry the outcome on the "
                             "terminal row only")
        episodes.append(PatientEpisode(sid, np.stack(states), np.array(actions),
                                       Outcome(outcomes[-1])))
    return Cohort(tuple(episodes), feature_cols)


def export_cohort(cohort: Cohort, path, state_cells=None) -> None:
    """Write a cohort back to CSV; a reload is exact (see `float_cells`).

    A caller that has formatted the episodes' states already passes
    `state_cells`, one `float_cells` list per episode, whose first
    `length * 46` cells are the episode's states; they are not formatted
    again. Each row is one line built from the episode's subject id,
    checked once per episode, and cells already made (`csv_lines`)."""
    def lines():
        for i, ep in enumerate(cohort.episodes):
            cells = float_cells(ep.states) if state_cells is None else state_cells[i]
            n, end = ep.length, ep.length * N_FEATURES
            yield from csv_lines((ep.subject_id,), (
                map(str, range(n)),
                *(cells[f:end:N_FEATURES] for f in range(N_FEATURES)),
                map(str, ep.actions.tolist()),
                ["0"] * (n - 1) + ["1"],
                [""] * (n - 1) + [str(int(ep.outcome))]))

    with csv_file(path, ["subject_id", "step", *cohort.feature_names, "action",
                         "terminal", "outcome"]) as write:
        write(lines())


def write_stats_json(stats: NormalizationStats, feature_names, path) -> None:
    payload = {"feature_names": list(feature_names),
               "mean": float_cells(stats.mean), "std": float_cells(stats.std)}
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


# ---- normalization and splitting --------------------------------------------


def compute_normalization(cohort: Cohort) -> NormalizationStats:
    """Per-feature mean/std over every row of the given cohort (population
    std); near-constant columns get std clamped to 1.0."""
    states = cohort.all_states()
    mean = states.mean(axis=0)
    std = states.std(axis=0)
    std = np.where(std < STD_CLAMP, 1.0, std)
    return NormalizationStats(mean, std)


def normalize_cohort(cohort: Cohort, stats: NormalizationStats) -> Cohort:
    episodes = tuple(PatientEpisode(ep.subject_id, stats.normalize(ep.states),
                                    ep.actions, ep.outcome)
                     for ep in cohort.episodes)
    return Cohort(episodes, cohort.feature_names, stats)


def split_cohort(cohort: Cohort, fraction: float, seed: int) -> tuple[Cohort, Cohort]:
    """Episode-level train/validation split, deterministic under seed."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"split fraction must be in (0, 1), got {fraction}")
    n = cohort.n_episodes
    if n < 2:
        raise ValueError("need at least 2 episodes to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = int(round(fraction * n))
    n_train = min(max(n_train, 1), n - 1)
    train_idx = np.sort(order[:n_train])
    val_idx = np.sort(order[n_train:])
    pick = lambda idx: Cohort(tuple(cohort.episodes[i] for i in idx),
                              cohort.feature_names, cohort.normalization)
    return pick(train_idx), pick(val_idx)


def prepare_cohorts(cohort: Cohort, fraction: float = 0.8, seed: int = 0,
                    ) -> tuple[Cohort, Cohort, NormalizationStats]:
    """Split a raw cohort, fit normalization on the training half only, and
    return both halves normalized."""
    if cohort.normalization is not None:
        raise ValueError("prepare_cohorts expects a raw (un-normalized) cohort")
    train_raw, val_raw = split_cohort(cohort, fraction, seed)
    stats = compute_normalization(train_raw)
    return normalize_cohort(train_raw, stats), normalize_cohort(val_raw, stats), stats


# ---- synthetic cohort generator ----------------------------------------------


@dataclass(frozen=True)
class SyntheticDynamicsSpec:
    """Ground-truth latent dynamics for generated cohorts.

    Latents evolve as h' = tanh(drift @ h + action_effects[a] + noise); states
    are a linear emission of the latent plus observation noise; termination
    hazard and death probability are sigmoids of latent projections.
    """

    latent_dim: int
    drift_matrix: np.ndarray        # (latent_dim, latent_dim)
    action_effects: np.ndarray      # (25, latent_dim)
    emission_matrix: np.ndarray     # (46, latent_dim)
    noise_scale: float
    hazard_coeffs: np.ndarray       # (latent_dim,)
    outcome_coeffs: np.ndarray      # (latent_dim,)
    seed: int
    step_bias: float = -3.0         # additive hazard bias; more negative = longer stays
    obs_noise_scale: float = 0.05
    init_scale: float = 1.0
    max_len: int = 50

    def __post_init__(self):
        d = self.latent_dim
        object.__setattr__(self, "drift_matrix",
                           np.asarray(self.drift_matrix, dtype=np.float64))
        object.__setattr__(self, "action_effects",
                           np.asarray(self.action_effects, dtype=np.float64))
        object.__setattr__(self, "emission_matrix",
                           np.asarray(self.emission_matrix, dtype=np.float64))
        object.__setattr__(self, "hazard_coeffs",
                           np.asarray(self.hazard_coeffs, dtype=np.float64))
        object.__setattr__(self, "outcome_coeffs",
                           np.asarray(self.outcome_coeffs, dtype=np.float64))
        if self.drift_matrix.shape != (d, d):
            raise ValueError(f"drift_matrix must be ({d}, {d})")
        if self.action_effects.shape != (ACTION_COUNT, d):
            raise ValueError(f"action_effects must be ({ACTION_COUNT}, {d})")
        if self.emission_matrix.shape != (N_FEATURES, d):
            raise ValueError(f"emission_matrix must be ({N_FEATURES}, {d})")
        if self.hazard_coeffs.shape != (d,) or self.outcome_coeffs.shape != (d,):
            raise ValueError(f"hazard/outcome coeffs must be ({d},)")
        radius = float(np.abs(np.linalg.eigvals(self.drift_matrix)).max())
        if radius >= 1.0:
            raise ValueError(f"drift_matrix spectral radius must be < 1, got {radius:.4f}")
        if not self.noise_scale >= 0:
            raise ValueError("noise_scale must be >= 0")
        if not self.max_len >= 1:
            raise ValueError("max_len must be >= 1")

    @classmethod
    def default(cls, seed: int = 0, latent_dim: int = 8,
                drift_strength: float = 0.85, action_scale: float = 0.15,
                noise_scale: float = 0.05, treatment_pull: float = 0.0,
                **overrides) -> "SyntheticDynamicsSpec":
        """Random but well-conditioned spec; matrices derive from `seed`.

        treatment_pull > 0 makes higher-intensity actions push the first
        latent coordinate (the "severity" axis that drives the hazard and
        death probability) downward, so treatment genuinely helps.
        """
        if not latent_dim >= 1:
            raise ValueError(f"latent_dim must be >= 1, got {latent_dim}")
        rng = np.random.default_rng(seed)
        drift = rng.normal(size=(latent_dim, latent_dim))
        drift *= drift_strength / np.abs(np.linalg.eigvals(drift)).max()
        effects = action_scale * rng.normal(size=(ACTION_COUNT, latent_dim))
        if treatment_pull:
            for code in range(ACTION_COUNT):
                effects[code, 0] -= treatment_pull * action_intensity(code) / 8.0
        emission = rng.normal(size=(N_FEATURES, latent_dim))
        hazard = np.zeros(latent_dim)
        hazard[0] = 2.0                       # severity raises the hazard
        outcome = np.zeros(latent_dim)
        outcome[0] = 3.0                      # and the death probability
        kwargs = dict(latent_dim=latent_dim, drift_matrix=drift,
                      action_effects=effects, emission_matrix=emission,
                      noise_scale=noise_scale, hazard_coeffs=hazard,
                      outcome_coeffs=outcome, seed=seed)
        kwargs.update(overrides)              # explicit overrides win
        return cls(**kwargs)


def generate_synthetic_cohort(spec: SyntheticDynamicsSpec, n_episodes: int,
                              policy=None) -> Cohort:
    """Simulate a raw cohort from ground-truth dynamics.

    policy(rng, latent, t) -> action code; None means uniform random actions.
    Reproducible: a fixed (spec, n_episodes, policy) always yields the same
    cohort.
    """
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be >= 1, got {n_episodes}")
    children = np.random.SeedSequence(spec.seed).spawn(n_episodes)
    episodes = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        h = spec.init_scale * rng.normal(size=spec.latent_dim)
        states, actions = [], []
        for t in range(spec.max_len):
            s = spec.emission_matrix @ h + spec.obs_noise_scale * rng.normal(size=N_FEATURES)
            if policy is None:
                a = int(rng.integers(ACTION_COUNT))
            else:
                a = int(policy(rng, h, t))
            states.append(s)
            actions.append(a)
            p_term = float(sigmoid_np(spec.hazard_coeffs @ h + spec.step_bias))
            if t == spec.max_len - 1 or rng.random() < p_term:
                break
            h = np.tanh(spec.drift_matrix @ h + spec.action_effects[a]
                        + spec.noise_scale * rng.normal(size=spec.latent_dim))
        p_death = float(sigmoid_np(spec.outcome_coeffs @ h))
        outcome = Outcome.DEATH if rng.random() < p_death else Outcome.RELEASE
        episodes.append(PatientEpisode(f"synth-{i:05d}", np.stack(states),
                                       np.array(actions), outcome))
    return Cohort(tuple(episodes), default_feature_names())

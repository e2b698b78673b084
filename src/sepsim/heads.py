"""Episode-termination and outcome classifiers.

Both heads consume [state-or-latent features, one-hot action, normalized step
number] and emit a probability through a small ReLU stack with a sigmoid
output. The termination head is trained on every step (label: is this the
final step), the outcome head on terminal steps only (label: death).

`predict_proba` (one row, as the environment asks) and `predict_proba_batch`
share one arithmetic, `_proba`, and differ only in how they check their
input: a plain row is checked without the batch's array conversions, and any
other input is converted, or refused with the batch's message, by `_features`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .data import ACTION_COUNT, Cohort, Outcome, split_cohort
from .nn.layers import UNINITIALIZED, MLP, Module
from .nn.losses import bce_with_logits
from .nn.optim import Adam
from .nn.tensor import Tensor, sigmoid_np
from .nn.training import History, TrainSchedule, fit

HEAD_HIDDEN = (64, 32)
DEFAULT_STEP_NORM = 50.0

HEAD_KINDS = ("termination", "outcome")


class BinaryHead(Module):
    """Dense stack over [features (d), one-hot action (25), step/step_norm]."""

    def __init__(self, kind: str, state_dim: int,
                 step_norm: float = DEFAULT_STEP_NORM,
                 rng: np.random.Generator | None = None):
        if kind not in HEAD_KINDS:
            raise ValueError(f"kind must be one of {HEAD_KINDS}, got {kind!r}")
        if not step_norm > 0:
            raise ValueError("step_norm must be positive")
        self.kind = kind
        # sha256 of the encoder file a loaded checkpoint was trained with
        self.encoder_sha256: str | None = None
        self.state_dim = int(state_dim)
        self.step_norm = float(step_norm)
        rng = rng if rng is not None else np.random.default_rng(0)
        self.net = MLP((self.state_dim + ACTION_COUNT + 1, *HEAD_HIDDEN, 1),
                       hidden_activation="relu", output_activation="linear",
                       rng=rng)

    def _features(self, states: np.ndarray, actions: np.ndarray,
                  steps: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if states.shape[1] != self.state_dim:
            raise ValueError(f"expected {self.state_dim} state features, "
                             f"got {states.shape[1]}")
        actions = np.atleast_1d(np.asarray(actions, dtype=np.int64))
        steps = np.atleast_1d(np.asarray(steps, dtype=np.float64))
        n, d = states.shape
        if actions.shape != (n,) or steps.shape != (n,):
            raise ValueError(f"expected {n} actions and steps, got "
                             f"{actions.shape} and {steps.shape}")
        if n and (actions.min() < 0 or actions.max() >= ACTION_COUNT):
            raise ValueError("action codes out of range")
        if np.any(steps < 0):
            raise ValueError("step numbers must be >= 0")
        x = np.zeros((n, d + ACTION_COUNT + 1))
        x[:, :d] = states
        x[np.arange(n), d + actions] = 1.0
        x[:, -1] = steps / self.step_norm
        return x

    def _row_features(self, state, action, step) -> np.ndarray:
        """`_features` of one (state, action, step): built here for a (d,)
        state, an action code in range and an integer or float64 step >= 0,
        and by `_features` for anything else."""
        d = self.state_dim
        state = np.asarray(state, dtype=np.float64)
        if (state.shape != (d,) or not isinstance(action, (int, np.integer))
                or not 0 <= action < ACTION_COUNT
                or not isinstance(step, (int, float, np.integer)) or step < 0):
            return self._features(state, action, step)
        x = np.zeros((1, d + ACTION_COUNT + 1))
        x[0, :d] = state
        x[0, d + action] = 1.0
        x[0, -1] = step / self.step_norm
        return x

    def _proba(self, x: np.ndarray) -> np.ndarray:
        return sigmoid_np(self.net.forward_np(x))[:, 0]

    def predict_proba(self, state, action, step) -> float:
        """`predict_proba_batch` of one row, as a float."""
        return float(self._proba(self._row_features(state, action, step))[0])

    def predict_proba_batch(self, states, actions, steps) -> np.ndarray:
        return self._proba(self._features(states, actions, steps))

    def save(self, path, encoder_sha256: str | None = None) -> None:
        hyper = {"state_dim": self.state_dim, "step_norm": self.step_norm,
                 "encoder_sha256": encoder_sha256}
        checkpoint.save_checkpoint(path, self.kind, hyper, self.state_arrays())

    @classmethod
    def load(cls, path, expect_kind: str | None = None) -> "BinaryHead":
        """A head of kind `expect_kind`, or of either kind when it is None."""
        kind, hyper, arrays = checkpoint.load_checkpoint(path, expect_kind or HEAD_KINDS)
        model = cls(kind, int(hyper["state_dim"]), float(hyper["step_norm"]),
                    rng=UNINITIALIZED)
        model.load_state_arrays(arrays)
        model.encoder_sha256 = hyper.get("encoder_sha256")
        return model


@dataclass(frozen=True)
class HeadRows:
    states: np.ndarray
    actions: np.ndarray
    steps: np.ndarray
    labels: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.labels.shape[0]


def build_head_rows(cohort: Cohort, encoder=None) -> tuple[HeadRows, HeadRows]:
    """(termination rows, outcome rows) from a cohort.

    Termination: every step, label = 1 on the episode's final step. Outcome:
    exactly one row per episode (the terminal step), label = 1 for death.
    """
    if cohort.n_episodes == 0:
        raise ValueError("cohort is empty")
    term, outc = [], []
    for ep in cohort.episodes:
        seq = encoder.encode_mean(ep.states) if encoder is not None else ep.states
        steps = np.arange(ep.length)
        term.append((seq, ep.actions, steps, (steps == ep.length - 1) * 1.0))
        death = 1.0 if ep.outcome == Outcome.DEATH else 0.0
        outc.append((seq[-1:], ep.actions[-1:], steps[-1:], np.array([death])))
    return (HeadRows(*map(np.concatenate, zip(*term))),
            HeadRows(*map(np.concatenate, zip(*outc))))


def _train_head(kind: str, train_rows: HeadRows, val_rows: HeadRows,
                schedule: TrainSchedule, step_norm: float,
                learning_rate: float) -> tuple[BinaryHead, History]:
    model = BinaryHead(kind, train_rows.states.shape[1], step_norm,
                       rng=np.random.default_rng(schedule.seed))

    def loss_on(rows: HeadRows, idx=slice(None)) -> Tensor:
        feats = model._features(rows.states[idx], rows.actions[idx], rows.steps[idx])
        return bce_with_logits(model.net(Tensor(feats)), rows.labels[idx][:, None])

    optimizer = Adam(model.parameters(), lr=learning_rate)
    history = fit(model, optimizer, schedule, train_rows.n_rows,
                  lambda idx: loss_on(train_rows, idx),
                  lambda: loss_on(val_rows).item())
    return model, history


@dataclass
class HeadsResult:
    """Both heads and their label balance: terminal rows are one per
    episode, so the termination task is heavily imbalanced on long-stay
    cohorts."""
    termination: BinaryHead
    outcome: BinaryHead
    termination_history: History
    outcome_history: History
    terminal_fraction: float   # terminal rows / all rows
    death_fraction: float      # deaths / terminal rows


def train_heads(cohort: Cohort, schedule: TrainSchedule, encoder=None,
                step_norm: float = DEFAULT_STEP_NORM,
                val_fraction: float = 0.1,
                learning_rate: float = 1e-3) -> HeadsResult:
    """Train both heads with an internal episode-level validation split."""
    train_cohort, val_cohort = split_cohort(cohort, 1.0 - val_fraction,
                                            schedule.seed)
    term_tr, outc_tr = build_head_rows(train_cohort, encoder)
    term_va, outc_va = build_head_rows(val_cohort, encoder)
    if term_tr.labels.sum() == 0:
        raise ValueError("cohort has no terminal steps")

    term_model, term_hist = _train_head("termination", term_tr, term_va,
                                        schedule, step_norm, learning_rate)
    outc_model, outc_hist = _train_head("outcome", outc_tr, outc_va,
                                        schedule, step_norm, learning_rate)
    n_terminal = int(term_tr.labels.sum() + term_va.labels.sum())
    n_death = int(outc_tr.labels.sum() + outc_va.labels.sum())
    return HeadsResult(term_model, outc_model, term_hist, outc_hist,
                       n_terminal / (term_tr.n_rows + term_va.n_rows),
                       n_death / n_terminal)

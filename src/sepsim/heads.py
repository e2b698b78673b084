"""Episode-termination and outcome classifiers.

Both heads consume [state-or-latent features, one-hot action, normalized step
number] and emit a probability through a small ReLU stack with a sigmoid
output. The termination head is trained on every step (label: is this the
final step), the outcome head on terminal steps only (label: death).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import checkpoint
from .data import ACTION_COUNT, Cohort, Outcome
from .nn import Adam, History, MLP, Module, TrainSchedule, Tensor, bce_with_logits, fit

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
        if step_norm <= 0:
            raise ValueError("step_norm must be positive")
        self.kind = kind
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

    def logits_graph(self, features: np.ndarray) -> Tensor:
        return self.net(Tensor(features))

    def predict_proba(self, state, action, step) -> float:
        x = self._features(state, action, step)
        return float(expit(self.net.forward_np(x))[0, 0])

    def predict_proba_batch(self, states, actions, steps) -> np.ndarray:
        x = self._features(states, actions, steps)
        return expit(self.net.forward_np(x))[:, 0]

    def save(self, path, **extra) -> None:
        hyper = {"state_dim": self.state_dim, "step_norm": self.step_norm, **extra}
        checkpoint.save_checkpoint(path, self.kind, hyper, self.state_arrays())

    @classmethod
    def load(cls, path, expect_kind: str | None = None) -> "BinaryHead":
        kind, hyper, arrays = checkpoint.load_checkpoint(path)
        if kind not in HEAD_KINDS:
            raise ValueError(f"checkpoint holds a {kind!r} model, expected a head")
        if expect_kind is not None and kind != expect_kind:
            raise ValueError(f"checkpoint holds a {kind!r} head, expected {expect_kind!r}")
        model = cls(kind, int(hyper["state_dim"]), float(hyper["step_norm"]))
        model.load_state_arrays(arrays)
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


@dataclass(frozen=True)
class ImbalanceReport:
    """Label bookkeeping: terminal rows are one per episode, so the
    termination task is heavily imbalanced on long-stay cohorts."""

    n_step_rows: int
    n_terminal: int
    n_death: int

    @property
    def terminal_fraction(self) -> float:
        return self.n_terminal / self.n_step_rows

    @property
    def death_fraction(self) -> float:
        return self.n_death / self.n_terminal


def build_head_rows(cohort: Cohort, encoder=None) -> tuple[HeadRows, HeadRows]:
    """(termination rows, outcome rows) from a cohort.

    Termination: every step, label = 1 on the episode's final step. Outcome:
    exactly one row per episode (the terminal step), label = 1 for death.
    """
    if cohort.n_episodes == 0:
        raise ValueError("cohort is empty")
    t_states, t_actions, t_steps, t_labels = [], [], [], []
    o_states, o_actions, o_steps, o_labels = [], [], [], []
    for ep in cohort.episodes:
        seq = encoder.encode_mean(ep.states) if encoder is not None else ep.states
        last = ep.length - 1
        for t in range(ep.length):
            t_states.append(seq[t])
            t_actions.append(ep.actions[t])
            t_steps.append(t)
            t_labels.append(1.0 if t == last else 0.0)
        o_states.append(seq[last])
        o_actions.append(ep.actions[last])
        o_steps.append(last)
        o_labels.append(1.0 if ep.outcome == Outcome.DEATH else 0.0)
    term = HeadRows(np.stack(t_states), np.array(t_actions), np.array(t_steps),
                    np.array(t_labels))
    outc = HeadRows(np.stack(o_states), np.array(o_actions), np.array(o_steps),
                    np.array(o_labels))
    return term, outc


def _train_head(kind: str, train_rows: HeadRows, val_rows: HeadRows,
                schedule: TrainSchedule, step_norm: float,
                learning_rate: float) -> tuple[BinaryHead, History]:
    model = BinaryHead(kind, train_rows.states.shape[1], step_norm,
                       rng=np.random.default_rng(schedule.seed))

    def loss_on(rows: HeadRows, idx=None) -> Tensor:
        if idx is not None:
            rows = HeadRows(rows.states[idx], rows.actions[idx],
                            rows.steps[idx], rows.labels[idx])
        feats = model._features(rows.states, rows.actions, rows.steps)
        return bce_with_logits(model.logits_graph(feats), rows.labels[:, None])

    optimizer = Adam(model.parameters(), lr=learning_rate)
    history = fit(model, optimizer, schedule, train_rows.n_rows,
                  lambda idx: loss_on(train_rows, idx),
                  lambda: loss_on(val_rows).item())
    return model, history


@dataclass
class HeadsResult:
    termination: BinaryHead
    outcome: BinaryHead
    termination_history: History
    outcome_history: History
    report: ImbalanceReport


def train_heads(cohort: Cohort, schedule: TrainSchedule, encoder=None,
                step_norm: float = DEFAULT_STEP_NORM,
                val_fraction: float = 0.1,
                learning_rate: float = 1e-3) -> HeadsResult:
    """Train both heads with an internal episode-level validation split."""
    from .data import split_cohort

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
    report = ImbalanceReport(n_step_rows=term_tr.n_rows + term_va.n_rows,
                             n_terminal=int(term_tr.labels.sum() + term_va.labels.sum()),
                             n_death=int(outc_tr.labels.sum() + outc_va.labels.sum()))
    return HeadsResult(term_model, outc_model, term_hist, outc_hist, report)

"""Next-state dynamics models.

A recurrent network consumes a fixed 10-step history window of
(state-or-latent, one-hot action) pairs, oldest first and zero-padded at the
front, and predicts the next state. The head is either a deterministic
regression (plain variants) or a mixture density network emitting a
K-component diagonal Gaussian mixture (MDN variants). Sampling temperature
rescales both the component choice (softmax of log-weights / tau) and the
component stddevs (by sqrt(tau)).

Inference is stateless: every prediction re-consumes its window, so rollouts
can be reset, forked, and serialized freely. Within one episode the
environment's RollingWindow reuses what the windows of successive steps share
(each row's input projection, and the LSTM state after the zero padding), but
every prediction still unrolls its whole window from the zero state.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .data import ACTION_COUNT, N_FEATURES, Cohort
from .nn import (
    Adam,
    Dense,
    History,
    LSTMCell,
    MixtureParams,
    Module,
    Tensor,
    TrainSchedule,
    fit,
    mdn_loss_graph,
    mse,
)
from .nn.tensor import logsumexp_np
from .vae import LATENT_DIM

VARIANTS = ("rnn", "ae_rnn", "vae_rnn", "mdn_rnn", "vae_mdn_rnn")

DEFAULT_WINDOW = 10


@dataclass(frozen=True)
class StateModelConfig:
    variant: str = "vae_mdn_rnn"
    window: int = DEFAULT_WINDOW
    rnn_hidden: int = 64
    n_mixtures: int = 5
    # None resolves per variant: latent variants model the 30-dim code,
    # raw variants the 46 features. Toy problems may set it explicitly.
    state_dim: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.rnn_hidden < 1:
            raise ValueError("rnn_hidden must be >= 1")
        if self.uses_mdn and self.n_mixtures < 1:
            raise ValueError("MDN variants need n_mixtures >= 1")
        if self.state_dim is not None and self.state_dim < 1:
            raise ValueError("state_dim must be >= 1")

    @property
    def uses_encoder(self) -> bool:
        return self.variant in ("ae_rnn", "vae_rnn", "vae_mdn_rnn")

    @property
    def uses_mdn(self) -> bool:
        return self.variant in ("mdn_rnn", "vae_mdn_rnn")

    @property
    def resolved_state_dim(self) -> int:
        if self.state_dim is not None:
            return self.state_dim
        return LATENT_DIM if self.uses_encoder else N_FEATURES


def one_hot_actions(actions: np.ndarray) -> np.ndarray:
    actions = np.asarray(actions, dtype=np.int64)
    if np.any(actions < 0) or np.any(actions >= ACTION_COUNT):
        raise ValueError("action codes out of range")
    return np.eye(ACTION_COUNT)[actions]


@dataclass(frozen=True)
class HistoryWindow:
    """Fixed-length model input: states (window, d), one-hot actions
    (window, 25), oldest first, all-zero rows as front padding."""

    states: np.ndarray
    actions: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states, dtype=np.float64)
        actions = np.asarray(self.actions, dtype=np.float64)
        if states.ndim != 2 or actions.ndim != 2:
            raise ValueError("window states/actions must be 2-D")
        if actions.shape != (states.shape[0], ACTION_COUNT):
            raise ValueError(f"window actions must be ({states.shape[0]}, "
                             f"{ACTION_COUNT}), got {actions.shape}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions", actions)

    @classmethod
    def from_history(cls, states, actions, window: int) -> "HistoryWindow":
        """Take the most recent `window` (state, action) pairs, zero-padding
        at the front when history is shorter."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        actions = np.asarray(actions, dtype=np.int64)
        if states.shape[0] != actions.shape[0]:
            raise ValueError("history states and actions differ in length")
        if states.shape[0] < 1:
            raise ValueError("history must contain at least one step")
        d = states.shape[1]
        keep = min(window, states.shape[0])
        ws = np.zeros((window, d))
        wa = np.zeros((window, ACTION_COUNT))
        ws[window - keep:] = states[-keep:]
        wa[window - keep:] = one_hot_actions(actions[-keep:])
        return cls(ws, wa)


@dataclass(frozen=True)
class SequenceData:
    """Flattened supervised pairs: one row per in-episode transition."""

    window_states: np.ndarray    # (n, window, d)
    window_actions: np.ndarray   # (n, window, 25)
    targets: np.ndarray          # (n, d)
    subjects: tuple[str, ...]    # subject id per row, for leak checks

    @property
    def n_rows(self) -> int:
        return self.targets.shape[0]

    def subset(self, idx) -> "SequenceData":
        idx = np.asarray(idx)
        return SequenceData(self.window_states[idx], self.window_actions[idx],
                           self.targets[idx],
                           tuple(self.subjects[i] for i in idx))


def windows_from_episode(states: np.ndarray, actions: np.ndarray, window: int):
    """Yield (window_states, window_actions, target) per transition.

    A length-1 episode yields nothing; histories never cross episodes.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    actions = np.asarray(actions, dtype=np.int64)
    length, d = states.shape
    onehots = one_hot_actions(actions)
    for t in range(length - 1):
        keep = min(window, t + 1)
        ws = np.zeros((window, d))
        wa = np.zeros((window, ACTION_COUNT))
        ws[window - keep:] = states[t + 1 - keep:t + 1]
        wa[window - keep:] = onehots[t + 1 - keep:t + 1]
        yield ws, wa, states[t + 1]


def build_training_sequences(cohort: Cohort, window: int = DEFAULT_WINDOW,
                             encoder=None) -> SequenceData:
    """One training pair per in-episode transition, targets are the t+1
    representation (encode_mean of the raw state when an encoder is given)."""
    ws_all, wa_all, tg_all, subjects = [], [], [], []
    for ep in cohort.episodes:
        seq = encoder.encode_mean(ep.states) if encoder is not None else ep.states
        for ws, wa, target in windows_from_episode(seq, ep.actions, window):
            ws_all.append(ws)
            wa_all.append(wa)
            tg_all.append(target)
            subjects.append(ep.subject_id)
    if not tg_all:
        raise ValueError("cohort contains no transitions (all episodes length 1)")
    return SequenceData(np.stack(ws_all), np.stack(wa_all), np.stack(tg_all),
                        tuple(subjects))


def sequences_from_arrays(episodes, window: int) -> SequenceData:
    """Build SequenceData from raw (states, actions) pairs; for toy problems
    whose state dimension is not the clinical 46."""
    ws_all, wa_all, tg_all, subjects = [], [], [], []
    for i, (states, actions) in enumerate(episodes):
        for ws, wa, target in windows_from_episode(states, actions, window):
            ws_all.append(ws)
            wa_all.append(wa)
            tg_all.append(target)
            subjects.append(f"ep-{i}")
    if not tg_all:
        raise ValueError("no transitions in the given episodes")
    return SequenceData(np.stack(ws_all), np.stack(wa_all), np.stack(tg_all),
                        tuple(subjects))


class StateModel(Module):
    """LSTM over the history window with a point or MDN head."""

    def __init__(self, config: StateModelConfig,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.config = config
        # sha256 of the encoder file a loaded checkpoint was trained with
        self.encoder_sha256: str | None = None
        d = config.resolved_state_dim
        self.state_dim = d
        self.cell = LSTMCell(d + ACTION_COUNT, config.rnn_hidden, rng=rng)
        if config.uses_mdn:
            out_dim = config.n_mixtures * (1 + 2 * d)
        else:
            out_dim = d
        self.head = Dense(config.rnn_hidden, out_dim, activation="linear", rng=rng)

    @property
    def model_kind(self) -> str:
        return "state_mdn" if self.config.uses_mdn else "state_rnn"

    def _check_window(self, window: HistoryWindow) -> None:
        if window.states.shape != (self.config.window, self.state_dim):
            raise ValueError(
                f"window states must be ({self.config.window}, {self.state_dim}), "
                f"got {window.states.shape}")

    def forward_graph(self, window_states: np.ndarray,
                      window_actions: np.ndarray) -> Tensor:
        """Unroll the cell over a batch of windows; returns raw head output."""
        return self.head(self.cell.unroll(window_states, window_actions))

    def _forward_np(self, window_states: np.ndarray,
                    window_actions: np.ndarray) -> np.ndarray:
        batch = window_states.shape[0]
        h, c = self.cell.init_state(batch)
        for t in range(window_states.shape[1]):
            x = np.concatenate([window_states[:, t], window_actions[:, t]], axis=1)
            h, c = self.cell.step_np(x, h, c)
        return self.head.forward_np(h)

    def split_head(self, out: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """MDN head output -> (logits, means, log_stds) graph nodes."""
        k, d = self.config.n_mixtures, self.state_dim
        batch = out.shape[0]
        logits = out[:, :k]
        means = out[:, k:k + k * d].reshape((batch, k, d))
        log_stds = out[:, k + k * d:].reshape((batch, k, d))
        return logits, means, log_stds

    def _mixture_from_row(self, row: np.ndarray) -> MixtureParams:
        k, d = self.config.n_mixtures, self.state_dim
        logits = row[:k]
        weights = np.exp(logits - logsumexp_np(logits))
        means = row[k:k + k * d].reshape(k, d)
        log_stds = row[k + k * d:].reshape(k, d)
        stds = np.exp(log_stds)
        if not stds.all():
            raise ValueError(
                f"MDN std underflow: exp(log_std) is 0 in float64 for log_std "
                f"{log_stds.min():.6g}; the state model's output is out of range")
        return MixtureParams(weights, means, stds)

    def _prediction(self, row: np.ndarray):
        if self.config.uses_mdn:
            return self._mixture_from_row(row)
        return row

    def predict(self, window: HistoryWindow):
        """MixtureParams for MDN variants, a point estimate otherwise."""
        self._check_window(window)
        return self._prediction(
            self._forward_np(window.states[None], window.actions[None])[0])

    def predict_batch(self, window_states: np.ndarray, window_actions: np.ndarray):
        out = self._forward_np(window_states, window_actions)
        if self.config.uses_mdn:
            return [self._mixture_from_row(row) for row in out]
        return out

    def save(self, path, encoder_sha256: str | None = None, **extra) -> None:
        hyper = {
            "variant": self.config.variant,
            "window": self.config.window,
            "rnn_hidden": self.config.rnn_hidden,
            "n_mixtures": self.config.n_mixtures,
            "state_dim": self.state_dim,
            "encoder_sha256": encoder_sha256,
            **extra,
        }
        checkpoint.save_checkpoint(path, self.model_kind, hyper, self.state_arrays())

    @classmethod
    def load(cls, path) -> "StateModel":
        kind, hyper, arrays = checkpoint.load_checkpoint(path)
        if kind not in ("state_rnn", "state_mdn"):
            raise ValueError(f"checkpoint holds a {kind!r} model, expected a state model")
        config = StateModelConfig(variant=hyper["variant"], window=int(hyper["window"]),
                                  rnn_hidden=int(hyper["rnn_hidden"]),
                                  n_mixtures=int(hyper["n_mixtures"]),
                                  state_dim=int(hyper["state_dim"]))
        model = cls(config)
        model.load_state_arrays(arrays)
        model.encoder_sha256 = hyper.get("encoder_sha256")
        return model


class RollingWindow:
    """One episode's history window, kept as LSTM input projections.

    `push(state, action)` then `predict()` returns what
    `model.predict(HistoryWindow.from_history(states, actions, window))`
    returns for the pushed history, bit for bit: the same float operations,
    in the same order and at the same shapes. Each row's projection
    `x @ Wx` is computed once, when the row enters, and the LSTM state after
    k all-zero padding rows once per window, when it is built. Every
    prediction still unrolls from the zero state; nothing is carried from one
    prediction to the next. Build one per episode, as the parameters are read
    at build and push time.
    """

    def __init__(self, model: StateModel):
        self.model = model
        cell = model.cell
        h, c = cell.init_state(1)
        padding = np.zeros((1, cell.input_size)) @ cell.Wx.data
        # _prefix[k]: (h, c) after k padding rows, for k < window
        self._prefix = [(h, c)]
        for _ in range(model.config.window - 1):
            h, c = cell.recur_np(padding, h, c)
            self._prefix.append((h, c))
        self._rows: deque[np.ndarray] = deque(maxlen=model.config.window)

    def push(self, state: np.ndarray, action: int) -> None:
        """Append the (state, action) pair; the oldest row leaves when full."""
        d = self.model.state_dim
        state = np.asarray(state, dtype=np.float64)
        if state.shape != (d,):
            raise ValueError(f"window states must have {d} entries, "
                             f"got shape {state.shape}")
        if not 0 <= action < ACTION_COUNT:
            raise ValueError("action codes out of range")
        x = np.zeros((1, d + ACTION_COUNT))
        x[0, :d] = state
        x[0, d + action] = 1.0
        self._rows.append(x @ self.model.cell.Wx.data)

    def predict(self):
        """MixtureParams for MDN variants, a point estimate otherwise."""
        if not self._rows:
            raise ValueError("history must contain at least one step")
        cell = self.model.cell
        h, c = self._prefix[self.model.config.window - len(self._rows)]
        for xw in self._rows:
            h, c = cell.recur_np(xw, h, c)
        return self.model._prediction(self.model.head.forward_np(h)[0])


def sample_next(params: MixtureParams, temperature: float,
                rng: np.random.Generator) -> np.ndarray:
    """Draw the next state from a mixture at the given temperature.

    Component k ~ softmax(ln pi / tau); value ~ N(mu_k, (sigma_k * sqrt(tau))^2).
    tau = 1 reproduces the mixture exactly; tau -> 0 collapses onto the
    dominant component's mean.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    with np.errstate(divide="ignore"):
        scaled = np.log(params.weights) / temperature
    probs = np.exp(scaled - logsumexp_np(scaled))
    probs = probs / probs.sum()
    k = int(rng.choice(params.n_components, p=probs))
    noise = rng.normal(size=params.dim)
    return params.means[k] + params.stds[k] * np.sqrt(temperature) * noise


def train_on_sequences(config: StateModelConfig, train_data: SequenceData,
                       val_data: SequenceData, schedule: TrainSchedule,
                       learning_rate: float = 1e-3,
                       ) -> tuple[StateModel, History]:
    """Fit a state model on prebuilt transition windows."""
    if train_data.window_states.shape[2] != config.resolved_state_dim:
        raise ValueError("sequence state dim does not match config")
    model = StateModel(config, rng=np.random.default_rng(schedule.seed))
    optimizer = Adam(model.parameters(), lr=learning_rate)

    def loss_on(data: SequenceData, idx=None) -> Tensor:
        sub = data if idx is None else data.subset(idx)
        out = model.forward_graph(sub.window_states, sub.window_actions)
        if config.uses_mdn:
            logits, means, log_stds = model.split_head(out)
            return mdn_loss_graph(logits, means, log_stds, sub.targets)
        return mse(out, sub.targets)

    history = fit(model, optimizer, schedule, train_data.n_rows,
                  lambda idx: loss_on(train_data, idx),
                  lambda: loss_on(val_data).item())
    return model, history


def train_state_model(config: StateModelConfig, cohort: Cohort,
                      schedule: TrainSchedule, encoder=None,
                      val_fraction: float = 0.1, learning_rate: float = 1e-3,
                      ) -> tuple[StateModel, History]:
    """Split the cohort at episode granularity, build windows, and fit."""
    if config.uses_encoder and encoder is None:
        raise ValueError(f"variant {config.variant!r} requires an encoder")
    if not config.uses_encoder and encoder is not None:
        raise ValueError(f"variant {config.variant!r} does not take an encoder")
    from .data import split_cohort

    train_cohort, val_cohort = split_cohort(cohort, 1.0 - val_fraction, schedule.seed)
    train_data = build_training_sequences(train_cohort, config.window, encoder)
    val_data = build_training_sequences(val_cohort, config.window, encoder)
    return train_on_sequences(config, train_data, val_data, schedule, learning_rate)

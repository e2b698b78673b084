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
environment's RollingWindow projects each row once and advances the W
overlapping unrolls a row takes part in as stacked lanes, in lockstep, one
LSTM recurrence per step; each prediction is still its own window unrolled
from the zero state, bit-identical to StateModel.predict on that window.

Training holds each recorded row once, too: `SequenceData` stores every
episode's rows behind W-1 zero padding rows, and `SequenceData.windows`
gathers the W-row windows of one batch, or of one teacher-forced sweep,
when they are needed, so what is stored does not grow with W.

Mixtures take an optional leading batch axis, and one code path serves
one head row, the env's, and a batch: `StateModel._mixtures` builds and
checks them in one vectorized pass, and `sample_next` draws a batch row by
row, in row order, as one call per row would. `predict_stacked` keeps a
batch stacked, for the teacher-forced sweep; `predict_batch` hands out its
rows as views. `sample_next` also checks the temperature and the component
probabilities it draws from.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import checkpoint
from .data import ACTION_COUNT, N_FEATURES, Cohort, split_cohort
from .nn.layers import UNINITIALIZED, Dense, LSTMCell, Module
from .nn.losses import WEIGHT_SUM_TOL, MixtureParams, mdn_loss_graph, mse
from .nn.optim import Adam
from .nn.tensor import Tensor, logsumexp_np, no_grad
from .nn.training import History, TrainSchedule, fit
from .vae import LATENT_DIM

VARIANTS = ("rnn", "ae_rnn", "vae_rnn", "mdn_rnn", "vae_mdn_rnn")

DEFAULT_WINDOW = 10

# sample_next divides log(weights) by the temperature. The largest weight
# of a K-component mixture is at least 1/K, and K < 2**63, so its log is at
# least -43.7 and, at 1e-306 or above, its quotient at least -4.4e307:
# finite, for any K. Near sys.float_info.min, 55 or more equal weights
# overflow to -inf and the draw has no finite probability.
MIN_TEMPERATURE = 1e-306
TEMPERATURE_RULE = f">= {MIN_TEMPERATURE!r}"


def check_temperature(temperature: float) -> None:
    """Refuse a temperature below MIN_TEMPERATURE, NaN included, or infinite."""
    if not temperature >= MIN_TEMPERATURE:
        raise ValueError(f"temperature must be {TEMPERATURE_RULE}, got {temperature}")
    if temperature == math.inf:
        raise ValueError(f"temperature must be finite, got {temperature}")


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
        if not self.window >= 1:
            raise ValueError("window must be >= 1")
        if not self.rnn_hidden >= 1:
            raise ValueError("rnn_hidden must be >= 1")
        if self.uses_mdn and not self.n_mixtures >= 1:
            raise ValueError("MDN variants need n_mixtures >= 1")
        if self.state_dim is not None and not self.state_dim >= 1:
            raise ValueError("state_dim must be >= 1")

    @property
    def uses_encoder(self) -> bool:
        return self.variant in ("ae_rnn", "vae_rnn", "vae_mdn_rnn")

    def check_encoder(self, given: bool) -> None:
        """Refuse a latent variant without an encoder, or a raw one with one."""
        if given != self.uses_encoder:
            need = "needs" if self.uses_encoder else "does not take"
            raise ValueError(f"variant {self.variant!r} {need} an encoder")

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
    """Supervised pairs, one per in-episode transition, with each recorded
    row held once.

    `states` and `actions` hold, for each episode with a transition,
    `window - 1` all-zero rows and then the rows of its transitions' steps,
    in episode order. Transition i's history window is the `window` rows
    from `starts[i]` on, which `windows` gathers on demand.
    """

    states: np.ndarray           # (rows, d)
    actions: np.ndarray          # (rows, 25), one-hot; zero in padding rows
    starts: np.ndarray           # (n,) first padded row of each window
    window: int
    targets: np.ndarray          # (n, d)
    subjects: tuple[str, ...]    # subject id per transition, for leak checks

    @property
    def n_rows(self) -> int:
        return self.targets.shape[0]

    def windows(self, idx=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """(states (k, window, d), actions (k, window, 25)) of the
        transitions `idx` selects, oldest row first, as
        `HistoryWindow.from_history` builds each one."""
        rows = self.starts[idx, None] + np.arange(self.window)
        return self.states[rows], self.actions[rows]


def build_training_sequences(episodes, window: int = DEFAULT_WINDOW,
                             encoder=None) -> SequenceData:
    """One training pair per in-episode transition: its input is the
    history window at step t, as `HistoryWindow.from_history` builds it,
    and its target the step t+1 representation (encode_mean of the raw
    states when an encoder is given). Each row is stored once; see
    `SequenceData`.

    `episodes` is a Cohort, or (states, actions) pairs, for toy problems
    whose state dimension is not the clinical 46; pair i is subject "ep-<i>".
    Histories never cross episodes, and a length-1 episode yields no pair.
    """
    if isinstance(episodes, Cohort):
        items = [(ep.subject_id, ep.states, ep.actions) for ep in episodes.episodes]
    else:
        items = [(f"ep-{i}", s, a) for i, (s, a) in enumerate(episodes)]
    states_all, actions_all, starts, targets, subjects = [], [], [], [], []
    n_padded = 0
    for subject, states, actions in items:
        if encoder is not None:
            states = encoder.encode_mean(states)
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        onehots = one_hot_actions(actions)
        if onehots.shape[0] != states.shape[0]:
            raise ValueError(f"episode {subject}: states and actions differ in length")
        n = states.shape[0] - 1
        if n < 1:
            continue
        padding = np.zeros((window - 1, states.shape[1]))
        states_all += [padding, states[:n]]
        actions_all += [np.zeros((window - 1, ACTION_COUNT)), onehots[:n]]
        starts.append(np.arange(n_padded, n_padded + n))
        n_padded += window - 1 + n
        targets.append(states[1:])
        subjects += [subject] * n
    if not subjects:
        raise ValueError("no transitions in the given episodes (all have length 1)")
    return SequenceData(np.concatenate(states_all), np.concatenate(actions_all),
                        np.concatenate(starts), window, np.concatenate(targets),
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

    def split_head(self, out):
        """MDN head output, a Tensor or an array, one row (n,) or a batch
        (B, n), -> (logits, means, log_stds) of the same type and leading
        shape: [logits K | means K*d | log-stds K*d]."""
        k, d = self.config.n_mixtures, self.state_dim
        lead = out.shape[:-1]
        logits = out[..., :k]
        means = out[..., k:k + k * d].reshape(lead + (k, d))
        log_stds = out[..., k + k * d:].reshape(lead + (k, d))
        return logits, means, log_stds

    def _mixtures(self, out: np.ndarray) -> MixtureParams:
        """The mixture of one head row (n,), or of each row of a batch
        (B, n), built in one pass over the whole array. Each row is checked
        as `MixtureParams` checks a mixture, after a check that names an std
        of 0; when rows fail, the first of them raises its own message, as a
        loop over the rows would."""
        logits, means, log_stds = self.split_head(out)
        weights = np.exp(logits - logsumexp_np(logits, axis=-1)[..., None])
        stds = np.exp(log_stds)
        # exp gives no negative entry, so a std that is 0, NaN or inf, or a
        # weight sum that is not 1 (NaN weights), is all the checks can find
        if out.size and not (
                np.minimum.reduce(stds, axis=None) > 0
                and np.maximum.reduce(stds, axis=None) < np.inf
                and np.maximum.reduce(abs(np.add.reduce(weights, axis=-1) - 1.0),
                                      axis=None) <= WEIGHT_SUM_TOL):
            # each index of the batch axis in turn; one row has one, ()
            for row in itertools.product(*map(range, weights.shape[:-1])):
                if not stds[row].all():
                    raise ValueError(
                        f"MDN std underflow: exp(log_std) is 0 in float64 for "
                        f"log_std {log_stds[row].min():.6g}; the state model's "
                        f"output is out of range")
                MixtureParams(weights[row], means[row], stds[row])
        return MixtureParams._checked(weights, means, stds)

    def _prediction(self, out: np.ndarray):
        """What `predict` gives for a head row (n,), or for each row of
        a batch (B, n): its mixture for MDN variants, the row itself
        otherwise."""
        if self.config.uses_mdn:
            return self._mixtures(out)
        return out

    def predict(self, window: HistoryWindow):
        """MixtureParams for MDN variants, a point estimate otherwise."""
        self._check_window(window)
        return self.predict_batch(window.states[None], window.actions[None])[0]

    def predict_stacked(self, window_states: np.ndarray, window_actions: np.ndarray):
        """`predict` of every window of a batch, stacked: one MixtureParams
        with a batch axis for MDN variants, a (B, d) array otherwise. Runs
        `forward_graph` as training runs it, with no tape recorded."""
        with no_grad():
            out = self.forward_graph(window_states, window_actions).data
        return self._prediction(out)

    def predict_batch(self, window_states: np.ndarray, window_actions: np.ndarray):
        """`predict` for each window of a batch: a list of MixtureParams,
        views of `predict_stacked`'s rows, for MDN variants, the (B, d)
        array of point estimates otherwise."""
        out = self.predict_stacked(window_states, window_actions)
        if self.config.uses_mdn:
            return [MixtureParams._checked(*row)
                    for row in zip(out.weights, out.means, out.stds)]
        return out

    def save(self, path, encoder_sha256: str | None = None) -> None:
        hyper = {**asdict(self.config), "state_dim": self.state_dim,
                 "encoder_sha256": encoder_sha256}
        checkpoint.save_checkpoint(path, self.model_kind, hyper, self.state_arrays())

    @classmethod
    def load(cls, path) -> "StateModel":
        _, hyper, arrays = checkpoint.load_checkpoint(path, ("state_rnn", "state_mdn"))
        model = cls(StateModelConfig(**{f.name: hyper[f.name]
                                        for f in fields(StateModelConfig)}),
                    rng=UNINITIALIZED)
        model.load_state_arrays(arrays)
        model.encoder_sha256 = hyper.get("encoder_sha256")
        return model


class RollingWindow:
    """One episode's history window, as W partial unrolls run in lockstep.

    `push(state, action)` then `predict()` returns what
    `model.predict(HistoryWindow.from_history(states, actions, window))`
    returns for the pushed history, bit for bit. Each row takes part in W
    predictions, so the LSTM states of the next W predictions' unrolls are
    kept as W lanes, stacked as (W, 1, hidden). Each push projects its row
    once (`x @ Wx`) and advances every lane with one `recur_np` call; the
    lane whose window is then complete is copied out for `predict`, and
    restarts from the zero state to serve the prediction W pushes ahead.
    `reset()` starts an episode, with lane s at the state after the W-1-s
    zero padding rows that the s-th prediction's window begins with. Those
    padding states depend only on the cell's parameters: `reset()` rebuilds
    them, with W-1 batch-1 calls, when the parameters' bytes differ from the
    ones they were built from, so a model changed in place between episodes
    is honored, and otherwise copies them. A stacked (W, 1, k) @ (k, n)
    product equals the batch-1 product lane by lane, where a 2-D gemm need
    not, so every prediction is still its own window unrolled from the zero
    state.
    """

    def __init__(self, model: StateModel):
        self.model = model
        self._built_from: tuple[bytes, bytes, bytes] | None = None
        self.reset()

    def reset(self) -> None:
        """Drop every row: the next push starts a new episode."""
        cell = self.model.cell
        padding = np.zeros((1, cell.input_size)) @ cell.Wx.data
        params = (padding.tobytes(), cell.Wh.data.tobytes(), cell.b.data.tobytes())
        if params != self._built_from:
            window = self.model.config.window
            h, c = cell.init_state(1)
            self._h0 = np.empty((window, 1, cell.hidden_size))
            self._c0 = np.empty((window, 1, cell.hidden_size))
            # lane s: the state after window-1-s padding rows
            self._h0[-1], self._c0[-1] = h, c
            for s in range(window - 2, -1, -1):
                h, c = cell.recur_np(padding, h, c)
                self._h0[s], self._c0[s] = h, c
            self._built_from = params
        self._h, self._c = self._h0.copy(), self._c0.copy()
        self._next = 0                       # the lane the next push completes
        self._last: np.ndarray | None = None  # (1, hidden) of the last push

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
        cell = self.model.cell
        h, c = cell.recur_np(x @ cell.Wx.data, self._h, self._c)
        lane = self._next
        # a copy: the lane is zeroed next, to serve the step W pushes ahead
        self._last = h[lane].copy()
        h[lane] = 0.0
        c[lane] = 0.0
        self._h, self._c = h, c
        self._next = (lane + 1) % len(h)

    def predict(self):
        """MixtureParams for MDN variants, a point estimate otherwise."""
        if self._last is None:
            raise ValueError("history must contain at least one step")
        # the last LSTM output, float64 and `hidden` wide: the head's input
        return self.model._prediction(self.model.head._forward_np(self._last)[0])


def sample_next(params: MixtureParams, temperature: float,
                rng: np.random.Generator) -> np.ndarray:
    """Draw the next state from a mixture at the given temperature: a (d,)
    draw, or (B, d), one per row, from a batch.

    Component k ~ softmax(ln pi / tau); value ~ N(mu_k, (sigma_k * sqrt(tau))^2).
    tau = 1 reproduces the mixture exactly; tau -> 0 collapses onto the
    dominant component's mean. The softmax, its check and the cumulative
    sums run on whole arrays. A batch then draws row by row, in row order:
    one `rng.random()` picks the row's component, one `rng.normal(size=d)`
    gives its noise, and the row's value is made from them, the draws and
    values of one call per row. (A gather of the picked components after
    the loop would cost the env's single row more than the loop does.)
    """
    check_temperature(temperature)
    with np.errstate(divide="ignore"):
        scaled = np.log(params.weights) / temperature
    probs = np.exp(scaled - logsumexp_np(scaled, axis=-1)[..., None])
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)
    # Generator.choice(K, p=probs)'s own steps: the same index from the
    # same single uniform draw, without its per-call checks
    cdf = probs.cumsum(axis=-1)
    total = cdf[..., -1:]
    # exp and the division by a sum of its results leave no negative
    # entry, so a NaN is all there is to refuse, and the running sum
    # carries a NaN to its last entry
    if not np.minimum.reduce(total, axis=None) >= 0:
        first = probs.reshape(-1, probs.shape[-1])[np.argmin(total.ravel() >= 0)]
        raise ValueError(f"mixture probabilities at temperature {temperature} "
                         f"are NaN or negative: {first}")
    cdf /= total
    scale = math.sqrt(temperature)  # math.sqrt and np.sqrt are both correctly rounded
    d = params.dim
    out = np.empty(cdf.shape[:-1] + (d,))
    # each index of the batch axis in turn; one mixture has one, ()
    for row in itertools.product(*map(range, cdf.shape[:-1])):
        k = cdf[row].searchsorted(rng.random(), side="right")
        out[row] = params.means[row][k] + params.stds[row][k] * scale * rng.normal(size=d)
    return out


def train_on_sequences(config: StateModelConfig, train_data: SequenceData,
                       val_data: SequenceData, schedule: TrainSchedule,
                       learning_rate: float = 1e-3,
                       ) -> tuple[StateModel, History]:
    """Fit a state model on prebuilt transition windows."""
    for name, data in (("training", train_data), ("validation", val_data)):
        if data.window != config.window:
            raise ValueError(f"{name} sequences have window {data.window}, "
                             f"the config has window {config.window}")
        if data.states.shape[1] != config.resolved_state_dim:
            raise ValueError(f"{name} sequences have state width "
                             f"{data.states.shape[1]}, the config has "
                             f"{config.resolved_state_dim}")
    model = StateModel(config, rng=np.random.default_rng(schedule.seed))
    optimizer = Adam(model.parameters(), lr=learning_rate)

    def loss_on(data: SequenceData, idx=slice(None)) -> Tensor:
        out = model.forward_graph(*data.windows(idx))
        if config.uses_mdn:
            logits, means, log_stds = model.split_head(out)
            return mdn_loss_graph(logits, means, log_stds, data.targets[idx])
        return mse(out, data.targets[idx])

    history = fit(model, optimizer, schedule, train_data.n_rows,
                  lambda idx: loss_on(train_data, idx),
                  lambda: loss_on(val_data).item())
    return model, history


def train_state_model(config: StateModelConfig, cohort: Cohort,
                      schedule: TrainSchedule, encoder=None,
                      val_fraction: float = 0.1, learning_rate: float = 1e-3,
                      ) -> tuple[StateModel, History]:
    """Split the cohort at episode granularity, build windows, and fit."""
    config.check_encoder(encoder is not None)
    train_cohort, val_cohort = split_cohort(cohort, 1.0 - val_fraction, schedule.seed)
    train_data = build_training_sequences(train_cohort, config.window, encoder)
    val_data = build_training_sequences(val_cohort, config.window, encoder)
    return train_on_sequences(config, train_data, val_data, schedule, learning_rate)

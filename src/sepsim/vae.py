"""State autoencoders: a VAE with configurable KL weight, and a plain
deterministic autoencoder used for comparison runs, built from one stack.

Both map 46-feature states through 40- and 35-unit ReLU hidden layers to a
30-dimensional bottleneck and back out through the mirrored decoder with a
linear output. The VAE's KL weight defaults to 0 (reconstruction-only
training); sampling still goes through the reparameterized z = mu + sigma * eps
path so the weight can be raised without code changes.

Simulation pipelines encode states deterministically via encode_mean, a
numpy path; training samples z inside `vae_loss_graph`.
"""
from __future__ import annotations

import numpy as np

from . import checkpoint
from .data import N_FEATURES
from .nn.layers import UNINITIALIZED, Dense, Module
from .nn.losses import gaussian_kl, mse
from .nn.optim import Adam
from .nn.tensor import Tensor, exp
from .nn.training import History, TrainSchedule, fit

ENC_HIDDEN = (40, 35)
LATENT_DIM = 30


def _forward_np(layers, s: np.ndarray, dim: int, what: str) -> np.ndarray:
    """`s`, one row of `dim` entries or a batch, through `layers` in numpy."""
    x = np.asarray(s, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"{what} must have {dim} entries, got shape {np.shape(s)}")
    # the ufunc reduction that ndarray.all calls, without its wrapper
    if not np.logical_and.reduce(np.isfinite(x), axis=None):
        raise ValueError(f"non-finite values in {what}")
    # x is checked: float64, `dim` wide, the first layer's input width
    for layer in layers:
        x = layer._forward_np(x)
    return x[0] if single else x


class _Autoencoder(Module):
    """The stack both encoders share: enc1, enc2, the subclass's `code_heads`
    in order, dec1, dec2 and dec_out, drawing from one `rng` in that order."""

    def __init__(self, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        h1, h2 = ENC_HIDDEN
        self.enc1 = Dense(N_FEATURES, h1, activation="relu", rng=rng)
        self.enc2 = Dense(h1, h2, activation="relu", rng=rng)
        for name in self.code_heads:
            setattr(self, name, Dense(h2, LATENT_DIM, activation="linear", rng=rng))
        self.dec1 = Dense(LATENT_DIM, h2, activation="relu", rng=rng)
        self.dec2 = Dense(h2, h1, activation="relu", rng=rng)
        self.dec_out = Dense(h1, N_FEATURES, activation="linear", rng=rng)

    def decode_graph(self, z: Tensor) -> Tensor:
        return self.dec_out(self.dec2(self.dec1(z)))

    def encode_mean(self, s: np.ndarray) -> np.ndarray:
        """The first code head's output (the VAE's mu, its eps = 0 code) for
        one state or a batch."""
        head = getattr(self, self.code_heads[0])
        return _forward_np((self.enc1, self.enc2, head), s, N_FEATURES, "state")

    def decode(self, z: np.ndarray) -> np.ndarray:
        return _forward_np((self.dec1, self.dec2, self.dec_out), z, LATENT_DIM, "latent")

    def reconstruct(self, s: np.ndarray) -> np.ndarray:
        return self.decode(self.encode_mean(s))

    def hyperparams(self) -> dict:
        return {"latent_dim": LATENT_DIM}

    def save(self, path) -> None:
        checkpoint.save_checkpoint(path, self.model_kind, self.hyperparams(),
                                   self.state_arrays())

    @classmethod
    def load(cls, path) -> "_Autoencoder":
        return load_encoder(path, cls.model_kind)


class VaeModel(_Autoencoder):
    model_kind = "vae"
    code_heads = ("mu_head", "log_sigma_head")
    # bound here too: perfbench times the calls it finds in vars(VaeModel)
    encode_mean, decode = _Autoencoder.encode_mean, _Autoencoder.decode

    def __init__(self, beta: float = 0.0, rng: np.random.Generator | None = None):
        if not beta >= 0:
            raise ValueError(f"kl weight must be >= 0, got {beta}")
        self.beta = float(beta)
        super().__init__(rng)

    def encode_graph(self, x: Tensor) -> tuple[Tensor, Tensor]:
        h = self.enc2(self.enc1(x))
        return self.mu_head(h), self.log_sigma_head(h)

    def hyperparams(self) -> dict:
        return {"beta": self.beta, "latent_dim": LATENT_DIM}


class AeModel(_Autoencoder):
    """Deterministic autoencoder: the same stack with one code head."""

    model_kind = "ae"
    code_heads = ("bottleneck",)
    # bound here too: perfbench times the calls it finds in vars(AeModel)
    encode_mean, decode = _Autoencoder.encode_mean, _Autoencoder.decode

    def encode_graph(self, x: Tensor) -> Tensor:
        return self.bottleneck(self.enc2(self.enc1(x)))


def load_encoder(path, kinds=(VaeModel.model_kind, AeModel.model_kind)):
    """Load an autoencoder of one of `kinds` (by default either) from a
    checkpoint, keyed by model_kind; the file is parsed once."""
    kind, hyper, arrays = checkpoint.load_checkpoint(path, kinds)
    model = (VaeModel(beta=hyper["beta"], rng=UNINITIALIZED)
             if kind == VaeModel.model_kind else AeModel(rng=UNINITIALIZED))
    model.load_state_arrays(arrays)
    return model


# ---- losses -----------------------------------------------------------------


def vae_loss_graph(model: VaeModel, batch: np.ndarray, eps: np.ndarray
                   ) -> tuple[Tensor, Tensor, Tensor]:
    """total, recon_mse, kl as graph nodes; total = recon + beta * kl."""
    x = Tensor(np.asarray(batch, dtype=np.float64))
    mu, log_sigma = model.encode_graph(x)
    z = mu + exp(log_sigma) * eps
    recon = mse(model.decode_graph(z), batch)
    kl = gaussian_kl(mu, log_sigma)
    return recon + kl * model.beta, recon, kl


def ae_loss_graph(model: AeModel, batch: np.ndarray) -> Tensor:
    x = Tensor(np.asarray(batch, dtype=np.float64))
    return mse(model.decode_graph(model.encode_graph(x)), batch)


# ---- training ---------------------------------------------------------------


def _check_states(states: np.ndarray, what: str) -> np.ndarray:
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != N_FEATURES or states.shape[0] < 1:
        raise ValueError(f"{what} must be a non-empty (rows, {N_FEATURES}) array")
    return states


def train_vae(train_states: np.ndarray, val_states: np.ndarray,
              schedule: TrainSchedule, learning_rate: float = 1e-3,
              beta: float = 0.0) -> tuple[VaeModel, History]:
    """Train on state rows; validation loss uses eps = 0 so the early-stopping
    metric is deterministic. The eps draws and the weight init take the two
    children of SeedSequence(schedule.seed)."""
    train_states = _check_states(train_states, "train_states")
    val_states = _check_states(val_states, "val_states")
    eps_seed, init_seed = np.random.SeedSequence(schedule.seed).spawn(2)
    rng = np.random.default_rng(eps_seed)
    model = VaeModel(beta=beta, rng=np.random.default_rng(init_seed))
    optimizer = Adam(model.parameters(), lr=learning_rate)

    def batch_loss(idx):
        eps = rng.normal(size=(len(idx), LATENT_DIM))
        total, _, _ = vae_loss_graph(model, train_states[idx], eps)
        return total

    def val_loss():
        eps = np.zeros((val_states.shape[0], LATENT_DIM))
        total, _, _ = vae_loss_graph(model, val_states, eps)
        return total.item()

    history = fit(model, optimizer, schedule, train_states.shape[0],
                  batch_loss, val_loss)
    return model, history


def train_ae(train_states: np.ndarray, val_states: np.ndarray,
             schedule: TrainSchedule, learning_rate: float = 1e-3,
             ) -> tuple[AeModel, History]:
    train_states = _check_states(train_states, "train_states")
    val_states = _check_states(val_states, "val_states")
    model = AeModel(rng=np.random.default_rng(schedule.seed))
    optimizer = Adam(model.parameters(), lr=learning_rate)
    history = fit(model, optimizer, schedule, train_states.shape[0],
                  lambda idx: ae_loss_graph(model, train_states[idx]),
                  lambda: ae_loss_graph(model, val_states).item())
    return model, history

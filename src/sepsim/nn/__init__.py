"""Minimal reverse-mode autodiff stack: tensors, layers, losses, optimizers,
a batch training loop, and a finite-difference gradient checker."""
from .gradcheck import check_gradients
from .layers import (
    ACTIVATIONS,
    MLP,
    Dense,
    LSTMCell,
    Module,
)
from .losses import (
    MixtureParams,
    bce_with_logits,
    gaussian_kl,
    mdn_loss_graph,
    mdn_nll,
    mse,
)
from .optim import SGD, Adam, Optimizer
from .tensor import (
    Parameter,
    Tensor,
    exp,
    log,
    log_softmax,
    logsumexp,
    no_grad,
    relu,
    sigmoid,
    tanh,
)
from .training import History, TrainSchedule, fit

__all__ = [
    "ACTIVATIONS",
    "Adam",
    "Dense",
    "History",
    "LSTMCell",
    "MixtureParams",
    "MLP",
    "Module",
    "Optimizer",
    "Parameter",
    "SGD",
    "Tensor",
    "TrainSchedule",
    "bce_with_logits",
    "check_gradients",
    "exp",
    "fit",
    "gaussian_kl",
    "log",
    "log_softmax",
    "logsumexp",
    "mdn_loss_graph",
    "mdn_nll",
    "mse",
    "no_grad",
    "relu",
    "sigmoid",
    "tanh",
]

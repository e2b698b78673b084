"""Generic minibatch training loop with patience-based early stopping.

The loop is index-driven so it works for any data layout: callers provide a
closure that maps a batch of row indices to a scalar loss Tensor, plus a
closure that scores the validation set. Every epoch visits the rows in a
fresh permutation. Improvement is strict (<); after `patience` consecutive
non-improving epochs training stops, and the weights from the best epoch are
restored either way.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .tensor import no_grad

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainSchedule:
    max_epochs: int
    patience: int = 3          # set >= max_epochs to never stop early
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if not self.max_epochs >= 1:
            raise ValueError("max_epochs must be >= 1")
        if not self.patience >= 1:
            raise ValueError("patience must be >= 1")
        if not self.batch_size >= 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int          # 1-based
    train_loss: float
    val_loss: float


@dataclass
class History:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = float("inf")
    stopped_early: bool = False

    @property
    def n_epochs(self) -> int:
        return len(self.records)


def fit(model, optimizer, schedule: TrainSchedule, train_size: int,
        batch_loss, val_loss) -> History:
    """Run the epoch loop.

    batch_loss(indices) must build and return the scalar loss Tensor for the
    given training rows; val_loss() must return a float score for the held-out
    set (lower is better). val_loss runs under no_grad, so it records no tape.
    """
    if train_size < 1:
        raise ValueError("train_size must be >= 1")
    rng = np.random.default_rng(schedule.seed)
    history = History()
    best_state: dict[str, np.ndarray] | None = None
    bad_epochs = 0

    for epoch in range(1, schedule.max_epochs + 1):
        order = rng.permutation(train_size)
        epoch_losses = []
        for start in range(0, train_size, schedule.batch_size):
            idx = order[start:start + schedule.batch_size]
            optimizer.zero_grad()
            loss = batch_loss(idx)
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())
        train_mean = float(np.mean(epoch_losses))
        with no_grad():
            val = float(val_loss())
        history.records.append(EpochRecord(epoch, train_mean, val))
        logger.debug("epoch %d: train %.6f val %.6f", epoch, train_mean, val)

        if val < history.best_val_loss:
            history.best_val_loss = val
            history.best_epoch = epoch
            best_state = model.state_arrays()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= schedule.patience:
                history.stopped_early = True
                break

    if best_state is not None:
        model.load_state_arrays(best_state)
    return history

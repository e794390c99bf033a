"""Plain SGD training loop with evenly spaced model snapshots."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import ToyDataset
from .model import ToyModel


class TrainingDivergedError(Exception):
    def __init__(self, epoch: int, loss: float):
        super().__init__(f"training loss became non-finite at epoch {epoch} ({loss})")
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0
    # The classification head trains with a 10x larger step than the body.
    head_lr_multiplier: float = 10.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.head_lr_multiplier <= 0:
            raise ValueError("head learning-rate multiplier must be positive")


@dataclass
class TrainResult:
    model: ToyModel
    final_loss: float
    snapshots: list[tuple[int, ToyModel]] = field(default_factory=list)  # (epoch, model)


def snapshot_epochs(epochs: int, count: int) -> list[int]:
    """Evenly spaced snapshot epochs, ending at the final epoch."""
    return sorted({max(1, round(epochs * k / count)) for k in range(1, count + 1)})


def train(
    model: ToyModel,
    data: ToyDataset,
    cfg: TrainConfig,
    snapshot_count: int = 0,
) -> TrainResult:
    """SGD on softmax cross-entropy; the input model is left untouched.

    With ``snapshot_count`` > 0 a copy of the model is kept at each of that
    many evenly spaced epochs, the last one at the final epoch.
    """
    model = model.copy()
    model.check_fits(data)
    if snapshot_count and cfg.epochs < 1:
        raise ValueError("snapshots need at least one epoch")

    marks = set(snapshot_epochs(cfg.epochs, snapshot_count)) if snapshot_count else set()
    rng = np.random.default_rng(cfg.seed)
    head = model.depth - 1
    snapshots = []

    # Diverged runs overflow before the loss check can trip; keep the noise
    # out of the warning stream and report the epoch instead.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(data.size)
            for start in range(0, data.size, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                loss, grads_w, grads_b = model.loss_and_grads(
                    data.inputs[batch], data.labels[batch]
                )
                if not np.isfinite(loss):
                    raise TrainingDivergedError(epoch, loss)
                for i in range(model.depth):
                    lr = cfg.learning_rate * (cfg.head_lr_multiplier if i == head else 1.0)
                    model.weights[i] -= lr * grads_w[i]
                    model.biases[i] -= lr * grads_b[i]
            if epoch in marks:
                snapshots.append((epoch, model.copy()))

        final_loss = model.loss(data.inputs, data.labels)
    if not np.isfinite(final_loss):
        raise TrainingDivergedError(cfg.epochs, final_loss)
    return TrainResult(model=model, final_loss=final_loss, snapshots=snapshots)

"""Plain SGD training of a pool of models in lockstep, with evenly spaced
model snapshots."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
        # written so that nan fails too: every comparison with nan is false
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning rate must be positive and finite, got {self.learning_rate!r}")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if not 0 < self.head_lr_multiplier < np.inf:
            raise ValueError("head learning-rate multiplier must be positive and finite, "
                             f"got {self.head_lr_multiplier!r}")


@dataclass
class TrainResult:
    model: ToyModel
    final_loss: float
    snapshots: list[tuple[int, ToyModel]] = field(default_factory=list)  # (epoch, model)


def snapshot_epochs(epochs: int, count: int) -> list[int]:
    """Evenly spaced snapshot epochs, ending at the final epoch."""
    return sorted({max(1, round(epochs * k / count)) for k in range(1, count + 1)})


def train(
    models: list[ToyModel],
    datasets: list[ToyDataset],
    configs: list[TrainConfig],
    snapshot_count: int = 0,
) -> list[TrainResult]:
    """SGD on softmax cross-entropy for a pool of models, one result per
    model in order; the input models are left untouched.

    Model k trains on ``datasets[k]`` under ``configs[k]``. The models must
    share their layer sizes, the datasets their size and the configs every
    field but the seed: the pool trains in lockstep, as one stacked model,
    and each member ends with the bits it would get if trained alone. With
    ``snapshot_count`` > 0 a copy of each model is kept at each of that many
    evenly spaced epochs, the last one at the final epoch.

    A member whose loss becomes non-finite raises ``TrainingDivergedError``
    with its epoch and loss; of several, the first in pool order.
    """
    if not models or not len(models) == len(datasets) == len(configs):
        raise ValueError("need one dataset and one config per model, and at least one model")
    for model, data in zip(models, datasets):
        model.check_fits(data)
    cfg = configs[0]
    if len({tuple(m.layer_sizes) for m in models}) > 1:
        raise ValueError("models trained together must share their layer sizes")
    if len({d.size for d in datasets}) > 1:
        raise ValueError("models trained together need datasets of one size")
    if any(replace(c, seed=cfg.seed) != cfg for c in configs):
        raise ValueError("models trained together must share every training setting but the seed")
    if snapshot_count and cfg.epochs < 1:
        raise ValueError("snapshots need at least one epoch")

    marks = set(snapshot_epochs(cfg.epochs, snapshot_count)) if snapshot_count else set()
    stack = ToyModel.stack(models)
    rates = [cfg.learning_rate * (cfg.head_lr_multiplier if i == stack.depth - 1 else 1.0)
             for i in range(stack.depth)]
    inputs = np.stack([d.inputs for d in datasets])
    labels = np.stack([d.labels for d in datasets])
    n = datasets[0].size
    rngs = [np.random.default_rng(c.seed) for c in configs]
    rows = np.arange(len(models))[:, None]
    batches = range(0, n, cfg.batch_size)
    step_losses = np.empty((len(batches), len(models)))
    snapshots = [[] for _ in models]
    diverged = {}  # member -> (epoch, loss) of its first non-finite loss

    # Diverged runs overflow before the loss check can trip; keep the noise
    # out of the warning stream and report the epoch instead.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = np.stack([rng.permutation(n) for rng in rngs])
            x, y = inputs[rows, order], labels[rows, order]
            for step, start in enumerate(batches):
                batch = slice(start, start + cfg.batch_size)
                step_losses[step], grads_w, grads_b = stack.loss_and_grads(x[:, batch], y[:, batch])
                for w, b, gw, gb, lr in zip(stack.weights, stack.biases, grads_w, grads_b, rates):
                    w -= lr * gw
                    b -= lr * gb
            _record_divergence(diverged, epoch, step_losses)
            if 0 in diverged:
                break
            if epoch in marks:
                for k, member_snapshots in enumerate(snapshots):
                    member_snapshots.append((epoch, stack.member(k).copy()))

        final_losses = stack.losses(inputs, labels)
    _record_divergence(diverged, cfg.epochs, final_losses[None])
    if diverged:
        raise TrainingDivergedError(*diverged[min(diverged)])
    return [TrainResult(model=stack.member(k), final_loss=float(loss), snapshots=member_snapshots)
            for k, (loss, member_snapshots) in enumerate(zip(final_losses, snapshots))]


def _record_divergence(diverged: dict, epoch: int, losses: np.ndarray) -> None:
    """Add each member's first non-finite entry of ``losses`` (one row per
    step, one column per member) to ``diverged``, unless it diverged before."""
    bad = ~np.isfinite(losses)
    for k in np.flatnonzero(bad.any(axis=0)).tolist():
        if k not in diverged:
            diverged[k] = (epoch, float(losses[bad[:, k].argmax(), k]))

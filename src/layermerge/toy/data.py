"""Synthetic domain-shifted 2-D classification data.

The source domain is a ring of K Gaussian blobs: class c is centered at
angle 2*pi*c/K on the unit circle with isotropic sigma = 0.3, and samples
are assigned to classes round-robin. The target domain is the same
distribution pushed through a rotation plus translation and resampled with
the next seed, so a null shift yields a second independent draw from the
source distribution. Everything is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLOB_SIGMA = 0.3


@dataclass(frozen=True)
class DomainShift:
    rotation: float = 0.0
    translation: tuple[float, float] = (0.0, 0.0)

    def matrix(self) -> np.ndarray:
        c, s = np.cos(self.rotation), np.sin(self.rotation)
        return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class ToyDataset:
    inputs: np.ndarray  # (n, 2) float64
    labels: np.ndarray  # (n,) int64 in [0, classes)
    classes: int
    seed: int
    shift: DomainShift

    def __post_init__(self):
        if len(self.inputs) == 0:
            raise ValueError("dataset must be non-empty")
        labels = np.asarray(self.labels)
        if labels.dtype.kind not in "iu" or labels.shape != (len(self.inputs),):
            raise ValueError("labels must be integers, one per input row")
        if labels.min() < 0 or labels.max() >= self.classes:
            raise ValueError(f"labels must lie in [0, {self.classes})")
        if not np.bincount(labels.astype(np.intp), minlength=self.classes).all():
            raise ValueError("every class must appear at least once")

    @property
    def size(self) -> int:
        return len(self.inputs)


def _class_means(classes: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(classes) / classes
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _sample(seed: int, n: int, classes: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % classes
    inputs = _class_means(classes)[labels] + BLOB_SIGMA * rng.standard_normal((n, 2))
    return inputs, labels


def make_domain_pair(
    seed: int,
    n: int,
    classes: int,
    shift: DomainShift = DomainShift(),
) -> tuple[ToyDataset, ToyDataset]:
    """Deterministically build a (source, target) dataset pair."""
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if n < classes:
        raise ValueError("need at least one sample per class")
    src_x, src_y = _sample(seed, n, classes)
    tgt_x, tgt_y = _sample(seed + 1, n, classes)
    tgt_x = tgt_x @ shift.matrix().T + np.asarray(shift.translation)
    source = ToyDataset(src_x, src_y, classes, seed, DomainShift())
    target = ToyDataset(tgt_x, tgt_y, classes, seed + 1, shift)
    return source, target

"""Diagonal empirical Fisher information for toy models.

The estimate is the per-parameter mean over samples of the squared
gradient of the label log-likelihood. For a rectifier network this is
computed in closed form from the per-sample backprop deltas: the squared
weight gradient factorizes as delta^2 (outer) activation^2, so no
per-sample outer products are materialized.
"""

from __future__ import annotations

import numpy as np

from ..merge import FisherWeights
from .data import ToyDataset
from .model import ToyModel, softmax


@np.errstate(over="ignore", invalid="ignore")  # a non-finite estimate raises instead
def estimate_fisher(model: ToyModel, data: ToyDataset) -> FisherWeights:
    model.check_fits(data)
    x, y = data.inputs, data.labels
    n = len(y)
    activations, preacts = model.forward_trace(x)
    delta = softmax(activations[-1])
    if not np.all(np.isfinite(delta)):
        raise ValueError("non-finite activations while estimating Fisher information")

    # d(log p_y)/d(logits) per sample; squaring makes the sign irrelevant.
    delta[np.arange(n), y] -= 1.0

    tensors: dict[str, np.ndarray] = {}
    for i, d2 in enumerate(d**2 for d in model._backprop(delta, preacts)):
        tensors[f"l{i}.weight"] = d2.T @ (activations[i] ** 2) / n
        tensors[f"l{i}.bias"] = d2.mean(axis=0)
    return FisherWeights(tensors)

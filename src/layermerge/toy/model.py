"""Small dense rectifier network stored as a checkpoint.

Layers are named ``l0``, ``l1``, ... with ``weight`` of shape [out, in]
and ``bias`` of shape [out]. Hidden layers use max(x, 0); the final layer
is linear and trained with softmax cross-entropy.

A stack of same-shaped models is one ``ToyModel`` whose weights and biases
have a leading model axis, [K, out, in] and [K, out]; the forward pass,
loss and backprop run unchanged on it, one stacked matmul serving all K.
Each slice of a stacked matmul is the same BLAS call as the 2-D product,
and the reductions add the same elements in the same order, so every
model in a stack gets the bits it would get alone.

Every model keeps its weights and biases as views of one flat float64
array, ``params``, and ``loss_and_grads`` writes the gradients into the
same views of a second one, ``grads``, so that an SGD step is one update
of the flat array.
"""

from __future__ import annotations

import functools
import re

import numpy as np

from ..checkpoint import Checkpoint

_LAYER_NAME = re.compile(r"^l(\d+)\.(weight|bias)$")


def _shifted_exp(logits: np.ndarray):
    """The logits less each row's maximum, their exp, and its row sums."""
    # pairwise: a max over the few classes costs more
    top = functools.reduce(np.maximum, (logits[..., c:c + 1] for c in range(logits.shape[-1])))
    shifted = logits - top
    e = np.exp(shifted)
    return shifted, e, np.add.reduce(e, axis=-1, keepdims=True)


@functools.lru_cache
def _grid(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The sparse index of every entry of an array of ``shape``."""
    return np.indices(shape, sparse=True)


def softmax(logits: np.ndarray) -> np.ndarray:
    _, e, total = _shifted_exp(logits)
    return e / total


def _cross_entropy(logits: np.ndarray, y: np.ndarray):
    """Mean cross-entropy of the labels ``y`` (..., n) under ``logits``
    (..., n, classes), one per stacked model, and the softmax of the logits."""
    shifted, e, total = _shifted_exp(logits)
    picked = shifted[(*_grid(y.shape), y)] - np.log(total[..., 0])
    return -(np.add.reduce(picked, axis=-1) / y.shape[-1]), e / total  # the mean, as numpy takes it


class ToyModel:
    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        if len(weights) != len(biases):
            raise ValueError("weights and biases must pair up")
        for i in range(1, len(weights)):
            if weights[i].shape[-1] != weights[i - 1].shape[-2]:
                raise ValueError(
                    f"layer {i} expects {weights[i].shape[-1]} inputs but layer "
                    f"{i - 1} produces {weights[i - 1].shape[-2]}"
                )
        for w, b in zip(weights, biases):
            if b.shape != w.shape[:-1]:
                raise ValueError("bias shape must match layer output size")
        arrays = [a for pair in zip(weights, biases) for a in pair]  # w0, b0, w1, ...
        self.params = np.concatenate([np.ravel(a) for a in arrays] or [[]], dtype=np.float64)
        self.grads = np.empty_like(self.params)
        ends = np.cumsum([a.size for a in arrays])[:-1]
        p, g = ([v.reshape(a.shape) for v, a in zip(np.split(flat, ends), arrays)]
                for flat in (self.params, self.grads))
        self.weights, self.biases, self.grads_w, self.grads_b = p[::2], p[1::2], g[::2], g[1::2]
        self._layers = [(w.swapaxes(-1, -2), b[..., None, :])
                        for w, b in zip(self.weights, self.biases)]

    # -- construction ----------------------------------------------------

    @classmethod
    def init(cls, layer_sizes: list[int], seed: int) -> "ToyModel":
        """He-style random init, deterministic in the seed."""
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            weights.append(scale * rng.standard_normal((fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    @classmethod
    def stack(cls, models: list["ToyModel"]) -> "ToyModel":
        """One stacked model holding a copy of each of ``models`` (which
        share their layer sizes), in order."""
        return cls([np.stack(ws) for ws in zip(*(m.weights for m in models))],
                   [np.stack(bs) for bs in zip(*(m.biases for m in models))])

    def member(self, k: int) -> "ToyModel":
        """A copy of the ``k``-th model of a stack."""
        return ToyModel([w[k] for w in self.weights], [b[k] for b in self.biases])

    @property
    def depth(self) -> int:
        return len(self.weights)

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[-1]] + [w.shape[-2] for w in self.weights]

    def check_fits(self, data) -> None:
        """Raise ``ValueError`` unless ``data`` (a ``ToyDataset``) has this
        model's input size and as many classes as the head has outputs."""
        inputs, *_, outputs = self.layer_sizes
        if inputs != data.inputs.shape[1]:
            raise ValueError(
                f"model expects {inputs}-dimensional inputs, data has {data.inputs.shape[1]}"
            )
        if outputs != data.classes:
            raise ValueError(f"model output size {outputs} does not match "
                             f"the class count {data.classes}")

    # -- checkpoint round-trip -------------------------------------------

    def to_checkpoint(self, metadata: dict[str, str] | None = None) -> Checkpoint:
        arrays = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            arrays[f"l{i}.weight"] = w
            arrays[f"l{i}.bias"] = b
        return Checkpoint.from_arrays(arrays, metadata)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "ToyModel":
        found: dict[int, dict[str, np.ndarray]] = {}
        for t in ckpt.tensors:
            m = _LAYER_NAME.match(t.name)
            if not m:
                raise ValueError(f"unexpected tensor '{t.name}' in toy-model checkpoint")
            found.setdefault(int(m.group(1)), {})[m.group(2)] = np.asarray(t.data)
        if sorted(found) != list(range(len(found))):
            raise ValueError("layer indices must be consecutive from 0")
        weights, biases = [], []
        for i in range(len(found)):
            if set(found[i]) != {"weight", "bias"}:
                raise ValueError(f"layer l{i} needs both weight and bias")
            if found[i]["weight"].ndim != 2:  # a stack is built, never loaded
                raise ValueError(f"layer l{i} weight must be 2-D, got shape "
                                 f"{list(found[i]['weight'].shape)}")
            weights.append(found[i]["weight"])
            biases.append(found[i]["bias"])
        return cls(weights, biases)

    # -- inference --------------------------------------------------------

    def forward_trace(self, x: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Return (activations, pre-activations) per layer; activations[0] is
        x, of shape (n, in), or (K, n, in) for a stack of K models."""
        activations = [np.asarray(x, dtype=np.float64)]
        preacts = []
        h, last = activations[0], self.depth - 1
        for i, (w_t, b) in enumerate(self._layers):
            z = h @ w_t
            z += b
            preacts.append(z)
            h = np.maximum(z, 0.0) if i < last else z
            activations.append(h)
        return activations, preacts

    def logits(self, x: np.ndarray) -> np.ndarray:
        return self.forward_trace(x)[0][-1]

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return softmax(self.logits(x))

    def losses(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Mean cross-entropy of the labels ``y``, one per stacked model."""
        return _cross_entropy(self.logits(x), y)[0]

    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(self.losses(x, y))

    def loss_and_grads(self, x, y):
        """Mean cross-entropy and its gradients w.r.t. every weight and bias,
        each with the stack axis of the weights: ``grads_w`` and ``grads_b``,
        views of ``grads`` that the next call overwrites."""
        activations, preacts = self.forward_trace(x)
        loss, delta = _cross_entropy(activations[-1], y)
        # the labels one-hot over the class index: x - 0.0 leaves every other entry as it is
        delta -= y[..., None] == _grid(delta.shape)[-1]
        for d, a, g_w, g_b in zip(self._backprop(delta / y.shape[-1], preacts), activations,
                                  self.grads_w, self.grads_b):
            np.matmul(d.swapaxes(-1, -2), a, out=g_w)
            np.add.reduce(d, axis=-2, out=g_b)
        return loss, self.grads_w, self.grads_b

    def _backprop(self, delta: np.ndarray, preacts: list[np.ndarray]) -> list[np.ndarray]:
        """Every layer's delta, layer 0 first, from the head's delta (the
        loss gradient w.r.t. the logits) and the pre-activations."""
        deltas = [delta]
        for i in range(self.depth - 1, 0, -1):
            d = deltas[0] @ self.weights[i]
            deltas.insert(0, np.multiply(d, preacts[i - 1] > 0, out=d))
        return deltas


def evaluate(models, data, ensemble: bool = False) -> float:
    """Accuracy of one model, or of an averaged-softmax ensemble.

    Ties in the averaged probabilities break toward the lowest class index.
    """
    if isinstance(models, ToyModel):
        models = [models]
    if not models:
        raise ValueError("need at least one model")
    for model in models:
        model.check_fits(data)
    if ensemble:
        probs = sum(m.predict_proba(data.inputs) for m in models) / len(models)
    else:
        if len(models) != 1:
            raise ValueError("pass ensemble=True to evaluate several models jointly")
        probs = models[0].predict_proba(data.inputs)
    predictions = np.argmax(probs, axis=1)
    return float(np.mean(predictions == data.labels))

"""Merge-weight schedules and the four checkpoint-merging strategies.

The layer-wise strategy keeps an anchor model's task-specific layers
verbatim and blends the shared layers with per-layer weights that start
uniform and decay linearly to zero for the non-anchor models, so the last
shared layer is owned exclusively by the anchor. Isotropic, performance-
weighted and diagonal-Fisher-weighted merging are provided as baselines.

Numerics
--------
Every strategy is one weighted sum per shared tensor, ``sum_i w_i * x_i``;
the strategies differ only in the weights, which each give as M rows of
weights read a block at a time. Layer-wise, isotropic and
performance-weighted merging give each model one scalar per layer, a row of
one element; Fisher merging gives one weight per element. The M (weight,
tensor) pairs are put in the order of their content, the tensor's bytes and
then the weight row's. The order costs O(M log M) comparisons per tensor,
each of which reads bytes only up to the first difference, and depends only
on the multiset of pairs, so every strategy is exactly invariant to
permutations of the non-anchor models; pairs that compare equal are
byte-identical and give identical terms. One kernel sums every tensor in
blocks of 8,192 elements: each block adds its float64 terms in that one
order of the whole tensors, so every element gets the same operations as a
sum over whole tensors, and is then cast into the output. Inputs are read
tensor by tensor as the loop needs them, and every tensor of every input,
blended or not, is checked as it is read: for finiteness, and Fisher values
also for sign. Fisher weights are each element's Fisher values divided by
their largest value and then by the sum of these quotients, added in the
content order of the whole rows of quotients, so no intermediate can
overflow; elements without Fisher mass in any model, and batch-norm running
statistics, get weight 1/M. The kernel computes Fisher weights block by
block. Every sort key, of a tensor, a row of weights or a row of quotients,
is the bytes of the row's first block, with the rest compared one block at
a time only while rows tie; the elements of a shared tensor have one dtype
in every model, so this is exactly the order of the rows' whole bytes.
Besides the inputs and the output, no array holds more than M blocks.
Each merged tensor is cast to the anchor's storage dtype as it is summed;
if the result is not finite, which finite inputs reach by overflow, the
merge raises ``NonFiniteTensorError``.
Schedule weights are derived in exact rational arithmetic and rounded to
float64 once, so schedule identities (rows summing to one, the
anchor-dominance gap) hold exactly on the rational side and to within one
rounding on the float side.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .alignment import NON_GRADIENT_KINDS, SharedAlignment
from .checkpoint import META_LAYER_ORDER, Checkpoint, TensorRecord

STRATEGIES = ("layerwise", "isotropic", "scalar", "fisher")


class MergeError(Exception):
    pass


class ScheduleError(MergeError):
    """Invalid schedule parameters (start layer or first-layer weight)."""


class NonFiniteTensorError(MergeError):
    pass


class ShapeConflictError(MergeError):
    """Same tensor name with different shapes: only layer-wise merging applies."""


class FisherInputError(MergeError):
    pass


@dataclass
class MergeSchedule:
    """Per-layer, per-model merge weights.

    ``weights[i, j-1]`` is the coefficient of model ``i`` at shared layer
    ``j``. Constructing a schedule only requires rows that are non-negative
    and sum to one; the anchor-dominance and last-layer-ownership
    guarantees hold for schedules produced by :func:`compute_schedule`,
    whose exact rational weights are kept in ``exact_weights``.
    """

    model_count: int
    layer_count: int
    anchor: int
    start_layer: int
    first_layer_weight: float
    weights: np.ndarray
    exact_weights: list[list[Fraction]] | None = field(default=None, repr=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (self.model_count, self.layer_count):
            raise ScheduleError(
                f"weight matrix shape {self.weights.shape} does not match "
                f"({self.model_count}, {self.layer_count})"
            )
        if not 0 <= self.anchor < self.model_count:
            raise ScheduleError(f"anchor index {self.anchor} out of range")
        if not np.all(self.weights >= 0):  # NaN fails too
            raise ScheduleError("merge weights must be non-negative")
        col_sums = self.weights.sum(axis=0)
        if not np.all(np.abs(col_sums - 1.0) <= 1e-12):
            raise ScheduleError("merge weights must sum to 1 at every layer")

    @classmethod
    def constant(cls, model_count: int, layer_count: int, anchor: int = 0) -> "MergeSchedule":
        """Uniform 1/M weights at every layer (isotropic as a schedule)."""
        w = np.full((model_count, layer_count), 1.0 / model_count)
        return cls(model_count, layer_count, anchor, layer_count, 1.0 / model_count, w)

    def non_anchor_row(self) -> np.ndarray:
        rows = [i for i in range(self.model_count) if i != self.anchor]
        return self.weights[rows[0]] if rows else np.zeros(self.layer_count)


def compute_schedule(
    model_count: int,
    layer_count: int,
    anchor: int,
    start_layer: int = 1,
    first_layer_weight: float | None = None,
) -> MergeSchedule:
    """Build the linearly decaying layer-wise schedule.

    Every non-anchor model gets weight ``w0`` on layers up to
    ``start_layer`` and ``w0 * (L - j) / (L - start_layer)`` beyond it,
    where ``L`` is the shared layer count; the anchor takes the remainder.
    The default ``w0 = (L - 1) / (L * M)`` makes the non-anchor weight at
    layer j equal ``(L - j) / (L * M)`` throughout, decaying to zero at the
    last shared layer, and the anchor's margin over each non-anchor exactly
    ``j / L``. ``w0`` may not exceed ``1 / M`` (anchor dominance); equality
    is allowed with a warning.
    """
    if model_count < 1:
        raise ScheduleError("model count must be >= 1")
    if layer_count < 1:
        raise ScheduleError("shared layer count must be >= 1")
    if not 0 <= anchor < model_count:
        raise ScheduleError(f"anchor index {anchor} out of range for {model_count} models")
    if not 1 <= start_layer <= layer_count:
        raise ScheduleError(
            f"start layer {start_layer} outside [1, {layer_count}]"
        )

    if first_layer_weight is None:
        w0 = Fraction(layer_count - 1, layer_count * model_count)
    else:
        try:
            w0 = Fraction(first_layer_weight)
        except (OverflowError, ValueError) as exc:  # inf, nan
            raise ScheduleError(
                f"first-layer weight must be finite, got {first_layer_weight!r}"
            ) from exc
        if w0 < 0:
            raise ScheduleError("first-layer weight must be non-negative")
        if w0 > Fraction(1, model_count):
            raise ScheduleError(
                f"first-layer weight {float(w0)} exceeds 1/{model_count}; "
                "the anchor would no longer dominate"
            )
        if w0 == Fraction(1, model_count) and model_count > 1:
            warnings.warn(
                "first-layer weight equals 1/M: anchor and non-anchor weights "
                "tie at the plateau layers",
                stacklevel=2,
            )

    exact: list[list[Fraction]] = [[Fraction(0)] * layer_count for _ in range(model_count)]
    for j in range(1, layer_count + 1):
        if j >= layer_count:
            non_anchor = Fraction(0)  # last shared layer belongs to the anchor
        elif j <= start_layer:
            non_anchor = w0
        else:
            non_anchor = w0 * Fraction(layer_count - j, layer_count - start_layer)
        for i in range(model_count):
            exact[i][j - 1] = non_anchor
        exact[anchor][j - 1] = 1 - (model_count - 1) * non_anchor

    weights = np.array([[float(w) for w in row] for row in exact])
    return MergeSchedule(
        model_count=model_count,
        layer_count=layer_count,
        anchor=anchor,
        start_layer=start_layer,
        first_layer_weight=float(w0),
        weights=weights,
        exact_weights=exact,
    )


class _Reads(Mapping):
    """Name -> array view of a checkpoint that reads a tensor each time it
    is looked up and passes it through ``check(name, array)``, which raises
    or returns the array to use. ``check_rest`` reads and checks the
    tensors never looked up, so that every tensor is checked as it is read
    and none goes unchecked."""

    def __init__(self, ckpt, check):
        self._tensors = ckpt.tensors
        self._by_name = {t.name: t for t in ckpt.tensors}
        self._check = check
        self._read = set()

    def __getitem__(self, name):
        t = self._by_name[name]
        self._read.add(id(t))
        return self._check(name, t.data)

    def __contains__(self, name):
        return name in self._by_name

    def __iter__(self):
        return iter(self._by_name)

    def __len__(self):
        return len(self._by_name)

    def check_rest(self) -> None:
        for t in self._tensors:
            if id(t) not in self._read:
                self._read.add(id(t))
                self._check(t.name, t.data)


def _checked_fisher(name, arr) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.size:
        low, high = arr.min(), arr.max()  # NaN propagates into both
        if not (np.isfinite(low) and np.isfinite(high)):
            raise FisherInputError(f"non-finite Fisher values in '{name}'")
        if low < 0:
            raise FisherInputError(f"negative Fisher values in '{name}'")
    return arr


@dataclass(frozen=True)
class FisherWeights:
    """Non-negative diagonal Fisher estimates, aligned by tensor name.

    Built from arrays, every tensor is checked at construction. Built with
    :meth:`from_checkpoint`, a tensor is read and checked each time it is
    looked up in ``tensors``, and ``fisher_merge`` checks the ones it never
    looks up after merging, so a file-backed checkpoint is read lazily.
    """

    tensors: Mapping[str, np.ndarray]

    def __post_init__(self):
        if not isinstance(self.tensors, _Reads):
            checked = {name: _checked_fisher(name, a) for name, a in self.tensors.items()}
            object.__setattr__(self, "tensors", checked)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "FisherWeights":
        return cls(_Reads(ckpt, _checked_fisher))

    def to_checkpoint(self, metadata: dict[str, str] | None = None) -> Checkpoint:
        return Checkpoint.from_arrays(self.tensors, metadata)


def _finite_model_tensor(model):
    def check(name, x):
        if not np.isfinite(x).all():
            raise NonFiniteTensorError(f"non-finite values in tensor '{name}' of model {model}")
        return x
    return check


def _reject_shape_conflicts(alignment: SharedAlignment, strategy: str) -> None:
    if alignment.shape_conflicts:
        raise ShapeConflictError(
            f"{strategy} merging cannot combine tensors whose shapes differ "
            f"between models: {list(alignment.shape_conflicts)}; "
            "layer-wise merging keeps them from the anchor instead"
        )


_BLOCK = 8192  # elements the kernel sums, and a sort key compares, at a time


class _Scalars:
    """One weight per model for a whole tensor, as a weight source: rows of
    one element, whose only block is the M scalars."""

    __slots__ = ("_weights",)
    size = 1

    def __init__(self, weights):
        self._weights = weights

    def block(self, lo) -> np.ndarray:
        return self._weights


class _Rest:
    """Row ``i`` past its first block, of equal-length rows whose blocks
    from element ``lo`` are ``rows(lo)``; ordered as the bytes of those
    parts of the rows are: block by block, taking a block only while the
    rows tie on the earlier ones. Only rows of the same ``rows`` compare."""

    __slots__ = ("rows", "i", "size")

    def __init__(self, rows, i, size):
        self.rows, self.i, self.size = rows, i, size

    def _cmp(self, other) -> int:
        for lo in range(_BLOCK, self.size, _BLOCK):
            rows = self.rows(lo)
            x, y = rows[self.i].tobytes(), rows[other.i].tobytes()
            if x != y:
                return -1 if x < y else 1
        return 0

    def __eq__(self, other):
        return self._cmp(other) == 0

    def __lt__(self, other):
        return self._cmp(other) < 0


def _row_keys(head, rows, size) -> list:
    """Sort keys of rows of ``size`` elements, ordered exactly as the rows'
    whole bytes are: the bytes of the first block of each row of ``head``
    (the rows, or their first blocks), then, for rows longer than a block,
    a ``_Rest`` over ``rows(lo)``, the rows' blocks from element ``lo``."""
    if size <= _BLOCK:
        return [r.tobytes() for r in head]
    return [(r[:_BLOCK].tobytes(), _Rest(rows, i, size)) for i, r in enumerate(head)]


def _content_order(weights, xs) -> list[int]:
    """Indices of the (weight, array) pairs of a weight source and flat
    arrays in content order: by the array's bytes, then the weight row's;
    ties keep their index order."""
    keys = list(zip(_row_keys(xs, lambda lo: [x[lo:lo + _BLOCK] for x in xs], xs[0].size),
                    _row_keys(weights.block(0), weights.block, weights.size)))
    return sorted(range(len(keys)), key=keys.__getitem__)


class _FisherBlocks:
    """Per-element Fisher weights of one shared tensor, as a weight source
    computed a block at a time from the M checked float64 Fisher arrays.

    Each element's Fisher values are divided by their largest value (1 for
    every model where all are zero), and then by the sum of these quotients,
    added in the content order of the whole quotient rows. The last block
    computed is kept, so the sort keys, ``_blends`` and the kernel share it.
    """

    def __init__(self, fishers):
        self._fishers = [f.reshape(-1) for f in fishers]
        self.size = self._fishers[0].size
        self._lo = self._mass = self._weights = None
        keys = _row_keys(self.mass(0), self.mass, self.size)
        self._order = sorted(range(len(keys)), key=keys.__getitem__)

    def mass(self, lo) -> np.ndarray:
        """The (M, n) normalised Fisher mass of the block starting at ``lo``."""
        if lo != self._lo:
            mass = np.stack([f[lo:lo + _BLOCK] for f in self._fishers])
            scale = mass.max(axis=0)
            zero = scale == 0.0
            np.copyto(scale, 1.0, where=zero)
            mass /= scale
            np.copyto(mass, 1.0, where=zero)
            self._lo, self._mass, self._weights = lo, mass, None
        return self._mass

    def block(self, lo) -> np.ndarray:
        """The (M, n) weights of the block starting at ``lo``."""
        if lo != self._lo or self._weights is None:
            mass = self.mass(lo)
            first, *rest = self._order
            total = mass[first].copy()
            for i in rest:
                total += mass[i]
            self._weights = mass / total
        return self._weights


def _blends(weights, anchor) -> bool:
    """Whether a model other than the anchor has a non-zero weight."""
    for lo in range(0, weights.size, _BLOCK):
        w = weights.block(lo)
        if np.count_nonzero(w) > np.count_nonzero(w[anchor]):
            return True
    return False


def _weighted_sum(weights, arrays, dtype=np.float64) -> np.ndarray:
    """``sum_i w_i * x_i`` in float64, cast to ``dtype``, for a weight
    source ``weights``: ``weights.block(lo)`` gives the M weights of the
    block of elements starting at ``lo``, rows of ``weights.size`` elements
    (``_Scalars`` for one weight per model, ``_FisherBlocks`` for one per
    element).

    The (weight, array) pairs are added in the order of their content (the
    array's bytes, then the weight row's, compared up to the first
    difference), so the result depends only on the multiset of pairs, never
    on model order; pairs with equal keys are byte-identical and give
    identical terms. The sum runs over blocks of ``_BLOCK`` elements in two
    float64 block buffers, every block in that one order, so each element
    gets the same float64 operations as a sum over whole arrays; each block
    is cast into the output as soon as it is summed.
    """
    xs = [x.reshape(-1) for x in arrays]
    first, *rest = _content_order(weights, xs)
    size = xs[0].size
    out = np.empty(size, dtype)
    acc, term = np.empty(min(size, _BLOCK)), np.empty(min(size, _BLOCK))
    for lo in range(0, size, _BLOCK):
        hi = min(lo + _BLOCK, size)
        w, a, t = weights.block(lo), acc[:hi - lo], term[:hi - lo]
        np.multiply(w[first], xs[first][lo:hi], out=a, dtype=np.float64)
        for i in rest:
            np.multiply(w[i], xs[i][lo:hi], out=t, dtype=np.float64)
            a += t
        out[lo:hi] = a
    return out.reshape(np.shape(arrays[0]))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result raises instead
def _merge(ckpts, alignment, strategy, weights_for, metadata_extra=None):
    """The merge loop behind every strategy.

    ``weights_for(layer, name, kind, shape)`` returns the weight source of
    one shared tensor, ``_Scalars`` or ``_FisherBlocks``. Shared tensors
    become weighted sums cast to the anchor's dtype; anchor-only tensors,
    and shared tensors whose non-anchor weights are all zero, keep the
    anchor's array. The output follows the anchor's tensor order.
    """
    if alignment.model_count != len(ckpts):
        raise MergeError(
            f"alignment covers {alignment.model_count} models, got {len(ckpts)}"
        )
    anchor = alignment.anchor
    anchor_ckpt = ckpts[anchor]
    pool = [_Reads(c, _finite_model_tensor(i)) for i, c in enumerate(ckpts)]
    shared = {
        name: (group.index, kind)
        for group in alignment.shared_groups
        for name, kind in group.members
    }

    tensors = []
    for t in anchor_ckpt.tensors:
        data = None
        if t.name in shared:
            layer, kind = shared[t.name]
            w = weights_for(layer, t.name, kind, t.shape)
            if _blends(w, anchor):
                arrays = [p[t.name] for p in pool]
                for x in arrays:
                    if x.shape != t.shape:
                        raise MergeError(
                            f"shape mismatch for shared tensor '{t.name}': "
                            f"{x.shape} vs {t.shape} (alignment inconsistency)"
                        )
                data = _weighted_sum(w, arrays, arrays[anchor].dtype)
                # finite inputs can still sum, or cast, past the dtype's range
                if not np.isfinite(data).all():
                    raise NonFiniteTensorError(f"merged tensor '{t.name}' is not finite")
                del arrays, x
            del w  # this tensor's inputs and weights go before the next one's are read
        if data is None:  # kept from the anchor
            data = pool[anchor][t.name]
        tensors.append(TensorRecord(t.name, data))
    for p in pool:  # tensors no merged value depends on are checked all the same
        p.check_rest()

    metadata = {
        "model_id": "merged",
        "merge_strategy": strategy,
        "merge_model_count": str(alignment.model_count),
        "merge_anchor": str(anchor),
        "merge_shared_layers": str(alignment.n_shared_layers),
    }
    if alignment.anchor_only:
        metadata["merge_anchor_only_count"] = str(len(alignment.anchor_only))
    if metadata_extra:
        metadata.update(metadata_extra)
    if META_LAYER_ORDER in anchor_ckpt.metadata:
        metadata[META_LAYER_ORDER] = anchor_ckpt.metadata[META_LAYER_ORDER]
    return Checkpoint(tensors, metadata)


def layerwise_merge(
    ckpts: list[Checkpoint],
    anchor: int,
    schedule: MergeSchedule,
    alignment: SharedAlignment,
) -> Checkpoint:
    """Merge shared layers under a schedule; keep anchor-only tensors verbatim."""
    if schedule.model_count != len(ckpts):
        raise MergeError(
            f"schedule built for {schedule.model_count} models, got {len(ckpts)}"
        )
    if schedule.layer_count != alignment.n_shared_layers:
        raise MergeError(
            f"schedule built for {schedule.layer_count} shared layers, "
            f"alignment has {alignment.n_shared_layers}"
        )
    if anchor != schedule.anchor or anchor != alignment.anchor:
        raise MergeError("anchor disagrees between schedule, alignment and call")
    per_layer = [_Scalars(w) for w in schedule.weights.T]
    extra = {
        "merge_start_layer": str(schedule.start_layer),
        "merge_first_layer_weight": repr(schedule.first_layer_weight),
    }
    return _merge(ckpts, alignment, "layerwise", lambda layer, *_: per_layer[layer - 1], extra)


def isotropic_merge(ckpts: list[Checkpoint], alignment: SharedAlignment) -> Checkpoint:
    """Plain average of shared tensors; rejects shape-conflicted names."""
    _reject_shape_conflicts(alignment, "isotropic")
    uniform = _Scalars(np.full(len(ckpts), 1.0 / len(ckpts)))
    return _merge(ckpts, alignment, "isotropic", lambda *_: uniform)


def scalar_weighted_merge(
    ckpts: list[Checkpoint],
    scores: list[float],
    alignment: SharedAlignment,
) -> Checkpoint:
    """Average shared tensors with weights proportional to positive scores.

    Weights are normalized in exact rational arithmetic and rounded once,
    so equal scores reduce bit-for-bit to the isotropic weights.
    """
    _reject_shape_conflicts(alignment, "performance-weighted")
    if len(scores) != len(ckpts):
        raise MergeError(
            f"{len(scores)} performance scores for {len(ckpts)} models"
        )
    for i, s in enumerate(scores):
        if s is None or not np.isfinite(s) or s <= 0:
            raise MergeError(f"performance score of model {i} must be positive, got {s!r}")
    exact = [Fraction(float(s)) for s in scores]
    total = sum(exact)
    weights = _Scalars(np.array([float(s / total) for s in exact]))
    extra = {"merge_scores": ",".join(repr(float(s)) for s in scores)}
    return _merge(ckpts, alignment, "scalar", lambda *_: weights, extra)


def _fisher_weights(fishers, name, kind, shape):
    """The M weights of one shared tensor: 1/M each for batch-norm running
    statistics, else per-element weights proportional to each model's
    Fisher values (see ``_FisherBlocks``)."""
    m = len(fishers)
    if kind in NON_GRADIENT_KINDS:
        return _Scalars(np.full(m, 1.0 / m))
    arrays = []
    for i, fisher in enumerate(fishers):
        f = fisher.tensors.get(name)
        if f is None:
            raise FisherInputError(
                f"model {i} has no Fisher tensor for shared tensor '{name}'"
            )
        if f.shape != shape:
            raise FisherInputError(
                f"Fisher tensor '{name}' of model {i} has shape {f.shape}, "
                f"expected {shape}"
            )
        arrays.append(f)
    return _FisherBlocks(arrays)


def fisher_merge(
    ckpts: list[Checkpoint],
    fishers: list[FisherWeights],
    alignment: SharedAlignment,
) -> Checkpoint:
    """Per-element Fisher-weighted average of shared gradient-bearing tensors.

    Elements where every model's Fisher mass is zero fall back to the plain
    mean, and batch-norm running statistics are always merged isotropically
    (they carry no gradient information for Fisher to weight).
    """
    _reject_shape_conflicts(alignment, "Fisher-weighted")
    if len(fishers) != len(ckpts):
        raise MergeError(f"{len(fishers)} Fisher inputs for {len(ckpts)} models")
    merged = _merge(
        ckpts, alignment, "fisher",
        lambda layer, name, kind, shape: _fisher_weights(fishers, name, kind, shape),
    )
    for fisher in fishers:
        if isinstance(fisher.tensors, _Reads):
            fisher.tensors.check_rest()
    return merged

"""Merge-weight schedules and the four checkpoint-merging strategies.

The layer-wise strategy keeps an anchor model's task-specific layers
verbatim and blends the shared layers with per-layer weights that start
uniform and decay linearly to zero for the non-anchor models, so the last
shared layer is owned exclusively by the anchor. Isotropic, performance-
weighted and diagonal-Fisher-weighted merging are provided as baselines.

Every strategy is one weighted sum per shared tensor, ``sum_i w_i * x_i``;
the strategies differ only in the weights they hand the merge: an (M, L)
table of each model's weight at each shared layer, plus for Fisher merging
the Fisher inputs, which weigh gradient-bearing tensors per element. Each
element's float64 terms are added in the content order of its tensor's
(tensor, weight row) pairs, which depends only on the multiset of pairs,
so every strategy is exactly invariant to permutations of the non-anchor
models. Two kernels, chosen by tensor size, compute the sum with the same
operations for every element: ``_weighted_sum`` for a tensor larger than a
block, ``_Blocks.merge`` for several small ones. Every tensor of every
input, blended or not, is checked (finite, and Fisher values
non-negative), and a merged tensor that is not finite, which finite inputs
reach by overflow, raises ``NonFiniteTensorError``. Schedule weights are
exact rationals rounded to float64 once, so schedule identities hold
exactly on the rational side and to within one rounding on the float side.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key, partial

import numpy as np

from .alignment import NON_GRADIENT_KINDS, SharedAlignment
from .checkpoint import (
    META_LAYER_ORDER,
    Checkpoint,
    CheckpointError,
    TensorRecord,
    index,
    read_flat,
    same_signature,
)

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

    # the non-anchor weight of each layer, one Fraction shared by every
    # non-anchor model, and the anchor's remainder
    p, q = w0.numerator, w0.denominator
    plateau = min(start_layer, layer_count - 1)
    non_anchor = [w0] * plateau + [
        Fraction(p * (layer_count - j), q * (layer_count - start_layer))
        for j in range(plateau + 1, layer_count)
    ] + [Fraction(0)]  # last shared layer belongs to the anchor
    anchor_row = [Fraction(w.denominator - (model_count - 1) * w.numerator, w.denominator)
                  for w in non_anchor]
    exact = [list(anchor_row if i == anchor else non_anchor) for i in range(model_count)]
    # int / int is correctly rounded, as float(Fraction) is
    weights = np.empty((model_count, layer_count))
    weights[:] = [w.numerator / w.denominator for w in non_anchor]
    weights[anchor] = [w.numerator / w.denominator for w in anchor_row]
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
    is looked up and checks it: ``ok(array)`` says whether an array passes,
    and ``reject(name, array)`` raises the error of a tensor that does not.
    Tensors are addressed by their row of the checkpoint's ``index``, so a
    name held twice is refused, and read through ``read_flat``, which
    alone decides which are one view of a run of a file. Each run a read
    gives is checked once, by one ``ok`` on the whole run, and its verdict
    is kept: a tensor of a run that passed counts as checked, and only a
    tensor of a run that failed, or of none, is tried on its own, so every
    error is still raised when its tensor is looked up. ``block`` reads
    several tensors at once for the block kernel. ``check_rest`` reads and
    checks the tensors not checked yet, so that none goes unchecked."""

    def __init__(self, ckpt, ok, reject):
        self.index = index(ckpt)
        if len(self.index.rows) < len(self.index.names):
            ckpt.validate()  # raises its duplicate-name error
        self._ok, self._reject = ok, reject
        # the rows checked apart from their run, and each run's verdict
        self._checked, self._run_passed = np.zeros(len(self.index.names), bool), {}

    def _read(self, rows):
        """``(values, passed)``: the values of the tensors ``rows`` back to
        back in one flat array (``read_flat``), and whether they pass: at
        once when every piece is a view of a run that passed, else when all
        the values together pass ``ok``, and then every row counts as
        checked."""
        pieces, runs = read_flat(self.index, rows)
        x = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
        run_passed = self._run_passed
        for run, values in runs:
            if run not in run_passed:
                run_passed[run] = self._ok(values)
        if len(runs) == len(pieces) and all(run_passed[run] for run, _ in runs):
            return x, True
        passed = self._ok(x)
        if passed:
            self._checked[rows] = True
        return x, passed

    def _get(self, row):
        x, passed = self._read(np.array([row]))
        x = x.reshape(self.index.shapes[row])
        if not passed:
            self._reject(self.index.names[row], x)
        return x

    def __getitem__(self, name):
        return self._get(self.index.rows[name])

    def __contains__(self, name):
        return name in self.index.rows

    def __iter__(self):
        return iter(self.index.rows)

    def __len__(self):
        return len(self.index.rows)

    def block(self, rows):
        """The values of the tensors ``rows`` back to back in one flat
        array, when all of them pass ``ok``; they then count as checked.
        None when a value fails or a tensor cannot be read: looked up one
        at a time, the first of them that fails raises its error."""
        try:
            x, passed = self._read(rows)
        except (CheckpointError, OSError):
            return None
        return x if passed else None

    def check_rest(self) -> None:
        runs, run_passed = self.index.runs, self._run_passed
        passed = [run for run, ok in run_passed.items() if ok]
        for row in np.flatnonzero(~self._checked & ~np.isin(runs, passed)).tolist():
            if not run_passed.get(int(runs[row])):  # its run may have passed since
                self._get(row)


def _fisher_ok(x) -> bool:
    if not x.size:
        return True
    low, high = x.min(), x.max()  # NaN propagates into both
    return bool(np.isfinite(low) and np.isfinite(high) and low >= 0)


def _checked_fisher(name, arr) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if not _fisher_ok(arr):
        if not np.isfinite(arr).all():
            raise FisherInputError(f"non-finite Fisher values in '{name}'")
        raise FisherInputError(f"negative Fisher values in '{name}'")
    return arr


@dataclass(frozen=True)
class FisherWeights:
    """Non-negative diagonal Fisher estimates, aligned by tensor name.

    ``tensors`` is always a ``_Reads``: a tensor is read and checked each
    time it is looked up, in its stored dtype, and the merge checks the
    ones it never looks up, so a file-backed checkpoint
    (:meth:`from_checkpoint`) is read lazily. Built from arrays, every
    tensor is checked at construction and held as float64, in a checkpoint
    of its own, so an empty tensor name is refused there with the
    checkpoint's error.
    """

    tensors: Mapping[str, np.ndarray]

    def __post_init__(self):
        if not isinstance(self.tensors, _Reads):
            checked = {name: _checked_fisher(name, a) for name, a in self.tensors.items()}
            reads = _Reads(Checkpoint.from_arrays(checked), _fisher_ok, _checked_fisher)
            object.__setattr__(self, "tensors", reads)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "FisherWeights":
        return cls(_Reads(ckpt, _fisher_ok, _checked_fisher))

    def to_checkpoint(self, metadata: dict[str, str] | None = None) -> Checkpoint:
        return Checkpoint.from_arrays(self.tensors, metadata)


def _all_finite(x) -> bool:
    return bool(np.isfinite(x).all())


def _model_reads(ckpt, model) -> _Reads:
    def reject(name, x):
        raise NonFiniteTensorError(f"non-finite values in tensor '{name}' of model {model}")
    return _Reads(ckpt, _all_finite, reject)


def _reject_shape_conflicts(alignment: SharedAlignment, strategy: str) -> None:
    if alignment.shape_conflicts:
        raise ShapeConflictError(
            f"{strategy} merging cannot combine tensors whose shapes differ "
            f"between models: {list(alignment.shape_conflicts)}; "
            "layer-wise merging keeps them from the anchor instead"
        )


_BLOCK = 8192  # elements the kernel sums, and a comparison reads, at a time


class _Scalars:
    """One weight per model for a whole tensor, as a weight source: rows of
    one element, whose only block is the M scalars."""

    __slots__ = ("_weights",)
    size = 1

    def __init__(self, weights):
        self._weights = weights

    def block(self, lo) -> np.ndarray:
        return self._weights


def _compare_rows(blocks, size, i, j) -> int:
    """-1, 0 or 1 as row ``i`` of equal-length rows of ``size`` elements,
    whose blocks from element ``lo`` are ``blocks(lo)``, orders before,
    with or after row ``j`` by its bytes: compared block by block, taking
    a block only while the rows tie on the earlier ones."""
    for lo in range(0, size, _BLOCK):
        rows = blocks(lo)
        x, y = rows[i].tobytes(), rows[j].tobytes()
        if x != y:
            return -1 if x < y else 1
    return 0


def _content_order(weights, xs) -> list[int]:
    """Indices of the (weight, array) pairs of a weight source and flat
    arrays in content order: by the array's bytes, then the weight row's;
    ties keep their index order."""
    def compare(i, j):
        return (_compare_rows(lambda lo: [x[lo:lo + _BLOCK] for x in xs], xs[0].size, i, j)
                or _compare_rows(weights.block, weights.size, i, j))
    return sorted(range(len(xs)), key=cmp_to_key(compare))


def _normalised(mass) -> np.ndarray:
    """The (M, n) Fisher ``mass``, divided in place by each element's
    largest value; an element with no mass in any model gets 1 in all."""
    scale = mass.max(axis=0)
    zero = scale == 0.0
    np.copyto(scale, 1.0, where=zero)
    mass /= scale
    np.copyto(mass, 1.0, where=zero)
    return mass


class _FisherBlocks:
    """Per-element Fisher weights of one shared tensor, as a weight source
    computed a block at a time from the M checked float64 Fisher arrays.

    Each element's Fisher values are divided by their largest value (1 for
    every model where all are zero), and then by the sum of these quotients,
    added in the content order of the whole quotient rows. The last block
    computed is kept, so the content order, ``_blends`` and the kernel
    share it.
    """

    def __init__(self, fishers):
        self._fishers = [np.asarray(f, np.float64).reshape(-1) for f in fishers]
        self.size = self._fishers[0].size
        self._lo = self._mass = self._weights = None
        compare = partial(_compare_rows, self.mass, self.size)
        self._order = sorted(range(len(self._fishers)), key=cmp_to_key(compare))

    def mass(self, lo) -> np.ndarray:
        """The (M, n) normalised Fisher mass of the block starting at ``lo``."""
        if lo != self._lo:
            mass = _normalised(np.stack([f[lo:lo + _BLOCK] for f in self._fishers]))
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


def _stable_orders(*parts) -> np.ndarray:
    """(T, M) indices: for each of T tensors, its M rows in the order of
    their bytes, the bytes of the parts put together, ties in index order.
    Each part is an (M, T, L) array of one row per model and tensor."""
    key = np.concatenate(
        [np.ascontiguousarray(p.transpose(1, 0, 2)).view(np.uint8).reshape(*p.shape[1::-1], -1)
         for p in parts], axis=2,
    )
    voids = key.view(np.dtype((np.void, key.shape[2]))).reshape(key.shape[:2])
    return np.argsort(voids, axis=1, kind="stable")


def _gather(orders, sizes) -> np.ndarray:
    """(M, n) flat indices into (M, n) rows of tensors laid back to back,
    of ``sizes`` elements: each element's column of rows in the order of
    its tensor's row of the (T, M) ``orders``."""
    n = int(sizes.sum())
    return np.repeat(orders.T * n, sizes, axis=1) + np.arange(n)


class _Blocks:
    """The plan of one merge. ``table`` is the (M, L) weights as (L, M),
    and ``src`` gives each tensor of the anchor's index ``tensors`` its row
    of ``table``; -1 where Fisher merging weighs it per element, -2 where it
    keeps the anchor's array: not shared, or in a row where no model but
    the anchor has a non-zero weight. ``spans`` are the blocks: runs of
    whole shared tensors, in the anchor's order, that the kernel sums
    together. A tensor joins a block when it is blended, holds 1 to
    ``_BLOCK`` elements, has the anchor's dtype and shape in every model
    and, when weighed per element, a Fisher tensor of that shape in every
    Fisher input; a block holds tensors of one dtype and at most ``_BLOCK``
    elements. Any other tensor ends a block. A block's tensors are read
    from each source in one ``_Reads.block``."""

    def __init__(self, tensors, alignment, weights, pool, fishers):
        names, dtypes, self.shapes = tensors.names, tensors.dtypes, tensors.shapes
        self.sizes = sizes = tensors.sizes
        every = np.arange(len(names))
        self.anchor = anchor = alignment.anchor
        self.pool, self.fishers = pool, fishers
        self.table = table = np.ascontiguousarray(weights.T)
        per_element = fishers is not None
        src = np.full(len(names), -2)
        src[tensors.lookup(alignment.shared_names())] = [
            -1 if per_element and kind not in NON_GRADIENT_KINDS else g.index - 1
            for g in alignment.shared_groups for _, kind in g.members]
        # whether each row blends, then True for -1 and False for -2
        blends = np.append(np.count_nonzero(table, axis=1) > (table[:, anchor] != 0), [False, True])
        self.src = src = np.where(blends[src], src, -2)
        fits = (src != -2) & (sizes > 0) & (sizes <= _BLOCK)
        self.rows = []  # of each model, per tensor
        for p in pool:
            rows = p.index.lookup(names)
            fits &= same_signature(tensors, every, p.index, rows)
            self.rows.append(rows)
        self.fisher_rows, self.fisher_same = [], []
        for f in fishers or ():
            rows = f.tensors.index.lookup(names)
            same = same_signature(tensors, every, f.tensors.index, rows, dtype=False)
            fits &= (src != -1) | same
            self.fisher_rows.append(rows)
            self.fisher_same.append(same)

        spans, start, total = [], -1, 0
        for k in np.flatnonzero(fits).tolist():
            n = int(sizes[k])
            if start >= 0 and k == end and dtypes[k] == dtypes[start] and total + n <= _BLOCK:
                end, total = k + 1, total + n
            else:
                if start >= 0:
                    spans.append((start, end))
                start, end, total = k, k + 1, n
        if start >= 0:
            spans.append((start, end))
        self.spans = spans

    def merge(self, j):
        """The merged arrays of block ``j``, each a view of the block's
        output cast to the anchor's dtype; None when anything fails (an
        input not finite, a negative Fisher value, a read, a Fisher-weighted
        tensor that does not blend, an output not finite), so that its
        tensors are merged one at a time and the first failure raises."""
        a, b = self.spans[j]
        sizes, src = self.sizes[a:b], self.src[a:b]
        n = int(sizes.sum())
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        xs = []
        for p, rows in zip(self.pool, self.rows):
            x = p.block(rows[a:b])
            if x is None:
                return None
            xs.append(x)
        x = np.stack(xs)
        m = len(xs)
        scalars = self.table[np.maximum(src, 0)]  # (T, M); rows of Fisher tensors unused
        fisher = src == -1
        weights = None
        if fisher.any():
            weights = self._fisher_weights(a, b, n, sizes, offsets, fisher)
            if weights is None:
                return None
            elements = np.repeat(fisher, sizes)
        # one stable sort per tensor size and kind of weight row (a scalar,
        # or one Fisher weight per element), over the tensors' keys
        orders = np.empty((b - a, m), np.intp)
        kinds = sizes * 2 + fisher
        for kind in np.unique(kinds):
            members = np.flatnonzero(kinds == kind)
            idx = offsets[members, None] + np.arange(sizes[members[0]])
            w_rows = weights.take(idx, axis=1) if kind & 1 else scalars[members].T[:, :, None]
            orders[members] = _stable_orders(x.take(idx, axis=1), w_rows)
        # each element's (weight, value) terms in its tensor's content order
        index = _gather(orders, sizes)
        x_terms = x.take(index)
        w_terms = np.repeat(np.take_along_axis(scalars, orders, axis=1).T, sizes, axis=1)
        if weights is not None:
            w_terms[:, elements] = weights.take(index[:, elements])
        acc = np.multiply(w_terms[0], x_terms[0], dtype=np.float64)
        for i in range(1, m):
            acc += np.multiply(w_terms[i], x_terms[i], dtype=np.float64)
        out = acc.astype(x.dtype)
        # finite inputs can still sum, or cast, past the dtype's range
        if not np.isfinite(out).all():
            return None
        return [out[lo:lo + size].reshape(shape) for lo, size, shape
                in zip(offsets.tolist(), sizes.tolist(), self.shapes[a:b])]

    def _fisher_weights(self, a, b, n, sizes, offsets, fisher):
        """The (M, n) per-element Fisher weights of the block of tensors
        ``a`` to ``b`` (only its Fisher-weighted tensors' elements are
        meaningful), as ``_FisherBlocks`` computes them; None when a Fisher
        value fails its check or a Fisher-weighted tensor does not blend."""
        names = np.flatnonzero(fisher)
        mass = np.zeros((len(self.fishers), n))
        for i, f in enumerate(self.fishers):
            # all of the block's Fisher tensors of the anchor's shape, in runs
            same = self.fisher_same[i][a:b]
            values = f.tensors.block(self.fisher_rows[i][a:b][same])
            if values is None:
                return None
            mass[i][np.repeat(same, sizes)] = values
        _normalised(mass)
        orders = np.tile(np.arange(len(mass)), (b - a, 1))
        for size in np.unique(sizes[names]):
            members = names[sizes[names] == size]
            idx = offsets[members, None] + np.arange(size)
            orders[members] = _stable_orders(mass.take(idx, axis=1))
        quotients = mass.take(_gather(orders, sizes))
        total = quotients[0].copy()
        for row in quotients[1:]:
            total += row
        weights = mass / total
        others = np.delete(weights, self.anchor, axis=0) != 0
        blended = np.logical_or.reduceat(others.any(axis=0), offsets)
        if not blended[fisher].all():
            return None
        return weights


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result raises instead
def _merge(ckpts, alignment, strategy, weights, fishers=None, metadata_extra=None):
    """The merge loop behind every strategy.

    ``weights`` is the (M, L) table of each model's weight at each shared
    layer; with ``fishers``, gradient-bearing tensors are weighed per
    element instead (see ``_FisherBlocks``). Shared tensors become weighted
    sums cast to the anchor's dtype; anchor-only tensors, and shared tensors
    whose non-anchor weights are all zero, keep the anchor's array. The
    output follows the anchor's tensor order. Tensors larger than a block
    go through ``_weighted_sum``, smaller ones through the block kernel
    (see ``_Blocks``); the tensors of a block that fails are merged again
    one at a time, which raises the error the first failing tensor gives.
    Every tensor of every input and Fisher input is checked.
    """
    if alignment.model_count != len(ckpts):
        raise MergeError(
            f"alignment covers {alignment.model_count} models, got {len(ckpts)}"
        )
    anchor = alignment.anchor
    anchor_ckpt = ckpts[anchor]
    pool = [_model_reads(c, i) for i, c in enumerate(ckpts)]
    tensors = pool[anchor].index
    names, shapes = tensors.names, tensors.shapes
    blocks = _Blocks(tensors, alignment, weights, pool, fishers)

    def merge_one(k):
        name, shape, src = names[k], shapes[k], blocks.src[k]
        if src == -2:  # not shared, or not blended
            return pool[anchor][name]
        if src == -1:
            w = _fisher_weights(fishers, name, shape)
            if not _blends(w, anchor):
                return pool[anchor][name]
        else:
            w = _Scalars(blocks.table[src])
        arrays = [p[name] for p in pool]
        for x in arrays:
            if x.shape != shape:
                raise MergeError(
                    f"shape mismatch for shared tensor '{name}': "
                    f"{x.shape} vs {shape} (alignment inconsistency)"
                )
        data = _weighted_sum(w, arrays, arrays[anchor].dtype)
        # finite inputs can still sum, or cast, past the dtype's range
        if not np.isfinite(data).all():
            raise NonFiniteTensorError(f"merged tensor '{name}' is not finite")
        return data

    merged, done = [], 0
    for j, (a, b) in enumerate(blocks.spans):
        merged.extend(map(merge_one, range(done, a)))
        data = blocks.merge(j)
        merged.extend(data if data is not None else map(merge_one, range(a, b)))
        done = b
    merged.extend(map(merge_one, range(done, len(names))))
    # tensors no merged value depends on are checked all the same
    for reads in (*pool, *(f.tensors for f in fishers or ())):
        reads.check_rest()

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
    return Checkpoint(list(map(TensorRecord, names, merged)), metadata)


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
    extra = {
        "merge_start_layer": str(schedule.start_layer),
        "merge_first_layer_weight": repr(schedule.first_layer_weight),
    }
    return _merge(ckpts, alignment, "layerwise", schedule.weights, metadata_extra=extra)


def _uniform(ckpts, alignment) -> np.ndarray:
    return np.full((len(ckpts), alignment.n_shared_layers), 1.0 / len(ckpts))


def isotropic_merge(ckpts: list[Checkpoint], alignment: SharedAlignment) -> Checkpoint:
    """Plain average of shared tensors; rejects shape-conflicted names."""
    _reject_shape_conflicts(alignment, "isotropic")
    return _merge(ckpts, alignment, "isotropic", _uniform(ckpts, alignment))


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
    weights = np.repeat([[float(s / total)] for s in exact], alignment.n_shared_layers, axis=1)
    extra = {"merge_scores": ",".join(repr(float(s)) for s in scores)}
    return _merge(ckpts, alignment, "scalar", weights, metadata_extra=extra)


def _fisher_weights(fishers, name, shape):
    """The per-element weights of one shared tensor, proportional to each
    model's Fisher values (see ``_FisherBlocks``)."""
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
    return _merge(ckpts, alignment, "fisher", _uniform(ckpts, alignment), fishers)

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
block, ``_Blocks.merge`` for several small ones. The plan of a merge
(``_Blocks``) takes each tensor down one path, and one routine weighs and
sums a large tensor whether it is streamed or read whole
(``_Blocks._sum``). A large tensor whose inputs are each read alone from an
open file is streamed: one worker thread has the checkpoint reader fill
it a chunk at a time (``read_alone``) while the kernel sums the chunks
already in (``_Stream``); the merge loop reads nothing meanwhile. A block
or a stream that cannot finish hands its tensors back by raising
``_Retry``, and they are merged again one at a time, read whole. Before
any tensor is read, the merge checks once that the models and Fisher
inputs fit the alignment (``_fitted_rows``). Every tensor of every input,
blended or not, is checked (finite, and Fisher values non-negative), and a
merged tensor that is not finite, which finite inputs reach by overflow,
raises ``NonFiniteTensorError``. Schedule weights are exact rationals
rounded to float64 once, so schedule identities hold exactly on the
rational side and to within one rounding on the float side.
"""

from __future__ import annotations

import threading
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


class _Retry(Exception):
    """A block or a stream handed back: its tensors are merged again one
    at a time, read whole, which raises the error the first failing one
    gives (see ``_merge`` and ``_Blocks.tensor``)."""


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
        Raises ``_Retry`` when a value fails or a tensor cannot be read:
        looked up one at a time, the first of them that fails raises its
        error."""
        try:
            x, passed = self._read(rows)
        except (CheckpointError, OSError):
            passed = False
        if not passed:
            raise _Retry
        return x

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
_CHUNK = 16  # blocks of each input that a ``_Stream`` reads at a time


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


def _present(hi) -> None:
    """``arrived`` of arrays read whole: every element is in."""


def _content_order(weights, xs, arrived=_present) -> list[int]:
    """Indices of the (weight, array) pairs of a weight source and flat
    arrays in content order: by the array's bytes, then the weight row's;
    ties keep their index order. ``arrived(hi)`` returns once the first
    ``hi`` elements of the arrays are in (see ``_Stream``)."""
    def blocks(lo):
        arrived(lo + _BLOCK)
        return [x[lo:lo + _BLOCK] for x in xs]

    def compare(i, j):
        return (_compare_rows(blocks, xs[0].size, i, j)
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
    added in the content order of the whole quotient rows (``_shares``, as
    for the blocks of ``_Blocks``). The last block computed is kept, so the
    content order, ``_blends`` and the kernel share it. A block is taken in
    float64 when it is computed, once ``arrived`` (see ``_content_order``)
    says that it is in.
    """

    def __init__(self, fishers, arrived=_present):
        self._fishers = [np.asarray(f).reshape(-1) for f in fishers]
        self.size = self._fishers[0].size
        self._arrived = arrived
        self._lo = self._mass = self._weights = None
        compare = partial(_compare_rows, self.mass, self.size)
        self._order = sorted(range(len(self._fishers)), key=cmp_to_key(compare))

    def mass(self, lo) -> np.ndarray:
        """The (M, n) normalised Fisher mass of the block starting at ``lo``."""
        if lo != self._lo:
            self._arrived(lo + _BLOCK)
            block = np.stack([f[lo:lo + _BLOCK] for f in self._fishers], dtype=np.float64)
            self._lo, self._mass, self._weights = lo, _normalised(block), None
        return self._mass

    def block(self, lo) -> np.ndarray:
        """The (M, n) weights of the block starting at ``lo``."""
        if lo != self._lo or self._weights is None:
            mass = self.mass(lo)
            self._weights = _shares(mass, [mass[i] for i in self._order])
        return self._weights


def _shares(mass, terms) -> np.ndarray:
    """The (M, n) ``mass`` divided by the sum of the rows ``terms``, added
    in their order."""
    total = terms[0].copy()
    for row in terms[1:]:
        total += row
    return mass / total


def _blended(weights, anchor) -> np.ndarray:
    """For each column of the (M, ...) ``weights``, whether a model other
    than the anchor has a non-zero weight."""
    return np.count_nonzero(weights, axis=0) > (weights[anchor] != 0)


def _blends(weights, anchor) -> bool:
    """Whether ``_blended`` holds for some element of a weight source."""
    return any(_blended(weights.block(lo), anchor).any() for lo in range(0, weights.size, _BLOCK))


def _weighted_sum(weights, arrays, dtype=np.float64, arrived=_present) -> np.ndarray:
    """``sum_i w_i * x_i`` in float64, cast to ``dtype``, for a weight
    source ``weights``: ``weights.block(lo)`` gives the M weights of the
    block of elements starting at ``lo``, rows of ``weights.size`` elements
    (``_Scalars`` for one weight per model, ``_FisherBlocks`` for one per
    element). A block is summed once ``arrived`` (see ``_content_order``)
    says that it is in.

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
    first, *rest = _content_order(weights, xs, arrived)
    size = xs[0].size
    out = np.empty(size, dtype)
    acc, term = np.empty(min(size, _BLOCK)), np.empty(min(size, _BLOCK))
    for lo in range(0, size, _BLOCK):
        hi = min(lo + _BLOCK, size)
        arrived(hi)
        w, a, t = weights.block(lo), acc[:hi - lo], term[:hi - lo]
        np.multiply(w[first], xs[first][lo:hi], out=a, dtype=np.float64)
        for i in rest:
            np.multiply(w[i], xs[i][lo:hi], out=t, dtype=np.float64)
            a += t
        out[lo:hi] = a
    return out.reshape(np.shape(arrays[0]))


class _Stream:
    """The arrays of one tensor of several inputs, each read alone from an
    open file, filled by one worker thread in chunks of whole blocks: chunk
    c of every input, each read by the ``fill`` of its index's
    ``read_alone`` and checked by its ``_Reads``' ``ok``, before chunk
    c + 1. The constructor raises ``_Retry`` when the tensor holds at
    most one block, so that no read could go beside the kernel, or when
    an input is not read alone. The worker stops at the first chunk that
    fails, or when told to. ``arrived(hi)`` returns once the first ``hi``
    elements of every array are in, and raises ``_Retry`` when the worker
    stopped before them. As a context manager the stream sets its worker
    going on entry, and joins it on exit, telling it to stop first when
    the exit is by an exception; an interrupt or exit that ended the
    worker is raised then. When every chunk passed, every tensor then
    counts as checked."""

    def __init__(self, inputs):
        self._inputs = inputs  # (reads, row) of each
        alone = [reads.index.read_alone(row) for reads, row in inputs]  # (array, fill) or None
        if None in alone or alone[0][0].size <= _BLOCK:
            raise _Retry
        self.arrays, self._readers = zip(*alone)
        self.size = self.arrays[0].size
        self._done, self._stop = 0, False  # elements in, and whether the worker stops
        self._interrupt = None
        self._change = threading.Condition()
        self._worker = threading.Thread(target=self._read, daemon=True)

    def __enter__(self):
        self._worker.start()
        return self

    def __exit__(self, error, *_):
        if error is not None:
            self._stop = True
        self._worker.join()
        if self._interrupt is not None:
            raise self._interrupt
        if self._done == self.size:
            for (reads, row), x in zip(self._inputs, self.arrays):
                reads._checked[row] = True
                x.setflags(write=False)

    def _read(self):
        pieces = [(reads._ok, x.reshape(-1), fill)
                  for (reads, _), x, fill in zip(self._inputs, self.arrays, self._readers)]
        chunk = _CHUNK * _BLOCK
        try:
            for lo in range(0, self.size, chunk):
                hi = min(lo + chunk, self.size)
                for ok, x, fill in pieces:
                    if self._stop or not (fill(lo, hi) and ok(x[lo:hi])):
                        return
                with self._change:
                    self._done = hi
                    self._change.notify()
        except Exception:  # the tensor is read again whole, which raises it in order
            pass
        except BaseException as interrupt:  # an interrupt or exit: raised by the joining thread
            self._interrupt = interrupt
        finally:
            with self._change:
                self._stop = True
                self._change.notify()

    def arrived(self, hi) -> None:
        hi = min(hi, self.size)
        if self._done >= hi:
            return
        with self._change:
            while self._done < hi and not self._stop:
                self._change.wait()
            if self._done < hi:
                raise _Retry


def _orders(sizes, *parts) -> np.ndarray:
    """(T, M) indices: for each of T tensors, its M rows in the order of
    their bytes, the bytes of its elements in every part put together, ties
    in index order. Each part is an (M, n) array of the tensors laid back to
    back, ``sizes`` elements each; one stable sort per tensor size."""
    offsets = np.cumsum(sizes) - sizes
    orders = np.empty((len(sizes), len(parts[0])), np.intp)
    for size in sorted(set(sizes.tolist())):  # np.unique would import numpy.ma
        members = np.flatnonzero(sizes == size)
        idx = offsets[members, None] + np.arange(size)
        key = np.concatenate([p.take(idx, axis=1).view(np.uint8) for p in parts], axis=2)
        voids = key.view(np.dtype((np.void, key.shape[2])))[..., 0]  # (M, members)
        orders[members] = np.argsort(voids, axis=0, kind="stable").T
    return orders


def _gather(orders, sizes) -> np.ndarray:
    """(M, n) flat indices into (M, n) rows of tensors laid back to back,
    of ``sizes`` elements: each element's column of rows in the order of
    its tensor's row of the (T, M) ``orders``."""
    n = int(sizes.sum())
    return np.repeat(orders.T * n, sizes, axis=1) + np.arange(n)


def _fitted_rows(tensors, shared, names, other, i, per_element=None) -> np.ndarray:
    """The row in the index ``other`` of each tensor of the anchor's index
    ``tensors``: of each of its ``shared`` rows, named ``names``, and -1
    for the others. ``other`` is model ``i``'s, and must hold every shared
    tensor with the anchor's dtype and shape; or, given ``per_element``
    (whether each shared tensor is weighed per element), it is model
    ``i``'s Fisher input, which must hold those weighed per element with
    the anchor's shape, and whose other tensors of another shape get -1.
    The first tensor that does not fit raises."""
    found = other.lookup(names)
    fit = same_signature(tensors, shared, other, found, dtype=per_element is None)
    misfit = ~fit if per_element is None else per_element & ~fit
    if misfit.any():
        k = int(np.argmax(misfit))  # the first
        name, row, shape = names[k], found[k], tensors.shapes[shared[k]]
        theirs = other.shapes[row] if row >= 0 else None
        if per_element is not None:
            raise FisherInputError(
                f"model {i} has no Fisher tensor for shared tensor '{name}'" if row < 0
                else f"Fisher tensor '{name}' of model {i} has shape {theirs}, expected {shape}")
        if row < 0:
            problem = f"model {i} has no shared tensor '{name}'"
        elif theirs != shape:
            problem = f"shape mismatch for shared tensor '{name}': {theirs} vs {shape}"
        else:
            problem = (f"dtype mismatch for shared tensor '{name}': "
                       f"{other.dtypes[row]} vs {tensors.dtypes[shared[k]]}")
        raise MergeError(f"{problem} (alignment inconsistency)")
    rows = np.full(len(tensors.names), -1)
    rows[shared] = np.where(fit, found, -1)
    return rows


class _Blocks:
    """The plan of one merge, made before any tensor is read. It first
    checks that the pool and the Fisher inputs fit the alignment: the
    anchor holds every shared tensor, every model holds each with the
    anchor's dtype and shape, and every Fisher input holds each tensor
    weighed per element with the anchor's shape; the first misfit raises.
    ``table`` is the (M, L) weights as (L, M), and ``src`` gives each
    tensor of the anchor's index ``tensors`` its row of ``table``; -1 where
    Fisher merging weighs it per element, -2 where it keeps the anchor's
    array: not shared, or in a row where no model but the anchor has a
    non-zero weight. ``rows`` and ``fisher_rows`` give each shared tensor's
    row in each model and each Fisher input, -1 for the other tensors and
    where a Fisher input has no tensor of the anchor's shape. ``spans`` are
    the blocks: runs of whole blended tensors of 1 to ``_BLOCK`` elements,
    in the anchor's order, that the kernel sums together; a block holds
    tensors of one dtype and at most ``_BLOCK`` elements. Any other tensor
    ends a block. A block's tensors are read from each source in one
    ``_Reads.block``, and each element is weighed from one (M, n) weight
    array (``merge``); every other tensor, and every tensor of a block
    handed back, is merged by ``tensor``."""

    def __init__(self, tensors, alignment, weights, pool, fishers):
        self.names = names = tensors.names
        dtypes, self.shapes = tensors.dtypes, tensors.shapes
        self.sizes = sizes = tensors.sizes
        self.anchor = anchor = alignment.anchor
        self.pool, self.fishers = pool, fishers
        self.table = np.ascontiguousarray(weights.T)
        shared_names = alignment.shared_names()
        shared = tensors.lookup(shared_names)
        if (shared < 0).any():  # argmin: the first -1
            raise MergeError(f"the anchor has no shared tensor '{shared_names[np.argmin(shared)]}' "
                             "(alignment inconsistency)")
        src = np.full(len(names), -2)
        src[shared] = [-1 if fishers is not None and kind not in NON_GRADIENT_KINDS else g.index - 1
                       for g in alignment.shared_groups for _, kind in g.members]
        # whether each row blends, then True for -1 and False for -2
        blends = np.append(_blended(weights, anchor), [False, True])
        self.src = src = np.where(blends[src], src, -2)
        fitted_rows = partial(_fitted_rows, tensors, shared, shared_names)
        self.rows = [fitted_rows(p.index, i) for i, p in enumerate(pool)]
        self.fisher_rows = [fitted_rows(f.tensors.index, i, src[shared] == -1)
                            for i, f in enumerate(fishers or ())]

        self.spans = spans = []  # [start, end) of each block
        start = end = -1
        for k in np.flatnonzero((src != -2) & (sizes > 0) & (sizes <= _BLOCK)).tolist():
            n = int(sizes[k])
            if k == end and dtypes[k] == dtypes[start] and total + n <= _BLOCK:
                end = spans[-1][1] = k + 1
                total += n
            else:
                start, end, total = k, k + 1, n
                spans.append([start, end])

    def merge(self, j):
        """The merged arrays of block ``j``, each a view of the block's
        output cast to the anchor's dtype. Raises ``_Retry`` when anything
        fails (an input not finite, a negative Fisher value, a read, a
        Fisher-weighted tensor that does not blend, an output not finite),
        so that its tensors are merged one at a time and the first failure
        raises."""
        a, b = self.spans[j]
        sizes, src = self.sizes[a:b], self.src[a:b]
        offsets = np.cumsum(sizes) - sizes
        x = np.stack([p.block(rows[a:b]) for p, rows in zip(self.pool, self.rows)])
        # each element's M weights: its tensor's row of the table (the last
        # row stands in for src -1), or its Fisher weights where src is -1
        w = np.repeat(self.table[src].T, sizes, axis=1)
        fisher = src == -1
        if fisher.any():
            w = np.where(np.repeat(fisher, sizes), self._fisher_weights(a, b, sizes, offsets, fisher), w)
        # each element's (weight, value) terms in its tensor's content order
        index = _gather(_orders(sizes, x, w), sizes)
        w_terms, x_terms = w.take(index), x.take(index)
        acc = np.multiply(w_terms[0], x_terms[0], dtype=np.float64)
        for i in range(1, len(x)):
            acc += np.multiply(w_terms[i], x_terms[i], dtype=np.float64)
        out = acc.astype(x.dtype)
        # finite inputs can still sum, or cast, past the dtype's range
        if not np.isfinite(out).all():
            raise _Retry
        return [out[lo:lo + size].reshape(shape) for lo, size, shape
                in zip(offsets.tolist(), sizes.tolist(), self.shapes[a:b])]

    def tensor(self, k):
        """The merged array of the tensor ``k`` outside a block (or of a
        block handed back): the anchor's array where ``src`` is -2, else
        the ``_sum`` of its inputs (its Fisher inputs, then the models).
        The sum is streamed where it can be (``_Stream``): the kernel sums
        the chunks already in while the worker reads the rest. When the
        stream is handed back, the inputs are read whole, which raises the
        first failure of an input."""
        if self.src[k] == -2:  # not shared, or not blended
            return self.pool[self.anchor]._get(k)
        inputs = [(p, rows[k]) for p, rows in zip(self.pool, self.rows)]
        if self.src[k] == -1:  # its Fisher inputs first
            inputs[:0] = [(f.tensors, rows[k]) for f, rows in zip(self.fishers, self.fisher_rows)]
        try:
            with _Stream(inputs) as stream:
                return self._sum(k, stream.arrays.__getitem__, stream.arrived)
        except _Retry:
            stream = None  # its arrays are freed before the inputs are read whole
        return self._sum(k, lambda j: inputs[j][0]._get(inputs[j][1]))

    def _sum(self, k, read, arrived=_present):
        """The merged array of the blended tensor ``k``, whose inputs (see
        ``tensor``) are ``read(j)``, each read once it is needed: the
        weighted sum of the models under the tensor's per-element Fisher
        weights (the anchor's array, read alone, when those do not blend),
        or under its row of ``table``. A sum that is not finite raises
        ``NonFiniteTensorError``: its inputs were all read and passed."""
        f = 0
        if self.src[k] == -1:
            f = len(self.fishers)
            w = _FisherBlocks([read(j) for j in range(f)], arrived)
            if not _blends(w, self.anchor):
                return read(f + self.anchor)
        else:
            w = _Scalars(self.table[self.src[k]])
        xs = [read(f + i) for i in range(len(self.pool))]
        out = _weighted_sum(w, xs, xs[self.anchor].dtype, arrived)
        # finite inputs can still sum, or cast, past the dtype's range
        if not np.isfinite(out).all():
            raise NonFiniteTensorError(f"merged tensor '{self.names[k]}' is not finite")
        return out

    def _fisher_weights(self, a, b, sizes, offsets, fisher):
        """The (M, n) per-element Fisher weights of the block of tensors
        ``a`` to ``b`` (only its Fisher-weighted tensors' elements are
        meaningful), as ``_FisherBlocks`` computes them. Raises ``_Retry``
        when a Fisher value fails its check or a Fisher-weighted tensor does
        not blend."""
        mass = np.zeros((len(self.fishers), int(sizes.sum())))
        for i, f in enumerate(self.fishers):
            # all of the block's Fisher tensors of the anchor's shape, in runs
            rows = self.fisher_rows[i][a:b]
            mass[i][np.repeat(rows >= 0, sizes)] = f.tensors.block(rows[rows >= 0])
        _normalised(mass)
        weights = _shares(mass, mass.take(_gather(_orders(sizes, mass), sizes)))
        blended = np.logical_or.reduceat(_blended(weights, self.anchor), offsets)
        if not blended[fisher].all():
            raise _Retry
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
    go through ``_weighted_sum``, streamed where they can be (see
    ``_Blocks.tensor``), smaller ones through the block kernel (see
    ``_Blocks``). A block or a stream that fails raises ``_Retry``, and
    its tensors are merged again one at a time, as they are read whole,
    which raises the error the first failing tensor gives; a merged
    tensor that is not finite raises at once. Every tensor of every input
    and Fisher input is checked.
    """
    if alignment.model_count != len(ckpts):
        raise MergeError(
            f"alignment covers {alignment.model_count} models, got {len(ckpts)}"
        )
    anchor = alignment.anchor
    pool = [_model_reads(c, i) for i, c in enumerate(ckpts)]
    tensors = pool[anchor].index
    names = tensors.names
    blocks = _Blocks(tensors, alignment, weights, pool, fishers)
    merged, done = [], 0
    for j, (a, b) in enumerate(blocks.spans):
        merged.extend(map(blocks.tensor, range(done, a)))
        try:
            data = blocks.merge(j)
        except _Retry:
            data = map(blocks.tensor, range(a, b))
        merged.extend(data)
        done = b
    merged.extend(map(blocks.tensor, range(done, len(names))))
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
    if META_LAYER_ORDER in ckpts[anchor].metadata:
        metadata[META_LAYER_ORDER] = ckpts[anchor].metadata[META_LAYER_ORDER]
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


def score_weights(scores) -> list[float]:
    """Each score over their sum, normalised in exact rational arithmetic
    and rounded to float64 once, as ``scalar_weighted_merge`` weighs them."""
    exact = [Fraction(float(s)) for s in scores]
    total = sum(exact)
    return [float(s / total) for s in exact]


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
    weights = np.repeat([[w] for w in score_weights(scores)], alignment.n_shared_layers, axis=1)
    extra = {"merge_scores": ",".join(repr(float(s)) for s in scores)}
    return _merge(ckpts, alignment, "scalar", weights, metadata_extra=extra)


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

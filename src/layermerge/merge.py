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
operations for every element: the block kernel (``_Blocks.merge``) for
several small tensors, and the step sum (``_step_sums``) for a tensor
larger than a block. The plan of a merge (``_Blocks``) takes each tensor
down one path. A large tensor whose inputs are each read alone from an open
file is streamed (``_Stream``): the main thread and one helper split its
chunks, and each reads the chunk of every input into buffers it keeps
(``read_alone``), checks it, and step-sums it, in the orders that the main
thread fixes from chunk 0 as the whole read (``_Blocks._sum``) fixes them
from the whole tensor (rows tied there stay tied in every chunk, or the
tensor is handed back); the merge loop reads nothing meanwhile. Any other
large tensor is read whole and step-summed on the calling thread. The
helper starts inside the ``with`` that joins it. A block or a stream that
cannot finish hands its tensors back by raising ``_Retry``, and they are
merged again one at a time, read whole.
Before any tensor is read, the merge checks once that the models and
Fisher inputs fit the alignment (``_fitted_rows``). Every tensor of every input,
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
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key, partial
from itertools import count, pairwise

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
    name held twice is refused, and read as ``read_flat`` reads them, which
    alone decides which are one view of a run of a file and reports each
    run once, in the read that reads it. One flag per row records that the
    row passed: a run that passes one ``ok`` flags all its rows, so only a
    tensor of a run that failed, or of none, is tried on its own, and every
    error is still raised when its tensor is looked up. ``block`` reads
    several tensors at once for the block kernel. ``check_rest`` reads and
    checks the tensors not flagged yet, so that none goes unchecked."""

    def __init__(self, ckpt, ok, reject):
        self.index = index(ckpt)
        if len(self.index.rows) < len(self.index.names):
            ckpt.validate()  # raises its duplicate-name error
        self._ok, self._reject = ok, reject
        self._checked = np.zeros(len(self.index.names), bool)

    def _read(self, rows, pieces, runs):
        """``(values, passed)``: the values of the tensors ``rows`` (an array
        of rows, or one row), read in ``pieces`` that hold them back to back,
        in one flat array, and whether they pass. Each run read with them,
        ``(run, values)`` in ``runs``, is checked first, and flags its rows
        when it passes ``ok``; the values pass at once when every row is
        flagged, else when they all pass ``ok`` together, and then every row
        is flagged."""
        x = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
        for run, values in runs:
            if self._ok(values):
                self._checked[self.index.members[run]] = True
        # one flag, or an array of them (all() of one flag is slow)
        passed = bool(flags.all() if (flags := self._checked[rows]).ndim else flags) or self._ok(x)
        if passed:
            self._checked[rows] = True
        return x, passed

    def _get(self, row):
        """The array of the tensor ``row``, read as ``read_flat`` reads one
        tensor, without its walk over several: a view of its run, with the
        run's values when this read read it, or else the tensor read
        alone."""
        index = self.index
        got = (index.view(row, int(index.sizes[row])) if index.runs[row] >= 0 else None) or (None, None)
        piece = index.read(row) if got[0] is None else got[0].reshape(index.shapes[row])
        x, passed = self._read(row, [piece], [] if got[1] is None else [(index.runs[row], got[1])])
        if not passed:
            self._reject(index.names[row], x)
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
            x, passed = self._read(rows, *read_flat(self.index, rows))
        except (CheckpointError, OSError):
            passed = False
        if not passed:
            raise _Retry
        return x

    def check_rest(self) -> None:
        for row in np.flatnonzero(~self._checked).tolist():
            if not self._checked[row]:  # its run may have passed since
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
_CHUNK = 16  # blocks of each input that a ``_Stream`` thread reads at a time
_STEP = 1 << 15  # elements that a ``_Stream`` thread weighs and sums at a time


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
    def blocks(lo):
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
    content order, ``_blends`` and the kernel share it.
    """

    def __init__(self, fishers):
        self._fishers = [np.asarray(f).reshape(-1) for f in fishers]
        self.size = self._fishers[0].size
        self._lo = self._mass = self._weights = None
        self.order = sorted(range(len(fishers)), key=cmp_to_key(partial(_compare_rows, self.mass, self.size)))

    def mass(self, lo) -> np.ndarray:
        """The (M, n) normalised Fisher mass of the block starting at ``lo``."""
        if lo != self._lo:
            block = np.stack([f[lo:lo + _BLOCK] for f in self._fishers], dtype=np.float64)
            self._lo, self._mass, self._weights = lo, _normalised(block), None
        return self._mass

    def block(self, lo) -> np.ndarray:
        """The (M, n) weights of the block starting at ``lo``."""
        if lo != self._lo or self._weights is None:
            mass = self.mass(lo)
            self._weights = _shares(mass, [mass[i] for i in self.order])
        return self._weights


def _shares(mass, terms, out=None) -> np.ndarray:
    """The (M, n) ``mass`` divided by the sum of the rows ``terms``, added
    in their order, into ``out`` if given."""
    total = terms[0].copy()
    for row in terms[1:]:
        total += row
    return np.divide(mass, total, out=out)


def _blended(weights, anchor) -> np.ndarray:
    """For each column of the (M, ...) ``weights``, whether a model other
    than the anchor has a non-zero weight."""
    return np.count_nonzero(weights, axis=0) > (weights[anchor] != 0)


def _blends(weights, anchor) -> bool:
    """Whether ``_blended`` holds for some element of a weight source."""
    return any(_blended(weights.block(lo), anchor).any() for lo in range(0, weights.size, _BLOCK))


def _step_sums(pieces, f, w, order, mass_order, out, buffer) -> bool:
    """Weighs and sums the models' flat ``pieces``, after the first ``f``,
    which are Fisher inputs, into ``out`` in steps of ``_STEP`` elements,
    and returns whether ``out`` is finite. Each step adds the float64 terms
    ``w[i] * x[i]`` in ``order``, under the M scalars ``w`` or, given Fisher
    inputs, under the step's shares of their normalised mass, added in
    ``mass_order`` (``_FisherBlocks``). The step works in the float64
    ``buffer`` of ``(f or 2) * min(out.size, _STEP)`` elements: two rows,
    the sum and each term; or ``f`` rows, the mass, then the weights in its
    place, then the sum and each term in place of their weights."""
    first, *rest = order
    for s in range(0, out.size, _STEP):
        e = min(s + _STEP, out.size)
        work = buffer[:(f or 2) * (e - s)].reshape(f or 2, e - s)
        if f:
            _normalised(np.stack([x[s:e] for x in pieces[:f]], out=work))
            w = _shares(work, [work[i] for i in mass_order], work)
        acc = np.multiply(w[first], pieces[f + first][s:e], out=work[first if f else 0], dtype=np.float64)
        for i in rest:
            acc += np.multiply(w[i], pieces[f + i][s:e], out=work[i if f else 1], dtype=np.float64)
        out[s:e] = acc
    return bool(np.isfinite(out).all())  # finite inputs can sum, or cast, past the range


def _ties(blocks, size, pairs) -> list:
    """The ``pairs`` of rows that tie by ``_compare_rows`` over ``blocks``
    and ``size``."""
    return [(i, j) for i, j in pairs if _compare_rows(blocks, size, i, j) == 0]


class _Stream(AbstractContextManager):
    """The merge of one blended tensor larger than a block whose inputs
    (see ``_Blocks.tensor``) are each read alone from an open file, in
    chunks of ``_CHUNK`` blocks, by the main thread and one helper. The
    constructor raises ``_Retry`` when an input is not read alone or the
    tensor holds at most one block.

    Each thread claims the next chunk from a shared counter and does all of
    it in buffers that it keeps across chunks and tensors (``_buffer``): it
    reads the chunk of every input with the ``fill`` of its index's
    ``read_alone`` and checks each piece with its ``_Reads``' ``ok``
    (``_run``); it weighs and sums the chunk with ``_step_sums``, as the
    whole read sums the whole tensor, into its slice of the output, noting
    whether that slice is finite (``_sum``). The main thread claims chunk
    0 and, before the helper starts, fixes from it what the whole read
    decides over the whole tensor (``_begin``); where rows tie over all of
    chunk 0, that holds while their inputs tie in every later chunk, which
    each thread checks. The first read or check that fails, or a tie that
    a later chunk breaks, stops both threads, as does any exception;
    ``merge`` then raises ``_Retry``, and the tensor is read whole, which
    raises the first failing input's error in order. The stream is a
    context manager whose exit joins the helper, which starts inside the
    ``with``, so no exit, an interrupt included, leaves it running; an
    interrupt cannot end it, as Python runs signal handlers on the main
    thread only. Each thread enters the merge's numpy error state itself,
    as a new thread starts in numpy's default one."""

    def __init__(self, blocks, k, inputs):
        alone = [reads.index.read_alone(row) for reads, row in inputs]  # (dtype, fill) or None
        if None in alone or blocks.sizes[k] <= _BLOCK:
            raise _Retry
        self._dtypes, self._fills = zip(*alone)
        self._blocks, self._k, self._inputs = blocks, k, inputs
        # the number of Fisher inputs, which come first, and the weights unless weighed per element
        self._f, self._w = len(inputs) - len(blocks.pool), blocks.table[blocks.src[k]]
        self._size, self._chunk = int(blocks.sizes[k]), _CHUNK * _BLOCK
        # _claim: the next chunk to merge, one call that the GIL makes atomic
        self._claim, self._stop, self._finite = count().__next__, False, True
        self._helper = threading.Thread(target=self._run, args=(1,), daemon=True)

    def __exit__(self, error, *_):
        if error is not None:  # stops the helper; only ever set, so no update of it is lost
            self._stop = True
        if self._helper.is_alive():
            self._helper.join()

    def merge(self) -> np.ndarray:
        """The merged array of the tensor; ``NonFiniteTensorError`` when the
        sum is not finite, as every chunk of every input passed."""
        with self:
            self._run(0)
        if self._stop:
            raise _Retry
        for reads, row in self._inputs:
            reads._checked[row] = True
        if not self._finite:
            raise NonFiniteTensorError(f"merged tensor '{self._blocks.names[self._k]}' is not finite")
        return self._out.reshape(self._blocks.shapes[self._k])

    def _begin(self, pieces) -> None:
        """Fixes from chunk 0's ``pieces``, as the whole-read path does from
        the whole tensor, the order of the normalised Fisher mass rows and
        the content order of the models, makes the output and starts the
        helper. Raises ``_Retry`` when a Fisher-weighted tensor does not
        blend in chunk 0. Rows that tie over all of chunk 0 could be ordered
        by a later chunk, so chunk 0's orders hold only while the inputs of
        such rows tie in every chunk: the pairs of ``_twins``, of models tied
        next to each other in the content order, of Fisher inputs whose mass
        rows tie next to each other in theirs, and of the Fisher inputs of
        tied models whose weights tie as well."""
        f, anchor, xs = self._f, self._blocks.anchor, pieces[self._f:]
        w = _FisherBlocks(pieces[:f]) if f else _Scalars(self._w)
        if f and not _blends(w, anchor):
            raise _Retry
        self._order, self._mass_order = _content_order(w, xs), w.order if f else None
        tied = _ties(lambda lo: [x[lo:lo + _BLOCK] for x in xs], xs[0].size, pairwise(self._order))
        fisher = _ties(w.mass, w.size, pairwise(w.order)) + _ties(w.block, w.size, tied) if f else []
        self._twins = [(f + i, f + j) for i, j in tied] + fisher
        self._out = np.empty(self._size, xs[anchor].dtype)
        self._helper.start()

    def _buffer(self, t, j, n, dtype=np.float64) -> np.ndarray:
        """Thread ``t``'s buffer ``j`` (``_Blocks.work``) as ``n`` elements
        of ``dtype``, grown when it is too small."""
        buffers, nbytes = self._blocks.work[t], n * np.dtype(dtype).itemsize
        if len(buffers.get(j, b"")) < nbytes:
            buffers[j] = np.empty(nbytes, np.uint8)
        return buffers[j][:nbytes].view(dtype)

    def _run(self, t) -> None:
        """Thread ``t``'s part: each chunk it claims, until none is left or
        the stream stops. It reads the chunk of every input into its buffer
        of the input and checks it, and a piece that fails, or the stream
        stopping, raises ``_Retry``; then it sums the chunk. The main thread
        claims chunk 0 first, and starts the helper once it has fixed the
        orders from it (``_begin``). A later chunk where two inputs of
        ``_twins`` differ raises ``_Retry`` too."""
        with np.errstate(over="ignore", invalid="ignore"):  # a new thread has numpy's default state
            try:
                while not self._stop and (c := self._claim()) * self._chunk < self._size:
                    lo, hi = c * self._chunk, min((c + 1) * self._chunk, self._size)
                    pieces = [self._buffer(t, j, hi - lo, dtype) for j, dtype in enumerate(self._dtypes)]
                    for (reads, _), fill, x in zip(self._inputs, self._fills, pieces):
                        if self._stop or not (fill(lo, hi, x) and reads._ok(x)):
                            raise _Retry
                    if c == 0:
                        self._begin(pieces)
                    elif any(pieces[i].tobytes() != pieces[j].tobytes() for i, j in self._twins):
                        raise _Retry
                    self._sum(t, lo, pieces)
            except Exception:  # the tensor is read again whole, which raises it in order
                self._stop = True

    def _sum(self, t, lo, pieces) -> None:
        """The chunk of the models from element ``lo`` weighed and summed
        from ``pieces`` by ``_step_sums``, in thread ``t``'s buffer, into its
        slice of the output, whose finiteness is noted."""
        out = self._out[lo:lo + pieces[0].size]
        buffer = self._buffer(t, len(pieces), (self._f or 2) * min(out.size, _STEP))
        if not _step_sums(pieces, self._f, self._w, self._order, self._mass_order, out, buffer):
            self._finite = False


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
        self.work = [{}, {}]  # the buffers of each thread of a ``_Stream``
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
        fails (an input not finite, a negative Fisher value, a read, an
        output not finite), so that its tensors are merged one at a time and
        the first failure raises. A Fisher-weighted tensor that blends
        nowhere keeps the anchor's values, as it does merged alone."""
        a, b = self.spans[j]
        sizes, src = self.sizes[a:b], self.src[a:b]
        offsets = np.cumsum(sizes) - sizes
        x = np.stack([p.block(rows[a:b]) for p, rows in zip(self.pool, self.rows)])
        # each element's M weights: its tensor's row of the table (the last
        # row stands in for src -1), or its Fisher weights where src is -1
        w = np.repeat(self.table[src].T, sizes, axis=1)
        fisher, kept = src == -1, None
        if fisher.any():
            fisher_w, kept = self._fisher_weights(a, b, sizes, offsets, fisher)
            w = np.where(np.repeat(fisher, sizes), fisher_w, w)
        # each element's (weight, value) terms in its tensor's content order
        index = _gather(_orders(sizes, x, w), sizes)
        w_terms, x_terms = w.take(index), x.take(index)
        acc = np.multiply(w_terms[0], x_terms[0], dtype=np.float64)
        for i in range(1, len(x)):
            acc += np.multiply(w_terms[i], x_terms[i], dtype=np.float64)
        out = acc.astype(x.dtype)
        if kept is not None:
            np.copyto(out, x[self.anchor], where=kept)
        # finite inputs can still sum, or cast, past the dtype's range
        if not np.isfinite(out).all():
            raise _Retry
        return [out[lo:lo + size].reshape(shape) for lo, size, shape
                in zip(offsets.tolist(), sizes.tolist(), self.shapes[a:b])]

    def tensor(self, k):
        """The merged array of the tensor ``k`` outside a block (or of a
        block handed back): the anchor's array where ``src`` is -2, else
        the ``_sum`` of its inputs (its Fisher inputs, then the models).
        The tensor is streamed where it can be (``_Stream``): read, checked
        and summed a chunk at a time by two threads. When the stream is
        handed back, the inputs are read whole, which raises the first
        failure of an input."""
        if self.src[k] == -2:  # not shared, or not blended
            return self.pool[self.anchor]._get(k)
        inputs = [(p, rows[k]) for p, rows in zip(self.pool, self.rows)]
        if self.src[k] == -1:  # its Fisher inputs first
            inputs[:0] = [(f.tensors, rows[k]) for f, rows in zip(self.fishers, self.fisher_rows)]
        try:
            return _Stream(self, k, inputs).merge()
        except _Retry:
            return self._sum(k, lambda j: inputs[j][0]._get(inputs[j][1]))

    def _sum(self, k, read):
        """The merged array of the blended tensor ``k``, whose inputs (see
        ``tensor``) are ``read(j)``, each read once it is needed: the
        ``_step_sums`` of the models over the whole tensor under its
        per-element Fisher weights (the anchor's array, read alone, when
        those do not blend), or under its row of ``table``, in the content
        order of the whole tensor. A sum that is not finite raises
        ``NonFiniteTensorError``: its inputs were all read and passed."""
        f = len(self.fishers) if self.src[k] == -1 else 0
        w = self.table[self.src[k]]  # the last row, unused, where weighed per element
        pieces = [read(j).reshape(-1) for j in range(f)]
        weights = _FisherBlocks(pieces) if f else _Scalars(w)
        if f and not _blends(weights, self.anchor):
            return read(f + self.anchor)
        pieces += [read(f + i).reshape(-1) for i in range(len(self.pool))]
        out = np.empty(pieces[f].size, pieces[f + self.anchor].dtype)
        order, buffer = _content_order(weights, pieces[f:]), np.empty((f or 2) * min(out.size, _STEP))
        if not _step_sums(pieces, f, w, order, weights.order if f else None, out, buffer):
            raise NonFiniteTensorError(f"merged tensor '{self.names[k]}' is not finite")
        return out.reshape(self.shapes[k])

    def _fisher_weights(self, a, b, sizes, offsets, fisher):
        """The (M, n) per-element Fisher weights of the block of tensors
        ``a`` to ``b`` (only its Fisher-weighted tensors' elements are
        meaningful), as ``_FisherBlocks`` computes them, and whether each
        element is of a Fisher-weighted tensor that blends nowhere. Raises
        ``_Retry`` when a Fisher value fails its check."""
        mass = np.zeros((len(self.fishers), int(sizes.sum())))
        for i, f in enumerate(self.fishers):
            # all of the block's Fisher tensors of the anchor's shape, in runs
            rows = self.fisher_rows[i][a:b]
            mass[i][np.repeat(rows >= 0, sizes)] = f.tensors.block(rows[rows >= 0])
        _normalised(mass)
        weights = _shares(mass, mass.take(_gather(_orders(sizes, mass), sizes)))
        blended = np.logical_or.reduceat(_blended(weights, self.anchor), offsets)
        return weights, np.repeat(fisher & ~blended, sizes)


def _merge(ckpts, alignment, strategy, weights, fishers=None, metadata_extra=None):
    """The merge loop behind every strategy.

    ``weights`` is the (M, L) table of each model's weight at each shared
    layer; with ``fishers``, gradient-bearing tensors are weighed per
    element instead (see ``_FisherBlocks``). Shared tensors become weighted
    sums cast to the anchor's dtype; anchor-only tensors, and shared tensors
    whose non-anchor weights are all zero, keep the anchor's array. The
    output follows the anchor's tensor order. Tensors larger than a block
    go through ``_step_sums``, streamed where they can be (see
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
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result raises instead
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

"""Per-layer, per-kind parameter discrepancy profiling between checkpoints.

For two checkpoints sharing parameters, count how many elements of each
(layer group, parameter kind) pair differ by at least a threshold relative
to the first checkpoint. Two threshold modes are provided:

* ``elementwise`` (default): element k is flagged when
  ``|a_k - b_k| >= |a_k| / tau``. This is the reading that yields
  per-parameter counts; a zero reference element gives a zero threshold,
  so any nonzero difference there is flagged.
* ``layer_norm``: the vector threshold ``||a||_2 / tau`` of the
  (group, kind) slice is distributed per element, flagging
  ``|a_k - b_k| >= ||a||_2 / (tau * sqrt(n))`` with n the slice size.
  Where the slice's sum of squares would overflow or underflow, the norm
  is taken of the slice divided by its largest ``|a_k|``, so finite values
  of any size get the threshold they define.

A difference past the float range exceeds any finite threshold, and is
flagged. Where the threshold is past the float range too, the element is
decided again from halved values: ``|a_k/2 - b_k/2|`` against the threshold
of ``a/2``.

Identical elements are never flagged, so the self-profile is zero in both
modes. Larger tau lowers the thresholds, so counts are non-decreasing in
tau.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .alignment import KIND_ORDER, shared_parameters
from .checkpoint import Checkpoint, index, read_flat

MODES = ("elementwise", "layer_norm")


class DiscrepancyError(Exception):
    pass


@dataclass(frozen=True)
class ProfileRow:
    layer_index: int
    kind: str
    exceed_count: int
    total_count: int

    @property
    def fraction(self) -> float:
        return self.exceed_count / self.total_count if self.total_count else 0.0


@dataclass(frozen=True)
class DiscrepancyProfile:
    tau: float
    mode: str
    rows: tuple[ProfileRow, ...]

    def total_fraction(self) -> float:
        total = sum(r.total_count for r in self.rows)
        exceed = sum(r.exceed_count for r in self.rows)
        return exceed / total if total else 0.0


# elements of (group, kind) slices compared with one set of array operations:
# few enough that a batch's float64 working arrays take about 0.5 MB each
_BATCH = 1 << 16
_HALF_MAX = np.finfo(np.float64).max / 2


def discrepancy_profile(
    a: Checkpoint,
    b: Checkpoint,
    tau: float,
    mode: str = "elementwise",
) -> DiscrepancyProfile:
    """Profile where two checkpoints disagree, per layer and parameter kind.

    The (group, kind) slices are compared in batches of about ``_BATCH``
    elements (a larger slice is a batch of its own): each batch is read
    and flattened to float64 once, and its flags are counted per slice.
    Every element meets the same operations as in a slice-by-slice
    comparison, and each ``layer_norm`` norm is taken over its slice
    alone, so the counts do not depend on the batching. Of a checkpoint
    opened with ``open_file``, a batch's tensors that lie back to back in
    one run of the file are read as one view of it (``read_flat``), and
    only one batch is held at a time.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise DiscrepancyError(f"tau must be a positive real, got {tau!r}")
    if mode not in MODES:
        raise DiscrepancyError(f"unknown mode {mode!r}, expected one of {MODES}")

    alignment = shared_parameters([a, b], anchor=0)
    # each (group, kind) slice and where its tensors are in ``names``
    slices, names = [], []
    for group in alignment.shared_groups:
        by_kind: dict[str, list[str]] = {}
        for name, kind in group.members:
            by_kind.setdefault(kind, []).append(name)
        for kind in KIND_ORDER:
            if kind in by_kind:
                slices.append((group, kind, len(names), len(names) + len(by_kind[kind])))
                names += by_kind[kind]
    sides = [(tensors, tensors.lookup(names)) for tensors in map(index, (a, b))]
    firsts = [first for _, _, first, _ in slices]
    tensors, found = sides[0]
    elements = np.add.reduceat(tensors.sizes[found], firsts).tolist()

    rows, batch, size = [], [], 0
    for (group, kind, first, end), n in zip(slices, elements):
        if batch and size + n > _BATCH:
            rows += _compare(batch, sides, tau, mode)
            batch, size = [], 0
        batch.append((group, kind, first, end, n))
        size += n
    rows += _compare(batch, sides, tau, mode)
    return DiscrepancyProfile(tau=float(tau), mode=mode, rows=tuple(rows))


def _compare(batch, sides, tau, mode) -> list[ProfileRow]:
    """The rows of a batch of ``(group, kind, first, end, size)`` slices,
    the tensors ``first`` to ``end`` of each side's rows."""
    lo, hi = batch[0][2], batch[-1][3]
    ref, other = (
        np.concatenate(read_flat(tensors, found[lo:hi])[0], dtype=np.float64)
        for tensors, found in sides
    )
    bounds = [0, *accumulate(n for *_, n in batch)]
    if not (np.isfinite(ref).all() and np.isfinite(other).all()):
        for (group, kind, *_), lo, hi in zip(batch, bounds, bounds[1:]):
            if not (np.isfinite(ref[lo:hi]).all() and np.isfinite(other[lo:hi]).all()):
                raise DiscrepancyError(f"non-finite values in group '{group.prefix}' kind '{kind}'")
    # finite values can overflow: an inf difference is flagged, a norm past
    # the float range is taken again scaled (``_norm_threshold``), and a tiny
    # tau can take a threshold past the float range, where inf flags nothing.
    # Where both overflow, halved values decide; only values past half the
    # float range make a difference overflow, so those are kept. The
    # difference goes into ``other``'s copy, an elementwise threshold into
    # ``ref``'s, and a per-slice one is repeated once ``ref`` is freed.
    big = np.flatnonzero((ref > _HALF_MAX) | (ref < -_HALF_MAX)
                         | (other > _HALF_MAX) | (other < -_HALF_MAX))
    halves = ref[big] / 2, other[big] / 2
    with np.errstate(over="ignore"):
        diff = np.abs(np.subtract(ref, other, out=other), out=other)
        if mode == "elementwise":
            threshold = np.divide(np.abs(ref, out=ref), tau, out=ref)
            halved = np.abs(halves[0]) / tau
        else:
            parts = [_norm_threshold(ref[lo:hi], tau) for lo, hi in zip(bounds, bounds[1:])]
            owners = (np.searchsorted(bounds, big, "right") - 1).tolist()  # each one's slice
            past = {s: _norm_threshold(ref[bounds[s]:bounds[s + 1]] / 2, tau)
                    for s in set(owners) if math.isinf(parts[s])}
            halved = np.array([past.get(s, 0.0) for s in owners])  # read only where inf
            del ref
            threshold = np.repeat(parts, np.diff(bounds))
    flagged = (diff >= threshold) & (diff > 0)
    redo = np.isinf(diff[big]) & np.isinf(threshold[big])
    flagged[big[redo]] = (np.abs(halves[0] - halves[1]) >= halved)[redo]
    return [ProfileRow(group.index, kind, int(np.count_nonzero(flagged[lo:hi])), int(n))
            for (group, kind, *_, n), lo, hi in zip(batch, bounds, bounds[1:])]


def _norm_threshold(a, tau) -> float:
    """The ``layer_norm`` threshold of the slice ``a`` of n values,
    ``||a||_2 / (tau * sqrt(n))``: the norm over ``tau * sqrt(n)`` while
    the sum of squares is a normal float, else ``max |a|`` over
    ``tau * sqrt(n)`` divided by the norm of ``a / max |a|``, whose squares
    neither overflow nor underflow. An empty slice, whose divisor is 0,
    gets 0."""
    norm, divisor = np.linalg.norm(a), tau * math.sqrt(a.size)
    if 2.0 ** -511 <= norm < math.inf or not a.any():  # 2**-511 squared is the least normal
        return norm / divisor if a.size else 0.0
    return (peak := np.abs(a).max()) / (divisor / np.linalg.norm(a / peak))


CSV_HEADER = "layer_index,kind,exceed_count,total_count,fraction"


def emit_profile(profile: DiscrepancyProfile, format: str = "csv") -> bytes:
    """Render a profile as CSV or JSON bytes with a stable row order."""
    if format == "csv":
        lines = [CSV_HEADER, *(f"{r.layer_index},{r.kind},{r.exceed_count},{r.total_count},"
                               f"{r.fraction!r}" for r in profile.rows)]
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "json":
        payload = {
            "tau": profile.tau,
            "mode": profile.mode,
            "rows": [{**vars(r), "fraction": r.fraction} for r in profile.rows],
        }
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    raise DiscrepancyError(f"unknown format {format!r}, expected 'csv' or 'json'")

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
    elements = np.add.reduceat(tensors.sizes[found], firsts).tolist() if slices else []

    rows, batch, size = [], [], 0
    for (group, kind, first, end), n in zip(slices, elements):
        if batch and size + n > _BATCH:
            rows += _compare(batch, sides, tau, mode)
            batch, size = [], 0
        batch.append((group, kind, first, end, n))
        size += n
    if batch:
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
                raise DiscrepancyError(
                    f"non-finite values in group '{group.prefix}' kind '{kind}'"
                )
    diff = np.abs(ref - other)
    if mode == "elementwise":
        threshold = np.abs(ref) / tau
    else:
        norms = [np.linalg.norm(ref[lo:hi]) / (tau * math.sqrt(n)) if n else 0.0
                 for (*_, n), lo, hi in zip(batch, bounds, bounds[1:])]
        threshold = np.repeat(norms, [n for *_, n in batch])
    flagged = (diff >= threshold) & (diff > 0)
    return [ProfileRow(group.index, kind, int(np.count_nonzero(flagged[lo:hi])), int(n))
            for (group, kind, *_, n), lo, hi in zip(batch, bounds, bounds[1:])]


CSV_HEADER = "layer_index,kind,exceed_count,total_count,fraction"


def emit_profile(profile: DiscrepancyProfile, format: str = "csv") -> bytes:
    """Render a profile as CSV or JSON bytes with a stable row order."""
    if format == "csv":
        lines = [CSV_HEADER]
        for r in profile.rows:
            lines.append(
                f"{r.layer_index},{r.kind},{r.exceed_count},{r.total_count},{r.fraction!r}"
            )
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "json":
        payload = {
            "tau": profile.tau,
            "mode": profile.mode,
            "rows": [{**vars(r), "fraction": r.fraction} for r in profile.rows],
        }
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    raise DiscrepancyError(f"unknown format {format!r}, expected 'csv' or 'json'")

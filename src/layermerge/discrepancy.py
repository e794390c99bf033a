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

import numpy as np

from .alignment import KIND_ORDER, shared_parameters
from .checkpoint import Checkpoint

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


def discrepancy_profile(
    a: Checkpoint,
    b: Checkpoint,
    tau: float,
    mode: str = "elementwise",
) -> DiscrepancyProfile:
    """Profile where two checkpoints disagree, per layer and parameter kind."""
    if not (math.isfinite(tau) and tau > 0):
        raise DiscrepancyError(f"tau must be a positive real, got {tau!r}")
    if mode not in MODES:
        raise DiscrepancyError(f"unknown mode {mode!r}, expected one of {MODES}")

    alignment = shared_parameters([a, b], anchor=0)
    a_arrays, b_arrays = a.arrays(), b.arrays()
    rows = []
    for group in alignment.shared_groups:
        by_kind: dict[str, list[str]] = {}
        for name, kind in group.members:
            by_kind.setdefault(kind, []).append(name)
        for kind in KIND_ORDER:
            if kind not in by_kind:
                continue
            ref, other = (
                np.concatenate([np.asarray(x[n], dtype=np.float64).ravel() for n in by_kind[kind]])
                for x in (a_arrays, b_arrays)
            )
            if not (np.all(np.isfinite(ref)) and np.all(np.isfinite(other))):
                raise DiscrepancyError(
                    f"non-finite values in group '{group.prefix}' kind '{kind}'"
                )
            diff = np.abs(ref - other)
            n = ref.size
            if mode == "elementwise":
                threshold = np.abs(ref) / tau
            else:
                threshold = np.full(n, np.linalg.norm(ref) / (tau * math.sqrt(n))) if n else ref
            flagged = (diff >= threshold) & (diff > 0)
            rows.append(ProfileRow(group.index, kind, int(flagged.sum()), int(n)))
    return DiscrepancyProfile(tau=float(tau), mode=mode, rows=tuple(rows))


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

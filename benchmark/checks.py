"""Output checks. Each returns a list of error strings; empty means correct.

References are computed by the benchmark itself in float64, from inputs
read with its own reader. Only the final checkpoint load (the "every merge
output loads" check) and the schedule's exact rational weights come from
the code under test.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from pools import DTYPE_NAMES, read_checkpoint

KINDS = ("weight", "bias", "bn_mean", "bn_var", "other")
SUFFIX_KINDS = {".weight": "weight", ".bias": "bias", ".running_mean": "bn_mean", ".running_var": "bn_var"}
BN_KINDS = {"bn_mean", "bn_var"}
MAX_REPORTED = 5


def kind_of(name: str) -> str:
    for suffix, kind in SUFFIX_KINDS.items():
        if name.endswith(suffix):
            return kind
    return "other"


def shared_groups(models: list[dict], anchor: int = 0) -> list[list[str]]:
    """Layer groups (name prefix up to the last dot, in anchor order) whose
    every member exists in every model with the anchor's dtype and shape."""
    ref = models[anchor]
    groups: dict[str, list[str]] = {}
    for name in ref:
        groups.setdefault(name.rsplit(".", 1)[0], []).append(name)

    def shared(name):
        return all(
            name in m and m[name].dtype == ref[name].dtype and m[name].shape == ref[name].shape
            for m in models
        )

    return [names for names in groups.values() if all(shared(n) for n in names)]


def _bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _ulp_violations(merged: np.ndarray, reference: np.ndarray) -> int:
    """Elements further than one ulp (of the merged dtype) from the reference."""
    tol = np.spacing(np.abs(reference).astype(merged.dtype)).astype(np.float64)
    return int(np.count_nonzero(np.abs(merged.astype(np.float64) - reference) > tol))


def _stack64(models, name) -> np.ndarray:
    return np.stack([np.asarray(m[name], dtype=np.float64) for m in models])


def closed_form_schedule(models: int, layers: int) -> list[list[Fraction]]:
    """Default layer-wise weights, anchor first: each non-anchor model has
    (L - j) / (L M) at shared layer j, and the anchor has the rest."""
    donor = [Fraction(layers - j, layers * models) for j in range(1, layers + 1)]
    return [[1 - (models - 1) * w for w in donor]] + [list(donor) for _ in range(models - 1)]


def check_merge(out_path: Path, model_paths, strategy: str, fisher_paths=()) -> list[str]:
    from layermerge.checkpoint import CheckpointError, load
    from layermerge.merge import compute_schedule

    try:
        merged = load(out_path)
    except (CheckpointError, OSError, ValueError) as exc:
        return [f"merge output does not load: {exc}"]
    models = [read_checkpoint(p) for p in model_paths]
    anchor = models[0]
    layout = [(t.name, t.dtype, t.shape) for t in merged.tensors]
    expected = [(n, DTYPE_NAMES[a.dtype], tuple(a.shape)) for n, a in anchor.items()]
    if layout != expected:
        return ["merge output names, order, dtypes or shapes differ from the anchor"]
    out = {t.name: t.data for t in merged.tensors}

    errors: list[str] = []
    groups = shared_groups(models)
    shared = {n for g in groups for n in g}
    for name in anchor:
        if name not in shared and not _bit_equal(out[name], anchor[name]):
            errors.append(f"anchor-only tensor {name} is not bit-identical to the anchor")

    if strategy == "layerwise":
        exact = compute_schedule(len(models), len(groups), 0).exact_weights
        if exact != closed_form_schedule(len(models), len(groups)):
            return [*errors, "compute_schedule weights differ from the closed form (L - j) / (L M)"]
    else:
        fishers = [read_checkpoint(p) for p in fisher_paths]
    for j, group in enumerate(groups):
        for name in group:
            x = _stack64(models, name)
            if strategy == "layerwise":
                if j == len(groups) - 1:
                    if not _bit_equal(out[name], anchor[name]):
                        errors.append(f"last shared layer tensor {name} is not the anchor's")
                    continue
                w = np.array([float(exact[i][j]) for i in range(len(models))])
                ref = np.tensordot(w, x, axes=1)
            elif kind_of(name) in BN_KINDS:
                ref = x.mean(axis=0)
            else:
                f = _stack64(fishers, name)
                mass = f.sum(axis=0)
                zero = mass == 0.0
                ref = np.where(zero, x.mean(axis=0), (f * x).sum(axis=0) / np.where(zero, 1.0, mass))
            bad = _ulp_violations(out[name], ref)
            if bad:
                errors.append(f"{name}: {bad} elements beyond 1 ulp of the float64 reference")
        if len(errors) > MAX_REPORTED:
            break
    return errors[:MAX_REPORTED]


def profile_rows(a_path: Path, b_path: Path, tau: float) -> list[tuple]:
    """Numpy recount of the elementwise discrepancy profile of b against a."""
    a, b = read_checkpoint(a_path), read_checkpoint(b_path)
    rows = []
    for index, group in enumerate(shared_groups([a, b]), start=1):
        for kind in KINDS:
            names = [n for n in group if kind_of(n) == kind]
            if not names:
                continue
            ref = np.concatenate([np.asarray(a[n], dtype=np.float64).ravel() for n in names])
            other = np.concatenate([np.asarray(b[n], dtype=np.float64).ravel() for n in names])
            diff = np.abs(ref - other)
            flagged = (diff >= np.abs(ref) / tau) & (diff > 0)
            rows.append((index, kind, int(flagged.sum()), int(ref.size)))
    return rows


def check_profile(csv_path: Path, a_path: Path, b_path: Path, tau: float) -> list[str]:
    with open(csv_path, newline="") as fh:
        got = [
            (int(r["layer_index"]), r["kind"], int(r["exceed_count"]), int(r["total_count"]))
            for r in csv.DictReader(fh)
        ]
    want = profile_rows(a_path, b_path, tau)
    if got == want:
        return []
    diffs = [f"row {i}: got {g}, recount {w}" for i, (g, w) in enumerate(zip(got, want)) if g != w]
    return [f"profile has {len(got)} rows, recount has {len(want)}", *diffs[:MAX_REPORTED]]


def check_toy(report_path: Path, config_path: Path) -> list[str]:
    config = json.loads(config_path.read_text())
    try:
        report = json.loads(report_path.read_bytes())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return [f"toy report is not JSON: {exc}"]
    errors = []
    if report.get("config", {}).get("seed") != config["seed"]:
        errors.append("toy report does not carry the configured seed")
    strategies = [row.get("strategy") for row in report.get("merges", [])]
    if strategies != config["strategies"]:
        errors.append(f"toy report strategies {strategies} != {config['strategies']}")
    accuracies = [row.get("source_accuracy") for row in report.get("merges", [])]
    if not all(isinstance(a, float) and 0.0 <= a <= 1.0 for a in accuracies):
        errors.append("toy report has accuracies outside [0, 1]")
    return errors

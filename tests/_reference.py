"""Independent naive reference implementations used as oracles.

Everything here works element by element with plain Python floats and
loops, in model-index order, deliberately sharing no code with the
package's vectorized engine.
"""

from __future__ import annotations

import numpy as np


def ref_layerwise(pools, anchor, weights_per_layer, groups, anchor_names):
    """pools: list of {name: flat list}; groups: list of lists of names in
    layer order; weights_per_layer[j]: per-model weight list for layer j+1.
    Returns {name: flat list} over all anchor tensors."""
    out = {}
    for j, names in enumerate(groups):
        w = weights_per_layer[j]
        for name in names:
            n = len(pools[anchor][name])
            merged = []
            for k in range(n):
                acc = 0.0
                for i, pool in enumerate(pools):
                    acc += w[i] * pool[name][k]
                merged.append(acc)
            out[name] = merged
    for name in anchor_names:
        if name not in out:
            out[name] = list(pools[anchor][name])
    return out


def ref_mean(pools, names):
    m = len(pools)
    out = {}
    for name in names:
        n = len(pools[0][name])
        out[name] = [sum(pool[name][k] for pool in pools) / m for k in range(n)]
    return out


def ref_scalar(pools, scores, names):
    total = sum(scores)
    weights = [s / total for s in scores]
    out = {}
    for name in names:
        n = len(pools[0][name])
        merged = []
        for k in range(n):
            acc = 0.0
            for i, pool in enumerate(pools):
                acc += weights[i] * pool[name][k]
            merged.append(acc)
        out[name] = merged
    return out


def ref_fisher(pools, fishers, names, bn_names=(), eps=1e-8):
    """Per-element fisher-weighted mean with plain-mean fallback; names in
    bn_names are always averaged isotropically."""
    m = len(pools)
    out = {}
    for name in names:
        n = len(pools[0][name])
        merged = []
        for k in range(n):
            if name in bn_names:
                merged.append(sum(pool[name][k] for pool in pools) / m)
                continue
            fsum = sum(fishers[i][name][k] for i in range(m))
            if fsum == 0.0:
                merged.append(sum(pool[name][k] for pool in pools) / m)
            else:
                num = sum(fishers[i][name][k] * pools[i][name][k] for i in range(m))
                merged.append(num / (fsum + eps * (fsum == 0.0)))
        out[name] = merged
    return out


def ref_discrepancy_counts(a_flat, b_flat, tau, mode):
    """Brute-force flag count over paired flat lists."""
    count = 0
    if mode == "layer_norm":
        norm = sum(v * v for v in a_flat) ** 0.5
        n = len(a_flat)
        thr = norm / (tau * n**0.5) if n else 0.0
    for x, y in zip(a_flat, b_flat):
        diff = abs(x - y)
        threshold = abs(x) / tau if mode == "elementwise" else thr
        if diff >= threshold and diff > 0:
            count += 1
    return count


def ref_match_layer_order(names, prefixes):
    """Scan every prefix for every name; returns the assignment, or raises
    ValueError with the package's error text."""
    assignment = {}
    unmatched, ambiguous = [], []
    used = set()
    for name in names:
        hits = [p for p in prefixes if name == p or name.startswith(p + ".")]
        if len(hits) == 1:
            assignment[name] = hits[0]
            used.add(hits[0])
        elif not hits:
            unmatched.append(name)
        else:
            ambiguous.append(name)
    unused = [p for p in prefixes if p not in used]
    if unmatched or ambiguous or unused:
        parts = []
        if unmatched:
            parts.append(f"tensors matching no prefix: {unmatched}")
        if ambiguous:
            parts.append(f"tensors matching several prefixes: {ambiguous}")
        if unused:
            parts.append(f"prefixes matching no tensor: {unused}")
        raise ValueError("layer_order inconsistent with tensor names; " + "; ".join(parts))
    return assignment


def ref_content_order(weights, arrays):
    """Indices of the (weight, array) pairs sorted by the whole bytes of the
    array, then of the weight, each copied in full; ties keep index order."""
    return sorted(
        range(len(arrays)),
        key=lambda i: (arrays[i].tobytes(), np.asarray(weights[i]).tobytes()),
    )

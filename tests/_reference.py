"""Independent naive reference implementations used as oracles.

Most of this works element by element with plain Python floats and loops,
in model-index order, deliberately sharing no code with the package's
vectorized engine. ``ref_weighted_sum`` and ``ref_fisher_weights`` are the
engine's earlier whole-array kernel, kept as the oracle for the blocked one,
``ref_discrepancy_profile`` is the earlier slice-by-slice profile (on the
package's alignment), kept as the oracle for the batched one,
``ref_entries_error`` is the reader's earlier entry-by-entry header check,
``ref_shared_parameters`` is the earlier name-by-name alignment,
``ref_encode`` is the earlier save encoder, which builds the header as a
dict and passes it through ``json.dumps``, ``ref_compute_schedule`` is the
earlier schedule with one ``Fraction`` per layer and model, and
``ref_train`` is the earlier one-model-at-a-time SGD loop with its own
2-D forward pass and backprop.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

from layermerge.alignment import (
    KIND_ORDER,
    AlignmentError,
    LayerGroup,
    NoSharedParametersError,
    SharedAlignment,
    shared_parameters,
)
from layermerge.checkpoint import DTYPE_TO_NUMPY, CheckpointError, match_layer_order
from layermerge.discrepancy import DiscrepancyError, ProfileRow
from layermerge.merge import MergeSchedule, ScheduleError
from layermerge.toy import ToyModel, TrainResult, TrainingDivergedError
from layermerge.toy.training import snapshot_epochs


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


def ref_weighted_sum(weights, arrays):
    """``sum_i w_i * x_i`` over whole arrays in float64, each ``w_i`` a
    scalar or an array shaped like ``x_i``, the pairs added in
    ``ref_content_order`` into two whole-tensor buffers."""
    first, *rest = ref_content_order(weights, arrays)
    acc, term = np.empty(np.shape(arrays[0])), np.empty(np.shape(arrays[0]))
    np.multiply(weights[first], arrays[first], out=acc, dtype=np.float64)
    for i in rest:
        np.multiply(weights[i], arrays[i], out=term, dtype=np.float64)
        acc += term
    return acc


def ref_fisher_weights(fishers):
    """The (M, *shape) per-element Fisher weights of one tensor: each
    element's values divided by their largest (1 where all are zero), then
    by the sum of those quotients, added by ``ref_weighted_sum``."""
    mass = np.stack([np.asarray(f, dtype=np.float64) for f in fishers])
    scale = mass.max(axis=0)
    zero = scale == 0.0
    np.divide(mass, scale, out=mass, where=~zero)
    np.copyto(mass, 1.0, where=zero)
    mass /= ref_weighted_sum(np.ones(len(fishers)), mass)
    return mass


def ref_discrepancy_profile(a, b, tau, mode):
    """The rows of the discrepancy profile of two checkpoints, one (group,
    kind) slice at a time, each flattened to float64 on its own."""
    alignment = shared_parameters([a, b], anchor=0)
    a_arrays, b_arrays = a.arrays(), b.arrays()
    rows = []
    for group in alignment.shared_groups:
        by_kind = {}
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
    return tuple(rows)


def ref_read_checkpoint(path):
    """name -> (dtype name, shape, bytes) of every tensor of a checkpoint
    file, from the whole file read at once, in header order."""
    raw = Path(path).read_bytes()
    (header_len,) = struct.unpack("<Q", raw[:8])
    header = json.loads(raw[8:8 + header_len])
    base = 8 + header_len
    return {
        name: (info["dtype"], tuple(info["shape"]),
               raw[base + info["offsets"][0]:base + info["offsets"][1]])
        for name, info in header["tensors"].items()
    }


def ref_read_units(path, window):
    """The reads a reader of runs makes for a whole checkpoint file: one for
    each greatest set of non-empty tensors that follow each other without a
    gap, share a dtype and lie in one aligned window of ``window`` bytes,
    and one for every other non-empty tensor."""
    raw = Path(path).read_bytes()
    (header_len,) = struct.unpack("<Q", raw[:8])
    tensors = json.loads(raw[8:8 + header_len])["tensors"].values()
    spans = sorted((t["offsets"][0], t["offsets"][1], t["dtype"])
                   for t in tensors if t["offsets"][1] > t["offsets"][0])
    units, last = 0, None
    for start, end, dtype in spans:
        joins = (last is not None and last[1] == start and last[2] == dtype
                 and last[0] // window == (end - 1) // window)
        units += not joins
        last = (start, end, dtype)
    return units


def ref_entries_error(entries, data_size):
    """The reader's message for a header's "tensors" object, without the
    path, or None: each entry checked in turn, every check of one entry
    before the next entry, and overlaps after all entries (the reader's
    earlier loop, kept as the oracle for its array checks)."""
    dtypes = {"F32": 4, "F64": 8}
    spans = []
    for name, info in entries.items():
        if not name or not isinstance(info, dict):
            return f"malformed tensor entry '{name}'"
        dtype = info.get("dtype")
        if not any(dtype == d for d in dtypes):
            return f"tensor '{name}' has unknown dtype {dtype!r}"
        shape = info.get("shape")
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            return f"tensor '{name}' has invalid shape {shape!r}"
        offs = info.get("offsets")
        if not (isinstance(offs, list) and len(offs) == 2 and all(type(o) is int for o in offs)):
            return f"tensor '{name}' has invalid offsets {offs!r}"
        start, end = offs
        if not (0 <= start <= end <= data_size):
            return (f"tensor '{name}' offsets [{start}, {end}) out of bounds "
                    f"for data section of {data_size} bytes")
        expected = math.prod(shape) * dtypes[dtype]
        if end - start != expected:
            return (f"tensor '{name}' byte range {end - start} does not match "
                    f"shape {shape} ({expected} bytes expected)")
        if expected == 0 or len(shape) > 32:
            try:
                np.broadcast_to(np.empty((), "<f4" if dtype == "F32" else "<f8"), shape)
            except ValueError as exc:
                return f"tensor '{name}' has invalid shape {shape!r}: {exc}"
        if end > start:
            spans.append((start, end, name))
    spans.sort(key=lambda span: span[0])
    for (_, end_a, name_a), (start_b, _, name_b) in zip(spans, spans[1:]):
        if start_b < end_a:
            return f"tensors '{name_a}' and '{name_b}' have overlapping offset ranges"
    return None


_REF_SUFFIX_KINDS = {
    ".weight": "weight",
    ".bias": "bias",
    ".running_mean": "bn_mean",
    ".running_var": "bn_var",
}


def ref_group_layers(ckpt):
    """The earlier layer grouping: each name's kind by a scan of the
    suffixes, its default prefix up to the last dot."""
    names = ckpt.names()
    explicit = ckpt.layer_order()
    if explicit is not None:
        try:
            assignment = match_layer_order(names, explicit)
        except CheckpointError as exc:
            raise AlignmentError(str(exc)) from exc
        order = list(explicit)
    else:
        assignment = {name: name.rsplit(".", 1)[0] if "." in name else name for name in names}
        order = list(dict.fromkeys(assignment[name] for name in names))

    def kind(name):
        for suffix, k in _REF_SUFFIX_KINDS.items():
            if name.endswith(suffix):
                return k
        return "other"

    by_prefix = {p: [] for p in order}
    for name in names:
        by_prefix[assignment[name]].append((name, kind(name)))
    return [LayerGroup(prefix, j, tuple(by_prefix[prefix])) for j, prefix in enumerate(order, start=1)]


def ref_shared_parameters(ckpts, anchor):
    """The earlier alignment: every anchor tensor's signature compared with
    each other model's, name by name."""
    if not ckpts:
        raise AlignmentError("empty checkpoint pool")
    if not 0 <= anchor < len(ckpts):
        raise AlignmentError(f"anchor index {anchor} out of range for {len(ckpts)} models")

    groups = ref_group_layers(ckpts[anchor])
    for i, ckpt in enumerate(ckpts):  # every model's layer order must fit its own names
        if i != anchor and "layer_order" in ckpt.metadata:
            ref_group_layers(ckpt)
    signatures = [{t.name: (t.dtype, t.shape) for t in ckpt.tensors} for ckpt in ckpts]
    anchor_sig = signatures[anchor]
    shared_names = set()
    conflicts = set()
    for name, sig in anchor_sig.items():
        matches = [s.get(name) for i, s in enumerate(signatures) if i != anchor]
        if all(m == sig for m in matches):
            shared_names.add(name)
        elif any(m is not None and m != sig for m in matches):
            conflicts.add(name)

    shared_groups, anchor_only = [], []
    for g in groups:
        if all(name in shared_names for name, _ in g.members):
            shared_groups.append(g)
        else:
            anchor_only.extend(g.names())
    if not shared_groups:
        raise NoSharedParametersError(
            "no shared parameters: the models have no layer group with "
            "matching names, dtypes and shapes"
        )
    return SharedAlignment(
        anchor=anchor,
        model_count=len(ckpts),
        shared_groups=tuple(
            LayerGroup(g.prefix, j, g.members) for j, g in enumerate(shared_groups, start=1)
        ),
        anchor_only=tuple(anchor_only),
        shape_conflicts=tuple(n for n in ckpts[anchor].names() if n in conflicts),
    )


def ref_encode(ckpt):
    """The buffers of a saved checkpoint file (length prefix, header, each
    tensor's contiguous array), built tensor by tensor, the header as one
    dict passed through ``json.dumps``."""
    header_tensors = {}
    buffers = []
    offset = 0
    for t in ckpt.tensors:
        arr = np.ascontiguousarray(t.data, dtype=DTYPE_TO_NUMPY[t.dtype])
        header_tensors[t.name] = {
            "dtype": t.dtype,
            "shape": list(t.shape),
            "offsets": [offset, offset + arr.nbytes],
        }
        buffers.append(arr)
        offset += arr.nbytes
    header = {
        "tensors": header_tensors,
        "metadata": {k: ckpt.metadata[k] for k in sorted(ckpt.metadata)},
    }
    header_bytes = json.dumps(header, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    return [struct.pack("<Q", len(header_bytes)), header_bytes, *buffers]


def ref_compute_schedule(model_count, layer_count, anchor, start_layer=1, first_layer_weight=None):
    """The layer-wise schedule with one ``Fraction`` per layer and model,
    each converted with ``float``."""
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

    exact = [[Fraction(0)] * layer_count for _ in range(model_count)]
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


def _ref_forward(weights, biases, x):
    """Activations (the input first) and pre-activations of one 2-D model."""
    activations, preacts = [np.asarray(x, dtype=np.float64)], []
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = activations[-1] @ w.T + b
        preacts.append(z)
        activations.append(np.maximum(z, 0.0) if i < len(weights) - 1 else z)
    return activations, preacts


def _ref_loss(logits, y):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return float(-np.mean(logp[np.arange(len(y)), y]))


def _ref_loss_and_grads(weights, biases, x, y):
    """Mean cross-entropy of one 2-D model and its weight and bias gradients."""
    activations, preacts = _ref_forward(weights, biases, x)
    n = len(y)
    shifted = activations[-1] - activations[-1].max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    delta = e / e.sum(axis=-1, keepdims=True)
    delta[np.arange(n), y] -= 1.0
    deltas = [delta / n]
    for i in range(len(weights) - 1, 0, -1):
        deltas.insert(0, (deltas[0] @ weights[i]) * (preacts[i - 1] > 0))
    grads_w = [d.T @ a for d, a in zip(deltas, activations)]
    return _ref_loss(activations[-1], y), grads_w, [d.sum(axis=0) for d in deltas]


def ref_train(model, data, cfg, snapshot_count=0):
    """SGD on softmax cross-entropy for one model, step by step."""
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    model.check_fits(data)
    if snapshot_count and cfg.epochs < 1:
        raise ValueError("snapshots need at least one epoch")
    marks = set(snapshot_epochs(cfg.epochs, snapshot_count)) if snapshot_count else set()
    rng = np.random.default_rng(cfg.seed)
    head = len(weights) - 1
    snapshots = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(data.size)
            for start in range(0, data.size, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                loss, grads_w, grads_b = _ref_loss_and_grads(
                    weights, biases, data.inputs[batch], data.labels[batch]
                )
                if not np.isfinite(loss):
                    raise TrainingDivergedError(epoch, loss)
                for i in range(len(weights)):
                    lr = cfg.learning_rate * (cfg.head_lr_multiplier if i == head else 1.0)
                    weights[i] -= lr * grads_w[i]
                    biases[i] -= lr * grads_b[i]
            if epoch in marks:
                snapshots.append((epoch, ToyModel([w.copy() for w in weights],
                                                  [b.copy() for b in biases])))
        final_loss = _ref_loss(_ref_forward(weights, biases, data.inputs)[0][-1], data.labels)
    if not np.isfinite(final_loss):
        raise TrainingDivergedError(cfg.epochs, final_loss)
    return TrainResult(model=ToyModel(weights, biases), final_loss=final_loss, snapshots=snapshots)

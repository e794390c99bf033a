"""Layer grouping and shared-parameter alignment across checkpoints.

Tensors are grouped into depth-indexed layers either by an explicit
``layer_order`` metadata list or, by default, by the name prefix up to the
last dot. The shared set across a pool of checkpoints is the collection of
layer groups whose member tensors exist in every model with identical name,
dtype and shape; everything else stays anchor-only and is copied verbatim
by the merge strategies. Groups are all-or-nothing: one mismatched member
drops the whole group from the shared set.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .checkpoint import (META_LAYER_ORDER, Checkpoint, CheckpointError, index, match_layer_order,
                         same_signature)

KIND_WEIGHT = "weight"
KIND_BIAS = "bias"
KIND_BN_MEAN = "bn_mean"
KIND_BN_VAR = "bn_var"
KIND_OTHER = "other"
KIND_ORDER = (KIND_WEIGHT, KIND_BIAS, KIND_BN_MEAN, KIND_BN_VAR, KIND_OTHER)

# Batch-norm running statistics are not produced by gradient descent, so
# Fisher weighting never applies to them.
NON_GRADIENT_KINDS = frozenset({KIND_BN_MEAN, KIND_BN_VAR})

_SUFFIX_KINDS = {
    ".weight": KIND_WEIGHT,
    ".bias": KIND_BIAS,
    ".running_mean": KIND_BN_MEAN,
    ".running_var": KIND_BN_VAR,
}


class AlignmentError(Exception):
    pass


class NoSharedParametersError(AlignmentError):
    pass


def classify_kind(name: str) -> str:
    # every suffix is a dot and a dotless word, so only the last dot can start one
    return _SUFFIX_KINDS.get(name[name.rfind("."):], KIND_OTHER)


def default_prefix(name: str) -> str:
    return name.rsplit(".", 1)[0]  # the name itself when it has no dot


@dataclass(frozen=True)
class LayerGroup:
    """A depth-indexed group of tensors sharing one name prefix."""

    prefix: str
    index: int  # 1-based depth index
    members: tuple[tuple[str, str], ...]  # (tensor name, kind)

    def names(self) -> list[str]:
        return [name for name, _ in self.members]


def group_layers(ckpt: Checkpoint) -> list[LayerGroup]:
    """Partition a checkpoint's tensors into ordered layer groups.

    With ``layer_order`` metadata the listed prefixes define both membership
    and order; otherwise groups follow first appearance in the tensor list.
    """
    names = ckpt.names()
    explicit = ckpt.layer_order()
    if explicit is not None:
        try:
            assignment = match_layer_order(names, explicit)
        except CheckpointError as exc:
            raise AlignmentError(str(exc)) from exc
        order = list(explicit)
    else:
        assignment = dict(zip(names, map(default_prefix, names)))
        order = list(dict.fromkeys(map(assignment.__getitem__, names)))

    by_prefix: dict[str, list[tuple[str, str]]] = {p: [] for p in order}
    for name, kind in zip(names, map(classify_kind, names)):
        by_prefix[assignment[name]].append((name, kind))
    return [
        LayerGroup(prefix, j, tuple(by_prefix[prefix]))
        for j, prefix in enumerate(order, start=1)
    ]


@dataclass(frozen=True)
class SharedAlignment:
    """The shared layer structure of a pool of checkpoints.

    ``shared_groups`` are re-indexed 1..n_shared_layers in the anchor's
    order. ``anchor_only`` lists anchor tensors outside the shared set,
    whether absent from some model or present with a conflicting shape;
    the latter are also listed in ``shape_conflicts``.
    """

    anchor: int
    model_count: int
    shared_groups: tuple[LayerGroup, ...]
    anchor_only: tuple[str, ...]
    shape_conflicts: tuple[str, ...]

    @property
    def n_shared_layers(self) -> int:
        return len(self.shared_groups)

    def shared_names(self) -> list[str]:
        return [name for g in self.shared_groups for name in g.names()]


def shared_parameters(ckpts: list[Checkpoint], anchor: int) -> SharedAlignment:
    """Compute the shared-parameter alignment of a pool around an anchor.

    A tensor is shared only when every model carries it with identical name,
    dtype and shape; a layer group is shared only when all of its members
    are. The result is invariant to the order of the non-anchor models.
    A pool that shares no layer group, a lone checkpoint with no tensors
    included, raises ``NoSharedParametersError``. Every model's
    ``layer_order`` metadata, where it has one, must fit its own names
    (``group_layers``); only the anchor's groups the pool.
    """
    if not ckpts:
        raise AlignmentError("empty checkpoint pool")
    if not 0 <= anchor < len(ckpts):
        raise AlignmentError(f"anchor index {anchor} out of range for {len(ckpts)} models")

    groups = group_layers(ckpts[anchor])
    indexes = [index(ckpt) for ckpt in ckpts]
    mine = indexes[anchor]
    names = list(mine.rows)
    rows = np.fromiter(mine.rows.values(), np.intp, len(names))
    unshared, conflicts = np.zeros((2, len(names)), bool)  # conflicts: held as another signature
    for i, theirs in enumerate(indexes):
        if i != anchor:
            if META_LAYER_ORDER in ckpts[i].metadata:
                group_layers(ckpts[i])  # raises when its order does not fit its names
            found = theirs.lookup(names)
            differ = ~same_signature(mine, rows, theirs, found)
            unshared, conflicts = unshared | differ, conflicts | differ & (found >= 0)
    unshared, conflicts = set(compress(names, unshared)), set(compress(names, conflicts))

    shared_groups = []
    anchor_only = []
    for g in groups:
        if unshared.isdisjoint(map(operator.itemgetter(0), g.members)):
            shared_groups.append(g)
        else:
            anchor_only.extend(g.names())

    if not shared_groups:
        raise NoSharedParametersError(
            "no shared parameters: the models have no layer group with "
            "matching names, dtypes and shapes"
        )

    reindexed = tuple(
        g if g.index == j else LayerGroup(g.prefix, j, g.members)
        for j, g in enumerate(shared_groups, start=1)
    )
    return SharedAlignment(
        anchor=anchor,
        model_count=len(ckpts),
        shared_groups=reindexed,
        anchor_only=tuple(anchor_only),
        shape_conflicts=tuple(n for n in mine.names if n in conflicts),
    )

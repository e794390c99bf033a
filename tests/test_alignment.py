import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layermerge import (
    AlignmentError,
    Checkpoint,
    NoSharedParametersError,
    group_layers,
    shared_parameters,
)
from layermerge.checkpoint import TensorRecord

import _reference as ref
from conftest import make_checkpoint


def ckpt_of(names, shapes=None, metadata=None):
    shapes = shapes or {}
    arrays = {n: np.zeros(shapes.get(n, (2,))) for n in names}
    return Checkpoint.from_arrays(arrays, metadata or {})


class TestGroupLayers:
    def test_prefix_grouping(self):
        groups = group_layers(ckpt_of(["bb.0.weight", "bb.0.bias", "head.weight"]))
        assert [(g.prefix, g.index) for g in groups] == [("bb.0", 1), ("head", 2)]
        assert groups[0].names() == ["bb.0.weight", "bb.0.bias"]

    def test_kind_classification(self):
        groups = group_layers(
            ckpt_of(["bb.0.weight", "bb.0.bias", "bb.0.running_mean", "bb.0.running_var", "bb.0.gamma"])
        )
        kinds = dict(groups[0].members)
        assert kinds["bb.0.weight"] == "weight"
        assert kinds["bb.0.bias"] == "bias"
        assert kinds["bb.0.running_mean"] == "bn_mean"
        assert kinds["bb.0.running_var"] == "bn_var"
        assert kinds["bb.0.gamma"] == "other"

    def test_dotless_name_is_own_group(self):
        groups = group_layers(ckpt_of(["embedding", "head.weight"]))
        assert [g.prefix for g in groups] == ["embedding", "head"]

    def test_explicit_layer_order_wins(self):
        meta = {"layer_order": json.dumps(["head", "bb.0"])}
        groups = group_layers(ckpt_of(["bb.0.weight", "head.weight"], metadata=meta))
        assert [(g.prefix, g.index) for g in groups] == [("head", 1), ("bb.0", 2)]

    def test_layer_order_unmatched_tensor_listed(self):
        meta = {"layer_order": json.dumps(["bb.0"])}
        with pytest.raises(AlignmentError, match="head.weight"):
            group_layers(ckpt_of(["bb.0.weight", "head.weight"], metadata=meta))

    def test_layer_order_unused_prefix_listed(self):
        meta = {"layer_order": json.dumps(["bb.0", "ghost"])}
        with pytest.raises(AlignmentError, match="ghost"):
            group_layers(ckpt_of(["bb.0.weight"], metadata=meta))

    def test_layer_order_ambiguous_prefix(self):
        meta = {"layer_order": json.dumps(["bb", "bb.0"])}
        with pytest.raises(AlignmentError, match="several prefixes"):
            group_layers(ckpt_of(["bb.0.weight", "bb.1.weight"], metadata=meta))

    def test_indices_consecutive_and_partition(self, rng):
        ckpt = make_checkpoint([(2, 2), (3, 2), (2, 3)], rng)
        groups = group_layers(ckpt)
        assert [g.index for g in groups] == list(range(1, len(groups) + 1))
        all_names = [n for g in groups for n in g.names()]
        assert sorted(all_names) == sorted(ckpt.names())
        assert len(set(all_names)) == len(all_names)


class TestSharedParameters:
    def test_identical_schemas_all_shared(self, rng):
        a = make_checkpoint([(2, 2), (3, 2)], rng)
        b = make_checkpoint([(2, 2), (3, 2)], rng)
        al = shared_parameters([a, b], anchor=0)
        assert al.n_shared_layers == 2
        assert al.anchor_only == ()
        assert al.shape_conflicts == ()

    def test_class_count_mismatch_excludes_head(self):
        backbone = {"bb.weight": (4, 4), "bb.bias": (4,)}
        anchor = ckpt_of(
            ["bb.weight", "bb.bias", "head.weight"],
            {**backbone, "head.weight": (19, 4)},
        )
        donor = ckpt_of(
            ["bb.weight", "bb.bias", "head.weight"],
            {**backbone, "head.weight": (16, 4)},
        )
        al = shared_parameters([anchor, donor], anchor=0)
        assert [g.prefix for g in al.shared_groups] == ["bb"]
        assert al.anchor_only == ("head.weight",)
        assert al.shape_conflicts == ("head.weight",)

    def test_disjoint_heads_share_backbone(self):
        shapes = {"bb.weight": (4, 4)}
        anchor = ckpt_of(["bb.weight", "seg_head.weight"], {**shapes, "seg_head.weight": (19, 4)})
        donor = ckpt_of(["bb.weight", "pan_head.weight"], {**shapes, "pan_head.weight": (11, 4)})
        al = shared_parameters([anchor, donor], anchor=0)
        assert [g.prefix for g in al.shared_groups] == ["bb"]
        assert al.n_shared_layers == 1
        assert al.anchor_only == ("seg_head.weight",)
        assert al.shape_conflicts == ()  # different names, not conflicting shapes

    def test_partial_group_falls_entirely_to_anchor_only(self):
        anchor = ckpt_of(["a.weight", "a.bias", "b.weight"],
                         {"a.weight": (2, 2), "a.bias": (2,), "b.weight": (2, 2)})
        donor = ckpt_of(["a.weight", "a.bias", "b.weight"],
                        {"a.weight": (2, 2), "a.bias": (3,), "b.weight": (2, 2)})
        al = shared_parameters([anchor, donor], anchor=0)
        assert [g.prefix for g in al.shared_groups] == ["b"]
        assert set(al.anchor_only) == {"a.weight", "a.bias"}

    def test_dtype_mismatch_not_shared(self):
        anchor = Checkpoint.from_arrays({"a.weight": np.zeros((2, 2), dtype=np.float64)})
        donor = Checkpoint.from_arrays({"a.weight": np.zeros((2, 2), dtype=np.float32)})
        with pytest.raises(NoSharedParametersError):
            shared_parameters([anchor, donor], anchor=0)

    def test_no_shared_parameters_raises(self):
        a = ckpt_of(["x.weight"])
        b = ckpt_of(["y.weight"])
        with pytest.raises(NoSharedParametersError, match="no shared parameters"):
            shared_parameters([a, b], anchor=0)

    def test_single_model_everything_shared(self, rng):
        a = make_checkpoint([(2, 2)], rng)
        al = shared_parameters([a], anchor=0)
        assert al.n_shared_layers == 1 and al.anchor_only == ()

    def test_anchor_index_validated(self, rng):
        a = make_checkpoint([(2, 2)], rng)
        with pytest.raises(AlignmentError, match="anchor index"):
            shared_parameters([a], anchor=3)

    def test_shared_layer_indices_reindexed(self):
        shapes = {"a.weight": (2, 2), "b.weight": (2, 2), "c.weight": (2, 2)}
        anchor = ckpt_of(["a.weight", "b.weight", "c.weight"], shapes)
        donor = ckpt_of(["a.weight", "b.weight", "c.weight"],
                        {**shapes, "b.weight": (9, 9)})
        al = shared_parameters([anchor, donor], anchor=0)
        assert [(g.prefix, g.index) for g in al.shared_groups] == [("a", 1), ("c", 2)]


class TestAlignmentProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 2**31), st.data())
    def test_partition_and_symmetry(self, m, seed, data):
        rng = np.random.default_rng(seed)
        n_groups = int(rng.integers(1, 5))
        shapes = [(int(rng.integers(1, 4)), int(rng.integers(1, 4))) for _ in range(n_groups)]
        pool = [make_checkpoint(shapes, rng) for _ in range(m)]
        # perturb one random donor tensor's shape to create an exclusion
        if data.draw(st.booleans()):
            victim = pool[1].tensors[0]
            pool[1] = Checkpoint(
                [t if t.name != victim.name else type(t)(t.name, np.zeros((7, 7)))
                 for t in pool[1].tensors],
                dict(pool[1].metadata),
            )
        try:
            al = shared_parameters(pool, anchor=0)
        except NoSharedParametersError:
            return
        shared = set(al.shared_names())
        anchor_only = set(al.anchor_only)
        # partition of the anchor's tensors
        assert shared | anchor_only == set(pool[0].names())
        assert shared & anchor_only == set()
        # invariance to donor order
        perm = [pool[0]] + pool[:0:-1]
        al2 = shared_parameters(perm, anchor=0)
        assert al2.shared_names() == al.shared_names()
        assert al2.anchor_only == al.anchor_only

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31))
    def test_adding_a_model_never_grows_shared_set(self, seed):
        rng = np.random.default_rng(seed)
        shapes = [(2, 2), (3, 2)]
        pool = [make_checkpoint(shapes, rng) for _ in range(3)]
        extra = make_checkpoint(shapes[:1], rng)  # schema subset
        before = set(shared_parameters(pool, 0).shared_names())
        after = set(shared_parameters(pool + [extra], 0).shared_names())
        assert after <= before


class TestSetAlignment:
    """``shared_parameters`` matches signatures with set operations; it
    gives exactly the alignment, or the error, of the earlier name-by-name
    loop kept in ``_reference.py``."""

    PREFIXES = ("bb.0", "bb.1", "head", "emb")
    SUFFIXES = ("weight", "bias", "running_mean", "running_var", "gamma")

    @classmethod
    def model(cls, data, rng):
        names = [f"{p}.{s}" for p in cls.PREFIXES for s in cls.SUFFIXES] + ["emb", "scale"]
        chosen = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=12, unique=True),
                           label="tensors")
        records = []
        for name in chosen:
            shape = data.draw(st.sampled_from([(2,), (3,), (2, 2), ()]), label=f"{name} shape")
            dtype = data.draw(st.sampled_from([np.float32, np.float64]), label=f"{name} dtype")
            records.append(TensorRecord(name, rng.standard_normal(shape).astype(dtype)))
        if data.draw(st.booleans(), label="duplicate name"):
            records.append(TensorRecord(chosen[0], np.zeros(5)))
        metadata = {}
        if data.draw(st.booleans(), label="layer_order"):
            prefixes = list(dict.fromkeys(n.rsplit(".", 1)[0] for n in chosen))
            prefixes = data.draw(st.permutations(prefixes), label="order")
            if data.draw(st.booleans(), label="unused prefix"):
                prefixes = [*prefixes, "ghost"]
            metadata["layer_order"] = json.dumps(prefixes)
        return Checkpoint(records, metadata)

    @staticmethod
    def outcome(align, pool, anchor):
        try:
            return align(pool, anchor)
        except AlignmentError as exc:
            return type(exc), str(exc)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_name_by_name_alignment(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        base = self.model(data, rng)
        pool = []
        for _ in range(data.draw(st.integers(1, 4), label="models")):
            # mostly near copies of one model, so that much is shared
            pool.append(self.model(data, rng) if data.draw(st.booleans(), label="own schema")
                        else Checkpoint(list(base.tensors), dict(base.metadata)))
        for anchor in range(-1, len(pool) + 1):
            expected = self.outcome(ref.ref_shared_parameters, pool, anchor)
            assert self.outcome(shared_parameters, pool, anchor) == expected


NO_SHARED = ("no shared parameters: the models have no layer group with "
             "matching names, dtypes and shapes")


@pytest.mark.parametrize("pool, anchor, error, message", [
    ([], 0, AlignmentError, "empty checkpoint pool"),
    ([ckpt_of(["a.weight"])], 1, AlignmentError, "anchor index 1 out of range for 1 models"),
    ([Checkpoint([])], 0, NoSharedParametersError, NO_SHARED),
    ([ckpt_of(["a.weight"]), ckpt_of(["b.weight"])], 0, NoSharedParametersError, NO_SHARED),
], ids=["empty pool", "anchor out of range", "lone checkpoint with no tensors",
        "two models sharing no group"])
def test_refusal_messages(pool, anchor, error, message):
    """A pool of any size that shares no layer group is refused, by the
    alignment and by its name-by-name oracle alike."""
    for align in (shared_parameters, ref.ref_shared_parameters):
        with pytest.raises(AlignmentError) as info:
            align(pool, anchor)
        assert type(info.value) is error and str(info.value) == message

import contextlib
import errno
import math
import os
import signal
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layermerge import (
    Checkpoint,
    FisherWeights,
    CheckpointError,
    CheckpointFormatError,
    MergeError,
    MergeSchedule,
    NonFiniteTensorError,
    ScheduleError,
    ShapeConflictError,
    compute_schedule,
    fisher_merge,
    isotropic_merge,
    layerwise_merge,
    scalar_weighted_merge,
    load,
    save,
    shared_parameters,
    TensorRecord,
)
from layermerge import checkpoint as ckpt_store
from layermerge import merge as merge_module
from layermerge.merge import FisherInputError

import _reference as ref
from conftest import (
    as_flat_dicts, bytes_read_once, counting_reads, data_section, make_checkpoint, random_pool,
    short_reads,
)


def merged_arrays(ckpt):
    return {t.name: np.asarray(t.data, dtype=np.float64) for t in ckpt.tensors}


def hand_back(blocks, j):
    """A stand-in for ``_Blocks.merge`` that hands every block back."""
    raise merge_module._Retry


def before_each_fill(monkeypatch, before):
    """Call ``before(lo)`` ahead of every chunk a streamed read fills from
    element ``lo`` (the ``fill`` of ``_DataSection.read_alone``), on the
    thread that fills it."""
    read_alone = ckpt_store._DataSection.read_alone

    def wrapped(section, row):
        got = read_alone(section, row)
        if got is None:
            return None
        dtype, fill = got

        def held(lo, hi, out):
            before(lo)
            return fill(lo, hi, out)
        return dtype, held

    monkeypatch.setattr(ckpt_store._DataSection, "read_alone", wrapped)


class TestComputeSchedule:
    def test_two_models_four_layers_defaults(self):
        s = compute_schedule(2, 4, anchor=0)
        assert s.weights[1].tolist() == [0.375, 0.25, 0.125, 0.0]
        assert s.weights[0].tolist() == [0.625, 0.75, 0.875, 1.0]

    def test_single_model_anchor_weight_one(self):
        s = compute_schedule(1, 6, anchor=0)
        assert s.weights[0].tolist() == [1.0] * 6

    def test_three_models_two_layers(self):
        # hand evaluation: w0 = (2-1)/(2*3) = 1/6 at layer 1, 0 at layer 2
        s = compute_schedule(3, 2, anchor=1)
        for i in (0, 2):
            assert s.weights[i].tolist() == [1 / 6, 0.0]
        assert s.weights[1].tolist() == [2 / 3, 1.0]

    def test_defaults_match_decay_formula(self):
        for m in range(1, 6):
            for n in range(1, 20):
                s = compute_schedule(m, n, anchor=0)
                for j in range(1, n + 1):
                    expected = Fraction(n - j, n * m)
                    for i in range(1, m):
                        assert s.exact_weights[i][j - 1] == expected

    def test_exact_invariants(self):
        for m in range(1, 6):
            for n in (1, 2, 3, 7, 64):
                s = compute_schedule(m, n, anchor=0)
                for j in range(1, n + 1):
                    column = [s.exact_weights[i][j - 1] for i in range(m)]
                    assert sum(column) == 1
                    assert all(w >= 0 for w in column)
                    for i in range(1, m):
                        assert column[0] - column[i] == Fraction(j, n)
                for i in range(1, m):
                    assert s.exact_weights[i][n - 1] == 0

    def test_start_layer_plateau(self):
        s = compute_schedule(2, 5, anchor=0, start_layer=3, first_layer_weight=0.25)
        non_anchor = s.weights[1]
        assert non_anchor[:3].tolist() == [0.25, 0.25, 0.25]
        assert non_anchor[3] == pytest.approx(0.25 * (5 - 4) / (5 - 3))
        assert non_anchor[4] == 0.0

    def test_start_layer_equal_to_layer_count(self):
        s = compute_schedule(2, 3, anchor=0, start_layer=3, first_layer_weight=0.25)
        assert s.weights[1].tolist() == [0.25, 0.25, 0.0]
        assert s.weights[0][2] == 1.0

    def test_degenerate_single_layer(self):
        s = compute_schedule(3, 1, anchor=0)
        assert s.weights[:, 0].tolist() == [1.0, 0.0, 0.0]

    def test_w0_above_uniform_rejected(self):
        with pytest.raises(ScheduleError, match="dominate"):
            compute_schedule(2, 4, anchor=0, first_layer_weight=0.51)

    def test_w0_at_uniform_warns(self):
        with pytest.warns(UserWarning, match="1/M"):
            s = compute_schedule(2, 4, anchor=0, first_layer_weight=0.5)
        assert s.weights[1][0] == 0.5

    def test_start_layer_out_of_range_rejected(self):
        with pytest.raises(ScheduleError, match="start layer"):
            compute_schedule(2, 4, anchor=0, start_layer=5)
        with pytest.raises(ScheduleError, match="start layer"):
            compute_schedule(2, 4, anchor=0, start_layer=0)

    def test_negative_w0_rejected(self):
        with pytest.raises(ScheduleError, match="non-negative"):
            compute_schedule(2, 4, anchor=0, first_layer_weight=-0.1)

    @pytest.mark.parametrize("w0", [np.inf, -np.inf, np.nan])
    def test_non_finite_w0_rejected(self, w0):
        with pytest.raises(ScheduleError, match="finite"):
            compute_schedule(2, 4, anchor=0, first_layer_weight=w0)

    @staticmethod
    def outcome(f, *args, **kwargs):
        """``(schedule, error message, warning messages)`` of one call."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                schedule, error = f(*args, **kwargs), None
            except ScheduleError as exc:
                schedule, error = None, str(exc)
        return schedule, error, [str(w.message) for w in caught]

    @staticmethod
    def grid():
        for m in range(1, 8):
            for n in (1, 2, 3, 10, 2000):
                small = n < 2000
                for anchor in range(m) if small else sorted({0, m - 1}):
                    starts = {0, 1, 2, n // 2, n - 1, n, n + 1} if small else {1, n // 2, n}
                    w0s = [None, 0.0, 0.05, 1 / 3, 1 / m, 1 / m + 1e-12, -0.1, np.nan, np.inf] \
                        if small else [None, 0.05, 1 / m]
                    for start in sorted(starts):
                        for w0 in w0s:
                            yield m, n, anchor, start, w0

    def test_equals_fraction_per_layer_and_model(self):
        for m, n, anchor, start, w0 in self.grid():
            args = (m, n, anchor)
            kwargs = {"start_layer": start, "first_layer_weight": w0}
            got, error, warned = self.outcome(compute_schedule, *args, **kwargs)
            expected, expected_error, expected_warned = self.outcome(
                ref.ref_compute_schedule, *args, **kwargs)
            case = (m, n, anchor, start, w0)
            assert (error, warned) == (expected_error, expected_warned), case
            if expected is not None:
                assert got.weights.tobytes() == expected.weights.tobytes(), case
                assert got.exact_weights == expected.exact_weights, case
                assert got.first_layer_weight == expected.first_layer_weight, case

    def test_constructor_checks_normalization(self):
        with pytest.raises(ScheduleError, match="sum to 1"):
            MergeSchedule(2, 2, 0, 1, 0.25, np.array([[0.5, 0.5], [0.25, 0.5]]))
        with pytest.raises(ScheduleError, match="non-negative"):
            MergeSchedule(2, 2, 0, 1, 0.25, np.array([[1.25, 0.5], [-0.25, 0.5]]))
        with pytest.raises(ScheduleError):
            MergeSchedule(2, 1, 0, 1, 0.5, [[np.nan], [np.nan]])


class TestLayerwiseMerge:
    def test_hand_example_two_layers(self):
        anchor = Checkpoint.from_arrays(
            {"l1.weight": np.array([1.0, 1.0]), "l2.weight": np.array([5.0, -3.0])}
        )
        donor = Checkpoint.from_arrays(
            {"l1.weight": np.array([3.0, 3.0]), "l2.weight": np.array([9.0, 9.0])}
        )
        alignment = shared_parameters([anchor, donor], 0)
        schedule = MergeSchedule(
            2, 2, 0, 1, 0.25, np.array([[0.75, 1.0], [0.25, 0.0]])
        )
        merged = layerwise_merge([anchor, donor], 0, schedule, alignment)
        assert merged.get("l1.weight").data.tolist() == [1.5, 1.5]
        # last shared layer is the anchor's, bit for bit
        assert np.array_equal(merged.get("l2.weight").data, anchor.get("l2.weight").data)

    def test_idempotent_on_copies(self, rng):
        base = make_checkpoint([(3, 4), (2, 3), (5,)], rng)
        for m in (2, 3, 5):
            pool = [base] * m
            alignment = shared_parameters(pool, 0)
            schedule = compute_schedule(m, alignment.n_shared_layers, 0)
            merged = layerwise_merge(pool, 0, schedule, alignment)
            for t in base.tensors:
                np.testing.assert_allclose(
                    merged.get(t.name).data, t.data, rtol=0, atol=1e-12
                )

    def test_cross_head_keeps_anchor_head(self, rng):
        bb = {"bb.weight": rng.standard_normal((4, 4))}
        anchor = Checkpoint.from_arrays(
            {**bb, "head.weight": rng.standard_normal((19, 4))}
        )
        donor = Checkpoint.from_arrays(
            {"bb.weight": rng.standard_normal((4, 4)), "head.weight": rng.standard_normal((16, 4))}
        )
        alignment = shared_parameters([anchor, donor], 0)
        schedule = compute_schedule(2, alignment.n_shared_layers, 0)
        merged = layerwise_merge([anchor, donor], 0, schedule, alignment)
        assert merged.get("head.weight").shape == (19, 4)
        assert np.array_equal(merged.get("head.weight").data, anchor.get("head.weight").data)

    def test_nan_input_rejected_with_names(self, rng):
        a = make_checkpoint([(2, 2)], rng)
        bad_arrays = {t.name: t.data.copy() for t in a.tensors}
        bad_arrays["layer0.weight"][0, 0] = np.nan
        b = Checkpoint.from_arrays(bad_arrays)
        alignment = shared_parameters([a, b], 0)
        schedule = compute_schedule(2, alignment.n_shared_layers, 0)
        with pytest.raises(NonFiniteTensorError, match=r"layer0.weight.*model 1"):
            layerwise_merge([a, b], 0, schedule, alignment)

    def test_model_count_mismatch_rejected(self, rng):
        a = make_checkpoint([(2, 2)], rng)
        alignment = shared_parameters([a, a], 0)
        schedule = compute_schedule(3, 1, 0)
        with pytest.raises(MergeError, match="models"):
            layerwise_merge([a, a], 0, schedule, alignment)

    def test_last_shared_group_owned_by_anchor(self, rng):
        pool = [make_checkpoint([(3, 3), (2, 3), (4, 2)], rng) for _ in range(3)]
        alignment = shared_parameters(pool, 0)
        schedule = compute_schedule(3, alignment.n_shared_layers, 0)
        merged = layerwise_merge(pool, 0, schedule, alignment)
        for name in alignment.shared_groups[-1].names():
            assert np.array_equal(merged.get(name).data, pool[0].get(name).data)

    # a weight tensor above the 8,192-element block goes through _step_sums,
    # tensors of 20 elements through the block kernel
    @pytest.mark.parametrize("shape", [(100, 90), (4, 5)], ids=["whole-tensor", "blocks"])
    @pytest.mark.parametrize("source", ["memory", "file"])
    def test_blend_decided_per_layer(self, tmp_path, rng, shape, source):
        """A middle layer where only the anchor has weight keeps the anchor's
        bytes, as the last one does, and a layer where the anchor has none
        blends. Each anchor tensor starts with -0.0, which a sum would turn
        into +0.0, so a kept tensor differs from a blended one."""
        arrays = [{n: x.copy() for n, x in make_checkpoint([shape] * 4, rng).arrays().items()}
                  for _ in range(3)]
        for i, model in enumerate(arrays):
            for x in model.values():
                x.flat[0] = 1.0 if i else -0.0
        weights = np.array([[0.5, 1.0, 0.0, 1.0], [0.25, 0.0, 0.5, 0.0], [0.25, 0.0, 0.5, 0.0]])
        schedule = MergeSchedule(3, 4, 0, 1, 0.25, weights)
        pool = [Checkpoint.from_arrays(a) for a in arrays]
        with contextlib.ExitStack() as files:
            if source == "file":
                pool = [files.enter_context(ckpt_store.open_file(p))
                        for p in TestFileBackedMerge.saved(tmp_path, pool)]
            alignment = shared_parameters(pool, 0)
            merged = layerwise_merge(pool, 0, schedule, alignment)
        assert alignment.n_shared_layers == 4
        for j, group in enumerate(alignment.shared_groups):
            for name in group.names():
                xs = [a[name] for a in arrays]
                blended = ref.ref_weighted_sum(weights[:, j], xs)
                assert blended.tobytes() != xs[0].tobytes()
                expected = xs[0] if j in (1, 3) else blended
                assert merged.get(name).data.tobytes() == expected.tobytes(), name

    def test_order_invariance_of_donors(self, rng):
        base = make_checkpoint([(3, 3), (2, 3)], rng)
        donors = [make_checkpoint([(3, 3), (2, 3)], rng) for _ in range(3)]
        pool = [base] + donors
        alignment = shared_parameters(pool, 0)
        schedule = compute_schedule(4, alignment.n_shared_layers, 0)
        merged = layerwise_merge(pool, 0, schedule, alignment)
        shuffled = [base] + donors[::-1]
        merged2 = layerwise_merge(shuffled, 0, schedule, alignment)
        for t in merged.tensors:
            assert np.array_equal(t.data, merged2.get(t.name).data)


class TestMergeMetadata:
    def test_every_strategy_keeps_the_anchor_layer_order(self, rng):
        order = '["layer1", "layer0"]'
        pool = [make_checkpoint([(3, 2), (2, 3)], rng, metadata={"layer_order": order})
                for _ in range(3)]
        alignment = shared_parameters(pool, 0)
        fishers = [FisherWeights({t.name: np.abs(t.data) for t in c.tensors}) for c in pool]
        schedule = compute_schedule(3, alignment.n_shared_layers, 0)
        merges = [
            layerwise_merge(pool, 0, schedule, alignment),
            isotropic_merge(pool, alignment),
            scalar_weighted_merge(pool, [1.0, 2.0, 3.0], alignment),
            fisher_merge(pool, fishers, alignment),
        ]
        for merged in merges:
            assert merged.metadata["layer_order"] == order

    def test_no_layer_order_without_one_on_the_anchor(self, rng):
        pool = [make_checkpoint([(2, 2)], rng) for _ in range(2)]
        merged = isotropic_merge(pool, shared_parameters(pool, 0))
        assert "layer_order" not in merged.metadata


class TestIsotropicMerge:
    def test_arithmetic_mean(self):
        a = Checkpoint.from_arrays({"x.weight": np.array([1.0, 3.0])})
        b = Checkpoint.from_arrays({"x.weight": np.array([3.0, 5.0])})
        merged = isotropic_merge([a, b], shared_parameters([a, b], 0))
        assert merged.get("x.weight").data.tolist() == [2.0, 4.0]

    def test_equals_layerwise_with_constant_schedule(self, rng):
        pool = [make_checkpoint([(3, 3), (4, 3)], rng) for _ in range(3)]
        alignment = shared_parameters(pool, 0)
        iso = isotropic_merge(pool, alignment)
        layers = alignment.n_shared_layers
        constant = MergeSchedule(3, layers, 0, layers, 1 / 3, np.full((3, layers), 1 / 3))
        lw = layerwise_merge(pool, 0, constant, alignment)
        for t in iso.tensors:
            np.testing.assert_allclose(
                t.data, lw.get(t.name).data, rtol=0, atol=1e-12
            )

    def test_single_model_identity(self, rng):
        a = make_checkpoint([(2, 2)], rng)
        merged = isotropic_merge([a], shared_parameters([a], 0))
        assert np.array_equal(merged.get("layer0.weight").data, a.get("layer0.weight").data)

    def test_rejects_conflicting_head_shapes(self, rng):
        anchor = Checkpoint.from_arrays(
            {"bb.weight": np.zeros((4, 4)), "head.weight": np.zeros((19, 4))}
        )
        donor = Checkpoint.from_arrays(
            {"bb.weight": np.zeros((4, 4)), "head.weight": np.zeros((16, 4))}
        )
        alignment = shared_parameters([anchor, donor], 0)
        with pytest.raises(ShapeConflictError, match="head.weight"):
            isotropic_merge([anchor, donor], alignment)

    def test_disjoint_extra_tensors_completed_from_anchor(self, rng):
        anchor = Checkpoint.from_arrays(
            {"bb.weight": np.ones((2, 2)), "seg.weight": np.full((3, 2), 7.0)}
        )
        donor = Checkpoint.from_arrays(
            {"bb.weight": np.full((2, 2), 3.0), "pan.weight": np.zeros((5, 2))}
        )
        alignment = shared_parameters([anchor, donor], 0)
        merged = isotropic_merge([anchor, donor], alignment)
        assert merged.get("bb.weight").data.tolist() == [[2.0, 2.0], [2.0, 2.0]]
        assert np.array_equal(merged.get("seg.weight").data, anchor.get("seg.weight").data)
        assert "pan.weight" not in merged.names()


class TestScalarWeightedMerge:
    def test_hand_example(self):
        a = Checkpoint.from_arrays({"x.weight": np.array([3.0])})
        b = Checkpoint.from_arrays({"x.weight": np.array([0.0])})
        alignment = shared_parameters([a, b], 0)
        merged = scalar_weighted_merge([a, b], [2.0, 1.0], alignment)
        assert merged.get("x.weight").data.tolist() == [2.0]

    def test_equal_scores_equal_isotropic_exactly(self, rng):
        for m, score in [(2, 46.9), (3, 0.1), (5, 7.3)]:
            pool = [make_checkpoint([(3, 2), (2, 3)], rng) for _ in range(m)]
            alignment = shared_parameters(pool, 0)
            iso = isotropic_merge(pool, alignment)
            sw = scalar_weighted_merge(pool, [score] * m, alignment)
            for t in iso.tensors:
                assert np.array_equal(t.data, sw.get(t.name).data)

    def test_metadata_style_scores(self, rng):
        pool = [make_checkpoint([(2, 2)], rng) for _ in range(2)]
        alignment = shared_parameters(pool, 0)
        merged = scalar_weighted_merge(pool, [46.9, 45.2], alignment)
        w = 46.9 / (46.9 + 45.2)
        expected = w * pool[0].get("layer0.weight").data + (1 - w) * pool[1].get("layer0.weight").data
        np.testing.assert_allclose(merged.get("layer0.weight").data, expected, atol=1e-12)

    def test_nonpositive_scores_rejected(self, rng):
        pool = [make_checkpoint([(2, 2)], rng) for _ in range(2)]
        alignment = shared_parameters(pool, 0)
        for bad in ([0.0, 1.0], [-1.0, 1.0], [np.nan, 1.0]):
            with pytest.raises(MergeError, match="positive"):
                scalar_weighted_merge(pool, bad, alignment)

    def test_score_count_mismatch_rejected(self, rng):
        pool = [make_checkpoint([(2, 2)], rng) for _ in range(2)]
        with pytest.raises(MergeError, match="scores"):
            scalar_weighted_merge(pool, [1.0], shared_parameters(pool, 0))

    def test_finite_inputs_summing_past_float64_rejected(self):
        big = np.finfo(np.float64).max
        pool = [Checkpoint.from_arrays({"layer0.weight": np.array([big, -big])}) for _ in range(4)]
        scores = [0.6331871446860424, 0.09401534358238482, 0.8426441476533978, 0.7970983074886834]
        with pytest.raises(NonFiniteTensorError, match="merged tensor 'layer0.weight'"):
            scalar_weighted_merge(pool, scores, shared_parameters(pool, 0))


class TestFisherMerge:
    def fisher_like(self, ckpt, value=1.0):
        return FisherWeights({t.name: np.full(t.shape, value) for t in ckpt.tensors})

    def test_constant_fisher_equals_isotropic(self, rng):
        pool = [make_checkpoint([(3, 3), (2, 3)], rng) for _ in range(3)]
        alignment = shared_parameters(pool, 0)
        fishers = [self.fisher_like(c, 0.37) for c in pool]
        fm = fisher_merge(pool, fishers, alignment)
        iso = isotropic_merge(pool, alignment)
        for t in iso.tensors:
            np.testing.assert_allclose(t.data, fm.get(t.name).data, rtol=0, atol=1e-12)

    def test_one_hot_selection(self):
        a = Checkpoint.from_arrays({"x.weight": np.array([5.0, 5.0])})
        b = Checkpoint.from_arrays({"x.weight": np.array([9.0, 9.0])})
        alignment = shared_parameters([a, b], 0)
        fishers = [
            FisherWeights({"x.weight": np.array([1.0, 0.0])}),
            FisherWeights({"x.weight": np.array([0.0, 1.0])}),
        ]
        merged = fisher_merge([a, b], fishers, alignment)
        assert merged.get("x.weight").data.tolist() == [5.0, 9.0]

    def test_tensor_without_donor_fisher_mass_kept_from_anchor(self):
        # only the anchor has Fisher mass, so the tensor does not blend and
        # keeps the anchor's bytes; a weighted sum would turn -0.0 into 0.0
        a = Checkpoint.from_arrays({"x.weight": np.array([-0.0, 1.5, -2.0])})
        b = Checkpoint.from_arrays({"x.weight": np.array([3.0, 0.5, 0.25])})
        fishers = [
            FisherWeights({"x.weight": np.array([1.0, 2.0, 0.5])}),
            FisherWeights({"x.weight": np.zeros(3)}),
        ]
        merged = fisher_merge([a, b], fishers, shared_parameters([a, b], 0))
        assert merged.get("x.weight").data.tobytes() == a.get("x.weight").data.tobytes()

    def test_zero_fisher_falls_back_to_mean(self):
        a = Checkpoint.from_arrays({"x.weight": np.array([2.0, 8.0])})
        b = Checkpoint.from_arrays({"x.weight": np.array([4.0, 0.0])})
        alignment = shared_parameters([a, b], 0)
        fishers = [
            FisherWeights({"x.weight": np.array([0.0, 3.0])}),
            FisherWeights({"x.weight": np.array([0.0, 1.0])}),
        ]
        merged = fisher_merge([a, b], fishers, alignment)
        out = merged.get("x.weight").data
        assert out[0] == 3.0  # plain mean where total fisher mass is zero
        assert out[1] == pytest.approx((3 * 8 + 1 * 0) / 4)

    def test_bn_statistics_always_isotropic(self):
        a = Checkpoint.from_arrays(
            {"bn.weight": np.array([1.0]), "bn.running_mean": np.array([10.0]),
             "bn.running_var": np.array([1.0])}
        )
        b = Checkpoint.from_arrays(
            {"bn.weight": np.array([3.0]), "bn.running_mean": np.array([20.0]),
             "bn.running_var": np.array([3.0])}
        )
        alignment = shared_parameters([a, b], 0)
        fishers = [
            FisherWeights({"bn.weight": np.array([100.0])}),
            FisherWeights({"bn.weight": np.array([1.0])}),
        ]
        merged = fisher_merge([a, b], fishers, alignment)
        assert merged.get("bn.running_mean").data.tolist() == [15.0]
        assert merged.get("bn.running_var").data.tolist() == [2.0]
        # while the gradient-bearing weight is fisher-weighted
        assert merged.get("bn.weight").data[0] == pytest.approx((100 + 3) / 101)

    def test_huge_fisher_values_stay_finite(self):
        # products like 1e300 * 1e10 and sums of 1.7e308 overflow float64
        params = [[1e10, -3e9, 2.5], [-4e9, 7e9, 0.5], [6e9, 1e10, -1.25]]
        fisher = [[1e300, 1.7e308, 1e300], [3e300, 1.7e308, 2e300], [2e300, 1.7e308, 0.0]]
        pool = [Checkpoint.from_arrays({"x.weight": np.array(p)}) for p in params]
        fishers = [FisherWeights({"x.weight": np.array(f)}) for f in fisher]
        merged = fisher_merge(pool, fishers, shared_parameters(pool, 0)).get("x.weight").data
        assert np.all(np.isfinite(merged))
        for k, got in enumerate(merged):
            f = [Fraction(row[k]) for row in fisher]
            x = [Fraction(row[k]) for row in params]
            exact = sum(fi * xi for fi, xi in zip(f, x)) / sum(f)
            assert abs(Fraction(float(got)) - exact) <= Fraction(1e-12) * abs(exact)

    def test_missing_fisher_tensor_rejected(self, rng):
        pool = [make_checkpoint([(2, 2)], rng) for _ in range(2)]
        alignment = shared_parameters(pool, 0)
        fishers = [self.fisher_like(pool[0]), FisherWeights({})]
        with pytest.raises(MergeError, match="no Fisher tensor"):
            fisher_merge(pool, fishers, alignment)

    def test_negative_fisher_rejected(self):
        # non-finite values are reported before negative ones
        table = [
            ([-1.0], "negative"),
            ([np.nan], "non-finite"),
            ([np.inf], "non-finite"),
            ([-np.inf], "non-finite"),
            ([-1.0, np.nan], "non-finite"),
            ([-0.0], None),
            ([], None),
        ]
        for values, verdict in table:
            for dtype in (np.float64, np.float32):
                arrays = {"x": np.array(values, dtype=dtype)}
                if verdict is None:
                    assert FisherWeights(arrays).tensors["x"].dtype == np.float64
                else:
                    with pytest.raises(MergeError, match=f"^{verdict} Fisher values in 'x'$"):
                        FisherWeights(arrays)
        # the arrays are held as a checkpoint, whose tensors need names
        with pytest.raises(ckpt_store.CheckpointError, match="^tensor name must be non-empty$"):
            FisherWeights({"": np.ones(2)})


class TestMisuseRejected:
    """Arguments built for another pool are rejected, not merged."""

    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda pool, al, fishers, rng: isotropic_merge(pool[:2], al),
                     MergeError, "alignment covers 3 models, got 2", id="alignment-pool-size"),
        pytest.param(lambda pool, al, fishers, rng: isotropic_merge(
                         [pool[0], make_checkpoint([(2, 3), (3, 2)], rng), pool[2]], al),
                     MergeError, "shape mismatch for shared tensor 'layer0.weight': "
                     r"\(2, 3\) vs \(2, 2\)", id="alignment-shape"),
        pytest.param(lambda pool, al, fishers, rng: layerwise_merge(
                         pool, 0, compute_schedule(3, 1, 0), al),
                     MergeError, "schedule built for 1 shared layers, alignment has 2",
                     id="schedule-layer-count"),
        pytest.param(lambda pool, al, fishers, rng: layerwise_merge(
                         pool, 1, compute_schedule(3, 2, 1), al),
                     MergeError, "anchor disagrees", id="alignment-anchor"),
        pytest.param(lambda pool, al, fishers, rng: layerwise_merge(
                         pool, 0, compute_schedule(3, 2, 1), al),
                     MergeError, "anchor disagrees", id="schedule-anchor"),
        pytest.param(lambda pool, al, fishers, rng: fisher_merge(
                         pool, [fishers[0], FisherWeights(
                             {**fishers[1].tensors, "layer1.bias": np.ones(2)}), fishers[2]], al),
                     FisherInputError, r"Fisher tensor 'layer1.bias' of model 1 has shape "
                     r"\(2,\), expected \(3,\)", id="fisher-shape"),
        pytest.param(lambda pool, al, fishers, rng: fisher_merge(pool, fishers[:2], al),
                     MergeError, "2 Fisher inputs for 3 models", id="fisher-count"),
        pytest.param(lambda pool, al, fishers, rng: isotropic_merge(pool, shared_parameters(
                         [make_checkpoint([(2, 2), (3, 2)], rng, prefix="z")] * 3, 0)),
                     MergeError, "the anchor has no shared tensor 'z0.weight'", id="alignment-name"),
        pytest.param(lambda pool, al, fishers, rng: isotropic_merge(
                         [pool[0], Checkpoint([t for t in pool[1].tensors
                                               if t.name != "layer1.weight"]), pool[2]], al),
                     MergeError, "model 1 has no shared tensor 'layer1.weight'",
                     id="alignment-missing"),
        pytest.param(lambda pool, al, fishers, rng: isotropic_merge(
                         [pool[0], make_checkpoint([(2, 2), (3, 2)], rng, dtype=np.float32),
                          pool[2]], al),
                     MergeError, "dtype mismatch for shared tensor 'layer0.weight': F32 vs F64",
                     id="alignment-dtype"),
        # the last shared layer is the anchor's alone, so it is never blended
        pytest.param(lambda pool, al, fishers, rng: layerwise_merge(
                         [pool[0], pool[1], make_checkpoint([(2, 2), (5, 2)], rng)], 0,
                         compute_schedule(3, 2, 0), al),
                     MergeError, "shape mismatch for shared tensor 'layer1.weight': "
                     r"\(5, 2\) vs \(3, 2\)", id="alignment-shape-unblended"),
    ])
    def test_rejected(self, rng, call, error, message):
        pool = [make_checkpoint([(2, 2), (3, 2)], rng) for _ in range(3)]  # two shared layers
        fishers = [FisherWeights({t.name: np.ones(t.shape) for t in c.tensors}) for c in pool]
        with pytest.raises(error, match=message):
            call(pool, shared_parameters(pool, 0), fishers, rng)

    @pytest.mark.parametrize("strategy", ["layerwise", "isotropic", "scalar", "fisher"])
    @pytest.mark.parametrize("model", [0, 1], ids=["anchor", "donor"])
    def test_duplicate_tensor_name_rejected(self, strategy, model):
        # a checkpoint built in memory can hold a name twice; the merge
        # addresses tensors by name, so it refuses it as save would
        pool = [Checkpoint.from_arrays({"l.weight": np.array([5.0, 6.0])}) for _ in range(2)]
        pool[model] = Checkpoint([TensorRecord("l.weight", np.array([1.0, 2.0])),
                                  TensorRecord("l.weight", np.array([3.0, 4.0]))])
        fishers = [Checkpoint.from_arrays({"l.weight": np.ones(2)}) for _ in pool]
        with pytest.raises(CheckpointError, match="^duplicate tensor name 'l.weight'$"):
            TestFileBackedMerge.merge(strategy, pool, fishers)


class TestMergeProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31))
    def test_convex_hull_bound(self, seed):
        rng = np.random.default_rng(seed)
        pool, _ = random_pool(rng, max_groups=4, max_elements=50)
        alignment = shared_parameters(pool, 0)
        m = len(pool)
        schedule = compute_schedule(m, alignment.n_shared_layers, 0)
        scores = list(1.0 + rng.random(m))
        fishers = [
            FisherWeights({t.name: rng.random(t.shape) for t in c.tensors}) for c in pool
        ]
        merges = [
            layerwise_merge(pool, 0, schedule, alignment),
            isotropic_merge(pool, alignment),
            scalar_weighted_merge(pool, scores, alignment),
            fisher_merge(pool, fishers, alignment),
        ]
        slack = 1e-12
        for merged in merges:
            for name in alignment.shared_names():
                stack = np.stack([c.get(name).data for c in pool])
                low, high = stack.min(axis=0), stack.max(axis=0)
                out = merged.get(name).data
                assert np.all(out >= low - slack) and np.all(out <= high + slack)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31), st.integers(0, 3), st.permutations(range(4)), st.booleans())
    def test_permutation_of_weighted_pairs_is_exact(self, seed, anchor, order, twins):
        rng = np.random.default_rng(seed)
        pool, _ = random_pool(rng, model_count=4, max_groups=3, max_elements=30)
        scores = list(1.0 + rng.random(4))
        fishers = [
            FisherWeights({t.name: rng.random(t.shape) for t in c.tensors}) for c in pool
        ]
        if twins:  # two byte-identical donors with identical scores and Fisher values
            a, b = [i for i in range(4) if i != anchor][:2]
            pool[b] = Checkpoint.from_arrays({t.name: t.data.copy() for t in pool[a].tensors})
            scores[b] = scores[a]
            fishers[b] = FisherWeights(dict(fishers[a].tensors))

        def merges(order):
            # each model moves with its score and Fisher values; the anchor moves too
            models = [pool[i] for i in order]
            at = order.index(anchor)
            alignment = shared_parameters(models, at)
            schedule = compute_schedule(4, alignment.n_shared_layers, at)
            return [
                layerwise_merge(models, at, schedule, alignment),
                isotropic_merge(models, alignment),
                scalar_weighted_merge(models, [scores[i] for i in order], alignment),
                fisher_merge(models, [fishers[i] for i in order], alignment),
            ]

        for merged, merged2 in zip(merges([0, 1, 2, 3]), merges(list(order))):
            for t in merged.tensors:
                assert np.array_equal(t.data, merged2.get(t.name).data)

    def test_f32_storage_accumulates_in_f64(self, rng):
        # thousands of tiny f32 contributions would drift if accumulated in f32
        a32 = make_checkpoint([(50, 50)], rng, dtype=np.float32)
        pool = [a32] * 5
        alignment = shared_parameters(pool, 0)
        merged = isotropic_merge(pool, alignment)
        assert merged.get("layer0.weight").data.dtype == np.float32
        np.testing.assert_array_equal(merged.get("layer0.weight").data, a32.get("layer0.weight").data)


class TestOracleEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31))
    def test_all_strategies_match_naive_reference(self, seed):
        rng = np.random.default_rng(seed)
        pool, groups = random_pool(rng, max_groups=4, max_elements=60)
        m = len(pool)
        alignment = shared_parameters(pool, 0)
        flat = as_flat_dicts(pool)
        names = [n for g in groups for n in g]

        schedule = compute_schedule(m, alignment.n_shared_layers, 0)
        lw = layerwise_merge(pool, 0, schedule, alignment)
        ref_lw = ref.ref_layerwise(
            flat, 0, [list(schedule.weights[:, j]) for j in range(schedule.layer_count)],
            groups, names,
        )
        iso = isotropic_merge(pool, alignment)
        ref_iso = ref.ref_mean(flat, names)

        scores = [float(s) for s in 1.0 + rng.random(m)]
        sw = scalar_weighted_merge(pool, scores, alignment)
        ref_sw = ref.ref_scalar(flat, scores, names)

        fishers = [
            FisherWeights({t.name: rng.random(t.shape) for t in c.tensors}) for c in pool
        ]
        fm = fisher_merge(pool, fishers, alignment)
        flat_fishers = [
            {k: [float(x) for x in v.ravel()] for k, v in f.tensors.items()} for f in fishers
        ]
        ref_fm = ref.ref_fisher(flat, flat_fishers, names)

        for engine, reference in ((lw, ref_lw), (iso, ref_iso), (sw, ref_sw), (fm, ref_fm)):
            for name in names:
                got = engine.get(name).data.ravel()
                expected = np.array(reference[name])
                assert np.max(np.abs(got - expected)) <= 1e-12


class TestContentOrder:
    @staticmethod
    def variants(data, base, count):
        """``count`` copies of ``base``, each with a few elements changed or
        a byte-identical twin of an earlier one."""
        out = []
        for _ in range(count):
            if out and data.draw(st.booleans()):
                out.append(out[data.draw(st.integers(0, len(out) - 1))].copy())
                continue
            x = base.copy()
            positions = st.lists(st.integers(0, x.size - 1), max_size=3) if x.size else st.just([])
            for pos in data.draw(positions):
                x[pos] = data.draw(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 7.0]))
            out.append(x)
        return out

    @staticmethod
    def order(weights, arrays):
        """``_content_order`` of the pairs, the M weights given as a weight
        source: scalars, or rows whose blocks are slices."""
        w = np.stack(weights)
        if w.ndim == 1:
            source = merge_module._Scalars(w)
        else:
            source = SimpleNamespace(size=w.shape[1], block=lambda lo: w[:, lo:lo + merge_module._BLOCK])
        return merge_module._content_order(source, [x.reshape(-1) for x in arrays])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_order_equals_whole_bytes_order(self, data):
        # small blocks put most arrays past the first block; F32 arrays are
        # compared in blocks of the same number of elements, half the bytes
        block = data.draw(st.sampled_from([1, 5, merge_module._BLOCK]), label="block")
        dtype = data.draw(st.sampled_from([np.float64, np.float32]), label="dtype")
        n = data.draw(st.integers(0, 3 * block + 2), label="elements")
        m = data.draw(st.integers(1, 5), label="models")
        arrays = self.variants(data, np.arange(n, dtype=dtype), m)
        if n % 2 == 0 and data.draw(st.booleans()):  # not C-contiguous
            arrays = [x.reshape(2, -1).T for x in arrays]
        if data.draw(st.booleans()):  # one weight per element, as Fisher merging has
            weights = self.variants(data, np.full(n, 0.25), m)
        else:
            weights = [np.float64(data.draw(st.sampled_from([0.0, 0.25, 0.5]))) for _ in range(m)]
        with mock.patch.object(merge_module, "_BLOCK", block):
            order = self.order(weights, arrays)
        assert order == ref.ref_content_order(weights, arrays)

    def test_arrays_differing_only_past_the_first_chunk(self):
        n = 3 * merge_module._BLOCK
        arrays = [np.zeros(n) for _ in range(5)]
        arrays[0][-1] = 2.0
        arrays[1][n // 2] = 1.0
        arrays[2][-1] = 1.0
        arrays[4][-1] = 2.0  # a twin of arrays[0]
        late = np.full(n, 0.125)
        late[-1] = 0.5
        # little-endian bytes: 0.0 < 2.0 < 1.0 and 0.5 < 0.1, 0.125 < 0.5
        for weights, expected in (([0.5, 0.1, 0.1, 0.2, 0.1], [3, 0, 4, 2, 1]),
                                  ([late, *(np.full(n, 0.125) for _ in range(4))], [3, 4, 0, 2, 1])):
            order = self.order(weights, arrays)
            assert order == ref.ref_content_order(weights, arrays) == expected

    def test_weighted_sum_copies_no_whole_tensor(self, rng):
        # the whole read of one Fisher-weighted tensor, summed by _step_sums
        arrays = [rng.standard_normal((512, 512)) for _ in range(4)]
        weights = [rng.random((512, 512)) for _ in range(4)]
        plan = SimpleNamespace(fishers=weights, pool=arrays, anchor=0, src=[-1], table=np.zeros((1, 4)),
                               names=["t"], shapes=[(512, 512)])
        tensor = arrays[0].nbytes
        tracemalloc.start()
        try:
            merged = merge_module._Blocks._sum(plan, 0, [*weights, *arrays].__getitem__)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = ref.ref_weighted_sum(ref.ref_fisher_weights(weights), arrays)
        assert merged.tobytes() == expected.tobytes()
        # the output, the step buffer (four rows of _STEP, half a tensor
        # here) and a few blocks per model (keys, Fisher weights and each
        # step's sum of the mass); one whole-tensor copy would add a tensor
        assert peak < 2 * tensor + 64 * merge_module._BLOCK + 65536


class TestBlockedKernel:
    """The block kernel gives the bytes of the whole-array kernel it
    replaced (``ref_weighted_sum`` and ``ref_fisher_weights``, run one
    tensor at a time in the same merge loop), with blocks of 1-5 elements,
    so that blocks hold several whole tensors, larger tensors span many
    blocks and the content order is decided past the first one; in memory
    and from files, whose tensors may lie in another order than the
    anchor's or in several runs."""

    @staticmethod
    def pool(data, rng, block):
        m = data.draw(st.integers(1, 4), label="models")
        sizes = data.draw(st.lists(st.integers(0, 4 * block + 2), min_size=1, max_size=4), label="sizes")
        shapes = {}
        for k, n in enumerate(sizes):
            shapes[f"layer{k}.weight"] = (n, 2) if n % 3 == 0 else (n,)  # zero-size when n == 0
            shapes[f"layer{k}.bias"] = (n % 4,)
        bn = data.draw(st.integers(1, 2 * block + 1), label="bn size")
        for kind in ("weight", "running_mean", "running_var"):
            shapes[f"bn.{kind}"] = (bn,)
        dtypes = {n: data.draw(st.sampled_from([np.float32, np.float64]), label=f"{n} dtype")
                  for n in shapes}  # F32 and F64 tensors interleaved
        # few distinct values, so that models tie on some blocks
        values = [-1.5, -0.0, 0.0, 0.25, 2.0, 3.0]
        models = [{n: (rng.choice(values, s) + rng.integers(0, 2) * rng.standard_normal(s)).astype(dtypes[n])
                   for n, s in shapes.items()} for _ in range(m)]
        fishers = [{n: rng.exponential(1.0, s) * (rng.random(s) < 0.8) for n, s in shapes.items()}
                   for _ in range(m)]
        for n, s in shapes.items():
            if data.draw(st.booleans(), label=f"{n} Fisher zero over the first blocks"):
                lead = data.draw(st.integers(0, int(np.prod(s))), label="zero elements")
                for f in fishers:
                    f[n].reshape(-1)[:lead] = 0.0  # all of it when lead is the size
            elif data.draw(st.booleans(), label=f"{n} Fisher mass in one model only"):
                owner = data.draw(st.integers(0, m - 1), label="owner")  # no blend when the anchor
                for i, f in enumerate(fishers):
                    f[n][...] = rng.uniform(0.5, 1.0, s) if i == owner else 0.0
        if m > 1 and data.draw(st.booleans(), label="twins"):
            # byte-identical models whose Fisher values differ past block 0
            a, b = data.draw(st.permutations(range(m)), label="twin pair")[:2]
            models[b] = {n: x.copy() for n, x in models[a].items()}
            fishers[b] = {n: f.copy() for n, f in fishers[a].items()}
            for f in fishers[b].values():
                f.reshape(-1)[block:] *= rng.uniform(0.5, 2.0, max(f.size - block, 0))
        return models, fishers

    @staticmethod
    def merges(pool, fishers, anchor, scores):
        alignment = shared_parameters(pool, anchor)
        schedule = compute_schedule(len(pool), alignment.n_shared_layers, anchor)
        return [
            layerwise_merge(pool, anchor, schedule, alignment),
            isotropic_merge(pool, alignment),
            scalar_weighted_merge(pool, scores, alignment),
            fisher_merge(pool, fishers, alignment),
        ]

    @staticmethod
    def oracle_sum(blocks, k, read):
        """``_Blocks._sum`` with the Fisher weights, the blend decision and
        the sum taken by the whole-array reference."""
        f = len(blocks.fishers) if blocks.src[k] == -1 else 0
        w = ref.ref_fisher_weights([read(j) for j in range(f)]) if f else blocks.table[blocks.src[k]]
        if f and not np.delete(w, blocks.anchor, axis=0).any():  # only the anchor has weight
            return read(f + blocks.anchor)
        xs = [read(f + i) for i in range(len(blocks.pool))]
        out = ref.ref_weighted_sum(w, xs).astype(xs[blocks.anchor].dtype)
        if not np.isfinite(out).all():
            raise NonFiniteTensorError(f"merged tensor '{blocks.names[k]}' is not finite")
        return out

    @staticmethod
    def whole(pool, fishers, anchor, scores):
        """The merges with every tensor summed by the whole-array kernel:
        the block kernel hands every block back, one tensor at a time."""
        with mock.patch.object(merge_module._Blocks, "_sum", TestBlockedKernel.oracle_sum), \
                mock.patch.object(merge_module._Blocks, "merge", hand_back):
            return TestBlockedKernel.merges(pool, fishers, anchor, scores)

    @staticmethod
    def opened(files, data, tmp, models, fishers, anchor):
        """The models and Fisher values saved and opened with ``open_file``;
        a file other than the anchor's may list its tensors in another order."""
        out = []
        for stem, arrays in (("m", models), ("f", fishers)):
            for i, x in enumerate(arrays):
                reorder = (stem, i) != ("m", anchor) and data.draw(st.booleans(), label=f"{stem}{i} reordered")
                order = data.draw(st.permutations(list(x)), label=f"{stem}{i} order") if reorder else list(x)
                path = tmp / f"{stem}{i}.st"
                save(Checkpoint.from_arrays({n: x[n] for n in order}), path)
                out.append(files.enter_context(ckpt_store.open_file(path)))
        return out[:len(models)], [FisherWeights.from_checkpoint(f) for f in out[len(models):]]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_whole_array_kernel(self, data):
        block = data.draw(st.integers(1, 5), label="block")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        models, fishers = self.pool(data, rng, block)
        anchor = data.draw(st.integers(0, len(models) - 1), label="anchor")
        scores = list(1.0 + rng.random(len(models)))
        whole = self.whole([Checkpoint.from_arrays(x) for x in models],
                           [FisherWeights(f) for f in fishers], anchor, scores)
        with contextlib.ExitStack() as files:
            files.enter_context(mock.patch.object(merge_module, "_BLOCK", block))
            if data.draw(st.booleans(), label="from files"):
                window = data.draw(st.sampled_from([16, 64, ckpt_store._RUN_BYTES]), label="run bytes")
                files.enter_context(mock.patch.object(ckpt_store, "_RUN_BYTES", window))
                tmp = Path(files.enter_context(tempfile.TemporaryDirectory()))
                pool, weights = self.opened(files, data, tmp, models, fishers, anchor)
            else:
                pool = [Checkpoint.from_arrays(x) for x in models]
                weights = [FisherWeights(f) for f in fishers]
            blocked = self.merges(pool, weights, anchor, scores)
        for got, expected in zip(blocked, whole):
            assert got.names() == expected.names()
            for t in got.tensors:
                e = expected.get(t.name).data
                assert t.data.dtype == e.dtype and t.data.tobytes() == e.tobytes(), t.name


class TestFileBackedMerge:
    """Merges over checkpoints opened with ``open_file``: inputs are read
    tensor by tensor, each once, and checked as they are read."""

    @staticmethod
    def saved(tmp_path, ckpts, stem="m"):
        paths = []
        for i, ckpt in enumerate(ckpts):
            paths.append(tmp_path / f"{stem}{i}.st")
            save(ckpt, paths[-1])
        return paths

    @staticmethod
    def merge(strategy, ckpts, fishers=None):
        alignment = shared_parameters(ckpts, 0)
        if strategy == "layerwise":
            schedule = compute_schedule(len(ckpts), alignment.n_shared_layers, 0)
            return layerwise_merge(ckpts, 0, schedule, alignment)
        if strategy == "isotropic":
            return isotropic_merge(ckpts, alignment)
        if strategy == "scalar":
            return scalar_weighted_merge(ckpts, [1.0 + i for i in range(len(ckpts))], alignment)
        return fisher_merge(ckpts, [FisherWeights.from_checkpoint(f) for f in fishers], alignment)

    def pool(self, tmp_path, rng, count=4, shapes=((6, 5), (4, 6), (3, 4))):
        models = [make_checkpoint(list(shapes), rng) for _ in range(count)]
        fishers = [Checkpoint.from_arrays({t.name: rng.random(t.shape) for t in m.tensors})
                   for m in models]
        return self.saved(tmp_path, models), self.saved(tmp_path, fishers, "f")

    @pytest.mark.parametrize("strategy", ["layerwise", "isotropic", "scalar", "fisher"])
    def test_equals_merge_of_loaded_checkpoints(self, tmp_path, rng, strategy):
        paths, fisher_paths = self.pool(tmp_path, rng)
        expected = self.merge(strategy, [load(p) for p in paths], [load(p) for p in fisher_paths])
        with contextlib.ExitStack() as files:
            opened = [files.enter_context(ckpt_store.open_file(p)) for p in [*paths, *fisher_paths]]
            merged = self.merge(strategy, opened[:4], opened[4:])
        assert merged.names() == expected.names() and merged.metadata == expected.metadata
        for t in merged.tensors:
            assert np.array_equal(t.data, expected.get(t.name).data)

    @pytest.mark.parametrize("strategy", ["layerwise", "fisher"])
    def test_every_tensor_read_once(self, tmp_path, rng, strategy, monkeypatch):
        paths, fisher_paths = self.pool(tmp_path, rng)
        if strategy == "layerwise":
            fisher_paths = []
        reads = counting_reads(monkeypatch)
        with contextlib.ExitStack() as files:
            opened = [files.enter_context(ckpt_store.open_file(p)) for p in [*paths, *fisher_paths]]
            self.merge(strategy, opened[:4], opened[4:])
        # every tensor of every input, including the last layer that only
        # the anchor weighs, and in fewer reads than tensors: each file's
        # six tensors are one run
        for path in [*paths, *fisher_paths]:
            assert bytes_read_once(reads, path)
        assert len(reads) == len(opened) < 6 * len(opened)

    @staticmethod
    def many_tensor_models(with_fisher=False):
        """A miniature of the benchmark's many-tensor pool: BN-style groups
        of small F32 tensors and a head whose class count differs per
        model. ``with_fisher`` drops the head and adds F64 Fisher values,
        with one more tensor per group that no model has."""
        rng = np.random.default_rng(7)
        models, fishers = [], []
        for i in range(4):
            arrays = {}
            for k in range(150):
                arrays[f"blocks.{k}.weight"] = rng.standard_normal((8, 8)).astype(np.float32)
                for kind in ("bias", "running_mean", "running_var"):
                    arrays[f"blocks.{k}.{kind}"] = rng.random(8).astype(np.float32)
            if not with_fisher:
                arrays["head.weight"] = rng.standard_normal((10 + i, 8)).astype(np.float32)
                arrays["head.bias"] = rng.standard_normal(10 + i).astype(np.float32)
                models.append(Checkpoint.from_arrays(arrays))
                continue
            models.append(Checkpoint.from_arrays(arrays))
            fisher = {}
            for n, x in arrays.items():
                fisher[n] = rng.exponential(1.0, x.shape) * (rng.random(x.shape) < 0.9)
                if n.endswith("running_var"):
                    fisher[n.replace("running_var", "extra")] = rng.random(3)
            fishers.append(Checkpoint.from_arrays(fisher))
        return (models, fishers) if with_fisher else models

    def test_no_more_reads_than_runs(self, tmp_path, monkeypatch):
        # in runs of at most 4 KiB
        paths = self.saved(tmp_path, self.many_tensor_models())
        expected = self.merge("layerwise", [load(p) for p in paths])
        monkeypatch.setattr(ckpt_store, "_RUN_BYTES", 4096)
        reads = counting_reads(monkeypatch)
        with contextlib.ExitStack() as files:
            merged = self.merge("layerwise", [files.enter_context(ckpt_store.open_file(p))
                                              for p in paths])
        runs = sum(ref.ref_read_units(p, 4096) for p in paths)
        assert len(reads) <= runs and 10 * runs < 4 * 602  # 602 tensors per model
        assert all(bytes_read_once(reads, p) for p in paths)
        assert all(t.data.tobytes() == expected.get(t.name).data.tobytes() for t in merged.tensors)

    @pytest.mark.parametrize("blocks, twins", [(True, True), (False, True), (True, False), (False, False)],
                             ids=["blocks", "one at a time", "blocks, no bn twins",
                                  "one at a time, no bn twins"])
    def test_fisher_batch_norm_statistics_read_in_runs(self, tmp_path, monkeypatch, blocks, twins):
        # batch-norm statistics are weighted 1/M, so no Fisher value of
        # theirs is looked up; a run that passed its check counts them checked.
        # Without those twins a block weighs only some of its tensors per
        # element, and the Fisher tensors no model has are never looked up
        models, fishers = self.many_tensor_models(with_fisher=True)
        if not twins:
            fishers = [Checkpoint([t for t in f.tensors if ".running_" not in t.name]) for f in fishers]
        paths, fisher_paths = self.saved(tmp_path, models), self.saved(tmp_path, fishers, "f")
        expected = self.merge("fisher", [load(p) for p in paths], [load(p) for p in fisher_paths])
        monkeypatch.setattr(ckpt_store, "_RUN_BYTES", 4096)
        if not blocks:
            monkeypatch.setattr(merge_module._Blocks, "merge", hand_back)
        reads = counting_reads(monkeypatch)
        with contextlib.ExitStack() as files:
            opened = [files.enter_context(ckpt_store.open_file(p)) for p in [*paths, *fisher_paths]]
            merged = self.merge("fisher", opened[:4], opened[4:])
        runs = sum(ref.ref_read_units(p, 4096) for p in [*paths, *fisher_paths])
        assert len(reads) <= runs
        assert all(bytes_read_once(reads, p) for p in [*paths, *fisher_paths])
        assert all(t.data.tobytes() == expected.get(t.name).data.tobytes() for t in merged.tensors)

    @pytest.mark.parametrize("strategy", ["layerwise", "fisher", "fisher-no-bn-twins",
                                          "fisher-bn-twins-in-anchor"])
    def test_kernel_passes_cover_many_tensors(self, tmp_path, monkeypatch, strategy):
        # the kernel sums blocks of whole tensors, not one tensor at a time,
        # and no block falls back to the tensor-by-tensor kernel
        if strategy.startswith("fisher"):
            models, fishers = self.many_tensor_models(with_fisher=True)
            for f in fishers:
                f.get("blocks.3.bias").data[:4] = 0.0  # no Fisher mass in any model
            if strategy == "fisher-no-bn-twins":  # blocks weigh only some tensors per element
                fishers = [Checkpoint([t for t in f.tensors if ".running_" not in t.name])
                           for f in fishers]
            if strategy == "fisher-bn-twins-in-anchor":
                # the twins' Fisher weights do not blend, but their tensors are
                # weighed by the table, so only Fisher-weighted tensors count
                for i, f in enumerate(fishers):
                    for t in f.tensors:
                        if ".running_" in t.name:
                            t.data[...] = 1.0 if i == 0 else 0.0
            fisher_paths = self.saved(tmp_path, fishers, "f")
        else:
            models, fisher_paths = self.many_tensor_models(), []
        paths = self.saved(tmp_path, models)
        monkeypatch.setattr(ckpt_store, "_RUN_BYTES", 4096)
        passes = []
        for owner, name in ((merge_module._Blocks, "merge"), (merge_module._Blocks, "_sum")):
            def counted(*args, _kernel=getattr(owner, name), _name=name):
                passes.append(_name)
                return _kernel(*args)
            monkeypatch.setattr(owner, name, counted)
        with contextlib.ExitStack() as files:
            opened = [files.enter_context(ckpt_store.open_file(p)) for p in [*paths, *fisher_paths]]
            alignment = shared_parameters(opened[:4], 0)
            self.merge(strategy.split("-")[0], opened[:4], opened[4:])
        shared_elements = sum(math.prod(opened[0].get(n).shape) for n in alignment.shared_names())
        runs = sum(ref.ref_read_units(p, 4096) for p in paths)
        assert "_sum" not in passes
        assert len(passes) <= runs + shared_elements / merge_module._BLOCK < 600

    def test_fisher_tensor_that_blends_nowhere_keeps_its_block(self, tmp_path, monkeypatch):
        # every even group's weight has Fisher mass in the anchor only, so it
        # keeps the anchor's values inside its block, and no block is merged
        # again one tensor at a time
        models, fishers = self.many_tensor_models(with_fisher=True)
        kept = [f"blocks.{k}.weight" for k in range(0, 150, 2)]
        for i, f in enumerate(fishers):
            for name in kept:
                f.get(name).data[...] = f.get(name).data + 0.5 if i == 0 else 0.0
        paths, fisher_paths = self.saved(tmp_path, models), self.saved(tmp_path, fishers, "f")
        loaded = [load(p) for p in paths], [load(p) for p in fisher_paths]
        with mock.patch.object(merge_module._Blocks, "merge", hand_back):
            expected = self.merge("fisher", *loaded)
        merges, one_at_a_time = [], []
        block_merge, tensor = merge_module._Blocks.merge, merge_module._Blocks.tensor

        def counted_merge(blocks, j):
            merges.append(len(blocks.spans))
            return block_merge(blocks, j)

        def counted_tensor(blocks, k):
            one_at_a_time.extend(k for a, b in blocks.spans if a <= k < b)
            return tensor(blocks, k)
        monkeypatch.setattr(merge_module._Blocks, "merge", counted_merge)
        monkeypatch.setattr(merge_module._Blocks, "tensor", counted_tensor)
        with contextlib.ExitStack() as files:
            opened = [files.enter_context(ckpt_store.open_file(p)) for p in [*paths, *fisher_paths]]
            merged = [self.merge("fisher", opened[:4], opened[4:]), self.merge("fisher", *loaded)]
        assert len(merges) == 2 * merges[0] > 2 and one_at_a_time == []
        for got in merged:
            assert got.names() == expected.names()
            assert all(t.data.tobytes() == expected.get(t.name).data.tobytes() for t in got.tensors)
        assert all(expected.get(n).data.tobytes() == models[0].get(n).data.tobytes() for n in kept)

    @staticmethod
    def one_run(tmp_path, ckpts, stem="m"):
        """Save the checkpoints and check that each file is one run."""
        paths = TestFileBackedMerge.saved(tmp_path, ckpts, stem)
        assert all(ref.ref_read_units(p, ckpt_store._RUN_BYTES) == 1 for p in paths)
        return paths

    def test_error_order_within_a_run(self, tmp_path, rng):
        # model 2's tensor k and model 0's tensor k + 1 are not finite: the
        # loop reaches model 2's first, although model 0's run fails first
        models = [make_checkpoint([(3, 3), (2, 3)], rng) for _ in range(4)]
        names = models[0].names()
        k = names.index("layer0.bias")
        models[2].get(names[k]).data[0] = np.nan
        models[0].get(names[k + 1]).data[0, 0] = np.inf
        paths = self.one_run(tmp_path, models)
        with contextlib.ExitStack() as files:
            opened = [files.enter_context(ckpt_store.open_file(p)) for p in paths]
            with pytest.raises(NonFiniteTensorError,
                               match=r"tensor 'layer0.bias' of model 2$"):
                self.merge("isotropic", opened)

    def test_negative_fisher_inside_a_run_named(self, tmp_path, rng):
        models = [make_checkpoint([(3, 3), (2, 3), (4, 2)], rng) for _ in range(4)]
        fishers = [Checkpoint.from_arrays({t.name: rng.random(t.shape) for t in m.tensors})
                   for m in models]
        fishers[3].get("layer1.weight").data[1, 1] = -0.5
        paths, fisher_paths = self.one_run(tmp_path, models), self.one_run(tmp_path, fishers, "f")
        with contextlib.ExitStack() as files:
            opened = [files.enter_context(ckpt_store.open_file(p)) for p in [*paths, *fisher_paths]]
            with pytest.raises(FisherInputError, match="negative Fisher values in 'layer1.weight'$"):
                self.merge("fisher", opened[:4], opened[4:])

    def test_checkpoint_of_records_from_two_files_checked_by_record(self, tmp_path, rng):
        # only the records open_file made are read through their file's index;
        # a run of the first file that passed must not stand for the second's
        models = [make_checkpoint([(3, 3), (2, 3)], rng) for _ in range(2)]
        models[1].get("layer0.bias").data[1] = np.nan
        paths = self.one_run(tmp_path, models)
        with contextlib.ExitStack() as files:
            a, b = (files.enter_context(ckpt_store.open_file(p)) for p in paths)
            mixed = Checkpoint([b.get(t.name) if t.name == "layer0.bias" else t for t in a.tensors])
            assert ckpt_store.index(mixed) is not ckpt_store.index(a) is ckpt_store.index(a)
            assert (ckpt_store.index(mixed).runs == -1).all()
            with pytest.raises(NonFiniteTensorError, match=r"tensor 'layer0.bias' of model 1$"):
                self.merge("isotropic", [a, mixed])

    def test_file_truncated_mid_run(self, tmp_path, rng, monkeypatch):
        models = [make_checkpoint([(3, 3), (2, 3), (4, 2)], rng) for _ in range(2)]
        paths = self.one_run(tmp_path, models)
        get = merge_module._Reads._get
        returned = []

        def recorded(reads, row):
            result = get(reads, row)
            returned.append((reads.index.path, reads.index.names[row]))
            return result

        monkeypatch.setattr(merge_module._Reads, "_get", recorded)
        with contextlib.ExitStack() as files:
            opened = [files.enter_context(ckpt_store.open_file(p)) for p in paths]
            start, end = data_section(paths[1])
            cut = start + 9 * 8 + 3 * 8 + 8  # inside layer1.weight, the run's third tensor
            paths[1].write_bytes(paths[1].read_bytes()[:cut])
            with pytest.raises(CheckpointFormatError, match="shrank"):
                self.merge("isotropic", opened)
        # the tensors before the cut were read and used, in the loop's order
        assert returned == [(paths[0], "layer0.weight"), (paths[1], "layer0.weight"),
                            (paths[0], "layer0.bias"), (paths[1], "layer0.bias"),
                            (paths[0], "layer1.weight")]

    def test_non_finite_output_before_a_non_finite_input_of_its_block(self, tmp_path, rng):
        # finite inputs whose weighted sum overflows at tensor k, and a NaN
        # input at tensor k + 1 of the same block: tensor k is reached first
        big = np.finfo(np.float64).max
        models = [{"layer0.weight": np.array([big, -big]), "layer0.bias": rng.random(3),
                   "layer1.weight": rng.random(4)} for _ in range(4)]
        models[1]["layer0.bias"][2] = np.nan
        paths = self.one_run(tmp_path, [Checkpoint.from_arrays(x) for x in models])
        scores = [0.6331871446860424, 0.09401534358238482, 0.8426441476533978, 0.7970983074886834]
        with contextlib.ExitStack() as files:
            opened = [files.enter_context(ckpt_store.open_file(p)) for p in paths]
            with pytest.raises(NonFiniteTensorError, match="^merged tensor 'layer0.weight' is not finite$"):
                scalar_weighted_merge(opened, scores, shared_parameters(opened, 0))

    def test_first_non_finite_input_of_a_block_named(self, tmp_path, rng):
        # model 3's tensor k and model 0's tensor k + 2 are not finite
        models = [make_checkpoint([(3, 3), (2, 3)], rng) for _ in range(4)]
        names = models[0].names()
        models[3].get(names[1]).data[1] = np.nan
        models[0].get(names[3]).data[0] = -np.inf
        paths = self.one_run(tmp_path, models)
        with contextlib.ExitStack() as files:
            opened = [files.enter_context(ckpt_store.open_file(p)) for p in paths]
            with pytest.raises(NonFiniteTensorError, match=rf"^non-finite values in tensor '{names[1]}' of model 3$"):
                self.merge("isotropic", opened)

    def test_file_truncated_mid_block(self, tmp_path, rng, monkeypatch):
        # ten tensors of 3 elements, blocks of 3 tensors; model 1's file ends
        # inside the fifth tensor, in the second block: the blocks before it
        # are merged, and the second is merged again one tensor at a time
        # until the tensor the file lost
        models = [Checkpoint.from_arrays({f"layer{k}.weight": rng.random(3) for k in range(10)})
                  for _ in range(2)]
        paths = self.one_run(tmp_path, models)
        monkeypatch.setattr(merge_module, "_BLOCK", 9)
        get = merge_module._Reads._get
        returned = []

        def recorded(reads, row):
            result = get(reads, row)
            returned.append((reads.index.path, reads.index.names[row]))
            return result

        monkeypatch.setattr(merge_module._Reads, "_get", recorded)
        with contextlib.ExitStack() as files:
            opened = [files.enter_context(ckpt_store.open_file(p)) for p in paths]
            start, _ = data_section(paths[1])
            paths[1].write_bytes(paths[1].read_bytes()[:start + 4 * 24 + 8])
            with pytest.raises(CheckpointFormatError, match="shrank"):
                self.merge("isotropic", opened)
        assert returned == [(paths[0], "layer3.weight"), (paths[1], "layer3.weight"),
                            (paths[0], "layer4.weight")]

    def test_peak_memory_well_under_the_pool(self, tmp_path, rng):
        # 8 tensors per model, the 4 weights of 0.5 MB each the largest
        paths, fisher_paths = self.pool(tmp_path, rng, shapes=[(256, 255)] * 4)
        largest = 256 * 255 * 8
        for strategy in ("layerwise", "isotropic", "fisher"):
            inputs = [*paths, *fisher_paths] if strategy == "fisher" else paths
            with contextlib.ExitStack() as files:
                opened = [files.enter_context(ckpt_store.open_file(p)) for p in inputs]
                tracemalloc.start()
                try:
                    merged = self.merge(strategy, opened[:4], opened[4:])
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            output = sum(t.data.nbytes for t in merged.tensors)
            # one tensor per input at a time, a few work buffers and the output
            bound = (len(inputs) + 4) * largest + output
            assert peak < bound < sum(p.stat().st_size for p in inputs), strategy

    @pytest.mark.parametrize("where", ["anchor-only", "zero-weight"])
    def test_non_finite_unblended_tensor_rejected(self, tmp_path, rng, where):
        anchor = make_checkpoint([(3, 3), (2, 3), (4, 2)], rng)
        arrays = {t.name: t.data.copy() for t in anchor.tensors}
        if where == "anchor-only":  # a head the donor shapes differently
            arrays["layer2.weight"] = np.full((5, 2), np.nan)
            arrays["layer2.bias"] = np.zeros(5)
        else:  # the last shared layer, which the schedule gives to the anchor
            arrays["layer2.weight"][0, 0] = np.nan
        paths = self.saved(tmp_path, [anchor, Checkpoint.from_arrays(arrays)])
        with contextlib.ExitStack() as files:
            opened = [files.enter_context(ckpt_store.open_file(p)) for p in paths]
            with pytest.raises(NonFiniteTensorError, match=r"layer2.weight.*model 1"):
                self.merge("layerwise", opened)

    @pytest.mark.parametrize("nan", [True, False], ids=["nan in the last layer", "finite"])
    def test_run_read_before_the_merge(self, tmp_path, rng, nan, monkeypatch):
        # a caller reads a donor tensor before the merge, so that the donor's
        # one run is read and kept: the merge's reads of it report no run,
        # and its tensors are checked as they are read, the last layer (which
        # only the anchor weighs, so the merge never looks it up) included
        anchor = make_checkpoint([(3, 3), (2, 3), (4, 2)], rng)
        donor = Checkpoint.from_arrays({t.name: t.data + 0.1 for t in anchor.tensors})
        if nan:
            donor.get("layer2.weight").data[1, 0] = np.nan
        paths = self.one_run(tmp_path, [anchor, donor])
        reads = counting_reads(monkeypatch)
        with contextlib.ExitStack() as files:
            opened = [files.enter_context(ckpt_store.open_file(p)) for p in paths]
            opened[1].tensors[0].data  # reads the donor's first tensor, and so its run
            if nan:
                with pytest.raises(NonFiniteTensorError,
                                   match=r"^non-finite values in tensor 'layer2.weight' of model 1$"):
                    self.merge("layerwise", opened)
                return
            merged = self.merge("layerwise", opened)
        assert all(bytes_read_once(reads, p) for p in paths) and len(reads) == 2
        out, expected = tmp_path / "out.st", tmp_path / "expected.st"
        save(merged, out)
        save(self.merge("layerwise", [load(p) for p in paths]), expected)
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("name, value", [
        ("bn.running_var", -1.0),  # weighted 1/M, never looked up
        ("extra.weight", np.nan),  # outside the shared set
    ])
    def test_unread_fisher_tensor_checked(self, tmp_path, rng, name, value):
        good = {"x.weight": rng.random(3), "bn.running_var": rng.random(3)}
        bad = {**good, name: np.full(3, value)}
        paths = self.saved(tmp_path, [Checkpoint.from_arrays(a) for a in (good, good, good, bad)])
        with contextlib.ExitStack() as files:
            opened = [files.enter_context(ckpt_store.open_file(p)) for p in paths]
            with pytest.raises(FisherInputError, match=name):
                self.merge("fisher", opened[:2], opened[2:])


class TestFastPathOutcomes:
    """Every fast path (a block, a run, a stream) ends as the whole-read
    path does: a pool opened with ``open_file`` merges to the bytes of the
    same pool loaded into memory, and of that pool merged one tensor at a
    time, read whole; or all three raise one error. Blocks, chunks and run
    windows are small, so that tiny pools take every path."""

    BIG = np.finfo(np.float64).max
    # scores whose rounded weights, added in the content order of their
    # bytes, take max * 1 past the range (a search found none for two models)
    OVERFLOWING = {3: [0.19528630385347684, 0.3245657365698765, 0.173109462651248],
                   4: [0.6331871446860424, 0.09401534358238482, 0.8426441476533978,
                       0.7970983074886834]}

    @classmethod
    def faulty_pool(cls, data, rng):
        """Models of 2 to 4 layers of a weight, a bias and a running
        variance, their Fisher values, and at most two faults: a non-finite
        model value, a negative or NaN Fisher value, or one tensor that
        every model holds as max, -max, max, ..., whose weighted sum may
        leave the range (see ``OVERFLOWING``)."""
        count = data.draw(st.integers(2, 4), label="models")
        shapes = data.draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 6)),
                                    min_size=2, max_size=4), label="shapes")
        models, fishers = [], []
        for _ in range(count):
            arrays = {}
            for k, (rows, cols) in enumerate(shapes):
                arrays[f"layer{k}.weight"] = rng.standard_normal((rows, cols))
                arrays[f"layer{k}.bias"] = rng.standard_normal(rows)
                arrays[f"layer{k}.running_var"] = rng.random(rows)
            models.append(arrays)
            # some elements with no Fisher mass, so that some do not blend
            fishers.append({n: rng.random(x.shape) * (rng.random(x.shape) < 0.7)
                            for n, x in arrays.items()})
        names = sorted(models[0])
        faults = data.draw(st.lists(st.sampled_from(["model", "fisher", "overflow"]), max_size=2),
                           label="faults")
        for fault in faults:
            name = data.draw(st.sampled_from(names), label="tensor")
            flat = [x[name].reshape(-1) for x in (models if fault != "fisher" else fishers)]
            if fault == "overflow":
                for x in flat:
                    x[::2], x[1::2] = cls.BIG, -cls.BIG
                continue
            values = [np.nan, np.inf, -np.inf] if fault == "model" else [np.nan, -0.5]
            i = data.draw(st.integers(0, count - 1), label="in model")
            at = data.draw(st.integers(0, flat[i].size - 1), label="at")
            flat[i][at] = data.draw(st.sampled_from(values), label="value")
        return models, fishers

    @staticmethod
    def outcomes(pool, fisher_pool, anchor, scores):
        """Of each strategy, the merged tensors' bytes, or the error's type
        and message; the Fisher inputs are read from ``fisher_pool``."""
        fishers = [FisherWeights.from_checkpoint(f) for f in fisher_pool]
        alignment = shared_parameters(pool, anchor)
        schedule = compute_schedule(len(pool), alignment.n_shared_layers, anchor)
        merges = [partial(layerwise_merge, pool, anchor, schedule, alignment),
                  partial(isotropic_merge, pool, alignment),
                  partial(scalar_weighted_merge, pool, scores, alignment),
                  partial(fisher_merge, pool, fishers, alignment)]
        out = []
        for merge in merges:
            try:
                merged = merge()
            except (MergeError, CheckpointError) as exc:
                out.append((type(exc), str(exc)))
            else:
                out.append([(t.name, t.data.dtype.str, t.data.tobytes()) for t in merged.tensors])
        return out

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_file_backed_merge_ends_as_the_whole_read_merge(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        models, fishers = self.faulty_pool(data, rng)
        anchor = data.draw(st.integers(0, len(models) - 1), label="anchor")
        scores = list(1.0 + rng.random(len(models)))
        if data.draw(st.booleans(), label="overflowing scores"):
            scores = self.OVERFLOWING.get(len(models), scores)
        with contextlib.ExitStack() as files:
            for owner, name, values in ((merge_module, "_BLOCK", [2, 3, 5]),
                                        (merge_module, "_CHUNK", [1, 2]),
                                        (ckpt_store, "_RUN_BYTES", [16, 64, 256])):
                value = data.draw(st.sampled_from(values), label=name)
                files.enter_context(mock.patch.object(owner, name, value))
            tmp = Path(files.enter_context(tempfile.TemporaryDirectory()))
            paths = TestFileBackedMerge.saved(tmp, map(Checkpoint.from_arrays, models))
            fisher_paths = TestFileBackedMerge.saved(tmp, map(Checkpoint.from_arrays, fishers), "f")
            opened = [files.enter_context(ckpt_store.open_file(p)) for p in [*paths, *fisher_paths]]
            from_files = self.outcomes(opened[:len(paths)], opened[len(paths):], anchor, scores)
            loaded = [load(p) for p in paths]
            loaded_fishers = [load(p) for p in fisher_paths]
            in_memory = self.outcomes(loaded, loaded_fishers, anchor, scores)
            with mock.patch.object(merge_module._Blocks, "merge", hand_back):
                whole = self.outcomes(loaded, loaded_fishers, anchor, scores)
        for strategy, got, memory, expected in zip(merge_module.STRATEGIES, from_files,
                                                   in_memory, whole):
            assert got == memory == expected, strategy


class TestStreamedReads:
    """A blended tensor larger than a block whose inputs are each read alone
    (in no run) from an open file is merged a chunk at a time by the main
    thread and one helper: each reads, checks, weighs and sums the chunks
    it claims. Chunks of 2 blocks here, so the pool's large tensors span 5
    chunks."""

    SHAPES = [(300, 256), (300, 256), (10, 256)]  # 300 KiB in F32: past the run window

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(merge_module, "_CHUNK", 2)

    @classmethod
    def pool(cls, rng, fisher_dtype=np.float64, model_dtype=np.float32):
        models = [make_checkpoint(cls.SHAPES, rng, model_dtype) for _ in range(4)]
        fishers = [Checkpoint.from_arrays({t.name: rng.random(t.shape).astype(fisher_dtype)
                                           for t in m.tensors}) for m in models]
        return models, fishers

    @staticmethod
    def merge_files(tmp_path, strategy, models, fishers):
        paths = TestFileBackedMerge.saved(tmp_path, models)
        fisher_paths = TestFileBackedMerge.saved(tmp_path, fishers, "f")
        with contextlib.ExitStack() as files:
            opened = [files.enter_context(ckpt_store.open_file(p)) for p in [*paths, *fisher_paths]]
            return TestFileBackedMerge.merge(strategy, opened[:4], opened[4:])

    @staticmethod
    def reading_threads(monkeypatch, pause=0.0):
        """The ident of the thread of every ``_fill``, in order. A run read
        (``_DataSection.view``) while another thread is inside a fill fails:
        the reader keeps one run per file, which only the merge loop uses."""
        fill, view = ckpt_store._DataSection._fill, ckpt_store._DataSection.view
        filling, idents = set(), []

        def recorded(section, fh, arr, start):
            me = threading.get_ident()
            filling.add(me)
            idents.append(me)
            try:
                time.sleep(pause)
                return fill(section, fh, arr, start)
            finally:
                filling.discard(me)

        def viewed(section, row, count):
            assert not filling - {threading.get_ident()}, "a run read while another thread fills"
            return view(section, row, count)

        monkeypatch.setattr(ckpt_store._DataSection, "_fill", recorded)
        monkeypatch.setattr(ckpt_store._DataSection, "view", viewed)
        return idents

    @staticmethod
    def streamed_fills(monkeypatch):
        """``(thread ident, lo)`` of every chunk a streamed read fills."""
        fills = []
        before_each_fill(monkeypatch, lambda lo: fills.append((threading.get_ident(), lo)))
        return fills

    @staticmethod
    def assert_bytes_equal(merged, expected):
        assert merged.names() == expected.names()
        for t in merged.tensors:
            e = expected.get(t.name).data
            assert t.data.dtype == e.dtype and t.data.tobytes() == e.tobytes(), t.name

    @pytest.mark.parametrize("strategy", ["layerwise", "isotropic", "scalar", "fisher"])
    def test_equals_merge_of_loaded_checkpoints(self, tmp_path, rng, strategy, monkeypatch):
        models, fishers = self.pool(rng)
        expected = TestFileBackedMerge.merge(strategy, models, fishers)
        self.reading_threads(monkeypatch, pause=0.001)
        fills = self.streamed_fills(monkeypatch)
        reads = counting_reads(monkeypatch)
        merged = self.merge_files(tmp_path, strategy, models, fishers)
        self.assert_bytes_equal(merged, expected)
        # every byte once: the two weights of each input in 5 chunks, read by
        # the main thread and the helper; the rest in a few reads by the
        # merge loop
        inputs = sorted(tmp_path.glob("m*.st") if strategy != "fisher" else tmp_path.glob("*.st"))
        assert all(bytes_read_once(reads, p) for p in inputs)
        assert len(fills) == 2 * 5 * len(inputs) < len(reads)
        main = threading.main_thread().ident
        assert main in {i for i, _ in fills} and any(i != main for i, _ in fills)

    @pytest.mark.parametrize("strategy", ["layerwise", "fisher"])
    def test_short_reads_give_the_bytes_of_whole_reads(self, tmp_path, rng, strategy, monkeypatch):
        models, fishers = self.pool(rng)
        expected = TestFileBackedMerge.merge(strategy, models, fishers)
        idents = self.reading_threads(monkeypatch)
        calls = short_reads(monkeypatch)
        merged = self.merge_files(tmp_path, strategy, models, fishers)
        for t in merged.tensors:
            e = expected.get(t.name).data
            assert t.data.dtype == e.dtype and t.data.tobytes() == e.tobytes(), t.name
        # the 5 chunks the worker fills of a 300 KiB tensor take 75 reads
        workers = [i for i in idents if i != threading.main_thread().ident]
        assert workers and len(calls) > 15 * len(workers)

    def test_read_of_nothing_inside_a_streamed_tensor_is_a_shrunk_file(self, tmp_path, rng, monkeypatch):
        models, fishers = self.pool(rng)
        paths = TestFileBackedMerge.saved(tmp_path, models)
        start, _ = data_section(paths[1])
        # inside the last chunk of model 1's first tensor, so that no other
        # chunk fails and stops the stream before it is read
        end = start + 9 * merge_module._BLOCK * 4
        calls = short_reads(monkeypatch, end=(paths[1], end))
        with contextlib.ExitStack() as files:
            opened = [files.enter_context(ckpt_store.open_file(p)) for p in paths]
            with pytest.raises(CheckpointFormatError, match="file shrank while it was read"):
                TestFileBackedMerge.merge("isotropic", opened)
        # models 0 and 1 read there by the stream, then again by the merge loop
        assert calls.count(end) == 4

    def test_worker_read_error_merged_again_on_the_main_thread(self, tmp_path, rng, monkeypatch):
        # a read that raises on the helper stops the stream, and the tensor is
        # merged again as it is read whole, where an error would be raised in
        # order; the helper itself ends quietly
        models, fishers = self.pool(rng)
        expected = TestFileBackedMerge.merge("fisher", models, fishers)
        fill, failed, escaped = ckpt_store._DataSection._fill, [], []

        def eio(section, fh, arr, start):
            if threading.current_thread() is not threading.main_thread():
                failed.append(start)
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return fill(section, fh, arr, start)

        monkeypatch.setattr(ckpt_store._DataSection, "_fill", eio)
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        merged = self.merge_files(tmp_path, "fisher", models, fishers)
        for t in merged.tensors:
            e = expected.get(t.name).data
            assert t.data.dtype == e.dtype and t.data.tobytes() == e.tobytes(), t.name
        assert len(failed) == 2 and escaped == []  # each large tensor's first chunk on the helper

    BIG = np.finfo(np.float64).max
    # scores whose rounded weights, added in the order 0, 3, 2, 1 (that of
    # their bytes), take max * 1 past the range
    OVERFLOWING = [0.6331871446860424, 0.09401534358238482, 0.8426441476533978, 0.7970983074886834]

    @classmethod
    def overflowing(cls, tmp_path, finite_chunks=0):
        """Four models of one 40,000-element tensor of max, -max, max, ...,
        each with 0 at its place in the order 0, 3, 2, 1, so that chunk 0
        orders them so, and with 0 in the first ``finite_chunks`` chunks but
        for those places."""
        paths = []
        for i in range(4):
            x = np.where(np.arange(40_000) % 2 == 0, cls.BIG, -cls.BIG)
            x[4:finite_chunks * merge_module._CHUNK * merge_module._BLOCK] = 0.0
            x[[0, 3, 2, 1].index(i)] = 0.0
            paths.append(tmp_path / f"m{i}.st")
            save(Checkpoint.from_arrays({"layer0.weight": x}), paths[-1])
        return paths

    @pytest.mark.parametrize("donors", ["differ over chunk 0", "identical"])
    def test_streamed_sum_that_overflows_raises_without_reading_again(self, tmp_path, donors, monkeypatch):
        # finite inputs whose every chunk passes, weighed by rounded weights
        # that sum past 1, so the sum overflows: the error is raised from the
        # stream, and no input is read a second time. Identical donors tie
        # over every chunk, so chunk 0's order stands and they stream too
        if donors == "identical":
            x = np.where(np.arange(40_000) % 2 == 0, self.BIG, -self.BIG)
            paths = TestFileBackedMerge.saved(tmp_path, [Checkpoint.from_arrays({"layer0.weight": x})] * 4)
        else:
            paths = self.overflowing(tmp_path)
        reads = counting_reads(monkeypatch)
        with contextlib.ExitStack() as files:
            opened = [files.enter_context(ckpt_store.open_file(p)) for p in paths]
            with pytest.raises(NonFiniteTensorError, match="^merged tensor 'layer0.weight' is not finite$"):
                scalar_weighted_merge(opened, self.OVERFLOWING, shared_parameters(opened, 0))
        assert all(bytes_read_once(reads, p) for p in paths)

    def test_overflow_read_whole_after_a_streamed_tensor_warns_nothing(self, tmp_path, monkeypatch):
        # the main thread keeps the merge's error state after streaming a
        # tensor with the helper, so a later tensor read whole (in a run with
        # its bias) that overflows raises with no RuntimeWarning, an error
        # under this suite's warning filters
        paths = self.overflowing(tmp_path)
        for i, p in enumerate(paths):
            arrays = {"layer0.weight": np.random.default_rng(i).standard_normal(40_000),
                      "layer1.weight": load(p).get("layer0.weight").data[:9_000], "layer1.bias": np.zeros(16)}
            save(Checkpoint.from_arrays(arrays), p)
        fills = self.streamed_fills(monkeypatch)
        # the helper enters its error state while the main thread is still in its own
        before_each_fill(monkeypatch, lambda lo: time.sleep(0.005) if lo else None)
        with contextlib.ExitStack() as files:
            opened = [files.enter_context(ckpt_store.open_file(p)) for p in paths]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(NonFiniteTensorError, match="^merged tensor 'layer1.weight' is not finite$"):
                    scalar_weighted_merge(opened, self.OVERFLOWING, shared_parameters(opened, 0))
        main = threading.main_thread().ident
        assert caught == [] and any(i != main for i, _ in fills) and len(fills) == 3 * 4

    def test_sum_that_overflows_only_on_the_helper(self, tmp_path, monkeypatch):
        # every chunk but chunk 0 overflows, so the helper's sums do: it runs
        # under the merge's error state, so no RuntimeWarning (an error
        # under this suite's warning filters) stops it, and the error is
        # raised with no input read twice
        paths = self.overflowing(tmp_path, finite_chunks=1)
        fills = self.streamed_fills(monkeypatch)
        reads = counting_reads(monkeypatch)
        with contextlib.ExitStack() as files:
            opened = [files.enter_context(ckpt_store.open_file(p)) for p in paths]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(NonFiniteTensorError, match="^merged tensor 'layer0.weight' is not finite$"):
                    scalar_weighted_merge(opened, self.OVERFLOWING, shared_parameters(opened, 0))
        assert caught == [] and all(bytes_read_once(reads, p) for p in paths)
        main = threading.main_thread().ident
        assert any(i != main for i, _ in fills) and len(fills) == 3 * 4
        # chunk 0 alone sums to finite values
        x = [load(p).get("layer0.weight").data[:merge_module._CHUNK * merge_module._BLOCK] for p in paths]
        weights = merge_module.score_weights(self.OVERFLOWING)
        assert np.isfinite(sum(w * v for w, v in zip(weights, x))).all()

    @staticmethod
    def twin(ckpts, twins):
        """Make ``ckpts[2]`` byte-identical to ``ckpts[1]`` over chunk 0 of
        each tensor, or throughout, or leave it (``twins`` "differ")."""
        n = {"differ": 0, "over chunk 0": merge_module._CHUNK * merge_module._BLOCK, "throughout": None}[twins]
        for t in ckpts[2].tensors:
            t.data.reshape(-1)[:n] = ckpts[1].get(t.name).data.reshape(-1)[:n]

    def assert_streamed(self, tmp_path, strategy, models, fishers, monkeypatch, streamed):
        """The merge of the saved pool is byte-equal to that of the loaded
        one, and its two large tensors are streamed, every byte read once,
        or handed back after at most one chunk past chunk 0 on each thread."""
        expected = TestFileBackedMerge.merge(strategy, models, fishers)
        fills = self.streamed_fills(monkeypatch)
        reads = counting_reads(monkeypatch)
        self.assert_bytes_equal(self.merge_files(tmp_path, strategy, models, fishers), expected)
        inputs = sorted(tmp_path.glob("m*.st") if strategy != "fisher" else tmp_path.glob("*.st"))
        assert all(bytes_read_once(reads, p) for p in inputs) == streamed
        assert len(fills) == 2 * 5 * len(inputs) if streamed else len(fills) <= 2 * 3 * len(inputs)

    @pytest.mark.parametrize("strategy", ["layerwise", "isotropic", "scalar", "fisher"])
    @pytest.mark.parametrize("twins", ["over chunk 0", "throughout"])
    def test_donors_tied_over_chunk_0(self, tmp_path, rng, strategy, twins, monkeypatch):
        # two donors byte-identical over chunk 0 keep chunk 0's order while
        # they tie; a later chunk where they differ could order them, so the
        # stream hands the tensor back there, and it is merged as it is read
        # whole
        models, fishers = self.pool(rng)
        self.twin(models, twins)
        self.assert_streamed(tmp_path, strategy, models, fishers, monkeypatch, twins == "throughout")

    @pytest.mark.parametrize("model_twins, fisher_twins", [
        ("throughout", "throughout"), ("differ", "throughout"),
        ("throughout", "over chunk 0"), ("differ", "over chunk 0"), ("over chunk 0", "throughout")])
    def test_fisher_inputs_tied_over_chunk_0(self, tmp_path, rng, model_twins, fisher_twins, monkeypatch):
        # tied Fisher inputs tie the mass rows, and with tied models the
        # weights break the models' tie: either holds only while the Fisher
        # inputs tie in every chunk
        models, fishers = self.pool(rng)
        self.twin(models, model_twins)
        self.twin(fishers, fisher_twins)
        streamed = model_twins != "over chunk 0" and fisher_twins == "throughout"
        self.assert_streamed(tmp_path, "fisher", models, fishers, monkeypatch, streamed)

    def test_weights_tied_over_chunk_0_by_distinct_fisher_mass(self, tmp_path, rng, monkeypatch):
        # over chunk 0, Fisher values one float apart give donors 1 and 2
        # distinct mass rows but, divided by the same sum, the same weights;
        # with the two models tied throughout, the weights of a later chunk
        # order them, so the stream hands the tensors back. F64 models, and
        # those later weights ordering donor 2 first, so that chunk 0's
        # order would change the merged bytes
        models, fishers = self.pool(rng, model_dtype=np.float64)
        self.twin(models, "throughout")
        for t in fishers[1].tensors:
            other = fishers[2].get(t.name).data
            t.data[...], other[...] = other.copy(), t.data.copy()
        values = [1.0, 0.8042252456449206, 0.8042252456449207, 0.5790228541743642]
        for f, v in zip(fishers, values):
            for t in f.tensors:
                t.data.reshape(-1)[:merge_module._CHUNK * merge_module._BLOCK] = v
        mass = merge_module._FisherBlocks([[v] for v in values])
        assert mass.mass(0)[1] != mass.mass(0)[2] and mass.block(0)[1] == mass.block(0)[2]
        self.assert_streamed(tmp_path, "fisher", models, fishers, monkeypatch, False)

    def test_fisher_tensor_that_blends_only_after_chunk_0(self, tmp_path, rng, monkeypatch):
        # the donor has no Fisher mass over chunk 0, so it does not blend
        # there: the stream hands the tensor back, and the whole read finds
        # the blend in a later chunk
        models, fishers = self.pool(rng)
        models, fishers = models[:2], fishers[:2]
        for t in fishers[1].tensors:
            t.data.reshape(-1)[:merge_module._CHUNK * merge_module._BLOCK] = 0.0
        alignment = shared_parameters(models, 0)
        expected = fisher_merge(models, [FisherWeights.from_checkpoint(f) for f in fishers], alignment)
        fills = self.streamed_fills(monkeypatch)
        paths = TestFileBackedMerge.saved(tmp_path, models)
        fisher_paths = TestFileBackedMerge.saved(tmp_path, fishers, "f")
        with contextlib.ExitStack() as files:
            opened = [files.enter_context(ckpt_store.open_file(p)) for p in [*paths, *fisher_paths]]
            merged = fisher_merge(opened[:2], [FisherWeights.from_checkpoint(f) for f in opened[2:]],
                                  shared_parameters(opened[:2], 0))
        self.assert_bytes_equal(merged, expected)
        assert [lo for _, lo in fills] == [0] * (2 * 4)
        blended = merged.get("layer0.weight").data.reshape(-1)
        anchor = models[0].get("layer0.weight").data.reshape(-1)
        n = merge_module._CHUNK * merge_module._BLOCK
        assert np.array_equal(blended[:n], anchor[:n]) and not np.array_equal(blended[n:], anchor[n:])

    @pytest.mark.parametrize("where", ["block", "streamed", "streamed, not blended"])
    def test_nan_where_a_donor_has_zero_fisher_weight_named(self, tmp_path, rng, where):
        # 0 * NaN is NaN, so a zero weight does not hide a NaN of its input
        models, fishers = self.pool(rng)
        name = "layer1.bias" if where == "block" else "layer1.weight"
        models[2].get(name).data.flat[7] = np.nan
        fishers[2].get(name).data.flat[7] = 0.0
        if where == "streamed, not blended":  # only the anchor has Fisher mass
            for f in fishers[1:]:
                f.get(name).data[...] = 0.0
        with pytest.raises(NonFiniteTensorError, match=rf"^non-finite values in tensor '{name}' of model 2$") \
                as raised:
            self.merge_files(tmp_path, "fisher", models, fishers)
        # the kept anchor's array does not read the donor: the check of the
        # tensors no merged value depends on does
        from_check_rest = any(entry.name == "check_rest" for entry in raised.traceback)
        assert from_check_rest == (where == "streamed, not blended")

    def test_f32_fisher_with_slow_helper_fills(self, tmp_path, rng, monkeypatch):
        # the helper's fills are slowed, so that the main thread sums most
        # chunks while the helper still reads one into its own buffers; F32
        # Fisher values are taken in float64 per step, in the buffers of the
        # thread that read them
        models, fishers = self.pool(rng, np.float32)
        expected = TestFileBackedMerge.merge("fisher", models, fishers)
        main = threading.main_thread().ident
        fills = []

        def slow(lo):
            fills.append((threading.get_ident(), lo))
            if threading.get_ident() != main:
                time.sleep(0.01)

        before_each_fill(monkeypatch, slow)
        reads = counting_reads(monkeypatch)
        merged = self.merge_files(tmp_path, "fisher", models, fishers)
        self.assert_bytes_equal(merged, expected)
        assert all(bytes_read_once(reads, p) for p in tmp_path.glob("*.st"))  # none merged again
        assert any(i != main for i, _ in fills)


    def test_concurrent_merges_under_fast_thread_switching(self, tmp_path, rng, monkeypatch):
        # three merges at once, each with its worker, more threads than cores,
        # switching every 10 us, a chunk per block: a lost update of what has
        # arrived would hang a merge or sum memory not read yet
        monkeypatch.setattr(merge_module, "_CHUNK", 1)
        models, fishers = self.pool(rng)
        expected = TestFileBackedMerge.merge("fisher", models, fishers)
        paths = [*TestFileBackedMerge.saved(tmp_path, models), *TestFileBackedMerge.saved(tmp_path, fishers, "f")]
        results = [None] * 3

        def merge(i):
            with contextlib.ExitStack() as files:
                opened = [files.enter_context(ckpt_store.open_file(p)) for p in paths]
                results[i] = TestFileBackedMerge.merge("fisher", opened[:4], opened[4:])

        threads = [threading.Thread(target=merge, args=(i,)) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for merged in results:
            assert [t.data.tobytes() for t in merged.tensors] == \
                [expected.get(t.name).data.tobytes() for t in merged.tensors]


class TestReadWorkerJoined:
    """No stream's helper thread outlives a merge, however the merge ends."""

    @pytest.fixture(autouse=True)
    def threads_before(self, monkeypatch):
        monkeypatch.setattr(merge_module, "_CHUNK", 2)
        before = threading.active_count()
        yield
        assert threading.active_count() == before

    @staticmethod
    def paths(tmp_path, rng, nan=False):
        models, fishers = TestStreamedReads.pool(rng)
        if nan:  # in the last chunk
            models[1].get("layer0.weight").data[-1, -1] = np.nan
        return (TestFileBackedMerge.saved(tmp_path, models),
                TestFileBackedMerge.saved(tmp_path, fishers, "f"))

    @pytest.mark.parametrize("ending", ["success", "shrunk file", "non-finite chunk"])
    def test_after_a_merge(self, tmp_path, rng, ending):
        paths, fisher_paths = self.paths(tmp_path, rng, nan=ending == "non-finite chunk")
        with contextlib.ExitStack() as files:
            opened = [files.enter_context(ckpt_store.open_file(p)) for p in [*paths, *fisher_paths]]
            if ending == "shrunk file":  # inside the second chunk of its first tensor
                start, _ = data_section(paths[1])
                paths[1].write_bytes(paths[1].read_bytes()[:start + 3 * merge_module._BLOCK * 4])
            error = {"success": None, "shrunk file": (CheckpointFormatError, "shrank"),
                     "non-finite chunk": (NonFiniteTensorError, "'layer0.weight' of model 1$")}[ending]
            with contextlib.nullcontext() if error is None else pytest.raises(error[0], match=error[1]):
                TestFileBackedMerge.merge("fisher", opened[:4], opened[4:])

    @pytest.mark.parametrize("where", ["SIGINT to the helper", "kernel"])
    def test_after_an_interrupt(self, tmp_path, rng, capsys, monkeypatch, where):
        from layermerge.cli import main

        paths, fisher_paths = self.paths(tmp_path, rng)
        before = threading.active_count()
        readers, pieces = [], []
        if where == "SIGINT to the helper":  # at its first read; the main thread runs the handler
            assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
            fill = ckpt_store._DataSection._fill

            def interrupt(section, fh, arr, start):
                if not readers and threading.current_thread() is not threading.main_thread():
                    readers.append(False)
                    signal.pthread_kill(threading.get_ident(), signal.SIGINT)
                return fill(section, fh, arr, start)
            monkeypatch.setattr(ckpt_store._DataSection, "_fill", interrupt)
        else:  # as the main thread sums chunk 0, while the helper reads the next chunk slowly
            step_sums = merge_module._step_sums

            def slow(lo):
                pieces.append(lo)
                time.sleep(0.2 if lo else 0.0)

            def interrupt(*args):
                if threading.current_thread() is not threading.main_thread():
                    return step_sums(*args)
                readers.append(True)
                raise KeyboardInterrupt
            before_each_fill(monkeypatch, slow)
            monkeypatch.setattr(merge_module, "_step_sums", interrupt)
        out = tmp_path / "out.st"
        code = main(["merge", *map(str, paths), "--strategy", "fisher",
                     "--fisher", *map(str, fisher_paths), "--out", str(out)])
        assert threading.active_count() == before  # joined, not just ending
        assert code == 130 and capsys.readouterr().err == "interrupted\n"
        assert not out.exists() and not list(tmp_path.glob("*.tmp"))
        assert readers == ([False] if where == "SIGINT to the helper" else [True])
        # told to stop, the helper reads no more than the piece it was reading
        assert pieces.count(0) <= 8 and len(pieces) <= pieces.count(0) + 1


@pytest.mark.parametrize("build, message", [
    (lambda: compute_schedule(0, 3, 0), "model count must be >= 1"),
    (lambda: compute_schedule(2, 0, 0), "shared layer count must be >= 1"),
    (lambda: compute_schedule(2, 3, 2), "anchor index 2 out of range for 2 models"),
    (lambda: MergeSchedule(2, 3, 0, 1, 0.0, np.full((3, 2), 0.5)),
     "weight matrix shape (3, 2) does not match (2, 3)"),
    (lambda: MergeSchedule(2, 3, 2, 1, 0.0, np.full((2, 3), 0.5)), "anchor index 2 out of range"),
], ids=["no models", "no layers", "anchor past the models", "table of the wrong shape",
        "anchor past the table"])
def test_schedule_refusal_messages(build, message):
    with pytest.raises(ScheduleError) as info:
        build()
    assert str(info.value) == message


def test_fisher_membership_and_length_read_nothing(tmp_path, monkeypatch):
    """``in`` and ``len`` of a file's Fisher tensors answer from its index:
    a tensor holding a negative value is neither read nor refused."""
    path = tmp_path / "f.st"
    save(Checkpoint.from_arrays({"a.weight": np.array([[1.0, -2.0]]), "a.bias": np.ones(3)}), path)
    with ckpt_store.open_file(path) as ckpt:
        tensors = FisherWeights.from_checkpoint(ckpt).tensors
        reads = counting_reads(monkeypatch)
        assert "a.weight" in tensors and "a.bias" in tensors
        assert "b.weight" not in tensors and "a" not in tensors
        assert len(tensors) == 2
        assert reads == []
        with pytest.raises(FisherInputError, match="negative Fisher values in 'a.weight'"):
            tensors["a.weight"]
        assert reads != []

import csv
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unittest import mock

from layermerge import Checkpoint, discrepancy_profile, emit_profile, load, save
from layermerge import checkpoint as ckpt_store
from layermerge import discrepancy as discrepancy_module
from layermerge.cli import main
from layermerge.discrepancy import DiscrepancyError

import _reference as ref
from conftest import clone_with_noise, counting_reads, data_section, make_checkpoint, write_layout


def rows_as_tuples(profile):
    return [(r.layer_index, r.kind, r.exceed_count, r.total_count) for r in profile.rows]


class TestProfile:
    def test_self_profile_is_zero(self, rng):
        ckpt = make_checkpoint([(3, 3), (2, 3)], rng)
        for tau in (0.5, 5.0, 1e6):
            profile = discrepancy_profile(ckpt, ckpt, tau)
            assert all(r.exceed_count == 0 for r in profile.rows)
            assert profile.total_fraction() == 0.0

    def test_hand_example(self):
        a = Checkpoint.from_arrays({"g.weight": np.array([1.0, -2.0])})
        b = Checkpoint.from_arrays({"g.weight": np.array([1.2, -2.0])})
        profile = discrepancy_profile(a, b, tau=10.0)
        # thresholds [0.1, 0.2], diffs [0.2, 0]: only the first flags
        assert rows_as_tuples(profile) == [(1, "weight", 1, 2)]
        assert profile.rows[0].fraction == 0.5

    def test_scaled_group_fully_flagged(self, rng):
        arrays = {
            "a.weight": rng.standard_normal((4, 4)) + 5.0,  # keep every element nonzero
            "b.weight": rng.standard_normal((3, 3)) + 5.0,
        }
        a = Checkpoint.from_arrays(arrays)
        tau = 7.0
        scaled = {k: (v * (1 + 2 / tau) if k == "a.weight" else v.copy()) for k, v in arrays.items()}
        b = Checkpoint.from_arrays(scaled)
        profile = discrepancy_profile(a, b, tau)
        by_group = {r.layer_index: r for r in profile.rows}
        assert by_group[1].exceed_count == by_group[1].total_count == 16
        assert by_group[2].exceed_count == 0

    def test_zero_reference_flags_any_nonzero_difference(self):
        a = Checkpoint.from_arrays({"g.weight": np.array([0.0, 0.0])})
        b = Checkpoint.from_arrays({"g.weight": np.array([0.0, 1e-300])})
        profile = discrepancy_profile(a, b, tau=2.0)
        assert profile.rows[0].exceed_count == 1  # identical zero is never flagged

    def test_rows_per_kind(self, rng):
        arrays = {
            "bn.weight": rng.standard_normal(3),
            "bn.bias": rng.standard_normal(3),
            "bn.running_mean": rng.standard_normal(3),
            "bn.running_var": rng.standard_normal(3) ** 2,
        }
        a = Checkpoint.from_arrays(arrays)
        b = clone_with_noise(a, rng)
        profile = discrepancy_profile(a, b, tau=3.0)
        assert [(r.layer_index, r.kind) for r in profile.rows] == [
            (1, "weight"), (1, "bias"), (1, "bn_mean"), (1, "bn_var"),
        ]

    def test_layer_norm_mode(self):
        a = Checkpoint.from_arrays({"g.weight": np.array([3.0, 4.0])})
        b = Checkpoint.from_arrays({"g.weight": np.array([3.0, 4.5])})
        # norm 5, n=2: per-element threshold 5 / (tau*sqrt(2))
        tau = 10.0 * np.sqrt(2.0)
        profile = discrepancy_profile(a, b, tau, mode="layer_norm")
        assert profile.rows[0].exceed_count == 1  # diff 0.5 >= 0.5

    @pytest.mark.parametrize("mode, x, y, tau, exceed", [
        ("elementwise", np.full((2, 2), 1e308), np.full((2, 2), -1e308), 1e-300, 0),
        ("layer_norm", np.full((2, 2), 1e308), np.full((2, 2), -1e308), 1e-300, 0),
        ("elementwise", np.array([1e308]), np.array([-1.7e308]), 0.3, 0),  # 2.7e308 < 3.33e308
        ("elementwise", np.array([1e308]), np.array([-1.7e308]), 0.5, 1),  # 2.7e308 >= 2e308
        ("layer_norm", np.array([1e308]), np.array([-1.7e308]), 0.3, 0),
        ("layer_norm", np.array([1e308]), np.array([-1.7e308]), 0.5, 1),
    ])
    def test_difference_and_threshold_both_past_the_float_range(self, mode, x, y, tau, exceed):
        # both overflow to inf, so the element is decided by halves; a slice
        # of ordinary values in the same batch keeps its count
        small = {"g0.weight": np.array([1.0, -2.0, 3.0])}
        a = Checkpoint.from_arrays({**small, "g1.weight": x})
        b = Checkpoint.from_arrays({"g0.weight": small["g0.weight"] * 1.5, "g1.weight": y})
        rows = rows_as_tuples(discrepancy_profile(a, b, tau, mode))
        alone = discrepancy_profile(Checkpoint.from_arrays(small),
                                    Checkpoint.from_arrays({"g0.weight": small["g0.weight"] * 1.5}),
                                    tau, mode)
        assert rows == [*rows_as_tuples(alone), (2, "weight", exceed, x.size)]

    def test_tau_validation(self, rng):
        ckpt = make_checkpoint([(2, 2)], rng)
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(DiscrepancyError, match="tau"):
                discrepancy_profile(ckpt, ckpt, bad)

    def test_non_finite_inputs_rejected(self, rng):
        a = make_checkpoint([(2, 2)], rng)
        arrays = {t.name: t.data.copy() for t in a.tensors}
        arrays["layer0.weight"][0, 0] = np.inf
        b = Checkpoint.from_arrays(arrays)
        with pytest.raises(DiscrepancyError, match="non-finite"):
            discrepancy_profile(a, b, 5.0)

    def test_unknown_mode_rejected(self, rng):
        ckpt = make_checkpoint([(2, 2)], rng)
        with pytest.raises(DiscrepancyError, match="mode"):
            discrepancy_profile(ckpt, ckpt, 5.0, mode="cosine")


class TestProfileProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31), st.sampled_from(["elementwise", "layer_norm"]))
    def test_counts_match_brute_force(self, seed, mode):
        rng = np.random.default_rng(seed)
        shapes = [(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
                  for _ in range(int(rng.integers(1, 4)))]
        a = make_checkpoint(shapes, rng)
        b = clone_with_noise(a, rng, scale=float(rng.random()))
        tau = float(rng.uniform(0.5, 50.0))
        profile = discrepancy_profile(a, b, tau, mode=mode)
        for row in profile.rows:
            group_names = [
                n for g in [g for g in self._groups(a) if g[0] == row.layer_index]
                for n in g[1] if n.endswith("." + {"weight": "weight", "bias": "bias"}[row.kind])
            ]
            a_flat = [float(v) for n in group_names for v in a.get(n).data.ravel()]
            b_flat = [float(v) for n in group_names for v in b.get(n).data.ravel()]
            assert row.exceed_count == ref.ref_discrepancy_counts(a_flat, b_flat, tau, mode)

    @staticmethod
    def _groups(ckpt):
        from layermerge import group_layers

        return [(g.index, g.names()) for g in group_layers(ckpt)]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31))
    def test_monotone_in_tau(self, seed):
        rng = np.random.default_rng(seed)
        a = make_checkpoint([(3, 3)], rng)
        b = clone_with_noise(a, rng)
        taus = sorted(float(t) for t in rng.uniform(0.1, 100.0, size=5))
        counts = [
            sum(r.exceed_count for r in discrepancy_profile(a, b, t).rows) for t in taus
        ]
        assert counts == sorted(counts)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31), st.sampled_from([0.25, 0.5, 2.0, 4.0, -2.0]))
    def test_scale_covariance(self, seed, c):
        rng = np.random.default_rng(seed)
        a = make_checkpoint([(3, 3), (2,)], rng)
        b = clone_with_noise(a, rng)
        scale = lambda ck: Checkpoint.from_arrays({t.name: c * t.data for t in ck.tensors})
        base = discrepancy_profile(a, b, 5.0)
        scaled = discrepancy_profile(scale(a), scale(b), 5.0)
        assert rows_as_tuples(base) == rows_as_tuples(scaled)


class TestBatchedProfile:
    """The batched profile against the slice-by-slice one it replaced."""

    KINDS = ("weight", "bias", "running_mean", "running_var", "num_batches_tracked")

    @staticmethod
    @st.composite
    def pairs(draw):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        a, b = {}, {}
        for g in range(draw(st.integers(1, 6))):
            for kind in draw(st.lists(st.sampled_from(TestBatchedProfile.KINDS),
                                      min_size=1, max_size=4, unique=True)):
                shape = draw(st.sampled_from([(), (0,), (1,), (3,), (2, 5), (4, 4)]))
                dtype = draw(st.sampled_from([np.float32, np.float64]))
                x = rng.standard_normal(shape).astype(dtype)
                change = draw(st.sampled_from(["same", "noise", "zero", "scale"]))
                y = {"same": x, "noise": x + 0.2 * rng.standard_normal(shape).astype(dtype),
                     "zero": np.zeros_like(x), "scale": x * dtype(1.3)}[change]
                a[f"g{g}.{kind}"], b[f"g{g}.{kind}"] = x, np.asarray(y, dtype)
        for _ in range(draw(st.integers(0, 2))):  # non-finite elements, in one slice or two
            x = draw(st.sampled_from([a, b]))
            candidates = sorted(n for n in x if x[n].size)
            if candidates:
                name = draw(st.sampled_from(candidates))
                x[name] = x[name].copy()
                x[name].reshape(-1)[-1] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        return Checkpoint.from_arrays(a), Checkpoint.from_arrays(b)

    @settings(max_examples=150, deadline=None)
    @given(pairs(), st.integers(1, 40), st.sampled_from(["elementwise", "layer_norm"]),
           st.sampled_from([0.5, 3.0, 10.0]))
    def test_equals_slice_by_slice_profile(self, pair, batch, mode, tau):
        a, b = pair
        try:
            expected = ref.ref_discrepancy_profile(a, b, tau, mode)
        except DiscrepancyError as exc:
            with mock.patch.object(discrepancy_module, "_BATCH", batch):
                with pytest.raises(DiscrepancyError) as got:
                    discrepancy_profile(a, b, tau, mode)
            assert str(got.value) == str(exc)
        else:
            with mock.patch.object(discrepancy_module, "_BATCH", batch):
                assert discrepancy_profile(a, b, tau, mode).rows == expected

    def test_large_slices_at_any_offset_of_a_batch(self, rng):
        # odd sizes put each slice at another alignment within a batch
        a = Checkpoint.from_arrays({f"g{i}.weight": rng.standard_normal(n) for i, n in
                                    enumerate([1, 4096, 3, 3500, 1000, 7, 4099, 1])})
        b = clone_with_noise(a, rng)
        for mode in ("elementwise", "layer_norm"):
            expected = ref.ref_discrepancy_profile(a, b, 4.0, mode)
            for batch in (1, 100, 5000, 1 << 20):
                with mock.patch.object(discrepancy_module, "_BATCH", batch):
                    assert discrepancy_profile(a, b, 4.0, mode).rows == expected


class TestStreamedProfile:
    """A profile of two checkpoints opened with ``open_file`` against the
    same profile of the loaded checkpoints."""

    @settings(max_examples=120, deadline=None)
    @given(TestBatchedProfile.pairs(), st.data(), st.sampled_from(["elementwise", "layer_norm"]))
    def test_equals_profile_of_loaded_checkpoints(self, tmp_path_factory, pair, data, mode):
        tmp = tmp_path_factory.mktemp("profile")
        paths = []
        for stem, ckpt in zip("ab", pair):  # each file in its own order, unlike its header's
            arrays = ckpt.arrays()
            order = data.draw(st.permutations(list(arrays)), label=f"{stem} file order")
            paths.append(tmp / f"{stem}.st")
            write_layout(paths[-1], arrays, order, [0] * len(order))
        window = data.draw(st.sampled_from([16, 64, 1 << 18]), label="run bytes")
        batch = data.draw(st.integers(1, 40), label="batch")
        with mock.patch.object(ckpt_store, "_RUN_BYTES", window), \
                mock.patch.object(discrepancy_module, "_BATCH", batch):
            loaded = [load(p) for p in paths]
            try:
                expected = discrepancy_profile(*loaded, 3.0, mode)
            except DiscrepancyError as exc:
                with ckpt_store.open_file(paths[0]) as a, ckpt_store.open_file(paths[1]) as b:
                    with pytest.raises(DiscrepancyError) as got:
                        discrepancy_profile(a, b, 3.0, mode)
                assert str(got.value) == str(exc)
            else:
                with ckpt_store.open_file(paths[0]) as a, ckpt_store.open_file(paths[1]) as b:
                    assert discrepancy_profile(a, b, 3.0, mode) == expected

    def test_mini_pool_read_once_in_runs_without_records(self, tmp_path, rng, monkeypatch):
        # groups of a weight, a bias and batch-norm statistics, then a head
        # whose shape differs between the models, so it is not compared
        paths = []
        for i in range(2):
            arrays = {}
            for k in range(60):
                arrays[f"blocks.{k}.weight"] = rng.standard_normal((8, 8)).astype(np.float32)
                for kind in ("bias", "running_mean", "running_var"):
                    arrays[f"blocks.{k}.{kind}"] = rng.standard_normal(8).astype(np.float32)
            arrays["head.weight"] = rng.standard_normal((10 + i, 8)).astype(np.float32)
            paths.append(tmp_path / f"m{i}.st")
            save(Checkpoint.from_arrays(arrays), paths[-1])
        monkeypatch.setattr(ckpt_store, "_RUN_BYTES", 4096)
        records = []
        post_init = ckpt_store.TensorRecord.__post_init__

        def counted(self):
            records.append(self.name)
            post_init(self)

        monkeypatch.setattr(ckpt_store.TensorRecord, "__post_init__", counted)
        reads = counting_reads(monkeypatch)
        assert main(["profile", *map(str, paths), "--tau", "4", "--out", str(tmp_path / "p.csv")]) == 0
        assert records == []
        for classes, path in enumerate(paths, 10):
            start, end = data_section(path)
            head = end - classes * 8 * 4
            spans = sorted((offset, offset + n) for i, offset, n in reads
                           if i == path.stat().st_ino)
            # the shared tensors' bytes once, in order (the head's only when
            # they are read with the run it ends)
            assert spans[0][0] == start and spans[-1][1] in (head, end)
            assert all(x[1] == y[0] for x, y in zip(spans, spans[1:]))
            assert len(spans) <= ref.ref_read_units(path, 4096)


class TestProfileMemory:
    @pytest.mark.parametrize("mode", ["elementwise", "layer_norm"])
    def test_peak_is_at_most_three_float64_copies_of_the_slice(self, tmp_path, rng, mode):
        # one F32 slice, larger than a batch: its read, the two float64
        # copies and the boolean masks, and no float64 array besides
        n = 1 << 18
        paths = [tmp_path / "a.st", tmp_path / "b.st"]
        for path in paths:
            x = rng.standard_normal(n).astype(np.float32)
            save(Checkpoint.from_arrays({"layer.weight": x}), path)
        with ckpt_store.open_file(paths[0]) as a, ckpt_store.open_file(paths[1]) as b:
            tracemalloc.start()
            try:
                profile = discrepancy_profile(a, b, 3.0, mode)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert profile.rows[0].total_count == n
        assert peak <= 3 * 8 * n


class TestEmitProfile:
    def sample_profile(self, rng):
        a = make_checkpoint([(3, 3), (2, 3)], rng)
        return discrepancy_profile(a, clone_with_noise(a, rng), tau=5.0)

    def test_empty_profile_header_only(self):
        from layermerge.discrepancy import DiscrepancyProfile

        payload = emit_profile(DiscrepancyProfile(5.0, "elementwise", ()), "csv")
        assert payload.decode() == "layer_index,kind,exceed_count,total_count,fraction\n"

    def test_single_row_format(self):
        from layermerge.discrepancy import DiscrepancyProfile, ProfileRow

        profile = DiscrepancyProfile(5.0, "elementwise", (ProfileRow(1, "weight", 3, 10),))
        lines = emit_profile(profile, "csv").decode().splitlines()
        assert lines[1] == "1,weight,3,10,0.3"
        assert emit_profile(profile, "json") == (
            b'{\n  "tau": 5.0,\n  "mode": "elementwise",\n  "rows": [\n    {\n'
            b'      "layer_index": 1,\n      "kind": "weight",\n'
            b'      "exceed_count": 3,\n      "total_count": 10,\n'
            b'      "fraction": 0.3\n    }\n  ]\n}\n'
        )

    def test_csv_and_json_encode_same_rows(self, rng):
        profile = self.sample_profile(rng)
        reader = csv.DictReader(io.StringIO(emit_profile(profile, "csv").decode()))
        csv_rows = {
            (int(r["layer_index"]), r["kind"], int(r["exceed_count"]), int(r["total_count"]))
            for r in reader
        }
        payload = json.loads(emit_profile(profile, "json"))
        json_rows = {
            (r["layer_index"], r["kind"], r["exceed_count"], r["total_count"])
            for r in payload["rows"]
        }
        assert csv_rows == json_rows
        assert payload["tau"] == 5.0

    def test_row_order_stable(self, rng):
        profile = self.sample_profile(rng)
        indices = [(r.layer_index, r.kind) for r in profile.rows]
        kind_rank = {"weight": 0, "bias": 1, "bn_mean": 2, "bn_var": 3, "other": 4}
        assert indices == sorted(indices, key=lambda t: (t[0], kind_rank[t[1]]))


@pytest.mark.parametrize("render, message", [
    (lambda profile: emit_profile(profile, format="xml"),
     "unknown format 'xml', expected 'csv' or 'json'"),
], ids=["unknown format"])
def test_refusal_messages(rng, render, message):
    ckpt = make_checkpoint([(2, 2)], rng)
    with pytest.raises(DiscrepancyError) as info:
        render(discrepancy_profile(ckpt, ckpt, 1.0))
    assert str(info.value) == message

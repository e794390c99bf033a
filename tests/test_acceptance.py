"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test is tagged with a ``criterion`` marker; a conftest hook prints one
pass/fail line per criterion as the suite runs.
"""

import json
import struct
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from layermerge import (
    Checkpoint,
    CheckpointFormatError,
    FisherWeights,
    MergeSchedule,
    ShapeConflictError,
    TensorRecord,
    compute_schedule,
    discrepancy_profile,
    fisher_merge,
    isotropic_merge,
    layerwise_merge,
    load,
    save,
    scalar_weighted_merge,
    shared_parameters,
)
from layermerge.toy import ExperimentConfig, ToyModel, evaluate, make_domain_pair, run_experiment
from layermerge.toy.training import TrainConfig, train

import _reference as ref
from conftest import as_flat_dicts, clone_with_noise, make_checkpoint, random_pool
from test_toy_harness import fisher_vs_finite_differences

DATA_DIR = Path(__file__).parent / "data"


@pytest.mark.criterion(1, "schedule algebra over M in 1..5, layers in 1..64")
def test_c01_schedule_algebra():
    started = time.perf_counter()
    for m in range(1, 6):
        for layers in range(1, 65):
            s = compute_schedule(m, layers, anchor=0)
            col_sums = s.weights.sum(axis=0)
            assert np.all(np.abs(col_sums - 1.0) <= 1e-12)
            assert np.all(s.weights >= 0.0)
            for i in range(1, m):
                assert s.weights[i, layers - 1] == 0.0
                assert s.exact_weights[i][layers - 1] == 0
                for j in range(1, layers + 1):
                    gap = s.exact_weights[0][j - 1] - s.exact_weights[i][j - 1]
                    assert gap == Fraction(j, layers)
                    float_gap = s.weights[0, j - 1] - s.weights[i, j - 1]
                    assert abs(float_gap - j / layers) <= 4e-16
    assert time.perf_counter() - started < 1.0


@pytest.mark.criterion(2, "concrete schedule vector for M=2, 4 shared layers")
def test_c02_concrete_schedule_vector():
    s = compute_schedule(2, 4, anchor=0)
    assert s.weights[1].tolist() == [0.375, 0.25, 0.125, 0.0]


@pytest.mark.criterion(3, "idempotence: merging copies returns the input")
def test_c03_idempotence():
    rng = np.random.default_rng(31)
    base = make_checkpoint([(11, 7), (5, 11), (3, 5)], rng)
    for m in (2, 3, 5):
        pool = [base] * m
        alignment = shared_parameters(pool, 0)
        schedule = compute_schedule(m, alignment.n_shared_layers, 0)
        fishers = [
            FisherWeights({t.name: rng.random(t.shape) for t in base.tensors})
            for _ in range(m)
        ]
        merges = {
            "layerwise": layerwise_merge(pool, 0, schedule, alignment),
            "isotropic": isotropic_merge(pool, alignment),
            "scalar": scalar_weighted_merge(pool, list(1.0 + rng.random(m)), alignment),
            "fisher": fisher_merge(pool, fishers, alignment),
        }
        for strategy, merged in merges.items():
            for t in base.tensors:
                diff = np.max(np.abs(merged.get(t.name).data - t.data))
                assert diff <= 1e-12, (strategy, t.name, diff)


@pytest.mark.criterion(4, "oracle equivalence against the naive scalar-loop reference")
def test_c04_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    pools = 0
    worst = 0.0
    while pools < 100:
        pool, groups = random_pool(rng, max_groups=10, max_elements=64)
        pools += 1
        worst = max(worst, _engine_vs_reference(pool, groups, rng))
    # a few pools at the size bound: one tensor of 10^4 elements
    for _ in range(3):
        shapes = [(100, 100)]
        pool = [make_checkpoint(shapes, rng) for _ in range(int(rng.integers(2, 6)))]
        groups = [["layer0.weight", "layer0.bias"]]
        pools += 1
        worst = max(worst, _engine_vs_reference(pool, groups, rng))
    elapsed = time.perf_counter() - started
    assert pools >= 100 and worst <= 1e-12 and elapsed < 30.0


def _engine_vs_reference(pool, groups, rng):
    m = len(pool)
    alignment = shared_parameters(pool, 0)
    flat = as_flat_dicts(pool)
    names = [n for g in groups for n in g]
    schedule = compute_schedule(m, alignment.n_shared_layers, 0)
    scores = [float(s) for s in 1.0 + rng.random(m)]
    fishers = [
        FisherWeights({t.name: rng.random(t.shape) for t in c.tensors}) for c in pool
    ]
    flat_fishers = [
        {k: [float(x) for x in v.ravel()] for k, v in f.tensors.items()} for f in fishers
    ]
    outputs = {
        "layerwise": (
            layerwise_merge(pool, 0, schedule, alignment),
            ref.ref_layerwise(
                flat, 0,
                [list(schedule.weights[:, j]) for j in range(schedule.layer_count)],
                groups, names,
            ),
        ),
        "isotropic": (isotropic_merge(pool, alignment), ref.ref_mean(flat, names)),
        "scalar": (
            scalar_weighted_merge(pool, scores, alignment),
            ref.ref_scalar(flat, scores, names),
        ),
        "fisher": (
            fisher_merge(pool, fishers, alignment),
            ref.ref_fisher(flat, flat_fishers, names),
        ),
    }
    worst = 0.0
    for engine, reference in outputs.values():
        for name in names:
            got = engine.get(name).data.ravel()
            expected = np.asarray(reference[name])
            worst = max(worst, float(np.max(np.abs(got - expected))))
    return worst


@pytest.mark.criterion(5, "strategy degeneracies collapse to isotropic")
def test_c05_strategy_degeneracies():
    rng = np.random.default_rng(55)
    pool = [make_checkpoint([(6, 4), (3, 6)], rng) for _ in range(3)]
    alignment = shared_parameters(pool, 0)
    iso = isotropic_merge(pool, alignment)

    constant_fisher = [
        FisherWeights({t.name: np.full(t.shape, 2.5) for t in c.tensors}) for c in pool
    ]
    fm = fisher_merge(pool, constant_fisher, alignment)
    layers = alignment.n_shared_layers
    lw = layerwise_merge(
        pool, 0, MergeSchedule(3, layers, 0, layers, 1 / 3, np.full((3, layers), 1 / 3)), alignment
    )
    sw = scalar_weighted_merge(pool, [46.9, 46.9, 46.9], alignment)
    for t in iso.tensors:
        assert np.max(np.abs(fm.get(t.name).data - t.data)) <= 1e-12
        assert np.max(np.abs(lw.get(t.name).data - t.data)) <= 1e-12
        assert np.array_equal(sw.get(t.name).data, t.data)  # exact


@pytest.mark.criterion(6, "cross-head merging keeps the anchor head; isotropic rejects")
def test_c06_cross_head_merging():
    rng = np.random.default_rng(66)
    backbone_a = {f"bb.{i}.weight": rng.standard_normal((8, 8)) for i in range(3)}
    backbone_b = {name: arr + 0.1 * rng.standard_normal(arr.shape)
                  for name, arr in backbone_a.items()}
    anchor = Checkpoint.from_arrays({**backbone_a, "head.weight": rng.standard_normal((19, 8))})
    donor = Checkpoint.from_arrays({**backbone_b, "head.weight": rng.standard_normal((16, 8))})

    alignment = shared_parameters([anchor, donor], 0)
    schedule = compute_schedule(2, alignment.n_shared_layers, 0)
    merged = layerwise_merge([anchor, donor], 0, schedule, alignment)

    merged.validate()
    assert merged.get("head.weight").shape == (19, 8)
    assert np.array_equal(merged.get("head.weight").data, anchor.get("head.weight").data)
    merged_bb = np.concatenate([merged.get(n).data.ravel() for n in backbone_a])
    for other in (anchor, donor):
        other_bb = np.concatenate([other.get(n).data.ravel() for n in backbone_a])
        assert not np.array_equal(merged_bb, other_bb)

    with pytest.raises(ShapeConflictError, match="head.weight"):
        isotropic_merge([anchor, donor], alignment)


@pytest.mark.criterion(7, "discrepancy profiler counts, brute force and monotonicity")
def test_c07_discrepancy_profiler():
    rng = np.random.default_rng(77)
    ckpt = make_checkpoint([(5, 5), (4, 5)], rng)
    for tau in (0.5, 3.0, 100.0):
        assert all(r.exceed_count == 0 for r in discrepancy_profile(ckpt, ckpt, tau).rows)

    tau = 9.0
    arrays = {t.name: t.data + 3.0 for t in ckpt.tensors}  # keep elements away from 0
    a = Checkpoint.from_arrays(arrays)
    scaled = {
        name: arr * (1 + 2 / tau) if name.startswith("layer1.") else arr.copy()
        for name, arr in arrays.items()
    }
    b = Checkpoint.from_arrays(scaled)
    profile = discrepancy_profile(a, b, tau)
    for row in profile.rows:
        if row.layer_index == 2:
            assert row.exceed_count == row.total_count
        else:
            assert row.exceed_count == 0

    for trial in range(100):
        shapes = [(int(rng.integers(1, 6)), int(rng.integers(1, 6)))]
        x = make_checkpoint(shapes, rng)
        y = clone_with_noise(x, rng, scale=float(rng.random()))
        t = float(rng.uniform(0.5, 40.0))
        mode = ("elementwise", "layer_norm")[trial % 2]
        prof = discrepancy_profile(x, y, t, mode=mode)
        for row in prof.rows:
            suffix = ".weight" if row.kind == "weight" else ".bias"
            names = [n for n in x.names() if n.endswith(suffix)]
            a_flat = [float(v) for n in names for v in x.get(n).data.ravel()]
            b_flat = [float(v) for n in names for v in y.get(n).data.ravel()]
            assert row.exceed_count == ref.ref_discrepancy_counts(a_flat, b_flat, t, mode)

    base = make_checkpoint([(6, 6)], rng)
    other = clone_with_noise(base, rng)
    taus = [0.2, 1.0, 5.0, 25.0, 125.0]
    counts = [
        sum(r.exceed_count for r in discrepancy_profile(base, other, t).rows) for t in taus
    ]
    assert counts == sorted(counts)


@pytest.mark.criterion(8, "fisher estimator matches central finite differences")
def test_c08_fisher_finite_difference_oracle():
    analytic, fd, kept = fisher_vs_finite_differences(seed=8, n_samples=50, h=1e-5)
    assert kept > 0
    for name in fd:
        denom = np.maximum(np.abs(fd[name]), 1e-12)
        rel = np.abs(analytic[name] - fd[name]) / denom
        assert rel.max() <= 1e-4, (name, rel.max())


@pytest.mark.criterion(9, "inference cost: merged stays O(1), ensemble scales with M")
def test_c09_inference_cost_contract(monkeypatch):
    # Stated in counts, not wall time, which moves with the box's load: the
    # merged model has one model's size and takes one forward pass over the
    # evaluation set, where the ensemble of M models takes M.
    started = time.perf_counter()
    n, m = 10_000, 5
    src, _ = make_domain_pair(9, 300, 3)
    eval_set, _ = make_domain_pair(1009, n, 3)
    results = train([ToyModel.init([2, 16, 16, 3], seed=9)] * m, [src] * m,
                    [TrainConfig(epochs=10, seed=9 + i) for i in range(m)])
    models = [r.model for r in results]
    pool = [mm.to_checkpoint({"model_id": str(i)}) for i, mm in enumerate(models)]
    alignment = shared_parameters(pool, 0)
    schedule = compute_schedule(m, alignment.n_shared_layers, 0)
    merged = ToyModel.from_checkpoint(layerwise_merge(pool, 0, schedule, alignment))
    assert merged.layer_sizes == models[0].layer_sizes
    assert merged.params.size == models[0].params.size

    forward = ToyModel.forward_trace

    def passes(run):
        """The (model, row count) of each forward pass ``run`` makes."""
        seen = []

        def counted(model, x):
            seen.append((id(model), len(x)))
            return forward(model, x)
        with monkeypatch.context() as patch:
            patch.setattr(ToyModel, "forward_trace", counted)
            run()
        return seen

    assert passes(lambda: evaluate(merged, eval_set)) == [(id(merged), n)]
    assert passes(lambda: evaluate(models, eval_set, ensemble=True)) == [(id(mm), n) for mm in models]
    assert time.perf_counter() - started < 10.0


@pytest.mark.criterion(10, "pre-registered 10-seed sweep reproduces bit-exactly")
def test_c10_preregistered_sweep_oracle():
    payload = json.loads((DATA_DIR / "preregistered_sweep.json").read_text())
    assert len(payload["seeds"]) == 10
    wins = 0
    for seed in payload["seeds"]:
        entry = payload["results"][str(seed)]
        cfg = ExperimentConfig.from_dict(entry["config"])
        report = run_experiment(cfg)
        # bit-exact reproduction of every recorded accuracy and loss
        assert report["models"] == entry["models"]
        assert report["merges"] == entry["merges"]
        accs = {r["strategy"]: r["source_accuracy"] for r in entry["merges"]}
        wins += accs["layerwise"] >= accs["isotropic"]
    assert wins > len(payload["seeds"]) / 2


@pytest.mark.criterion(11, "serialization: 1000 round-trips and corrupted headers")
def test_c11_serialization(tmp_path):
    rng = np.random.default_rng(11)
    path = tmp_path / "roundtrip.st"
    for trial in range(1000):
        n_tensors = int(rng.integers(1, 4))
        arrays = {}
        for i in range(n_tensors):
            shape = tuple(int(d) for d in rng.integers(0, 4, size=int(rng.integers(0, 3))))
            dtype = np.float32 if rng.integers(2) else np.float64
            arrays[f"t{trial}.{i}"] = rng.standard_normal(shape).astype(dtype)
        metadata = {"model_id": f"m{trial}", "performance": repr(float(rng.random()))}
        ckpt = Checkpoint.from_arrays(arrays, metadata)
        save(ckpt, path)
        loaded = load(path)
        assert loaded.metadata == metadata
        assert loaded.names() == ckpt.names()
        for t in ckpt.tensors:
            got = loaded.get(t.name)
            assert got.dtype == t.dtype and got.shape == t.shape
            assert np.array_equal(got.data, t.data)

    good = tmp_path / "good.st"
    save(make_checkpoint([(3, 3)], rng), good)
    raw = good.read_bytes()
    (header_len,) = struct.unpack("<Q", raw[:8])

    truncated = tmp_path / "truncated.st"
    truncated.write_bytes(raw[: 8 + header_len // 2])
    with pytest.raises(CheckpointFormatError):
        load(truncated)

    def corrupt(mutate, name):
        header = json.loads(raw[8 : 8 + header_len].decode())
        mutate(header)
        blob = json.dumps(header, separators=(",", ":")).encode()
        p = tmp_path / name
        p.write_bytes(struct.pack("<Q", len(blob)) + blob + raw[8 + header_len :])
        with pytest.raises(CheckpointFormatError):
            load(p)

    corrupt(lambda h: h["tensors"]["layer0.weight"].update(offsets=[0, 10**6]), "oob.st")
    corrupt(
        lambda h: h["tensors"]["layer0.bias"].update(
            offsets=[0, h["tensors"]["layer0.bias"]["offsets"][1]
                     - h["tensors"]["layer0.bias"]["offsets"][0]]
        ),
        "overlap.st",
    )
    corrupt(lambda h: h["tensors"]["layer0.weight"].update(dtype="I4"), "dtype.st")

    # a failed save never leaves bytes behind
    bad = Checkpoint([TensorRecord("dup", np.zeros(1)), TensorRecord("dup", np.ones(1))])
    target = tmp_path / "never.st"
    with pytest.raises(Exception):
        save(bad, target)
    assert not target.exists()

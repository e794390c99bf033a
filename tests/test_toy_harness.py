from pathlib import Path

import numpy as np
import pytest

import layermerge.toy.experiment as experiment
from layermerge import isotropic_merge
from layermerge.toy import (
    DomainShift,
    ExperimentConfig,
    ToyModel,
    TrainConfig,
    estimate_fisher,
    evaluate,
    make_domain_pair,
    render_report,
    run_experiment,
    train,
)
from layermerge.toy.data import ToyDataset
from layermerge.toy.training import TrainingDivergedError, snapshot_epochs


class TestDomainPair:
    def test_null_shift_same_distribution_different_samples(self):
        src, tgt = make_domain_pair(3, 300, 3, DomainShift())
        assert not np.array_equal(src.inputs, tgt.inputs)
        # identical class geometry: per-class means agree closely
        for c in range(3):
            np.testing.assert_allclose(
                src.inputs[src.labels == c].mean(axis=0),
                tgt.inputs[tgt.labels == c].mean(axis=0),
                atol=0.15,
            )

    def test_determinism(self):
        shift = DomainShift(0.7, (1.0, -2.0))
        a = make_domain_pair(11, 120, 4, shift)
        b = make_domain_pair(11, 120, 4, shift)
        for x, y in zip(a, b):
            assert np.array_equal(x.inputs, y.inputs)
            assert np.array_equal(x.labels, y.labels)

    def test_round_robin_class_counts(self):
        src, _ = make_domain_pair(0, 300, 3)
        assert np.bincount(src.labels).tolist() == [100, 100, 100]

    def test_shift_moves_the_cloud(self):
        _, tgt = make_domain_pair(5, 300, 3, DomainShift(0.0, (10.0, 0.0)))
        assert tgt.inputs[:, 0].mean() > 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            make_domain_pair(0, 1, 3)
        with pytest.raises(ValueError):
            make_domain_pair(0, 10, 1)
        with pytest.raises(ValueError):
            ToyDataset(np.zeros((3, 2)), np.zeros(3, dtype=int), 2, 0, DomainShift())


class TestToyModel:
    def test_checkpoint_round_trip(self):
        model = ToyModel.init([2, 8, 3], seed=1)
        restored = ToyModel.from_checkpoint(model.to_checkpoint())
        for w1, w2 in zip(model.weights, restored.weights):
            assert np.array_equal(w1, w2)

    def test_checkpoint_schema_validated(self):
        from layermerge import Checkpoint

        bad = Checkpoint.from_arrays({"l0.weight": np.zeros((3, 2))})
        with pytest.raises(ValueError, match="weight and bias"):
            ToyModel.from_checkpoint(bad)

    def test_softmax_rows_normalized(self):
        model = ToyModel.init([2, 16, 16, 3], seed=2)
        x = np.random.default_rng(0).standard_normal((257, 2)) * 50
        p = model.predict_proba(x)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(p >= 0)

    def test_shape_composition_checked(self):
        with pytest.raises(ValueError, match="inputs"):
            ToyModel([np.zeros((4, 2)), np.zeros((3, 5))], [np.zeros(4), np.zeros(3)])

    def test_gradients_match_finite_differences(self):
        model = ToyModel.init([2, 5, 3], seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20, 2))
        y = rng.integers(0, 3, size=20)
        _, grads_w, grads_b = model.loss_and_grads(x, y)
        h = 1e-6
        for li in range(model.depth):
            w = model.weights[li]
            for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                orig = w[idx]
                w[idx] = orig + h
                up = model.loss(x, y)
                w[idx] = orig - h
                down = model.loss(x, y)
                w[idx] = orig
                assert grads_w[li][idx] == pytest.approx((up - down) / (2 * h), abs=1e-4)


class TestEvaluate:
    def test_ensemble_of_identical_models_matches_single(self):
        src, _ = make_domain_pair(7, 300, 3)
        model = train(ToyModel.init([2, 8, 3], seed=7), src, TrainConfig(epochs=30, seed=7)).model
        single = evaluate(model, src)
        assert evaluate([model] * 4, src, ensemble=True) == single

    def test_constant_logits_tie_break_to_class_zero(self):
        src, _ = make_domain_pair(9, 300, 3)
        zero = ToyModel([np.zeros((8, 2)), np.zeros((3, 8))], [np.zeros(8), np.zeros(3)])
        assert evaluate(zero, src) == np.mean(src.labels == 0)

    def test_dim_mismatch_rejected(self):
        src, _ = make_domain_pair(7, 30, 3)
        model = ToyModel.init([3, 4, 3], seed=0)
        with pytest.raises(ValueError, match="dimensional"):
            evaluate(model, src)

    @pytest.mark.parametrize("ensemble", [False, True])
    def test_class_count_mismatch_rejected(self, ensemble):
        data = make_domain_pair(1, 40, 4)[0]
        fits, wrong = ToyModel.init([2, 8, 4], 0), ToyModel.init([2, 8, 3], 0)
        models = [fits, wrong] if ensemble else wrong  # every ensemble member is checked
        with pytest.raises(ValueError, match="^model output size 3 does not match the class count 4$"):
            evaluate(models, data, ensemble=ensemble)


class TestTrain:
    def test_zero_epochs_identity(self):
        src, _ = make_domain_pair(7, 60, 3)
        model = ToyModel.init([2, 4, 3], seed=0)
        result = train(model, src, TrainConfig(epochs=0, seed=0))
        for w1, w2 in zip(model.weights, result.model.weights):
            assert np.array_equal(w1, w2)

    def test_deterministic(self):
        src, _ = make_domain_pair(7, 120, 3)
        cfg = TrainConfig(epochs=15, seed=5)
        a = train(ToyModel.init([2, 8, 3], seed=5), src, cfg)
        b = train(ToyModel.init([2, 8, 3], seed=5), src, cfg)
        assert a.final_loss == b.final_loss
        for w1, w2 in zip(a.model.weights, b.model.weights):
            assert np.array_equal(w1, w2)

    def test_input_model_untouched(self):
        src, _ = make_domain_pair(7, 60, 3)
        model = ToyModel.init([2, 4, 3], seed=0)
        before = [w.copy() for w in model.weights]
        train(model, src, TrainConfig(epochs=3, seed=0))
        for w1, w2 in zip(before, model.weights):
            assert np.array_equal(w1, w2)

    def test_default_config_regression(self):
        # frozen desk-scale baseline: 2-16-16-3 net, lr 0.05, 200 epochs, n=600
        src, _ = make_domain_pair(7, 600, 3)
        model = ToyModel.init([2, 16, 16, 3], seed=7)
        initial = model.loss(src.inputs, src.labels)
        result = train(model, src, TrainConfig(learning_rate=0.05, epochs=200, seed=7))
        assert result.final_loss < initial
        assert evaluate(result.model, src) >= 0.9

    def test_snapshots_evenly_spaced_final_is_anchor(self):
        src, _ = make_domain_pair(7, 120, 3)
        result = train(ToyModel.init([2, 4, 3], seed=1), src,
                       TrainConfig(epochs=20, seed=1), snapshot_count=4)
        epochs = [epoch for epoch, _ in result.snapshots]
        assert epochs == [5, 10, 15, 20]
        final = result.snapshots[-1][1]
        for w1, w2 in zip(final.weights, result.model.weights):
            assert np.array_equal(w1, w2)

    def test_each_snapshot_equals_a_run_stopped_at_its_epoch(self):
        src, _ = make_domain_pair(7, 120, 3)
        init = ToyModel.init([2, 4, 3], seed=1)
        result = train(init, src, TrainConfig(epochs=20, seed=1), snapshot_count=4)
        for epoch, snapshot in result.snapshots:
            stopped = train(init, src, TrainConfig(epochs=epoch, seed=1)).model
            for a, b in zip(snapshot.weights + snapshot.biases, stopped.weights + stopped.biases):
                assert np.array_equal(a, b), epoch

    def test_snapshot_epochs_rounding(self):
        assert snapshot_epochs(10, 4) == [2, 5, 8, 10]
        assert snapshot_epochs(4, 4) == [1, 2, 3, 4]
        assert snapshot_epochs(3, 4) == [1, 2, 3]  # duplicates collapse

    def test_divergence_reports_epoch(self):
        src, _ = make_domain_pair(7, 120, 3)
        cfg = TrainConfig(learning_rate=1e4, epochs=50, seed=1)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train(ToyModel.init([2, 8, 3], seed=1), src, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


class TestEstimateFisher:
    @pytest.mark.parametrize("classes", [2, 4])
    def test_class_count_must_match_head(self, classes):
        data, _ = make_domain_pair(3, 90, classes)
        with pytest.raises(ValueError, match="class count"):
            estimate_fisher(ToyModel.init([2, 8, 3], seed=3), data)

    def test_non_negative_everywhere(self):
        src, _ = make_domain_pair(3, 90, 3)
        model = ToyModel.init([2, 8, 3], seed=3)
        fisher = estimate_fisher(model, src)
        for arr in fisher.tensors.values():
            assert np.all(arr >= 0)

    def test_deterministic(self):
        src, _ = make_domain_pair(3, 90, 3)
        model = ToyModel.init([2, 8, 3], seed=3)
        a = estimate_fisher(model, src)
        b = estimate_fisher(model, src)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])

    def test_dead_unit_has_zero_fisher(self):
        src, _ = make_domain_pair(3, 90, 3)
        model = ToyModel.init([2, 8, 3], seed=3)
        # force hidden unit 0 dead: hugely negative bias, so it never fires
        model.biases[0][0] = -1e6
        fisher = estimate_fisher(model, src)
        assert np.all(fisher.tensors["l0.weight"][0] == 0.0)
        assert fisher.tensors["l0.bias"][0] == 0.0

    def test_matches_finite_difference_oracle(self):
        fisher, fd, kept = fisher_vs_finite_differences(seed=12)
        assert kept >= 40  # almost no kink-adjacent samples on random data
        for name in fd:
            a, b = fisher[name], fd[name]
            denom = np.maximum(np.abs(b), 1e-12)
            rel = np.abs(a - b) / denom
            assert rel.max() <= 1e-4


def fisher_vs_finite_differences(seed, n_samples=50, h=1e-5, kink_margin=1e-3):
    """Analytic squared-gradient means vs central differences on a 2-8-3 net.

    Samples with any hidden pre-activation within ``kink_margin`` of zero are
    dropped from both estimates: the rectifier is not differentiable there.
    Returns (analytic dict, finite-difference dict, retained sample count).
    """
    src, _ = make_domain_pair(seed, n_samples, 3)
    model = ToyModel.init([2, 8, 3], seed=seed)
    _, preacts = model.forward_trace(src.inputs)
    hidden = np.abs(preacts[0])
    keep = hidden.min(axis=1) > kink_margin
    data = ToyDataset(src.inputs[keep], src.labels[keep], 3, src.seed, src.shift)

    analytic = dict(estimate_fisher(model, data).tensors)

    def per_sample_nll(m):
        p = m.predict_proba(data.inputs)
        return -np.log(p[np.arange(data.size), data.labels])

    fd = {}
    for li in range(model.depth):
        for attr, name in ((model.weights, f"l{li}.weight"), (model.biases, f"l{li}.bias")):
            param = attr[li]
            out = np.zeros(param.shape)
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + h
                up = per_sample_nll(model)
                param[idx] = orig - h
                down = per_sample_nll(model)
                param[idx] = orig
                grads = (up - down) / (2 * h)
                out[idx] = np.mean(grads**2)
            fd[name] = out
    return analytic, fd, int(keep.sum())


class TestExperiment:
    def base_config(self, **overrides):
        defaults = dict(
            seed=3,
            train_samples=150,
            eval_samples=300,
            epochs=25,
            hidden=(8,),
            donor_seeds=(401,),
            shift_rotation=0.8,
            shift_translation=(0.5, -0.2),
        )
        defaults.update(overrides)
        return ExperimentConfig(**defaults)

    def test_deterministic_report_bytes(self):
        cfg = self.base_config()
        assert render_report(run_experiment(cfg)) == render_report(run_experiment(cfg))

    def test_donor_equals_anchor_all_strategies_match(self):
        cfg = self.base_config(donor_seeds=(3,), donor_domain="source",
                               shift_rotation=0.0, shift_translation=(0.0, 0.0))
        report = run_experiment(cfg)
        anchor_acc = report["models"][0]["source_accuracy"]
        for row in report["merges"]:
            assert row["source_accuracy"] == anchor_acc

    def test_report_has_row_per_strategy_and_model(self):
        cfg = self.base_config()
        report = run_experiment(cfg)
        assert [r["strategy"] for r in report["merges"]] == list(cfg.strategies)
        assert len(report["models"]) == 1 + len(cfg.donor_seeds)
        for row in report["merges"] + report["models"]:
            assert 0.0 <= row["source_accuracy"] <= 1.0
            assert 0.0 <= row["target_accuracy"] <= 1.0

    def test_checkpoints_mode_incremental_rows(self):
        cfg = self.base_config(mode="checkpoints", checkpoint_count=4,
                               strategies=("layerwise", "isotropic"))
        report = run_experiment(cfg)
        counts = [(r["checkpoints"], r["strategy"]) for r in report["merges"]]
        assert counts == [(m, s) for m in (1, 2, 3, 4) for s in ("layerwise", "isotropic")]
        baseline = report["models"][0]["source_accuracy"]
        for row in report["merges"]:
            if row["checkpoints"] == 1:
                assert row["source_accuracy"] == baseline

    def test_checkpoints_mode_pool_holds_distinct_snapshots(self, monkeypatch):
        pools = []

        def recording_merge(ckpts, alignment):
            pools.append(ckpts)
            return isotropic_merge(ckpts, alignment)

        monkeypatch.setattr(experiment, "isotropic_merge", recording_merge)
        run_experiment(self.base_config(mode="checkpoints", checkpoint_count=4,
                                        strategies=("isotropic",)))
        pool = pools[-1]
        assert len(pool) == 4
        for i, a in enumerate(pool):
            for b in pool[i + 1:]:
                assert any(not np.array_equal(x, y)
                           for x, y in zip(a.arrays().values(), b.arrays().values()))

    @pytest.mark.parametrize("name, pool_sizes", [
        ("checkpoint_merge.json", [1, 2, 3, 4]),
        ("shifted_donors.json", [3]),
    ])
    def test_fisher_estimated_once_per_model(self, monkeypatch, name, pool_sizes):
        fisher_calls, pools = [], []

        def counting_fisher(model, data):
            fisher_calls.append(model)
            return estimate_fisher(model, data)

        def recording_merge(ckpts, alignment):
            pools.append([dict(c.metadata) for c in ckpts])
            return isotropic_merge(ckpts, alignment)

        monkeypatch.setattr(experiment, "estimate_fisher", counting_fisher)
        monkeypatch.setattr(experiment, "isotropic_merge", recording_merge)
        config = Path(__file__).resolve().parents[1] / "configs" / name
        report = run_experiment(ExperimentConfig.from_json(config.read_text()))
        assert len(report["models"]) == len(fisher_calls) == pool_sizes[-1]
        assert [len(pool) for pool in pools] == pool_sizes
        assert not any("performance" in meta for pool in pools for meta in pool)

    def test_discrepancy_section_when_tau_set(self):
        cfg = self.base_config(tau=5.0)
        report = run_experiment(cfg)
        assert len(report["discrepancy"]) == 1
        assert 0.0 <= report["discrepancy"][0]["total_fraction"] <= 1.0

    def test_discrepancy_section_in_checkpoints_mode(self):
        cfg = self.base_config(mode="checkpoints", checkpoint_count=3, tau=5.0,
                               strategies=("layerwise",))
        report = run_experiment(cfg)
        snapshot_ids = [m["model_id"] for m in report["models"]]
        assert len(snapshot_ids) == 3
        assert [row["pair"] for row in report["discrepancy"]] == [
            f"anchor-vs-{model_id}" for model_id in snapshot_ids[1:]
        ]
        assert all(0.0 <= row["total_fraction"] <= 1.0 for row in report["discrepancy"])

    def test_config_round_trip_and_validation(self):
        cfg = self.base_config()
        import json as _json
        from dataclasses import asdict

        restored = ExperimentConfig.from_json(_json.dumps(asdict(cfg)))
        assert restored == cfg
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"bogus": 1})
        with pytest.raises(ValueError, match="mode"):
            ExperimentConfig.from_dict({"mode": "nope"})
        with pytest.raises(ValueError, match="strategies"):
            ExperimentConfig.from_dict({"strategies": ["treaty"]})

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import _reference as ref

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
from layermerge.toy.model import _cross_entropy
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

    @pytest.mark.parametrize("labels, message", [
        ([0, 1, 7], r"labels must lie in \[0, 3\)"),  # trained into an IndexError
        ([0, 1, -1], r"labels must lie in \[0, 3\)"),  # trained as the last class
        ([0.0, 1.0, 2.0], "labels must be integers, one per input row"),
        ([True, False, True], "labels must be integers, one per input row"),
        ([0, 1], "labels must be integers, one per input row"),
        ([[0, 1, 2]], "labels must be integers, one per input row"),
        ([0, 1, 1], "every class must appear at least once"),
    ])
    def test_bad_labels_rejected(self, labels, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ToyDataset(np.zeros((3, 2)), np.array(labels), 3, 0, DomainShift())

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64, np.uint64])
    def test_integer_labels_of_any_width_accepted(self, dtype):
        data = ToyDataset(np.zeros((4, 2)), np.array([2, 0, 1, 2], dtype=dtype), 3, 0,
                          DomainShift())
        assert data.size == 4

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
        stacked = Checkpoint.from_arrays({"l0.weight": np.zeros((2, 3, 2)),
                                          "l0.bias": np.zeros((2, 3))})
        with pytest.raises(ValueError, match="must be 2-D"):
            ToyModel.from_checkpoint(stacked)

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
        [result] = train([ToyModel.init([2, 8, 3], seed=7)], [src], [TrainConfig(epochs=30, seed=7)])
        model = result.model
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
        [result] = train([model], [src], [TrainConfig(epochs=0, seed=0)])
        for w1, w2 in zip(model.weights, result.model.weights):
            assert np.array_equal(w1, w2)

    def test_deterministic(self):
        src, _ = make_domain_pair(7, 120, 3)
        cfg = TrainConfig(epochs=15, seed=5)
        [a] = train([ToyModel.init([2, 8, 3], seed=5)], [src], [cfg])
        [b] = train([ToyModel.init([2, 8, 3], seed=5)], [src], [cfg])
        assert a.final_loss == b.final_loss
        for w1, w2 in zip(a.model.weights, b.model.weights):
            assert np.array_equal(w1, w2)

    def test_input_model_untouched(self):
        src, _ = make_domain_pair(7, 60, 3)
        model = ToyModel.init([2, 4, 3], seed=0)
        before = [w.copy() for w in model.weights]
        train([model], [src], [TrainConfig(epochs=3, seed=0)])
        for w1, w2 in zip(before, model.weights):
            assert np.array_equal(w1, w2)

    def test_default_config_regression(self):
        # frozen desk-scale baseline: 2-16-16-3 net, lr 0.05, 200 epochs, n=600
        src, _ = make_domain_pair(7, 600, 3)
        model = ToyModel.init([2, 16, 16, 3], seed=7)
        initial = model.loss(src.inputs, src.labels)
        [result] = train([model], [src], [TrainConfig(learning_rate=0.05, epochs=200, seed=7)])
        assert result.final_loss < initial
        assert evaluate(result.model, src) >= 0.9

    def test_snapshots_evenly_spaced_final_is_anchor(self):
        src, _ = make_domain_pair(7, 120, 3)
        [result] = train([ToyModel.init([2, 4, 3], seed=1)], [src],
                         [TrainConfig(epochs=20, seed=1)], snapshot_count=4)
        epochs = [epoch for epoch, _ in result.snapshots]
        assert epochs == [5, 10, 15, 20]
        final = result.snapshots[-1][1]
        for w1, w2 in zip(final.weights, result.model.weights):
            assert np.array_equal(w1, w2)

    def test_each_snapshot_equals_a_run_stopped_at_its_epoch(self):
        src, _ = make_domain_pair(7, 120, 3)
        init = ToyModel.init([2, 4, 3], seed=1)
        [result] = train([init], [src], [TrainConfig(epochs=20, seed=1)], snapshot_count=4)
        for epoch, snapshot in result.snapshots:
            [stopped] = train([init], [src], [TrainConfig(epochs=epoch, seed=1)])
            for a, b in zip(snapshot.weights + snapshot.biases,
                            stopped.model.weights + stopped.model.biases):
                assert np.array_equal(a, b), epoch

    def test_snapshot_epochs_rounding(self):
        assert snapshot_epochs(10, 4) == [2, 5, 8, 10]
        assert snapshot_epochs(4, 4) == [1, 2, 3, 4]
        assert snapshot_epochs(3, 4) == [1, 2, 3]  # duplicates collapse

    def test_divergence_reports_epoch(self):
        src, _ = make_domain_pair(7, 120, 3)
        cfg = TrainConfig(learning_rate=1e4, epochs=50, seed=1)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train([ToyModel.init([2, 8, 3], seed=1)], [src], [cfg])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name, message", [
        ("learning_rate", "learning rate must be positive and finite"),
        ("head_lr_multiplier", "head learning-rate multiplier must be positive and finite"),
    ])
    def test_non_finite_rates_rejected(self, name, message, value):
        with pytest.raises(ValueError, match=f"^{message}, got {value!r}$"):
            TrainConfig(**{name: value})


REPO = Path(__file__).resolve().parents[1]


def _sweep_config(seed):
    payload = json.loads((REPO / "tests" / "data" / "preregistered_sweep.json").read_text())
    return ExperimentConfig.from_dict(payload["results"][str(seed)]["config"])


def _shifted_donors(seed):
    payload = json.loads((REPO / "configs" / "shifted_donors.json").read_text())
    return ExperimentConfig.from_dict({**payload, "seed": seed})


def _donor_pool(cfg):
    """The models, datasets and configs a donors-mode experiment trains."""
    source, target = make_domain_pair(cfg.seed, cfg.train_samples, cfg.classes, cfg.shift)
    donor_data = source if cfg.donor_domain == "source" else target
    seeds = [cfg.seed, *cfg.donor_seeds]
    sizes = [2, *cfg.hidden, cfg.classes]
    models = [ToyModel.init(sizes, seed=cfg.seed if cfg.shared_init else s) for s in seeds]
    datasets = [source] + [donor_data] * len(cfg.donor_seeds)
    return models, datasets, [cfg._train_config(s) for s in seeds]


def _assert_same_bytes(got, want):
    for a, b in zip(got.weights + got.biases, want.weights + want.biases, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


POOLS = {
    **{f"sweep-{seed}": (lambda seed=seed: _sweep_config(seed), 0) for seed in range(10)},
    **{f"shifted-donors-{seed}": (lambda seed=seed: _shifted_donors(seed), 0)
       for seed in (7, 11, 301)},
    "hidden-8-5-7-batch-7": (lambda: ExperimentConfig(
        seed=5, train_samples=101, classes=4, hidden=(8, 5, 7), batch_size=7, epochs=40,
        donor_seeds=(17, 29, 43), shift_rotation=0.5), 0),
    "hidden-32-own-init": (lambda: ExperimentConfig(
        seed=9, train_samples=150, hidden=(32,), epochs=40, shared_init=False,
        shift_translation=(1.0, 0.5)), 0),
    "zero-epochs": (lambda: ExperimentConfig(seed=3, train_samples=60, epochs=0), 0),
    "four-snapshots": (lambda: ExperimentConfig(seed=4, train_samples=90, epochs=22), 4),
}


class TestLockstepTraining:
    """A pool trained in lockstep equals its members trained one at a time."""

    @pytest.mark.parametrize("make_config, snapshot_count", POOLS.values(), ids=POOLS.keys())
    def test_each_member_equals_training_it_alone(self, make_config, snapshot_count):
        models, datasets, configs = _donor_pool(make_config())
        results = train(models, datasets, configs, snapshot_count=snapshot_count)
        assert len(results) == len(models)
        for model, data, cfg, got in zip(models, datasets, configs, results):
            want = ref.ref_train(model, data, cfg, snapshot_count=snapshot_count)
            _assert_same_bytes(got.model, want.model)
            assert got.final_loss == want.final_loss
            assert [e for e, _ in got.snapshots] == [e for e, _ in want.snapshots]
            for (_, a), (_, b) in zip(got.snapshots, want.snapshots):
                _assert_same_bytes(a, b)

    @staticmethod
    def _scaled(data, factor):
        return ToyDataset(data.inputs * factor, data.labels, data.classes, data.seed, data.shift)

    def _divergence(self, models, datasets, configs):
        with pytest.raises(TrainingDivergedError) as caught:
            train(models, datasets, configs)
        return caught.value

    def test_only_a_donor_diverges(self):
        # inputs 30x larger make the first donor diverge, 25 epochs in at seed 1
        src, _ = make_domain_pair(7, 120, 3)
        init = ToyModel.init([2, 8, 3], seed=1)
        datasets = [src, self._scaled(src, 30.0), src]
        configs = [TrainConfig(learning_rate=1.0, epochs=50, seed=s) for s in (1, 1, 2)]
        for k in (0, 2):  # the anchor and the second donor stay finite alone
            ref.ref_train(init, datasets[k], configs[k])
        with pytest.raises(TrainingDivergedError) as alone:
            ref.ref_train(init, datasets[1], configs[1])
        error = self._divergence([init] * 3, datasets, configs)
        assert (error.epoch, str(error)) == (alone.value.epoch, str(alone.value))
        assert error.epoch > 1

    def test_anchor_error_wins_over_an_earlier_donor_error(self):
        src, _ = make_domain_pair(7, 120, 3)
        init = ToyModel.init([2, 8, 3], seed=1)
        datasets = [self._scaled(src, 3.0), self._scaled(src, 100.0)]
        configs = [TrainConfig(learning_rate=5.0, epochs=50, seed=1)] * 2
        errors = []
        for data, cfg in zip(datasets, configs):
            with pytest.raises(TrainingDivergedError) as alone:
                ref.ref_train(init, data, cfg)
            errors.append(alone.value)
        assert errors[1].epoch < errors[0].epoch  # the donor diverges first in time
        error = self._divergence([init] * 2, datasets, configs)
        assert (error.epoch, str(error)) == (errors[0].epoch, str(errors[0]))

    @pytest.mark.parametrize("change, message", [
        ("layers", "layer sizes"), ("data", "datasets of one size"), ("rate", "but the seed"),
    ])
    def test_members_that_differ_are_rejected(self, change, message):
        src, _ = make_domain_pair(7, 120, 3)
        models = [ToyModel.init([2, 8, 3], seed=1)] * 2
        datasets = [src, src]
        configs = [TrainConfig(epochs=2, seed=1), TrainConfig(epochs=2, seed=2)]
        if change == "layers":
            models[1] = ToyModel.init([2, 4, 3], seed=1)
        elif change == "data":
            datasets[1] = make_domain_pair(7, 60, 3)[0]
        else:
            configs[1] = TrainConfig(learning_rate=0.1, epochs=2, seed=2)
        with pytest.raises(ValueError, match=message):
            train(models, datasets, configs)

    def test_one_dataset_and_config_per_model(self):
        src, _ = make_domain_pair(7, 60, 3)
        model = ToyModel.init([2, 4, 3], seed=0)
        with pytest.raises(ValueError, match="one dataset and one config per model"):
            train([model, model], [src], [TrainConfig(epochs=1)] * 2)
        with pytest.raises(ValueError, match="at least one model"):
            train([], [], [])


class TestStackingPremise:
    """Lockstep training is bit-identical to one model at a time because a
    stacked matmul makes each slice's 2-D product, and the stacked sums add
    each slice's elements in the 2-D order. A numpy that breaks this fails
    here by name."""

    @pytest.mark.parametrize("batch", [1, 7, 24, 32, 400])
    @pytest.mark.parametrize("fan_in, fan_out", [(2, 16), (16, 16), (16, 3), (2, 1), (32, 4)])
    def test_stacked_products_and_sums_equal_each_slice(self, batch, fan_in, fan_out):
        rng = np.random.default_rng(batch * 1000 + fan_in * 10 + fan_out)
        models = 3
        gathered = rng.standard_normal((models, batch + 5, fan_in))
        h = gathered[:, 2 : 2 + batch]  # a batch view into each member's gathered inputs
        w = rng.standard_normal((models, fan_out, fan_in))
        d = rng.standard_normal((models, batch, fan_out))
        stacked = {
            "forward": h @ w.swapaxes(-1, -2),
            "backprop": d @ w,
            "gradient": d.swapaxes(-1, -2) @ h,
            "bias gradient": d.sum(axis=-2),
            "row sums": d.sum(axis=-1),
            "row means": d.mean(axis=-1),
        }
        for k in range(models):
            alone = {
                "forward": h[k].copy() @ w[k].copy().T,
                "backprop": d[k].copy() @ w[k].copy(),
                "gradient": d[k].copy().T @ h[k].copy(),
                "bias gradient": d[k].copy().sum(axis=0),
                "row sums": d[k].copy().sum(axis=-1),
                "row means": np.array([np.mean(row) for row in d[k].copy()]),
            }
            for name, value in stacked.items():
                assert value[k].tobytes() == alone[name].tobytes(), (name, k)

    # The primitives of the lean training step, each against the operation
    # it stands in for.

    @pytest.mark.parametrize("batch", [1, 7, 32, 400])
    @pytest.mark.parametrize("fan_in, fan_out", [(2, 16), (16, 16), (16, 3), (32, 4)])
    def test_matmul_into_a_view_of_a_flat_buffer(self, batch, fan_in, fan_out):
        rng = np.random.default_rng(batch * 1000 + fan_in * 10 + fan_out)
        gathered = rng.standard_normal((3, batch + 5, fan_in))
        h = gathered[:, 2 : 2 + batch]
        d = rng.standard_normal((3, batch, fan_out))
        flat = np.full(7 + 3 * fan_out * fan_in, np.nan)
        out = flat[7:].reshape(3, fan_out, fan_in)
        np.matmul(d.swapaxes(-1, -2), h, out=out)
        assert out.tobytes() == (d.swapaxes(-1, -2) @ h).tobytes()
        for k in range(3):
            assert out[k].tobytes() == (d[k].copy().T @ h[k].copy()).tobytes()

    @pytest.mark.parametrize("batch", [1, 7, 24, 32, 400])
    @pytest.mark.parametrize("width", [1, 3, 16])
    def test_add_reduce_over_the_batch_into_a_view(self, batch, width):
        d = np.random.default_rng(batch * 100 + width).standard_normal((3, batch, width))
        flat = np.full(5 + 3 * width, np.nan)
        out = flat[5:].reshape(3, width)
        np.add.reduce(d, axis=-2, out=out)
        assert out.tobytes() == d.sum(axis=-2).tobytes()
        for k in range(3):
            assert out[k].tobytes() == d[k].copy().sum(axis=0).tobytes()

    def test_one_hot_subtraction_equals_fancy_index_subtraction(self):
        rng = np.random.default_rng(5)
        delta = rng.standard_normal((3, 40, 4))
        special = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 1.0]
        delta.reshape(-1)[rng.choice(delta.size, 60, replace=False)] = rng.choice(special, 60)
        y = rng.integers(0, 4, size=(3, 40))
        fancy = delta.copy()
        fancy[(*np.indices(y.shape, sparse=True), y)] -= 1.0
        delta -= y[..., None] == np.indices(delta.shape, sparse=True)[-1]  # bool, as in the step
        assert delta.tobytes() == fancy.tobytes()

    def test_flat_update_with_per_element_rates_equals_per_layer_updates(self):
        rng = np.random.default_rng(6)
        model = ToyModel.stack([ToyModel.init([2, 16, 16, 3], seed=s) for s in (1, 2, 3)])
        model.grads[:] = rng.standard_normal(model.grads.size)
        lr, head = 0.05, 10.0
        want = [w.copy() for w in model.weights], [b.copy() for b in model.biases]
        for i, (w, b, g_w, g_b) in enumerate(zip(*want, model.grads_w, model.grads_b)):
            rate = lr * (head if i == model.depth - 1 else 1.0)
            w -= rate * g_w
            b -= rate * g_b
        rates = np.full(model.params.size, lr)
        rates[model.params.size - model.weights[-1].size - model.biases[-1].size:] *= head
        model.params -= rates * model.grads
        for got, expected in zip(model.weights + model.biases, want[0] + want[1]):
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 24, 32, 600])
    def test_add_reduce_over_n_equals_mean(self, n):
        picked = np.random.default_rng(n).standard_normal((3, n)) * 10.0 ** np.arange(-3, 0)[:, None]
        assert (np.add.reduce(picked, axis=-1) / n).tobytes() == picked.mean(axis=-1).tobytes()
        assert (np.add.reduce(picked[0]) / n).tobytes() == np.mean(picked[0]).tobytes()

    @pytest.mark.parametrize("classes", [2, 3, 4, 9])
    def test_pairwise_maximum_equals_max_over_classes(self, classes):
        rng = np.random.default_rng(classes)
        logits = rng.choice([-0.0, 0.0, -1.0, 2.5, np.inf, -np.inf], size=(3, 50, classes))
        logits[0, 0, 0] = np.nan
        logits[1] = rng.standard_normal((50, classes))
        top = logits[..., :1]
        for c in range(1, classes):
            top = np.maximum(top, logits[..., c:c + 1])
        want = logits.max(axis=-1, keepdims=True)
        # equal, but a row whose maximum is a tie of -0.0 and 0.0 may get
        # either zero (at 9 classes numpy 2.4 differs) ...
        assert np.array_equal(top, want, equal_nan=True)
        assert top[1].tobytes() == want[1].tobytes()
        # ... which changes no result: both zeros give exp 1, a row sum of at least 2
        y = rng.integers(0, classes, size=(3, 50))
        with np.errstate(invalid="ignore"):
            loss, probs = _cross_entropy(logits, y)
            shifted = logits - want
            e = np.exp(shifted)
            logp = shifted - np.log(e.sum(axis=-1, keepdims=True))
            picked = np.take_along_axis(logp, y[..., None], axis=-1)[..., 0]
            assert loss.tobytes() == (-picked.mean(axis=-1)).tobytes()
            assert probs.tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()


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


@pytest.mark.parametrize("payload, message", [
    ({"seed": True}, "seed must hold integers, got True"),
    ({"epochs": 2.5}, "epochs must hold integers, got 2.5"),
    ({"hidden": [16, 1.5]}, "hidden must hold integers, got (16, 1.5)"),
    ({"donor_seeds": [1, "2"]}, "donor_seeds must hold integers, got (1, '2')"),
    ({"learning_rate": "fast"}, "learning_rate must be a finite number, got 'fast'"),
    ({"learning_rate": None}, "learning_rate must be a finite number, got None"),
    ({"shift_rotation": float("inf")}, "shift_rotation must be a finite number, got inf"),
    ({"tau": "x"}, "tau must be a finite number, got 'x'"),
    ({"first_layer_weight": float("nan")}, "first_layer_weight must be a finite number, got nan"),
    ({"donor_seeds": 5}, "donor_seeds must be a JSON array, got 5"),
    ({"shift_translation": "ab"}, "shift_translation must be a JSON array, got 'ab'"),
    ({"epochs": 2.5, "hidden": [1.5]}, "hidden must hold integers, got (1.5,)"),
], ids=["int given a bool", "int given a float", "tuple[int, ...]", "tuple[int, ...] given a string",
        "float given a string", "float given null", "float given inf", "float | None",
        "float | None given nan", "tuple given a number", "tuple given a string",
        "two bad fields, named in declaration order"])
def test_config_field_kind_refusals(payload, message):
    """A field is checked by the kind its annotation names; the first bad
    field in declaration order is named."""
    with pytest.raises(ValueError) as info:
        ExperimentConfig.from_dict(payload)
    assert str(info.value) == message


# a value of the wrong kind for each annotation an ExperimentConfig field has
_WRONG_KIND = {"int": 1.5, "tuple[int, ...]": (1.5,), "float": "x", "float | None": "x",
               "bool": 1, "str": 1, "tuple[str, ...]": (1,), "tuple[float, float]": ("x", "x")}


@pytest.mark.parametrize("field", dataclasses.fields(ExperimentConfig), ids=lambda f: f.name)
def test_every_config_field_has_a_checked_kind(field):
    """Every field's annotation is a kind that ``__post_init__`` checks, and
    a value of another kind is refused naming the field, so a new field
    cannot skip its check."""
    assert field.type in _WRONG_KIND
    with pytest.raises(ValueError, match=field.name.replace("_", "[_ ]")):
        ExperimentConfig(**{field.name: _WRONG_KIND[field.type]})


def _model_with_an_inf_weight():
    model = ToyModel.init([2, 4, 3], seed=0)
    model.weights[0][0, 0] = np.inf
    return model


_DATA = make_domain_pair(0, 30, 3)[0]
_MODEL = ToyModel.init([2, 4, 3], seed=0)


@pytest.mark.parametrize("call, message", [
    (lambda: ToyModel([np.zeros((3, 2))], []), "weights and biases must pair up"),
    (lambda: ToyModel([np.zeros((3, 2))], [np.zeros(2)]),
     "bias shape must match layer output size"),
    (lambda: evaluate([], _DATA), "need at least one model"),
    (lambda: evaluate([_MODEL, _MODEL], _DATA),
     "pass ensemble=True to evaluate several models jointly"),
    (lambda: evaluate(_model_with_an_inf_weight(), _DATA),
     "non-finite class probabilities while evaluating"),
    (lambda: train([_MODEL], [_DATA], [TrainConfig(epochs=0)], snapshot_count=1),
     "snapshots need at least one epoch"),
    (lambda: ToyDataset(np.zeros((0, 2)), np.zeros(0, np.int64), 2, 0, DomainShift()),
     "dataset must be non-empty"),
], ids=["unpaired biases", "misshaped bias", "no models", "several models without ensemble",
        "non-finite probabilities", "snapshots at 0 epochs", "dataset with no rows"])
def test_refusal_messages(call, message):
    """Each refusal raises its message and no numpy warning (the suite
    turns one into an error)."""
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message

"""Scripted desk-scale merging experiments with deterministic reports.

Two experiment modes cover the interesting pool constructions:

* ``donors``: an anchor trains on the source domain and each donor trains
  on the source or the shifted target domain with its own seed; the pool
  [anchor, donors...] is merged under every requested strategy.
* ``checkpoints``: a single training run keeps evenly spaced snapshot
  models; pools of the last m snapshots (anchor = final) are merged
  for every m up to the snapshot count.

Reports are plain dicts rendered to canonical JSON, so identical configs
produce byte-identical report files.
"""

from __future__ import annotations

import json
import sys
import warnings
from dataclasses import asdict, dataclass, fields

from ..alignment import shared_parameters
from ..discrepancy import discrepancy_profile
from ..merge import (
    STRATEGIES as MERGE_STRATEGIES,
    ScheduleError,
    compute_schedule,
    fisher_merge,
    isotropic_merge,
    layerwise_merge,
    scalar_weighted_merge,
)
from .data import DomainShift, ToyDataset, make_domain_pair
from .fisher import estimate_fisher
from .model import ToyModel, evaluate
from .training import TrainConfig, snapshot_epochs, train

STRATEGIES = (*MERGE_STRATEGIES, "ensemble")


def _finite_number(value) -> bool:
    # abs() <= max rejects nan and inf, and ints too large for a float
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 7
    mode: str = "donors"  # "donors" | "checkpoints"
    train_samples: int = 600
    eval_samples: int = 2000
    classes: int = 3
    hidden: tuple[int, ...] = (16, 16)
    learning_rate: float = 0.05
    epochs: int = 200
    batch_size: int = 32
    head_lr_multiplier: float = 10.0
    shift_rotation: float = 0.0
    shift_translation: tuple[float, float] = (0.0, 0.0)
    donor_seeds: tuple[int, ...] = (1007, 2003)
    donor_domain: str = "target"  # "source" | "target"
    # Models to be merged are assumed to start from common pre-trained
    # parameters; donors then differ only in data and shuffling. Disable to
    # reproduce the misaligned-models failure mode of naive averaging.
    shared_init: bool = True
    checkpoint_count: int = 4
    strategies: tuple[str, ...] = STRATEGIES
    start_layer: int = 1
    first_layer_weight: float | None = None
    tau: float | None = None

    def __post_init__(self):
        # each field's kind is its annotation, a string under postponed evaluation;
        # type() rather than isinstance(): JSON true/false decode to bool, an int subclass
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in ("int", "tuple[int, ...]"):
                if not all(type(v) is int for v in ([value] if f.type == "int" else value)):
                    raise ValueError(f"{f.name} must hold integers, got {value!r}")
            elif f.type in ("float", "float | None"):
                if not (value is None and f.type == "float | None" or _finite_number(value)):
                    raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if type(self.shared_init) is not bool:
            raise ValueError(f"shared_init must be true or false, got {self.shared_init!r}")
        if min(self.hidden, default=1) < 1:
            raise ValueError(f"hidden sizes must be at least 1, got {list(self.hidden)}")
        translation = self.shift_translation
        if len(translation) != 2 or not all(map(_finite_number, translation)):
            raise ValueError(
                f"shift_translation must hold two finite numbers, got {list(translation)}")
        if self.mode not in ("donors", "checkpoints"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.donor_domain not in ("source", "target"):
            raise ValueError(f"unknown donor domain {self.donor_domain!r}")
        if not all(type(s) is str for s in self.strategies):
            raise ValueError(f"strategies must hold strings, got {list(self.strategies)!r}")
        unknown = [s for s in dict.fromkeys(self.strategies) if s not in STRATEGIES]
        if unknown:
            raise ValueError(f"unknown strategies {unknown}")
        if any(s < 0 for s in (self.seed, *self.donor_seeds)):
            raise ValueError("seed and donor_seeds must be non-negative")
        if self.classes < 2 or min(self.train_samples, self.eval_samples) < self.classes:
            raise ValueError("need at least 2 classes and one train and eval sample per class")
        if self.mode == "checkpoints" and min(self.epochs, self.checkpoint_count) < 1:
            raise ValueError("checkpoints mode needs epochs and checkpoint_count of at least 1")
        if self.tau is not None and self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau!r}")
        self._train_config(self.seed)  # range-checks the training fields
        # The largest pool bounds the first-layer weight; toy models share every layer.
        largest_pool = (1 + len(self.donor_seeds) if self.mode == "donors"
                        else len(snapshot_epochs(self.epochs, self.checkpoint_count)))
        with warnings.catch_warnings():  # the 1/M tie warns once, at merge time
            warnings.simplefilter("ignore")
            try:
                compute_schedule(largest_pool, len(self.hidden) + 1, 0,
                                 self.start_layer, self.first_layer_weight)
            except ScheduleError as exc:
                raise ValueError(f"start_layer or first_layer_weight: {exc}") from exc

    def _train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(learning_rate=self.learning_rate, epochs=self.epochs,
                           batch_size=self.batch_size, seed=seed,
                           head_lr_multiplier=self.head_lr_multiplier)

    @property
    def shift(self) -> DomainShift:
        return DomainShift(self.shift_rotation, tuple(self.shift_translation))

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        if type(payload) is not dict:
            raise ValueError(f"config must be a JSON object, got {payload!r}")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(payload) - known
        if extra:
            raise ValueError(f"unknown config keys {sorted(extra)}")
        payload = dict(payload)
        for key in (f.name for f in fields(cls) if f.type.startswith("tuple[")):
            if key in payload:
                if type(payload[key]) is not list:
                    raise ValueError(f"{key} must be a JSON array, got {payload[key]!r}")
                payload[key] = tuple(payload[key])
        return cls(**payload)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


def _train_pool(cfg: ExperimentConfig, seeds, datasets: list[ToyDataset], snapshot_count=0):
    """Train one model per seed on the matching dataset, all in one ``train`` call."""
    sizes = [2, *cfg.hidden, cfg.classes]
    inits = [ToyModel.init(sizes, seed=cfg.seed if cfg.shared_init else s) for s in seeds]
    return train(inits, datasets, [cfg._train_config(s) for s in seeds],
                 snapshot_count=snapshot_count)


def _accuracies(models, evals, ensemble=False) -> dict:
    source_eval, target_eval = evals
    return {
        "source_accuracy": evaluate(models, source_eval, ensemble=ensemble),
        "target_accuracy": evaluate(models, target_eval, ensemble=ensemble),
    }


def _merge_pool_rows(cfg, ckpts, models, scores, fishers, evals):
    """One report row per strategy for a pool (anchor first); ``scores`` and
    ``fishers`` hold each model's precomputed score and Fisher estimate."""
    alignment = shared_parameters(ckpts, anchor=0)
    rows = []
    for strategy in cfg.strategies:
        if strategy == "ensemble":
            rows.append({"strategy": strategy, **_accuracies(models, evals, ensemble=True)})
            continue
        if strategy == "layerwise":
            schedule = compute_schedule(
                len(ckpts),
                alignment.n_shared_layers,
                anchor=0,
                start_layer=cfg.start_layer,
                first_layer_weight=cfg.first_layer_weight,
            )
            merged = layerwise_merge(ckpts, 0, schedule, alignment)
        elif strategy == "isotropic":
            merged = isotropic_merge(ckpts, alignment)
        elif strategy == "scalar":
            merged = scalar_weighted_merge(ckpts, scores, alignment)
        elif strategy == "fisher":
            merged = fisher_merge(ckpts, fishers, alignment)
        rows.append({"strategy": strategy, **_accuracies(ToyModel.from_checkpoint(merged), evals)})
    return rows


def run_experiment(cfg: ExperimentConfig) -> dict:
    source_train, target_train = make_domain_pair(
        cfg.seed, cfg.train_samples, cfg.classes, cfg.shift
    )
    evals = make_domain_pair(cfg.seed + 5000, cfg.eval_samples, cfg.classes, cfg.shift)

    donors = cfg.mode == "donors"
    if donors:  # the anchor on the source domain, then one donor per seed
        donor_data = source_train if cfg.donor_domain == "source" else target_train
        train_sets = [source_train] + [donor_data] * len(cfg.donor_seeds)
        results = _train_pool(cfg, [cfg.seed, *cfg.donor_seeds], train_sets)
        models = [r.model for r in results]
        ids = ["anchor"] + [f"donor{i}" for i in range(1, len(models))]
        details = [{"final_loss": r.final_loss} for r in results]
        pool_sizes = [len(models)]
    else:  # snapshots of one source-domain run, newest (the anchor) first
        [run] = _train_pool(cfg, [cfg.seed], [source_train], cfg.checkpoint_count)
        epochs, models = zip(*run.snapshots[::-1])
        ids = [f"epoch{e}" for e in epochs]
        train_sets = [source_train] * len(models)
        details = [{"epoch": e} for e in epochs]
        pool_sizes = range(1, len(models) + 1)  # the newest m snapshots
    ckpts = [m.to_checkpoint({"model_id": i}) for m, i in zip(models, ids)]

    report: dict = {"config": asdict(cfg), "mode": cfg.mode, "merges": []}
    report["models"] = [
        {"model_id": c.metadata["model_id"], **d, **_accuracies(m, evals)}
        for c, m, d in zip(ckpts, models, details)
    ]
    scores = [row["source_accuracy"] for row in report["models"]]  # for scalar merging
    fishers = []
    if "fisher" in cfg.strategies:
        fishers = [estimate_fisher(m, d) for m, d in zip(models, train_sets)]
    for n in pool_sizes:
        rows = _merge_pool_rows(cfg, ckpts[:n], models[:n], scores[:n], fishers[:n], evals)
        report["merges"] += rows if donors else [{"checkpoints": n, **r} for r in rows]

    if cfg.tau is not None:
        report["discrepancy"] = [
            {
                "pair": f"anchor-vs-{c.metadata['model_id']}",
                "tau": cfg.tau,
                "total_fraction": discrepancy_profile(ckpts[0], c, cfg.tau).total_fraction(),
            }
            for c in ckpts[1:]
        ]
    return report


def render_report(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")

#!/usr/bin/env python3
"""End-to-end walkthrough: train toy models, save checkpoints, merge under
every strategy, and profile where the models disagree.

Writes checkpoints and reports into a scratch directory (default ./demo_out)
and prints accuracy comparisons. Everything is deterministic.
"""

import argparse
import sys
from pathlib import Path

from layermerge import (
    compute_schedule,
    discrepancy_profile,
    emit_profile,
    fisher_merge,
    isotropic_merge,
    layerwise_merge,
    save,
    scalar_weighted_merge,
    shared_parameters,
)
from layermerge.toy import (
    DomainShift,
    ToyModel,
    TrainConfig,
    estimate_fisher,
    evaluate,
    make_domain_pair,
    train,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("demo_out"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--epochs", type=int, default=120)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    shift = DomainShift(rotation=1.0, translation=(0.6, -0.4))
    source, target = make_domain_pair(args.seed, 400, 3, shift)
    source_eval, target_eval = make_domain_pair(args.seed + 5000, 1500, 3, shift)

    # the anchor on the source domain and two donors on the target domain,
    # from one initialization, trained together in one call
    init = ToyModel.init([2, 16, 16, 3], seed=args.seed)
    seeds = [args.seed, args.seed + 1001, args.seed + 2002]
    results = train([init] * 3, [source, target, target],
                    [TrainConfig(epochs=args.epochs, seed=s) for s in seeds])
    models = [r.model for r in results]
    scores = [evaluate(m, source_eval) for m in models]
    ckpts = []
    for i, (model, score) in enumerate(zip(models, scores)):
        name = "anchor" if i == 0 else f"donor{i}"
        ckpt = model.to_checkpoint({"model_id": name, "performance": repr(score)})
        save(ckpt, args.out / f"{name}.st")
        ckpts.append(ckpt)
        print(f"{name}: source {evaluate(model, source_eval):.4f} "
              f"target {evaluate(model, target_eval):.4f}")

    alignment = shared_parameters(ckpts, anchor=0)
    schedule = compute_schedule(len(ckpts), alignment.n_shared_layers, anchor=0)
    fishers = [estimate_fisher(m, d) for m, d in zip(models, [source, target, target])]
    merges = {
        "layerwise": layerwise_merge(ckpts, 0, schedule, alignment),
        "isotropic": isotropic_merge(ckpts, alignment),
        "scalar": scalar_weighted_merge(ckpts, scores, alignment),
        "fisher": fisher_merge(ckpts, fishers, alignment),
    }
    for name, merged in merges.items():
        save(merged, args.out / f"merged_{name}.st")
        model = ToyModel.from_checkpoint(merged)
        print(f"merged/{name}: source {evaluate(model, source_eval):.4f} "
              f"target {evaluate(model, target_eval):.4f}")
    print(f"ensemble: source {evaluate(models, source_eval, ensemble=True):.4f} "
          f"target {evaluate(models, target_eval, ensemble=True):.4f}")

    profile = discrepancy_profile(ckpts[0], ckpts[1], tau=10.0)
    (args.out / "anchor_vs_donor1.csv").write_bytes(emit_profile(profile, "csv"))
    print(f"discrepancy vs donor1 (tau=10): {profile.total_fraction():.4f} of "
          f"parameters flagged; per-layer profile in {args.out}/anchor_vs_donor1.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())

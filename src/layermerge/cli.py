"""Command-line interface: merge, profile, inspect, fisher and toy.

Exit codes: 0 on success, 1 for usage errors (bad flags, flag values or
experiment config), 2 for data errors (malformed files, incompatible pools,
non-finite merged values, diverged training).
Every run prints a one-line summary to standard error; nonzero exits leave
no partial output files behind. An interrupt (Ctrl-C) prints the summary
``interrupted`` and exits 130, the shell's code for SIGINT, after removing
any output file it was writing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import sys
import warnings
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt_store
from .alignment import AlignmentError, shared_parameters
from .checkpoint import CheckpointError
from .discrepancy import MODES, DiscrepancyError, discrepancy_profile, emit_profile
from .merge import (
    STRATEGIES,
    FisherWeights,
    MergeError,
    ScheduleError,
    compute_schedule,
    fisher_merge,
    isotropic_merge,
    layerwise_merge,
    scalar_weighted_merge,
    score_weights,
)
from .toy import (
    DomainShift,
    ExperimentConfig,
    ToyModel,
    TrainingDivergedError,
    estimate_fisher,
    make_domain_pair,
    render_report,
    run_experiment,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERRUPTED = 130

# Allocations between generation-0 collections while a command runs (the
# interpreter's default is 700). A command's many small objects live until
# it ends or are freed by reference counting, so frequent collections would
# only walk them again and again.
_GC_THRESHOLD = 100_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def _summary(line: str) -> None:
    print(line, file=sys.stderr)


def _emit(payload: bytes, out: str | None) -> str:
    """Write a report atomically to ``out``, or to stdout; returns the target."""
    if out:
        ckpt_store.atomic_write(out, payload)
        return out
    sys.stdout.write(payload.decode("utf-8"))
    return "stdout"


def _resolve_anchor(value: str | None, inputs: list[str], strategy: str) -> int:
    if value is None:
        if strategy == "layerwise":
            raise UsageError("layer-wise merging requires an explicit --anchor")
        return 0
    if value in inputs:
        return inputs.index(value)
    try:
        idx = int(value)
    except ValueError:
        raise UsageError(f"--anchor {value!r} is neither an input path nor an index")
    if not 0 <= idx < len(inputs):
        raise UsageError(f"--anchor index {idx} out of range for {len(inputs)} inputs")
    return idx


# flags that only one strategy reads, and that strategy
_STRATEGY_FLAGS = {"fisher": "fisher", "perf": "scalar", "s": "layerwise", "w0": "layerwise"}


def _cmd_merge(args) -> int:
    for flag, strategy in _STRATEGY_FLAGS.items():
        if getattr(args, flag) is not None and args.strategy != strategy:
            raise UsageError(f"--{flag} applies only to --strategy {strategy}")
    anchor = _resolve_anchor(args.anchor, args.inputs, args.strategy)
    if args.strategy == "fisher" and not args.fisher:
        raise UsageError("--strategy fisher requires --fisher files, one per input")
    if args.fisher and len(args.fisher) != len(args.inputs):
        raise UsageError(
            f"{len(args.fisher)} --fisher files for {len(args.inputs)} inputs"
        )
    if args.perf is not None:
        if len(args.perf) != len(args.inputs):
            raise UsageError(f"{len(args.perf)} --perf scores for {len(args.inputs)} inputs")
        if any(not np.isfinite(p) or p <= 0 for p in args.perf):
            raise UsageError("--perf scores must be positive reals")

    # inputs are read tensor by tensor as the merge needs them, and closed
    # before the merged checkpoint is saved
    with contextlib.ExitStack() as files:
        ckpts = [files.enter_context(ckpt_store.open_file(p)) for p in args.inputs]
        alignment = shared_parameters(ckpts, anchor)
        merged, detail = _merge_inputs(args, ckpts, anchor, alignment, files)

    ckpt_store.save(merged, args.out)
    print(f"shared_layers: {alignment.n_shared_layers}")
    print(f"shared_tensors: {len(alignment.shared_names())}")
    print(f"anchor_only_tensors: {len(alignment.anchor_only)}")
    if alignment.anchor_only:
        print(f"anchor_only: {list(alignment.anchor_only)}")
    print(detail)
    _summary(
        f"merged {len(ckpts)} checkpoints ({args.strategy}, "
        f"{alignment.n_shared_layers} shared layers) -> {args.out}"
    )
    return EXIT_OK


def _merge_inputs(args, ckpts, anchor, alignment, files):
    """The merged checkpoint and the detail line of ``args.strategy``;
    Fisher files are opened into the ``files`` stack."""
    if args.strategy == "layerwise":
        schedule = compute_schedule(
            len(ckpts),
            alignment.n_shared_layers,
            anchor,
            start_layer=1 if args.s is None else args.s,
            first_layer_weight=args.w0,
        )
        merged = layerwise_merge(ckpts, anchor, schedule, alignment)
        detail = (
            f"schedule: start_layer={schedule.start_layer} "
            f"w0={schedule.first_layer_weight!r} "
            f"non_anchor={[round(float(w), 6) for w in schedule.non_anchor_row()]}"
        )
    elif args.strategy == "isotropic":
        merged = isotropic_merge(ckpts, alignment)
        detail = f"uniform weights 1/{len(ckpts)}"
    elif args.strategy == "scalar":
        scores = args.perf
        if scores is None:
            scores = []
            for path, ckpt in zip(args.inputs, ckpts):
                perf = ckpt.performance()
                if perf is None:
                    raise CheckpointError(
                        f"{path}: no 'performance' metadata; pass --perf explicitly"
                    )
                scores.append(perf)
        merged = scalar_weighted_merge(ckpts, scores, alignment)
        detail = "weights: " + ", ".join(f"{w:.6f}" for w in score_weights(scores))
    else:
        fishers = [FisherWeights.from_checkpoint(files.enter_context(ckpt_store.open_file(p)))
                   for p in args.fisher]
        merged = fisher_merge(ckpts, fishers, alignment)
        detail = f"fisher inputs: {args.fisher}"
    return merged, detail


def _cmd_profile(args) -> int:
    if not np.isfinite(args.tau) or args.tau <= 0:
        raise UsageError("--tau must be a positive real")
    # both inputs are read a batch of slices at a time, not held whole
    with ckpt_store.open_file(args.a) as a, ckpt_store.open_file(args.b) as b:
        profile = discrepancy_profile(a, b, args.tau, mode=args.mode)
    target = _emit(emit_profile(profile, format=args.format), args.out)
    _summary(
        f"profiled {len(profile.rows)} layer/kind rows "
        f"(tau={args.tau}, flagged {profile.total_fraction():.4f}) -> {target}"
    )
    return EXIT_OK


def _cmd_inspect(args) -> int:
    summary = ckpt_store.inspect(args.path)
    print(summary.render())
    _summary(
        f"inspected {args.path}: {len(summary.tensors)} tensors, "
        f"{summary.total_parameters} parameters"
    )
    return EXIT_OK


def _cmd_fisher(args) -> int:
    for flag in ("rotation", "tx", "ty"):
        if not np.isfinite(getattr(args, flag)):
            raise UsageError(f"--{flag} must be a finite real")
    model = ToyModel.from_checkpoint(ckpt_store.load(args.model))
    classes = model.layer_sizes[-1]
    if args.samples < classes:
        raise UsageError(
            f"--samples {args.samples} is below the model's {classes} classes; "
            "at least one sample per class is needed"
        )
    shift = DomainShift(args.rotation, (args.tx, args.ty))
    source, target = make_domain_pair(args.seed, args.samples, classes, shift)
    data = source if args.domain == "source" else target
    fisher = estimate_fisher(model, data)
    out = fisher.to_checkpoint(
        {"model_id": "fisher", "fisher_of": str(args.model), "fisher_samples": str(args.samples)}
    )
    ckpt_store.save(out, args.out)
    _summary(f"estimated fisher for {args.model} on {args.samples} samples -> {args.out}")
    return EXIT_OK


def _cmd_toy(args) -> int:
    try:
        cfg = ExperimentConfig.from_json(Path(args.config).read_text())
    except (TypeError, ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise UsageError(f"invalid experiment config: {exc}")
    target = _emit(render_report(run_experiment(cfg)), args.out)
    _summary(f"ran {cfg.mode} experiment (seed {cfg.seed}) -> {target}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="layermerge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("merge", help="merge checkpoints into one")
    p.add_argument("inputs", nargs="+", help="input checkpoint files")
    p.add_argument("--anchor", help="anchor checkpoint: input path or index")
    p.add_argument("--strategy", required=True, choices=STRATEGIES)
    p.add_argument("--s", type=int, help="layerwise: uniform-plateau end layer (default 1)")
    p.add_argument("--w0", type=float, help="layerwise: first-layer non-anchor weight")
    p.add_argument("--perf", type=float, nargs="+", help="scalar: performance scores, one per input")
    p.add_argument("--fisher", nargs="+", help="fisher: fisher checkpoint files, one per input")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("profile", help="per-layer discrepancy profile of two checkpoints")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--tau", type=float, required=True, help="relative threshold divisor")
    p.add_argument("--mode", choices=MODES, default="elementwise")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("inspect", help="print checkpoint summary without decoding data")
    p.add_argument("path")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("fisher", help="estimate toy-model diagonal Fisher information")
    p.add_argument("model", help="toy-model checkpoint file")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--samples", type=int, default=600)
    p.add_argument("--rotation", type=float, default=0.0)
    p.add_argument("--tx", type=float, default=0.0)
    p.add_argument("--ty", type=float, default=0.0)
    p.add_argument("--domain", choices=("source", "target"), default="source")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fisher)

    p = sub.add_parser("toy", help="run a scripted toy merging experiment")
    p.add_argument("config", help="experiment config JSON file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_toy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    thresholds = gc.get_threshold()  # the caller's, restored on the way out
    # warnings reach the user as one summary line each, not as source excerpts
    with warnings.catch_warnings(record=True) as caught:
        try:
            gc.set_threshold(_GC_THRESHOLD, *thresholds[1:])
            args = parser.parse_args(argv)
            return args.func(args)
        except (UsageError, ScheduleError) as exc:
            _summary(f"usage error: {exc}")
            return EXIT_USAGE
        except (CheckpointError, AlignmentError, MergeError, DiscrepancyError,
                TrainingDivergedError, OSError, ValueError) as exc:
            _summary(f"error: {exc}")
            return EXIT_DATA
        except KeyboardInterrupt:
            _summary("interrupted")
            return EXIT_INTERRUPTED
        finally:
            gc.set_threshold(*thresholds)
            for w in caught:
                _summary(f"warning: {w.message}")


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the layermerge CLI on locally generated, seeded checkpoint pools.

    python3 benchmark/run.py --workload dense-layerwise --seed 1 --seconds 15 --trace 0

The benchmark lives in `benchmark/` of a source checkout and runs the
package under the checkout's `src/` and nothing else. The load is a closed loop with one client:
each operation is one `python -m layermerge ...` child process, and the
next starts only after the previous one exits. Wall time and peak RSS come
from each child. Every output is checked (see checks.py); a nonzero exit, a
traceback on stderr or a failed check counts as a failed operation.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` it has the per-layer metrics of a
separate in-process traced run (see tracing.py). The lines before it are a
readable report: every metric with its unit and sample count, the machine,
and the size and digest of every generated input. The same record is
written to `.bench_out/` in the checkout, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import pools
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_out"
TOY_CONFIG = ROOT / "configs" / "shifted_donors.json"
CHILD_TIMEOUT_S = 150.0
SETUP_FIRST = 3  # set-up samples before the timed loop
SETUP_SPREAD = 8  # and about this many more during it
TAU = 10.0
MB = 1e6


@dataclass
class Op:
    """One CLI operation: `python -m layermerge <argv>`."""

    kind: str  # "merge" | "profile" | "toy"
    argv: list[str]
    out: Path
    inputs: list[Path]
    check: Callable[[], list[str]]


@dataclass
class Workload:
    why: str
    kinds: tuple[str, ...]
    make_pool: Callable[[Path, int, str], pools.Pool]
    make_ops: Callable[[pools.Pool, Path, int], list[Op]]


def _rotation(count: int, k: int) -> list[int]:
    """Anchor first, then the non-anchor indices rotated by k."""
    donors = list(range(1, count))
    r = k % len(donors)
    return [0, *donors[r:], *donors[:r]]


def layerwise_ops(pool, work, k):
    models = [pool.models[i] for i in _rotation(len(pool.models), k)]
    out = work / "merged.lm"
    argv = ["merge", *map(str, models), "--anchor", "0", "--strategy", "layerwise", "--out", str(out)]
    return [Op("merge", argv, out, models, lambda: checks.check_merge(out, pool.models, "layerwise"))]


def fisher_ops(pool, work, k):
    order = _rotation(len(pool.models), k)
    models = [pool.models[i] for i in order]
    fishers = [pool.fishers[i] for i in order]
    out = work / "merged.lm"
    argv = ["merge", *map(str, models), "--strategy", "fisher",
            "--fisher", *map(str, fishers), "--out", str(out)]
    check = lambda: checks.check_merge(out, pool.models, "fisher", pool.fishers)  # noqa: E731
    return [Op("merge", argv, out, [*models, *fishers], check)]


def profile_op(pool, work):
    a, b = pool.models[0], pool.models[1]
    out = work / "profile.csv"
    argv = ["profile", str(a), str(b), "--tau", repr(TAU), "--out", str(out)]
    return Op("profile", argv, out, [a, b], lambda: checks.check_profile(out, a, b, TAU))


def many_tensor_ops(pool, work, k):
    return [*layerwise_ops(pool, work, k), profile_op(pool, work)]


def toy_ops(pool, work, k):
    out = work / "toy_report.json"
    argv = ["toy", str(pool.toy_config), "--out", str(out)]
    return [Op("toy", argv, out, [], lambda: checks.check_toy(out, pool.toy_config))]


WORKLOADS = {
    "dense-layerwise": Workload(
        "few large tensors: bytes and the merge kernel dominate; control for index and parsing changes",
        ("merge",),
        lambda d, s, sc: pools.dense_pool(d, s, sc),
        layerwise_ops,
    ),
    "many-tensors": Workload(
        "8,002 small tensors per model: per-tensor Python (name lookup, header, alignment, schedule) dominates",
        ("merge", "profile"),
        pools.many_tensor_pool,
        many_tensor_ops,
    ),
    "fisher-dense": Workload(
        "dense models plus F64 Fisher files: per-element weights, 3x the bytes, highest peak memory",
        ("merge",),
        lambda d, s, sc: pools.dense_pool(d, s, sc, with_fisher=True),
        fisher_ops,
    ),
    "toy-donors": Workload(
        "the toy harness trains, evaluates, estimates Fisher and merges tiny models",
        ("toy",),
        lambda d, s, sc: pools.toy_pool(d, s, sc, TOY_CONFIG),
        toy_ops,
    ),
}

# End-to-end metric per operation kind, for the report.
KIND_METRIC = {"merge": "merge_s", "profile": "profile_s", "toy": "toy_s"}


# -- running operations -------------------------------------------------------

@dataclass
class Sample:
    kind: str
    wall_s: float
    rss_mb: float = 0.0
    error: str | None = None
    layers: dict = field(default_factory=dict)  # traced runs only


def run_child(argv: list[str], work: Path) -> tuple[float, float, int, bytes]:
    """Run `python <argv>` to completion; returns wall s, peak RSS MB, exit
    code and stderr. A child still running after the timeout is killed."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as so, open(err_path, "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=so, stderr=se, cwd=work,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024 / MB, proc.returncode, err_path.read_bytes()


class Verifier:
    """Full check of the first good output of each kind; every later output
    file of that kind must be byte-identical to it."""

    def __init__(self):
        self.reference: dict[str, str] = {}

    def __call__(self, op: Op, code: int, stderr: bytes) -> str | None:
        if code != 0:
            lines = stderr.decode("utf-8", "replace").strip().splitlines()
            return f"exit {code}: {lines[-1] if lines else ''}"
        if b"Traceback (most recent call last)" in stderr:
            return "traceback on stderr"
        if not op.out.exists():
            return "no output file"
        key = pools.digest(op.out)
        if op.kind in self.reference:
            if key != self.reference[op.kind]:
                return f"{op.kind} output differs from the first verified output of this run"
            return None
        errors = op.check()
        if errors:
            return "; ".join(errors)
        self.reference[op.kind] = key
        return None


def untraced_op(op: Op, work: Path, verify: Verifier) -> Sample:
    op.out.unlink(missing_ok=True)
    wall, rss, code, stderr = run_child(["-m", "layermerge", *op.argv], work)
    return Sample(op.kind, wall, rss, verify(op, code, stderr))


def traced_op(op: Op, work: Path, verify: Verifier, tracer: tracing.Tracer, spans: list) -> Sample:
    """Run one operation in-process under the tracer, then a header-parse
    probe (`inspect`) of each input file outside the operation."""
    from layermerge import checkpoint, cli

    op.out.unlink(missing_ok=True)
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "w") as so, open(err_path, "w") as se:
        with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
            start = time.perf_counter()
            try:
                code = tracer.call("cli.main", cli.main, op.argv)
            except Exception as exc:  # a crash is a failed operation, not a failed run
                print(f"uncaught {exc!r}", file=se)
                code = -1
            wall = time.perf_counter() - start
    for path in op.inputs:
        checkpoint.inspect(path)
    taken = tracer.take()
    op_index = spans[-1]["op"] + 1 if spans else 0
    spans.extend({"op": op_index, **s.record()} for s in taken)
    layers = tracing.span_metrics(taken)
    error = verify(op, code, err_path.read_bytes())
    tracer.take()  # drop spans of the output check's own calls
    return Sample(op.kind, wall, error=error, layers=layers)


def run_cycles(workload, pool, work, seconds, run_one, setup=None) -> list[list[Sample]]:
    """Closed loop: whole cycles until `seconds` have passed (at least one).

    With a `setup` list, also takes one set-up sample between operations
    about every 1/SETUP_SPREAD of the run, so that the set-up median sees
    the same machine conditions as the operations."""
    cycles, start = [], time.perf_counter()
    next_setup = start + seconds / SETUP_SPREAD
    while not cycles or time.perf_counter() < start + seconds:
        cycle = []
        for op in workload.make_ops(pool, work, len(cycles)):
            cycle.append(run_one(op))
            if setup is not None and time.perf_counter() >= next_setup:
                setup.extend(measure_setup(work, 1))
                next_setup = time.perf_counter() + seconds / SETUP_SPREAD
        cycles.append(cycle)
    return cycles


def measure_setup(work: Path, count: int) -> list[float]:
    """Wall time of fresh interpreters importing layermerge.cli."""
    times = []
    for _ in range(count):
        wall, _, code, stderr = run_child(["-c", "import layermerge.cli"], work)
        if code != 0:
            raise RuntimeError(f"importing layermerge.cli failed: {stderr.decode(errors='replace')}")
        times.append(wall)
    return times


# -- statistics and records -------------------------------------------------

def tail(values: list[float]) -> str:
    """Highest percentile with at least 10 samples beyond it (a diagnostic)."""
    n = len(values)
    p = math.floor(100 * (1 - 10 / n)) if n > 10 else 0
    if p < 50:
        return "tail n/a (needs >= 20 samples)"
    return f"p{p}={float(np.percentile(values, p)):.6g}"


def machine_record() -> dict:
    def first(path, key):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    l3 = "unknown"
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")) if cache.exists() else []:
        with contextlib.suppress(OSError):
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
    commit = "unknown (checkout is not a git repository)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "l3_cache": l3,
        "mem_total": first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
    }


def l3_bytes(text: str) -> int | None:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    text = text.strip().upper().removesuffix("B").removesuffix("I")
    if text and text[-1] in units and text[:-1].isdigit():
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else None


# -- the two kinds of run ---------------------------------------------------

def end_to_end(workload, pool, work, seconds, setup) -> tuple[dict, list[Sample], list[str]]:
    verify = Verifier()
    cycles = run_cycles(workload, pool, work, seconds, lambda op: untraced_op(op, work, verify), setup)
    samples = [s for c in cycles for s in c]
    lines, diag = [], {}

    def line(name, value, unit, n, extra=""):
        diag[name] = {"value": value, "unit": unit, "n": n}
        lines.append(f"{name:<16} {value:>14.6f} {unit:<6} n={n:<4} {extra}".rstrip())

    line("setup_s", statistics.median(setup), "s", len(setup), tail(setup))
    cycle_s = 0.0
    for kind in workload.kinds:
        walls = [s.wall_s for s in samples if s.kind == kind]
        med = statistics.median(walls)
        cycle_s += med
        line(KIND_METRIC[kind], med, "s", len(walls), tail(walls))
        if kind == "merge":
            nbytes = pool.model_bytes() + pool.fisher_bytes()
            line("merge_mb_per_s", nbytes / MB / med, "MB/s", len(walls),
                 f"computed: {nbytes / MB:.1f} MB input / median merge_s")
    line("cycle_s", cycle_s, "s", len(cycles), "sum of the per-kind medians above")
    line("peak_rss_mb", max(s.rss_mb for s in samples), "MB", len(samples), "max over operation children")
    failed = sum(s.error is not None for s in samples)
    line("error_rate", failed / len(samples), "ratio", len(samples), f"{failed} failed")
    metrics = {k: {"value": diag[k]["value"], "unit": diag[k]["unit"]}
               for k in ("cycle_s", "setup_s", "peak_rss_mb")}
    return metrics, samples, lines


def traced(workload, pool, work, seconds, setup, spans) -> tuple[dict, list[Sample], list[str]]:
    verify = Verifier()
    untraced_cycles = run_cycles(
        workload, pool, work, seconds / 2, lambda op: untraced_op(op, work, verify), setup
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_cycles = run_cycles(
            workload, pool, work, seconds / 2, lambda op: traced_op(op, work, verify, tracer, spans)
        )
        alloc_cycle = []
        if "merge" in workload.kinds:
            tracer.track_alloc = True
            alloc_cycle = [traced_op(op, work, verify, tracer, spans)
                           for op in workload.make_ops(pool, work, len(traced_cycles))]
    finally:
        tracer.remove()

    per_cycle = [tracing.cycle_metrics([s.layers for s in c]) for c in traced_cycles]
    layers = {name: statistics.median(c[name] for c in per_cycle) for name in tracing.LAYER_METRICS}
    if alloc_cycle:
        alloc = tracing.cycle_metrics([s.layers for s in alloc_cycle])
        layers["merge.peak_alloc_mb"] = alloc["merge.peak_alloc_mb"]
        layers["merge.alloc_per_output"] = alloc["merge.alloc_per_output"]

    setup_s = statistics.median(setup)
    lines = []
    overhead = 0.0
    for kind in workload.kinds:
        plain = statistics.median(s.wall_s for c in untraced_cycles for s in c if s.kind == kind)
        wall = statistics.median(s.wall_s for c in traced_cycles for s in c if s.kind == kind)
        self_sum = statistics.median(
            sum(v for k, v in s.layers.items() if k in tracing.SELF_TIME.values()
                and k != "checkpoint.inspect_s")
            for c in traced_cycles for s in c if s.kind == kind
        )
        overhead += wall + setup_s - plain
        lines.append(
            f"accounting {KIND_METRIC[kind]}: layer self times {self_sum:.4f} s + setup_s {setup_s:.4f} s"
            f" = {self_sum + setup_s:.4f} s vs untraced {plain:.4f} s;"
            f" trace.overhead_s {wall + setup_s - plain:+.4f} s"
        )
    layers["trace.overhead_s"] = overhead
    for name, (unit, _) in tracing.LAYER_METRICS.items():
        lines.append(f"{name:<34} {layers[name]:>16.6f} {unit:<6} n={len(per_cycle)}")
    samples = [s for c in [*untraced_cycles, *traced_cycles, alloc_cycle] for s in c]
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, (unit, _) in tracing.LAYER_METRICS.items()}
    return metrics, samples, lines


def check_source() -> str | None:
    """The benchmark runs the package in `src/` of its own checkout."""
    if not (SRC / "layermerge" / "cli.py").is_file():
        return f"no layermerge sources under {SRC}; run from the root of a source checkout"
    sys.path.insert(0, str(SRC))
    import layermerge

    if Path(layermerge.__file__).resolve().parent != (SRC / "layermerge").resolve():
        return f"layermerge imported from {layermerge.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(pools.SCALES), default="full",
                        help="pool size; 'mini' is for the smoke test only")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    problem = check_source()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_PARENT))
    spans: list[dict] = []
    try:
        started = time.perf_counter()
        pool = workload.make_pool(work, args.seed, args.scale)
        generate_s = time.perf_counter() - started
        inputs = pool.record()
        setup = measure_setup(work, SETUP_FIRST)
        if args.trace:
            metrics, samples, lines = traced(workload, pool, work, args.seconds, setup, spans)
        else:
            metrics, samples, lines = end_to_end(workload, pool, work, args.seconds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_PARENT.rmdir()

    machine = machine_record()
    failed = [s for s in samples if s.error is not None]
    pool_bytes = sum(i["bytes"] for i in inputs)
    l3 = l3_bytes(machine["l3_cache"])
    record = {
        "workload": args.workload, "why": workload.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "machine": machine, "inputs": inputs,
        "generate_s": generate_s, "pool_bytes": pool_bytes,
        "pool_to_l3": pool_bytes / l3 if l3 else None,
        "samples": [{"kind": s.kind, "wall_s": s.wall_s, "rss_mb": s.rss_mb, "error": s.error}
                    for s in samples],
        "setup_samples": setup,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if spans:
        with open(RESULTS / f"{stem}-spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)

    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds}"
          f" trace={args.trace} scale={args.scale}")
    print(f"why: {workload.why}")
    print("machine: " + json.dumps(machine))
    ratio = f"{record['pool_to_l3']:.2f}x L3" if record["pool_to_l3"] else "L3 unknown"
    print(f"pool: {pool_bytes / MB:.1f} MB generated in {generate_s:.2f} s"
          f" ({ratio}; bandwidths are computed bytes)")
    for item in inputs:
        print(f"input {item['file']} {item['bytes']} bytes blake2b={item['blake2b']}")
    for line in lines:
        print(line)
    for s in failed[:5]:
        print(f"FAILED {s.kind}: {s.error}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

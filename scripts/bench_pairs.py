#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and summarise them.

    python scripts/bench_pairs.py PARENT CHANGE --workload toy-donors --seeds 701-710 \\
        --trace-seeds 721 --guard dense-layerwise=731-733 --record BENCH_toy-donors.json

PARENT and CHANGE are git revisions of this repository. Each is exported with
``git archive`` into ``.bench_pairs/`` and compiled there with
``compileall``, so both sides read cached bytecode, and every child runs
with ``PYTHONDONTWRITEBYTECODE=1``, so neither side's bytecode changes during
the runs. A pair runs ``benchmark/run.py`` once on each side with the same
seed, for the ``run_seconds`` that ``BENCHMARK.json`` sets, parent first on
even pairs and change first on odd ones. Each run's result is kept in
``.bench_pairs/`` and reused when the script is run again, so an interrupted
series resumes where it stopped.

The script prints each side's median and quartiles of every end-to-end
metric that ``BENCHMARK.json`` declares, and the number of pairs the change
won. With ``--record`` it appends one record to that file, in the schema of
the ``BENCH_*.json`` files: the pairs and their summary, the traced pairs
(``--trace 1``) and the guard pairs run on other workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_pairs"
SIDES = ("parent", "change")
EXPORTED = ".exported"  # written once the export is unpacked and compiled


def seed_range(text: str) -> list[int]:
    """``"701-710"`` or ``"701"`` as a list of seeds."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def guard(text: str) -> tuple[str, list[int]]:
    workload, sep, seeds = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=SEEDS, got {text!r}")
    return workload, seed_range(seeds)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(commit: str, dest: Path) -> None:
    """A clean tree of ``commit`` at ``dest``, its sources compiled."""
    if (dest / EXPORTED).is_file():
        return
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "benchmark"],
                   cwd=dest, check=True)
    (dest / EXPORTED).write_text(commit + "\n")


def bench(tree: Path, cache: Path, workload: str, seed: int, seconds: float,
          trace: int) -> dict:
    """The final JSON line of one benchmark run, and its machine record."""
    if cache.is_file():
        return json.loads(cache.read_text())
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree.name} {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    machine = json.loads(next(ln for ln in lines if ln.startswith("machine: "))[9:])
    machine.pop("git_commit", None)  # an export is no checkout; the record names the commits
    result["machine"] = machine
    cache.write_text(json.dumps(result) + "\n")
    return result


def run_pairs(work: Path, workload: str, seeds: list[int], seconds: float, trace: int,
              metrics: list[str]) -> tuple[list[dict], dict]:
    pairs, machine = [], {}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        caches = {side: work / "runs" / f"{workload}-seed{seed}-trace{trace}-{side}.json"
                  for side in SIDES}
        pair = {"seed": seed}
        for side in order:
            result = bench(work / side, caches[side], workload, seed, seconds, trace)
            machine = result["machine"]
            values = {name: m["value"] for name, m in result["metrics"].items()}
            pair[side] = (values if trace else
                          {**{name: values[name] for name in metrics},
                           **{k: result[k] for k in ("correct", "attempted", "failed")}})
        # the side that ran first, also when the runs come from an earlier series
        pair = {"seed": seed, "first": min(SIDES, key=lambda side: caches[side].stat().st_mtime),
                **{side: pair[side] for side in SIDES}}
        pairs.append(pair)
        if not trace:
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {pair['parent'][name]:.4f} -> {pair['change'][name]:.4f}"
                for name in metrics), flush=True)
    return pairs, machine


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """Each metric's median and quartiles on both sides, and the pairs the change won."""
    summary = {}
    for name, direction in better.items():
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        row = {}
        for side in SIDES:
            row[f"{side}_median"] = statistics.median(values[side])
            q1, _, q3 = (statistics.quantiles(values[side], n=4, method="inclusive")
                         if len(pairs) > 1 else values[side] * 3)
            row[f"{side}_q1"], row[f"{side}_q3"] = q1, q3
        sign = 1 if direction == "lower" else -1
        row["change_better_pairs"] = sum(
            sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        row["pairs"] = len(pairs)
        row["change_over_parent"] = (row["change_median"] / row["parent_median"]
                                     if row["parent_median"] else None)
        summary[name] = row
    return summary


def show(workload: str, summary: dict) -> None:
    for name, row in summary.items():
        print(f"{workload} {name}: parent {row['parent_median']:.4f} "
              f"[{row['parent_q1']:.4f}-{row['parent_q3']:.4f}]  change "
              f"{row['change_median']:.4f} [{row['change_q1']:.4f}-{row['change_q3']:.4f}]  "
              f"change won {row['change_better_pairs']} of {row['pairs']}")


def append_record(path: Path, record: dict) -> None:
    """Append ``record`` to the JSON list of records in ``path``, or start
    the list. Every byte before the list's closing ``]`` is kept, so no
    earlier record is rewritten: the new one goes in before it."""
    text = path.read_text() if path.exists() else "[]"
    records = json.loads(text)
    if not isinstance(records, list):
        raise SystemExit(f"{path} holds no JSON list of records")
    entry = textwrap.indent(json.dumps(record, indent=1), " ")
    head = text[:text.rindex("]")]
    path.write_text(head + (", " + entry.lstrip() if records else "\n" + entry) + "\n]\n")


def command(workload: str, seconds: float, trace: int, seed="N") -> str:
    return (f"python3 benchmark/run.py --workload {workload} --seed {seed} "
            f"--seconds {seconds:g} --trace {trace}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="git revision of the parent side")
    parser.add_argument("change", help="git revision of the change side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 701-710")
    parser.add_argument("--trace-seeds", type=seed_range, default=[],
                        help="seeds of traced pairs (--trace 1) on the same workload")
    parser.add_argument("--guard", type=guard, action="append", default=[],
                        help="WORKLOAD=SEEDS: pairs run on another workload")
    parser.add_argument("--record", type=Path, help="BENCH_*.json file to append a record to")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    commits = {side: git("rev-parse", f"{ref}^{{commit}}")
               for side, ref in zip(SIDES, (args.parent, args.change))}
    work = WORK / f"{commits['parent'][:12]}-{commits['change'][:12]}"
    (work / "runs").mkdir(parents=True, exist_ok=True)
    for side in SIDES:
        export(commits[side], work / side)

    pairs, machine = run_pairs(work, args.workload, args.seeds, seconds, 0, list(better))
    summary = summarise(pairs, better)
    show(args.workload, summary)
    traces = []
    for pair in run_pairs(work, args.workload, args.trace_seeds, seconds, 1, [])[0]:
        seed = pair["seed"]
        traces.append({"command": command(args.workload, seconds, 1, seed), **pair})
        for name in sorted(pair["parent"]):
            if pair["parent"][name] or pair["change"][name]:
                print(f"  trace seed {seed} {name}: {pair['parent'][name]:.6f} -> "
                      f"{pair['change'][name]:.6f}")
    guards = {}
    for workload, seeds in args.guard:
        guard_pairs, _ = run_pairs(work, workload, seeds, seconds, 0, list(better))
        guards[workload] = {"command": command(workload, seconds, 0),
                            "pairs": guard_pairs, "summary": summarise(guard_pairs, better)}
        show(workload, guards[workload]["summary"])

    if args.record:
        method = ("alternating parent/change pairs on one machine, run by "
                  "scripts/bench_pairs.py: each side from a clean git archive export of its "
                  "commit, compiled in place with compileall (src/ and benchmark/) and run "
                  "with PYTHONDONTWRITEBYTECODE=1; 'first' names the side that ran first; "
                  "quartiles are statistics.quantiles(n=4, method='inclusive'). 'trace' "
                  "holds the traced pairs; 'guards' holds the pairs run on other workloads")
        record = {
            "workload": args.workload,
            "command": command(args.workload, seconds, 0),
            "method": method,
            "parent_commit": commits["parent"],
            "change_commit": commits["change"],
            "machine": machine,
            "pairs": pairs,
            "summary": summary,
            "trace": traces,
            "guards": guards,
        }
        append_record(args.record, record)
        print(f"appended a record of {len(pairs)} pairs to {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

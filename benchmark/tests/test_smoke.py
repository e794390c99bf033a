"""Smoke test of the benchmark on miniature pools.

    python -m pytest benchmark/tests -q

Runs every workload untraced and traced at `--scale mini` for one second
each and checks the printed report and the final JSON line.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LINE = re.compile(r"^(\S+)\s+(-?[\d.]+(?:e[-+]?\d+)?)\s+(\S+)\s+n=(\d+)")

# Report lines every untraced run prints, and those tied to an operation kind.
COMMON = {"setup_s": "s", "cycle_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}
BY_WORKLOAD = {
    "dense-layerwise": {"merge_s": "s", "merge_mb_per_s": "MB/s"},
    "many-tensors": {"merge_s": "s", "merge_mb_per_s": "MB/s", "profile_s": "s"},
    "fisher-dense": {"merge_s": "s", "merge_mb_per_s": "MB/s"},
    "toy-donors": {"toy_s": "s"},
}


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "mini"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def report(stdout):
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3), int(m.group(4)))
    return result, printed


def check_result(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec_metrics
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_report(workload):
    proc = run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result, printed = report(proc.stdout)
    check_result(result, SPEC["end_to_end"])
    for name, unit in {**COMMON, **BY_WORKLOAD[workload]}.items():
        value, printed_unit, n = printed[name]
        assert printed_unit == unit and n >= 1, name
    assert printed["error_rate"][0] == 0
    assert all(result["metrics"][k]["value"] > 0 for k in result["metrics"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_report(workload):
    proc = run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result, printed = report(proc.stdout)
    check_result(result, SPEC["per_layer"])
    for metric in SPEC["per_layer"]:
        value, unit, n = printed[metric["name"]]
        assert unit == metric["unit"] and n >= 1
    assert "accounting" in proc.stdout


def test_every_end_to_end_name_is_printed_somewhere():
    names = set(COMMON)
    for extra in BY_WORKLOAD.values():
        names |= set(extra)
    assert {"setup_s", "merge_s", "merge_mb_per_s", "profile_s", "toy_s",
            "peak_rss_mb", "error_rate"} <= names
    assert set(BY_WORKLOAD) == set(WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout

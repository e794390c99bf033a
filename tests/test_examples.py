"""The committed example configs, the README's demo script, the line
counter and the benchmark record writer still run."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from layermerge.cli import main
from layermerge.toy import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def test_configs_are_present():
    assert {p.name for p in CONFIGS} >= {"checkpoint_merge.json", "shifted_donors.json"}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_config_parses(path):
    cfg = ExperimentConfig.from_json(path.read_text())
    assert cfg.mode in ("donors", "checkpoints")


def test_checkpoint_merge_config_runs(tmp_path, capsys):
    payload = json.loads((ROOT / "configs" / "checkpoint_merge.json").read_text())
    payload["epochs"] = 2
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(payload))
    assert main(["toy", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["mode"] == "checkpoints"
    assert {row["checkpoints"] for row in report["merges"]} == {1, 2}


def test_demo_workflow_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "demo_workflow.py"), "--epochs", "2",
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    for strategy in ("layerwise", "isotropic", "scalar", "fisher"):
        assert (tmp_path / f"merged_{strategy}.st").is_file()
    assert (tmp_path / "anchor_vs_donor1.csv").is_file()


def test_count_lines_skips_blank_comment_and_docstring_lines():
    count = runpy.run_path(str(ROOT / "scripts" / "count_lines.py"))["count"]
    text = ('"""Doc\n\nstring."""\n\n# note\nx = 1  # set\n\n\n'
            'def f():\n    """One line."""\n    return "not a docstring"\n')
    assert count(text) == (11, 3)


def test_bench_pairs_record_appended_after_every_earlier_byte(tmp_path):
    append = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))["append_record"]
    path = tmp_path / "BENCH_w.json"
    append(path, {"workload": "w", "pairs": [1]})
    assert path.read_text() == json.dumps([{"workload": "w", "pairs": [1]}], indent=1) + "\n"
    # a committed record file, whose indent the writer of its records chose
    old = (ROOT / "BENCH_fisher-dense.json").read_text()
    path.write_text(old)
    append(path, {"workload": "w", "pairs": [2]})
    new = path.read_text()
    assert new.startswith(old[:old.rindex("]")])
    assert json.loads(new) == [*json.loads(old), {"workload": "w", "pairs": [2]}]

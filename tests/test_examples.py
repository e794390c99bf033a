"""The committed example configs and the README's demo script still run."""

import json
import os
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

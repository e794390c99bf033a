import gc
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from layermerge import Checkpoint, isotropic_merge, load, save, shared_parameters
from layermerge import checkpoint as ckpt_store
from layermerge import cli as cli_module
from layermerge import merge as merge_module
from layermerge.cli import main
import layermerge.toy.experiment as experiment
from layermerge.toy import ToyModel, estimate_fisher, make_domain_pair

from conftest import (
    DEEP_JSON, HEADERS_PAST_LIMITS, LONG_INT_JSON, clone_with_noise, counting_reads,
    make_checkpoint, patch_header, write_raw_header,
)


@pytest.fixture
def pair(tmp_path, rng):
    a = make_checkpoint([(3, 2), (2, 3), (4, 2)], rng, metadata={"performance": "46.9"})
    b = clone_with_noise(a, rng)
    b.metadata["performance"] = "45.2"
    pa, pb = tmp_path / "a.st", tmp_path / "b.st"
    save(a, pa)
    save(b, pb)
    return pa, pb


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def run_child(script, *argv, cwd):
    """Run the Python source ``script`` with ``argv`` in a fresh interpreter
    that imports this checkout's package."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script, *map(str, argv)], cwd=cwd,
                          capture_output=True, text=True, env=env, timeout=120)


class TestMerge:
    def test_self_merge_is_identity(self, pair, tmp_path, capsys):
        pa, _ = pair
        out = tmp_path / "m.st"
        code, _, err = run(capsys, "merge", pa, pa, "--anchor", "0",
                           "--strategy", "layerwise", "--out", out)
        assert code == 0
        assert err.strip()  # one-line summary on stderr
        merged = load(out)
        original = load(pa)
        for t in original.tensors:
            np.testing.assert_allclose(merged.get(t.name).data, t.data, atol=1e-12)

    def test_anchor_by_path(self, pair, tmp_path, capsys):
        pa, pb = pair
        out = tmp_path / "m.st"
        code, _, _ = run(capsys, "merge", pa, pb, "--anchor", pb,
                         "--strategy", "layerwise", "--out", out)
        assert code == 0
        assert load(out).metadata["merge_anchor"] == "1"

    def test_layerwise_requires_anchor(self, pair, tmp_path, capsys):
        pa, pb = pair
        code, _, err = run(capsys, "merge", pa, pb, "--strategy", "layerwise",
                           "--out", tmp_path / "m.st")
        assert code == 1
        assert "anchor" in err

    def test_disjoint_heads_reported(self, tmp_path, rng, capsys):
        anchor = Checkpoint.from_arrays(
            {"bb.weight": rng.standard_normal((4, 4)),
             "seg_head.weight": rng.standard_normal((19, 4))}
        )
        donor = Checkpoint.from_arrays(
            {"bb.weight": rng.standard_normal((4, 4)),
             "pan_head.weight": rng.standard_normal((11, 4))}
        )
        pa, pb = tmp_path / "a.st", tmp_path / "b.st"
        save(anchor, pa)
        save(donor, pb)
        out = tmp_path / "m.st"
        code, stdout, _ = run(capsys, "merge", pa, pb, "--anchor", "0",
                              "--strategy", "layerwise", "--out", out)
        assert code == 0
        assert "anchor_only" in stdout and "seg_head.weight" in stdout
        assert np.array_equal(load(out).get("seg_head.weight").data,
                              anchor.get("seg_head.weight").data)

    def test_scalar_uses_metadata_scores(self, pair, tmp_path, capsys):
        pa, pb = pair
        out = tmp_path / "m.st"
        code, stdout, _ = run(capsys, "merge", pa, pb, "--strategy", "scalar", "--out", out)
        assert code == 0
        w = 46.9 / (46.9 + 45.2)
        assert f"{w:.6f}" in stdout
        a, b = load(pa), load(pb)
        expected = w * a.get("layer0.weight").data + (1 - w) * b.get("layer0.weight").data
        np.testing.assert_allclose(load(out).get("layer0.weight").data, expected, atol=1e-12)

    @pytest.mark.parametrize("source", ["--perf", "metadata"])
    def test_scalar_prints_the_weights_it_used(self, tmp_path, rng, capsys, source):
        # the scores' float sum overflows; the merge normalises them exactly
        a = make_checkpoint([(3, 2)], rng, metadata={"performance": "1e308"})
        pa, pb, out = tmp_path / "a.st", tmp_path / "b.st", tmp_path / "m.st"
        save(a, pa)
        save(clone_with_noise(a, rng), pb)
        perf = ["--perf", "1e308", "1e308"] if source == "--perf" else []
        code, stdout, err = run(capsys, "merge", pa, pb, "--strategy", "scalar", *perf,
                                "--out", out)
        assert code == 0 and len(err.splitlines()) == 1
        assert "weights: 0.500000, 0.500000" in stdout
        pool = [load(pa), load(pb)]
        expected = isotropic_merge(pool, shared_parameters(pool, 0))
        assert all(np.array_equal(load(out).get(t.name).data, t.data) for t in expected.tensors)

    def test_isotropic_matches_library(self, pair, tmp_path, capsys):
        pa, pb = pair
        out = tmp_path / "m.st"
        code, stdout, err = run(capsys, "merge", pa, pb, "--strategy", "isotropic",
                                "--out", out)
        assert code == 0
        assert "uniform weights 1/2" in stdout and "isotropic" in err
        pool = [load(pa), load(pb)]
        expected = isotropic_merge(pool, shared_parameters(pool, 0))
        merged = load(out)
        assert merged.names() == expected.names() and merged.metadata == expected.metadata
        for t in expected.tensors:
            assert np.array_equal(merged.get(t.name).data, t.data)

    def test_w0_at_uniform_warns_in_one_line(self, pair, tmp_path, capsys):
        pa, pb = pair
        out = tmp_path / "m.st"
        code, _, err = run(capsys, "merge", pa, pb, "--anchor", "0", "--strategy",
                           "layerwise", "--w0", "0.5", "--out", out)
        assert code == 0 and out.exists()
        assert "warning: first-layer weight equals 1/M" in err
        assert ".py:" not in err

    def test_scalar_missing_metadata_is_data_error(self, tmp_path, rng, capsys):
        a = make_checkpoint([(2, 2)], rng)
        pa = tmp_path / "a.st"
        save(a, pa)
        code, _, err = run(capsys, "merge", pa, pa, "--strategy", "scalar",
                           "--out", tmp_path / "m.st")
        assert code == 2
        assert "performance" in err

    def test_invalid_w0_usage_error(self, pair, tmp_path, capsys):
        pa, pb = pair
        out = tmp_path / "m.st"
        code, _, err = run(capsys, "merge", pa, pb, "--anchor", "0", "--strategy",
                           "layerwise", "--w0", "0.9", "--out", out)
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("w0", ["inf", "nan"])
    def test_non_finite_w0_usage_error(self, pair, tmp_path, capsys, w0):
        pa, pb = pair
        out = tmp_path / "m.st"
        code, _, err = run(capsys, "merge", pa, pb, "--anchor", "0", "--strategy",
                           "layerwise", "--w0", w0, "--out", out)
        assert code == 1
        assert "usage error" in err and "Traceback" not in err
        assert not out.exists()

    def test_non_finite_merged_output_exit_2(self, tmp_path, capsys):
        big = np.finfo(np.float64).max
        paths = [tmp_path / f"m{i}.st" for i in range(4)]
        for path in paths:
            save(Checkpoint.from_arrays({"layer0.weight": np.array([big, -big])}), path)
        out = tmp_path / "merged.st"
        code, _, err = run(capsys, "merge", *paths, "--strategy", "scalar", "--perf",
                           "0.6331871446860424", "0.09401534358238482",
                           "0.8426441476533978", "0.7970983074886834", "--out", out)
        assert code == 2
        assert "layer0.weight" in err and "not finite" in err
        assert not out.exists()

    def test_input_truncated_after_open_exit_2(self, pair, tmp_path, capsys, monkeypatch):
        pa, pb = pair
        read_header = ckpt_store._read_header

        def then_truncate(fh, path):
            parsed = read_header(fh, path)
            if path == str(pb):  # the non-anchor input
                pb.write_bytes(pb.read_bytes()[:-8])
            return parsed

        monkeypatch.setattr(ckpt_store, "_read_header", then_truncate)
        out = tmp_path / "m.st"
        code, _, err = run(capsys, "merge", pa, pb, "--anchor", "0",
                           "--strategy", "layerwise", "--out", out)
        assert code == 2
        assert "shrank" in err and "Traceback" not in err
        assert not out.exists() and not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("where", ["merge", "save"])
    def test_interrupt_exit_130_without_traceback(self, pair, tmp_path, capsys, monkeypatch,
                                                  where):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        if where == "merge":  # the kernel of one tensor and of a block of tensors
            monkeypatch.setattr(merge_module, "_weighted_sum", interrupt)
            monkeypatch.setattr(merge_module._Blocks, "merge", interrupt)
        else:  # the temporary file is written and about to be synced
            monkeypatch.setattr(os, "fsync", interrupt)
        out = tmp_path / "m.st"
        code, stdout, err = run(capsys, "merge", *pair, "--anchor", "0",
                                "--strategy", "layerwise", "--out", out)
        assert code == 130
        assert err == "interrupted\n" and stdout == ""
        assert not out.exists() and not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("name", ["layer2.weight", "layer2.bias"])
    def test_nan_in_unblended_non_anchor_tensor_exit_2(self, tmp_path, rng, capsys, name):
        # layer2 is the head: the donor's is shaped differently, so only the
        # anchor's is kept and the donor's is never blended
        anchor = make_checkpoint([(3, 2), (2, 3), (4, 2)], rng)
        arrays = {t.name: t.data.copy() for t in anchor.tensors}
        arrays["layer2.weight"] = np.zeros((5, 2))
        arrays["layer2.bias"] = np.zeros(5)
        arrays[name].flat[0] = np.nan
        pa, pb = tmp_path / "a.st", tmp_path / "b.st"
        save(anchor, pa)
        save(Checkpoint.from_arrays(arrays), pb)
        out = tmp_path / "m.st"
        code, _, err = run(capsys, "merge", pa, pb, "--anchor", "0",
                           "--strategy", "layerwise", "--out", out)
        assert code == 2
        assert f"non-finite values in tensor '{name}' of model 1" in err
        assert not out.exists()

    def test_descriptors_closed_without_resource_warnings(self, tmp_path, rng):
        paths = []
        for i in range(3):
            model = make_checkpoint([(2, 2), (3, 2)], rng)
            fisher = Checkpoint.from_arrays({t.name: rng.random(t.shape) for t in model.tensors})
            paths += [tmp_path / f"m{i}.st", tmp_path / f"f{i}.st"]
            save(model, paths[-2])
            save(fisher, paths[-1])
        bad = make_checkpoint([(2, 2), (3, 2)], rng)
        bad.tensors[0].data[0, 0] = np.inf
        save(bad, tmp_path / "bad.st")
        models, fishers = paths[::2], paths[1::2]
        runs = [
            (0, ["--strategy", "fisher", *models, "--fisher", *fishers]),
            (2, ["--strategy", "isotropic", *models, tmp_path / "bad.st"]),
        ]
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        for expected, argv in runs:
            # development mode shows every ResourceWarning
            proc = subprocess.run(
                [sys.executable, "-X", "dev", "-m", "layermerge", "merge", *map(str, argv),
                 "--out", str(tmp_path / "out.st")],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == expected, proc.stderr
            assert "ResourceWarning" not in proc.stderr and "unclosed" not in proc.stderr

    def test_no_shared_parameters_exit_2(self, tmp_path, rng, capsys):
        a = Checkpoint.from_arrays({"x.weight": rng.standard_normal((2, 2))})
        b = Checkpoint.from_arrays({"y.weight": rng.standard_normal((2, 2))})
        pa, pb = tmp_path / "a.st", tmp_path / "b.st"
        save(a, pa)
        save(b, pb)
        code, _, err = run(capsys, "merge", pa, pb, "--anchor", "0",
                           "--strategy", "layerwise", "--out", tmp_path / "m.st")
        assert code == 2
        assert "no shared parameters" in err

    def test_fisher_requires_fisher_files(self, pair, tmp_path, capsys):
        pa, pb = pair
        code, _, _ = run(capsys, "merge", pa, pb, "--strategy", "fisher",
                         "--out", tmp_path / "m.st")
        assert code == 1

    def test_fisher_merge_flow(self, tmp_path, rng, capsys):
        pool_paths, fisher_paths = [], []
        for i in range(2):
            ckpt = make_checkpoint([(2, 2)], rng)
            fisher = Checkpoint.from_arrays(
                {t.name: rng.random(t.shape) for t in ckpt.tensors}
            )
            pc, pf = tmp_path / f"m{i}.st", tmp_path / f"f{i}.st"
            save(ckpt, pc)
            save(fisher, pf)
            pool_paths.append(pc)
            fisher_paths.append(pf)
        out = tmp_path / "m.st"
        code, _, _ = run(capsys, "merge", *pool_paths, "--strategy", "fisher",
                         "--fisher", *fisher_paths, "--out", out)
        assert code == 0
        assert load(out).metadata["merge_strategy"] == "fisher"

    def test_fisher_file_missing_a_tensor_fails_before_any_read(self, tmp_path, rng, capsys,
                                                                monkeypatch):
        # the merge checks its inputs against the alignment before it reads
        # a tensor, so the tensors before the missing one are never merged
        models, fishers = [], []
        for i in range(3):
            model = make_checkpoint([(4, 4), (4, 4), (4, 4)], rng)
            fisher = {t.name: rng.random(t.shape) for t in model.tensors
                      if (i, t.name) != (1, "layer2.weight")}
            models.append(tmp_path / f"m{i}.st")
            fishers.append(tmp_path / f"f{i}.st")
            save(model, models[-1])
            save(Checkpoint.from_arrays(fisher), fishers[-1])
        out = tmp_path / "m.st"
        reads = counting_reads(monkeypatch)
        code, _, err = run(capsys, "merge", *models, "--strategy", "fisher",
                           "--fisher", *fishers, "--out", out)
        assert code == 2
        assert "model 1 has no Fisher tensor for shared tensor 'layer2.weight'" in err
        assert not out.exists() and not list(tmp_path.glob("*.tmp"))
        assert reads == []

    def test_unknown_flag_rejected(self, pair, tmp_path, capsys):
        pa, pb = pair
        code, _, _ = run(capsys, "merge", pa, pb, "--strategy", "layerwise",
                         "--anchor", "0", "--out", tmp_path / "m.st", "--bogus")
        assert code == 1

    @pytest.mark.parametrize("strategy, flag, values", [
        ("layerwise", "--fisher", ["nope1", "nope2", "nope3"]),  # files never opened
        ("isotropic", "--fisher", ["nope1", "nope2", "nope3"]),
        ("isotropic", "--perf", ["1", "2", "3"]),
        ("layerwise", "--perf", ["1", "2", "3"]),
        ("isotropic", "--w0", ["5"]),  # layer-wise would reject 5 > 1/3
        ("scalar", "--w0", ["0.1"]),
        ("fisher", "--s", ["1"]),
        ("isotropic", "--s", ["2"]),
    ])
    def test_flag_of_another_strategy_usage_error(self, tmp_path, rng, capsys,
                                                  strategy, flag, values):
        base = make_checkpoint([(3, 2), (2, 3)], rng, metadata={"performance": "1"})
        paths = [tmp_path / f"m{i}.st" for i in range(3)]
        for path in paths:
            save(clone_with_noise(base, rng), path)
        out = tmp_path / "m.st"
        code, stdout, err = run(capsys, "merge", *paths, "--anchor", "0", "--strategy", strategy,
                                flag, *values, "--out", out)
        assert code == 1 and stdout == ""
        assert err.startswith(f"usage error: {flag} applies only to --strategy ")
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--strategy", "layerwise", "--anchor", "abc"], "neither an input path nor an index"),
        (["--strategy", "fisher", "--fisher", "f0.st"], "1 --fisher files for 2 inputs"),
        (["--strategy", "scalar", "--perf", "1"], "1 --perf scores for 2 inputs"),
        (["--strategy", "scalar", "--perf", "0", "1"], "positive reals"),
        (["--strategy", "scalar", "--perf", "-1", "1"], "positive reals"),
        (["--strategy", "scalar", "--perf", "nan", "1"], "positive reals"),
        (["--strategy", "scalar", "--perf", "inf", "1"], "positive reals"),
    ])
    def test_bad_flag_value_usage_error(self, pair, tmp_path, capsys, args, message):
        out = tmp_path / "m.st"
        code, stdout, err = run(capsys, "merge", *pair, *args, "--out", out)
        assert code == 1 and stdout == ""
        assert err.startswith("usage error: ") and message in err
        assert not out.exists()

    def test_anchor_index_out_of_range(self, pair, tmp_path, capsys):
        pa, pb = pair
        code, _, err = run(capsys, "merge", pa, pb, "--anchor", "5",
                           "--strategy", "layerwise", "--out", tmp_path / "m.st")
        assert code == 1
        assert "out of range" in err

    def test_deterministic_output_bytes(self, pair, tmp_path, capsys):
        pa, pb = pair
        o1, o2 = tmp_path / "m1.st", tmp_path / "m2.st"
        for o in (o1, o2):
            assert run(capsys, "merge", pa, pb, "--anchor", "0",
                       "--strategy", "layerwise", "--out", o)[0] == 0
        assert o1.read_bytes() == o2.read_bytes()


class TestProfile:
    def test_self_profile_zero(self, pair, tmp_path, capsys):
        pa, _ = pair
        out = tmp_path / "p.csv"
        code, _, err = run(capsys, "profile", pa, pa, "--tau", "5", "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "layer_index,kind,exceed_count,total_count,fraction"
        assert all(line.split(",")[2] == "0" for line in lines[1:])
        assert "flagged 0.0000" in err

    def test_missing_tau_usage_error(self, pair, capsys):
        pa, pb = pair
        code, _, _ = run(capsys, "profile", pa, pb)
        assert code == 1

    @pytest.mark.parametrize("tau", ["0", "-1", "inf", "nan"])
    def test_bad_tau_usage_error(self, pair, tmp_path, capsys, tau):
        pa, pb = pair
        out = tmp_path / "p.csv"
        code, _, err = run(capsys, "profile", pa, pb, "--tau", tau, "--out", out)
        assert code == 1
        assert "usage error" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("mode, weight_count", [("elementwise", 2), ("layer_norm", 0)])
    def test_tau_that_overflows_flags_only_zero_references(self, tmp_path, capsys, mode,
                                                            weight_count):
        # every threshold of a non-zero reference overflows to inf
        a = Checkpoint.from_arrays({"layer0.weight": np.array([[0.0, 1.0], [2.0, 0.0]]),
                                    "layer0.bias": np.zeros(2)})
        pa, pb, out = tmp_path / "a.st", tmp_path / "b.st", tmp_path / "p.csv"
        save(a, pa)
        save(Checkpoint.from_arrays({t.name: t.data + 1.0 for t in a.tensors}), pb)
        code, _, err = run(capsys, "profile", pa, pb, "--tau", "1e-320", "--mode", mode,
                           "--out", out)
        assert code == 0 and len(err.splitlines()) == 1, err
        rows = {tuple(line.split(",")[1:4]) for line in out.read_text().splitlines()[1:]}
        assert rows == {("weight", str(weight_count), "4"), ("bias", "2", "2")}

    @pytest.mark.parametrize("mode, ref, other, exceed", [
        ("layer_norm", 1e200, -1e200, 4),  # the sum of squares overflows
        ("layer_norm", 1e-170, 1.05e-170, 0),  # the sum of squares underflows
        ("elementwise", 1e308, -1e308, 4),  # the difference overflows
        ("layer_norm", 1e308, -1e308, 4),  # both do
    ])
    def test_finite_values_near_the_float_range(self, tmp_path, capsys, mode, ref, other, exceed):
        pa, pb, out = tmp_path / "a.st", tmp_path / "b.st", tmp_path / "p.csv"
        save(Checkpoint.from_arrays({"layer0.weight": np.full((2, 2), ref)}), pa)
        save(Checkpoint.from_arrays({"layer0.weight": np.full((2, 2), other)}), pb)
        code, _, err = run(capsys, "profile", pa, pb, "--tau", "5", "--mode", mode, "--out", out)
        assert code == 0 and len(err.splitlines()) == 1, err  # no warning
        assert out.read_text().splitlines()[1].split(",")[1:4] == ["weight", str(exceed), "4"]

    def test_csv_json_same_rows(self, pair, tmp_path, capsys):
        pa, pb = pair
        pcsv, pjson = tmp_path / "p.csv", tmp_path / "p.json"
        assert run(capsys, "profile", pa, pb, "--tau", "8", "--out", pcsv)[0] == 0
        assert run(capsys, "profile", pa, pb, "--tau", "8", "--format", "json",
                   "--out", pjson)[0] == 0
        csv_rows = {tuple(line.split(",")[:4]) for line in pcsv.read_text().splitlines()[1:]}
        json_rows = {
            (str(r["layer_index"]), r["kind"], str(r["exceed_count"]), str(r["total_count"]))
            for r in json.loads(pjson.read_text())["rows"]
        }
        assert csv_rows == json_rows

    def test_failed_write_leaves_nothing(self, pair, tmp_path, capsys, monkeypatch):
        def fail(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(os, "replace", fail)
        pa, pb = pair
        out = tmp_path / "p.csv"
        code, _, err = run(capsys, "profile", pa, pb, "--tau", "5", "--out", out)
        assert code == 2
        assert "simulated rename failure" in err
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_stdout_when_no_out(self, pair, capsys):
        pa, _ = pair
        code, stdout, _ = run(capsys, "profile", pa, pa, "--tau", "5")
        assert code == 0
        assert stdout.startswith("layer_index,kind")


@pytest.mark.parametrize("argv", [
    ["merge", "--anchor", "0", "--strategy", "layerwise"],
    ["profile", "--tau", "5"],
])
def test_out_in_missing_directory_names_the_target(pair, tmp_path, capsys, argv):
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "missing" / "result"
    code, _, err = run(capsys, argv[0], *pair, *argv[1:], "--out", out)
    assert code == 2
    assert f"No such file or directory: '{out}'" in err and ".tmp" not in err
    assert sorted(tmp_path.rglob("*")) == before


class TestCollector:
    """``main`` collects rarely while it runs and gives the caller back its
    collector thresholds however it ends."""

    @pytest.fixture
    def caller(self):
        saved = gc.get_threshold()
        gc.set_threshold(123, 7, 9)
        yield (123, 7, 9)
        gc.set_threshold(*saved)

    @pytest.mark.parametrize("ending, code", [
        ("success", 0), ("usage", 1), ("data", 2), ("interrupt", 130),
    ])
    def test_thresholds_restored(self, pair, tmp_path, capsys, monkeypatch, caller, ending, code):
        seen = []
        inspect = ckpt_store.inspect

        def command(path):
            seen.append(gc.get_threshold())
            if ending == "interrupt":
                raise KeyboardInterrupt
            return inspect(path)

        monkeypatch.setattr(ckpt_store, "inspect", command)
        bad = tmp_path / "bad.st"
        bad.write_bytes(b"")
        argv = {"success": ["inspect", pair[0]], "usage": ["inspect", pair[0], "--bogus"],
                "data": ["inspect", bad], "interrupt": ["inspect", pair[0]]}[ending]
        assert run(capsys, *argv)[0] == code
        assert gc.get_threshold() == caller and gc.isenabled()
        assert seen == ([] if ending == "usage" else [(cli_module._GC_THRESHOLD, 7, 9)])


class TestSignals:
    # os.fsync sends SIGTERM: the temporary file is written and about to be synced
    TERM_IN_SAVE = """
import os, signal, sys
os.fsync = lambda fd: os.kill(os.getpid(), signal.SIGTERM)
from layermerge.cli import main
sys.exit(main(sys.argv[1:]))
"""

    def test_sigterm_during_save_exit_143_without_output(self, pair, tmp_path):
        out = tmp_path / "out.lm"
        proc = run_child(self.TERM_IN_SAVE, "merge", *pair, "--anchor", "0",
                         "--strategy", "layerwise", "--out", out, cwd=tmp_path)
        assert proc.returncode == 128 + signal.SIGTERM == cli_module.EXIT_TERMINATED
        assert proc.stderr == "terminated\n" and proc.stdout == ""
        assert not out.exists() and not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("ending", ["success", "terminated"])
    def test_caller_handler_restored(self, pair, capsys, monkeypatch, ending):
        def command(path):
            if ending == "terminated":
                signal.raise_signal(signal.SIGTERM)
            return inspect(path)

        inspect = ckpt_store.inspect
        monkeypatch.setattr(ckpt_store, "inspect", command)
        seen = []
        caller = lambda *args: seen.append(args)  # noqa: E731
        previous = signal.signal(signal.SIGTERM, caller)
        try:
            code = run(capsys, "inspect", pair[0])[0]
            assert signal.getsignal(signal.SIGTERM) is caller
            signal.raise_signal(signal.SIGTERM)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert code == (cli_module.EXIT_TERMINATED if ending == "terminated" else 0)
        assert len(seen) == 1  # only the signal sent after main returned

    def test_no_handler_over_one_set_outside_python(self, pair, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("signal.signal called over a handler it cannot restore")

        monkeypatch.setattr(signal, "getsignal", lambda signum: None)
        monkeypatch.setattr(signal, "signal", refuse)
        assert run(capsys, "inspect", pair[0])[0] == 0

    def test_off_the_main_thread_no_handler_is_set(self, pair, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("signal.signal called off the main thread")

        monkeypatch.setattr(signal, "signal", refuse)
        codes = []
        worker = threading.Thread(target=lambda: codes.append(main(["inspect", str(pair[0])])))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and codes == [0]


class TestNumpyModules:
    """A command loads no numpy module that ``import layermerge.cli`` has
    not: numpy 2 loads some lazily, and ``numpy.ma``, which ``np.unique``
    pulls in, costs 10-15 ms in a cold process."""

    CHILD = """
import json, sys
from layermerge.cli import main
before = set(sys.modules)
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in set(sys.modules) - before
                               if m.split(".")[0] == "numpy")]))
"""

    @pytest.mark.parametrize("command", ["merge", "profile", "toy"])
    def test_command_loads_no_new_numpy_module(self, pair, tmp_path, command):
        config = tmp_path / "toy.json"
        config.write_text(json.dumps({"seed": 3, "train_samples": 30, "eval_samples": 30,
                                      "epochs": 2, "strategies": ["layerwise", "fisher"]}))
        argv = {"merge": ["merge", *pair, "--anchor", "0", "--strategy", "layerwise",
                          "--out", tmp_path / "m.st"],
                "profile": ["profile", *pair, "--tau", "10"],
                "toy": ["toy", config, "--out", tmp_path / "r.json"]}[command]
        proc = run_child(self.CHILD, *argv, cwd=tmp_path)
        code, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0, proc.stderr
        if command == "toy":  # the generators of the data and of the init
            loaded = [m for m in loaded if m.split(".")[:2] != ["numpy", "random"]]
        assert loaded == []


class TestInspect:
    def test_summary_on_stdout(self, pair, capsys):
        pa, _ = pair
        code, stdout, err = run(capsys, "inspect", pa)
        assert code == 0
        assert "layer0.weight" in stdout
        assert "metadata.performance: 46.9" in stdout
        assert "inspected" in err

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.st"
        bad.write_bytes(b"")
        code, _, err = run(capsys, "inspect", bad)
        assert code == 2
        assert "malformed" in err

    @pytest.mark.parametrize("field, value", [("shape", [True, 2]), ("offsets", [False, 48])])
    def test_boolean_header_fields_exit_2(self, pair, tmp_path, capsys, field, value):
        def mutate(header):
            header["tensors"]["layer0.weight"][field] = value

        pa, pb = pair
        pa.write_bytes(patch_header(pa, mutate))
        out = tmp_path / "m.st"
        for argv in (("inspect", pa), ("merge", pa, pb, "--strategy", "isotropic", "--out", out)):
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert f"invalid {field}" in err and "Traceback" not in err
        assert not out.exists()


class TestJsonPastPythonLimits:
    """Headers, ``layer_order`` values and toy configs nested past every
    Python's recursion limit or holding an integer past its digit limit
    give one summary line and no output."""

    @staticmethod
    def assert_one_line_no_output(err, tmp_path, out):
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not out.exists() and not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("header", HEADERS_PAST_LIMITS)
    def test_header_exit_2_naming_the_file(self, pair, tmp_path, capsys, header):
        pa, pb = pair
        write_raw_header(pb, HEADERS_PAST_LIMITS[header])
        out = tmp_path / "m.st"
        for argv in (("inspect", pb), ("merge", pa, pb, "--strategy", "isotropic", "--out", out)):
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert err.startswith(f"error: {pb}: ")
            self.assert_one_line_no_output(err, tmp_path, out)

    @pytest.mark.parametrize("raw", [DEEP_JSON, LONG_INT_JSON], ids=["deep", "long-integer"])
    def test_layer_order_exit_2(self, pair, tmp_path, capsys, raw):
        pa, pb = pair
        pa.write_bytes(patch_header(pa, lambda h: h["metadata"].update(layer_order=raw)))
        out = tmp_path / "m.st"
        code, _, err = run(capsys, "merge", pa, pb, "--strategy", "isotropic", "--out", out)
        assert code == 2
        assert err.startswith("error: layer_order metadata is not a JSON list: ")
        self.assert_one_line_no_output(err, tmp_path, out)

    def test_deep_toy_config_usage_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(DEEP_JSON)
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "toy", path, "--out", out)
        assert code == 1
        assert err.startswith("usage error: invalid experiment config: ")
        self.assert_one_line_no_output(err, tmp_path, out)


class TestFisherCommand:
    def test_writes_fisher_checkpoint(self, tmp_path, capsys):
        model = ToyModel.init([2, 8, 3], seed=5)
        pm = tmp_path / "model.st"
        save(model.to_checkpoint(), pm)
        out = tmp_path / "fisher.st"
        code, _, _ = run(capsys, "fisher", pm, "--seed", "5", "--samples", "90", "--out", out)
        assert code == 0
        fisher = load(out)
        assert fisher.names() == model.to_checkpoint().names()
        for t in fisher.tensors:
            assert np.all(t.data >= 0)

    @pytest.mark.parametrize("classes", [2, 4])
    def test_class_count_taken_from_model(self, tmp_path, capsys, classes):
        model = ToyModel.init([2, 8, classes], seed=5)
        pm = tmp_path / "model.st"
        save(model.to_checkpoint(), pm)
        out = tmp_path / "fisher.st"
        code, _, err = run(capsys, "fisher", pm, "--samples", "90", "--out", out)
        assert code == 0, err
        expected = estimate_fisher(model, make_domain_pair(7, 90, classes)[0])
        for t in load(out).tensors:
            assert np.array_equal(t.data, expected.tensors[t.name])

    @pytest.mark.parametrize("samples", ["2", "-5"])
    def test_too_few_samples_usage_error(self, tmp_path, capsys, samples):
        pm = tmp_path / "model.st"
        save(ToyModel.init([2, 8, 3], seed=5).to_checkpoint(), pm)
        out = tmp_path / "f.st"
        code, _, err = run(capsys, "fisher", pm, "--samples", samples, "--out", out)
        assert code == 1
        assert "usage error" in err and "--samples" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, domain", [
        ("--tx", "nan", "target"),
        ("--rotation", "inf", "target"),
        ("--tx", "nan", "source"),
        ("--ty", "inf", "source"),
    ])
    def test_non_finite_shift_usage_error(self, tmp_path, capsys, flag, value, domain):
        pm = tmp_path / "model.st"
        save(ToyModel.init([2, 8, 3], seed=5).to_checkpoint(), pm)
        out = tmp_path / "f.st"
        code, _, err = run(capsys, "fisher", pm, flag, value, "--domain", domain, "--out", out)
        assert code == 1
        assert "usage error" in err and flag in err
        assert "warning" not in err and "Traceback" not in err
        assert not out.exists()

    def test_classes_flag_removed(self, tmp_path, capsys):
        pm = tmp_path / "model.st"
        save(ToyModel.init([2, 8, 3], seed=5).to_checkpoint(), pm)
        code, _, err = run(capsys, "fisher", pm, "--classes", "3", "--out", tmp_path / "f.st")
        assert code == 1 and "--classes" in err
        assert not (tmp_path / "f.st").exists()

    def test_non_toy_checkpoint_exit_2(self, pair, tmp_path, capsys):
        pa, _ = pair
        code, _, _ = run(capsys, "fisher", pa, "--out", tmp_path / "f.st")
        assert code == 2

    def test_negative_seed_usage_error(self, tmp_path, capsys):
        pm = tmp_path / "model.st"
        save(ToyModel.init([2, 8, 3], seed=5).to_checkpoint(), pm)
        out = tmp_path / "f.st"
        code, _, err = run(capsys, "fisher", pm, "--seed", "-1", "--out", out)
        assert code == 1
        assert err == "usage error: --seed must be non-negative, got -1\n"
        assert not out.exists()

    def test_checkpoint_with_no_tensors_exit_2(self, tmp_path, capsys):
        pm = tmp_path / "empty.st"
        save(Checkpoint([]), pm)
        out = tmp_path / "f.st"
        code, stdout, err = run(capsys, "fisher", pm, "--out", out)
        assert code == 2 and stdout == ""
        assert err == "error: a toy-model checkpoint needs at least one layer\n"
        assert not out.exists()


class TestOutOfMemory:
    """A run that cannot get the memory it asks for prints one error line
    and exits 2. The allocation fails in a stand-in: a real one of that
    size may succeed where memory is overcommitted, and then be killed."""

    TOO_LARGE = MemoryError("Unable to allocate 14.9 TiB for an array with shape "
                            "(1000000000000, 2) and data type float64")

    def too_large(self, *args, **kwargs):
        raise self.TOO_LARGE

    def test_fisher_samples(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli_module, "make_domain_pair", self.too_large)
        pm, out = tmp_path / "model.st", tmp_path / "f.st"
        save(ToyModel.init([2, 8, 3], seed=5).to_checkpoint(), pm)
        code, stdout, err = run(capsys, "fisher", pm, "--samples", "1000000000000", "--out", out)
        assert code == 2 and stdout == ""
        assert err == f"error: out of memory: {self.TOO_LARGE}\n"
        assert not out.exists()

    def test_toy_train_samples(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiment, "make_domain_pair", self.too_large)
        cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
        cfg.write_text(json.dumps({"train_samples": 10**12}))
        code, stdout, err = run(capsys, "toy", cfg, "--out", out)
        assert code == 2 and stdout == ""
        assert err == f"error: out of memory: {self.TOO_LARGE}\n"
        assert not out.exists()

    def test_without_a_message(self, pair, tmp_path, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(cli_module, "shared_parameters", no_memory)
        code, _, err = run(capsys, "merge", *pair, "--strategy", "isotropic", "--out", tmp_path / "m.st")
        assert code == 2 and err == "error: out of memory\n"


class TestToyCommand:
    def config_file(self, tmp_path, **overrides):
        cfg = dict(
            seed=3, train_samples=120, eval_samples=200, epochs=15, hidden=[8],
            donor_seeds=[31], strategies=["isotropic", "layerwise", "fisher", "ensemble"],
            shift_rotation=0.4, shift_translation=[0.3, 0.0],
        )
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_report_schema(self, tmp_path, capsys):
        cfg = self.config_file(tmp_path)
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "toy", cfg, "--out", out)
        assert code == 0
        report = json.loads(out.read_text())
        assert [r["strategy"] for r in report["merges"]] == [
            "isotropic", "layerwise", "fisher", "ensemble"
        ]
        assert len(report["models"]) == 2

    def test_tau_that_overflows_warns_nothing(self, tmp_path, capsys):
        cfg = self.config_file(tmp_path, strategies=["isotropic"], tau=1e-320)
        out = tmp_path / "report.json"
        code, _, err = run(capsys, "toy", cfg, "--out", out)
        assert code == 0 and len(err.splitlines()) == 1, err
        assert [d["tau"] for d in json.loads(out.read_text())["discrepancy"]] == [1e-320]

    def test_identical_runs_identical_bytes(self, tmp_path, capsys):
        cfg = self.config_file(tmp_path)
        o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run(capsys, "toy", cfg, "--out", o1)[0] == 0
        assert run(capsys, "toy", cfg, "--out", o2)[0] == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_null_shift_strategies_agree(self, tmp_path, capsys):
        cfg = self.config_file(
            tmp_path,
            seed=7, train_samples=400, eval_samples=1500, epochs=120, hidden=[16, 16],
            donor_seeds=[1008, 2009],
            strategies=["layerwise", "isotropic", "scalar", "fisher", "ensemble"],
            shift_rotation=0.0, shift_translation=[0.0, 0.0],
        )
        out = tmp_path / "report.json"
        assert run(capsys, "toy", cfg, "--out", out)[0] == 0
        report = json.loads(out.read_text())
        for domain in ("source_accuracy", "target_accuracy"):
            accs = [r[domain] for r in report["merges"]]
            assert max(accs) - min(accs) <= 0.02

    def test_bad_config_usage_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{\"bogus\": 1}")
        code, _, err = run(capsys, "toy", path, "--out", tmp_path / "r.json")
        assert code == 1
        assert "config" in err

    @pytest.mark.parametrize("field, value", [
        ("hidden", [0]),
        ("hidden", [1.5]),
        ("epochs", 1.5),
        ("train_samples", "10"),
        ("donor_seeds", [1.5]),
        ("classes", 2.5),
        ("seed", True),
        ("shift_translation", [1]),
        ("start_layer", 0),
        ("start_layer", 3),  # two shared layers
        ("first_layer_weight", 0.6),  # above 1/2 for two models
        ("hidden", 5),
        ("donor_seeds", 31),
        ("strategies", "fisher"),
        ("shift_translation", 0.3),
        ("strategies", ["x", 3]),
        ("strategies", [["a"]]),
        ("shift_translation", [float("nan"), 0.0]),
        ("shift_translation", [float("inf"), 0]),
    ])
    def test_malformed_config_usage_error(self, tmp_path, capsys, field, value):
        cfg = self.config_file(tmp_path, **{field: value})
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "toy", cfg, "--out", out)
        assert code == 1
        assert "usage error" in err and field in err and "Traceback" not in err
        assert not out.exists()

    def test_unknown_strategies_reported_in_given_order(self, tmp_path, capsys):
        cfg = self.config_file(tmp_path, strategies=["zeta", "isotropic", "alpha", "zeta"])
        code, _, err = run(capsys, "toy", cfg, "--out", tmp_path / "r.json")
        assert code == 1
        assert "unknown strategies ['zeta', 'alpha']" in err

    @pytest.mark.parametrize("field, overrides", [
        ("start_layer", {"start_layer": 0, "strategies": ["isotropic"]}),
        ("first_layer_weight", {"first_layer_weight": 0.6, "strategies": ["isotropic"]}),
        ("start_layer", {"start_layer": 2, "hidden": []}),
        ("first_layer_weight",  # above 1/4 for the four-snapshot pool
         {"mode": "checkpoints", "checkpoint_count": 4, "first_layer_weight": 0.3}),
    ])
    def test_schedule_fields_checked_before_training(self, tmp_path, capsys, monkeypatch,
                                                     field, overrides):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the config was checked")

        monkeypatch.setattr(experiment, "train", no_training)
        cfg = self.config_file(tmp_path, **overrides)
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "toy", cfg, "--out", out)
        assert code == 1
        assert "usage error" in err and field in err and "Traceback" not in err
        assert not out.exists()

    def test_first_layer_weight_at_uniform_warns_once(self, tmp_path, capsys):
        cfg = self.config_file(tmp_path, epochs=2, first_layer_weight=0.5,
                               strategies=["layerwise"])
        code, _, err = run(capsys, "toy", cfg, "--out", tmp_path / "r.json")
        assert code == 0
        assert err.count("warning:") == 1 and "1/M" in err

    @pytest.mark.parametrize("text", ["[]", '"x"', "3", "null"])
    def test_config_not_an_object_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "toy", path, "--out", out)
        assert code == 1
        assert "usage error" in err and "JSON object" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [
        {"learning_rate": "0.05"},
        {"head_lr_multiplier": "10"},
        {"shift_rotation": "1"},
        {"tau": "x"},
        {"first_layer_weight": "0.1"},
        {"shared_init": "no"},
        {"learning_rate": -1},
        {"batch_size": 0},
        {"epochs": -1},
        {"classes": 1},
        {"train_samples": 2},
        {"eval_samples": 1},
        {"tau": -1},
        {"seed": -1},
        {"donor_seeds": [-1]},
        {"mode": "checkpoints", "epochs": 0},
        {"mode": "checkpoints", "checkpoint_count": 0},
        {"learning_rate": float("nan")},
        {"learning_rate": 10**400},
    ], ids=lambda o: ",".join(f"{k}={str(v)[:12]}" for k, v in o.items()))
    def test_bad_value_usage_error(self, tmp_path, capsys, overrides):
        cfg = self.config_file(tmp_path, **overrides)
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "toy", cfg, "--out", out)
        assert code == 1
        assert "usage error" in err and "Traceback" not in err
        assert not out.exists()

    def test_non_finite_first_layer_weight_usage_error(self, tmp_path, capsys):
        cfg = self.config_file(tmp_path, epochs=2)
        cfg.write_text(cfg.read_text()[:-1] + ', "first_layer_weight": 1e400}')
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "toy", cfg, "--out", out)
        assert code == 1
        assert "usage error" in err and "finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_divergent_config_exit_2(self, tmp_path, capsys):
        cfg = self.config_file(tmp_path, learning_rate=1e4, epochs=40)
        code, _, err = run(capsys, "toy", cfg, "--out", tmp_path / "r.json")
        assert code == 2
        assert "epoch" in err
        assert not (tmp_path / "r.json").exists()

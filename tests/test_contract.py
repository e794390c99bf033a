"""The command-line contract over drawn pools.

Hypothesis draws pools of one to three small checkpoints, with a Fisher
file for each, and runs ``merge`` under every strategy, ``profile`` and
``inspect`` on them through ``cli.main`` in process. Every run exits 0, 1
or 2 and prints no traceback (a numpy warning would fail the run: the
suite turns it into an error). A run that fails leaves no output file and
no temporary file. A run that succeeds writes what the library gives for
the loaded inputs: a merge the bytes of ``save(<strategy>_merge(...))``,
every merged tensor finite, a profile the bytes of ``emit_profile``, and
``inspect`` the summary's rendering; and where the library raises, the
run fails with the code of that error. ``toy`` is covered by its config
tests.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layermerge import (
    AlignmentError,
    Checkpoint,
    CheckpointError,
    FisherWeights,
    MergeError,
    ScheduleError,
    compute_schedule,
    discrepancy_profile,
    emit_profile,
    fisher_merge,
    inspect,
    isotropic_merge,
    layerwise_merge,
    load,
    save,
    scalar_weighted_merge,
    shared_parameters,
)
from layermerge.cli import main
from layermerge.discrepancy import DiscrepancyError
from layermerge.merge import STRATEGIES

from conftest import patch_header

# the tensors of each layer group: a dense layer, batch-norm statistics and a head
GROUPS = {
    "stem": {"stem.weight": (3, 2), "stem.bias": (3,)},
    "bn": {"bn.weight": (3,), "bn.running_mean": (3,), "bn.running_var": (3,)},
    "head": {"head.weight": (2, 3), "head.bias": (2,)},
}
DTYPES = [np.float32, np.float64]
BAD_LAYER_ORDERS = {("layer_order", "{}"), ("layer_order", "[1]")}
NO_SHARED = ("error: no shared parameters: the models have no layer group with "
             "matching names, dtypes and shapes\n")


def run(*argv):
    """``(exit code, stdout, stderr)`` of ``cli.main`` on ``argv``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([str(a) for a in argv])
    return code, stdout.getvalue(), stderr.getvalue()


def write(path, arrays, metadata):
    """Save ``arrays`` to ``path``; a ``layer_order`` that ``save`` would
    refuse is patched into the header afterwards."""
    valid = {k: v for k, v in metadata.items() if (k, v) not in BAD_LAYER_ORDERS}
    save(Checkpoint.from_arrays(arrays, valid), path)
    if valid != metadata:
        path.write_bytes(patch_header(path, lambda h: h["metadata"].update(metadata)))


@st.composite
def models(draw, dtype):
    """The arrays and metadata of one model and of its Fisher file."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    groups = draw(st.sampled_from([list(GROUPS)] * 3 + [["stem", "bn"], ["bn", "head"], []]),
                  label="groups")
    shapes = {name: shape for g in groups for name, shape in GROUPS[g].items()}
    arrays = {name: rng.standard_normal(shape).astype(dtype) for name, shape in shapes.items()}
    change = draw(st.sampled_from([None] * 4 + ["missing", "conflict", "retype", "nan",
                                                "overflow"]), label="change")
    if arrays and change:
        name = draw(st.sampled_from(sorted(arrays)), label="changed tensor")
        x = arrays.pop(name)
        if change == "conflict":
            arrays[name] = np.zeros(x.size + 1, dtype)
        elif change == "retype":
            arrays[name] = x.astype(np.float64 if dtype is np.float32 else np.float32)
        elif change == "nan":
            arrays[name] = x
            x.flat[0] = np.nan
        elif change == "overflow":  # past half the float range: sums can overflow
            arrays[name] = np.full_like(x, np.finfo(dtype).max * draw(st.sampled_from([1, -1])))

    metadata = {}
    order = draw(st.sampled_from([None] * 4 + ["groups", "groups", "reversed", "{}", "[1]"]),
                 label="layer_order")
    if order in ("groups", "reversed"):
        prefixes = list(dict.fromkeys(name.rsplit(".", 1)[0] for name in arrays))
        metadata["layer_order"] = json.dumps(prefixes[::-1] if order == "reversed" else prefixes)
    elif order:
        metadata["layer_order"] = order
    performance = draw(st.sampled_from(["0.5", "2", "1.25"] * 2 + [None, "abc", "-1", "nan"]),
                       label="performance")
    if performance:
        metadata["performance"] = performance

    sign = draw(st.sampled_from(["positive"] * 3 + ["zero", "negative", "nan", "missing"]),
                label="fisher")
    fisher_dtype = draw(st.sampled_from(DTYPES), label="fisher dtype")
    fisher = {name: rng.random(x.shape).astype(fisher_dtype) for name, x in arrays.items()}
    if fisher and sign != "positive":
        name = draw(st.sampled_from(sorted(fisher)), label="fisher tensor")
        if sign == "missing":
            del fisher[name]
        else:
            fisher[name] = np.zeros_like(fisher[name])
            fisher[name].flat[0] = {"zero": 0.0, "negative": -1.0, "nan": np.nan}[sign]
    return arrays, metadata, fisher


@st.composite
def pools(draw):
    dtype = draw(st.sampled_from(DTYPES), label="dtype")
    return [draw(models(dtype)) for _ in range(draw(st.integers(1, 3), label="models"))]


def library_merge(strategy, ckpts, fishers):
    """The library's merge of loaded inputs, as ``merge --anchor 0`` runs it."""
    alignment = shared_parameters(ckpts, 0)
    if strategy == "layerwise":
        schedule = compute_schedule(len(ckpts), alignment.n_shared_layers, 0)
        return layerwise_merge(ckpts, 0, schedule, alignment)
    if strategy == "isotropic":
        return isotropic_merge(ckpts, alignment)
    if strategy == "scalar":
        return scalar_weighted_merge(ckpts, [c.performance() for c in ckpts], alignment)
    return fisher_merge(ckpts, [FisherWeights.from_checkpoint(f) for f in fishers], alignment)


def outcome(compute):
    """``(exit code, result)`` of a library call, as ``cli.main`` maps its errors."""
    try:
        return 0, compute()
    except ScheduleError:
        return 1, None
    except (CheckpointError, AlignmentError, MergeError, DiscrepancyError):
        return 2, None


def check_run(tmp, argv, out=None):
    """Run ``argv`` and check the part of the contract every run keeps."""
    code, stdout, err = run(*argv, *(["--out", out] if out else []))
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code:
        assert stdout == "" and len(err.splitlines()) == 1, err
        assert out is None or not out.exists()
    assert not list(tmp.glob("*.tmp"))
    return code, stdout, err


@settings(max_examples=120, deadline=None)
@given(pool=pools(), tau=st.sampled_from([1e-3, 1.0, 1e300]),
       mode=st.sampled_from(["elementwise", "layer_norm"]))
def test_every_command_keeps_the_contract(pool, tau, mode):
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        paths, fisher_paths = [], []
        for i, (arrays, metadata, fisher) in enumerate(pool):
            paths.append(tmp / f"m{i}.st")
            write(paths[-1], arrays, metadata)
            fisher_paths.append(tmp / f"f{i}.st")
            save(Checkpoint.from_arrays(fisher), fisher_paths[-1])
        ckpts, fishers = list(map(load, paths)), list(map(load, fisher_paths))

        for strategy in STRATEGIES:
            out = tmp / f"{strategy}.st"
            argv = ["merge", *paths, "--strategy", strategy, "--anchor", "0"]
            code, _, err = check_run(tmp, argv + (
                ["--fisher", *fisher_paths] if strategy == "fisher" else []), out)
            expected, merged = outcome(lambda: library_merge(strategy, ckpts, fishers))
            assert code == expected, (strategy, err)
            if code == 0:
                save(merged, tmp / "expected.st")
                assert out.read_bytes() == (tmp / "expected.st").read_bytes(), strategy
                assert all(np.isfinite(t.data).all() for t in load(out).tensors)

        out = tmp / "profile.csv"
        argv = ["profile", paths[0], paths[-1], "--tau", tau, "--mode", mode]
        code, _, err = check_run(tmp, argv, out)
        expected, profile = outcome(lambda: discrepancy_profile(ckpts[0], ckpts[-1], tau, mode))
        assert code == expected, err
        if code == 0:
            assert out.read_bytes() == emit_profile(profile)

        for path in paths:
            code, stdout, err = check_run(tmp, ["inspect", path])
            assert code == 0 and stdout == inspect(path).render() + "\n", err


EMPTY = "{checkpoint with no tensors}"


@pytest.mark.parametrize("argv, message", [
    *((["merge", EMPTY, "--strategy", s, "--anchor", "0",
        *(["--fisher", EMPTY] if s == "fisher" else [])], NO_SHARED) for s in STRATEGIES),
    (["fisher", EMPTY], "error: a toy-model checkpoint needs at least one layer\n"),
], ids=[*(f"merge --strategy {s}" for s in STRATEGIES), "fisher"])
def test_checkpoint_with_no_tensors(tmp_path, argv, message):
    path, out = tmp_path / "empty.st", tmp_path / "out.st"
    save(Checkpoint([]), path)
    code, stdout, err = check_run(tmp_path, [path if a == EMPTY else a for a in argv], out)
    assert (code, stdout, err) == (2, "", message)

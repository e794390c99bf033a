"""Golden outputs of the command-line interface on small seeded pools.

Every run goes through ``cli.main`` on pools written into a fresh directory
and is recorded as its exit code and the sha256 of its stdout, its stderr
(the directory replaced by ``{tmp}``) and each file it was asked to write
(None when it left no file). ``tests/test_golden.py`` repeats the runs and
compares them with ``tests/data/golden.json``; a changed digest is a change
of behaviour. To rewrite the file after an intended change:

    PYTHONPATH=src python tests/golden_corpus.py

which names the runs whose record changed against the file it replaces.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from layermerge import Checkpoint, save
from layermerge.cli import main

from conftest import HEADERS_PAST_LIMITS, write_raw_header

GOLDEN = Path(__file__).parent / "data" / "golden.json"
MODELS = 4


def _dense(rng, i):
    """Tensors above and below the kernel's 8,192-element block, in F32
    and F64, and batch-norm statistics."""
    return {
        "stem.weight": rng.standard_normal((96, 96)).astype(np.float32),
        "stem.bias": rng.standard_normal(96).astype(np.float32),
        "bn.weight": rng.random(96).astype(np.float32),
        "bn.bias": rng.standard_normal(96).astype(np.float32),
        "bn.running_mean": rng.standard_normal(96).astype(np.float32),
        "bn.running_var": rng.random(96).astype(np.float32),
        "body.weight": rng.standard_normal((100, 90)),
        "body.bias": rng.standard_normal(100),
        "mid.weight": rng.standard_normal((40, 30)),
        "head.weight": rng.standard_normal((10, 40)).astype(np.float32),
        "head.bias": rng.standard_normal(10).astype(np.float32),
    }


def _many(rng, i):
    """Many small F32 tensors in batch-norm groups; only the anchor has a
    head, so it is anchor-only."""
    arrays = {}
    for k in range(200):
        arrays[f"blocks.{k}.weight"] = rng.standard_normal((6, 6)).astype(np.float32)
        for kind in ("bias", "running_mean", "running_var"):
            arrays[f"blocks.{k}.{kind}"] = rng.random(6).astype(np.float32)
    if i == 0:
        arrays["head.weight"] = rng.standard_normal((10, 6)).astype(np.float32)
        arrays["head.bias"] = rng.standard_normal(10).astype(np.float32)
    return arrays


def _large(rng, i):
    """F32 tensors past the 256 KiB read window, so that each is read
    alone, in more than one chunk of the merge's stream, and a small head
    in one run."""
    return {
        "stem.weight": rng.standard_normal((384, 384)).astype(np.float32),
        "stem.bias": rng.standard_normal(384).astype(np.float32),
        "body.weight": rng.standard_normal((400, 360)).astype(np.float32),
        "head.weight": rng.standard_normal((10, 40)).astype(np.float32),
        "head.bias": rng.standard_normal(10).astype(np.float32),
    }


def _fishers(rng, models, no_mass):
    """F64 Fisher values of every model: about a tenth of the elements
    have no mass, and ``no_mass`` has none in any model."""
    fishers = []
    for arrays in models:
        fisher = {n: rng.exponential(1.0, x.shape) * (rng.random(x.shape) < 0.9)
                  for n, x in arrays.items()}
        fisher[no_mass][:] = 0.0
        fishers.append(fisher)
    return fishers


def _write(root, stem, pool):
    for i, arrays in enumerate(pool):
        save(Checkpoint.from_arrays(arrays), root / f"{stem}{i}.lm")


def write_pools(root: Path) -> None:
    for name, make, no_mass, seed in (("dense", _dense, "mid.weight", 11),
                                      ("many", _many, "blocks.7.weight", 12)):
        rng = np.random.default_rng(seed)
        pool = [make(rng, i) for i in range(MODELS)]
        _write(root, name, pool)
        fishers = _fishers(rng, pool, no_mass)
        _write(root, f"{name}-fisher", fishers)  # with the batch-norm twins
        _write(root, f"{name}-fisher-nobn", [
            {n: f for n, f in fisher.items() if ".running_" not in n} for fisher in fishers])

    rng = np.random.default_rng(16)
    large = [_large(rng, i) for i in range(MODELS)]
    _write(root, "large", large)
    _write(root, "large-fisher", _fishers(rng, large, "head.weight"))  # F64
    large[1]["body.weight"][-1, -1] = np.nan  # in the last chunk
    _write(root, "largenan", [large[1]])
    data = (root / "large1.lm").read_bytes()
    (root / "largetruncated0.lm").write_bytes(data[:len(data) // 2])  # inside stem.weight

    bad = _dense(np.random.default_rng(13), 1)
    bad["body.weight"][3, 4] = np.nan
    _write(root, "nan", [bad])
    negative = _fishers(np.random.default_rng(14), [bad], "mid.weight")[0]
    negative["stem.bias"][5] = -0.25
    _write(root, "negative", [negative])
    missing = _fishers(np.random.default_rng(15), [bad], "mid.weight")[0]
    del missing["body.bias"]  # a tensor Fisher merging weighs per element
    _write(root, "missing", [missing])
    data = (root / "dense1.lm").read_bytes()
    (root / "truncated0.lm").write_bytes(data[:-100])
    # a metadata value nested past every Python's recursion limit
    write_raw_header(root / "deep0.lm", HEADERS_PAST_LIMITS["deep"])
    # with no data section, "a" fails its bounds and the later "b" its dtype,
    # an earlier check: the file is named by "a", its first failing entry
    write_raw_header(root / "twofaults0.lm", json.dumps({"tensors": {
        "a": {"dtype": "F32", "shape": [2], "offsets": [0, 8]},
        "b": {"dtype": "F16", "shape": [], "offsets": [0, 0]}}}))
    # finite inputs whose weighted sum rounds past the float64 range
    big = np.finfo(np.float64).max
    _write(root, "overflow", [{"layer0.weight": np.array([big, -big]),
                               "layer0.bias": np.arange(3.0)} for _ in range(MODELS)])


SCORES = ("0.6331871446860424", "0.09401534358238482", "0.8426441476533978", "0.7970983074886834")


def _merges(pool):
    """Every strategy on ``pool``, each with two donor orders."""
    runs = {}
    for order in ((0, 1, 2, 3), (0, 3, 1, 2)):
        tag = "".join(map(str, order))
        inputs = [f"{{tmp}}/{pool}{i}.lm" for i in order]
        out = "{tmp}/out-{name}.lm"
        runs[f"{pool}-layerwise-{tag}"] = ["merge", *inputs, "--anchor", inputs[0],
                                           "--strategy", "layerwise", "--s", "2", "--out", out]
        runs[f"{pool}-isotropic-{tag}"] = ["merge", *inputs, "--strategy", "isotropic", "--out", out]
        runs[f"{pool}-scalar-{tag}"] = ["merge", *inputs, "--strategy", "scalar", "--perf",
                                        *(SCORES[i] for i in order), "--out", out]
        for fisher in ("fisher", "fisher-nobn"):
            runs[f"{pool}-{fisher}-{tag}"] = [
                "merge", *inputs, "--strategy", "fisher",
                "--fisher", *(f"{{tmp}}/{pool}-{fisher}{i}.lm" for i in order), "--out", out]
    return runs


def runs() -> dict:
    """Run name -> argv, ``{tmp}`` standing for the pools' directory and
    ``{name}`` for the run's name."""
    argvs = {**_merges("dense"), **_merges("many"),
             **{name: argv for name, argv in _merges("large").items()
                if "-scalar-" not in name and "-nobn-" not in name}}
    for pool in ("dense", "many"):
        for mode in ("elementwise", "layer_norm"):
            for fmt in ("csv", "json"):
                argvs[f"{pool}-profile-{mode}-{fmt}"] = [
                    "profile", f"{{tmp}}/{pool}0.lm", f"{{tmp}}/{pool}2.lm", "--tau", "3",
                    "--mode", mode, "--format", fmt]
        argvs[f"{pool}-inspect"] = ["inspect", f"{{tmp}}/{pool}0.lm"]
    argvs["dense-profile-out"] = ["profile", "{tmp}/dense1.lm", "{tmp}/dense3.lm", "--tau", "20",
                                  "--out", "{tmp}/out-{name}.csv"]
    dense = [f"{{tmp}}/dense{i}.lm" for i in range(MODELS)]
    argvs["error-truncated"] = ["merge", "{tmp}/dense0.lm", "{tmp}/truncated0.lm",
                                "--strategy", "isotropic", "--out", "{tmp}/out-{name}.lm"]
    argvs["error-nan-last-chunk"] = ["merge", "{tmp}/large0.lm", "{tmp}/largenan0.lm", "--anchor", "0",
                                     "--strategy", "layerwise", "--out", "{tmp}/out-{name}.lm"]
    argvs["error-truncated-mid-tensor"] = ["merge", "{tmp}/large0.lm", "{tmp}/largetruncated0.lm",
                                           "--strategy", "isotropic", "--out", "{tmp}/out-{name}.lm"]
    argvs["error-deep-header"] = ["inspect", "{tmp}/deep0.lm"]
    argvs["error-first-failing-entry"] = ["inspect", "{tmp}/twofaults0.lm"]
    argvs["error-nan"] = ["merge", "{tmp}/dense0.lm", "{tmp}/nan0.lm", "--anchor", "0",
                          "--strategy", "layerwise", "--out", "{tmp}/out-{name}.lm"]
    argvs["error-negative-fisher"] = [
        "merge", *dense[:2], "--strategy", "fisher", "--fisher", "{tmp}/dense-fisher0.lm",
        "{tmp}/negative0.lm", "--out", "{tmp}/out-{name}.lm"]
    argvs["error-fisher-missing"] = [
        "merge", *dense[:2], "--strategy", "fisher", "--fisher", "{tmp}/dense-fisher0.lm",
        "{tmp}/missing0.lm", "--out", "{tmp}/out-{name}.lm"]
    argvs["error-overflow"] = ["merge", *(f"{{tmp}}/overflow{i}.lm" for i in range(MODELS)),
                               "--strategy", "scalar", "--perf", *SCORES,
                               "--out", "{tmp}/out-{name}.lm"]
    return argvs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all(root: Path) -> dict:
    """Write the pools into ``root`` and record every run."""
    write_pools(root)
    record = {"inputs": {p.name: _sha256(p.read_bytes()) for p in sorted(root.iterdir())},
              "runs": {}}
    for name, argv in runs().items():
        argv = [a.replace("{name}", name) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.replace("{tmp}", str(root)) for a in argv])
        outputs = {}
        for a in argv:
            if a.startswith("{tmp}/out-"):
                path = root / a[len("{tmp}/"):]
                outputs[path.name] = _sha256(path.read_bytes()) if path.exists() else None
        record["runs"][name] = {
            "argv": argv,
            "exit": code,
            "stdout": _sha256(out.getvalue().replace(str(root), "{tmp}").encode()),
            "stderr": _sha256(err.getvalue().replace(str(root), "{tmp}").encode()),
            "outputs": outputs,
        }
    return record


def changed_runs(old: dict, new: dict) -> list[str]:
    """The names of the runs whose record differs between the records
    ``old`` and ``new``, or that only one of them has."""
    before, after = old.get("runs", {}), new["runs"]
    return sorted(name for name in before.keys() | after.keys()
                  if before.get(name) != after.get(name))


def main_rewrite() -> int:
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        record = run_all(Path(tmp))
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    failed = sorted(name for name, r in record["runs"].items() if r["exit"])
    print(f"wrote {len(record['runs'])} runs to {GOLDEN} ({len(failed)} exit non-zero: {failed})",
          file=sys.stderr)
    changed = changed_runs(old, record)
    print(f"{len(changed)} runs changed against the previous file: {changed}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main_rewrite())

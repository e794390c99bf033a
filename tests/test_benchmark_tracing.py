"""The benchmark's traced run wraps package functions at the call sites
listed in ``benchmark/tracing.py``. A refactor that renames or moves one of
them must fail here instead of silently dropping it from the trace."""

import importlib
import inspect
import json

from conftest import benchmark_module


def _owner(where):
    module_name, _, class_name = where.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def test_every_traced_site_resolves_and_is_restored(monkeypatch):
    tracing = benchmark_module(monkeypatch, "tracing")
    missing = [f"{w}.{a}" for w, a, _ in tracing.SITES if not hasattr(_owner(w), a)]
    assert not missing, f"traced call sites no longer exist: {missing}"
    before = [inspect.getattr_static(_owner(w), a) for w, a, _ in tracing.SITES]
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.remove()
    assert [inspect.getattr_static(_owner(w), a) for w, a, _ in tracing.SITES] == before


def test_every_traced_site_is_called(monkeypatch, tmp_path, capsys):
    # a call site that still exists but is no longer called would leave its
    # metric at 0; the commands the benchmark runs, on tiny inputs, must call
    # every site but Checkpoint.get, which nothing in the package calls.
    # Each site is traced under a name of its own, so that no site hides
    # behind another of its span's sites
    from layermerge import save
    from layermerge.cli import main
    from layermerge.toy import ToyModel

    tracing = benchmark_module(monkeypatch, "tracing")
    sites = [(where, attr, f"{where}.{attr}") for where, attr, _ in tracing.SITES]
    monkeypatch.setattr(tracing, "SITES", sites)
    models = [tmp_path / f"m{i}.st" for i in range(2)]
    for i, path in enumerate(models):
        save(ToyModel.init([2, 4, 3], seed=i).to_checkpoint(), path)
    config = tmp_path / "toy.json"
    config.write_text(json.dumps({
        "seed": 3, "mode": "donors", "train_samples": 30, "eval_samples": 30, "hidden": [4],
        "epochs": 2, "donor_seeds": [31], "tau": 10.0,
        "strategies": ["layerwise", "isotropic", "scalar", "fisher", "ensemble"]}))
    fishers = [tmp_path / f"f{i}.st" for i in range(2)]
    commands = [
        *(["fisher", str(m), "--samples", "30", "--out", str(f)] for m, f in zip(models, fishers)),
        ["merge", *map(str, models), "--strategy", "layerwise", "--anchor", "0",
         "--out", str(tmp_path / "lw.st")],
        ["merge", *map(str, models), "--strategy", "fisher", "--fisher", *map(str, fishers),
         "--out", str(tmp_path / "fm.st")],
        ["profile", *map(str, models), "--tau", "10"],
        ["inspect", str(tmp_path / "lw.st")],
        ["toy", str(config), "--out", str(tmp_path / "report.json")],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [main(argv) for argv in commands]
    finally:
        tracer.remove()
    assert codes == [0] * len(commands), capsys.readouterr().err
    called = {span.name for span in tracer.take()}
    expected = {name for *_, name in sites} - {"layermerge.checkpoint:Checkpoint.get"}
    assert sorted(expected - called) == []

"""The benchmark's traced run wraps package functions at the call sites
listed in ``benchmark/tracing.py``. A refactor that renames or moves one of
them must fail here instead of silently dropping it from the trace."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _owner(where):
    module_name, _, class_name = where.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def test_every_traced_site_resolves_and_is_restored(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    missing = [f"{w}.{a}" for w, a, _ in tracing.SITES if not hasattr(_owner(w), a)]
    assert not missing, f"traced call sites no longer exist: {missing}"
    before = [inspect.getattr_static(_owner(w), a) for w, a, _ in tracing.SITES]
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.remove()
    assert [inspect.getattr_static(_owner(w), a) for w, a, _ in tracing.SITES] == before

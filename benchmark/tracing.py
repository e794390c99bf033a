"""In-process tracing of the layermerge layers, from outside the package.

`Tracer.install` replaces public functions at the sites where their callers
bind them (for example `layermerge.cli.layerwise_merge` and
`Checkpoint.get`) with wrappers that record spans, and `Tracer.remove` puts
the originals back. Nothing under `src/` is edited. Spans (id, parent,
name, start, end) are kept in memory; a layer's self time is its span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

# (module path, attribute, span name). Span names are "<layer>.<what>".
SITES = [
    ("layermerge.checkpoint", "load", "checkpoint.load"),
    ("layermerge.checkpoint", "save", "checkpoint.save"),
    ("layermerge.checkpoint", "inspect", "checkpoint.inspect"),
    ("layermerge.checkpoint:Checkpoint", "get", "checkpoint.get"),
    ("layermerge.cli", "shared_parameters", "alignment.shared_parameters"),
    ("layermerge.discrepancy", "shared_parameters", "alignment.shared_parameters"),
    ("layermerge.toy.experiment", "shared_parameters", "alignment.shared_parameters"),
    ("layermerge.cli", "compute_schedule", "merge.schedule"),
    ("layermerge.toy.experiment", "compute_schedule", "merge.schedule"),
    ("layermerge.cli", "layerwise_merge", "merge.kernel"),
    ("layermerge.cli", "fisher_merge", "merge.kernel"),
    ("layermerge.merge:FisherWeights", "from_checkpoint", "merge.fisher_weights"),
    ("layermerge.cli", "discrepancy_profile", "discrepancy.profile"),
    ("layermerge.toy.experiment", "discrepancy_profile", "discrepancy.profile"),
    ("layermerge.cli", "emit_profile", "discrepancy.emit"),
    ("layermerge.cli", "run_experiment", "toy.run"),
    ("layermerge.toy.experiment", "train", "toy.train"),
    ("layermerge.toy.experiment", "evaluate", "toy.evaluate"),
    ("layermerge.toy.experiment", "estimate_fisher", "toy.estimate_fisher"),
    ("layermerge.toy.experiment", "layerwise_merge", "toy.merge"),
    ("layermerge.toy.experiment", "isotropic_merge", "toy.merge"),
    ("layermerge.toy.experiment", "scalar_weighted_merge", "toy.merge"),
    ("layermerge.toy.experiment", "fisher_merge", "toy.merge"),
    ("layermerge.cli", "render_report", "toy.report"),
]

# Spans whose arguments or results the metrics need after the operation.
KEEP_CALL = {"checkpoint.load", "checkpoint.save", "alignment.shared_parameters", "merge.kernel"}

# Per-layer metrics: name -> (unit, better). Order is the report order.
LAYER_METRICS = {
    "checkpoint.get_calls": ("count", "lower"),
    "checkpoint.get_s": ("s", "lower"),
    "checkpoint.inspect_s": ("s", "lower"),
    "checkpoint.load_s": ("s", "lower"),
    "checkpoint.load_mb_per_s": ("MB/s", "higher"),
    "checkpoint.save_s": ("s", "lower"),
    "checkpoint.save_mb_per_s": ("MB/s", "higher"),
    "checkpoint.bytes_written": ("bytes", "lower"),
    "alignment.shared_parameters_s": ("s", "lower"),
    "alignment.shared_tensors": ("count", "higher"),
    "alignment.anchor_only_tensors": ("count", "lower"),
    "alignment.shared_param_fraction": ("ratio", "higher"),
    "merge.schedule_s": ("s", "lower"),
    "merge.kernel_s": ("s", "lower"),
    "merge.kernel_mb_per_s": ("MB/s", "higher"),
    "merge.peak_alloc_mb": ("MB", "lower"),
    "merge.alloc_per_output": ("ratio", "lower"),
    "merge.fisher_weights_s": ("s", "lower"),
    "discrepancy.profile_s": ("s", "lower"),
    "discrepancy.emit_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "toy.train_s": ("s", "lower"),
    "toy.evaluate_s": ("s", "lower"),
    "toy.estimate_fisher_s": ("s", "lower"),
    "toy.merge_s": ("s", "lower"),
    "toy.report_s": ("s", "lower"),
    "toy.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Span name -> self-time metric.
SELF_TIME = {
    "checkpoint.get": "checkpoint.get_s",
    "checkpoint.inspect": "checkpoint.inspect_s",
    "checkpoint.load": "checkpoint.load_s",
    "checkpoint.save": "checkpoint.save_s",
    "alignment.shared_parameters": "alignment.shared_parameters_s",
    "merge.schedule": "merge.schedule_s",
    "merge.kernel": "merge.kernel_s",
    "merge.fisher_weights": "merge.fisher_weights_s",
    "discrepancy.profile": "discrepancy.profile_s",
    "discrepancy.emit": "discrepancy.emit_s",
    "cli.main": "cli.self_s",
    "toy.train": "toy.train_s",
    "toy.evaluate": "toy.evaluate_s",
    "toy.estimate_fisher": "toy.estimate_fisher_s",
    "toy.merge": "toy.merge_s",
    "toy.report": "toy.report_s",
    "toy.run": "toy.self_s",
}

MB = 1e6


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    self_s: float
    call: tuple | None = None  # (args, kwargs, result), dropped after use
    peak_alloc: int | None = None

    def record(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end}


@dataclass
class Tracer:
    track_alloc: bool = False  # tracemalloc peak inside merge.kernel spans
    spans: list[Span] = field(default_factory=list)
    _stack: list[list] = field(default_factory=list)  # [span id, child seconds]
    _next_id: int = 0
    _saved: list[tuple] = field(default_factory=list)

    def call(self, name, fn, /, *args, **kwargs):
        span_id, self._next_id = self._next_id, self._next_id + 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        alloc = self.track_alloc and name == "merge.kernel"
        if alloc:
            tracemalloc.start()
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            span = Span(span_id, parent, name, start, end, end - start - frame[1])
            if alloc:
                span.peak_alloc = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            if name in KEEP_CALL:
                span.call = (args, kwargs, result)
            self.spans.append(span)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        for where, attr, name in SITES:
            module_name, _, class_name = where.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = inspect.getattr_static(owner, attr)
            self._saved.append((owner, attr, original))
            wrapped = self._wrap(getattr(owner, attr), name)
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = staticmethod(wrapped)  # getattr already bound the class
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _arg(call, index, key):
    args, kwargs, _ = call
    return args[index] if len(args) > index else kwargs[key]


def _kernel_input_bytes(call) -> int:
    """Computed bytes the merge kernel reads: every model's shared tensors,
    plus the shared Fisher tensors when the kernel takes Fisher weights."""
    args, kwargs, _ = call
    values = [*args, *kwargs.values()]
    ckpts = values[0]
    alignment = next(v for v in values if hasattr(v, "shared_names"))
    shared = set(alignment.shared_names())
    anchor = ckpts[alignment.anchor]
    total = len(ckpts) * sum(t.data.nbytes for t in anchor.tensors if t.name in shared)
    for v in values[1:]:
        if isinstance(v, list) and v and isinstance(getattr(v[0], "tensors", None), dict):
            total += sum(a.nbytes for f in v for n, a in f.tensors.items() if n in shared)
    return total


def span_metrics(spans: list[Span]) -> dict:
    """Per-layer sums for one operation, plus the byte counts behind rates.

    Consumes the kept call arguments so that large checkpoints are freed.
    """
    m = defaultdict(float)
    m["checkpoint.get_calls"] = 0
    for s in spans:
        m[SELF_TIME[s.name]] += s.self_s
        if s.name == "checkpoint.get":
            m["checkpoint.get_calls"] += 1
        elif s.name == "checkpoint.load":
            m["load_bytes"] += os.stat(_arg(s.call, 0, "path")).st_size
        elif s.name == "checkpoint.save":
            m["save_bytes"] += os.stat(_arg(s.call, 1, "path")).st_size
        elif s.name == "merge.kernel":
            m["kernel_bytes"] += _kernel_input_bytes(s.call)
            if s.peak_alloc is not None:
                m["peak_alloc"] = max(m["peak_alloc"], s.peak_alloc)
        elif s.name == "alignment.shared_parameters" and s.call[2] is not None:
            ckpts = _arg(s.call, 0, "ckpts")
            result = s.call[2]
            shared = set(result.shared_names())
            anchor = ckpts[result.anchor]
            total = sum(t.data.size for t in anchor.tensors)
            m["alignment.shared_tensors"] = len(shared)
            m["alignment.anchor_only_tensors"] = len(result.anchor_only)
            m["alignment.shared_param_fraction"] = (
                sum(t.data.size for t in anchor.tensors if t.name in shared) / total
            )
        s.call = None
    return dict(m)


def cycle_metrics(per_op: list[dict]) -> dict:
    """Combine the operations of one cycle: sums of times, counts and bytes;
    rates from those sums; alignment figures from the cycle's last call."""
    total = defaultdict(float)
    for op in per_op:
        for k, v in op.items():
            if k.startswith("alignment.") and not k.endswith("_s"):
                total[k] = v
            elif k == "peak_alloc":
                total[k] = max(total[k], v)
            else:
                total[k] += v

    def rate(nbytes, seconds):
        return nbytes / MB / seconds if seconds > 0 else 0.0

    out = {name: total.get(name, 0.0) for name in LAYER_METRICS}
    out["checkpoint.load_mb_per_s"] = rate(total["load_bytes"], total["checkpoint.load_s"])
    out["checkpoint.save_mb_per_s"] = rate(total["save_bytes"], total["checkpoint.save_s"])
    out["checkpoint.bytes_written"] = total["save_bytes"]
    out["merge.kernel_mb_per_s"] = rate(total["kernel_bytes"], total["merge.kernel_s"])
    out["merge.peak_alloc_mb"] = total["peak_alloc"] / MB
    out["merge.alloc_per_output"] = (
        total["peak_alloc"] / total["save_bytes"] if total["save_bytes"] else 0.0
    )
    return out

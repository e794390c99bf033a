import importlib.util
import json
import os
import struct
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from layermerge import Checkpoint


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(number, title): acceptance criterion metadata"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    if getattr(item, "_hypothesis_failing_examples", None):
        # Hypothesis's own report hook imports this module to show the failing
        # example as a patch, and it imports libcst, which raises a
        # DeprecationWarning that the suite's filters turn into an error that
        # ends the session; imported here first, it is cached for that hook.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:  # no libcst: the hook skips the patch
                pass
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    status = "PASS" if report.passed else "FAIL"
    number, title = marker.args
    item.config.pluginmanager.get_plugin("terminalreporter").write_line(
        f"acceptance criterion {number:>2} [{status}] {title}"
    )


def benchmark_module(monkeypatch, name):
    """The module ``benchmark/<name>.py``, loaded from its file, since
    ``benchmark/`` is no package."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def make_checkpoint(layer_shapes, rng, dtype=np.float64, metadata=None, prefix="layer"):
    """Checkpoint with one weight+bias group per entry of layer_shapes."""
    arrays = {}
    for i, shape in enumerate(layer_shapes):
        arrays[f"{prefix}{i}.weight"] = rng.standard_normal(shape).astype(dtype)
        arrays[f"{prefix}{i}.bias"] = rng.standard_normal(shape[0] if shape else 1).astype(dtype)
    return Checkpoint.from_arrays(arrays, metadata or {})


def clone_with_noise(ckpt, rng, scale=0.1):
    arrays = {t.name: t.data + scale * rng.standard_normal(t.data.shape).astype(t.data.dtype)
              for t in ckpt.tensors}
    return Checkpoint.from_arrays(arrays, dict(ckpt.metadata))


def random_pool(rng, model_count=None, max_groups=10, max_elements=100):
    """A pool of same-schema random checkpoints plus its group name lists."""
    m = model_count or int(rng.integers(1, 6))
    n_groups = int(rng.integers(1, max_groups + 1))
    shapes = []
    for _ in range(n_groups):
        rows = int(rng.integers(1, max(2, int(max_elements**0.5) + 1)))
        cols = int(rng.integers(1, max(2, max_elements // rows + 1)))
        shapes.append((rows, cols))
    pool = [make_checkpoint(shapes, rng) for _ in range(m)]
    groups = [[f"layer{i}.weight", f"layer{i}.bias"] for i in range(n_groups)]
    return pool, groups


def patch_header(path, mutate):
    """File bytes with the JSON header passed through ``mutate`` in place."""
    raw = bytearray(path.read_bytes())
    (header_len,) = struct.unpack("<Q", bytes(raw[:8]))
    header = json.loads(raw[8 : 8 + header_len].decode())
    mutate(header)
    new_header = json.dumps(header, separators=(",", ":")).encode()
    return struct.pack("<Q", len(new_header)) + new_header + bytes(raw[8 + header_len :])


# JSON past Python's limits: nested deeper than any Python's recursion
# limit, and an integer longer than its 4,300-digit conversion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000
LONG_INT_JSON = "9" * 5_000
# checkpoint headers holding them: in a metadata value, and as an offset
HEADERS_PAST_LIMITS = {
    "deep": '{"tensors": {}, "metadata": {"x": %s}}' % DEEP_JSON,
    "long-integer": '{"tensors": {"x": {"dtype": "F32", "shape": [1], "offsets": [0, %s]}}}'
                    % LONG_INT_JSON,
}


def write_raw_header(path, header: str) -> None:
    """Write a file of the length prefix and ``header``, with no data."""
    path.write_bytes(struct.pack("<Q", len(header.encode())) + header.encode())


def as_flat_dicts(pool):
    """Plain-Python view of a pool for the naive reference oracles."""
    return [
        {t.name: [float(v) for v in np.asarray(t.data, dtype=np.float64).ravel()]
         for t in ckpt.tensors}
        for ckpt in pool
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


def preadv_recorder():
    """``(reads, preadv)``: an ``os.preadv`` that appends the (inode,
    offset, byte count) of every read it makes to ``reads``."""
    reads = []
    preadv = os.preadv

    def counted(fd, buffers, offset):
        done = preadv(fd, buffers, offset)
        reads.append((os.fstat(fd).st_ino, offset, done))
        return done

    return reads, counted


def short_reads(monkeypatch, cap=4096, end=None):
    """Make ``os.preadv`` read at most ``cap`` bytes a call, as a read may,
    and, given ``end`` (a path and a file offset), read nothing from that
    offset of that file on, as if the file ended there. Returns the offset
    of every call, in order."""
    preadv, calls = os.preadv, []
    ino = end[0].stat().st_ino if end else None

    def short(fd, buffers, offset):
        calls.append(offset)
        if end and offset >= end[1] and os.fstat(fd).st_ino == ino:
            return 0
        (buffer,) = buffers
        return preadv(fd, [buffer.reshape(-1).view(np.uint8)[:cap]], offset)

    monkeypatch.setattr(os, "preadv", short)
    return calls


def counting_reads(monkeypatch):
    reads, counted = preadv_recorder()
    monkeypatch.setattr(os, "preadv", counted)
    return reads


def data_section(path) -> tuple[int, int]:
    """The file offsets where the data section of a checkpoint starts and ends."""
    (header_len,) = struct.unpack("<Q", path.read_bytes()[:8])
    return 8 + header_len, path.stat().st_size


def bytes_read_once(reads, path) -> bool:
    """Whether the reads of ``path`` cover its whole data section (with no
    gaps between tensors) exactly once."""
    ino = path.stat().st_ino
    spans = sorted((offset, offset + n) for i, offset, n in reads if i == ino)
    start, end = data_section(path)
    return spans == [] if start == end else (
        spans[0][0] == start and spans[-1][1] == end
        and all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    )


def write_layout(path, arrays, order, gaps) -> None:
    """A checkpoint whose data section holds ``arrays`` in ``order``, each
    after its gap of junk bytes; the header lists them in ``arrays`` order."""
    entries, chunks, offset = {}, [], 0
    for name, gap in zip(order, gaps):
        data = arrays[name].tobytes()
        chunks += [b"\xa5" * gap, data]
        offset += gap
        entries[name] = [offset, offset + len(data)]
        offset += len(data)
    header = {"tensors": {
        name: {"dtype": "F32" if a.dtype.itemsize == 4 else "F64",
               "shape": list(a.shape), "offsets": entries[name]}
        for name, a in arrays.items()
    }, "metadata": {}}
    blob = json.dumps(header).encode()
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + b"".join(chunks))

"""Portable binary checkpoint format.

A checkpoint file is laid out as:

    [8 bytes]  little-endian unsigned header length L
    [L bytes]  UTF-8 JSON header:
                 {"tensors": {name: {"dtype": "F32"|"F64",
                                     "shape": [...],
                                     "offsets": [start, end]}, ...},
                  "metadata": {str: str, ...}}
    [rest]     concatenated little-endian element buffers, row-major

Offsets are relative to the start of the data section. Tensor order in the
file equals the order of the "tensors" object and round-trips exactly.
Saving is deterministic: the same checkpoint value always produces the same
bytes (metadata keys are sorted; tensor order is part of the value), and
writes each tensor's buffer to the file without assembling the whole file
in memory. ``open_file`` parses the header and reads a tensor only when its
``data`` is accessed, through the descriptor that read the header. It is
the one reader: ``load`` is ``open_file`` plus one pass that reads every
tensor, and ``inspect`` is ``open_file`` plus one pass over the header's
names, dtypes and shapes that reads no data. Every read fills a fresh
read-only array.

Only F32 and F64 element types are supported. Metadata values are plain
strings; numeric values are parsed where they are used.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DTYPE_TO_NUMPY = {"F32": np.dtype("<f4"), "F64": np.dtype("<f8")}
NUMPY_TO_DTYPE = {np.dtype("float32"): "F32", np.dtype("float64"): "F64"}

# Optional metadata keys with toolkit-level meaning.
META_LAYER_ORDER = "layer_order"   # JSON list of layer-group prefixes
META_PERFORMANCE = "performance"   # decimal string, e.g. "46.9"


class CheckpointError(Exception):
    """Base class for checkpoint validation and format errors."""


class CheckpointFormatError(CheckpointError):
    """Raised when a file cannot be parsed as a checkpoint."""


@dataclass(frozen=True)
class TensorRecord:
    """A named tensor. The array owns dtype and shape; data is row-major."""

    name: str
    data: np.ndarray

    def __post_init__(self):
        if not self.name:
            raise CheckpointError("tensor name must be non-empty")
        arr = np.asarray(self.data)
        if arr.dtype not in NUMPY_TO_DTYPE:
            raise CheckpointError(
                f"tensor '{self.name}' has unsupported dtype {arr.dtype}; "
                "only float32 and float64 are supported"
            )
        object.__setattr__(self, "data", arr)

    @property
    def dtype(self) -> str:
        return NUMPY_TO_DTYPE[self.data.dtype]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.data.shape)

    @property
    def element_count(self) -> int:
        return int(self.data.size)


@dataclass
class Checkpoint:
    """An ordered collection of named tensors plus string metadata."""

    tensors: list[TensorRecord] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_arrays(cls, arrays, metadata=None) -> "Checkpoint":
        """Build a checkpoint from an ordered mapping of name -> array."""
        records = [TensorRecord(name, np.asarray(a)) for name, a in arrays.items()]
        return cls(records, dict(metadata or {}))

    def names(self) -> list[str]:
        return [t.name for t in self.tensors]

    def get(self, name: str) -> TensorRecord:
        for t in self.tensors:
            if t.name == name:
                return t
        raise KeyError(name)

    def arrays(self) -> dict[str, np.ndarray]:
        return {t.name: t.data for t in self.tensors}

    @property
    def total_parameters(self) -> int:
        return sum(t.element_count for t in self.tensors)

    def validate(self) -> None:
        seen = set()
        for t in self.tensors:
            if t.name in seen:
                raise CheckpointError(f"duplicate tensor name '{t.name}'")
            seen.add(t.name)
        for k, v in self.metadata.items():
            if not isinstance(k, str) or not isinstance(v, str):
                raise CheckpointError("metadata keys and values must be strings")
        if META_LAYER_ORDER in self.metadata:
            prefixes = parse_layer_order(self.metadata[META_LAYER_ORDER])
            match_layer_order(self.names(), prefixes)

    def layer_order(self) -> list[str] | None:
        raw = self.metadata.get(META_LAYER_ORDER)
        return None if raw is None else parse_layer_order(raw)

    def performance(self) -> float | None:
        raw = self.metadata.get(META_PERFORMANCE)
        if raw is None:
            return None
        try:
            return float(raw)
        except ValueError as exc:
            raise CheckpointError(f"metadata performance '{raw}' is not numeric") from exc


def parse_layer_order(raw: str) -> list[str]:
    try:
        prefixes = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"layer_order metadata is not a JSON list: {exc}") from exc
    if not isinstance(prefixes, list) or not all(isinstance(p, str) for p in prefixes):
        raise CheckpointError("layer_order metadata must be a JSON list of strings")
    return prefixes


def match_layer_order(names, prefixes) -> dict[str, str]:
    """Assign every tensor name to exactly one listed prefix.

    A name matches a prefix when it equals the prefix or extends it past a
    dot, so its candidates are itself and its cuts before each dot; a prefix
    listed twice matches twice. Unmatched or ambiguous names and unused
    prefixes are all reported.
    """
    listed = Counter(prefixes)
    assignment: dict[str, str] = {}
    unmatched, ambiguous = [], []
    used = set()
    for name in names:
        cuts = [name, *(name[:i] for i, c in enumerate(name) if c == ".")]
        hits = [p for p in cuts if p in listed]
        count = sum(listed[p] for p in hits)
        if count == 1:
            assignment[name] = hits[0]
            used.add(hits[0])
        elif not count:
            unmatched.append(name)
        else:
            ambiguous.append(name)
    unused = [p for p in prefixes if p not in used]
    if unmatched or ambiguous or unused:
        parts = []
        if unmatched:
            parts.append(f"tensors matching no prefix: {unmatched}")
        if ambiguous:
            parts.append(f"tensors matching several prefixes: {ambiguous}")
        if unused:
            parts.append(f"prefixes matching no tensor: {unused}")
        raise CheckpointError("layer_order inconsistent with tensor names; " + "; ".join(parts))
    return assignment


def _encode(ckpt: Checkpoint) -> list:
    """The file as a list of buffers: length prefix, header, then each
    tensor's contiguous little-endian array (not copied when the tensor
    already is one)."""
    header_tensors = {}
    buffers = []
    offset = 0
    for t in ckpt.tensors:
        arr = np.ascontiguousarray(t.data, dtype=DTYPE_TO_NUMPY[t.dtype])
        header_tensors[t.name] = {
            "dtype": t.dtype,
            "shape": list(t.shape),
            "offsets": [offset, offset + arr.nbytes],
        }
        buffers.append(arr)
        offset += arr.nbytes
    header = {
        "tensors": header_tensors,
        "metadata": {k: ckpt.metadata[k] for k in sorted(ckpt.metadata)},
    }
    header_bytes = json.dumps(header, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    return [struct.pack("<Q", len(header_bytes)), header_bytes, *buffers]


def atomic_write(path, *chunks) -> None:
    """Write the bytes-like ``chunks`` in order through a temporary file in
    the target's directory, fsync it, ``os.replace`` it onto the target and
    fsync the directory. A failed write leaves neither file behind, and a
    finished one survives a crash. An ``OSError`` from the system names the
    target, not the temporary file."""
    path = Path(path)
    directory = path.parent or Path(".")
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=path.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError as exc:
        if exc.errno is None:  # raised by the program, not by a system call
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def save(ckpt: Checkpoint, path) -> None:
    """Serialize a checkpoint. A failed save leaves no file behind."""
    ckpt.validate()
    atomic_write(path, *_encode(ckpt))


def _reject_duplicate_keys(pairs):
    obj = {}
    for k, v in pairs:
        if k in obj:
            raise CheckpointFormatError(f"duplicate key '{k}' in header")
        obj[k] = v
    return obj


def _read_header(fh, path):
    """Parse and validate the header of the unbuffered file ``fh``. Returns
    (tensors, metadata): one :class:`FileTensor` per header entry, in header
    order, each reading through one :class:`_DataSection` of ``fh``."""
    size = os.fstat(fh.fileno()).st_size
    prefix = fh.read(8)
    if len(prefix) < 8:
        raise CheckpointFormatError(f"{path}: malformed header (file too short)")
    (header_len,) = struct.unpack("<Q", prefix)
    if 8 + header_len > size:
        raise CheckpointFormatError(
            f"{path}: header length {header_len} exceeds file size {size}"
        )
    raw = fh.read(header_len)
    section = _DataSection(fh, path)
    try:
        header = json.loads(raw.decode("utf-8"), object_pairs_hook=_reject_duplicate_keys)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"{path}: malformed header: {exc}") from exc
    if not isinstance(header, dict) or not isinstance(header.get("tensors"), dict):
        raise CheckpointFormatError(f"{path}: malformed header: missing 'tensors' object")
    metadata = header.get("metadata", {})
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise CheckpointFormatError(f"{path}: malformed header: metadata must map strings to strings")

    data_size = size - 8 - header_len
    tensors, spans = [], []
    for name, info in header["tensors"].items():
        if not name or not isinstance(info, dict):
            raise CheckpointFormatError(f"{path}: malformed tensor entry '{name}'")
        dtype = info.get("dtype")
        if dtype not in DTYPE_TO_NUMPY:
            raise CheckpointFormatError(f"{path}: tensor '{name}' has unknown dtype {dtype!r}")
        shape = info.get("shape")
        # type() rather than isinstance(): JSON true/false decode to bool, an int subclass
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise CheckpointFormatError(f"{path}: tensor '{name}' has invalid shape {shape!r}")
        offs = info.get("offsets")
        if not (isinstance(offs, list) and len(offs) == 2 and all(type(o) is int for o in offs)):
            raise CheckpointFormatError(f"{path}: tensor '{name}' has invalid offsets {offs!r}")
        start, end = offs
        if not (0 <= start <= end <= data_size):
            raise CheckpointFormatError(
                f"{path}: tensor '{name}' offsets [{start}, {end}) out of bounds "
                f"for data section of {data_size} bytes"
            )
        expected = math.prod(shape) * DTYPE_TO_NUMPY[dtype].itemsize
        if end - start != expected:
            raise CheckpointFormatError(
                f"{path}: tensor '{name}' byte range {end - start} does not match "
                f"shape {shape} ({expected} bytes expected)"
            )
        # A shape that fits the data section can only exceed numpy's limits by
        # its dimension count (at least 32 in every numpy), or, when it holds no
        # elements, by the product of its extents; only those are tried.
        if expected == 0 or len(shape) > 32:
            try:
                np.broadcast_to(np.empty((), DTYPE_TO_NUMPY[dtype]), shape)
            except ValueError as exc:
                raise CheckpointFormatError(
                    f"{path}: tensor '{name}' has invalid shape {shape!r}: {exc}"
                ) from exc
        tensors.append(FileTensor(name, dtype, tuple(shape), start, section))
        if end > start:
            spans.append((start, end, name))

    spans.sort(key=lambda span: span[0])  # stable: ties keep header order
    for (_, end_a, name_a), (start_b, _, name_b) in zip(spans, spans[1:]):
        if start_b < end_a:
            raise CheckpointFormatError(
                f"{path}: tensors '{name_a}' and '{name_b}' have overlapping offset ranges"
            )
    return tensors, metadata


class FileTensor:
    """A tensor of a checkpoint opened with :func:`open_file`. Name, dtype
    and shape come from the header; every access to ``data`` reads the
    tensor from the file into a fresh read-only array."""

    __slots__ = ("name", "dtype", "shape", "_start", "_section")

    def __init__(self, name, dtype, shape, start, section):
        self.name, self.dtype, self.shape = name, dtype, shape
        self._start, self._section = start, section

    @property
    def element_count(self) -> int:
        return math.prod(self.shape)

    @property
    def data(self) -> np.ndarray:
        return self._section.read(self.dtype, self.shape, self._start)


def _identity(fh):
    st = os.fstat(fh.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class _DataSection:
    """Reads tensors from the data section of an open checkpoint file.

    Once the file is closed, a read reopens its path and refuses any file
    but the one that was opened, unchanged.
    """

    def __init__(self, fh, path):
        self.fh, self.path = fh, path
        self.base = fh.tell()
        self.identity = _identity(fh)

    def read(self, dtype, shape, start) -> np.ndarray:
        arr = np.empty(shape, DTYPE_TO_NUMPY[dtype])
        if not self.fh.closed:
            self._fill(self.fh, arr, start)
        else:
            with open(self.path, "rb", buffering=0) as fh:
                if _identity(fh) != self.identity:
                    raise CheckpointFormatError(f"{self.path}: file changed after it was closed")
                self._fill(fh, arr, start)
        arr.setflags(write=False)
        return arr

    def _fill(self, fh, arr, start) -> None:
        # a positioned read into the array itself: no seek, no intermediate copy
        pos = self.base + start
        done = os.preadv(fh.fileno(), [arr], pos)
        while done < arr.nbytes:  # a read stopped short; one that reads nothing hit the end
            n = os.preadv(fh.fileno(), [arr.reshape(-1).view(np.uint8)[done:]], pos + done)
            if not n:
                raise CheckpointFormatError(f"{self.path}: file shrank while it was read")
            done += n


@contextlib.contextmanager
def open_file(path):
    """Open a checkpoint file as a :class:`Checkpoint` of
    :class:`FileTensor` records, closing it on exit.

    The header is parsed now; each tensor is read when its ``data`` is
    accessed, through the one descriptor that read the header, so a file
    replaced meanwhile is never read half old, half new, and a file that
    shrinks is a :class:`CheckpointFormatError`.
    """
    # unbuffered, so no part of the data section is read twice
    with open(path, "rb", buffering=0) as fh:
        yield Checkpoint(*_read_header(fh, path))


def load(path) -> Checkpoint:
    """Load a checkpoint; tensor order equals header order."""
    with open_file(path) as ckpt:
        return Checkpoint([TensorRecord(t.name, t.data) for t in ckpt.tensors], ckpt.metadata)


@dataclass(frozen=True)
class CheckpointSummary:
    tensors: list[tuple[str, str, tuple[int, ...]]]  # (name, dtype, shape)
    total_parameters: int
    metadata: dict[str, str]

    def render(self) -> str:
        lines = []
        for name, dtype, shape in self.tensors:
            lines.append(f"{name}  {dtype}  {list(shape)}")
        lines.append(f"total_parameters: {self.total_parameters}")
        for k in sorted(self.metadata):
            lines.append(f"metadata.{k}: {self.metadata[k]}")
        return "\n".join(lines)


def inspect(path) -> CheckpointSummary:
    """Summarize a checkpoint file without decoding any tensor data."""
    with open_file(path) as ckpt:
        return CheckpointSummary(
            [(t.name, t.dtype, t.shape) for t in ckpt.tensors], ckpt.total_parameters, ckpt.metadata
        )

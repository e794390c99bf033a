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
names, dtypes and shapes that reads no data. Small tensors that lie next to
each other are read in runs, one read per run of at most 256 KiB. While the
file is open, every access to a tensor of the run a reader keeps returns a
new read-only view of that run, a tensor of a run not read yet reads and
keeps that run, and any other tensor is read alone into a new read-only
array, as is every tensor after the file is closed. A reader keeps at most
one run per file beyond the arrays it has returned, and reads no run twice.
``read_flat`` reads the values of several tensors, neighbours in a run as
one view of it, for the merge's blocks and the profile's batches, and
returns the runs they came from, so that a caller can check each run once;
the reader itself checks no values. The records of an open file refer to
its reader and the reader to none of them, so reference counting frees a
checkpoint's records, with no help from the cyclic garbage collector, as
soon as it is dropped.

Only F32 and F64 element types are supported. Metadata values are plain
strings; numeric values are parsed where they are used.
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
import os
import struct
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain
from pathlib import Path
from types import SimpleNamespace

import numpy as np

DTYPE_TO_NUMPY = {"F32": np.dtype("<f4"), "F64": np.dtype("<f8")}
NUMPY_TO_DTYPE = {np.dtype("float32"): "F32", np.dtype("float64"): "F64"}
_DTYPE_NAMES = tuple(DTYPE_TO_NUMPY)  # compared by ==, so an unhashable value is just unknown
_ITEMSIZE = {name: dtype.itemsize for name, dtype in DTYPE_TO_NUMPY.items()}

_RUN_BYTES = 1 << 18  # adjacent tensors in one window of this size are read together

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

    def run_key(self):
        """None: a tensor in memory is in no run of a file (see
        ``FileTensor.run_key``)."""
        return None


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
    data = [t.data for t in ckpt.tensors]
    dtypes = [NUMPY_TO_DTYPE[x.dtype] for x in data]
    buffers = list(map(np.ascontiguousarray, data, map(DTYPE_TO_NUMPY.get, dtypes)))
    ends = list(accumulate(map(operator.attrgetter("nbytes"), buffers)))
    header = {
        # the shape of the data, not of its buffer: a 0-d array's buffer is 1-d
        "tensors": {t.name: {"dtype": dtype, "shape": list(x.shape), "offsets": [start, end]}
                    for t, x, dtype, start, end in zip(ckpt.tensors, data, dtypes, [0, *ends], ends)},
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
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for k, _ in pairs:
            if k in seen:
                raise CheckpointFormatError(f"duplicate key '{k}' in header")
            seen.add(k)
    return obj


def _entry_error(name, info, data_size) -> str | None:
    """The message of the first check that the header entry ``name: info``
    fails, without the path, or None when it passes them all."""
    if not name or not isinstance(info, dict):
        return f"malformed tensor entry '{name}'"
    dtype = info.get("dtype")
    if dtype not in _DTYPE_NAMES:
        return f"tensor '{name}' has unknown dtype {dtype!r}"
    shape = info.get("shape")
    # type() rather than isinstance(): JSON true/false decode to bool, an int subclass
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        return f"tensor '{name}' has invalid shape {shape!r}"
    offs = info.get("offsets")
    if not (isinstance(offs, list) and len(offs) == 2 and all(type(o) is int for o in offs)):
        return f"tensor '{name}' has invalid offsets {offs!r}"
    start, end = offs
    if not (0 <= start <= end <= data_size):
        return (f"tensor '{name}' offsets [{start}, {end}) out of bounds "
                f"for data section of {data_size} bytes")
    expected = math.prod(shape) * DTYPE_TO_NUMPY[dtype].itemsize
    if end - start != expected:
        return (f"tensor '{name}' byte range {end - start} does not match "
                f"shape {shape} ({expected} bytes expected)")
    # A shape that fits the data section can only exceed numpy's limits by
    # its dimension count (at least 32 in every numpy), or, when it holds no
    # elements, by the product of its extents; only those are tried.
    if expected == 0 or len(shape) > 32:
        try:
            np.broadcast_to(np.empty((), DTYPE_TO_NUMPY[dtype]), shape)
        except ValueError as exc:
            return f"tensor '{name}' has invalid shape {shape!r}: {exc}"
    return None


def _valid_entries(entries, data_size):
    """``(dtypes, shapes, starts, ends)`` of the header's tensor entries, in
    header order, when every entry passes every check of ``_entry_error``;
    else None. The type checks run as C-level passes over all entries, and
    bounds and byte sizes as array operations."""
    infos = list(entries.values())
    if "" in entries or set(map(type, infos)) - {dict}:
        return None
    try:
        dtypes = [info["dtype"] for info in infos]
        shapes = [info["shape"] for info in infos]
        offsets = [info["offsets"] for info in infos]
    except KeyError:
        return None
    if (
        set(map(type, dtypes)) - {str} or set(dtypes) - set(_DTYPE_NAMES)
        or set(map(type, shapes)) - {list}
        or set(map(type, offsets)) - {list} or set(map(len, offsets)) - {2}
    ):
        return None
    dims, offs = list(chain.from_iterable(shapes)), list(chain.from_iterable(offsets))
    if set(map(type, dims)) - {int} or min(dims, default=0) < 0 or set(map(type, offs)) - {int}:
        return None
    sizes = map(operator.mul, map(math.prod, shapes), map(_ITEMSIZE.get, dtypes))  # exact
    try:
        bounds = np.array(offs, np.int64).reshape(-1, 2)
        expected = np.array(list(sizes), np.int64)
    except OverflowError:  # a value no data section can hold
        return None
    starts, ends = bounds[:, 0], bounds[:, 1]
    good = (0 <= starts) & (starts <= ends) & (ends <= data_size) & (ends - starts == expected)
    if not good.all():
        return None
    ndims = np.fromiter(map(len, shapes), int, len(shapes))
    for i in np.flatnonzero((expected == 0) | (ndims > 32)):
        try:
            np.broadcast_to(np.empty((), DTYPE_TO_NUMPY[dtypes[i]]), shapes[i])
        except ValueError:
            return None
    return dtypes, shapes, starts, ends


def _read_header(fh, path):
    """Parse and validate the header of the unbuffered file ``fh``. Returns
    (tensors, metadata): one :class:`FileTensor` per header entry, in header
    order, each reading through one :class:`_DataSection` of ``fh``.

    Entries are checked in header order, and each entry's checks in one
    order, so a header with several faults is reported by the first check
    of its first failing entry; overlaps are checked after every entry.
    """
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

    entries = header["tensors"]
    data_size = size - 8 - header_len
    valid = _valid_entries(entries, data_size)
    if valid is None:
        for name, info in entries.items():
            message = _entry_error(name, info, data_size)
            if message:
                raise CheckpointFormatError(f"{path}: {message}")
    dtypes, shapes, starts, ends = valid

    # non-empty tensors by start; stable, so ties keep header order
    spans = np.flatnonzero(ends > starts)
    spans = spans[np.argsort(starts[spans], kind="stable")]
    first, last = starts[spans], ends[spans]
    overlaps = np.flatnonzero(first[1:] < last[:-1])
    if overlaps.size:
        a, b = spans[overlaps[0]], spans[overlaps[0] + 1]
        names = list(entries)
        raise CheckpointFormatError(
            f"{path}: tensors '{names[a]}' and '{names[b]}' have overlapping offset ranges"
        )
    members = _runs(spans, first, last, np.array(dtypes, "U3")[spans])
    runs = np.full(len(dtypes), -1)
    for run, indices in enumerate(members):
        runs[indices] = run
    # the section holds no tensor, so nothing refers back from it and a
    # closed checkpoint's records are freed as soon as they are dropped
    section.runs = [(int(starts[indices[0]]), int(ends[indices[-1]]), dtypes[indices[0]])
                    for indices in members]
    tensors = [
        FileTensor(name, dtype, tuple(shape), start, end, run, section)
        for name, dtype, shape, start, end, run
        in zip(entries, dtypes, shapes, starts.tolist(), ends.tolist(), runs.tolist())
    ]
    return tensors, metadata


def _runs(spans, starts, ends, dtypes) -> list:
    """The runs (see ``_DataSection``) of the non-empty tensors ``spans``,
    header indices sorted by start with their starts, ends and dtypes, as
    arrays of header indices in file order."""
    # a tensor joins the one before it when it follows it directly, has its
    # dtype and ends in the window where that one starts; so every tensor
    # of a run lies in that one window
    joins = (
        (starts[1:] == ends[:-1]) & (dtypes[1:] == dtypes[:-1])
        & (starts[:-1] // _RUN_BYTES == (ends[1:] - 1) // _RUN_BYTES)
    )
    groups = np.split(spans, np.flatnonzero(~joins) + 1) if spans.size else []
    return [g for g in groups if g.size > 1]


class FileTensor:
    """A tensor of a checkpoint opened with :func:`open_file`. Name, dtype
    and shape come from the header; ``data`` is read from the file when it
    is accessed (see :class:`_DataSection`), into a read-only array that no
    earlier access returned."""

    __slots__ = ("name", "dtype", "shape", "_start", "_end", "_run", "_section")

    def __init__(self, name, dtype, shape, start, end, run, section):
        self.name, self.dtype, self.shape = name, dtype, shape
        self._start, self._end, self._run, self._section = start, end, run, section

    @property
    def element_count(self) -> int:
        return math.prod(self.shape)

    @property
    def data(self) -> np.ndarray:
        return self._section.read(self)

    def read_run(self, count):
        """``(values, run)`` from the run that holds this tensor, read now
        if it never was: the ``count`` elements from where this tensor
        starts (the run must hold them, see ``run_segments``) as a flat
        read-only view, and the whole run's values, so that a caller can
        check the run once. None when the tensor is in no run, its run was
        read before and dropped, the file is closed or no longer holds the
        run."""
        return self._section.read_run(self, count)

    def run_key(self):
        """A value equal for the tensors of one run of one open file, and
        None for a tensor in no run."""
        return (self._section, self._run) if self._run >= 0 else None


def run_segments(tensors) -> np.ndarray:
    """An id for each of ``tensors`` (records or None) such that a stretch
    of equal ids lies back to back, in that order, in one run of one file
    opened with ``open_file``, and is one slice of the run's buffer; -1
    for a tensor in no run."""
    files = tensors if set(map(type, tensors)) <= {FileTensor} else \
        [t if type(t) is FileTensor else _OUTSIDE for t in tensors]
    n = len(files)
    runs, starts, ends = (np.fromiter(map(operator.attrgetter(a), files), np.int64, n)
                          for a in ("_run", "_start", "_end"))
    sections = np.fromiter(map(id, map(operator.attrgetter("_section"), files)), np.uint64, n)
    joins = (runs[1:] >= 0) & (runs[1:] == runs[:-1]) & (sections[1:] == sections[:-1]) \
        & (starts[1:] == ends[:-1])
    ids = np.cumsum(np.concatenate([[True], ~joins])[:n])
    return np.where(runs >= 0, ids, -1)


_OUTSIDE = SimpleNamespace(_run=-1, _start=0, _end=0, _section=None)  # a tensor in no run


def read_flat(records, sizes, segments):
    """``(pieces, runs)``: the values of the tensor ``records`` (of any
    kind, ``sizes`` elements each) as flat arrays that hold them back to
    back when put together, and ``(record, run)`` for each piece read as a
    view of a run: the record it begins with and the whole run's values.
    Neighbours of one run segment (``segments``, see ``run_segments``) are
    one view of their run (``FileTensor.read_run``) while it is kept; every
    other tensor is read through its ``data``."""
    cuts = np.flatnonzero((segments[1:] != segments[:-1]) | (segments[1:] < 0)) + 1
    bounds = [0, *cuts.tolist(), len(records)]
    pieces, runs = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        got = records[lo].read_run(int(sizes[lo:hi].sum())) if segments[lo] >= 0 else None
        if got is None:
            pieces.extend(t.data.reshape(-1) for t in records[lo:hi])
            continue
        pieces.append(got[0])
        runs.append((records[lo], got[1]))
    return pieces, runs


def _identity(fh):
    st = os.fstat(fh.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class _DataSection:
    """Reads tensors from the data section of an open checkpoint file.

    A run is two or more tensors of one dtype that follow each other in the
    file without a gap and lie in one aligned window of ``_RUN_BYTES``; a
    tensor larger than the window is never in a run. One rule serves every
    access, through ``FileTensor.data`` or ``FileTensor.read_run``, while
    the file is open: a tensor of the run kept gets a new read-only view of
    that run; a tensor of a run not read yet reads that whole run with one
    ``preadv`` and keeps it; any other tensor is read alone. Only the run
    read last is kept, so a section holds at most ``_RUN_BYTES`` beyond the
    arrays it has returned (which keep their run's buffer alive), and a run
    is read at most once. A run that the file no longer holds in full is
    dropped too, so a file that shrank fails at the first tensor it lost. A
    section refers to no tensor: runs are offsets and a dtype.

    Once the file is closed, every tensor is read alone: a read reopens its
    path and refuses any file but the one that was opened, unchanged.
    """

    def __init__(self, fh, path):
        self.fh, self.path = fh, path
        self.base = fh.tell()
        self.identity = _identity(fh)
        self.runs = []  # (start, end, dtype) of each run
        self._read_runs = set()
        self._kept, self._buf = -1, None  # the run kept and its values

    def read(self, t) -> np.ndarray:
        """The array of the tensor ``t`` (see ``FileTensor.data``)."""
        got = self.read_run(t, math.prod(t.shape))
        if got is not None:
            return got[0].reshape(t.shape)
        arr = np.empty(t.shape, DTYPE_TO_NUMPY[t.dtype])
        with self._file() as fh:
            if not self._fill(fh, arr, t._start):
                raise CheckpointFormatError(f"{self.path}: file shrank while it was read")
        arr.setflags(write=False)
        return arr

    def read_run(self, t, count):
        """``FileTensor.read_run`` of the tensor ``t``."""
        if t._run < 0 or self.fh.closed:
            return None
        if t._run not in self._read_runs:
            self._read_run(t._run)
        if self._kept != t._run:
            return None
        first = (t._start - self.runs[t._run][0]) // self._buf.itemsize
        return self._buf[first:first + count], self._buf

    def _read_run(self, run) -> None:
        self._read_runs.add(run)
        self._kept, self._buf = -1, None  # dropped, even if this run falls short
        start, end, dtype = self.runs[run]
        dtype = DTYPE_TO_NUMPY[dtype]
        buf = np.empty((end - start) // dtype.itemsize, dtype)
        if not self._fill(self.fh, buf, start):
            return
        buf.setflags(write=False)
        self._kept, self._buf = run, buf

    @contextlib.contextmanager
    def _file(self):
        if not self.fh.closed:
            yield self.fh
            return
        with open(self.path, "rb", buffering=0) as fh:
            if _identity(fh) != self.identity:
                raise CheckpointFormatError(f"{self.path}: file changed after it was closed")
            yield fh

    def _fill(self, fh, arr, start) -> bool:
        """Read ``arr.nbytes`` bytes from data-section offset ``start`` into
        ``arr``; False when the file ends first."""
        # a positioned read into the array itself: no seek, no intermediate copy
        if not arr.nbytes:  # nothing to read, so no read
            return True
        pos = self.base + start
        done = os.preadv(fh.fileno(), [arr], pos)
        while done < arr.nbytes:  # a read stopped short; one that reads nothing hit the end
            n = os.preadv(fh.fileno(), [arr.reshape(-1).view(np.uint8)[done:]], pos + done)
            if not n:
                return False
            done += n
        return True


@contextlib.contextmanager
def open_file(path):
    """Open a checkpoint file as a :class:`Checkpoint` of
    :class:`FileTensor` records, closing it on exit.

    The header is parsed now; a tensor is read when its ``data`` is
    accessed, by one rule (see :class:`_DataSection`): while the file is
    open, a tensor of the run kept is a new view of it, a tensor of a run
    not read yet reads and keeps that run, and any other tensor is read
    alone, as is every tensor after the file is closed. Reads go through
    the one descriptor that read the header, so a file replaced meanwhile
    is never read half old, half new, and a file that shrinks is a
    :class:`CheckpointFormatError` at the first tensor it lost. Accessing
    the tensors in file order reads every byte of the data section once,
    with one read per run; beyond the arrays returned, at most one run
    (256 KiB) per open file is kept in memory.
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

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
in memory. ``open_file`` is the one reader: it parses the header into the
checkpoint's index (see ``index``) and reads a tensor only when it is
accessed (see ``_DataSection``); ``load`` is ``open_file`` plus one pass
that reads every tensor, and ``inspect`` one that reads none.

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
from itertools import accumulate, chain, repeat
from pathlib import Path

import numpy as np

DTYPE_TO_NUMPY = {"F32": np.dtype("<f4"), "F64": np.dtype("<f8")}
NUMPY_TO_DTYPE = {np.dtype("float32"): "F32", np.dtype("float64"): "F64"}
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


@dataclass
class Checkpoint:
    """An ordered collection of named tensors plus string metadata."""

    tensors: list[TensorRecord] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)
    _opened = (None, None)  # not a field: the records open_file made, and their file's index

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
        return int(index(self).sizes.sum())

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
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
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


_json_string = json.encoder.encode_basestring  # json.dumps's string encoder when ensure_ascii=False


def _encode(ckpt: Checkpoint) -> list:
    """The file as a list of buffers: length prefix, header, then each
    tensor's contiguous little-endian array (not copied when the tensor
    already is one)."""
    data = [t.data for t in ckpt.tensors]
    dtypes = [NUMPY_TO_DTYPE[x.dtype] for x in data]
    buffers = list(map(np.ascontiguousarray, data, map(DTYPE_TO_NUMPY.get, dtypes)))
    ends = list(accumulate(map(operator.attrgetter("nbytes"), buffers)))
    # Each entry is the text json.dumps(..., ensure_ascii=False) gives it: the
    # name through the same string encoder, the shape of the data (not of its
    # buffer: a 0-d array's buffer is 1-d), the rest integers and dtype names.
    entries = ",".join(
        f'{_json_string(t.name)}:{{"dtype":"{dtype}","shape":[{",".join(map(str, x.shape))}],'
        f'"offsets":[{start},{end}]}}'
        for t, x, dtype, start, end in zip(ckpt.tensors, data, dtypes, [0, *ends], ends))
    metadata = json.dumps({k: ckpt.metadata[k] for k in sorted(ckpt.metadata)},
                          separators=(",", ":"), ensure_ascii=False)
    header_bytes = f'{{"tensors":{{{entries}}},"metadata":{metadata}}}'.encode("utf-8")
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
                raise ValueError(f"duplicate key '{k}'")  # ``_read_header`` names the file
            seen.add(k)
    return obj


# the message of each header-entry check of ``_valid_entries``, by number
_ENTRY_ERRORS = {
    1: "malformed tensor entry '{name}'",
    2: "tensor '{name}' has unknown dtype {dtype!r}",
    3: "tensor '{name}' has invalid shape {shape!r}",
    4: "tensor '{name}' has invalid offsets {offsets!r}",
    5: "tensor '{name}' offsets [{offsets[0]}, {offsets[1]}) out of bounds for data section of {size} bytes",
    6: "tensor '{name}' byte range {length} does not match shape {shape} ({expected} bytes expected)",
    7: "tensor '{name}' has invalid shape {shape!r}: {error}",
}


def _valid_entries(entries, data_size):
    """``(0, (dtypes, shapes, starts, ends))``, the header's tensor entries
    as columns in header order, when every entry passes the seven checks of
    ``_ENTRY_ERRORS``; else ``(check, fields)``: the first check that some
    entry fails and the fields its message takes, of the failing entry when
    the header has only one.

    Each check runs over all entries before the next, the type checks as
    C-level passes and bounds and byte sizes as array operations, and a
    header fails a check exactly when one of its entries does."""
    infos = list(entries.values())
    if "" in entries or set(map(type, infos)) - {dict}:
        return 1, {}
    try:  # a field that an entry lacks is None there, and fails its own check
        dtypes, shapes, offsets = ([e[k] for e in infos] for k in ("dtype", "shape", "offsets"))
    except KeyError:
        dtypes, shapes, offsets = ([e.get(k) for e in infos] for k in ("dtype", "shape", "offsets"))
    if set(map(type, dtypes)) - {str} or set(dtypes) - _ITEMSIZE.keys():
        return 2, {"dtype": dtypes[0]}
    # type() rather than isinstance(): JSON true/false decode to bool, an int subclass
    if (set(map(type, shapes)) - {list}
            or set(map(type, dims := list(chain.from_iterable(shapes)))) - {int}
            or min(dims, default=0) < 0):
        return 3, {"shape": shapes[0]}
    if (set(map(type, offsets)) - {list} or set(map(len, offsets)) - {2}
            or set(map(type, offs := list(chain.from_iterable(offsets)))) - {int}):
        return 4, {"offsets": offsets[0]}
    try:  # a value past int64 is past every data section
        starts, ends = np.array(offs, np.int64).reshape(-1, 2).T
        fits = ((0 <= starts) & (starts <= ends) & (ends <= data_size)).all()
    except OverflowError:
        fits = False
    if not fits:
        return 5, {"offsets": offsets[0], "size": data_size}
    sizes = list(map(operator.mul, map(math.prod, shapes), map(_ITEMSIZE.get, dtypes)))  # exact
    try:  # a size past int64 is past every byte range that fits
        expected = np.array(sizes, np.int64)
        fits = (ends - starts == expected).all()
    except OverflowError:
        fits = False
    if not fits:
        return 6, {"length": offsets[0][1] - offsets[0][0], "shape": shapes[0], "expected": sizes[0]}
    # A shape that fits the data section can only exceed numpy's limits by
    # its dimension count (at least 32 in every numpy), or, when it holds no
    # elements, by the product of its extents; only those are tried.
    for i in np.flatnonzero((expected == 0) | (np.fromiter(map(len, shapes), int, len(shapes)) > 32)):
        try:
            np.broadcast_to(np.empty((), DTYPE_TO_NUMPY[dtypes[i]]), shapes[i])
        except ValueError as exc:
            return 7, {"shape": shapes[i], "error": exc}
    return 0, (dtypes, shapes, starts, ends)


def _read_header(fh, path):
    """Parse and validate the header of the unbuffered file ``fh``. Returns
    ``(section, metadata)``: the :class:`_DataSection` of ``fh``, which is
    the index of its tensors, and the header's metadata.

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
    try:
        header = json.loads(raw.decode("utf-8"), object_pairs_hook=_reject_duplicate_keys)
    except RecursionError:  # a fixed text, as the decoder's own differs between Pythons
        raise CheckpointFormatError(f"{path}: malformed header: nested too deeply") from None
    except ValueError as exc:  # bad UTF-8 or JSON, a key given twice, or an integer too long
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
    check, found = _valid_entries(entries, data_size)
    if check:  # the first failing entry: halve ``items``, keeping the half that holds it
        items = list(entries.items())
        while len(items) > 1:
            half = dict(items[:len(items) // 2])
            items = list(half.items()) if _valid_entries(half, data_size)[0] else items[len(half):]
        check, fields = _valid_entries(dict(items), data_size)
        message = _ENTRY_ERRORS[check].format(name=items[0][0], **fields)
        raise CheckpointFormatError(f"{path}: {message}")
    dtypes, shapes, starts, ends = found

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
    shapes = list(map(tuple, shapes))
    return _DataSection(fh, path, list(entries), dtypes, shapes, starts, ends, members), metadata


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


class TensorIndex:
    """The index of a checkpoint's tensors, one row per tensor in the
    checkpoint's order: the columns ``names``, ``dtypes``, ``shapes`` and
    ``sizes`` (element counts), ``rows`` (name -> row, the last for a name
    given twice) and, for the tensors of a file, ``runs`` (each tensor's
    run, -1 for none; see ``_DataSection``), ``starts`` and ``ends`` (its
    offsets in the data section). Functions address tensors by row, with
    -1 for a tensor that is missing. An index built from records has no
    runs and reads a tensor through its record."""

    def __init__(self, names, dtypes, shapes, records=None):
        n = len(names)
        self.names, self.dtypes, self.shapes, self.records = names, dtypes, shapes, records
        self.sizes = np.fromiter(map(math.prod, shapes), np.int64, n)
        self.rows = dict(zip(names, range(n)))
        self.runs = np.full(n, -1)
        self.starts = self.ends = np.zeros(n, np.int64)

    def lookup(self, names) -> np.ndarray:
        """The row of each of ``names``, -1 for a name it lacks."""
        return np.fromiter(map(self.rows.get, names, repeat(-1)), np.intp, len(names))

    def read(self, row) -> np.ndarray:
        """The array of the tensor ``row``."""
        return self.records[row].data

    def read_alone(self, row):
        """None: only a file's tensors are read a chunk at a time."""
        return None


def index(ckpt: Checkpoint) -> TensorIndex:
    """The index of the tensors of ``ckpt``: its file's when they are the
    records ``open_file`` made, else one built from its records, with no
    runs, so that no run of a file stands for a tensor put in its place."""
    made, section = ckpt._opened
    if ckpt.tensors is made:
        return section
    records = ckpt.tensors
    return TensorIndex([t.name for t in records], [t.dtype for t in records],
                       [t.shape for t in records], records)


def same_signature(a, rows_a, b, rows_b, dtype=True) -> np.ndarray:
    """Whether the tensor ``rows_a[k]`` of the index ``a`` and the tensor
    ``rows_b[k]`` of ``b`` have one shape, and one dtype when ``dtype``;
    False where ``rows_b[k]`` is -1."""
    same = rows_b >= 0
    mine, theirs = rows_a.tolist(), rows_b.tolist()
    for ours, other in [(a.shapes, b.shapes), (a.dtypes, b.dtypes)][:1 + dtype]:
        other = [*other, None]  # row -1
        same &= np.fromiter(map(operator.eq, map(ours.__getitem__, mine),
                                map(other.__getitem__, theirs)), bool, len(mine))
    return same


class FileTensor:
    """A tensor of a checkpoint opened with :func:`open_file`. Name, dtype
    and shape come from the header; ``data`` is read from the file when it
    is accessed (see :class:`_DataSection`), into a read-only array that no
    earlier access returned."""

    __slots__ = ("name", "dtype", "shape", "_row", "_section")

    def __init__(self, name, dtype, shape, row, section):
        self.name, self.dtype, self.shape = name, dtype, shape
        self._row, self._section = row, section

    @property
    def data(self) -> np.ndarray:
        return self._section.read(self._row)


def read_flat(index, rows):
    """``(pieces, runs)``: the values of the tensors ``rows`` of ``index``
    (no row -1) as flat arrays that hold them back to back when put
    together, and ``(run, values)`` for each run that this call read from
    the file: the run's id and all its values, so that each run is
    reported once, by the read that reads it. Neighbours that lie back to
    back, in that order, in one run are one ``view`` of it; every other
    tensor is read alone."""
    runs, sizes = index.runs[rows], index.sizes[rows]
    cuts = []  # where a tensor does not follow the one before it directly in its run
    if len(rows) > 1:
        cuts = (np.flatnonzero((runs[1:] < 0) | (runs[1:] != runs[:-1])
                               | (index.starts[rows[1:]] != index.ends[rows[:-1]])) + 1).tolist()
    bounds = [0, *cuts, len(rows)]
    rows = rows.tolist()
    pieces, found = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        got = index.view(rows[lo], int(sizes[lo:hi].sum())) if runs[lo] >= 0 else None
        if got is None:
            pieces.extend(index.read(row).reshape(-1) for row in rows[lo:hi])
            continue
        pieces.append(got[0])
        if got[1] is not None:
            found.append((int(runs[lo]), got[1]))
    return pieces, found


def _identity(fh):
    st = os.fstat(fh.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class _DataSection(TensorIndex):
    """The index of an open checkpoint file's tensors, which reads them
    from its data section.

    A run is two or more tensors of one dtype that follow each other in the
    file without a gap and lie in one aligned window of ``_RUN_BYTES``; a
    tensor larger than the window is never in a run. One rule serves every
    access while the file is open: a tensor of the run kept gets a new
    read-only view of that run; a tensor of a run not read yet reads that
    whole run with one ``preadv`` and keeps it; any other tensor is read
    alone, whole, or a chunk at a time into the caller's buffer
    (``read_alone``). Only the run read
    last is kept, so a section holds at most ``_RUN_BYTES`` beyond the
    arrays it has returned (which keep their run's buffer alive), and a
    run is read at most once. A run that the file no longer holds in full
    is dropped too, so a file that shrank fails at the first tensor it
    lost. A section refers to no tensor record, so reference counting
    frees a checkpoint's records as soon as it is dropped.

    Once the file is closed, the run kept is dropped and every tensor is
    read alone: a read reopens its path and refuses any file but the one
    that was opened, unchanged.
    """

    def __init__(self, fh, path, names, dtypes, shapes, starts, ends, members):
        super().__init__(names, dtypes, shapes)
        self.fh, self.path = fh, path
        self.base = fh.tell()
        self.identity = _identity(fh)
        self.starts, self.ends, self.members = starts, ends, members  # members: each run's rows
        for run, rows in enumerate(members):
            self.runs[rows] = run
        self._read_runs = set()
        self._kept = -1, None  # the run kept and its values

    def read(self, row) -> np.ndarray:
        shape = self.shapes[row]
        got = self.view(row, int(self.sizes[row]))
        if got is not None:
            return got[0].reshape(shape)
        arr = np.empty(shape, DTYPE_TO_NUMPY[self.dtypes[row]])
        with self._file() as fh:
            if not self._fill(fh, arr, int(self.starts[row])):
                raise CheckpointFormatError(f"{self.path}: file shrank while it was read")
        arr.setflags(write=False)
        return arr

    def view(self, row, count):
        """``(piece, values)`` while the file is open: ``piece`` is the
        ``count`` elements from where the tensor ``row`` starts (its run
        must hold them, as ``read_flat`` makes sure) as a flat read-only
        view of its run, which is read now if it never was. ``values`` is
        the whole run's values when this call read the run, so that a
        caller can check the run once, else None. None when the tensor is
        in no run, or its run was read before and dropped, or the file is
        closed or no longer holds the run."""
        run = int(self.runs[row])
        if run < 0 or self.fh.closed:
            return None
        rows = self.members[run]
        start, end, dtype = int(self.starts[rows[0]]), int(self.ends[rows[-1]]), self.dtypes[row]
        new = run not in self._read_runs
        if new:
            self._read_runs.add(run)
            self._kept = -1, None  # dropped, even if this run falls short
            values = np.empty((end - start) // _ITEMSIZE[dtype], DTYPE_TO_NUMPY[dtype])
            if self._fill(self.fh, values, start):
                values.setflags(write=False)
                self._kept = run, values
        kept, values = self._kept
        if kept != run:
            return None
        first = (int(self.starts[row]) - start) // values.itemsize
        return values[first:first + count], values if new else None

    def read_alone(self, row):
        """``(dtype, fill)`` for the tensor ``row`` in no run of the open
        file: its numpy dtype, and ``fill(lo, hi, out)``, which reads its flat
        elements ``lo`` to ``hi`` into ``out``, the caller's contiguous array
        of that dtype, and says whether the file held them. None for a
        tensor of a run, or once the file closed."""
        if self.runs[row] >= 0 or self.fh.closed:
            return None
        dtype, start = DTYPE_TO_NUMPY[self.dtypes[row]], int(self.starts[row])
        return dtype, lambda lo, hi, out: self._fill(self.fh, out, start + lo * dtype.itemsize)

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
    accessed (see :class:`_DataSection`), through the one descriptor that
    read the header, so a file replaced meanwhile is never read half old,
    half new.
    """
    # unbuffered, so no part of the data section is read twice
    with open(path, "rb", buffering=0) as fh:
        section, metadata = _read_header(fh, path)
        records = tuple(map(FileTensor, section.names, section.dtypes, section.shapes,
                            range(len(section.names)), repeat(section)))
        ckpt = Checkpoint(records, metadata)
        ckpt._opened = records, section
        try:
            yield ckpt
        finally:
            section._kept = -1, None


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

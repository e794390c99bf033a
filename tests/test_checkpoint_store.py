import contextlib
import gc
import io
import json
import math
import os
import stat
import struct
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layermerge import (
    Checkpoint,
    CheckpointError,
    CheckpointFormatError,
    TensorRecord,
    inspect,
    load,
    save,
)
from layermerge import checkpoint as ckpt_store
from layermerge.cli import main

import _reference as ref
from conftest import (
    DEEP_JSON, HEADERS_PAST_LIMITS, LONG_INT_JSON, bytes_read_once, counting_reads,
    data_section, make_checkpoint, patch_header, preadv_recorder, short_reads, write_layout,
    write_raw_header,
)


def open_and_close(path) -> None:
    with ckpt_store.open_file(path):
        pass


# every public way to read a checkpoint file
READERS = (load, inspect, open_and_close)


def identical(a: Checkpoint, b: Checkpoint) -> bool:
    if a.names() != b.names() or a.metadata != b.metadata:
        return False
    return all(
        ta.dtype == tb.dtype and ta.shape == tb.shape and np.array_equal(ta.data, tb.data)
        for ta, tb in zip(a.tensors, b.tensors)
    )


names_st = st.text(
    alphabet=st.sampled_from("abcdefgh0123._"), min_size=1, max_size=12
).filter(lambda s: s and not s.isspace())

shapes_st = st.lists(st.integers(0, 4), min_size=0, max_size=3)


@st.composite
def checkpoints(draw):
    n = draw(st.integers(0, 5))
    names = draw(
        st.lists(names_st, min_size=n, max_size=n, unique=True)
    )
    tensors = []
    for name in names:
        shape = tuple(draw(shapes_st))
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        seed = draw(st.integers(0, 2**31))
        data = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
        tensors.append(TensorRecord(name, data))
    meta_keys = draw(st.lists(names_st, max_size=3, unique=True))
    metadata = {k: draw(st.text(max_size=8)) for k in meta_keys}
    metadata.pop("layer_order", None)
    return Checkpoint(tensors, metadata)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(checkpoints())
    def test_save_load_identity(self, tmp_path_factory, ckpt):
        path = tmp_path_factory.mktemp("rt") / "c.st"
        save(ckpt, path)
        assert identical(load(path), ckpt)

    def test_empty_checkpoint(self, tmp_path):
        ckpt = Checkpoint([], {"model_id": "empty"})
        save(ckpt, tmp_path / "e.st")
        loaded = load(tmp_path / "e.st")
        assert loaded.tensors == [] and loaded.metadata == {"model_id": "empty"}

    def test_scalar_tensor(self, tmp_path):
        ckpt = Checkpoint.from_arrays({"x": np.float64(3.5)})
        save(ckpt, tmp_path / "s.st")
        loaded = load(tmp_path / "s.st")
        assert loaded.get("x").shape == () and loaded.get("x").data == 3.5

    def test_tensor_order_preserved(self, tmp_path, rng):
        ckpt = make_checkpoint([(2, 3), (4, 2), (1, 5)], rng)
        save(ckpt, tmp_path / "o.st")
        assert load(tmp_path / "o.st").names() == ckpt.names()


class TestDeterminism:
    def test_identical_values_identical_bytes(self, tmp_path, rng):
        ckpt = make_checkpoint([(3, 3), (2,)], rng, metadata={"b": "2", "a": "1"})
        twin = Checkpoint(
            [TensorRecord(t.name, t.data.copy()) for t in ckpt.tensors],
            {"a": "1", "b": "2"},  # same value, different key order
        )
        save(ckpt, tmp_path / "x.st")
        save(twin, tmp_path / "y.st")
        assert (tmp_path / "x.st").read_bytes() == (tmp_path / "y.st").read_bytes()

    def test_data_section_size(self, tmp_path):
        ckpt = Checkpoint.from_arrays(
            {
                "a.weight": np.zeros((2, 2), dtype=np.float32),
                "a.bias": np.zeros(2, dtype=np.float32),
            }
        )
        save(ckpt, tmp_path / "z.st")
        raw = (tmp_path / "z.st").read_bytes()
        (header_len,) = struct.unpack("<Q", raw[:8])
        assert len(raw) - 8 - header_len == (4 + 2) * 4

    def test_bytes_match_reference_layout(self, tmp_path):
        # the layout built by hand: prefix, compact sorted-metadata header, buffers
        fortran = np.asfortranarray(np.arange(6, dtype=np.float32).reshape(2, 3))
        strided = np.arange(12, dtype=np.float64).reshape(3, 4)[:, ::2]
        ckpt = Checkpoint.from_arrays(
            {"b.weight": fortran, "a.weight": strided, "s": np.float64(2.5),
             "e": np.zeros((0, 3), dtype=np.float32)},
            {"z": "1", "a": "ü"},
        )
        save(ckpt, tmp_path / "r.st")
        buffers = [fortran.tobytes(), strided.tobytes(), np.float64(2.5).tobytes(), b""]
        ends = np.cumsum([len(b) for b in buffers]).tolist()
        entries = zip(ckpt.tensors, [0, *ends], ends)
        header = {
            "tensors": {t.name: {"dtype": t.dtype, "shape": list(t.shape), "offsets": [s, e]}
                        for t, s, e in entries},
            "metadata": {"a": "ü", "z": "1"},
        }
        blob = json.dumps(header, separators=(",", ":"), ensure_ascii=False).encode()
        expected = struct.pack("<Q", len(blob)) + blob + b"".join(buffers)
        assert (tmp_path / "r.st").read_bytes() == expected


@st.composite
def encoder_inputs(draw):
    """Checkpoints of F32 and F64 tensors, 0-d, empty and non-contiguous
    among them, with non-ASCII names and metadata."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    text = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)
    arrays = {}
    for name in draw(st.lists(text, max_size=6, unique=True)):
        shape = draw(st.sampled_from([(), (0,), (0, 3), (1,), (5,), (3, 4), (2, 3, 2)]))
        x = rng.standard_normal(shape).astype(draw(st.sampled_from([np.float32, np.float64])))
        layout = draw(st.sampled_from(["c", "fortran", "strided", "reversed"]))
        if layout == "fortran":
            x = np.asfortranarray(x)
        elif x.ndim and layout == "strided":
            x = np.repeat(x, 2, axis=-1)[..., ::2]
        elif x.ndim and layout == "reversed":
            x = x[::-1]
        arrays[name] = x
    metadata = draw(st.dictionaries(text, st.text(max_size=6), max_size=3))
    return Checkpoint.from_arrays(arrays, metadata)


class TestEncode:
    @settings(max_examples=150, deadline=None)
    @given(encoder_inputs())
    def test_equals_tensor_by_tensor_encoder(self, ckpt):
        def as_bytes(buffers):
            return [bytes(b) if isinstance(b, bytes) else b.tobytes() for b in buffers]

        assert as_bytes(ckpt_store._encode(ckpt)) == as_bytes(ref.ref_encode(ckpt))

    @pytest.mark.parametrize("name", [
        'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "ünïcødé 名前 🙂",
        "\u2028\u2029 separators", "/slash/", 'mixed \\"\\u0041',
    ])
    @pytest.mark.parametrize("shape", [(), (0,), (0, 3), (2, 3)])
    def test_header_bytes_match_dict_encoder(self, name, shape):
        ckpt = Checkpoint.from_arrays(
            {name: np.zeros(shape, np.float32), "next": np.ones(2)},
            {"model_id": name, "\\key": 'v"\n'},
        )
        assert ckpt_store._encode(ckpt)[:2] == ref.ref_encode(ckpt)[:2]


class TestSaveErrors:
    def test_duplicate_name_rejected_no_file(self, tmp_path):
        ckpt = Checkpoint(
            [TensorRecord("a", np.zeros(2)), TensorRecord("a", np.ones(2))]
        )
        target = tmp_path / "dup.st"
        with pytest.raises(CheckpointError, match="duplicate"):
            save(ckpt, target)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # no temp leftovers either

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(CheckpointError, match="dtype"):
            TensorRecord("a", np.zeros(2, dtype=np.int32))

    def test_empty_name_rejected(self):
        with pytest.raises(CheckpointError, match="non-empty"):
            TensorRecord("", np.zeros(2))

    def test_inconsistent_layer_order_rejected(self, tmp_path):
        ckpt = Checkpoint.from_arrays(
            {"a.weight": np.zeros(2)}, {"layer_order": json.dumps(["a", "ghost"])}
        )
        with pytest.raises(CheckpointError, match="ghost"):
            save(ckpt, tmp_path / "l.st")

    @pytest.mark.parametrize("raw", [DEEP_JSON, LONG_INT_JSON], ids=["deep", "long-integer"])
    def test_layer_order_past_python_limits_rejected(self, raw):
        with pytest.raises(CheckpointError, match="layer_order metadata is not a JSON list"):
            ckpt_store.parse_layer_order(raw)

    @staticmethod
    @st.composite
    def names_and_prefixes(draw):
        # a tiny alphabet gives dots, empty components and shared cuts
        names = draw(st.lists(st.text("ab.", max_size=6), unique=True, max_size=8))
        cuts = sorted({n[:i] for n in names for i in range(len(n) + 1)})
        prefix = st.text("ab.", max_size=4)
        if cuts:
            prefix = st.sampled_from(cuts) | prefix
        return names, draw(st.lists(prefix, max_size=8))  # duplicates allowed

    @given(names_and_prefixes())
    @settings(max_examples=300, deadline=None)
    def test_layer_order_lookup_matches_scan(self, case):
        names, prefixes = case
        try:
            expected = ref.ref_match_layer_order(names, prefixes)
        except ValueError as exc:
            with pytest.raises(CheckpointError) as got:
                ckpt_store.match_layer_order(names, prefixes)
            assert str(got.value) == str(exc)
        else:
            assert ckpt_store.match_layer_order(names, prefixes) == expected


class TestLoadErrors:
    @pytest.fixture
    def saved(self, tmp_path, rng):
        ckpt = make_checkpoint([(2, 2)], rng)
        path = tmp_path / "c.st"
        save(ckpt, path)
        return path

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.st"
        path.write_bytes(b"")
        with pytest.raises(CheckpointFormatError, match="malformed header"):
            inspect(path)

    def test_truncated_length_prefix(self, tmp_path):
        path = tmp_path / "short.st"
        path.write_bytes(b"\x01\x02\x03")
        with pytest.raises(CheckpointFormatError, match="too short"):
            load(path)

    def test_header_length_exceeds_file(self, tmp_path):
        path = tmp_path / "huge.st"
        path.write_bytes(struct.pack("<Q", 10_000) + b"{}")
        with pytest.raises(CheckpointFormatError, match="exceeds file size"):
            load(path)

    def test_header_not_json(self, tmp_path):
        body = b"not json at all"
        path = tmp_path / "garbage.st"
        path.write_bytes(struct.pack("<Q", len(body)) + body)
        with pytest.raises(CheckpointFormatError, match="malformed header"):
            load(path)

    def test_offsets_past_end_name_tensor(self, saved):
        def mutate(header):
            header["tensors"]["layer0.weight"]["offsets"] = [0, 10_000]

        saved.write_bytes(patch_header(saved, mutate))
        with pytest.raises(CheckpointFormatError, match="layer0.weight"):
            load(saved)

    def test_overlapping_ranges(self, saved):
        def mutate(header):
            w = header["tensors"]["layer0.weight"]["offsets"]
            header["tensors"]["layer0.bias"]["offsets"] = [w[0], w[0] + 16]

        saved.write_bytes(patch_header(saved, mutate))
        with pytest.raises(CheckpointFormatError, match="overlapping"):
            load(saved)

    def test_unknown_dtype(self, saved):
        def mutate(header):
            header["tensors"]["layer0.weight"]["dtype"] = "I8"

        saved.write_bytes(patch_header(saved, mutate))
        with pytest.raises(CheckpointFormatError, match="dtype"):
            load(saved)

    def test_range_shape_mismatch(self, saved):
        def mutate(header):
            header["tensors"]["layer0.weight"]["shape"] = [3, 3]

        saved.write_bytes(patch_header(saved, mutate))
        with pytest.raises(CheckpointFormatError, match="does not match"):
            load(saved)

    @pytest.mark.parametrize("field, value", [("shape", [True, 4]), ("offsets", [False, 32])])
    def test_boolean_shape_or_offsets_rejected(self, saved, field, value):
        def mutate(header):
            header["tensors"]["layer0.weight"][field] = value

        saved.write_bytes(patch_header(saved, mutate))
        for reader in READERS:
            with pytest.raises(CheckpointFormatError, match=f"invalid {field}"):
                reader(saved)

    def test_truncated_data_section(self, saved):
        raw = saved.read_bytes()
        saved.write_bytes(raw[:-8])
        with pytest.raises(CheckpointFormatError, match="out of bounds"):
            load(saved)

    @pytest.mark.parametrize("shape", [[0, 2**63], [0, 2**40, 2**40], [1] * 65])
    def test_shape_numpy_cannot_hold_rejected(self, tmp_path, shape, capsys):
        path = tmp_path / "one.st"
        save(Checkpoint.from_arrays({"x": np.zeros(1 if 0 not in shape else 0)}), path)
        path.write_bytes(patch_header(path, lambda h: h["tensors"]["x"].update(shape=shape)))
        for reader in READERS:
            with pytest.raises(CheckpointFormatError, match="invalid shape"):
                reader(path)
        assert main(["inspect", str(path)]) == 2
        assert "invalid shape" in capsys.readouterr().err

    @pytest.mark.parametrize("header, reason", [
        ("deep", "nested too deeply"),
        ("long-integer", ""),  # in Python's own words
    ])
    def test_json_past_python_limits_rejected_naming_the_file(self, tmp_path, header, reason):
        path = tmp_path / "h.st"
        write_raw_header(path, HEADERS_PAST_LIMITS[header])
        for reader in READERS:
            with pytest.raises(CheckpointFormatError) as got:
                reader(path)
            assert str(got.value).startswith(f"{path}: malformed header: {reason}")

    @pytest.mark.parametrize("edit", [
        ('"layer0.bias":', '"layer0.weight":'),  # two tensors with one name
        ('"dtype":"F64"', '"dtype":"F64","dtype":"F64"'),  # a key twice in one entry
        ('"performance":', '"model_id":'),  # a metadata key twice
    ])
    def test_duplicate_header_keys_rejected(self, tmp_path, rng, edit):
        path = tmp_path / "dup.st"
        save(make_checkpoint([(2, 3)], rng, metadata={"model_id": "a", "performance": "1"}), path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<Q", raw[:8])
        header = raw[8 : 8 + header_len].decode().replace(*edit, 1)
        assert header != raw[8 : 8 + header_len].decode()
        path.write_bytes(struct.pack("<Q", len(header)) + header.encode() + raw[8 + header_len :])
        for reader in READERS:
            with pytest.raises(CheckpointFormatError, match="duplicate key"):
                reader(path)

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda path: b"", r"malformed header \(file too short\)", id="empty"),
        pytest.param(lambda path: struct.pack("<Q", 10_000) + b"{}", "exceeds file size",
                     id="header-length"),
        pytest.param(lambda path: struct.pack("<Q", 4) + b"nope", "malformed header: Expecting",
                     id="not-json"),
        pytest.param(lambda path: path.read_bytes()[:-8], "out of bounds", id="truncated-data"),
        pytest.param(lambda path: patch_header(path, lambda h: h.pop("tensors")),
                     "malformed header: missing 'tensors' object", id="no-tensors"),
        pytest.param(lambda path: patch_header(path, lambda h: h.update(tensors=[])),
                     "malformed header: missing 'tensors' object", id="tensors-not-object"),
        pytest.param(lambda path: patch_header(path, lambda h: h["metadata"].update(epoch=3)),
                     "malformed header: metadata must map strings to strings",
                     id="metadata-not-string"),
        pytest.param(lambda path: patch_header(path, lambda h: h["tensors"].update(x=[0, 16])),
                     "malformed tensor entry 'x'", id="entry-not-object"),
        pytest.param(lambda path: patch_header(
                         path, lambda h: h["tensors"]["layer0.weight"].update(dtype="I8")),
                     "tensor 'layer0.weight' has unknown dtype 'I8'", id="dtype"),
        pytest.param(lambda path: patch_header(
                         path, lambda h: h["tensors"]["layer0.bias"].update(offsets=[0, 16])),
                     "tensors 'layer0.weight' and 'layer0.bias' have overlapping offset ranges",
                     id="overlap"),
    ])
    def test_every_reader_rejects_with_one_message(self, saved, capsys, edit, message):
        saved.write_bytes(edit(saved))
        messages = set()
        for reader in READERS:
            with pytest.raises(CheckpointFormatError, match=message) as caught:
                reader(saved)
            messages.add(str(caught.value))
        assert len(messages) == 1
        assert main(["inspect", str(saved)]) == 2
        assert capsys.readouterr().err == f"error: {messages.pop()}\n"

    def test_file_truncated_after_header_read(self, saved, monkeypatch):
        read_header = ckpt_store._read_header

        def then_truncate(*args):
            parsed = read_header(*args)
            saved.write_bytes(saved.read_bytes()[:-8])
            return parsed

        monkeypatch.setattr(ckpt_store, "_read_header", then_truncate)
        with pytest.raises(CheckpointFormatError, match="shrank"):
            load(saved)

    def test_file_replaced_after_header_read(self, saved, tmp_path, rng, monkeypatch):
        # An atomic save onto the path between the header parse and the data
        # read must not pair the old header with the new file's data.
        original = load(saved)
        other = tmp_path / "other.st"
        save(make_checkpoint([(2, 2)], rng), other)  # same layout, other values
        read_header = ckpt_store._read_header

        def then_replace(*args):
            parsed = read_header(*args)
            os.replace(other, saved)
            return parsed

        monkeypatch.setattr(ckpt_store, "_read_header", then_replace)
        assert identical(load(saved), original)


@st.composite
def layouts(draw):
    """``(arrays, order, gaps, window)``: tensors in header order, their
    order in the data section, the junk bytes before each, and a run
    window; F32 and F64, zero-size and 0-d tensors, tensors larger than
    the window, and header order unlike file order all occur."""
    count = draw(st.integers(0, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = st.sampled_from([(), (0,), (1,), (3,), (2, 5), (4, 0), (30,), (9, 9)])
    arrays = {
        f"t{i}": rng.standard_normal(draw(shapes)).astype(draw(st.sampled_from(["<f4", "<f8"])))
        for i in range(count)
    }
    order = draw(st.permutations(list(arrays)))
    gaps = draw(st.lists(st.sampled_from([0, 0, 0, 4, 8, 13]), min_size=count, max_size=count))
    return arrays, order, gaps, draw(st.sampled_from([8, 64, 256, 1 << 18]))


class TestRunReads:
    """Adjacent tensors are read in runs; what a reader returns never
    depends on it."""

    @staticmethod
    def matches(array, expected) -> bool:
        dtype, shape, raw = expected
        return (array.dtype == ckpt_store.DTYPE_TO_NUMPY[dtype] and array.shape == shape
                and array.tobytes() == raw and not array.flags.writeable)

    @settings(max_examples=120, deadline=None)
    @given(layouts(), st.randoms(use_true_random=False))
    def test_readers_equal_a_plain_reader(self, tmp_path_factory, layout, random):
        arrays, order, gaps, window = layout
        path = tmp_path_factory.mktemp("runs") / "c.st"
        write_layout(path, arrays, order, gaps)
        expected = ref.ref_read_checkpoint(path)
        with mock.patch.object(ckpt_store, "_RUN_BYTES", window):
            loaded = load(path)
            assert loaded.names() == list(expected)
            assert all(self.matches(t.data, expected[t.name]) for t in loaded.tensors)
            with ckpt_store.open_file(path) as ckpt:
                tensors = list(ckpt.tensors)
                random.shuffle(tensors)
                for t in tensors[: len(tensors) // 2]:  # the rest after the file is closed
                    first = t.data
                    again = t.data
                    assert self.matches(first, expected[t.name])
                    assert self.matches(again, expected[t.name]) and again is not first
            for t in tensors[len(tensors) // 2 :]:
                assert self.matches(t.data, expected[t.name])

    @settings(max_examples=120, deadline=None)
    @given(layouts())
    def test_file_order_reads_every_byte_once_one_read_per_run(self, tmp_path_factory, layout):
        arrays, order, gaps, window = layout
        path = tmp_path_factory.mktemp("runs") / "c.st"
        write_layout(path, arrays, order, [0] * len(order))  # no gaps: every byte is a tensor's
        reads, counted = preadv_recorder()
        with mock.patch.object(ckpt_store, "_RUN_BYTES", window), \
                mock.patch.object(os, "preadv", counted):
            with ckpt_store.open_file(path) as ckpt:
                by_name = {t.name: t for t in ckpt.tensors}
                for name in order:
                    by_name[name].data
        assert bytes_read_once(reads, path)
        assert len(reads) == ref.ref_read_units(path, window)


class TestShortReads:
    """A positioned read may return fewer bytes than it was asked for; the
    reader asks again for the rest, and a read that returns nothing before
    the tensor ends means that the file shrank."""

    @staticmethod
    def saved(tmp_path, rng):
        # a tensor past the run window, read alone, and small ones read in a run
        path = tmp_path / "c.st"
        save(make_checkpoint([(300, 256), (3, 4)], rng, np.float32), path)
        return path

    def test_load_gives_the_bytes_of_whole_reads(self, tmp_path, rng, monkeypatch):
        path = self.saved(tmp_path, rng)
        expected = load(path)
        calls = short_reads(monkeypatch)
        loaded = load(path)
        start, end = data_section(path)
        assert len(calls) == -(-(end - start) // 4096)  # 4 KiB at a time, tensors back to back
        assert loaded.names() == expected.names()
        for t in loaded.tensors:
            e = expected.get(t.name).data
            assert t.data.dtype == e.dtype and t.data.tobytes() == e.tobytes(), t.name

    def test_read_of_nothing_inside_a_tensor_is_a_shrunk_file(self, tmp_path, rng, monkeypatch):
        path = self.saved(tmp_path, rng)
        start, _ = data_section(path)
        short_reads(monkeypatch, end=(path, start + 3 * 4096))  # inside the first tensor
        with pytest.raises(CheckpointFormatError, match="file shrank while it was read"):
            load(path)


class TestOpenFile:
    @pytest.fixture
    def saved(self, tmp_path, rng):
        ckpt = make_checkpoint([(3, 2), (4, 3)], rng, metadata={"model_id": "m"})
        ckpt.tensors.append(TensorRecord("scalar", np.array(1.5, dtype=np.float32)))
        ckpt.tensors.append(TensorRecord("empty", np.zeros((0, 3))))
        path = tmp_path / "c.st"
        save(ckpt, path)
        return path

    def test_header_now_tensors_on_access(self, saved, monkeypatch):
        expected = load(saved)
        reads = counting_reads(monkeypatch)
        with ckpt_store.open_file(saved) as ckpt:
            assert reads == []
            assert ckpt.names() == expected.names() and ckpt.metadata == expected.metadata
            assert [(t.dtype, t.shape) for t in ckpt.tensors] == [
                (t.dtype, t.shape) for t in expected.tensors
            ]
            assert ckpt.total_parameters == expected.total_parameters
            arrays = [t.data for t in ckpt.tensors]
            again = ckpt.tensors[0].data  # of the run kept: a new view of it, no read
        # every byte once: the four F64 tensors in one read, the F32 scalar
        # in another, the empty tensor in none
        assert bytes_read_once(reads, saved) and len(reads) == 2
        assert again is not arrays[0] and again.tobytes() == arrays[0].tobytes()
        assert all(np.array_equal(a, t.data) for a, t in zip(arrays, expected.tensors))
        assert all(not a.flags.writeable for a in arrays)
        assert arrays[0] is not ckpt.tensors[0].data  # a fresh array on each access

    def test_file_truncated_after_open(self, saved):
        with ckpt_store.open_file(saved) as ckpt:
            saved.write_bytes(saved.read_bytes()[:-8])
            ckpt.tensors[0].data
            with pytest.raises(CheckpointFormatError, match="shrank"):
                ckpt.tensors[-2].data

    def test_file_replaced_after_open(self, saved, tmp_path, rng):
        # reads go through the descriptor that read the header
        original = load(saved)
        other = tmp_path / "other.st"
        save(make_checkpoint([(3, 2), (4, 3)], rng), other)
        with ckpt_store.open_file(saved) as ckpt:
            os.replace(other, saved)
            for t in original.tensors[:4]:
                assert np.array_equal(ckpt.get(t.name).data, t.data)

    def test_read_after_close_only_from_the_same_file(self, saved, tmp_path, rng):
        original = load(saved)
        with ckpt_store.open_file(saved) as ckpt:
            pass
        with ckpt_store.open_file(saved) as read_open:
            read_open.tensors[0].data  # its run is read and kept
        assert identical(ckpt, original)  # the unchanged file is opened again
        save(make_checkpoint([(3, 2), (4, 3)], rng), tmp_path / "other.st")
        os.replace(tmp_path / "other.st", saved)
        # after close every read is from the reopened file, never the run kept
        for closed in (ckpt, read_open):
            with pytest.raises(CheckpointFormatError, match="changed"):
                closed.tensors[0].data

    def test_closed_checkpoint_freed_without_the_collector(self, saved):
        def file_tensors() -> int:
            return sum(type(o) is ckpt_store.FileTensor for o in gc.get_objects())

        expected = ref.ref_read_checkpoint(saved)
        gc.collect()
        before = file_tensors()
        gc.disable()
        try:
            with ckpt_store.open_file(saved) as ckpt:
                ckpt.tensors[0].data  # its run is read and kept
            kept = ckpt.tensors[0]
            del ckpt
            load(saved)
            assert file_tensors() == before + 1  # reference counting freed all but one
            # read after close, so from the reopened file, not the run kept
            assert TestRunReads.matches(kept.data, expected[kept.name])
            del kept
            assert file_tensors() == before
        finally:
            gc.enable()

    def test_run_kept_dropped_at_close(self, saved):
        with ckpt_store.open_file(saved) as ckpt:
            first = ckpt.tensors[0].data  # a view of its run, which the reader keeps
            run = weakref.ref(first.base)
            del first
            assert run() is not None
        assert run() is None  # while the closed checkpoint is still held
        assert np.array_equal(ckpt.tensors[0].data, load(saved).tensors[0].data)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.st"
        path.write_bytes(b"\x05\x00")
        with pytest.raises(CheckpointFormatError):
            with ckpt_store.open_file(path):
                pass


class TestMemory:
    def test_save_and_load_build_no_whole_file_copy(self, tmp_path):
        rng = np.random.default_rng(5)
        ckpt = Checkpoint.from_arrays(
            {f"l{i}.weight": rng.standard_normal((256, 1024)).astype(np.float32) for i in range(8)}
        )
        path = tmp_path / "big.st"
        tracemalloc.start()
        try:
            save(ckpt, path)
            save_peak = tracemalloc.get_traced_memory()[1]
            del ckpt
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            loaded = load(path)
            load_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        size = path.stat().st_size  # about 8.4 MB
        assert save_peak < size / 10
        assert load_peak < 1.1 * size  # one data section, no per-tensor copies
        assert all(not t.data.flags.writeable for t in loaded.tensors)


class TestDurability:
    def test_save_fsyncs_file_before_replace_and_directory_after(self, tmp_path, monkeypatch):
        events = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            events.append(("fsync", os.fstat(fd)))
            fsync(fd)

        def recording_replace(src, dst):
            events.append(("replace", os.stat(src)))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        path = tmp_path / "c.st"
        save(make_checkpoint([(2, 2)], np.random.default_rng(0)), path)
        assert [kind for kind, _ in events] == ["fsync", "replace", "fsync"]
        (_, file_stat), (_, tmp_stat), (_, dir_stat) = events
        assert stat.S_ISREG(file_stat.st_mode) and file_stat.st_ino == tmp_stat.st_ino
        assert file_stat.st_ino == path.stat().st_ino
        assert stat.S_ISDIR(dir_stat.st_mode) and dir_stat.st_ino == tmp_path.stat().st_ino

    def test_failed_fsync_leaves_nothing(self, tmp_path, monkeypatch):
        def fail(fd):
            raise OSError("simulated fsync failure")

        monkeypatch.setattr(os, "fsync", fail)
        with pytest.raises(OSError, match="fsync"):
            save(make_checkpoint([(2, 2)], np.random.default_rng(0)), tmp_path / "c.st")
        assert list(tmp_path.iterdir()) == []


def _fuzz_base() -> bytes:
    ckpt = Checkpoint.from_arrays(
        {"a.weight": np.arange(6, dtype=np.float32).reshape(2, 3),
         "a.bias": np.ones(2), "b.weight": np.zeros((1, 2), dtype=np.float32)},
        {"model_id": "fuzz", "performance": "1.5"},
    )
    return b"".join(ckpt_store._encode(ckpt))


FUZZ_BASE = _fuzz_base()
FUZZ_HEADER_LEN = struct.unpack("<Q", FUZZ_BASE[:8])[0]
FUZZ_INTS = st.one_of(
    st.integers(-2, 48), st.sampled_from([2**31, 2**62, 2**63, 2**64]), st.booleans(), st.none()
)


@st.composite
def mutated_checkpoints(draw):
    """Bytes of a real checkpoint with its length prefix, one header byte,
    one tensor's shape or offsets, or its length changed."""
    raw, header_len = FUZZ_BASE, FUZZ_HEADER_LEN
    kind = draw(st.sampled_from(["prefix", "header_byte", "entry", "truncate"]))
    if kind == "prefix":
        value = draw(st.one_of(st.integers(0, 2**64 - 1), st.integers(0, header_len + 64)))
        return struct.pack("<Q", value) + raw[8:]
    if kind == "header_byte":
        pos = draw(st.integers(8, 8 + header_len - 1))
        return raw[:pos] + bytes([draw(st.integers(0, 255))]) + raw[pos + 1 :]
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    header = json.loads(raw[8 : 8 + header_len])
    entry = header["tensors"][draw(st.sampled_from(sorted(header["tensors"])))]
    for field in draw(st.sets(st.sampled_from(["shape", "offsets"]), min_size=1)):
        entry[field] = draw(st.lists(FUZZ_INTS, max_size=4))
    blob = json.dumps(header, separators=(",", ":")).encode()
    return struct.pack("<Q", len(blob)) + blob + raw[8 + header_len :]


class TestFuzzedInput:
    @settings(max_examples=150, deadline=None)
    @given(mutated_checkpoints())
    def test_mutated_bytes_raise_only_format_error(self, tmp_path_factory, raw):
        work = tmp_path_factory.mktemp("fuzz")
        bad, good, out = work / "bad.st", work / "good.st", work / "m.st"
        bad.write_bytes(raw)
        good.write_bytes(FUZZ_BASE)
        verdicts = set()
        for reader in READERS:
            try:
                reader(bad)
                verdicts.add(None)
            except CheckpointFormatError as exc:
                verdicts.add(str(exc))
        assert len(verdicts) == 1  # every reader gives the same verdict
        rejected = None not in verdicts
        for argv in (["inspect", bad], ["merge", bad, good, "--strategy", "isotropic", "--out", out]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([str(a) for a in argv])
            assert "Traceback" not in err.getvalue()
            if rejected:
                assert code == 2 and not out.exists()
            else:
                assert code in (0, 2)


ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.sampled_from(["F32", "x", 2**63, 2**64, -(2**63) - 1, 1.5]),
    st.lists(st.integers(0, 3), max_size=2),
    # extents whose byte count wraps to 0 in 64 bits, alone and after a 0
    st.sampled_from([[2**61], [2**62, 4], [0, 2**61], [2**61, 0, 8]]),
)


@st.composite
def headers(draw):
    """A "tensors" object near a valid one, and its data section's size:
    entries placed one after another, some with a field changed, removed
    or moved over another entry's bytes, some not objects at all."""
    entries, offset = {}, 0
    for i in range(draw(st.integers(0, 6))):
        dtype = draw(st.sampled_from(["F32", "F64"]))
        shape = draw(st.lists(st.integers(0, 3), max_size=3))
        size = int(np.prod(shape)) * (4 if dtype == "F32" else 8)
        entries[f"t{i}"] = {"dtype": dtype, "shape": shape, "offsets": [offset, offset + size]}
        offset += size
    for name in draw(st.lists(st.sampled_from(sorted(entries)), max_size=3)) if entries else []:
        field = draw(st.sampled_from(["dtype", "shape", "offsets", "start", "end", "entry"]))
        info = entries[name]
        if not isinstance(info, dict):
            continue
        if field == "entry":
            entries[name] = draw(st.one_of(ODD_VALUES, st.just({})))
        elif field in ("start", "end"):
            offsets = info.get("offsets")
            if not (isinstance(offsets, list) and len(offsets) == 2
                    and all(type(o) is int for o in offsets)):
                continue
            shift = draw(st.one_of(st.integers(-20, 20), st.sampled_from([2**62, 2**63, 2**64])))
            info["offsets"] = list(info["offsets"])
            info["offsets"][field == "end"] += shift
        elif field in ("dtype", "shape", "offsets"):
            if draw(st.booleans()):
                info.pop(field, None)
            else:
                info[field] = draw(st.one_of(ODD_VALUES, st.lists(ODD_VALUES, max_size=3)))
    if draw(st.booleans()):
        entries[""] = {"dtype": "F32", "shape": [], "offsets": [0, 4]}
    data_size = offset + draw(st.sampled_from([0, 0, 4, 64]))
    return entries, data_size


class TestHeaderChecks:
    """The reader's array checks of header entries against its earlier
    entry-by-entry loop: the same verdict, and the same message."""

    @staticmethod
    def same_message(path, entries, data_size) -> None:
        blob = json.dumps({"tensors": entries, "metadata": {}}).encode()
        path.write_bytes(struct.pack("<Q", len(blob)) + blob + b"\0" * data_size)
        expected = ref.ref_entries_error(entries, data_size)
        if expected is None:
            assert inspect(path).tensors == [
                (name, info["dtype"], tuple(info["shape"])) for name, info in entries.items()
            ]
        else:
            with pytest.raises(CheckpointFormatError) as caught:
                inspect(path)
            assert str(caught.value) == f"{path}: {expected}"

    @settings(max_examples=400, deadline=None)
    @given(headers())
    def test_same_message_as_entry_by_entry_checks(self, tmp_path_factory, case):
        self.same_message(tmp_path_factory.mktemp("hdr") / "c.st", *case)

    def test_first_of_several_overlaps_named(self, tmp_path):
        # header order c, a, d, b; by start a, b, c, d: a/b and c/d overlap
        spans = {"c": [16, 24], "a": [0, 8], "d": [20, 28], "b": [4, 12]}
        entries = {n: {"dtype": "F32", "shape": [2], "offsets": o} for n, o in spans.items()}
        self.same_message(tmp_path / "c.st", entries, 28)


# JSON's four whitespace characters; and others, which JSON does not allow
SPACES = ["", "", " ", "\n", "\t\r\n "]
ODD_SPACES = ["\x0b", "\u00a0", "\ufeff"]
# quotes, backslashes, controls, non-ASCII, a character past the BMP and a lone surrogate
NAME_CHARS = 'ab.é名\U0001F600"\\\n\x00\ud800 '
# every JSON type; integers past int64 and past Python's 4,300 digits; floats,
# one past the float range; nesting shallow and 10^5 deep
LEAVES = st.sampled_from([
    "null", "true", "false", "0", "-0", "3", "-1", "1.5", "8.0", "4e0", "1e400",
    str(2**63), str(2**64), str(-(2**63) - 1), "9" * 5_000,
    "[[]]", "[" * 100 + "]" * 100, "[" * 100_000 + "]" * 100_000,
    '{"a":' * 100_000 + "0" + "}" * 100_000,
]).map(lambda text: ("raw", text)) | st.text(NAME_CHARS, max_size=4).map(lambda s: ("str", s))
# a JSON value as a tree: ("raw", text), ("str", s), ("arr", [node]) or
# ("obj", [(key, node)]), whose keys may repeat
NODES = st.recursive(LEAVES, lambda kids: (
    st.lists(kids, max_size=3).map(lambda items: ("arr", items))
    | st.lists(st.tuples(st.text("ab", max_size=1), kids), max_size=3).map(lambda m: ("obj", m))
), max_leaves=6)


def render(draw, node, spaces) -> str:
    """The JSON text of ``node``, with whitespace drawn from ``spaces``
    around every token and each character of a string written raw where
    JSON allows it, else escaped, in one of its forms."""
    kind, body = node
    if kind == "raw":
        return body
    if kind == "str":
        chars = []
        for c in body:
            forms = [json.dumps(c)[1:-1]] + [f"\\u{ord(c):04X}"] * (ord(c) <= 0xFFFF)
            if not (c in '"\\' or c < " " or "\ud800" <= c <= "\udfff"):
                forms.append(c)
            chars.append(draw(st.sampled_from(forms)))
        return '"' + "".join(chars) + '"'
    space = st.sampled_from(spaces)
    if kind == "arr":
        items = [render(draw, item, spaces) for item in body]
    else:
        items = [render(draw, ("str", key), spaces) + draw(space) + ":" + draw(space)
                 + render(draw, value, spaces) for key, value in body]
    text = ",".join(draw(space) + item + draw(space) for item in items) or draw(space)
    first, last = "{}" if kind == "obj" else "[]"
    return first + text + last


@st.composite
def header_texts(draw):
    """A checkpoint header as JSON text, and its data section's size: near a
    valid header, and now and then with any JSON value in any position,
    keys repeated at any level, floats and long integers where integers
    belong, escaped and non-ASCII names or whitespace JSON does not allow."""
    def rarely(odds=8) -> bool:
        return draw(st.integers(1, odds)) == odds

    def maybe(node):  # mostly the node, else any value
        return draw(NODES) if rarely(12) else node

    def number(value):
        forms = [f"{value}.0", f"{value}e0", "9" * 5_000, str(value + 4), str(-value - 1)]
        return ("raw", draw(st.sampled_from(forms)) if rarely(25) else str(value))

    def repeat_one(pairs):  # now and then a key again, with its value or another
        if pairs and rarely(12):
            key, value = draw(st.sampled_from(pairs))
            pairs.insert(draw(st.integers(0, len(pairs))), (key, maybe(value)))
        return pairs

    entries, offset = [], 0
    for i in range(draw(st.integers(0, 4))):
        dtype = draw(st.sampled_from(["F32", "F64"]))
        shape = draw(st.lists(st.integers(0, 3), max_size=3))
        end = offset + math.prod(shape) * (4 if dtype == "F32" else 8)
        fields = [("dtype", maybe(("str", dtype))), ("shape", maybe(("arr", list(map(number, shape))))),
                  ("offsets", maybe(("arr", [number(offset), number(end)])))]
        fields = draw(st.permutations(fields))[:3 - rarely(20)]
        name = draw(st.text(NAME_CHARS, max_size=3)) if rarely() else f"t{i}"
        entries.append((name, ("obj", repeat_one(fields))))
        offset = end
    metadata = ("obj", repeat_one(draw(st.lists(st.tuples(
        st.text(NAME_CHARS, max_size=2), st.text(NAME_CHARS, max_size=2).map(lambda s: ("str", s))
    ), max_size=2, unique_by=lambda pair: pair[0]))))
    members = [("tensors", maybe(("obj", repeat_one(entries)))), ("metadata", maybe(metadata))]
    members = repeat_one(members[:2 - rarely()] + [("x", draw(NODES))] * rarely())
    spaces = SPACES + ODD_SPACES * rarely(20)
    text = render(draw, maybe(("obj", draw(st.permutations(members)))), spaces)
    return draw(st.sampled_from(spaces)) + text + draw(st.sampled_from(spaces)), \
        offset + draw(st.sampled_from([0, 0, 4]))


def decoded(text):
    """The value of the JSON ``text``, or None where the reader rejects the
    JSON itself: bad syntax, nesting past the decoder's depth, an integer
    past Python's digit limit or a key given twice in one object."""
    repeated = []

    def pairs(items):
        repeated.append(len({key for key, _ in items}) < len(items))
        return dict(items)
    try:
        value = json.loads(text, object_pairs_hook=pairs)
    except (ValueError, RecursionError):
        return None
    return None if any(repeated) else value


class TestHeaderStructure:
    """Headers written as JSON text, so that their structure varies too."""

    @settings(max_examples=200, deadline=None)
    @given(header_texts())
    def test_one_verdict_and_the_entry_by_entry_message(self, tmp_path_factory, case):
        text, data_size = case
        path = tmp_path_factory.mktemp("hdr") / "h.st"
        blob = text.encode()
        path.write_bytes(struct.pack("<Q", len(blob)) + blob + b"\0" * data_size)
        verdicts = set()
        for reader in READERS:
            try:
                reader(path)
                verdicts.add(None)
            except CheckpointFormatError as exc:
                verdicts.add(str(exc))
        assert len(verdicts) == 1, verdicts
        verdict = verdicts.pop()
        header = decoded(text)
        metadata = header.get("metadata", {}) if isinstance(header, dict) else None
        if (isinstance(header, dict) and isinstance(header.get("tensors"), dict)
                and isinstance(metadata, dict) and all(isinstance(v, str) for v in metadata.values())):
            expected = ref.ref_entries_error(header["tensors"], data_size)
            assert verdict == (expected and f"{path}: {expected}")
            if expected is None:
                assert inspect(path).tensors == [(name, info["dtype"], tuple(info["shape"]))
                                                 for name, info in header["tensors"].items()]
        else:
            assert verdict is not None and verdict.startswith(f"{path}: ")


class TestInspect:
    def test_counts_and_metadata(self, tmp_path):
        ckpt = Checkpoint.from_arrays(
            {
                "a.weight": np.zeros((2, 2), dtype=np.float32),
                "a.bias": np.zeros(2, dtype=np.float32),
            },
            {"performance": "46.9"},
        )
        save(ckpt, tmp_path / "c.st")
        summary = inspect(tmp_path / "c.st")
        assert summary.total_parameters == 6
        assert summary.metadata["performance"] == "46.9"
        assert float(summary.metadata["performance"]) == 46.9
        assert ("a.weight", "F32", (2, 2)) in summary.tensors

    def test_render_mentions_every_tensor(self, tmp_path, rng):
        ckpt = make_checkpoint([(2, 2), (3, 2)], rng)
        save(ckpt, tmp_path / "c.st")
        text = inspect(tmp_path / "c.st").render()
        for name in ckpt.names():
            assert name in text


@pytest.mark.parametrize("call, error, message", [
    (lambda: Checkpoint.from_arrays({"a": np.zeros(2)}, {"k": 1}).validate(),
     CheckpointError, "metadata keys and values must be strings"),
    (lambda: Checkpoint.from_arrays({"a": np.zeros(2)}).get("b"), KeyError, "'b'"),
], ids=["metadata value not a string", "get of a missing name"])
def test_refusal_messages(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("arrays, total", [
    ({}, 0),
    ({"a": np.zeros((2, 3)), "b": np.zeros(0, np.float32), "c": np.float64(1.0)}, 7),
], ids=["no tensors", "matrix, empty and scalar"])
def test_total_parameters_counts_the_index(tmp_path, arrays, total):
    ckpt = Checkpoint.from_arrays(arrays)
    save(ckpt, tmp_path / "c.st")
    with ckpt_store.open_file(tmp_path / "c.st") as opened:
        counts = [ckpt.total_parameters, opened.total_parameters]
    assert counts == [total, total] and all(type(n) is int for n in counts)

import json
import struct

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

from conftest import make_checkpoint, patch_header


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
        for reader in (load, inspect):
            with pytest.raises(CheckpointFormatError, match=f"invalid {field}"):
                reader(saved)

    def test_truncated_data_section(self, saved):
        raw = saved.read_bytes()
        saved.write_bytes(raw[:-8])
        with pytest.raises(CheckpointFormatError, match="out of bounds"):
            load(saved)


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

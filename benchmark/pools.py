"""Seeded synthetic checkpoint pools, written in the layermerge file format.

The benchmark writes and reads the format with its own few lines of code
(8-byte little-endian header length, JSON header, raw little-endian
buffers), so the inputs and the reference results never depend on the
code under test. The same seed always gives the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DTYPES = {"F32": np.dtype("<f4"), "F64": np.dtype("<f8")}
DTYPE_NAMES = {v: k for k, v in DTYPES.items()}

# Pool dimensions per scale. "full" is what the benchmark measures; "mini"
# keeps every structural property (model count, anchor-only head, zero
# Fisher mass, BN statistics) at a size that runs in well under a second.
SCALES = {
    "full": {"dense_tensors": 16, "dense_side": 1024, "groups": 2000, "group_width": 16},
    "mini": {"dense_tensors": 4, "dense_side": 32, "groups": 40, "group_width": 4},
}
MODEL_COUNT = 4
FISHER_ZERO_SHARE = 0.01  # elements whose Fisher mass is zero in every model


def write_checkpoint(path: Path, arrays: dict[str, np.ndarray], metadata: dict[str, str]) -> None:
    tensors, offset = {}, 0
    for name, arr in arrays.items():
        size = arr.size * arr.dtype.itemsize
        tensors[name] = {
            "dtype": DTYPE_NAMES[arr.dtype],
            "shape": list(arr.shape),
            "offsets": [offset, offset + size],
        }
        offset += size
    header = json.dumps(
        {"tensors": tensors, "metadata": dict(sorted(metadata.items()))},
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr).tobytes())
        # Write back now, so that flushing the pool does not compete with
        # the timed operations.
        fh.flush()
        os.fsync(fh.fileno())


def read_checkpoint(path: Path) -> dict[str, np.ndarray]:
    """Ordered name -> read-only array view over a memory map of the file."""
    with open(path, "rb") as fh:
        (header_len,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(header_len))
    raw = np.memmap(path, dtype=np.uint8, mode="r")
    base = 8 + header_len
    out = {}
    for name, info in header["tensors"].items():
        start, end = info["offsets"]
        out[name] = raw[base + start : base + end].view(DTYPES[info["dtype"]]).reshape(info["shape"])
    return out


def digest(path: Path) -> str:
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 22):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class Pool:
    """Generated input files of one workload."""

    models: list[Path]
    fishers: list[Path] = field(default_factory=list)
    toy_config: Path | None = None

    def files(self) -> list[Path]:
        extra = [self.toy_config] if self.toy_config else []
        return [*self.models, *self.fishers, *extra]

    def model_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.models)

    def fisher_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.fishers)

    def record(self) -> list[dict]:
        return [
            {"file": p.name, "bytes": p.stat().st_size, "blake2b": digest(p)}
            for p in self.files()
        ]


def _rngs(seed: int, tag: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence([seed, tag]).spawn(count)]


def dense_pool(out: Path, seed: int, scale: str, with_fisher: bool = False) -> Pool:
    """Four F32 models of square `blocks.k.weight` tensors: a shared base plus
    per-model noise, one layer group per tensor. With ``with_fisher`` each
    model also gets an F64 diagonal-Fisher checkpoint whose zero-mass
    elements are common to all models."""
    dims = SCALES[scale]
    side, count = dims["dense_side"], dims["dense_tensors"]
    base_rng, *model_rngs = _rngs(seed, 1, MODEL_COUNT + 1)
    fisher_rngs = _rngs(seed, 2, MODEL_COUNT)
    names = [f"blocks.{k}.weight" for k in range(count)]
    base = {n: base_rng.standard_normal((side, side), dtype=np.float32) for n in names}
    zero_mask = {n: base_rng.random((side, side)) < FISHER_ZERO_SHARE for n in names}

    pool = Pool(models=[])
    for i, rng in enumerate(model_rngs):
        arrays = {n: base[n] + 0.25 * rng.standard_normal((side, side), dtype=np.float32) for n in names}
        path = out / f"model{i}.lm"
        write_checkpoint(path, arrays, {"model_id": f"model{i}"})
        pool.models.append(path)
        if with_fisher:
            fisher = {}
            for n in names:
                f = fisher_rngs[i].exponential(1.0, (side, side))
                f[zero_mask[n]] = 0.0
                fisher[n] = f
            path = out / f"fisher{i}.lm"
            write_checkpoint(path, fisher, {"model_id": f"fisher{i}"})
            pool.fishers.append(path)
    return pool


def many_tensor_pool(out: Path, seed: int, scale: str) -> Pool:
    """Four F32 models of many small BN-style groups (`weight`, `bias`,
    `running_mean`, `running_var`) plus a `head` group whose class count
    differs per model, so the head stays anchor-only."""
    dims = SCALES[scale]
    width, groups = dims["group_width"], dims["groups"]
    base_rng, *model_rngs = _rngs(seed, 3, MODEL_COUNT + 1)
    base = base_rng.standard_normal((groups, width * width + 3 * width), dtype=np.float32)
    pool = Pool(models=[])
    for i, rng in enumerate(model_rngs):
        flat = base + 0.25 * rng.standard_normal(base.shape, dtype=np.float32)
        arrays = {}
        for k in range(groups):
            row = flat[k]
            w2 = width * width
            arrays[f"blocks.{k}.weight"] = row[:w2].reshape(width, width)
            arrays[f"blocks.{k}.bias"] = row[w2 : w2 + width]
            arrays[f"blocks.{k}.running_mean"] = row[w2 + width : w2 + 2 * width]
            arrays[f"blocks.{k}.running_var"] = np.abs(row[w2 + 2 * width :]) + np.float32(0.5)
        classes = 10 + i
        arrays["head.weight"] = rng.standard_normal((classes, width), dtype=np.float32)
        arrays["head.bias"] = rng.standard_normal(classes, dtype=np.float32)
        path = out / f"model{i}.lm"
        write_checkpoint(path, arrays, {"model_id": f"model{i}"})
        pool.models.append(path)
    return pool


def toy_pool(out: Path, seed: int, scale: str, base_config: Path) -> Pool:
    """The toy experiment config with its seed replaced by the benchmark seed.
    The mini scale also shrinks the training set and epoch count."""
    config = json.loads(base_config.read_text())
    config["seed"] = seed
    if scale == "mini":
        config.update(train_samples=60, eval_samples=100, epochs=3)
    path = out / "toy_config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return Pool(models=[], toy_config=path)

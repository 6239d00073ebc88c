"""Checkpoint serialization and the on-disk store.

Binary layout (all integers little-endian):

    magic "SISA" | u32 version=1 | u32 tensor count
    per tensor: u16 name length | UTF-8 name | u8 rank | rank x u32 dims | f32 payload
    footer: 8-byte FNV-1a digest of every preceding byte

Optimizer moments ride along as tensors named ``m.<name>`` / ``v.<name>``.
A sidecar JSON manifest (<file>.json) carries the training cursor: shard id,
slice index, epoch, seed, output classes, architecture, Adam scalars, and
timestamps. Save -> load roundtrips are bitwise exact.
"""
from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, IntegrityError, UnsupportedVersionError
from .files import write_atomic, write_json
from .nn import AdamConfig, Architecture, ModelParameters, OptimizerState
from .rng import RngState

MAGIC = b"SISA"
VERSION = 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


@dataclass
class Checkpoint:
    """Model + optimizer snapshot plus the training cursor it was taken at."""

    params: ModelParameters
    opt_state: OptimizerState
    shard_id: int
    slice_index: int
    epoch: int
    rng: RngState


def _serialize_tensors(named: list[tuple[str, np.ndarray]]) -> bytes:
    buf = bytearray(MAGIC)
    buf += struct.pack("<II", VERSION, len(named))
    for name, arr in named:
        if arr.dtype != np.float32:
            raise ValueError(f"checkpoint tensors must be float32, got {arr.dtype} for {name!r}")
        raw = name.encode("utf-8")
        buf += struct.pack("<H", len(raw)) + raw
        buf += struct.pack("<B", arr.ndim)
        buf += struct.pack(f"<{arr.ndim}I", *arr.shape)
        buf += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    return bytes(buf)


def save_checkpoint(ckpt: Checkpoint, path) -> int:
    """Write the binary plus its sidecar manifest; returns the digest."""
    named = list(ckpt.params.tensors.items())
    named += [(f"m.{k}", t) for k, t in ckpt.opt_state.m.items()]
    named += [(f"v.{k}", t) for k, t in ckpt.opt_state.v.items()]
    body = _serialize_tensors(named)
    digest = fnv1a64(body)
    write_atomic(path, body + struct.pack("<Q", digest))

    cfg = ckpt.opt_state.config
    manifest = {
        "shard_id": ckpt.shard_id,
        "slice_index": ckpt.slice_index,
        "epoch": ckpt.epoch,
        "seed": ckpt.rng.seed,
        "rng_counter": ckpt.rng.counter,
        "output_classes": list(ckpt.params.output_classes),
        "arch": ckpt.params.arch.to_dict(),
        "adam": {"lr": cfg.lr, "beta1": cfg.beta1, "beta2": cfg.beta2,
                 "eps": cfg.eps, "step": ckpt.opt_state.step},
        "digest": f"{digest:016x}",
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    write_json(str(path) + ".json", manifest)
    return digest


def save_params(params: ModelParameters, path, adam: AdamConfig,
                rng: RngState) -> int:
    """Save a model that is never trained further, with no Adam moments:
    the gating router and the full-retraining baseline, which retrains
    from a fresh initialization."""
    no_moments = OptimizerState(config=adam, step=0, m={}, v={})
    return save_checkpoint(Checkpoint(params=params, opt_state=no_moments,
                                      shard_id=-1, slice_index=-1, epoch=0,
                                      rng=rng), path)


def _parse_tensors(body: bytes) -> dict[str, np.ndarray]:
    try:
        count = struct.unpack_from("<I", body, 8)[0]
        offset = 12
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", body, offset)
            offset += 2
            name = body[offset:offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<B", body, offset)
            offset += 1
            dims = struct.unpack_from(f"<{rank}I", body, offset)
            offset += 4 * rank
            size = int(np.prod(dims)) if rank else 1
            end = offset + 4 * size
            if end > len(body):
                raise IntegrityError("checkpoint truncated inside tensor payload")
            tensors[name] = np.frombuffer(body, dtype="<f4", count=size,
                                          offset=offset).reshape(dims).copy()
            offset = end
        if offset != len(body):
            raise IntegrityError("checkpoint has trailing bytes after tensors")
        return tensors
    except struct.error as exc:
        raise IntegrityError(f"checkpoint truncated: {exc}") from exc


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 20:
        raise IntegrityError(f"{path}: file too short to be a checkpoint")
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise UnsupportedVersionError(f"{path}: checkpoint version {version} unsupported")
    body, footer = raw[:-8], raw[-8:]
    (stored,) = struct.unpack("<Q", footer)
    if fnv1a64(body) != stored:
        raise IntegrityError(f"{path}: digest mismatch, file corrupted or truncated")
    tensors = _parse_tensors(body)

    mpath = Path(str(path) + ".json")
    if not mpath.exists():
        raise IntegrityError(f"{path}: sidecar manifest {mpath.name} is missing")
    manifest = json.loads(mpath.read_text())

    params_t = {k: t for k, t in tensors.items() if not k.startswith(("m.", "v."))}
    m = {k[2:]: t for k, t in tensors.items() if k.startswith("m.")}
    v = {k[2:]: t for k, t in tensors.items() if k.startswith("v.")}
    params = ModelParameters(
        arch=Architecture.from_dict(manifest["arch"]),
        output_classes=tuple(manifest["output_classes"]),
        tensors=params_t,
    )
    adam = manifest["adam"]
    opt = OptimizerState(
        config=AdamConfig(lr=adam["lr"], beta1=adam["beta1"],
                          beta2=adam["beta2"], eps=adam["eps"]),
        step=adam["step"], m=m, v=v,
    )
    return Checkpoint(
        params=params, opt_state=opt,
        shard_id=manifest["shard_id"], slice_index=manifest["slice_index"],
        epoch=manifest["epoch"],
        rng=RngState(manifest["seed"], manifest["rng_counter"]),
    )


def stored_digest(path) -> int:
    """Digest from a checkpoint's footer, verified against its body."""
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise IntegrityError(f"{path}: file too short")
    (stored,) = struct.unpack("<Q", raw[-8:])
    if fnv1a64(raw[:-8]) != stored:
        raise IntegrityError(f"{path}: digest mismatch")
    return stored


class CheckpointStore:
    """Run-directory layout: shards/<k>/slice_<l>.ckpt plus gating/baseline."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    def slice_path(self, shard_id: int, slice_index: int) -> Path:
        return self.root / "shards" / str(shard_id) / f"slice_{slice_index}.ckpt"

    def gating_path(self) -> Path:
        return self.root / "gating.ckpt"

    def baseline_path(self) -> Path:
        return self.root / "baseline.ckpt"

    def save_slice(self, ckpt: Checkpoint) -> int:
        return save_checkpoint(ckpt, self.slice_path(ckpt.shard_id, ckpt.slice_index))

    def load_slice(self, shard_id: int, slice_index: int) -> Checkpoint:
        return load_checkpoint(self.slice_path(shard_id, slice_index))

    def shard_digests(self, shard_id: int) -> dict[str, int]:
        shard_dir = self.root / "shards" / str(shard_id)
        if not shard_dir.exists():
            return {}
        return {p.name: stored_digest(p) for p in sorted(shard_dir.glob("*.ckpt"))}

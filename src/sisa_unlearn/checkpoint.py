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
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, IntegrityError, UnsupportedVersionError
from .files import write_atomic, write_json
from .nn import AdamConfig, Architecture, FlatTensors, ModelParameters, OptimizerState
from .rng import RngState

MAGIC = b"SISA"
VERSION = 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
_PRIME_LOW = np.uint8(_FNV_PRIME & 0xFF)
_LANE = 64              # bytes per lane of the affine sum
_BLOCK = 1 << 16        # bytes hashed per pass, a multiple of _LANE


def _powers(base: int, n: int) -> np.ndarray:
    """base**j mod 2**64 for j = 0..n."""
    out = np.empty(n + 1, dtype=np.uint64)
    power = 1
    for j in range(n + 1):
        out[j] = power
        power = power * base & _MASK64
    return out


_POW = _powers(_FNV_PRIME, _LANE)                          # P**j
_POW_LANE = _powers(int(_POW[_LANE]), _BLOCK // _LANE)     # P**(_LANE * j)
_WORD_SHIFTS = [np.uint64(1 << i) for i in range(6)]


def _prefix_xor(bits: np.ndarray) -> np.ndarray:
    """Inclusive prefix XOR of an array of 0/1 bytes, 64 bits per word."""
    n = len(bits)
    packed = np.zeros(-(-n // 64) * 8, dtype=np.uint8)
    packed[:(n + 7) // 8] = np.packbits(bits, bitorder="little")
    words = packed.view("<u8")
    for shift in _WORD_SHIFTS:
        words ^= words << shift
    # each word's top bit is now its parity; XOR in the parity of all before it
    top = words >> np.uint64(63)
    words ^= np.uint64(0) - (np.bitwise_xor.accumulate(top) ^ top)
    return np.unpackbits(packed, count=n, bitorder="little")


def _low_bytes(s0: int, data: np.ndarray) -> np.ndarray:
    """Low byte of the FNV state before each byte of `data`, starting at s0.

    The low byte evolves on its own: s' = ((s ^ b) * prime) & 0xFF. The prime
    is odd, so bit k of a product x * prime is x_k XOR a function of x's bits
    below k; with those bits known, bit k of every state is a prefix XOR.
    """
    s = np.zeros(len(data) + 1, dtype=np.uint8)
    s[0] = s0
    for k in range(8):
        below = (s[:-1] ^ data) & np.uint8((1 << k) - 1)
        step = ((below * _PRIME_LOW) ^ data) >> k & 1
        s[1:] |= (_prefix_xor(step) ^ (s0 >> k & 1)) << k
    return s[:-1]


def fnv1a64(data: bytes | bytearray | memoryview) -> int:
    """FNV-1a 64 of a bytes-like object, exact, vectorized with numpy.

    h ^ b only changes h's low byte s, so h ^ b == h + d with
    d = (s ^ b) - s. Once every s is known the hash is affine:
    h_n = h_0 * P**n + sum(d_i * P**(n - i)) mod 2**64, which uint64
    products and sums compute as they wrap. The sum runs over lanes of
    _LANE bytes, P**(n - i) split into a power within the lane and one per
    lane, so the power tables stay small.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    h = _FNV_OFFSET
    for start in range(0, len(buf), _BLOCK):
        block = buf[start:start + _BLOCK]
        s = _low_bytes(h & 0xFF, block)
        # d in lanes of _LANE; leading zeros fill the first lane and add nothing
        lanes = -(-len(block) // _LANE)
        d = np.zeros((lanes, _LANE), dtype=np.uint64)
        tail = d.reshape(-1)[lanes * _LANE - len(block):]
        tail += s ^ block
        tail -= s                   # a negative d wraps to d mod 2**64
        d *= _POW[_LANE:0:-1]
        sums = d.sum(axis=1, dtype=np.uint64)
        sums *= _POW_LANE[lanes - 1::-1]
        h = (h * pow(_FNV_PRIME, len(block), 1 << 64)
             + int(sums.sum(dtype=np.uint64))) & _MASK64
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


def _serialize_tensors(named: list[tuple[str, np.ndarray]]) -> bytearray:
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
    return buf


def save_checkpoint(ckpt: Checkpoint, path) -> int:
    """Write the binary plus its sidecar manifest; returns the digest."""
    named = list(ckpt.params.tensors.items())
    named += [(f"m.{k}", t) for k, t in ckpt.opt_state.m.items()]
    named += [(f"v.{k}", t) for k, t in ckpt.opt_state.v.items()]
    buf = _serialize_tensors(named)
    digest = fnv1a64(buf)
    buf += struct.pack("<Q", digest)
    write_atomic(path, buf)

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
    empty = FlatTensors.stack({}, np.float32)
    no_moments = OptimizerState(config=adam, step=0, m=empty, v=empty)
    return save_checkpoint(Checkpoint(params=params, opt_state=no_moments,
                                      shard_id=-1, slice_index=-1, epoch=0,
                                      rng=rng), path)


def _parse_tensors(body: memoryview) -> dict[str, np.ndarray]:
    """Each tensor as a read-only view of `body`."""
    try:
        count = struct.unpack_from("<I", body, 8)[0]
        offset = 12
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", body, offset)
            offset += 2
            name = str(body[offset:offset + name_len], "utf-8")
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
                                          offset=offset).reshape(dims)
            offset = end
        if offset != len(body):
            raise IntegrityError("checkpoint has trailing bytes after tensors")
        return tensors
    except struct.error as exc:
        raise IntegrityError(f"checkpoint truncated: {exc}") from exc


def _read_sidecar(path) -> dict:
    mpath = Path(str(path) + ".json")
    if not mpath.exists():
        raise IntegrityError(f"{path}: sidecar manifest {mpath.name} is missing")
    return json.loads(mpath.read_text())


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
    body = memoryview(raw)[:-8]
    (stored,) = struct.unpack_from("<Q", raw, len(body))
    if fnv1a64(body) != stored:
        raise IntegrityError(f"{path}: digest mismatch, file corrupted or truncated")
    tensors = _parse_tensors(body)
    manifest = _read_sidecar(path)

    params_t = {k: t for k, t in tensors.items() if not k.startswith(("m.", "v."))}
    m = {k[2:]: t for k, t in tensors.items() if k.startswith("m.")}
    v = {k[2:]: t for k, t in tensors.items() if k.startswith("v.")}
    params = ModelParameters(
        arch=Architecture.from_dict(manifest["arch"]),
        output_classes=tuple(manifest["output_classes"]),
        tensors=FlatTensors.stack(params_t, np.float32),
    )
    adam = manifest["adam"]
    opt = OptimizerState(
        config=AdamConfig(lr=adam["lr"], beta1=adam["beta1"],
                          beta2=adam["beta2"], eps=adam["eps"]),
        step=adam["step"], m=FlatTensors.stack(m, np.float32),
        v=FlatTensors.stack(v, np.float32),
    )
    return Checkpoint(
        params=params, opt_state=opt,
        shard_id=manifest["shard_id"], slice_index=manifest["slice_index"],
        epoch=manifest["epoch"],
        rng=RngState(manifest["seed"], manifest["rng_counter"]),
    )


class LazyChain(Sequence):
    """A shard's checkpoint chain in a run directory. Each entry is loaded,
    digest checked, on first access and then kept; slicing and `+` build new
    chains without loading anything."""

    def __init__(self, entries) -> None:
        self._entries = list(entries)   # a path until loaded, then its Checkpoint

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return LazyChain(self._entries[index])
        entry = self._entries[index]
        if not isinstance(entry, Checkpoint):
            entry = self._entries[index] = load_checkpoint(entry)
        return entry

    def __add__(self, checkpoints: list[Checkpoint]) -> "LazyChain":
        return LazyChain(self._entries + checkpoints)


def stored_digest(path) -> int:
    """Digest from a checkpoint's footer, verified against its body."""
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise IntegrityError(f"{path}: file too short")
    body = memoryview(raw)[:-8]
    (stored,) = struct.unpack_from("<Q", raw, len(body))
    if fnv1a64(body) != stored:
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

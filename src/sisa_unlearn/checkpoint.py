"""Checkpoint serialization and the on-disk store.

A checkpoint is one file (all integers little-endian):

    magic "SISA" | u32 version=2 | u32 header length | header | u32 tensor count
    per tensor: u16 name length | UTF-8 name | u8 rank | rank x u32 dims | f32 payload
    footer: 8-byte FNV-1a digest of every preceding byte

The header is compact UTF-8 JSON with sorted keys: the training cursor
(shard id, slice index, epoch, seed, rng counter), the output classes, the
architecture and the Adam scalars. It holds no timestamp, so a file's bytes
are a function of the checkpoint alone, and the footer covers it like the
tensors: a load checks magic, version and digest before it parses either.
Optimizer moments ride along as tensors named ``m.<name>`` / ``v.<name>``,
only in checkpoints that training may resume from: under sequential class
slicing, a slice l after which some class of a shard of two or more classes
first appears (first slice l + 1), as removing that class restores slice l
and nothing else (`partition.resume_points`). A checkpoint nothing resumes
from holds parameters alone (`without_moments`): a shard's final (a
rollback restores slice first - 1 <= L - 2), the gating router and the
baseline. A store holds no other file: `CheckpointStore.save_chain` writes
only these, and `CheckpointStore.retain` deletes the rest. Files with and
without moments load the same way. Save -> load roundtrips are bitwise
exact.

The digest kernel (fnv1a64) is exact and bit-sliced: each block is
transposed once into 8 bit planes, 64 byte positions per uint64 word, where
the FNV state's low byte before every byte is a prefix XOR per plane plus
the carries of the multiply, also bit planes. The rest of the hash is an
exact float32 GEMM and uint64 arithmetic mod 2**64.
"""
from __future__ import annotations

import json
import os
import struct
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import FormatError, IntegrityError, UnsupportedVersionError
from .files import write_atomic
from .nn import AdamConfig, Architecture, FlatTensors, ModelParameters, OptimizerState
from .partition import PartitionPlan, resume_points
from .rng import RngState

MAGIC = b"SISA"
VERSION = 2

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
_PRIME_INV = pow(_FNV_PRIME, -1, 1 << 64)
_PRIME_BITS = [j for j in range(1, 8) if _FNV_PRIME >> j & 1]   # 1, 4, 5, 7 of 0xB3
_LANE = 64              # bit lanes per packed word; blocks are padded to a multiple
_BLOCK = 1 << 16        # bytes hashed per pass, a multiple of _LANE
_TRANSPOSE8 = [(np.uint64(shift), np.uint64(mask)) for shift, mask in
               ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))]


def _powers(base: int, n: int) -> np.ndarray:
    """base**j mod 2**64 for j = 0..n."""
    out = [1]
    for _ in range(n):
        out.append(out[-1] * base & _MASK64)
    return np.array(out, dtype=np.uint64)


def _lane_limbs(words: int) -> np.ndarray:
    """P**((63 - i) * words) for lane i, as 8-bit limbs, shape (_LANE, 8)."""
    powers = _powers(pow(_FNV_PRIME, words, 1 << 64), _LANE - 1)[::-1]
    return powers.astype("<u8").view(np.uint8).reshape(_LANE, 8).astype(np.float32)


_POW_WORD = _powers(_FNV_PRIME, _BLOCK // _LANE)          # P**w
_BLOCK_LIMBS = _lane_limbs(_BLOCK // _LANE)


def _transpose8(words: np.ndarray) -> np.ndarray:
    """Transpose each uint64 in place as an 8x8 bit matrix: bit 8r+c <-> 8c+r."""
    t = np.empty_like(words)
    for shift, mask in _TRANSPOSE8:
        np.right_shift(words, shift, out=t)
        t ^= words
        t &= mask
        words ^= t
        t <<= shift
        words ^= t
    return words


def _add_bit(count: list, top: int, plane: np.ndarray) -> tuple[list, int]:
    """Add a bit plane to a bit-sliced counter (planes LSB first) whose value
    is at most `top`; a plane is added only when the new bound needs it."""
    out = []
    for c in count[:-1]:
        out.append(c ^ plane)
        plane = c & plane
    if not count:
        return [plane], top + 1
    out.append(count[-1] ^ plane)
    if (top + 1).bit_length() > len(count):
        out.append(count[-1] & plane)
    return out, top + 1


def _low_bytes(s0: int, c: np.ndarray) -> np.ndarray:
    """x = s ^ c for every byte c, where s is the FNV state's low byte before
    it and s0 the first s; bit planes in, bit planes out.

    The low byte evolves on its own: s' = x * 0xB3 mod 256. Bit k of that
    product is x_k XOR g_k, where g_k is the parity of column k of the
    multiply without x_k: the bits x_(k-j) for the prime's bits j = 1, 4, 5,
    7 plus the carry into column k (at most 3, two planes). So bit k of s'
    is bit k of s flipped by c_k ^ g_k: every s_k is a prefix XOR, and
    x_k = s'_k ^ g_k once planes 0..k-1 are known.
    """
    x = np.empty_like(c)
    carry, top = [], 0          # the carry into column k, and its bound
    for k in range(8):
        terms = [x[k - j] for j in _PRIME_BITS if j <= k]
        if k == 7:              # no carry out of the byte: the parity is enough
            g = carry[0].copy()
            for t in terms:
                g ^= t
        else:
            count, ctop = carry, top
            for t in terms:
                count, ctop = _add_bit(count, ctop, t)
            g = count[0] if count else None
        xk = x[k]
        np.bitwise_xor.accumulate(c[k] if g is None else c[k] ^ g, out=xk)
        # each lane holds a run of positions; XOR in the runs before it and s0
        before = int(xk[-1])
        for shift in (1, 2, 4, 8, 16, 32):
            before ^= before << shift
        xk ^= np.uint64((before << 1 ^ -(s0 >> k & 1)) & _MASK64)
        if g is not None:
            xk ^= g
        if k < 7:
            count, ctop = _add_bit(count, ctop, xk)
            carry, top = count[1:], ctop >> 1
    return x


def _hash_block(h: int, block: np.ndarray, d: np.ndarray) -> int:
    """The FNV-1a state after `block`, from state h; `d` is float32 scratch
    of at least len(block) / _LANE rows.

    The block is zero-padded to N = _LANE * words bytes, and byte
    i * words + w goes to lane i of word w, so each lane's prefix XOR runs
    along the words. A zero byte adds d = 0, so the padding only multiplies
    the state by P once per byte, which P's inverse undoes. The weight
    P**(N - i * words - w) of a byte is P**((63 - i) * words), a GEMM column
    per lane, times P**(words - w), a uint64 factor per word.
    """
    n = len(block)
    words = -(-n // _LANE)
    if n % _LANE:
        block = np.concatenate((block, np.zeros(-n % _LANE, dtype=np.uint8)))
    lanes = np.empty((words, _LANE), dtype=np.uint8)
    np.copyto(lanes, block.reshape(_LANE, words).T)
    t = _transpose8(lanes.view("<u8").reshape(-1).copy())
    planes = np.empty((8, words, 8), dtype=np.uint8)
    np.copyto(planes, t.view(np.uint8).reshape(words, 8, 8).transpose(2, 0, 1))
    x = _low_bytes(h & 0xFF, planes.view("<u8").reshape(8, words)).view(np.uint8)
    back = t.view(np.uint8).reshape(words * 8, 8)
    for k in range(8):
        back[:, k] = x[k]
    x = _transpose8(t).view(np.uint8).reshape(words, _LANE)
    # h ^ c == h + (x - s) with x = s ^ c; a zero pad byte adds 0
    d = d[:words]
    np.copyto(d, x)
    d -= x ^ lanes
    limbs = _BLOCK_LIMBS if words == _BLOCK // _LANE else _lane_limbs(words)
    sums = (d @ limbs).astype(np.int64).view(np.uint64)
    sums = _POW_WORD[words:0:-1] @ sums
    h = (h * pow(_FNV_PRIME, words * _LANE, 1 << 64)
         + sum(int(v) << 8 * j for j, v in enumerate(sums)))
    return h * pow(_PRIME_INV, words * _LANE - n, 1 << 64) & _MASK64


def fnv1a64(data: bytes | bytearray | memoryview) -> int:
    """FNV-1a 64 of a bytes-like object, exact, bit-sliced with numpy.

    h ^ b only changes h's low byte s, so h ^ b == h + d with
    d = (s ^ b) - s. Once every s is known the hash is affine:
    h_n = h_0 * P**n + sum(d_i * P**(n - i)) mod 2**64. The low bytes come
    from bit planes (see _low_bytes); the sum is a float32 GEMM of d
    (|d| <= 255) against 8-bit limbs of the powers: a partial sum has at
    most 64 terms of at most 255 * 255, an integer below 2**22 and so exact
    in float32 in any order. uint64 products that wrap mod 2**64 finish it.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    h = _FNV_OFFSET
    d = np.empty((-(-min(len(buf), _BLOCK) // _LANE), _LANE), dtype=np.float32)
    for start in range(0, len(buf), _BLOCK):
        h = _hash_block(h, buf[start:start + _BLOCK], d)
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


def _serialize(ckpt: Checkpoint) -> bytearray:
    """Every byte of the file but the footer."""
    cfg = ckpt.opt_state.config
    header = json.dumps({
        "shard_id": ckpt.shard_id, "slice_index": ckpt.slice_index, "epoch": ckpt.epoch,
        "seed": ckpt.rng.seed, "rng_counter": ckpt.rng.counter,
        "output_classes": list(ckpt.params.output_classes),
        "arch": ckpt.params.arch.to_dict(),
        "adam": {"lr": cfg.lr, "beta1": cfg.beta1, "beta2": cfg.beta2,
                 "eps": cfg.eps, "step": ckpt.opt_state.step},
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")
    named = list(ckpt.params.tensors.items())
    named += [(f"m.{k}", t) for k, t in ckpt.opt_state.m.items()]
    named += [(f"v.{k}", t) for k, t in ckpt.opt_state.v.items()]
    buf = bytearray(MAGIC)
    buf += struct.pack("<II", VERSION, len(header)) + header
    buf += struct.pack("<I", len(named))
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
    """Write the checkpoint as one file; returns the digest."""
    buf = _serialize(ckpt)
    digest = fnv1a64(buf)
    buf += struct.pack("<Q", digest)
    write_atomic(path, buf)
    return digest


def _no_moments(config: AdamConfig, step: int) -> OptimizerState:
    empty = FlatTensors.stack({}, np.float32)
    return OptimizerState(config=config, step=step, m=empty, v=empty)


def without_moments(ckpt: Checkpoint) -> Checkpoint:
    """`ckpt` as a checkpoint nothing resumes from: its parameters, cursor
    and Adam scalars, with empty moments, a third of the bytes."""
    return replace(ckpt, opt_state=_no_moments(ckpt.opt_state.config,
                                               ckpt.opt_state.step))


def save_params(params: ModelParameters, path, adam: AdamConfig,
                rng: RngState) -> int:
    """Save a model that is never trained further, with no Adam moments
    (see `without_moments`): the gating router and the full-retraining
    baseline, which retrains from a fresh initialization."""
    return save_checkpoint(Checkpoint(params=params, opt_state=_no_moments(adam, 0),
                                      shard_id=-1, slice_index=-1, epoch=0,
                                      rng=rng), path)


def _verified_body(path, raw: bytes) -> tuple[memoryview, int]:
    """The bytes before the footer, and the footer's digest, checked against them."""
    if len(raw) < 8:
        raise IntegrityError(f"{path}: file too short")
    body = memoryview(raw)[:-8]
    (stored,) = struct.unpack_from("<Q", raw, len(body))
    if fnv1a64(body) != stored:
        raise IntegrityError(f"{path}: digest mismatch, file corrupted or truncated")
    return body, stored


def _parse_body(body: memoryview) -> tuple[dict, dict[str, np.ndarray]]:
    """The header, and each tensor as a read-only view of `body`."""
    try:
        (header_len,) = struct.unpack_from("<I", body, 8)
        offset = 12 + header_len
        (count,) = struct.unpack_from("<I", body, offset)
        header = json.loads(str(body[12:offset], "utf-8"))
        offset += 4
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
        return header, tensors
    except struct.error as exc:
        raise IntegrityError(f"checkpoint truncated: {exc}") from exc


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise IntegrityError(f"{path}: checkpoint file missing") from None
    if len(raw) < 24:
        raise IntegrityError(f"{path}: file too short to be a checkpoint")
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise UnsupportedVersionError(f"{path}: checkpoint version {version} unsupported")
    body, _ = _verified_body(path, raw)
    header, tensors = _parse_body(body)

    params_t = {k: t for k, t in tensors.items() if not k.startswith(("m.", "v."))}
    m = {k[2:]: t for k, t in tensors.items() if k.startswith("m.")}
    v = {k[2:]: t for k, t in tensors.items() if k.startswith("v.")}
    params = ModelParameters(
        arch=Architecture.from_dict(header["arch"]),
        output_classes=tuple(header["output_classes"]),
        tensors=FlatTensors.stack(params_t, np.float32),
    )
    adam = header["adam"]
    opt = OptimizerState(
        config=AdamConfig(lr=adam["lr"], beta1=adam["beta1"],
                          beta2=adam["beta2"], eps=adam["eps"]),
        step=adam["step"], m=FlatTensors.stack(m, np.float32),
        v=FlatTensors.stack(v, np.float32),
    )
    return Checkpoint(
        params=params, opt_state=opt,
        shard_id=header["shard_id"], slice_index=header["slice_index"],
        epoch=header["epoch"],
        rng=RngState(header["seed"], header["rng_counter"]),
    )


@dataclass(frozen=True)
class _NotStored:
    """A slice of a chain that its run directory does not hold."""

    slice_index: int


class LazyChain(Sequence):
    """Shard `shard_id`'s checkpoint chain in a run directory, one entry per
    slice. Each entry is loaded, digest checked, on first access and then
    kept. An entry of None is a slice the run directory does not hold:
    reading it is an IntegrityError that names the shard and the slice.
    Slicing and `+` build new chains without loading anything."""

    def __init__(self, entries, shard_id: int) -> None:
        self.shard_id = shard_id
        # a path until loaded, then its Checkpoint; _NotStored for a slice not held
        self._entries = [_NotStored(i) if e is None else e for i, e in enumerate(entries)]

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return LazyChain(self._entries[index], self.shard_id)
        entry = self._entries[index]
        if isinstance(entry, _NotStored):
            raise IntegrityError(
                f"shard {self.shard_id}: the run directory holds no checkpoint "
                f"of slice {entry.slice_index}")
        if not isinstance(entry, Checkpoint):
            entry = self._entries[index] = load_checkpoint(entry)
        return entry

    def __add__(self, checkpoints: list[Checkpoint]) -> "LazyChain":
        return LazyChain(self._entries + checkpoints, self.shard_id)


def stored_digest(path) -> int:
    """Digest from a checkpoint's footer, verified against its body."""
    return _verified_body(path, Path(path).read_bytes())[1]


def _slice_file(slice_index: int) -> str:
    return f"slice_{slice_index}.ckpt"


def kept_slices(plan: PartitionPlan) -> dict[int, set[int]]:
    """The slices a store keeps of each deployed shard under `plan`: its
    resume points (`partition.resume_points`), which a removal restores,
    and its final, slice L - 1, which queries read."""
    return {a.shard_id: resume_points(plan, a.shard_id) | {plan.L - 1}
            for a in plan.assignments if a.class_ids}


class CheckpointStore:
    """Run-directory layout: shards/<k>/slice_<l>.ckpt plus gating/baseline.

    What a store holds is decided in one place, `kept_slices`: each
    deployed shard's final and resume points, plus the router of a gated
    system. `save_chain` writes only such slices, and `retain` deletes
    every other file: those of a decommissioned shard, whose checkpoints
    were trained on the classes removed from it, a former resume point and
    the slice a removal resumed from once no removal reads them, and those
    an earlier run left in the same directory.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)

    def shard_dir(self, shard_id: int) -> Path:
        return self.root / "shards" / str(shard_id)

    def slice_path(self, shard_id: int, slice_index: int) -> Path:
        return self.shard_dir(shard_id) / _slice_file(slice_index)

    def gating_path(self) -> Path:
        return self.root / "gating.ckpt"

    def baseline_path(self) -> Path:
        return self.root / "baseline.ckpt"

    def save_chain(self, checkpoints: Iterable[Checkpoint], plan: PartitionPlan) -> None:
        """Save each of `checkpoints` that the store keeps under `plan`
        (`kept_slices`): a resume point with its Adam moments, as a removal
        resumes training from it, and a final without them
        (`without_moments`), as nothing does. Every other checkpoint is
        skipped, and no file is deleted: `retain` does that."""
        kept = kept_slices(plan)
        for ckpt in checkpoints:
            if ckpt.slice_index not in kept[ckpt.shard_id]:
                continue
            if ckpt.slice_index == plan.L - 1:
                ckpt = without_moments(ckpt)
            save_checkpoint(ckpt, self.slice_path(ckpt.shard_id, ckpt.slice_index))

    def retain(self, plan: PartitionPlan | None, gated: bool = False) -> None:
        """Delete every file under shards/, and gating.ckpt and
        baseline.ckpt, that no later removal or query of the deployed
        system reads, and every directory under shards/ left empty.

        Kept: the slices `kept_slices` names under `plan`, and the router
        if `gated`. `plan` None is a baseline run: baseline.ckpt alone is
        kept. Nothing is written: a kept file that does not exist stays
        absent.
        """
        if plan is None or not gated:
            self.gating_path().unlink(missing_ok=True)
        if plan is not None:
            self.baseline_path().unlink(missing_ok=True)
        kept = {} if plan is None else kept_slices(plan)
        # strings, as os.walk gives paths: a Path per slice costs more than the walk
        keep = set()
        for k, slices in kept.items():
            shard_dir = str(self.shard_dir(k))
            keep.update(os.path.join(shard_dir, _slice_file(ell)) for ell in slices)
        # bottom-up, so a directory is emptied before it is looked at
        for parent, _dirs, files in os.walk(self.root / "shards", topdown=False):
            for name in files:
                path = os.path.join(parent, name)
                if path not in keep:
                    os.unlink(path)
            if not os.listdir(parent):
                os.rmdir(parent)

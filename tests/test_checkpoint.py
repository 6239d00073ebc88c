import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sisa_unlearn.checkpoint as checkpoint
import sisa_unlearn.nn as nn
from sisa_unlearn.checkpoint import (_BLOCK, _LANE, MAGIC, VERSION, Checkpoint, LazyChain,
                                     _hash_block, fnv1a64, load_checkpoint,
                                     save_checkpoint, stored_digest, without_moments)
from sisa_unlearn.errors import (FormatError, IntegrityError, SisaError,
                                 UnsupportedVersionError)
from sisa_unlearn.rng import RngState


def make_checkpoint(arch=None, n_out=10, seed=0):
    arch = arch or nn.mlp_architecture(6, hidden=(8,))
    params = nn.init_params(arch, tuple(range(n_out)), RngState(seed))
    opt = nn.adam_init(params)
    opt.m["dense0.w"][:] = 0.25
    opt.step = 3
    return Checkpoint(params=params, opt_state=opt, shard_id=1,
                      slice_index=2, epoch=5, rng=RngState(seed, 4))


def fnv1a64_loop(data, h=0xCBF29CE484222325) -> int:
    """FNV-1a 64 one byte at a time, as defined, from state h: the oracle
    for the kernel."""
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & ((1 << 64) - 1)
    return h


def assert_matches_loop(data):
    # a uint64 overflow warning from numpy would mean an unintended wrap
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fnv1a64(data)
    assert type(got) is int
    assert got == fnv1a64_loop(bytes(data))


# 0, 1, c - 1, c, c + 1 and 3c + 5 bytes for c = 64 (a lane) and 65536 (a block)
BOUNDARY_LENGTHS = [0, 1, 63, 64, 65, 197, 65535, 65536, 65537, 196613]


class TestFnv:
    def test_known_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    @settings(max_examples=200, deadline=None)
    @given(st.binary())
    def test_matches_loop(self, data):
        assert_matches_loop(data)

    @pytest.mark.parametrize("n", BOUNDARY_LENGTHS)
    def test_chunk_boundaries(self, n):
        assert_matches_loop(np.random.default_rng(n).bytes(n))

    @pytest.mark.parametrize("fill", [0x00, 0xFF])
    @pytest.mark.parametrize("n", [1, 64, 65537, 196613])
    def test_constant_buffers(self, fill, n):
        assert_matches_loop(bytes([fill]) * n)

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_bytes_like_inputs(self, wrap):
        raw = np.random.default_rng(1).bytes(_BLOCK + 77)
        assert_matches_loop(wrap(raw))
        assert_matches_loop(memoryview(raw)[5:-8])

    def test_every_start_byte(self):
        # a block's low-byte stage starts from the state's low byte: try all 256
        block = np.frombuffer(np.random.default_rng(5).bytes(5 * _LANE + 3), np.uint8)
        scratch = np.empty((6, _LANE), dtype=np.float32)
        for s0 in range(256):
            h = 0x9E3779B97F4A7C00 | s0
            assert _hash_block(h, block, scratch) == fnv1a64_loop(block.tobytes(), h)

    def test_several_blocks_and_a_ragged_tail(self):
        n = 2 * _BLOCK + 3 * _LANE + 17
        assert n % _LANE
        assert_matches_loop(np.random.default_rng(6).bytes(n))

    def test_footer_is_digest_of_body(self, tmp_path):
        path = tmp_path / "a.ckpt"
        digest = save_checkpoint(make_checkpoint(), path)
        raw = path.read_bytes()
        assert raw[-8:] == struct.pack("<Q", fnv1a64_loop(raw[:-8]))
        assert digest == fnv1a64_loop(raw[:-8])


class TestRoundtrip:
    def test_bitwise_roundtrip(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "a.ckpt"
        digest = save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert stored_digest(path) == digest
        for k, t in ckpt.params.tensors.items():
            assert back.params.tensors[k].tobytes() == t.tobytes()
        for k in ckpt.opt_state.m:
            assert back.opt_state.m[k].tobytes() == ckpt.opt_state.m[k].tobytes()
            assert back.opt_state.v[k].tobytes() == ckpt.opt_state.v[k].tobytes()
        assert back.opt_state.step == 3
        assert back.params.output_classes == ckpt.params.output_classes
        assert (back.shard_id, back.slice_index, back.epoch) == (1, 2, 5)
        assert back.rng == RngState(0, 4)
        assert back.opt_state.config == ckpt.opt_state.config

    def test_resave_is_stable(self, tmp_path):
        ckpt = make_checkpoint()
        d1 = save_checkpoint(ckpt, tmp_path / "a.ckpt")
        d2 = save_checkpoint(load_checkpoint(tmp_path / "a.ckpt"), tmp_path / "b.ckpt")
        assert d1 == d2
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


class TestCorruption:
    def test_flipped_payload_byte(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(make_checkpoint(), path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError, match="digest mismatch"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(make_checkpoint(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 40])
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    def test_missing_file_names_its_path(self, tmp_path):
        path = tmp_path / "shards" / "0" / "slice_2.ckpt"
        with pytest.raises(IntegrityError, match=f"{path}: checkpoint file missing"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(make_checkpoint(), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 4, VERSION + 1)
        # keep the digest valid so the version check is what fires
        body = bytes(raw[:-8])
        path.write_bytes(body + struct.pack("<Q", fnv1a64(body)))
        with pytest.raises(UnsupportedVersionError):
            load_checkpoint(path)

    @pytest.mark.parametrize("moments", [True, False])
    def test_every_flipped_byte_is_refused(self, tmp_path, moments):
        ckpt = make_checkpoint()
        save_checkpoint(ckpt if moments else without_moments(ckpt), tmp_path / "a.ckpt")
        for path in sorted(tmp_path.iterdir()):
            raw = path.read_bytes()
            for i in range(len(raw)):
                flipped = bytearray(raw)
                flipped[i] ^= 0xFF
                path.write_bytes(bytes(flipped))
                with pytest.raises(SisaError):
                    load_checkpoint(tmp_path / "a.ckpt")
            path.write_bytes(raw)
        load_checkpoint(tmp_path / "a.ckpt")

    def test_version_1_file_is_refused(self, tmp_path):
        # the layout before the header moved into the file: no header length
        body = MAGIC + struct.pack("<II", 1, 1)
        body += struct.pack("<H", 1) + b"w" + struct.pack("<BI", 1, 2)
        body += np.array([0.5, -1.0], dtype="<f4").tobytes()
        path = tmp_path / "a.ckpt"
        path.write_bytes(body + struct.pack("<Q", fnv1a64(body)))
        with pytest.raises(UnsupportedVersionError, match="version 1"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(FormatError, match="bad magic"):
            load_checkpoint(path)


class TestPayloadSize:
    def test_reference_cnn_size_matches_formula(self, tmp_path):
        # oracle: the documented layout + 4 bytes x (params + both moments)
        arch = nn.cnn_architecture((3, 32, 32))
        ckpt = make_checkpoint(arch=arch, n_out=10)
        path = tmp_path / "cnn.ckpt"
        save_checkpoint(ckpt, path)
        n_params = ckpt.params.param_count()
        names = list(ckpt.params.tensors)
        names += [f"m.{k}" for k in names[: len(ckpt.params.tensors)]]
        names += [f"v.{k}" for k in list(ckpt.params.tensors)]
        shapes = list(ckpt.params.tensors.values()) * 3
        cfg = ckpt.opt_state.config
        header_json = json.dumps({
            "shard_id": 1, "slice_index": 2, "epoch": 5, "seed": 0, "rng_counter": 4,
            "output_classes": list(range(10)),
            "arch": {"kind": arch.kind, "input_shape": [3, 32, 32],
                     "conv_channels": list(arch.conv_channels),
                     "hidden": list(arch.hidden)},
            "adam": {"lr": cfg.lr, "beta1": cfg.beta1, "beta2": cfg.beta2,
                     "eps": cfg.eps, "step": 3},
        }, sort_keys=True, separators=(",", ":")).encode("utf-8")
        header = 4 + 4 + 4 + len(header_json) + 4
        per_tensor = sum(2 + len(name.encode()) + 1 + 4 * t.ndim
                         for name, t in zip(names, shapes))
        expected = header + per_tensor + 4 * (3 * n_params) + 8
        assert path.stat().st_size == expected

    def test_float64_rejected(self, tmp_path):
        params = nn.init_params(nn.mlp_architecture(3), (0, 1), RngState(0),
                                dtype=np.float64)
        ckpt = Checkpoint(params=params, opt_state=nn.adam_init(params),
                          shard_id=0, slice_index=0, epoch=0, rng=RngState(0))
        with pytest.raises(ValueError, match="float32"):
            save_checkpoint(ckpt, tmp_path / "bad.ckpt")


class TestLazyChain:
    @pytest.fixture()
    def saved(self, tmp_path, monkeypatch):
        paths = []
        for i in range(3):
            paths.append(tmp_path / f"slice_{i}.ckpt")
            save_checkpoint(make_checkpoint(seed=i), paths[-1])
        loads = []
        original = checkpoint.load_checkpoint

        def counting(path):
            loads.append(path)
            return original(path)

        monkeypatch.setattr(checkpoint, "load_checkpoint", counting)
        return paths, loads

    def test_loads_each_entry_once_on_access(self, saved):
        paths, loads = saved
        chain = LazyChain(paths, 0)
        assert len(chain) == 3 and loads == []
        final = chain[-1]
        assert chain[2] is final
        assert loads == [paths[2]]
        want = load_checkpoint(paths[2]).params.tensors["dense0.w"]
        assert final.params.tensors["dense0.w"].tobytes() == want.tobytes()

    def test_slice_and_concat_load_nothing(self, saved):
        paths, loads = saved
        extra = make_checkpoint(seed=9)
        chain = LazyChain(paths, 0)[:2] + [extra]
        assert isinstance(chain, LazyChain) and len(chain) == 3
        assert loads == []
        assert chain[2] is extra
        assert chain[1].rng == make_checkpoint(seed=1).rng
        assert loads == [paths[1]]

    def test_corrupt_entry_fails_when_read(self, saved):
        paths, _ = saved
        raw = bytearray(paths[0].read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        paths[0].write_bytes(bytes(raw))
        chain = LazyChain(paths, 0)
        chain[-1]
        with pytest.raises(IntegrityError, match="digest mismatch"):
            chain[0]

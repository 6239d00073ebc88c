import pickle
import tracemalloc
from copy import deepcopy

import numpy as np
import pytest

import sisa_unlearn as su
import sisa_unlearn.nn as nn
from sisa_unlearn.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from sisa_unlearn.errors import InvalidLabelError, NumericFault
from sisa_unlearn.rng import RngState
from sisa_unlearn.training import TrainConfig, fit

from conftest import make_labels


def finite_diff_grads(params, x, y, h=1e-5):
    """Central-difference gradient of the mean cross-entropy, per element."""
    grads = {}
    for name, tensor in params.tensors.items():
        g = np.zeros_like(tensor)
        flat = tensor.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = nn.loss_and_grad(params, x, y)
            flat[i] = orig - h
            down, _ = nn.loss_and_grad(params, x, y)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def rel_error(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


def tiny_mlp(dtype=np.float32, n_out=3, seed=0):
    arch = nn.mlp_architecture(4, hidden=(5,))
    return nn.init_params(arch, tuple(range(n_out)), RngState(seed), dtype=dtype)


def tiny_cnn(dtype=np.float32, n_out=3, seed=0):
    arch = nn.Architecture(kind=nn.CNN, input_shape=(2, 6, 6),
                           conv_channels=(3,), hidden=(4,))
    return nn.init_params(arch, tuple(range(n_out)), RngState(seed), dtype=dtype)


class TestForward:
    def test_zero_head_gives_uniform(self):
        params = tiny_mlp(n_out=4)
        head = f"dense{len(params.arch.hidden)}"
        params.tensors[f"{head}.w"][:] = 0
        params.tensors[f"{head}.b"][:] = 0
        probs = nn.forward(params, np.random.default_rng(0)
                           .standard_normal((6, 4), dtype=np.float32))
        assert np.allclose(probs, 0.25, atol=1e-6)

    def test_rows_on_simplex(self):
        params = tiny_mlp()
        x = np.random.default_rng(1).standard_normal((500, 4), dtype=np.float32)
        probs = nn.forward(params, x)
        assert np.all(probs >= 0)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-6)

    def test_hand_set_weights_match_closed_form(self):
        # identity-ish 2-feature, 2-class MLP; oracle is direct softmax math
        arch = nn.mlp_architecture(2, hidden=(2,))
        params = nn.init_params(arch, (0, 1), RngState(0), dtype=np.float64)
        params.tensors["dense0.w"][:] = np.eye(2)
        params.tensors["dense0.b"][:] = 0
        params.tensors["dense1.w"][:] = np.eye(2)
        params.tensors["dense1.b"][:] = 0
        x = np.array([[2.0, 1.0], [0.5, 3.0], [4.0, 0.0]])
        probs = nn.forward(params, x)
        relu = np.maximum(x, 0)
        z = relu - relu.max(axis=1, keepdims=True)
        expected = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        assert np.allclose(probs, expected, atol=1e-12)
        assert np.array_equal(probs.argmax(axis=1),
                              (x[:, 1] > x[:, 0]).astype(int))

    def test_shape_mismatch(self):
        params = tiny_mlp()
        with pytest.raises(ValueError, match="input shape"):
            nn.forward(params, np.zeros((2, 7), np.float32))


class TestChunkedInference:
    @pytest.mark.parametrize("factory", [tiny_mlp, tiny_cnn])
    def test_chunks_match_one_pass(self, factory):
        params = factory()
        x = np.random.default_rng(3).standard_normal(
            (7, *params.arch.input_shape)).astype(np.float32)
        y = np.arange(7) % 3
        whole = nn.forward(params, x)
        assert np.array_equal(nn.forward_batched(params, x, batch_size=3), whole)
        assert np.array_equal(nn.predict_local(params, x, batch_size=3),
                              whole.argmax(axis=1))
        assert nn.mean_loss(params, x, y, batch_size=3) == pytest.approx(
            nn.mean_loss(params, x, y, batch_size=7), rel=1e-6)

    @pytest.mark.parametrize("factory", [tiny_mlp, tiny_cnn])
    def test_empty_input(self, factory):
        params = factory()
        x = np.zeros((0, *params.arch.input_shape), np.float32)
        assert nn.forward_batched(params, x).shape == (0, 3)
        out = nn.predict_local(params, x)
        assert out.shape == (0,) and out.dtype == np.int64


class TestLossAndGrad:
    def test_uniform_loss_is_log_c(self):
        params = tiny_mlp(n_out=5)
        head = f"dense{len(params.arch.hidden)}"
        params.tensors[f"{head}.w"][:] = 0
        params.tensors[f"{head}.b"][:] = 0
        x = np.random.default_rng(2).standard_normal((8, 4), dtype=np.float32)
        y = np.random.default_rng(3).integers(0, 5, size=8)
        loss, _ = nn.loss_and_grad(params, x, y)
        assert loss == pytest.approx(np.log(5), rel=1e-6)

    @pytest.mark.parametrize("factory", [tiny_mlp, tiny_cnn], ids=["mlp", "cnn"])
    def test_gradients_match_finite_differences(self, factory):
        params = factory(dtype=np.float64, seed=4)
        rng = np.random.default_rng(5)
        shape = (4,) + params.arch.input_shape
        x = rng.standard_normal(shape)
        y = rng.integers(0, params.n_out, size=4)
        _, analytic = nn.loss_and_grad(params, x, y)
        numeric = finite_diff_grads(params, x, y)
        worst = max(rel_error(analytic[k], numeric[k]) for k in analytic)
        assert worst < 1e-4

    def test_duplicated_batch_same_loss(self):
        params = tiny_mlp(seed=6)
        x = np.random.default_rng(7).standard_normal((5, 4), dtype=np.float32)
        y = np.array([0, 1, 2, 0, 1])
        loss1, _ = nn.loss_and_grad(params, x, y)
        loss2, _ = nn.loss_and_grad(params, np.concatenate([x, x]),
                                    np.concatenate([y, y]))
        assert loss1 == pytest.approx(loss2, rel=1e-6)

    def test_label_outside_head(self):
        params = tiny_mlp(n_out=3)
        x = np.zeros((2, 4), np.float32)
        with pytest.raises(InvalidLabelError):
            nn.loss_and_grad(params, x, np.array([0, 3]))


class TestAdam:
    def test_zero_gradient_is_identity(self):
        params = tiny_mlp(seed=8)
        state = nn.adam_init(params)
        before = {k: v.copy() for k, v in params.tensors.items()}
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        nn.adam_step(params, grads, state)
        assert state.step == 1
        for k in before:
            assert np.array_equal(params.tensors[k], before[k])

    def test_constant_gradient_matches_scalar_recurrence(self):
        # oracle: the scalar Adam recurrence iterated alongside
        cfg = nn.AdamConfig(lr=1e-3)
        arch = nn.mlp_architecture(1, hidden=(1,))
        params = nn.init_params(arch, (0, 1), RngState(9), dtype=np.float64)
        state = nn.adam_init(params, cfg)
        name = "dense0.w"
        g_val = 0.37
        grads = {name: np.full_like(params.tensors[name], g_val)}
        theta = float(params.tensors[name][0, 0])
        m = v = 0.0
        for t in range(1, 201):
            prev = float(params.tensors[name][0, 0])
            nn.adam_step(params, {name: grads[name]}, state)
            m = cfg.beta1 * m + (1 - cfg.beta1) * g_val
            v = cfg.beta2 * v + (1 - cfg.beta2) * g_val ** 2
            m_hat = m / (1 - cfg.beta1 ** t)
            v_hat = v / (1 - cfg.beta2 ** t)
            theta -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
            assert params.tensors[name][0, 0] == pytest.approx(theta, abs=1e-12)
            step_size = abs(float(params.tensors[name][0, 0]) - prev)
        # unit-step property: per-step magnitude converges to lr
        assert step_size == pytest.approx(cfg.lr, rel=1e-4)

    def test_bitwise_determinism(self):
        runs = []
        for _ in range(2):
            params = tiny_mlp(seed=10)
            state = nn.adam_init(params)
            rng = np.random.default_rng(11)
            for _step in range(20):
                x = rng.standard_normal((8, 4)).astype(np.float32)
                y = rng.integers(0, 3, size=8)
                _, grads = nn.loss_and_grad(params, x, y)
                nn.adam_step(params, grads, state)
            runs.append({k: v.tobytes() for k, v in params.tensors.items()})
        assert runs[0] == runs[1]

    def test_non_finite_gradient_faults(self):
        params = tiny_mlp(seed=12)
        state = nn.adam_init(params)
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        grads["dense0.w"][0, 0] = np.nan
        with pytest.raises(NumericFault):
            nn.adam_step(params, grads, state)


def reference_adam_step(tensors, m, v, step, grads, cfg):
    """The per-tensor Adam loop, on plain dicts: the oracle for the fused
    step. Returns the new step count."""
    step += 1
    c1 = 1.0 - cfg.beta1 ** step
    c2 = 1.0 - cfg.beta2 ** step
    for name, g in grads.items():
        m[name] *= cfg.beta1
        m[name] += (1.0 - cfg.beta1) * g
        v[name] *= cfg.beta2
        v[name] += (1.0 - cfg.beta2) * np.square(g)
        update = (cfg.lr * (m[name] / c1)) / (np.sqrt(v[name] / c2) + cfg.eps)
        tensors[name] -= update.astype(tensors[name].dtype, copy=False)
    return step


def assert_views_of_flat(tensors):
    """Each named tensor is the next run of `tensors.flat`, in order."""
    def address(a):
        return a.__array_interface__["data"][0]
    start = 0
    for name, t in tensors.items():
        assert t.flags.c_contiguous, name
        assert address(t) == address(tensors.flat) + start * t.itemsize, name
        start += t.size
    assert start == tensors.flat.size


def assert_flat_model(params, state):
    for tensors in (params.tensors, state.m, state.v):
        assert_views_of_flat(tensors)
        assert tensors.layout == params.tensors.layout
        assert tensors.flat.dtype == params.dtype


def batch_for(params, rng, n=8):
    x = rng.standard_normal((n, *params.arch.input_shape)).astype(params.dtype)
    return x, rng.integers(0, params.n_out, size=n)


class TestFlatBuffers:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("factory", [tiny_mlp, tiny_cnn], ids=["mlp", "cnn"])
    @pytest.mark.parametrize("subset", [False, True], ids=["all", "subset"])
    def test_fused_step_matches_per_tensor_loop(self, factory, dtype, subset):
        params = factory(dtype=dtype, seed=20)
        state = nn.adam_init(params, nn.AdamConfig(lr=0.01))
        ref = {k: t.copy() for k, t in params.tensors.items()}
        ref_m = {k: np.zeros_like(t) for k, t in ref.items()}
        ref_v = {k: np.zeros_like(t) for k, t in ref.items()}
        ref_step = 0
        rng = np.random.default_rng(21)
        for step in range(30):
            _, grads = nn.loss_and_grad(params, *batch_for(params, rng))
            if subset and step % 2:     # tensors left out keep value and moments
                grads = {k: grads[k] for k in list(grads)[1::2]}
            ref_step = reference_adam_step(ref, ref_m, ref_v, ref_step, grads,
                                           state.config)
            nn.adam_step(params, grads, state)
            assert state.step == ref_step
            for k in ref:
                assert params.tensors[k].tobytes() == ref[k].tobytes(), k
                assert state.m[k].tobytes() == ref_m[k].tobytes(), k
                assert state.v[k].tobytes() == ref_v[k].tobytes(), k

    @pytest.mark.parametrize("bad", ["dense0.b", "dense1.w"])
    def test_non_finite_gradient_names_tensor_and_changes_nothing(self, bad):
        params = tiny_mlp(seed=22)
        state = nn.adam_init(params)
        rng = np.random.default_rng(23)
        for _ in range(3):
            nn.adam_step(params, nn.loss_and_grad(params, *batch_for(params, rng))[1],
                         state)
        before = [params.tensors.flat.copy(), state.m.flat.copy(), state.v.flat.copy()]
        _, grads = nn.loss_and_grad(params, *batch_for(params, rng))
        grads[bad].reshape(-1)[1] = np.nan
        with pytest.raises(NumericFault, match=repr(bad)):
            nn.adam_step(params, grads, state)
        assert state.step == 3
        after = [params.tensors.flat, state.m.flat, state.v.flat]
        for old, new in zip(before, after):
            assert old.tobytes() == new.tobytes()

    @pytest.mark.parametrize("factory", [tiny_mlp, tiny_cnn], ids=["mlp", "cnn"])
    def test_every_tensor_is_a_view_of_its_model_buffer(self, factory, tmp_path):
        params = factory(n_out=4, seed=24)
        state = nn.adam_init(params)
        assert_flat_model(params, state)
        _, grads = nn.loss_and_grad(params, *batch_for(params, np.random.default_rng(25)))
        assert_views_of_flat(grads)
        assert_flat_model(params.copy(), state.copy())
        dropped, dropped_state = nn.drop_output_classes(params, state, {1})
        assert_flat_model(dropped, dropped_state)
        assert dropped.param_count() < params.param_count()

        path = tmp_path / "m.ckpt"
        save_checkpoint(Checkpoint(params=dropped, opt_state=dropped_state, shard_id=0,
                                   slice_index=0, epoch=0, rng=RngState(0)), path)
        loaded = load_checkpoint(path)
        assert_flat_model(loaded.params, loaded.opt_state)
        x, y = batch_for(loaded.params, np.random.default_rng(26), n=16)
        start = loaded.params.tensors.flat.copy()
        fit(loaded.params, loaded.opt_state, x, y % 3, x, y % 3,
            TrainConfig(max_epochs_per_slice=3, patience=1, batch_size=8), RngState(1))
        assert loaded.opt_state.step > 0
        assert not np.array_equal(loaded.params.tensors.flat, start)
        assert_flat_model(loaded.params, loaded.opt_state)

    def test_copy_never_aliases_its_source(self):
        params = tiny_cnn(seed=27)
        state = nn.adam_init(params)
        same, same_state = nn.drop_output_classes(params, state, {99})
        dropped, dropped_state = nn.drop_output_classes(params, state, {0})
        copied = state.copy()
        pairs = [(params.tensors, params.copy().tensors), (params.tensors, same.tensors),
                 (params.tensors, dropped.tensors), (state.m, state.v),
                 (state.m, copied.m), (state.v, copied.v),
                 (state.m, same_state.m), (state.v, dropped_state.v)]
        for a, b in pairs:
            assert not np.shares_memory(a.flat, b.flat)
        copy = params.copy()
        copy.tensors["conv0.w"][...] = 7.0
        assert not np.any(params.tensors["conv0.w"] == 7.0)

    @pytest.mark.parametrize("roundtrip", [
        lambda obj: pickle.loads(pickle.dumps(obj, protocol=5)), deepcopy],
        ids=["pickle", "deepcopy"])
    @pytest.mark.parametrize("factory", [tiny_mlp, tiny_cnn], ids=["mlp", "cnn"])
    def test_pickle_and_deepcopy_keep_bits_and_views(self, factory, roundtrip):
        params = factory(n_out=4, seed=28)
        state = nn.adam_init(params)
        nn.adam_step(params, nn.loss_and_grad(
            params, *batch_for(params, np.random.default_rng(29)))[1], state)
        ckpt = Checkpoint(params=params, opt_state=state, shard_id=1, slice_index=0,
                          epoch=2, rng=RngState(3, 4))
        out = roundtrip(ckpt)
        assert_flat_model(out.params, out.opt_state)
        for old, new in [(params.tensors, out.params.tensors), (state.m, out.opt_state.m),
                         (state.v, out.opt_state.v)]:
            assert type(new) is nn.FlatTensors
            assert new.flat.tobytes() == old.flat.tobytes()
            assert not np.shares_memory(new.flat, old.flat)
            assert all(np.shares_memory(t, new.flat) for t in new.values())
        assert (out.params.arch, out.params.output_classes, out.opt_state.config,
                out.opt_state.step, out.shard_id, out.slice_index, out.epoch, out.rng) == \
            (params.arch, params.output_classes, state.config, state.step, 1, 0, 2,
             RngState(3, 4))
        # an update of the vector is an update of every tensor, and of nothing else
        out.params.tensors.flat[...] = 5.0
        assert all((t == 5.0).all() for t in out.params.tensors.values())
        assert not (params.tensors.flat == 5.0).any()

    def test_rebinding_a_tensor_is_refused(self):
        params = tiny_mlp()
        with pytest.raises(TypeError, match="in place"):
            params.tensors["dense0.b"] = np.ones(5, np.float32)


class TestInit:
    def test_deterministic(self):
        a = tiny_cnn(seed=13)
        b = tiny_cnn(seed=13)
        for k in a.tensors:
            assert np.array_equal(a.tensors[k], b.tensors[k])

    def test_conv_weight_shape(self):
        arch = nn.cnn_architecture((3, 32, 32), conv_channels=(16, 32))
        params = nn.init_params(arch, tuple(range(10)), RngState(0))
        assert params.tensors["conv0.w"].shape == (16, 3, 3, 3)
        assert params.tensors["conv1.w"].shape == (32, 16, 3, 3)
        assert params.tensors["dense0.w"].shape == (32 * 8 * 8, 128)

    def test_he_variance(self):
        arch = nn.mlp_architecture(100, hidden=(100,))
        params = nn.init_params(arch, tuple(range(2)), RngState(14))
        w = params.tensors["dense0.w"]
        assert w.size == 10000
        assert np.var(w) == pytest.approx(2 / 100, rel=0.2)

    def test_empty_head_rejected(self):
        with pytest.raises(ValueError):
            nn.init_params(nn.mlp_architecture(4), (), RngState(0))


class TestHeadRebuild:
    def test_drop_column_and_moments(self):
        params = tiny_mlp(n_out=4, seed=15)
        state = nn.adam_init(params)
        state.m["dense1.w"][:] = 1.5
        new_params, new_state = nn.drop_output_classes(params, state, {2})
        assert new_params.output_classes == (0, 1, 3)
        head = "dense1.w"
        assert np.array_equal(new_params.tensors[head],
                              params.tensors[head][:, [0, 1, 3]])
        assert new_state.m[head].shape == new_params.tensors[head].shape
        probs = nn.forward(new_params, np.zeros((1, 4), np.float32))
        assert probs.shape == (1, 3)

    def test_cannot_drop_all(self):
        params = tiny_mlp(n_out=2)
        with pytest.raises(ValueError):
            nn.drop_output_classes(params, None, {0, 1})


class TestTrainingDynamics:
    def test_loss_drops_90_percent_in_50_steps(self):
        rng = np.random.default_rng(16)
        x = np.concatenate([rng.normal(-2, 0.3, (64, 2)),
                            rng.normal(2, 0.3, (64, 2))]).astype(np.float32)
        y = np.repeat([0, 1], 64)
        params = nn.init_params(nn.mlp_architecture(2, hidden=(8,)), (0, 1),
                                RngState(17))
        state = nn.adam_init(params, nn.AdamConfig(lr=0.05))
        first, _ = nn.loss_and_grad(params, x, y)
        for _ in range(50):
            _, grads = nn.loss_and_grad(params, x, y)
            nn.adam_step(params, grads, state)
        last, _ = nn.loss_and_grad(params, x, y)
        assert last <= 0.1 * first


# --- conv and max-pool kernels -------------------------------------------------

def reference_conv_forward(x, w, b):
    """im2col from np.pad and nine window copies: the oracle for the
    one-copy patch view."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    cols = np.empty((n, c, kh, kw, h, wd), dtype=x.dtype)
    for di in range(kh):
        for dj in range(kw):
            cols[:, :, di, dj] = xp[:, :, di:di + h, dj:dj + wd]
    cols = cols.reshape(n, c * kh * kw, h * wd)
    out = np.matmul(w.reshape(o, -1), cols)
    out += b[:, None]
    return out.reshape(n, o, h, wd), (x.shape, cols)


def reference_pool_forward(x, keep_index=True):
    """The argmax/take_along_axis pool: the oracle for the strided kernel.
    It keeps the index whatever `keep_index` says."""
    n, c, h, w = x.shape
    xr = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    windows = xr.reshape(n, c, h // 2, w // 2, 4)
    arg = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    return out, (x.shape, arg)


def reference_pool_backward(dy, cache):
    x_shape, arg = cache
    n, c, h, w = x_shape
    dwin = np.zeros((n, c, h // 2, w // 2, 4), dtype=dy.dtype)
    np.put_along_axis(dwin, arg[..., None], dy[..., None], axis=-1)
    dx = dwin.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return dx.reshape(n, c, h, w)


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 2.5]


def awkward_array(rng, shape, dtype):
    """Normal draws with a third of the entries replaced by ties, signed
    zeros, infinities and NaN; every other array holds special values only."""
    special = np.array(SPECIAL, dtype=dtype)
    x = rng.standard_normal(shape).astype(dtype)
    swap = rng.random(shape) < (1.0 if rng.random() < 0.5 else 0.33)
    x[swap] = special[rng.integers(0, len(special), int(swap.sum()))]
    return x


def with_reference_kernels(monkeypatch):
    monkeypatch.setattr(nn, "_conv_forward", reference_conv_forward)
    monkeypatch.setattr(nn, "_pool_forward", reference_pool_forward)
    monkeypatch.setattr(nn, "_pool_backward", reference_pool_backward)


def sweep_arch(name):
    return {
        "default": nn.cnn_architecture(),
        "three_conv": nn.cnn_architecture((3, 16, 16), (4, 6, 5), (12,)),
        "one_channel": nn.cnn_architecture((1, 12, 12), (6,), (10,)),
        "small_8x8": nn.cnn_architecture((2, 8, 8), (5, 7), (9,)),
    }[name]


def training_run(params, batches):
    """Loss, gradient bytes and forward bytes of the first batch, then the
    parameter bytes after one Adam step per batch."""
    x, y = batches[0]
    given = x.tobytes()
    loss, grads = nn.loss_and_grad(params, x, y)
    probs = nn.forward_batched(params, x, batch_size=16)
    assert x.tobytes() == given      # in-place ReLU never writes the input
    state = nn.adam_init(params)
    for xb, yb in batches:
        nn.adam_step(params, nn.loss_and_grad(params, xb, yb)[1], state)
    return loss, grads.flat.tobytes(), probs.tobytes(), params.tensors.flat.tobytes()


class TestKernels:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [0, 1, 5])
    def test_conv_matches_reference_bitwise(self, dtype, batch):
        rng = np.random.default_rng([7, batch])
        x = rng.standard_normal((batch, 3, 6, 8)).astype(dtype)
        x[x < -1] = -0.0
        w = rng.standard_normal((4, 3, 3, 3)).astype(dtype)
        b = rng.standard_normal(4).astype(dtype)
        got, (shape, cols) = nn._conv_forward(x, w, b)
        want, (want_shape, want_cols) = reference_conv_forward(x, w, b)
        assert shape == want_shape and cols.tobytes() == want_cols.tobytes()
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [0, 1, 5])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_argmax_pool_bitwise(self, dtype, batch, seed):
        rng = np.random.default_rng([seed, batch])
        for _ in range(10):
            shape = (batch, int(rng.integers(1, 4)), 2 * int(rng.integers(1, 5)),
                     2 * int(rng.integers(1, 5)))
            x = awkward_array(rng, shape, dtype)
            want, cache = reference_pool_forward(x)
            got, index = nn._pool_forward(x)
            assert got.dtype == dtype and got.tobytes() == want.tobytes()
            assert index.dtype == np.uint8 and np.array_equal(index, cache[1])
            dy = awkward_array(rng, want.shape, dtype)
            assert nn._pool_backward(dy, index).tobytes() == \
                reference_pool_backward(dy, cache).tobytes()

    @pytest.mark.parametrize("arch_name", ["default", "three_conv", "one_channel",
                                           "small_8x8"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_training_steps_match_reference_kernels(self, monkeypatch, arch_name,
                                                    dtype):
        # loss, gradients, forward and Adam trajectories across batch sizes;
        # also guards that every GEMM keeps its operand shapes and layout
        arch = sweep_arch(arch_name)
        for batch in (1, 2, 5, 8, 17, 33, 64):
            rng = np.random.default_rng([batch, len(arch.conv_channels)])
            batches = [(rng.standard_normal((batch, *arch.input_shape)).astype(dtype),
                        rng.integers(0, 4, size=batch)) for _ in range(5)]
            fresh = lambda: nn.init_params(arch, (0, 1, 2, 3), RngState(batch),
                                           dtype=dtype)
            got = training_run(fresh(), batches)
            with monkeypatch.context() as patch:
                with_reference_kernels(patch)
                want = training_run(fresh(), batches)
            assert got == want, (arch_name, batch)

    @pytest.mark.parametrize("arch_name", ["default", "three_conv", "one_channel",
                                           "small_8x8"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inference_pool_matches_training_pool(self, arch_name, dtype):
        # inference passes skip the pool's window index; the outputs must not move
        arch = sweep_arch(arch_name)
        rng = np.random.default_rng([60, len(arch.conv_channels)])
        x = awkward_array(rng, (60, *arch.input_shape), dtype)
        params = nn.init_params(arch, (0, 1, 2, 3), RngState(60), dtype=dtype)
        with np.errstate(all="ignore"):     # NaN and inf inputs reach the head
            logits, caches = nn._run_forward(params, x, keep_cache=True)
            want = np.exp(nn._log_softmax(logits))
            got = nn.forward_batched(params, x)
        assert all(c is not None for kind, _, c in caches if kind == "pool")
        assert got.tobytes() == want.tobytes()
        out, index = nn._pool_forward(x, keep_index=False)
        assert index is None and out.tobytes() == nn._pool_forward(x)[0].tobytes()

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_anywhere_in_window_wins(self, position, dtype):
        window = np.array([3.0, np.inf, -0.0, 7.0], dtype=dtype)
        window[position] = np.nan
        out, index = nn._pool_forward(window.reshape(1, 1, 2, 2))
        assert np.isnan(out[0, 0, 0, 0]) and index[0, 0, 0, 0] == position

    def test_nan_input_row_faults_training(self):
        arch = nn.cnn_architecture((2, 8, 8), (4,), (6,))
        rng = np.random.default_rng(31)
        x = rng.standard_normal((24, *arch.input_shape)).astype(np.float32)
        x[5, 1, 6, 3] = np.nan
        params = nn.init_params(arch, (0, 1), RngState(32))
        loss, _ = nn.loss_and_grad(params, x, np.arange(24) % 2)
        assert not np.isfinite(loss)

        labels = make_labels({0: 12, 1: 12})
        train = su.LabeledDataset(inputs=x, labels=labels, class_names=["a", "b"])
        cfg = su.TrainConfig(max_epochs_per_slice=1, patience=None, batch_size=24)
        with pytest.raises(NumericFault, match="non-finite loss"):
            su.train_shard(su.make_plan(labels, K=1, L=1, policy=su.BALANCED), 0,
                           train, train.subset([]), cfg)


# --- row-blocked inference ------------------------------------------------------

def finite_array(rng, shape, dtype, kind):
    """Finite inputs, so that inference pools before its ReLU: rounded draws
    (many ties) with a third of the entries -0.0, all zero, or all negative."""
    if kind == "ties":
        x = np.round(rng.standard_normal(shape)).astype(dtype)
        x[rng.random(shape) < 1 / 3] = -0.0
        return x
    if kind == "zero":
        return np.zeros(shape, dtype)
    return -np.abs(rng.standard_normal(shape)).astype(dtype) - dtype(0.25)


def sweep_params(arch_name, dtype, adam_steps):
    """Fresh parameters (zero biases), or after a few Adam steps."""
    arch = sweep_arch(arch_name)
    params = nn.init_params(arch, (0, 1, 2, 3), RngState(11), dtype=dtype)
    state = nn.adam_init(params)
    rng = np.random.default_rng(12)
    for _ in range(adam_steps):
        x = rng.standard_normal((8, *arch.input_shape)).astype(dtype)
        nn.adam_step(params, nn.loss_and_grad(params, x, rng.integers(0, 4, 8))[1], state)
    return params


def training_log_probs(params, x):
    logits, _ = nn._run_forward(params, x, keep_cache=True)
    return nn._log_softmax(logits)


@pytest.fixture()
def fallbacks(monkeypatch):
    """Row counts of the conv outputs that inference pools after the ReLU."""
    seen = []
    original = nn._pool_forward

    def spy(x, keep_index=True):
        if not keep_index:
            seen.append(len(x))
        return original(x, keep_index)
    monkeypatch.setattr(nn, "_pool_forward", spy)
    return seen


class TestBlockedInference:
    @pytest.mark.parametrize("arch_name", ["default", "three_conv", "one_channel",
                                           "small_8x8"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("adam_steps", [0, 3])
    @pytest.mark.parametrize("kind", ["ties", "zero", "negative"])
    def test_matches_training_forward_bitwise(self, fallbacks, arch_name, dtype,
                                              adam_steps, kind):
        params = sweep_params(arch_name, dtype, adam_steps)
        for n in (0, 1, 7, 8, 9, 17, 60):
            rng = np.random.default_rng([n, adam_steps])
            x = finite_array(rng, (n, *params.arch.input_shape), dtype, kind)
            want = training_log_probs(params, x)
            assert nn.log_probs(params, x).tobytes() == want.tobytes(), n
            assert np.array_equal(nn.predict_local(params, x), want.argmax(axis=1))
        assert fallbacks == []       # finite inputs never leave the fast path

    @pytest.mark.parametrize("arch_name", ["default", "three_conv", "one_channel",
                                           "small_8x8"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_block_falls_back(self, fallbacks, arch_name, dtype):
        # rows 8..15 form the middle block: only it holds a -inf
        params = sweep_params(arch_name, dtype, 3)
        x = finite_array(np.random.default_rng(9), (17, *params.arch.input_shape),
                         dtype, "ties")
        x[9, 0, 1, 2] = -np.inf
        with np.errstate(all="ignore"):
            want = training_log_probs(params, x)
            got = nn.log_probs(params, x)
        assert got.tobytes() == want.tobytes()
        assert np.isfinite(np.delete(got, 9, axis=0)).all()
        assert fallbacks == [nn._ROW_BLOCK] * len(params.arch.conv_channels)

    def test_forward_peak_memory_is_bounded(self):
        # a counter that wall-clock noise cannot move: whole-batch conv
        # layers peaked near 20 MB here
        params = nn.init_params(nn.cnn_architecture(), tuple(range(10)), RngState(1))
        x = np.random.default_rng(2).standard_normal((60, 3, 32, 32)).astype(np.float32)
        tracemalloc.start()
        try:
            nn.forward_batched(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

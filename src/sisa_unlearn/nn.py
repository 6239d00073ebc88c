"""Minimal differentiable model core.

Two reference architectures (a small CNN for CHW images, an MLP for flat
vectors), softmax cross-entropy with hand-written backprop, Adam, and
seeded He initialization. Everything is plain numpy so that training is
bitwise deterministic given (seed, data, hyperparameters); a float64 mode
exists for gradient verification.

A model's parameters, its Adam moments and each gradient are one flat
vector apiece, seen as named tensors through `FlatTensors`, so an optimizer
step or a snapshot is a handful of whole-vector operations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidLabelError, NumericFault
from .rng import RngState

MLP = "mlp"
CNN = "cnn"


@dataclass(frozen=True)
class Architecture:
    """Structural description that fully determines every tensor shape.

    mlp: dense(hidden[0]) -> relu -> ... -> dense(n_out)
    cnn: per conv channel width: conv 3x3 pad 1 -> relu -> maxpool 2x2,
         then flatten and the dense chain as in mlp.
    """

    kind: str
    input_shape: tuple[int, ...]
    conv_channels: tuple[int, ...] = ()
    hidden: tuple[int, ...] = (64,)

    def __post_init__(self):
        if self.kind not in (MLP, CNN):
            raise ValueError(f"unknown architecture kind {self.kind!r}")
        if self.kind == MLP and len(self.input_shape) != 1:
            raise ValueError("mlp expects a flat (features,) input shape")
        if self.kind == CNN:
            if len(self.input_shape) != 3:
                raise ValueError("cnn expects a (channels, height, width) input shape")
            h, w = self.input_shape[1], self.input_shape[2]
            for _ in self.conv_channels:
                if h % 2 or w % 2:
                    raise ValueError("spatial dims must stay even through every maxpool")
                h, w = h // 2, w // 2

    def flat_dim(self) -> int:
        """Width of the flattened activation entering the dense chain."""
        if self.kind == MLP:
            return self.input_shape[0]
        c, h, w = self.input_shape
        for _ in self.conv_channels:
            h, w = h // 2, w // 2
        channels = self.conv_channels[-1] if self.conv_channels else c
        return channels * h * w

    def tensor_shapes(self, n_out: int) -> dict[str, tuple[int, ...]]:
        shapes: dict[str, tuple[int, ...]] = {}
        c_in = self.input_shape[0] if self.kind == CNN else None
        for i, c_out in enumerate(self.conv_channels):
            shapes[f"conv{i}.w"] = (c_out, c_in, 3, 3)
            shapes[f"conv{i}.b"] = (c_out,)
            c_in = c_out
        dims = [self.flat_dim(), *self.hidden, n_out]
        for i in range(len(dims) - 1):
            shapes[f"dense{i}.w"] = (dims[i], dims[i + 1])
            shapes[f"dense{i}.b"] = (dims[i + 1],)
        return shapes

    @cached_property
    def layers(self) -> tuple[tuple[str, tuple[str, str] | None], ...]:
        """The forward pass in order: (kind, (weight, bias) tensor names or None)."""
        layers: list[tuple[str, tuple[str, str] | None]] = []
        for i in range(len(self.conv_channels)):
            layers += [("conv", (f"conv{i}.w", f"conv{i}.b")), ("relu", None),
                       ("pool", None)]
        if self.kind == CNN:
            layers.append(("flatten", None))
        n_dense = len(self.hidden) + 1
        for i in range(n_dense):
            layers.append(("dense", (f"dense{i}.w", f"dense{i}.b")))
            if i < n_dense - 1:
                layers.append(("relu", None))
        return tuple(layers)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "input_shape": list(self.input_shape),
                "conv_channels": list(self.conv_channels), "hidden": list(self.hidden)}

    @classmethod
    def from_dict(cls, doc: dict) -> "Architecture":
        return cls(kind=doc["kind"], input_shape=tuple(doc["input_shape"]),
                   conv_channels=tuple(doc["conv_channels"]), hidden=tuple(doc["hidden"]))


def mlp_architecture(num_features: int, hidden: tuple[int, ...] = (64,)) -> Architecture:
    return Architecture(kind=MLP, input_shape=(num_features,), hidden=hidden)


def cnn_architecture(input_shape: tuple[int, int, int] = (3, 32, 32),
                     conv_channels: tuple[int, ...] = (16, 32),
                     hidden: tuple[int, ...] = (128,)) -> Architecture:
    return Architecture(kind=CNN, input_shape=input_shape,
                        conv_channels=conv_channels, hidden=hidden)


class FlatTensors(dict):
    """Named tensors that are views of consecutive runs of one flat vector.

    `layout` is the (name, shape) of each tensor in vector order. Update a
    tensor in place (``t[...] = x``): rebinding a name would detach it from
    the vector, so item assignment is refused.
    """

    def __init__(self, flat: np.ndarray,
                 layout: tuple[tuple[str, tuple[int, ...]], ...]):
        start = 0
        for name, shape in layout:
            stop = start + math.prod(shape)
            dict.__setitem__(self, name, flat[start:stop].reshape(shape))
            start = stop
        if start != flat.size:
            raise ValueError(f"layout holds {start} values, vector has {flat.size}")
        self.flat = flat
        self.layout = layout

    @classmethod
    def stack(cls, tensors: dict[str, np.ndarray], dtype) -> "FlatTensors":
        """Copies of `tensors`, in their order, in one new vector."""
        layout = tuple((name, t.shape) for name, t in tensors.items())
        out = cls(np.empty(sum(t.size for t in tensors.values()), dtype), layout)
        for name, t in tensors.items():
            np.copyto(out[name], t)
        return out

    def __setitem__(self, name, value):
        raise TypeError(f"assign tensor {name!r} in place: tensors[name][...] = value")

    def __reduce__(self):
        # pickle and deepcopy rebuild the tensors as views of one copied
        # vector; dict's default would assign them by name
        return FlatTensors, (self.flat, self.layout)

    def copy(self) -> "FlatTensors":
        return FlatTensors(self.flat.copy(), self.layout)


@dataclass
class ModelParameters:
    """Named parameter tensors, views of one flat vector, plus the model's
    global class map."""

    arch: Architecture
    output_classes: tuple[int, ...]     # global class id per output unit
    tensors: FlatTensors

    @property
    def dtype(self):
        return self.tensors.flat.dtype

    @property
    def n_out(self) -> int:
        return len(self.output_classes)

    def param_count(self) -> int:
        return self.tensors.flat.size

    def copy(self) -> "ModelParameters":
        return ModelParameters(self.arch, tuple(self.output_classes), self.tensors.copy())


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class OptimizerState:
    """Adam moments laid out like the parameter vector, plus the step
    counter. A model that is never trained further has empty moments."""

    config: AdamConfig
    step: int
    m: FlatTensors
    v: FlatTensors

    def copy(self) -> "OptimizerState":
        return OptimizerState(self.config, self.step, self.m.copy(), self.v.copy())


def init_params(arch: Architecture, output_classes, rng: RngState,
                dtype=np.float32) -> ModelParameters:
    """He fan-in initialization: w ~ N(0, 2/fan_in), biases zero."""
    output_classes = tuple(int(c) for c in output_classes)
    if not output_classes:
        raise ValueError("output_classes must be nonempty")
    g = rng.generator()
    layout = tuple(arch.tensor_shapes(len(output_classes)).items())
    tensors = FlatTensors(np.zeros(sum(math.prod(s) for _, s in layout), dtype), layout)
    for name, shape in layout:
        if not name.endswith(".b"):
            fan_in = int(np.prod(shape[1:])) if name.startswith("conv") else shape[0]
            tensors[name][...] = g.standard_normal(shape, dtype=np.float64) \
                * np.sqrt(2.0 / fan_in)
    return ModelParameters(arch=arch, output_classes=output_classes, tensors=tensors)


def adam_init(params: ModelParameters, config: AdamConfig | None = None) -> OptimizerState:
    config = config or AdamConfig()
    zeros = lambda: FlatTensors(np.zeros_like(params.tensors.flat), params.tensors.layout)
    return OptimizerState(config=config, step=0, m=zeros(), v=zeros())


def _gradient_vector(tensors: FlatTensors, grads) -> tuple[np.ndarray, np.ndarray | bool]:
    """`grads` as one vector laid out like `tensors`, and where it applies:
    everywhere for a full gradient such as `loss_and_grad` returns, else on
    the tensors named in `grads` only."""
    if isinstance(grads, FlatTensors) and grads.layout == tensors.layout:
        return grads.flat, True
    g = FlatTensors(np.zeros_like(tensors.flat), tensors.layout)
    covered = FlatTensors(np.zeros(g.flat.shape, dtype=bool), tensors.layout)
    for name, grad in grads.items():
        g[name][...] = grad
        covered[name][...] = True
    return g.flat, covered.flat


def adam_step(params: ModelParameters, grads: dict[str, np.ndarray],
              state: OptimizerState) -> tuple[ModelParameters, OptimizerState]:
    """Standard Adam update with bias correction, applied in place to the
    whole parameter and moment vectors. A tensor with no entry in `grads`
    is left untouched, and so are its moments."""
    g, where = _gradient_vector(params.tensors, grads)
    if not np.isfinite(g).all():
        bad = next(name for name, t in grads.items() if not np.isfinite(t).all())
        raise NumericFault(f"non-finite gradient in tensor {bad!r}")
    cfg = state.config
    state.step += 1
    t = state.step
    c1 = 1.0 - cfg.beta1 ** t
    c2 = 1.0 - cfg.beta2 ** t
    p, m, v = params.tensors.flat, state.m.flat, state.v.flat
    tmp = np.empty_like(g)
    update = np.empty_like(g)
    # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2
    np.multiply(m, cfg.beta1, out=m, where=where)
    np.multiply(g, 1.0 - cfg.beta1, out=tmp, where=where)
    np.add(m, tmp, out=m, where=where)
    np.multiply(v, cfg.beta2, out=v, where=where)
    np.square(g, out=tmp, where=where)
    np.multiply(tmp, 1.0 - cfg.beta2, out=tmp, where=where)
    np.add(v, tmp, out=v, where=where)
    # p -= (lr * (m / c1)) / (sqrt(v / c2) + eps)
    np.divide(m, c1, out=update, where=where)
    np.multiply(update, cfg.lr, out=update, where=where)
    np.divide(v, c2, out=tmp, where=where)
    np.sqrt(tmp, out=tmp, where=where)
    np.add(tmp, cfg.eps, out=tmp, where=where)
    np.divide(update, tmp, out=update, where=where)
    np.subtract(p, update, out=p, where=where)
    return params, state


# --- forward / backward -----------------------------------------------------

def _conv_forward(x, w, b):
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw), dtype=x.dtype)
    xp[:, :, ph:ph + h, pw:pw + wd] = x
    # one copy of the (n, c, kh, kw, h, wd) patch view: im2col
    patches = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = patches.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, h * wd)
    out = np.matmul(w.reshape(o, -1), cols)          # (n, o, h*wd)
    out += b[:, None]
    return out.reshape(n, o, h, wd), (x.shape, cols)


def _conv_param_grads(dy, cache, dw, db):
    """Write the conv weight and bias gradients into dw and db."""
    x_shape, cols = cache
    n, _, h, wd = x_shape
    dy2 = dy.reshape(n, dw.shape[0], h * wd)
    np.copyto(dw, np.tensordot(dy2, cols, axes=([0, 2], [0, 2])).reshape(dw.shape))
    dy2.sum(axis=(0, 2), out=db)


def _conv_input_grad(dy, w, cache):
    x_shape, _ = cache
    n, c, h, wd = x_shape
    o, _, kh, kw = w.shape
    dy2 = dy.reshape(n, o, h * wd)
    dcols = np.matmul(w.reshape(o, -1).T, dy2)       # (n, c*kh*kw, h*wd)
    dcols = dcols.reshape(n, c, kh, kw, h, wd)
    dxp = np.zeros((n, c, h + kh - 1, wd + kw - 1), dtype=dy.dtype)
    for di in range(kh):
        for dj in range(kw):
            dxp[:, :, di:di + h, dj:dj + wd] += dcols[:, :, di, dj]
    ph, pw = kh // 2, kw // 2
    return dxp[:, :, ph:ph + h, pw:pw + wd]


# 2x2 window positions in np.argmax order over the flattened window
_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


def _later_wins(a, b):
    """Where np.argmax over (a, b) picks b: b is greater, or b is NaN and a
    is not. Equal values, +0.0 and -0.0 included, keep a."""
    take = b <= a
    take |= np.isnan(a)
    return np.logical_not(take, out=take)


def _pick(take, a, b):
    """b where `take`, else a, as a copy of the chosen element's bits
    (integer arithmetic, so every NaN, inf and signed zero is kept)."""
    bits = f"u{a.itemsize}"
    ai, bi = a.view(bits), b.view(bits)
    out = np.subtract(bi, ai)
    out *= take
    out += ai
    return out.view(a.dtype)


def _pool_forward(x, keep_index: bool = True):
    """2x2 max-pool keeping np.argmax's choice in every window: the first
    maximum in window order wins, and the first NaN wins over any number.
    Compares the column pair of each row, then the two row winners; the
    cache is the window position of each output, as uint8, or None when
    `keep_index` is False."""
    left, right = x[..., 0::2], x[..., 1::2]
    col = _later_wins(left, right)
    pairs = _pick(col, left, right)                 # (n, c, h, w/2)
    top, bottom = pairs[:, :, 0::2], pairs[:, :, 1::2]
    row = _later_wins(top, bottom)
    out = _pick(row, top, bottom)
    if not keep_index:
        return out, None
    column = col.view(np.uint8)
    index = _pick(row, column[:, :, 0::2], column[:, :, 1::2])
    index += row.view(np.uint8) << 1
    return out, index


def _pool_backward(dy, index):
    """dy to each window's chosen position, +0.0 elsewhere."""
    n, c, h, w = index.shape
    bits = f"u{dy.itemsize}"
    dx = np.empty((n, c, 2 * h, 2 * w), dtype=dy.dtype)
    # the four strided views tile dx, so every element is written once
    for k, (i, j) in enumerate(_WINDOW):
        np.multiply(dy.view(bits), index == k, out=dx[:, :, i::2, j::2].view(bits))
    return dx


# rows per conv block of an inference pass: bounds its im2col and activations
_ROW_BLOCK = 8


def _relu_pool(a):
    """ReLU then 2x2 max-pool of a conv output, for inference. With no NaN
    and no -inf in `a`, the window max is taken first and the ReLU applied
    to that quarter-size result; the two orders then differ only in the sign
    of a zero, which reaches no probability or argmax. Otherwise ReLU then `_pool_forward`, whose argmax rule is
    what fixes the bits of NaN (and of the NaN that the ReLU makes of -inf)."""
    if a.min(initial=np.inf) > -np.inf:     # false for NaN and for -inf
        out = np.maximum(np.maximum(a[:, :, 0::2, 0::2], a[:, :, 0::2, 1::2]),
                         np.maximum(a[:, :, 1::2, 0::2], a[:, :, 1::2, 1::2]))
        np.multiply(out, out > 0, out=out)
        return out
    np.multiply(a, a > 0, out=a)
    return _pool_forward(a, False)[0]


def _conv_features(tensors: FlatTensors, layers, x: np.ndarray) -> np.ndarray:
    """Flattened output of the conv -> relu -> pool blocks over rows x,
    without caches: each conv GEMM is per sample, so a block of rows gives
    the bits of the whole batch."""
    a = x
    for kind, names in layers:
        if kind == "conv":
            a = _conv_forward(a, tensors[names[0]], tensors[names[1]])[0]
        elif kind == "pool":
            a = _relu_pool(a)
    return a.reshape(a.shape[0], math.prod(a.shape[1:]))    # -1 fails on 0 rows


def _run_forward(params: ModelParameters, x: np.ndarray, keep_cache: bool):
    arch = params.arch
    if x.shape[1:] != arch.input_shape:
        raise ValueError(
            f"input shape {tuple(x.shape[1:])} does not match architecture "
            f"input {arch.input_shape}"
        )
    a = x.astype(params.dtype, copy=False)
    tensors = params.tensors
    caches = []
    layers = arch.layers
    if arch.kind == CNN and not keep_cache:
        flat = layers.index(("flatten", None))
        conv, layers = layers[:flat], layers[flat + 1:]
        blocks = _chunked(lambda rows: _conv_features(tensors, conv, a[rows]),
                          len(a), _ROW_BLOCK)
        a = np.concatenate(blocks)
    for kind, names in layers:
        if kind == "conv":
            a, cache = _conv_forward(a, tensors[names[0]], tensors[names[1]])
            caches.append((kind, names, cache))
        elif kind == "pool":
            a, cache = _pool_forward(a)    # inference pools in _relu_pool
            caches.append((kind, names, cache))
        elif kind == "relu":   # a is the fresh output of a conv or dense layer
            mask = a > 0
            np.multiply(a, mask, out=a)
            caches.append((kind, names, mask))
        elif kind == "flatten":
            caches.append((kind, names, a.shape))
            a = a.reshape(a.shape[0], int(np.prod(a.shape[1:])))  # -1 fails on 0 rows
        else:  # dense
            caches.append((kind, names, a))
            a = a @ tensors[names[0]] + tensors[names[1]]
    return a, (caches if keep_cache else None)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    s = z - z.max(axis=1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


def log_probs(params: ModelParameters, x: np.ndarray) -> np.ndarray:
    logits, _ = _run_forward(params, x, keep_cache=False)
    return _log_softmax(logits)


def forward(params: ModelParameters, x: np.ndarray) -> np.ndarray:
    """Class probabilities, one simplex row per input."""
    return np.exp(log_probs(params, x))


def _chunked(fn, n: int, batch_size: int) -> list:
    """fn(rows) for consecutive row slices of at most batch_size covering n
    rows (one empty slice when n is 0). Inference runs its conv layers in
    `_ROW_BLOCK`-row blocks, which bound their memory; a chunk fixes the
    row count of the dense GEMMs."""
    return [fn(slice(start, start + batch_size))
            for start in range(0, max(n, 1), batch_size)]


def forward_batched(params: ModelParameters, x: np.ndarray,
                    batch_size: int = 512) -> np.ndarray:
    """forward() in chunks."""
    return np.concatenate(_chunked(lambda rows: forward(params, x[rows]),
                                   len(x), batch_size))


def _check_labels(params: ModelParameters, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() >= params.n_out):
        raise InvalidLabelError(
            f"label outside model head of width {params.n_out} "
            "(check the partition metadata)"
        )
    return y


def loss_and_grad(params: ModelParameters, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over the batch and gradients for every tensor, as
    views of one new vector laid out like the parameters."""
    y = _check_labels(params, y)
    logits, caches = _run_forward(params, x, keep_cache=True)
    logp = _log_softmax(logits)
    n = x.shape[0]
    rows = np.arange(n)
    loss = float(-logp[rows, y].sum() / n)     # .mean(), bit for bit
    # backpropagation stops at the first layer: nothing reads d(loss)/d(input)
    lowest = "conv0.w" if params.arch.conv_channels else "dense0.w"

    grads = FlatTensors(np.empty_like(params.tensors.flat), params.tensors.layout)
    da = np.exp(logp)
    da[rows, y] -= 1.0
    da /= n
    for kind, names, cache in reversed(caches):
        if kind == "dense":
            w_name, b_name = names
            np.matmul(cache.T, da, out=grads[w_name])
            da.sum(axis=0, out=grads[b_name])
            if w_name == lowest:
                break
            da = da @ params.tensors[w_name].T
        elif kind == "relu":
            np.multiply(da, cache, out=da)
        elif kind == "flatten":
            da = da.reshape(cache)
        elif kind == "pool":
            da = _pool_backward(da, cache)
        else:  # conv
            w_name, b_name = names
            _conv_param_grads(da, cache, grads[w_name], grads[b_name])
            if w_name == lowest:
                break
            da = _conv_input_grad(da, params.tensors[w_name], cache)
    return loss, grads


def mean_loss(params: ModelParameters, x: np.ndarray, y: np.ndarray,
              batch_size: int = 1024) -> float:
    """Cross-entropy without gradients, evaluated in chunks."""
    y = _check_labels(params, y)

    def chunk_loss(rows):
        logp = log_probs(params, x[rows])
        return float(-logp[np.arange(len(logp)), y[rows]].sum())
    return sum(_chunked(chunk_loss, len(x), batch_size)) / len(x)


def predict_local(params: ModelParameters, x: np.ndarray,
                  batch_size: int = 1024) -> np.ndarray:
    """Argmax over the local head, evaluated in chunks."""
    return np.concatenate(_chunked(
        lambda rows: _run_forward(params, x[rows], keep_cache=False)[0].argmax(axis=1),
        len(x), batch_size)).astype(np.int64, copy=False)


def predict_global(params: ModelParameters, x: np.ndarray,
                   batch_size: int = 1024) -> np.ndarray:
    local = predict_local(params, x, batch_size)
    lut = np.asarray(params.output_classes, dtype=np.int64)
    return lut[local]


def drop_output_classes(params: ModelParameters, state: OptimizerState | None,
                        remove) -> tuple[ModelParameters, OptimizerState | None]:
    """Rebuild the output layer without the given global classes.

    The removed classes' weight columns, biases, and optimizer moments are
    deleted outright (not masked), so no parameter tied to them survives.
    """
    remove = set(int(c) for c in remove)
    keep = [i for i, c in enumerate(params.output_classes) if c not in remove]
    if len(keep) == len(params.output_classes):
        return params.copy(), state.copy() if state else None
    if not keep:
        raise ValueError("cannot drop every output class")
    head = f"dense{len(params.arch.hidden)}"
    cut = {f"{head}.w": np.s_[:, keep], f"{head}.b": np.s_[keep]}

    def without(tensors: FlatTensors) -> FlatTensors:
        return FlatTensors.stack({k: t[cut[k]] if k in cut else t
                                  for k, t in tensors.items()}, tensors.flat.dtype)
    new_params = ModelParameters(params.arch,
                                 tuple(params.output_classes[i] for i in keep),
                                 without(params.tensors))
    new_state = None
    if state is not None:
        new_state = OptimizerState(state.config, state.step,
                                   without(state.m), without(state.v))
    return new_params, new_state

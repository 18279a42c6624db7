"""Dual-branch network: 1D CNN + BiLSTM over the raw segment, 2D CNN over its
GAF image, dual-layer cross-channel split attention fusion, MLP head, softmax
classifier.

Each branch and the head is one ordered list of stages (`Stage`: a forward
op, its hand-written backward op and the parameter names it owns). The head
reads the concatenated branch features; in the variants with attention its
first stage is the attention fusion. `VARIANTS` is the one table of what
each variant uses, and `_layout` builds the lists from it. `init_params`
walks the lists to draw the parameters; `forward` runs them and records each
stage's backward and cache on a tape; `backward` replays the tapes in reverse.

The layers compute in the dtype of their input; the parameters, their
gradients and the model file stay float64. `optim.train` and
`predict_probs` hand the model `COMPUTE_DTYPE` (float32) inputs, and each
stage runs on a copy of its weights cast to that dtype. The final softmax
and the loss gradient at the logits stay float64. On float64 inputs
`forward` and `backward` are the float64 reference.
"""

import json
import math
import os
import struct
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import ops
from .errors import DataFormatError, ShapeMismatchError

# What each variant uses: (temporal branch, spatial branch, attention fusion,
# cross-attention).
VARIANTS = {
    "full": (True, True, True, True),
    "no_dual_attention": (True, True, False, False),
    "no_cross_channel": (True, True, True, False),
    "time_only": (True, False, False, False),
    "gaf_only": (False, True, False, False),
}

# The dtype training and prediction compute in; see the module docstring.
COMPUTE_DTYPE = np.float32

MODEL_MAGIC = b"GAFN"
MODEL_VERSION = 2


@dataclass(frozen=True)
class ModelConfig:
    num_classes: int
    cnn1d_layers: Tuple[Tuple[int, int], ...] = ((32, 7), (64, 5))  # (channels, kernel)
    lstm_hidden: int = 64
    cnn2d_layers: Tuple[Tuple[int, int, int], ...] = ((16, 3, 2), (32, 3, 2), (64, 3, 2))  # (channels, kernel, stride)
    groups: int = 8
    d_attn: int = 16
    mlp_hidden: int = 128
    variant: str = "full"

    def __post_init__(self):
        object.__setattr__(self, "cnn1d_layers", tuple(tuple(l) for l in self.cnn1d_layers))
        object.__setattr__(self, "cnn2d_layers", tuple(tuple(l) for l in self.cnn2d_layers))
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.d_attn <= 0 or self.groups <= 0 or self.mlp_hidden <= 0:
            raise ValueError("d_attn, groups, mlp_hidden must be positive")

        def positive_ints(layers, n):  # every layer is n integers >= 1
            return all(len(l) == n and all(isinstance(v, (int, np.integer)) and v >= 1 for v in l) for l in layers)

        if not positive_ints(self.cnn1d_layers, 2) or any(k % 2 == 0 for _ch, k in self.cnn1d_layers):
            raise ValueError("cnn1d_layers: every layer must be (channels >= 1, odd kernel >= 1)")
        if not self.cnn2d_layers or not positive_ints(self.cnn2d_layers, 3):
            raise ValueError("cnn2d_layers: need at least one layer, each (channels, kernel, stride) >= 1")
        if self.lstm_hidden < 1:
            raise ValueError("lstm_hidden must be >= 1")
        if self.d_t % self.groups or self.d_s % self.groups:
            raise ValueError("groups must divide both feature dims")

    @property
    def d_t(self) -> int:
        return 2 * self.lstm_hidden

    @property
    def d_s(self) -> int:
        return self.cnn2d_layers[-1][0]

    @property
    def fused_in(self) -> int:
        return self.d_t * self.uses_temporal + self.d_s * self.uses_spatial

    @property
    def uses_temporal(self) -> bool:
        return VARIANTS[self.variant][0]

    @property
    def uses_spatial(self) -> bool:
        return VARIANTS[self.variant][1]

    @property
    def uses_attention(self) -> bool:
        return VARIANTS[self.variant][2]

    @property
    def uses_cross(self) -> bool:
        return VARIANTS[self.variant][3]


class Param(NamedTuple):
    """One tensor of a `ModelParams`: views of its value and gradient in the
    flat vectors. Read-only, so `p.value = x` cannot detach it from them;
    write in place (`p.value[...] = x`)."""

    value: np.ndarray
    grad: np.ndarray


class ModelParams:
    """All learnable tensors as one float64 vector `values`, with their
    gradients in `grads` beside it. `shapes` maps each name to its shape, in
    `init_params` order, which lays out both vectors and the model file's
    payload. `params[name]` is that tensor's `Param`."""

    def __init__(self, shapes: Dict[str, Tuple[int, ...]], values):
        self.shapes = {name: tuple(shape) for name, shape in shapes.items()}
        self.values = np.array(values, dtype=np.float64)  # always a copy
        sizes = [math.prod(shape) for shape in self.shapes.values()]
        if self.values.shape != (sum(sizes),):
            raise ShapeMismatchError(f"{self.values.shape} values for {sum(sizes)} parameters")
        self.grads = np.zeros_like(self.values)
        ends = np.cumsum(sizes)
        self._params = {
            name: Param(self.values[end - size : end].reshape(shape), self.grads[end - size : end].reshape(shape))
            for (name, shape), size, end in zip(self.shapes.items(), sizes, ends)
        }

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def items(self):
        return list(self._params.items())

    def zero_grad(self):
        self.grads.fill(0.0)

    def copy(self) -> "ModelParams":
        return ModelParams(self.shapes, self.values)


# ---------------------------------------------------------------------------
# scaled dot-product attention over tokens


def _attention_forward(tq, tkv, wq, wk, wv):
    """softmax(Q K^T / sqrt(d_attn)) V for token matrices (B, g, c)."""
    q = tq @ wq
    k = tkv @ wk
    v = tkv @ wv
    scale = 1.0 / math.sqrt(wq.shape[1])  # a Python float keeps float32 tokens float32
    scores = q @ np.swapaxes(k, -1, -2) * scale
    att, sm_cache = ops.softmax_forward(scores, axis=-1)
    out = att @ v
    return out, (tq, tkv, wq, wk, wv, q, k, v, att, sm_cache, scale)


def _attention_backward(gout, cache):
    """Returns (g_tq, g_tkv, gwq, gwk, gwv); for self-attention the caller
    adds g_tq and g_tkv."""
    tq, tkv, wq, wk, wv, q, k, v, att, sm_cache, scale = cache
    gatt = gout @ np.swapaxes(v, -1, -2)
    gv = np.swapaxes(att, -1, -2) @ gout
    (gscores,) = ops.softmax_backward(gatt, sm_cache)
    gq = gscores @ k * scale
    gk = np.swapaxes(gscores, -1, -2) @ q * scale
    g_tq = gq @ wq.T
    g_tkv = gk @ wk.T + gv @ wv.T
    gwq = np.einsum("bgc,bgd->cd", tq, gq, optimize=True)
    gwk = np.einsum("bgc,bgd->cd", tkv, gk, optimize=True)
    gwv = np.einsum("bgc,bgd->cd", tkv, gv, optimize=True)
    return g_tq, g_tkv, gwq, gwk, gwv


# ---------------------------------------------------------------------------
# stage lists
#
# A stage is one layer: `forward(x, *values) -> (y, cache)` takes the values
# of the parameters `names` after its input, `backward(gy, cache)` returns the
# input gradient and then one gradient per name (a parameter used more than
# once inside the stage gets the sum of its uses), and `init(rng)` draws the
# values of `names` in order. A stage that can be a branch's first with
# parameters also takes `input_grad=False`, and then returns None for the
# input gradient. The lists are built per call, so every `ops.*`
# function is looked up through its module attribute when the model runs.


class Stage(NamedTuple):
    forward: Callable
    backward: Callable
    names: Tuple[str, ...] = ()
    init: Callable = lambda rng: ()


def _affine(forward, backward, names, w_shape, fan_in, n_out):
    """A stage owning a weight drawn uniform(+-sqrt(1/fan_in)) and a zero bias."""
    return Stage(forward, backward, names, lambda rng: (ops.uniform_init(rng, w_shape, fan_in), np.zeros(n_out)))


# adds the channel axis the first convolution of a branch reads
_CHANNEL = Stage(lambda x: (x[:, None], None), lambda g, _cache: (g[:, 0],))


def _bilstm_stage(din, hidden):
    """BiLSTM over channels-first (B, din, T) -> (B, 2h, T). `ops` copies the
    input into its own time-major buffers, so the (B, T, din) view is enough.
    The output is a swapped view of the C-order (B, T, 2h) result, so the
    pool after it sums over time one step after another; over a contiguous
    (B, 2h, T) copy it would sum pairwise, with other bytes."""

    def forward(x, *values):
        cells = ops.LstmCellParams(*values[:3]), ops.LstmCellParams(*values[3:])
        h, cache = ops.bilstm_forward(np.swapaxes(x, 1, 2), *cells)
        return np.swapaxes(h, 1, 2), cache

    def backward(g, cache, input_grad=True):
        gx, grads_f, grads_b = ops.bilstm_backward(np.swapaxes(g, 1, 2), cache)
        return (np.ascontiguousarray(np.swapaxes(gx, 1, 2)) if input_grad else None, *grads_f, *grads_b)

    def init(rng):
        cells = [ops.init_lstm_cell(rng, din, hidden) for _direction in "fb"]
        return [value for cell in cells for value in (cell.w_x, cell.w_h, cell.b)]

    return Stage(forward, backward, tuple(f"lstm.{d}.{p}" for d in "fb" for p in ("w_x", "w_h", "b")), init)


def _temporal_stages(cfg: ModelConfig) -> List[Stage]:
    """Segments (B, w) -> 1D CNN -> BiLSTM -> mean over time (B, d_t)."""
    stages, cin = [_CHANNEL], 1
    for i, (ch, k) in enumerate(cfg.cnn1d_layers):
        conv = _affine(ops.conv1d_forward, ops.conv1d_backward, (f"conv1.{i}.w", f"conv1.{i}.b"), (ch, cin, k), cin * k, ch)
        stages += [conv, Stage(ops.relu_forward, ops.relu_backward)]
        cin = ch
    pool = Stage(partial(ops.global_avg_pool_forward, n_spatial=1), ops.global_avg_pool_backward)
    return stages + [_bilstm_stage(cin, cfg.lstm_hidden), pool]


def _spatial_stages(cfg: ModelConfig) -> List[Stage]:
    """GAF images (B, w, w) -> strided 2D CNN -> global average pool (B, d_s)."""
    stages, cin = [_CHANNEL], 1
    for i, (ch, k, stride) in enumerate(cfg.cnn2d_layers):
        conv = _affine(partial(ops.conv2d_forward, stride=stride), ops.conv2d_backward,
                       (f"conv2.{i}.w", f"conv2.{i}.b"), (ch, cin, k, k), cin * k * k, ch)
        stages += [conv, Stage(ops.relu_forward, ops.relu_backward)]
        cin = ch
    return stages + [Stage(partial(ops.global_avg_pool_forward, n_spatial=2), ops.global_avg_pool_backward)]


def _head_stages(cfg: ModelConfig) -> List[Stage]:
    """Fused features (B, fused_in) -> MLP -> logits (B, C)."""
    return [
        _affine(ops.linear_forward, ops.linear_backward, ("mlp.w1", "mlp.b1"),
                (cfg.fused_in, cfg.mlp_hidden), cfg.fused_in, cfg.mlp_hidden),
        Stage(ops.relu_forward, ops.relu_backward),
        _affine(ops.linear_forward, ops.linear_backward, ("cls.w", "cls.b"),
                (cfg.mlp_hidden, cfg.num_classes), cfg.mlp_hidden, cfg.num_classes),
    ]


# ---------------------------------------------------------------------------
# attention fusion


def _fusion_stage(cfg: ModelConfig) -> Stage:
    """Dual-layer cross-channel split attention over the concatenated branch
    features (B, d_t + d_s) -> (B, d_t + d_s). Each modality's vector is cut
    into `groups` tokens of consecutive channels; every attention path adds
    its projected output to its query modality's vector, and each modality is
    then layer-normalized. With cross-attention a modality's wq, wk and wv
    serve two paths, and their gradient sums the two in path order."""
    dims = {"t": cfg.d_t, "s": cfg.d_s}
    # (query modality, key/value modality, their wq/wk/wv, output projection) of
    # each path: self-attention within each modality, then cross-attention
    # from each modality to the other
    pairs = [("t", "t"), ("s", "s")] + ([("t", "s"), ("s", "t")] if cfg.uses_cross else [])
    paths = [(q, kv, (f"attn.{q}.wq", f"attn.{kv}.wk", f"attn.{kv}.wv"), f"attn.{q}.wo_{'intra' if q == kv else 'cross'}")
             for q, kv in pairs]
    weights = [(f"attn.{m}.{p}", (dims[m] // cfg.groups, cfg.d_attn)) for m in "ts" for p in ("wq", "wk", "wv")]
    weights += [(wo, (cfg.groups * cfg.d_attn, dims[q])) for q, _kv, _qkv, wo in paths]
    names = tuple([name for name, _ in weights] + [f"ln.{m}.{p}" for m in "ts" for p in ("gain", "bias")])

    def modalities(x):
        return {"t": x[:, : cfg.d_t], "s": x[:, cfg.d_t :]}

    def forward(x, *values):
        w = dict(zip(names, values))
        pre = modalities(x)
        tokens = {m: f.reshape(len(x), cfg.groups, dims[m] // cfg.groups) for m, f in pre.items()}
        outs = []
        for q, kv, qkv, wo in paths:
            out, att_cache = _attention_forward(tokens[q], tokens[kv], *(w[name] for name in qkv))
            pre[q] = pre[q] + out.reshape(len(x), cfg.groups * cfg.d_attn) @ w[wo]
            outs.append((out, att_cache))
        normed = [ops.layer_norm_forward(pre[m], w[f"ln.{m}.gain"], w[f"ln.{m}.bias"]) for m in "ts"]
        return np.concatenate([y for y, _ in normed], axis=-1), (w, tokens, outs, [c for _, c in normed])

    def backward(gy, cache):
        w, tokens, outs, ln_caches = cache
        grads = {name: [] for name in names}
        gpre = {}
        for (m, g), ln_cache in zip(modalities(gy).items(), ln_caches):
            gpre[m], ggain, gbias = ops.layer_norm_backward(g, ln_cache)
            grads[f"ln.{m}.gain"].append(ggain)
            grads[f"ln.{m}.bias"].append(gbias)
        g_tokens = {m: np.zeros_like(tk) for m, tk in tokens.items()}
        for (q, kv, qkv, wo), (out, att_cache) in zip(paths, outs):
            grads[wo].append(out.reshape(len(gy), cfg.groups * cfg.d_attn).T @ gpre[q])
            g_out = (gpre[q] @ w[wo].T).reshape(out.shape)
            g_tq, g_tkv, *gw = _attention_backward(g_out, att_cache)
            g_tokens[q] += g_tq
            g_tokens[kv] += g_tkv
            for name, g in zip(qkv, gw):
                grads[name].append(g)
        gx = np.concatenate([gpre[m] + g_tokens[m].reshape(len(gy), dims[m]) for m in "ts"], axis=-1)
        return (gx, *(sum(grads[name]) for name in names))

    def init(rng):  # every attention weight has fan-in shape[0]
        drawn = [ops.uniform_init(rng, shape, shape[0]) for _, shape in weights]
        return drawn + [make(dims[m]) for m in "ts" for make in (np.ones, np.zeros)]

    return Stage(forward, backward, names, init)


# ---------------------------------------------------------------------------
# full model


def _layout(cfg: ModelConfig):
    """The one place where the layers of a variant are put together:
    (branches, head). `branches` holds (input name, feature width, stage list)
    for each branch in use, in input order; `head` is the stage list over
    their concatenated features, led by the attention fusion when the variant
    uses it."""
    branches = []
    if cfg.uses_temporal:
        branches.append(("segment", cfg.d_t, _temporal_stages(cfg)))
    if cfg.uses_spatial:
        branches.append(("image", cfg.d_s, _spatial_stages(cfg)))
    return branches, ([_fusion_stage(cfg)] if cfg.uses_attention else []) + _head_stages(cfg)


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Seed-deterministic initialization: weights uniform(+-sqrt(1/fan_in)),
    biases zero (LSTM forget gate 1.0), layer-norm gain 1 / bias 0. Draws
    follow `_layout` order, which is also the tensor order of the model file."""
    branches, head = _layout(cfg)
    stages = [stage for _kind, _width, branch in branches for stage in branch] + head
    drawn = {name: value for stage in stages for name, value in zip(stage.names, stage.init(rng))}
    shapes = {name: np.shape(value) for name, value in drawn.items()}
    return ModelParams(shapes, np.concatenate([np.ravel(value) for value in drawn.values()]))


def _run(stages: List[Stage], x, params: ModelParams, tape: list):
    """Run stages forward, recording (backward, cache, names) of each on `tape`.
    Each stage gets its weights cast to the dtype of its input."""
    x = ops.as_float(x)
    for stage in stages:
        x, cache = stage.forward(x, *(params[name].value.astype(x.dtype, copy=False) for name in stage.names))
        tape.append((stage.backward, cache, stage.names))
    return x


def _replay(tape: list, g, params: ModelParams, input_grad: bool = True):
    """Replay a tape in reverse: accumulate parameter gradients, return the input
    gradient. Without `input_grad` the replay ends at the tape's first stage that
    owns parameters, which is called with `input_grad=False` (it computes its
    parameter gradients only), and the result is None."""
    stop = 0 if input_grad else next(i for i, (_fn, _cache, names) in enumerate(tape) if names)
    for i in reversed(range(stop, len(tape))):
        backward_fn, cache, names = tape[i]
        g, *grads = backward_fn(g, cache) if input_grad or i > stop else backward_fn(g, cache, input_grad=False)
        for name, grad in zip(names, grads):
            params[name].grad[...] += grad  # float64 master gradients, whatever the compute dtype
    return g


def _rows(segs, imgs, cfg: ModelConfig) -> int:
    """The row count shared by the inputs the variant reads."""
    rows = set()
    for kind, x, used in (("segment", segs, cfg.uses_temporal), ("image", imgs, cfg.uses_spatial)):
        if used:
            if x is None:
                raise ValueError(f"variant requires {kind} input")
            rows.add(len(x))
    if len(rows) > 1:
        raise ShapeMismatchError(f"segments and images differ in row count: {len(segs)} vs {len(imgs)}")
    return rows.pop()


@dataclass
class ForwardTrace:
    probs: np.ndarray  # (B, C)
    logits: np.ndarray
    tapes: List[list]  # one per branch in use, then the head's


def forward(segs, imgs, params: ModelParams, cfg: ModelConfig) -> ForwardTrace:
    """Run the variant's full pipeline on a batch.

    segs: (B, w) raw segments; imgs: (B, w, w) GAF images. An input the
    variant does not read may be None.
    """
    _rows(segs, imgs, cfg)
    branches, head = _layout(cfg)
    inputs = {"segment": segs, "image": imgs}
    tapes = [[] for _ in range(len(branches) + 1)]
    feats = [_run(stages, inputs[kind], params, tape) for (kind, _width, stages), tape in zip(branches, tapes)]
    logits = _run(head, np.concatenate(feats, axis=-1), params, tapes[-1])
    # float64 probabilities: the loss takes log(p + 1e-12), which float32 cannot resolve near 1
    probs, _ = ops.softmax_forward(logits.astype(np.float64, copy=False), axis=-1)
    return ForwardTrace(probs=probs, logits=logits, tapes=tapes)


def backward(trace: ForwardTrace, grad_logits, params: ModelParams, cfg: ModelConfig, input_grads: bool = True):
    """Accumulate dLoss/dtheta into `params.grads` given dLoss/dlogits.

    Returns (grad_segments, grad_images); entries are None for branches the
    variant does not use. With `input_grads=False` both are None and each
    branch's backward stops at its first layer with parameters, which skips
    that layer's input gradient; the parameter gradients are the same bytes.
    """
    branches, _head = _layout(cfg)
    gz = _replay(trace.tapes[-1], np.asarray(grad_logits, dtype=trace.logits.dtype), params)
    gfeats = np.split(gz, np.cumsum([width for _kind, width, _stages in branches])[:-1], axis=-1)
    grads = {kind: _replay(tape, g, params, input_grads)
             for (kind, _w, _s), tape, g in zip(branches, trace.tapes, gfeats)}
    return grads.get("segment"), grads.get("image")


def backward_cross_entropy(trace: ForwardTrace, labels_onehot, params: ModelParams, cfg: ModelConfig,
                           input_grads: bool = True):
    """Backprop the batch-mean cross-entropy loss; d/dlogits = (p - y) / B."""
    y = np.asarray(labels_onehot, dtype=np.float64)
    return backward(trace, (trace.probs - y) * (1.0 / y.shape[0]), params, cfg, input_grads=input_grads)


# Rows per `forward` call in `predict_probs`. A chunk's layer outputs grow
# with the rows; an array above glibc's 32 MB mmap threshold is mapped and
# page-faulted anew on every call. At 32 float32 rows of w=140 the largest
# are the second conv2d layer's window copy, 21.3 MB (one block: under two
# of `ops.WINDOW_BLOCK_BYTES`), and the first conv2d layer's output, 9.8 MB;
# at 64 rows the output doubles and the copy is blocked. Fewer rows cost
# more per row instead: the BiLSTM steps every time step once per chunk.
# Predicting 600 rows of w=140 in a fresh process (paper-default model,
# float32, one BLAS thread, six runs each) took 1.42-2.03 s at 16 rows,
# 1.42-1.69 s at 32 and 1.44-1.63 s at 64, and a second pass in the same
# process 1.38-1.71, 1.45-1.49 and 1.41-1.42 s: no size was clearly faster.
PREDICT_ROWS = 32


def predict_probs(params: ModelParams, cfg: ModelConfig, segs, imgs) -> np.ndarray:
    """Inference over a whole dataset, `PREDICT_ROWS` rows per `forward` call,
    each chunk cast to `COMPUTE_DTYPE`."""
    n = _rows(segs, imgs, cfg)
    if n == 0:
        return np.empty((0, cfg.num_classes))
    out = []
    for start in range(0, n, PREDICT_ROWS):
        sl = slice(start, start + PREDICT_ROWS)
        # keep only the probabilities: the tape of one chunk is freed before the next runs
        out.append(forward(
            np.asarray(segs[sl], dtype=COMPUTE_DTYPE) if segs is not None else None,
            np.asarray(imgs[sl], dtype=COMPUTE_DTYPE) if imgs is not None else None,
            params,
            cfg,
        ).probs)
    return np.concatenate(out, axis=0)


# ---------------------------------------------------------------------------
# serialization
#
# Layout: magic "GAFN" | version u16 | header length u32 (both little-endian)
#   | header: UTF-8 JSON with sorted keys, holding
#       "model": the `ModelConfig` fields, "input_len", "class_names",
#       "tensors": [[name, shape], ...] in `init_params` order
#   | payload: `ModelParams.values` as little-endian float64, every tensor's
#       values back to back in that order.
# A new `ModelConfig` field is stored and read back with no change here.

_PREFIX = struct.Struct("<4sHI")


class StoredInputs(NamedTuple):
    """What a model file records about the data the model was trained on."""

    input_len: int
    class_names: List[str]


def save_model(path, cfg: ModelConfig, input_len: int, params: ModelParams,
               class_names: Optional[Sequence[str]] = None) -> None:
    """Write the model file atomically: into `<path>.tmp` beside it, then
    renamed over `path`, so a failed write leaves any previous file intact.
    `class_names` defaults to the class ids "0".."C-1"."""
    names = [str(c) for c in (range(cfg.num_classes) if class_names is None else class_names)]
    if len(names) != cfg.num_classes:
        raise ValueError(f"{len(names)} class names for {cfg.num_classes} classes")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        _write_model(tmp, cfg, StoredInputs(input_len, names), params)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_model(path, cfg: ModelConfig, stored: StoredInputs, params: ModelParams) -> None:
    header = {
        "model": asdict(cfg),
        **stored._asdict(),
        "tensors": [[name, shape] for name, shape in params.shapes.items()],
    }
    # `default=int` writes numpy integers (allowed in the layer tuples) as plain ints
    blob = json.dumps(header, sort_keys=True, default=int).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_PREFIX.pack(MODEL_MAGIC, MODEL_VERSION, len(blob)))
        f.write(blob)
        f.write(params.values.astype("<f8").tobytes())


def load_model(path) -> Tuple[ModelConfig, StoredInputs, ModelParams]:
    """Read a model file written by `save_model`. A file that is not a
    complete, consistent version-2 model file raises `DataFormatError`."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MODEL_MAGIC:
        raise DataFormatError("bad magic: not a model file")
    if len(data) < _PREFIX.size:
        raise DataFormatError("truncated model file")
    _magic, version, header_len = _PREFIX.unpack_from(data)
    if version != MODEL_VERSION:
        raise DataFormatError(f"unsupported model format version {version} (this build reads {MODEL_VERSION})")
    start = _PREFIX.size + header_len
    if start > len(data):
        raise DataFormatError("truncated model file")
    try:
        header = json.loads(data[_PREFIX.size : start].decode("utf-8"))
        cfg = ModelConfig(**header["model"])  # its own checks validate the fields
        stored = StoredInputs(header["input_len"], header["class_names"])
        if not isinstance(stored.input_len, int) or stored.input_len < 1:
            raise ValueError("input_len must be a positive integer")
        if len(stored.class_names) != cfg.num_classes or not all(isinstance(n, str) for n in stored.class_names):
            raise ValueError(f"class_names must be {cfg.num_classes} strings")
        template = init_params(cfg, ops.make_rng(0))
        if header["tensors"] != [[name, list(shape)] for name, shape in template.shapes.items()]:
            raise ValueError("tensor table does not match the model config")
    except (ValueError, TypeError, KeyError) as e:  # json.JSONDecodeError is a ValueError
        raise DataFormatError(f"bad model header: {e}") from e
    if len(data) - start != template.values.nbytes:
        raise DataFormatError(f"model payload is {len(data) - start} bytes, expected {template.values.nbytes}")
    return cfg, stored, ModelParams(template.shapes, np.frombuffer(data, dtype="<f8", offset=start))

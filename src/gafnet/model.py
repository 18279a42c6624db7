"""Dual-branch network: 1D CNN + BiLSTM over the raw segment, 2D CNN over its
GAF image, dual-layer cross-channel split attention fusion, MLP head, softmax
classifier.

Each branch and the head is one ordered list of stages (`Stage`: a forward
op, its hand-written backward op and one (name, shape, init) row per
parameter it owns). The head reads the concatenated branch features; in the
variants with attention its first stage is the attention fusion. `VARIANTS`
is the one table of what each variant uses, and `_layout` builds the lists
from it for a pass with a tape or without. `param_shapes` and `init_params`
both read the stages' rows, so a parameter is declared in one place;
`forward` runs the stages and records each stage's backward and cache on a
tape (or, for prediction, keeps none); `backward` replays the tapes in
reverse and consumes them, freeing each stage's cache as soon as its
backward has run, so a training step holds at most one tape.

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
from .errors import ConfigError, DataFormatError, ShapeMismatchError

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


def is_int_at_least(v, least: int = 1) -> bool:
    """The settings' integer rule: `v` is an int or a numpy integer, not a
    bool, and at least `least`."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= least


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

        for name in ("num_classes", "lstm_hidden", "groups", "d_attn", "mlp_hidden"):
            if not is_int_at_least(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer >= 1")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if not all(len(l) == 2 and all(map(is_int_at_least, l)) and l[1] % 2 for l in self.cnn1d_layers):
            raise ConfigError("cnn1d_layers: every layer must be (channels >= 1, odd kernel >= 1)")
        if not self.cnn2d_layers or not all(len(l) == 3 and all(map(is_int_at_least, l)) for l in self.cnn2d_layers):
            raise ConfigError("cnn2d_layers: need at least one layer, each (channels, kernel, stride) >= 1")
        if self.d_t % self.groups or self.d_s % self.groups:
            raise ConfigError("groups must divide both feature dims")

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
    def min_input_len(self) -> int:
        """The shortest window the variant takes: the spatial branch's
        convolutions must leave at least one pixel (15 for three stride-2
        3x3 layers), and without that branch any window of 1 or more."""
        need = 1
        for _ch, k, stride in reversed(self.cnn2d_layers if self.uses_spatial else ()):
            need = max(1, (need - 1) * stride + k - 2 * ops.conv_padding(k, stride))
        return need

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
        self.shapes = {name: tuple(int(n) for n in shape) for name, shape in shapes.items()}
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
# A stage is one layer: `forward(x, *values) -> (y, cache)` takes its
# parameters' values after its input, and `backward(gy, cache)` returns the
# input gradient, then one gradient per parameter (a parameter used more than
# once inside the stage gets the sum of its uses). `params` declares each
# parameter once, as a (name, shape, init) row: an integer init is the fan-in
# of a uniform(+-sqrt(1/fan_in)) draw, any other init the constant the tensor
# starts at, which draws nothing. A stage that can be a branch's first with
# parameters also takes `input_grad=False`, and then returns None for the
# input gradient. `_run` calls every forward as `forward(x, *values)`: what a
# stage keeps is fixed when `_layout` builds it for a pass, and the BiLSTM's,
# built for a pass without a tape, keeps only what the next stage reads,
# with None as its cache. The lists are built per call, so every `ops.*`
# function is looked up through its module attribute when the model runs.


class Stage(NamedTuple):
    forward: Callable
    backward: Callable
    params: Tuple[Tuple[str, Tuple[int, ...], object], ...] = ()

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(name for name, _shape, _init in self.params)


def _affine(forward, backward, names, w_shape, fan_in, n_out):
    """A stage owning a weight drawn uniform(+-sqrt(1/fan_in)) and a zero bias."""
    return Stage(forward, backward, ((names[0], w_shape, fan_in), (names[1], (n_out,), 0.0)))


# adds the channel axis the first convolution of a branch reads
_CHANNEL = Stage(lambda x: (x[:, None], None), lambda g, _cache: (g[:, 0],))


def _bilstm_stage(din, hidden, record=True):
    """BiLSTM over channels-first (B, din, T) -> (B, 2h, T). Each direction
    owns its w_x, w_h and b (gates in input, forget, candidate, output order;
    the forget gate's bias starts at 1), stacked by direction for `ops`.
    `ops` copies the input into its own time-major buffers, so the (B, T, din)
    view is enough. The output is a swapped view of the C-order (B, T, 2h)
    result, so the pool after it sums over time one step after another; over
    a contiguous (B, 2h, T) copy it would sum pairwise, with other bytes.
    Without `record` the op keeps no step's gates or cell state."""

    def forward(x, *values):  # f's w_x, w_h, b, then b's
        weights = (np.stack(values[i::3]) for i in range(3))
        h, cache = ops.bilstm_forward(np.swapaxes(x, 1, 2), *weights, record=record)
        return np.swapaxes(h, 1, 2), cache

    def backward(g, cache, input_grad=True):
        gx, *grads = ops.bilstm_backward(np.swapaxes(g, 1, 2), cache)
        gx = np.ascontiguousarray(np.swapaxes(gx, 1, 2)) if input_grad else None
        return (gx, *(grad[d] for d in range(2) for grad in grads))

    cell = (("w_x", (4 * hidden, din), din), ("w_h", (4 * hidden, hidden), hidden),
            ("b", (4 * hidden,), np.repeat([0.0, 1.0, 0.0, 0.0], hidden)))
    return Stage(forward, backward, tuple((f"lstm.{d}.{p}", shape, init) for d in "fb" for p, shape, init in cell))


def _temporal_stages(cfg: ModelConfig, record: bool) -> List[Stage]:
    """Segments (B, w) -> 1D CNN -> BiLSTM -> mean over time (B, d_t)."""
    stages, cin = [_CHANNEL], 1
    for i, (ch, k) in enumerate(cfg.cnn1d_layers):
        conv = _affine(ops.conv1d_forward, ops.conv1d_backward, (f"conv1.{i}.w", f"conv1.{i}.b"), (ch, cin, k), cin * k, ch)
        stages += [conv, Stage(ops.relu_forward, ops.relu_backward)]
        cin = ch
    pool = Stage(partial(ops.global_avg_pool_forward, n_spatial=1), ops.global_avg_pool_backward)
    return stages + [_bilstm_stage(cin, cfg.lstm_hidden, record), pool]


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
    # every attention weight has fan-in shape[0]; layer norm starts at gain 1, bias 0
    weights = [(f"attn.{m}.{p}", (dims[m] // cfg.groups, cfg.d_attn)) for m in "ts" for p in ("wq", "wk", "wv")]
    weights += [(wo, (cfg.groups * cfg.d_attn, dims[q])) for q, _kv, _qkv, wo in paths]
    rows = [(name, shape, shape[0]) for name, shape in weights]
    rows += [(f"ln.{m}.{p}", (dims[m],), start) for m in "ts" for p, start in (("gain", 1.0), ("bias", 0.0))]
    names = [name for name, _shape, _init in rows]

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

    return Stage(forward, backward, tuple(rows))


# ---------------------------------------------------------------------------
# full model


class Branch(NamedTuple):
    input: str  # "segment" or "image"
    width: int  # of its features
    stages: List[Stage]
    rows: Optional[int]  # per block of `_run_blocks`; None runs the whole `forward` call at once


# The spatial branch's block in prediction. Its conv2d layers' working set
# grows with the rows: at w=140 a block of 8 stays near a 4 MB L2 cache,
# where whole chunks do not. A block only splits the columns of each conv
# GEMM, which at a multiple of 8 rows keeps the bytes of one pass over all
# rows (`ops._window_product`); smaller blocks do not at every width. The
# temporal branch runs over the whole call: its BiLSTM steps every time
# step once per call, so every row of the call shares each step's fixed cost.
SPATIAL_ROWS = 8


def _layout(cfg: ModelConfig, record: bool = True):
    """The one place where the layers of a variant are put together, for a
    pass with a tape (`record`) or without: (branches, head). `branches`
    holds a `Branch` for each branch in use, in input order; `head` is the
    stage list over their concatenated features, led by the attention fusion
    when the variant uses it. This is where the pass's tape decision is
    taken: without a tape the BiLSTM keeps no cache and the spatial branch
    runs in blocks of `SPATIAL_ROWS`; with one every branch runs whole."""
    branches = []
    if cfg.uses_temporal:
        branches.append(Branch("segment", cfg.d_t, _temporal_stages(cfg, record), None))
    if cfg.uses_spatial:
        branches.append(Branch("image", cfg.d_s, _spatial_stages(cfg), None if record else SPATIAL_ROWS))
    return branches, ([_fusion_stage(cfg)] if cfg.uses_attention else []) + _head_stages(cfg)


def _stages(cfg: ModelConfig) -> List[Stage]:
    """Every stage of the variant, branches first, in `_layout` order."""
    branches, head = _layout(cfg)
    return [stage for branch in branches for stage in branch.stages] + head


def param_shapes(cfg: ModelConfig) -> Dict[str, Tuple[int, ...]]:
    """Name -> shape of every parameter of the variant, in `_layout` order:
    the order of the draws, of `ModelParams.values` and of the model file's
    tensors. Read from the stages, with no draw."""
    return {name: shape for stage in _stages(cfg) for name, shape, _init in stage.params}


def _initial_value(rng: np.random.Generator, shape, init) -> np.ndarray:
    """A stage row's starting tensor; a fan-in may be a numpy integer too."""
    if isinstance(init, (int, np.integer)):
        return ops.uniform_init(rng, shape, init)
    return np.broadcast_to(init, shape)


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Seed-deterministic initialization from the stages' rows: weights
    uniform(+-sqrt(1/fan_in)), biases zero (LSTM forget gate 1.0), layer-norm
    gain 1 / bias 0. Draws follow `_layout` order, which is also the tensor
    order of the model file."""
    drawn = [np.ravel(_initial_value(rng, shape, init)) for stage in _stages(cfg) for _name, shape, init in stage.params]
    return ModelParams(param_shapes(cfg), np.concatenate(drawn))


def _run(stages: List[Stage], x, params: ModelParams, tape: Optional[list]):
    """Run stages forward as `forward(x, *values)`, recording (backward,
    cache, names) of each on `tape`. Without a tape (None) a stage's cache is
    freed once the next stage has run. Each stage gets its weights cast to
    the dtype of its input."""
    x = ops.as_float(x)
    for stage in stages:
        weights = [params[name].value.astype(x.dtype, copy=False) for name in stage.names]
        x, cache = stage.forward(x, *weights)
        if tape is not None:
            tape.append((stage.backward, cache, stage.names))
    return x


def _run_blocks(branch: Branch, x, params: ModelParams, tape: Optional[list]):
    """A branch run over the `ops.row_blocks` of its `rows` (all rows at once
    if None, as in every pass with a tape, so the tape holds each stage
    once), the blocks' features concatenated."""
    blocks = ops.row_blocks(len(x), branch.rows or max(len(x), 1))
    return np.concatenate([_run(branch.stages, x[start:end], params, tape) for start, end in blocks])


def _replay(tape: list, g, params: ModelParams, input_grad: bool = True):
    """Replay a tape in reverse, consuming it: each stage's entry is popped
    before its backward runs, so its cache is freed as soon as that backward
    returns, and the tape is empty afterwards. Accumulates parameter
    gradients and returns the input gradient. Without `input_grad` the replay
    ends at the tape's first stage that owns parameters, which is called with
    `input_grad=False` (it computes its parameter gradients only), and the
    result is None."""
    stop = 0 if input_grad else next(i for i, (_fn, _cache, names) in enumerate(tape) if names)
    del tape[:stop]  # stages before `stop` never run backward
    while tape:
        backward_fn, cache, names = tape.pop()
        g, *grads = backward_fn(g, cache) if tape or input_grad else backward_fn(g, cache, input_grad=False)
        for name, grad in zip(names, grads):
            params[name].grad[...] += grad  # float64 master gradients, whatever the compute dtype
    return g


def _rows(segs, imgs, cfg: ModelConfig) -> int:
    """The row count shared by the inputs the variant reads. Images narrower
    than `cfg.min_input_len` are a data error, not a shape error inside the
    convolutions."""
    rows = set()
    for kind, x, used in (("segment", segs, cfg.uses_temporal), ("image", imgs, cfg.uses_spatial)):
        if used:
            if x is None:
                raise ValueError(f"variant requires {kind} input")
            rows.add(len(x))
    if len(rows) > 1:
        raise ShapeMismatchError(f"segments and images differ in row count: {len(segs)} vs {len(imgs)}")
    if cfg.uses_spatial and np.shape(imgs)[-1] < cfg.min_input_len:
        raise DataFormatError(f"windows of {np.shape(imgs)[-1]} samples are too short for the model: "
                              f"its 2D convolutions need at least {cfg.min_input_len}")
    return rows.pop()


@dataclass
class ForwardTrace:
    probs: np.ndarray  # (B, C)
    logits: np.ndarray
    # one per branch in use, then the head's; None if not recorded, or once
    # `backward` has consumed them
    tapes: Optional[List[list]]


def forward(segs, imgs, params: ModelParams, cfg: ModelConfig, record: bool = True) -> ForwardTrace:
    """Run the variant's full pipeline on a batch.

    segs: (B, w) raw segments; imgs: (B, w, w) GAF images. An input the
    variant does not read may be None. `_layout` builds the stages for the
    pass. With `record=False` no tape is kept (`tapes` is None, and
    `backward` rejects the trace): each stage's intermediates are freed as
    the forward goes, the spatial branch runs in blocks of `SPATIAL_ROWS`,
    and the logits and probabilities are the same bytes.
    """
    _rows(segs, imgs, cfg)
    branches, head = _layout(cfg, record)
    inputs = {"segment": segs, "image": imgs}
    tapes = [[] if record else None for _ in range(len(branches) + 1)]
    feats = [_run_blocks(branch, inputs[branch.input], params, tape) for branch, tape in zip(branches, tapes)]
    logits = _run(head, np.concatenate(feats, axis=-1), params, tapes[-1])
    # float64 probabilities: the loss takes log(p + 1e-12), which float32 cannot resolve near 1
    probs, _ = ops.softmax_forward(logits.astype(np.float64, copy=False), axis=-1)
    return ForwardTrace(probs=probs, logits=logits, tapes=tapes if record else None)


def backward(trace: ForwardTrace, grad_logits, params: ModelParams, cfg: ModelConfig, input_grads: bool = True):
    """Accumulate dLoss/dtheta into `params.grads` given dLoss/dlogits.

    Returns (grad_segments, grad_images); entries are None for branches the
    variant does not use. With `input_grads=False` both are None and each
    branch's backward stops at its first layer with parameters, which skips
    that layer's input gradient; the parameter gradients are the same bytes.

    Consumes the trace: its tapes are taken off it (`trace.tapes` becomes
    None, so a second backward raises `ValueError`), and each stage's cache
    is freed as soon as its backward has run, so a training step holds at
    most one tape, shrinking as the backward goes.
    """
    tapes, trace.tapes = trace.tapes, None
    if tapes is None:
        raise ValueError("backward needs a trace recorded by forward(..., record=True), not yet consumed by a backward")
    branches, _head = _layout(cfg)
    gz = _replay(tapes.pop(), np.asarray(grad_logits, dtype=trace.logits.dtype), params)
    gfeats = np.split(gz, np.cumsum([branch.width for branch in branches])[:-1], axis=-1)
    grads = {branch.input: _replay(tape, g, params, input_grads) for branch, tape, g in zip(branches, tapes, gfeats)}
    return grads.get("segment"), grads.get("image")


def backward_cross_entropy(trace: ForwardTrace, labels_onehot, params: ModelParams, cfg: ModelConfig,
                           input_grads: bool = True):
    """Backprop the batch-mean cross-entropy loss; d/dlogits = (p - y) / B."""
    y = np.asarray(labels_onehot, dtype=np.float64)
    return backward(trace, (trace.probs - y) * (1.0 / y.shape[0]), params, cfg, input_grads=input_grads)


# Rows per `forward` call in `predict_probs`: a chunk starts every
# PREDICT_ROWS rows and the last one takes the remainder, so a chunk holds
# 32 to 63 rows. A chunk keeps no tape, so it holds the arrays of the stage
# running and of the one before it, not of every stage, and the BiLSTM keeps
# one 16-step block of gates and two steps' cell state, not every step's.
# The temporal branch runs over the whole chunk and the spatial branch in
# `SPATIAL_ROWS` blocks. The bound keeps a chunk's numpy peak small enough
# that after the first chunk of a process the 32-row chunks barely page-fault;
# chunks from every 64 rows predicted no faster and faulted on every chunk.
PREDICT_ROWS = 32


def gather(segs, imgs, rows):
    """The inputs' `rows` (a slice or an index array) cast to `COMPUTE_DTYPE`,
    as a training step and a prediction chunk feed them to `forward`; an
    absent input stays None. A slice of an input already in that dtype is a
    view, not a copy."""
    return tuple(None if x is None else np.asarray(x[rows], dtype=COMPUTE_DTYPE) for x in (segs, imgs))


def predict_probs(params: ModelParams, cfg: ModelConfig, segs, imgs, rows=None) -> np.ndarray:
    """Inference over every row of the inputs, or over the index array `rows`
    of them in its order, one `forward` call per chunk, each chunk taken by
    `gather` and run with `record=False`. A chunk starts every
    `PREDICT_ROWS` rows and the last one takes the remainder
    (`ops.row_blocks`), so no row is predicted alone unless there is only
    one, and the probabilities are the bytes of one `forward` over all the
    rows. The call goes through the module attribute `forward`, so a wrapper
    installed there sees every chunk."""
    n = _rows(segs, imgs, cfg)
    if rows is not None:
        n = len(rows)
    if n == 0:
        return np.empty((0, cfg.num_classes))
    out = []
    for start, end in ops.row_blocks(n, PREDICT_ROWS):
        chunk = slice(start, end)
        # no tape: nothing runs backward, so each stage's arrays are freed as the forward goes on
        out.append(forward(*gather(segs, imgs, chunk if rows is None else rows[chunk]), params, cfg, record=False).probs)
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


def write_atomically(path, data: bytes) -> None:
    """Write `data` to `path` atomically: into `<path>.tmp` beside it, then
    renamed over `path`, so a failed write leaves any previous file intact
    and no `.tmp` behind. Every file of a run directory is written this way."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_model(path, cfg: ModelConfig, input_len: int, params: ModelParams,
               class_names: Optional[Sequence[str]] = None) -> None:
    """Write the model file with `write_atomically`. `class_names` defaults
    to the class ids "0".."C-1"."""
    names = [str(c) for c in (range(cfg.num_classes) if class_names is None else class_names)]
    if len(names) != cfg.num_classes:
        raise ValueError(f"{len(names)} class names for {cfg.num_classes} classes")
    header = {
        "model": asdict(cfg),
        **StoredInputs(input_len, names)._asdict(),
        "tensors": [[name, shape] for name, shape in params.shapes.items()],
    }
    # `default=int` writes numpy integers (allowed in the layer tuples) as plain ints
    blob = json.dumps(header, sort_keys=True, default=int).encode("utf-8")
    write_atomically(path, _PREFIX.pack(MODEL_MAGIC, MODEL_VERSION, len(blob)) + blob
                     + params.values.astype("<f8").tobytes())


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
        if type(stored.input_len) is not int or stored.input_len < 1:  # JSON true is a bool, not an int
            raise ValueError("input_len must be a positive integer")
        names = stored.class_names
        if not isinstance(names, list) or len(names) != cfg.num_classes or not all(isinstance(n, str) for n in names):
            raise ValueError(f"class_names must be a list of {cfg.num_classes} strings")
        shapes = param_shapes(cfg)
        if header["tensors"] != [[name, list(shape)] for name, shape in shapes.items()]:
            raise ValueError("tensor table does not match the model config")
    except (ValueError, TypeError, KeyError) as e:  # json.JSONDecodeError is a ValueError
        raise DataFormatError(f"bad model header: {e}") from e
    expected = 8 * sum(math.prod(shape) for shape in shapes.values())  # float64
    if len(data) - start != expected:
        raise DataFormatError(f"model payload is {len(data) - start} bytes, expected {expected}")
    return cfg, stored, ModelParams(shapes, np.frombuffer(data, dtype="<f8", offset=start))

"""Dual-branch network: 1D CNN + BiLSTM over the raw segment, 2D CNN over its
GAF image, dual-layer cross-channel split attention fusion, MLP head, softmax
classifier.

Each branch and the head is one ordered list of stages (`Stage`: a forward
op, its hand-written backward op and the parameter names it owns), and
`_layout` picks the lists a variant uses. `init_params` walks the lists to
draw the parameters; `forward` runs them and records each stage's backward
and cache on a tape; `backward` replays the tapes in reverse.
"""

import os
import struct
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import ops
from .errors import DataFormatError, ShapeMismatchError
from .ops import ParamTensor

VARIANTS = ("full", "no_dual_attention", "no_cross_channel", "time_only", "gaf_only")

MODEL_MAGIC = b"GAFN"
MODEL_VERSION = 1


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
        return self.variant != "gaf_only"

    @property
    def uses_spatial(self) -> bool:
        return self.variant != "time_only"

    @property
    def uses_attention(self) -> bool:
        return self.variant in ("full", "no_cross_channel")

    @property
    def uses_cross(self) -> bool:
        return self.variant == "full"


class ModelParams:
    """All learnable tensors, addressed by name in a fixed order."""

    def __init__(self, cfg: ModelConfig, tensors: Dict[str, ParamTensor]):
        self.cfg = cfg
        self.tensors = tensors

    def __getitem__(self, name: str) -> ParamTensor:
        return self.tensors[name]

    def items(self):
        return list(self.tensors.items())

    def zero_grad(self):
        for p in self.tensors.values():
            p.zero_grad()

    def add_grad(self, name: str, g):
        self.tensors[name].grad += g

    def copy(self) -> "ModelParams":
        return ModelParams(self.cfg, {k: ParamTensor(p.value.copy()) for k, p in self.items()})


# ---------------------------------------------------------------------------
# feature vector tokenization


def channel_split(f: np.ndarray, groups: int) -> np.ndarray:
    """Reshape a feature vector (..., d) into (..., g, d/g) tokens, order preserved."""
    f = np.asarray(f, dtype=np.float64)
    d = f.shape[-1]
    if d % groups:
        raise ShapeMismatchError(f"groups {groups} does not divide feature dim {d}")
    return f.reshape(*f.shape[:-1], groups, d // groups)


# ---------------------------------------------------------------------------
# scaled dot-product attention over tokens


def _attention_forward(tq, tkv, wq, wk, wv):
    """softmax(Q K^T / sqrt(d_attn)) V for token matrices (B, g, c)."""
    q = tq @ wq
    k = tkv @ wk
    v = tkv @ wv
    scale = 1.0 / np.sqrt(wq.shape[1])
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
# input gradient and then one gradient per name, and `init(rng)` draws the
# values of `names` in order. The lists are built per call, so every `ops.*`
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
_CHANNEL = Stage(lambda x: (np.asarray(x)[:, None], None), lambda g, _cache: (g[:, 0],))


def _bilstm_stage(din, hidden):
    """BiLSTM over channels-first (B, din, T) -> (B, 2h, T). The output is a
    swapped view, so the pool after it sums over time in the LSTM's own
    (B, T, 2h) order; a contiguous copy would be summed pairwise."""

    def forward(x, *values):
        cells = ops.LstmCellParams(*values[:3]), ops.LstmCellParams(*values[3:])
        h, cache = ops.bilstm_forward(np.ascontiguousarray(np.swapaxes(x, 1, 2)), *cells)
        return np.swapaxes(h, 1, 2), cache

    def backward(g, cache):
        gx, grads_f, grads_b = ops.bilstm_backward(np.swapaxes(g, 1, 2), cache)
        return (np.ascontiguousarray(np.swapaxes(gx, 1, 2)), *grads_f, *grads_b)

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


def _attention_paths(cfg: ModelConfig):
    """(query modality, key/value modality, output projection) of every
    attention path: self-attention within each modality, then, when the
    variant uses it, cross-attention from each modality to the other."""
    paths = [("t", "t", "attn.t.wo_intra"), ("s", "s", "attn.s.wo_intra")]
    if cfg.uses_cross:
        paths += [("t", "s", "attn.t.wo_cross"), ("s", "t", "attn.s.wo_cross")]
    return paths


def _fuse_forward(f_t, f_s, params, cfg):
    bsz = f_t.shape[0]
    tokens = {"t": channel_split(f_t, cfg.groups), "s": channel_split(f_s, cfg.groups)}
    pre = {"t": f_t, "s": f_s}
    paths = []
    for q, kv, wo in _attention_paths(cfg):
        w = (params[f"attn.{q}.wq"].value, params[f"attn.{kv}.wk"].value, params[f"attn.{kv}.wv"].value)
        out, att_cache = _attention_forward(tokens[q], tokens[kv], *w)
        pre[q] = pre[q] + out.reshape(bsz, -1) @ params[wo].value
        paths.append((q, kv, wo, out, att_cache))
    f_t2, ln_t_cache = ops.layer_norm_forward(pre["t"], params["ln.t.gain"].value, params["ln.t.bias"].value)
    f_s2, ln_s_cache = ops.layer_norm_forward(pre["s"], params["ln.s.gain"].value, params["ln.s.bias"].value)
    return f_t2, f_s2, (tokens, paths, {"t": ln_t_cache, "s": ln_s_cache})


def _fuse_backward(gf_t2, gf_s2, cache, params, cfg):
    tokens, paths, ln_caches = cache
    bsz = gf_t2.shape[0]
    gpre = {}
    for m, g in (("t", gf_t2), ("s", gf_s2)):
        gpre[m], ggain, gbias = ops.layer_norm_backward(g, ln_caches[m])
        params.add_grad(f"ln.{m}.gain", ggain)
        params.add_grad(f"ln.{m}.bias", gbias)
    g_tokens = {m: np.zeros_like(tk) for m, tk in tokens.items()}
    for q, kv, wo, out, att_cache in paths:
        params.add_grad(wo, out.reshape(bsz, -1).T @ gpre[q])
        g_out = (gpre[q] @ params[wo].value.T).reshape(out.shape)
        g_tq, g_tkv, gwq, gwk, gwv = _attention_backward(g_out, att_cache)
        g_tokens[q] += g_tq
        g_tokens[kv] += g_tkv
        params.add_grad(f"attn.{q}.wq", gwq)
        params.add_grad(f"attn.{kv}.wk", gwk)
        params.add_grad(f"attn.{kv}.wv", gwv)
    return gpre["t"] + g_tokens["t"].reshape(bsz, -1), gpre["s"] + g_tokens["s"].reshape(bsz, -1)


def dual_attention_fuse(f_t, f_s, params, cfg):
    """Unbatched convenience wrapper: (d_t,), (d_s,) -> (d_t,), (d_s,)."""
    f_t2, f_s2, _ = _fuse_forward(np.asarray(f_t)[None], np.asarray(f_s)[None], params, cfg)
    return f_t2[0], f_s2[0]


def _fusion_stage(cfg: ModelConfig) -> Stage:
    """The attention fusion's parameters. Its forward and backward are the
    two-input `_fuse_forward`/`_fuse_backward`, which `forward` and `backward`
    call between the branches and the head."""
    dims = {"t": cfg.d_t, "s": cfg.d_s}
    weights = [(f"attn.{m}.{p}", (dims[m] // cfg.groups, cfg.d_attn)) for m in "ts" for p in ("wq", "wk", "wv")]
    weights += [(wo, (cfg.groups * cfg.d_attn, dims[q])) for q, _kv, wo in _attention_paths(cfg)]
    names = [name for name, _ in weights] + [f"ln.{m}.{p}" for m in "ts" for p in ("gain", "bias")]

    def init(rng):  # every attention weight has fan-in shape[0]
        drawn = [ops.uniform_init(rng, shape, shape[0]) for _, shape in weights]
        return drawn + [make(dims[m]) for m in "ts" for make in (np.ones, np.zeros)]

    return Stage(_fuse_forward, _fuse_backward, tuple(names), init)


# ---------------------------------------------------------------------------
# full model


def _layout(cfg: ModelConfig):
    """The one place where a variant picks its layers: (branches, fusion, head).
    `branches` holds (input name, feature width, stage list) for each branch in
    use, in input order; `fusion` is None for plain concatenation."""
    branches = []
    if cfg.uses_temporal:
        branches.append(("segment", cfg.d_t, _temporal_stages(cfg)))
    if cfg.uses_spatial:
        branches.append(("image", cfg.d_s, _spatial_stages(cfg)))
    return branches, _fusion_stage(cfg) if cfg.uses_attention else None, _head_stages(cfg)


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Seed-deterministic initialization: weights uniform(+-sqrt(1/fan_in)),
    biases zero (LSTM forget gate 1.0), layer-norm gain 1 / bias 0. Draws
    follow `_layout` order, which is also the tensor order of the model file."""
    branches, fusion, head = _layout(cfg)
    stages = [stage for _kind, _width, branch in branches for stage in branch] + ([fusion] if fusion else []) + head
    t = {name: ParamTensor(value) for stage in stages for name, value in zip(stage.names, stage.init(rng))}
    return ModelParams(cfg, t)


def _run(stages: List[Stage], x, params: ModelParams, tape: list):
    """Run stages forward, recording (backward, cache, names) of each on `tape`."""
    for stage in stages:
        x, cache = stage.forward(x, *(params[name].value for name in stage.names))
        tape.append((stage.backward, cache, stage.names))
    return x


def _replay(tape: list, g, params: ModelParams):
    """Replay a tape in reverse: accumulate parameter gradients, return the input gradient."""
    for backward_fn, cache, names in reversed(tape):
        g, *grads = backward_fn(g, cache)
        for name, grad in zip(names, grads):
            params.add_grad(name, grad)
    return g


@dataclass
class ForwardTrace:
    probs: np.ndarray  # (B, C)
    logits: np.ndarray
    tapes: List[list]  # one per branch in use, then the head's
    fuse_cache: Optional[tuple]  # None without attention fusion


def forward(segs, imgs, params: ModelParams, cfg: ModelConfig) -> ForwardTrace:
    """Run the variant's full pipeline on a batch.

    segs: (B, w) raw segments (None for gaf_only); imgs: (B, w, w) GAF images
    (None for time_only).
    """
    branches, fusion, head = _layout(cfg)
    inputs = {"segment": segs, "image": imgs}
    tapes = [[] for _ in range(len(branches) + 1)]
    feats = []
    for (kind, _width, stages), tape in zip(branches, tapes):
        if inputs[kind] is None:
            raise ValueError(f"variant requires {kind} input")
        feats.append(_run(stages, inputs[kind], params, tape))
    fuse_cache = None
    if fusion is not None:
        *feats, fuse_cache = fusion.forward(*feats, params, cfg)
    logits = _run(head, np.concatenate(feats, axis=-1), params, tapes[-1])
    probs, _ = ops.softmax_forward(logits, axis=-1)
    return ForwardTrace(probs=probs, logits=logits, tapes=tapes, fuse_cache=fuse_cache)


def backward(trace: ForwardTrace, grad_logits, params: ModelParams, cfg: ModelConfig):
    """Accumulate dLoss/dtheta into every ParamTensor given dLoss/dlogits.

    Returns (grad_segments, grad_images); entries are None for branches the
    variant does not use.
    """
    branches, fusion, _head = _layout(cfg)
    gz = _replay(trace.tapes[-1], np.asarray(grad_logits, dtype=np.float64), params)
    gfeats = np.split(gz, np.cumsum([width for _kind, width, _stages in branches])[:-1], axis=-1)
    if fusion is not None:
        gfeats = fusion.backward(*gfeats, trace.fuse_cache, params, cfg)
    grads = {kind: _replay(tape, g, params) for (kind, _w, _s), tape, g in zip(branches, trace.tapes, gfeats)}
    return grads.get("segment"), grads.get("image")


def backward_cross_entropy(trace: ForwardTrace, labels_onehot, params: ModelParams, cfg: ModelConfig, scale: Optional[float] = None):
    """Backprop the batch-mean cross-entropy loss; d/dlogits = (p - y) / B."""
    y = np.asarray(labels_onehot, dtype=np.float64)
    if scale is None:
        scale = 1.0 / y.shape[0]
    return backward(trace, (trace.probs - y) * scale, params, cfg)


def predict_probs(params: ModelParams, cfg: ModelConfig, segs, imgs, batch_size: int = 256) -> np.ndarray:
    """Batched inference over a whole dataset."""
    n = len(segs) if segs is not None else len(imgs)
    out = []
    for start in range(0, n, batch_size):
        sl = slice(start, min(start + batch_size, n))
        trace = forward(
            segs[sl] if segs is not None else None,
            imgs[sl] if imgs is not None else None,
            params,
            cfg,
        )
        out.append(trace.probs)
    return np.concatenate(out, axis=0)


# ---------------------------------------------------------------------------
# serialization
#
# Layout (little-endian throughout):
#   magic "GAFN" | version u16 | input_len u32 | num_classes u32
#   lstm_hidden u32 | groups u32 | d_attn u32 | mlp_hidden u32 | variant u8
#   n_conv1 u8, then per layer: channels u32, kernel u32
#   n_conv2 u8, then per layer: channels u32, kernel u32, stride u32
#   then every ParamTensor in `init_params` order:
#     rank u8, dims u32 each, payload float64


def save_model(path, cfg: ModelConfig, input_len: int, params: ModelParams) -> None:
    """Write the model file atomically: into `<path>.tmp` beside it, then
    renamed over `path`, so a failed write leaves any previous file intact."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        _write_model(tmp, cfg, input_len, params)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_model(path, cfg: ModelConfig, input_len: int, params: ModelParams) -> None:
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<H", MODEL_VERSION))
        f.write(struct.pack("<IIIIII", input_len, cfg.num_classes, cfg.lstm_hidden,
                            cfg.groups, cfg.d_attn, cfg.mlp_hidden))
        f.write(struct.pack("<B", VARIANTS.index(cfg.variant)))
        f.write(struct.pack("<B", len(cfg.cnn1d_layers)))
        for ch, k in cfg.cnn1d_layers:
            f.write(struct.pack("<II", ch, k))
        f.write(struct.pack("<B", len(cfg.cnn2d_layers)))
        for ch, k, s in cfg.cnn2d_layers:
            f.write(struct.pack("<III", ch, k, s))
        for _name, p in params.items():
            arr = p.value
            f.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<I", d))
            f.write(arr.astype("<f8").tobytes())


def load_model(path) -> Tuple[ModelConfig, int, "ModelParams"]:
    with open(path, "rb") as f:
        data = f.read()
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(data):
            raise DataFormatError("truncated model file")
        chunk = data[off : off + n]
        off += n
        return chunk

    if take(4) != MODEL_MAGIC:
        raise DataFormatError("bad magic: not a model file")
    (version,) = struct.unpack("<H", take(2))
    if version != MODEL_VERSION:
        raise DataFormatError(f"unsupported model format version {version}")
    input_len, num_classes, lstm_hidden, groups, d_attn, mlp_hidden = struct.unpack("<IIIIII", take(24))
    (variant_idx,) = struct.unpack("<B", take(1))
    if variant_idx >= len(VARIANTS):
        raise DataFormatError("unknown variant code")
    (n1,) = struct.unpack("<B", take(1))
    cnn1d = tuple(struct.unpack("<II", take(8)) for _ in range(n1))
    (n2,) = struct.unpack("<B", take(1))
    cnn2d = tuple(struct.unpack("<III", take(12)) for _ in range(n2))
    cfg = ModelConfig(
        num_classes=num_classes,
        cnn1d_layers=cnn1d,
        lstm_hidden=lstm_hidden,
        cnn2d_layers=cnn2d,
        groups=groups,
        d_attn=d_attn,
        mlp_hidden=mlp_hidden,
        variant=VARIANTS[variant_idx],
    )
    params = init_params(cfg, ops.make_rng(0))
    for name, p in params.items():
        (rank,) = struct.unpack("<B", take(1))
        dims = tuple(struct.unpack("<I", take(4))[0] for _ in range(rank))
        if dims != p.value.shape:
            raise DataFormatError(f"shape mismatch for {name}: file {dims}, expected {p.value.shape}")
        payload = take(8 * int(np.prod(dims, dtype=np.int64)))
        p.value[...] = np.frombuffer(payload, dtype="<f8").reshape(dims)
    if off != len(data):
        raise DataFormatError("trailing bytes after model payload")
    return cfg, input_len, params

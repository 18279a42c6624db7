"""Differentiable array primitives with hand-written backward passes.

Every op comes as a pair: `<op>_forward(*arrays) -> (out, cache)` and
`<op>_backward(grad_out, cache) -> tuple of input grads` (aligned with the
forward's array arguments). `grad_check` validates any such pair against
central finite differences.

All arithmetic is float64. There is no autograd graph: `model` lists the
ops of each layer as stages, records every forward's backward op and cache
on a tape, and replays the tape in reverse.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.special import expit
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GafnetError, ShapeMismatchError

LAYER_NORM_EPS = 1e-5


def make_rng(seed: int) -> np.random.Generator:
    """Fixed, reproducible generator: PCG64 seeded directly."""
    return np.random.Generator(np.random.PCG64(seed))


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Uniform(-sqrt(1/fan_in), +sqrt(1/fan_in))."""
    bound = np.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class ParamTensor:
    """A learnable array paired with its accumulated gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad[...] = 0.0


# ---------------------------------------------------------------------------
# dense / pointwise ops


def matmul_forward(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError("matmul expects matrices (optionally stacked)")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"matmul inner dims disagree: {a.shape} x {b.shape}")
    return a @ b, (a, b)


def matmul_backward(gy, cache):
    a, b = cache
    ga = gy @ np.swapaxes(b, -1, -2)
    gb = np.swapaxes(a, -1, -2) @ gy
    # collapse broadcast batch dims back onto 2-D operands
    while ga.ndim > a.ndim:
        ga = ga.sum(axis=0)
    while gb.ndim > b.ndim:
        gb = gb.sum(axis=0)
    return ga, gb


def linear_forward(x, w, b):
    """y = x @ w + b for x of shape (..., din), w (din, dout), b (dout,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != w.shape[0]:
        raise ShapeMismatchError(f"linear: {x.shape} vs weight {w.shape}")
    return x @ w + b, (x, w)


def linear_backward(gy, cache):
    x, w = cache
    gx = gy @ w.T
    gw = x.reshape(-1, x.shape[-1]).T @ gy.reshape(-1, gy.shape[-1])
    gb = gy.reshape(-1, gy.shape[-1]).sum(axis=0)
    return gx, gw, gb


def relu_forward(x):
    x = np.asarray(x, dtype=np.float64)
    mask = x > 0
    return np.where(mask, x, 0.0), (mask,)


def relu_backward(gy, cache):
    (mask,) = cache
    return (np.where(mask, gy, 0.0),)


def softmax_forward(x, axis=-1):
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    return y, (y, axis)


def softmax_backward(gy, cache):
    y, axis = cache
    inner = (gy * y).sum(axis=axis, keepdims=True)
    return (y * (gy - inner),)


def layer_norm_forward(x, gain, bias):
    """Normalize over the last axis (eps 1e-5), then apply per-feature gain/bias."""
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    var = np.mean((x - mu) ** 2, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (x - mu) * inv_std
    return xhat * gain + bias, (xhat, inv_std, gain)


def layer_norm_backward(gy, cache):
    xhat, inv_std, gain = cache
    n = xhat.shape[-1]
    gxhat = gy * gain
    gx = (
        inv_std
        / n
        * (
            n * gxhat
            - gxhat.sum(axis=-1, keepdims=True)
            - xhat * (gxhat * xhat).sum(axis=-1, keepdims=True)
        )
    )
    lead = tuple(range(gy.ndim - 1))
    ggain = (gy * xhat).sum(axis=lead)
    gbias = gy.sum(axis=lead)
    return gx, ggain, gbias


def global_avg_pool_forward(x, n_spatial: Optional[int] = None):
    """Mean over the trailing `n_spatial` axes (default: all but the first)."""
    x = np.asarray(x, dtype=np.float64)
    if n_spatial is None:
        n_spatial = x.ndim - 1
    axes = tuple(range(x.ndim - n_spatial, x.ndim))
    return x.mean(axis=axes), (x.shape, axes)


def global_avg_pool_backward(gy, cache):
    shape, axes = cache
    count = int(np.prod([shape[a] for a in axes]))
    g = np.expand_dims(gy, axes)
    return (np.broadcast_to(g / count, shape).copy(),)


# ---------------------------------------------------------------------------
# convolutions


def _as_batched(x, want_ndim):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == want_ndim - 1:
        return x[None], False
    if x.ndim == want_ndim:
        return x, True
    raise ShapeMismatchError(f"expected {want_ndim - 1}- or {want_ndim}-D input, got {x.ndim}-D")


def conv1d_forward(x, kernels, bias):
    """'Same' zero-padded stride-1 cross-correlation.

    x: (cin, T) or (B, cin, T); kernels: (cout, cin, k) with k odd; bias: (cout,).
    """
    xb, batched = _as_batched(x, 3)
    w = np.asarray(kernels, dtype=np.float64)
    b = np.asarray(bias, dtype=np.float64)
    cout, cin, k = w.shape
    if k % 2 == 0:
        raise ValueError("conv1d kernel length must be odd")
    if xb.shape[1] != cin or b.shape != (cout,):
        raise ShapeMismatchError(f"conv1d: input {xb.shape}, kernels {w.shape}, bias {b.shape}")
    pad = (k - 1) // 2
    xp = np.pad(xb, ((0, 0), (0, 0), (pad, pad)))
    win = sliding_window_view(xp, k, axis=-1)  # (B, cin, T, k)
    y = np.einsum("bctk,ock->bot", win, w, optimize=True) + b[:, None]
    cache = (win, w, xb.shape, pad, batched)
    return (y if batched else y[0]), cache


def conv1d_backward(gy, cache):
    win, w, x_shape, pad, batched = cache
    gyb = gy if batched else gy[None]
    gw = np.einsum("bot,bctk->ock", gyb, win, optimize=True)
    gb = gyb.sum(axis=(0, 2))
    bsz, cin, t = x_shape
    k = w.shape[2]
    gxp = np.zeros((bsz, cin, t + 2 * pad))
    for dt in range(k):
        gxp[:, :, dt : dt + t] += np.einsum("bot,oc->bct", gyb, w[:, :, dt], optimize=True)
    gx = gxp[:, :, pad : pad + t] if pad else gxp
    return (gx if batched else gx[0]), gw, gb


def conv2d_forward(x, kernels, bias, stride=1):
    """2-D cross-correlation plus bias.

    'Same' zero padding for stride 1, 'valid' otherwise.
    x: (cin, H, W) or (B, cin, H, W); kernels: (cout, cin, k, k); bias: (cout,).
    """
    xb, batched = _as_batched(x, 4)
    w = np.asarray(kernels, dtype=np.float64)
    b = np.asarray(bias, dtype=np.float64)
    cout, cin, k, k2 = w.shape
    if k != k2:
        raise ValueError("conv2d kernels must be square")
    if xb.shape[1] != cin or b.shape != (cout,):
        raise ShapeMismatchError(f"conv2d: input {xb.shape}, kernels {w.shape}, bias {b.shape}")
    pad = (k - 1) // 2 if stride == 1 else 0
    xp = np.pad(xb, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    hp, wp = xp.shape[2], xp.shape[3]
    if hp < k or wp < k:
        raise ShapeMismatchError("conv2d input smaller than kernel")
    win = sliding_window_view(xp, (k, k), axis=(-2, -1))[:, :, ::stride, ::stride]
    y = np.einsum("bchwkl,ockl->bohw", win, w, optimize=True) + b[:, None, None]
    cache = (win, w, xb.shape, pad, stride, batched)
    return (y if batched else y[0]), cache


def conv2d_backward(gy, cache):
    win, w, x_shape, pad, stride, cache_batched = cache
    gyb = gy if cache_batched else gy[None]
    gw = np.einsum("bohw,bchwkl->ockl", gyb, win, optimize=True)
    gb = gyb.sum(axis=(0, 2, 3))
    bsz, cin, h, wd = x_shape
    k = w.shape[2]
    ho, wo = gyb.shape[2], gyb.shape[3]
    gxp = np.zeros((bsz, cin, h + 2 * pad, wd + 2 * pad))
    for dy in range(k):
        for dx in range(k):
            gxp[:, :, dy : dy + stride * ho : stride, dx : dx + stride * wo : stride] += np.einsum(
                "bohw,oc->bchw", gyb, w[:, :, dy, dx], optimize=True
            )
    gx = gxp[:, :, pad : pad + h, pad : pad + wd] if pad else gxp
    return (gx if cache_batched else gx[0]), gw, gb


# ---------------------------------------------------------------------------
# LSTM

FORGET_BIAS_INIT = 1.0


@dataclass
class LstmCellParams:
    """One LSTM cell: stacked gate weights in (input, forget, candidate, output) order."""

    w_x: np.ndarray  # (4h, din)
    w_h: np.ndarray  # (4h, h)
    b: np.ndarray  # (4h,)


def init_lstm_cell(rng: np.random.Generator, din: int, hidden: int) -> LstmCellParams:
    b = np.zeros(4 * hidden)
    b[hidden : 2 * hidden] = FORGET_BIAS_INIT
    return LstmCellParams(
        w_x=uniform_init(rng, (4 * hidden, din), din),
        w_h=uniform_init(rng, (4 * hidden, hidden), hidden),
        b=b,
    )


def lstm_forward(x, w_x, w_h, b, reverse=False):
    """Unidirectional LSTM from zero initial state.

    x: (B, T, din) -> h sequence (B, T, h). With reverse=True the recurrence
    runs from the last timestep to the first; outputs stay time-aligned.
    """
    x = np.asarray(x, dtype=np.float64)
    bsz, t_len, din = x.shape
    h4 = b.shape[0]
    h = h4 // 4
    if w_x.shape != (h4, din) or w_h.shape != (h4, h):
        raise ShapeMismatchError(f"lstm: x {x.shape}, w_x {w_x.shape}, w_h {w_h.shape}")
    times = range(t_len - 1, -1, -1) if reverse else range(t_len)
    gates = np.zeros((bsz, t_len, 4 * h))  # post-activation i, f, g, o
    cs = np.zeros((bsz, t_len, h))
    hs = np.zeros((bsz, t_len, h))
    h_prev = np.zeros((bsz, h))
    c_prev = np.zeros((bsz, h))
    for t in times:
        z = x[:, t] @ w_x.T + h_prev @ w_h.T + b
        i = expit(z[:, :h])
        f = expit(z[:, h : 2 * h])
        g = np.tanh(z[:, 2 * h : 3 * h])
        o = expit(z[:, 3 * h :])
        c = f * c_prev + i * g
        h_t = o * np.tanh(c)
        gates[:, t, :h] = i
        gates[:, t, h : 2 * h] = f
        gates[:, t, 2 * h : 3 * h] = g
        gates[:, t, 3 * h :] = o
        cs[:, t] = c
        hs[:, t] = h_t
        h_prev, c_prev = h_t, c
    cache = (x, w_x, w_h, gates, cs, hs, reverse)
    return hs, cache


def lstm_backward(gh, cache):
    x, w_x, w_h, gates, cs, hs, reverse = cache
    bsz, t_len, din = x.shape
    h = cs.shape[2]
    times = list(range(t_len - 1, -1, -1) if reverse else range(t_len))
    gx = np.zeros_like(x)
    gw_x = np.zeros_like(w_x)
    gw_h = np.zeros_like(w_h)
    gb = np.zeros(4 * h)
    dh_next = np.zeros((bsz, h))
    dc_next = np.zeros((bsz, h))
    for s in range(len(times) - 1, -1, -1):
        t = times[s]
        if s == 0:
            c_prev = np.zeros((bsz, h))
            h_prev = np.zeros((bsz, h))
        else:
            c_prev = cs[:, times[s - 1]]
            h_prev = hs[:, times[s - 1]]
        i = gates[:, t, :h]
        f = gates[:, t, h : 2 * h]
        g = gates[:, t, 2 * h : 3 * h]
        o = gates[:, t, 3 * h :]
        tc = np.tanh(cs[:, t])
        dh = gh[:, t] + dh_next
        do = dh * tc
        dc = dc_next + dh * o * (1.0 - tc**2)
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dc_next = dc * f
        dz = np.concatenate(
            [di * i * (1 - i), df * f * (1 - f), dg * (1 - g**2), do * o * (1 - o)], axis=1
        )
        gw_x += dz.T @ x[:, t]
        gw_h += dz.T @ h_prev
        gb += dz.sum(axis=0)
        gx[:, t] = dz @ w_x
        dh_next = dz @ w_h
    return gx, gw_x, gw_h, gb


def bilstm_forward(x, fwd: LstmCellParams, bwd: LstmCellParams):
    """Forward and backward LSTM over the sequence, concatenated per timestep.

    x: (B, T, din) -> (B, T, 2h).
    """
    hf, cache_f = lstm_forward(x, fwd.w_x, fwd.w_h, fwd.b, reverse=False)
    hb, cache_b = lstm_forward(x, bwd.w_x, bwd.w_h, bwd.b, reverse=True)
    h = np.concatenate([hf, hb], axis=-1)
    return h, (cache_f, cache_b, hf.shape[-1])


def bilstm_backward(gh, cache):
    """Returns (gx, (gw_x_f, gw_h_f, gb_f), (gw_x_b, gw_h_b, gb_b))."""
    cache_f, cache_b, h = cache
    gx_f, gw_x_f, gw_h_f, gb_f = lstm_backward(gh[..., :h], cache_f)
    gx_b, gw_x_b, gw_h_b, gb_b = lstm_backward(gh[..., h:], cache_b)
    return gx_f + gx_b, (gw_x_f, gw_h_f, gb_f), (gw_x_b, gw_h_b, gb_b)


# ---------------------------------------------------------------------------
# finite-difference verification


def grad_check(forward, backward, inputs, eps: float = 1e-5, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    `forward(*inputs) -> (out, cache)`; `backward(grad_out, cache)` returns one
    gradient per input (None marks a non-differentiable argument). The scalar
    probe is sum(out * R) for a fixed random R. Relative error per entry is
    |a - n| / max(1, |a|, |n|).
    """
    inputs = [np.array(a, dtype=np.float64) for a in inputs]
    out, cache = forward(*inputs)
    r = make_rng(seed).standard_normal(np.shape(out))
    grads = backward(r, cache)
    if len(grads) != len(inputs):
        raise ValueError("backward must return one gradient per forward input")

    def scalar():
        o, _ = forward(*inputs)
        return float(np.sum(o * r))

    max_err = 0.0
    for a, g in zip(inputs, grads):
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise GafnetError("non-finite analytic gradient")
        if np.shape(g) != a.shape:
            raise ShapeMismatchError("gradient shape does not match input shape")
        for j in range(a.size):
            orig = a.flat[j]
            a.flat[j] = orig + eps
            fp = scalar()
            a.flat[j] = orig - eps
            fm = scalar()
            a.flat[j] = orig
            num = (fp - fm) / (2 * eps)
            ana = float(np.asarray(g).flat[j])
            err = abs(ana - num) / max(1.0, abs(ana), abs(num))
            max_err = max(max_err, err)
    return max_err

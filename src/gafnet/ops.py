"""Differentiable array primitives with hand-written backward passes.

Every op comes as a pair: `<op>_forward(*arrays) -> (out, cache)` and
`<op>_backward(grad_out, cache) -> tuple of input grads` (aligned with the
forward's array arguments). `grad_check` validates any such pair against
central finite differences.

Every op computes in the dtype of its input: float32 and float64 stay as
they are (`as_float`), anything else becomes float64, and every buffer an
op allocates takes that dtype. `model` casts its float64 weights to the
dtype it is fed, float32 in training and prediction; float64 input gives
the float64 reference, which `grad_check` runs. There is no autograd graph: `model` lists the ops of
each layer as stages, records every forward's backward op and cache on a
tape, and replays the tape in reverse.

conv1d and conv2d share one N-d cross-correlation. The BiLSTM's reverse
direction is the forward LSTM recurrence run over the flipped sequence; one
loop steps both directions together over time-major buffers stacked by
direction, (T, 2, B, ·), so each step works on contiguous slices.
`bilstm_forward` takes its weights stacked by direction too, forward
direction first (w_x (2, 4h, din), w_h (2, 4h, h), b (2, 4h)), and
`bilstm_backward` returns their gradients stacked the same way. The LSTM's
sigmoid gates are σ(z) = ½·tanh(½z) + ½, so one tanh pass activates all
four gates of a step.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GafnetError, ShapeMismatchError

LAYER_NORM_EPS = 1e-5


def as_float(x) -> np.ndarray:
    """`x` as an array of its own float32 or float64 dtype; any other dtype
    becomes float64."""
    x = np.asarray(x)
    return x if x.dtype in (np.float32, np.float64) else x.astype(np.float64)


def make_rng(seed: int) -> np.random.Generator:
    """Fixed, reproducible generator: PCG64 seeded directly."""
    return np.random.Generator(np.random.PCG64(seed))


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Uniform(-sqrt(1/fan_in), +sqrt(1/fan_in))."""
    bound = np.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# dense / pointwise ops


def linear_forward(x, w, b):
    """y = x @ w + b for x of shape (..., din), w (din, dout), b (dout,)."""
    x = as_float(x)
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
    x = as_float(x)
    y = np.maximum(x, 0.0)  # NaN passes through, its gradient is 0
    return y, (y,)


def relu_backward(gy, cache):
    """gy where the forward's output y > 0 (exactly where x > 0), else +0.0:
    the bits and memory layout of np.where(y > 0, gy, 0.0), by a bit-and of
    gy's integer view with an all-ones (y > 0) or all-zeros word per element.
    The layout matters: conv backward's bytes depend on its gy's."""
    (y,) = cache
    gy = as_float(gy)
    bits = np.dtype(f"i{gy.itemsize}")
    keep = np.negative(y > 0, dtype=bits)  # -1 is all ones
    return (np.bitwise_and(keep, gy.view(bits)).view(gy.dtype),)


def softmax_forward(x, axis=-1):
    x = as_float(x)
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
    x = as_float(x)
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


def global_avg_pool_forward(x, n_spatial: int):
    """Mean over the trailing `n_spatial` axes."""
    x = as_float(x)
    axes = tuple(range(x.ndim - n_spatial, x.ndim))
    return x.mean(axis=axes), (x.shape, axes)


def global_avg_pool_backward(gy, cache):
    shape, axes = cache
    count = int(np.prod([shape[a] for a in axes]))
    g = np.expand_dims(gy, axes)
    return (np.broadcast_to(g / count, shape).copy(),)


# ---------------------------------------------------------------------------
# convolutions


# einsum letters of the spatial and kernel axes, per number of spatial axes
_CONV_AXES = {1: ("t", "k"), 2: ("hw", "kl")}


def _channel_axis(w):
    """(einsum letter, index) of the input-channel axis. A single channel is
    indexed away: numpy >= 2.3's einsum would drop that size-1 axis of the
    strided window view in a slow extra pass before the same matmul."""
    return ("c", slice(None)) if w.shape[1] > 1 else ("", 0)


# Bytes of the contiguous window copy that the forward einsum makes per
# block of samples. Above glibc's 32 MB mmap threshold every call would map
# and page-fault its copy anew (the second conv2d layer's windows of w=140
# take 21.3 MB per 32 rows in float32, 42.6 MB in float64). On the float32
# path 8 MiB predicted no faster than 16 MiB.
WINDOW_BLOCK_BYTES = 16 * 2**20


def _window_product(spec, win, w):
    """`np.einsum(spec, win, w)` over blocks of samples whose window copy
    stays under `WINDOW_BLOCK_BYTES` (a block of 8 samples at least).

    Blocks start every `rows` samples, a multiple of 8, and the last block
    also takes the remainder, so its copy stays under twice a block's. Both
    rules keep the single einsum's bytes: other block sizes, or a separate
    short tail block, round the last sample of a block differently. The
    output keeps the single einsum's strides."""
    bsz = win.shape[0]
    row_bytes = win[:1].size * win.itemsize  # 0 for an empty batch
    rows = max(8, WINDOW_BLOCK_BYTES // max(row_bytes, 1) // 8 * 8)
    if bsz < 2 * rows:
        return np.einsum(spec, win, w, optimize=True)
    ends = list(range(rows, bsz - rows + 1, rows)) + [bsz]
    first = np.einsum(spec, win[:rows], w, optimize=True)
    y = np.empty_like(first, shape=(bsz,) + first.shape[1:])
    y[:rows] = first
    for start, end in zip(ends, ends[1:]):
        y[start:end] = np.einsum(spec, win[start:end], w, optimize=True)
    return y


def _conv_forward(x, kernels, bias, stride, nd):
    """Cross-correlation over the trailing `nd` axes plus bias.

    'Same' zero padding for stride 1, 'valid' otherwise. x: (B, cin, *spatial);
    kernels: (cout, cin, k, ..., k); bias: (cout,).
    """
    xb = as_float(x)
    if xb.ndim != nd + 2:
        raise ShapeMismatchError(f"expected {nd + 2}-D (batch, channel, ...) input, got {xb.ndim}-D")
    w = as_float(kernels)
    b = as_float(bias)
    if w.ndim != nd + 2 or xb.shape[1] != w.shape[1] or b.shape != w.shape[:1]:
        raise ShapeMismatchError(f"conv{nd}d: input {xb.shape}, kernels {w.shape}, bias {b.shape}")
    k = w.shape[-1]
    pad = (k - 1) // 2 if stride == 1 else 0
    # without padding the window view (and the cache holding it) reads x itself
    xp = np.pad(xb, ((0, 0), (0, 0)) + ((pad, pad),) * nd) if pad else xb
    if min(xp.shape[2:]) < k:
        raise ShapeMismatchError(f"conv{nd}d input smaller than kernel")
    win = sliding_window_view(xp, (k,) * nd, axis=tuple(range(-nd, 0)))
    win = win[(slice(None), slice(None)) + (slice(None, None, stride),) * nd]
    s, kk = _CONV_AXES[nd]
    c, ci = _channel_axis(w)
    y = _window_product(f"b{c}{s}{kk},o{c}{kk}->bo{s}", win[:, ci], w[:, ci])
    y += b.reshape((-1,) + (1,) * nd)
    return y, (win, w, xb.shape, pad, stride)


def _conv_backward(gy, cache, input_grad=True):
    """(gx, gw, gb) of `_conv_forward`; gx is None without `input_grad`."""
    win, w, x_shape, pad, stride = cache
    s, kk = _CONV_AXES[w.ndim - 2]
    c, ci = _channel_axis(w)
    gw = np.einsum(f"bo{s},b{c}{s}{kk}->o{c}{kk}", gy, win[:, ci], optimize=True).reshape(w.shape)
    gb = gy.sum(axis=(0, *range(2, gy.ndim)))
    if not input_grad:
        return None, gw, gb
    bsz, cout, *spatial = gy.shape
    # One (cout, B*spatial) copy of gy serves every kernel tap. `w_tapᵀ @ gy_flat`
    # is the product numpy's einsum ran per tap, so gx keeps its bytes; the other
    # orientation, gy_flatᵀ @ w_tap, rounds differently at most batch sizes.
    gy_flat = np.ascontiguousarray(np.moveaxis(gy, 1, 0)).reshape(cout, -1)
    gxp = np.zeros((x_shape[1], bsz) + tuple(n + 2 * pad for n in x_shape[2:]), dtype=win.dtype)
    # scatter each kernel tap's contribution onto the (strided) input positions it read
    for tap in np.ndindex(*w.shape[2:]):
        at = tuple(slice(d, d + stride * n, stride) for d, n in zip(tap, spatial))
        gxp[(..., *at)] += (w[(..., *tap)].T @ gy_flat).reshape(gxp.shape[:2] + tuple(spatial))
    gxp = gxp[(..., *(slice(pad, pad + n) for n in x_shape[2:]))] if pad else gxp
    # C order: the next layer's bias gradient sums gy in that layout
    gx = np.ascontiguousarray(np.moveaxis(gxp, 0, 1))
    return gx, gw, gb


def conv1d_forward(x, kernels, bias):
    """'Same' zero-padded stride-1 cross-correlation.

    x: (B, cin, T); kernels: (cout, cin, k) with k odd; bias: (cout,).
    """
    if np.shape(kernels)[-1] % 2 == 0:
        raise ValueError("conv1d kernel length must be odd")
    return _conv_forward(x, kernels, bias, 1, nd=1)


def conv2d_forward(x, kernels, bias, stride=1):
    """2-D cross-correlation plus bias.

    'Same' zero padding for stride 1, 'valid' otherwise.
    x: (B, cin, H, W); kernels: (cout, cin, k, k); bias: (cout,).
    """
    if len(set(np.shape(kernels)[2:])) > 1:
        raise ValueError("conv2d kernels must be square")
    return _conv_forward(x, kernels, bias, stride, nd=2)


conv1d_backward = conv2d_backward = _conv_backward


# ---------------------------------------------------------------------------
# LSTM


def _lstm_forward(x, w_x, w_h, b):
    """Both LSTM directions stepped together from zero initial state.

    Time-major and direction-stacked: x (T, 2, B, din), each direction's
    sequence in its own time order; w_x (2, 4h, din), w_h (2, 4h, h) and
    b (2, 4h) in (input, forget, candidate, output) gate order. Returns the
    h sequence (T, 2, B, h). Every step's arrays are contiguous slices.
    """
    t_len, _, bsz, _ = x.shape
    h = w_h.shape[-1]
    # contiguous transposes: matmul over a swapped view takes a slower path
    w_ht = np.ascontiguousarray(np.swapaxes(w_h, 1, 2))
    # x_t @ W_xᵀ + b of every step up front: still one (B, din) x (din, 4h) gemm
    # per step and direction. Each step adds h_t @ W_hᵀ and turns its slice into
    # the gates in place.
    gates = np.matmul(x, np.ascontiguousarray(np.swapaxes(w_x, 1, 2)))
    gates += b[:, None]
    # One tanh pass activates all four gates: σ(z) = ½·tanh(½z) + ½ for i, f
    # and o, and tanh(z) itself (scale 1, shift 0) for the candidate g.
    scale = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype=gates.dtype), h)
    shift = np.repeat(np.array([0.5, 0.5, 0.0, 0.5], dtype=gates.dtype), h)
    # slot t + 1 holds the state after step t; slot 0 is the zero initial state
    cs = np.zeros((t_len + 1, 2, bsz, h), dtype=x.dtype)
    hs = np.zeros((t_len + 1, 2, bsz, h), dtype=x.dtype)
    tcs = np.empty((t_len, 2, bsz, h), dtype=x.dtype)  # tanh(c), kept for the backward pass
    for t in range(t_len):
        z = gates[t]
        z += np.matmul(hs[t], w_ht)
        z *= scale
        np.tanh(z, out=z)
        z *= scale
        z += shift
        i, f, g, o = z[..., :h], z[..., h : 2 * h], z[..., 2 * h : 3 * h], z[..., 3 * h :]
        c = np.multiply(f, cs[t], out=cs[t + 1])
        c += i * g
        np.multiply(o, np.tanh(c, out=tcs[t]), out=hs[t + 1])
    return hs[1:], (x, w_x, w_h, gates, cs, hs, tcs)


def _lstm_backward(gh, cache):
    """(gx, gw_x, gw_h, gb) of `_lstm_forward`, stacked as its arguments are."""
    x, w_x, w_h, gates, cs, hs, tcs = cache
    t_len, _, bsz, _ = x.shape
    h = w_h.shape[-1]
    gw_x, gw_h = np.zeros_like(w_x), np.zeros_like(w_h)
    gb = np.zeros(w_h.shape[:2], dtype=x.dtype)
    dzs = np.empty_like(gates)
    dh_next = np.zeros((2, bsz, h), dtype=x.dtype)
    dc_next = np.zeros((2, bsz, h), dtype=x.dtype)
    for t in range(t_len - 1, -1, -1):
        z, tc, dz = gates[t], tcs[t], dzs[t]
        i, f, g, o = z[..., :h], z[..., h : 2 * h], z[..., 2 * h : 3 * h], z[..., 3 * h :]
        dh = gh[t] + dh_next
        do = dh * tc
        dc = dc_next + dh * o * (1.0 - tc**2)
        di = dc * g
        dg = dc * i
        df = dc * cs[t]
        dc_next = dc * f
        np.multiply(di * i, 1 - i, out=dz[..., :h])
        np.multiply(df * f, 1 - f, out=dz[..., h : 2 * h])
        np.multiply(dg, 1 - g**2, out=dz[..., 2 * h : 3 * h])
        np.multiply(do * o, 1 - o, out=dz[..., 3 * h :])
        # per-step accumulation: one gemm over all T·B rows would round differently
        dzt = np.swapaxes(dz, 1, 2)
        gw_x += np.matmul(dzt, x[t])
        gw_h += np.matmul(dzt, hs[t])
        gb += dz.sum(axis=1)
        dh_next = np.matmul(dz, w_h)
    return np.matmul(dzs, w_x), gw_x, gw_h, gb


def bilstm_forward(x, w_x, w_h, b):
    """Forward and backward LSTM over the sequence, concatenated per timestep.

    The backward direction is the same recurrence run over the time-reversed
    sequence, its outputs flipped back into time order; both directions step
    together in `_lstm_forward`. x: (B, T, din) -> (B, T, 2h), C order. The
    weights are stacked by direction (forward, then backward) in
    (input, forget, candidate, output) gate order: w_x (2, 4h, din),
    w_h (2, 4h, h), b (2, 4h).
    """
    x = as_float(x)
    bsz, t_len, din = x.shape
    h = w_h.shape[-1]
    if w_x.shape != (2, 4 * h, din) or w_h.shape != (2, 4 * h, h) or b.shape != (2, 4 * h):
        raise ShapeMismatchError(f"lstm: x {x.shape}, w_x {w_x.shape}, w_h {w_h.shape}, b {b.shape}")
    xs = np.empty((t_len, 2, bsz, din), dtype=x.dtype)
    xs[:, 0] = np.swapaxes(x, 0, 1)
    xs[:, 1] = np.swapaxes(x[:, ::-1], 0, 1)
    hs, cache = _lstm_forward(xs, w_x, w_h, b)
    out = np.empty((bsz, t_len, 2 * h), dtype=hs.dtype)
    out[..., :h] = np.swapaxes(hs[:, 0], 0, 1)
    out[..., h:] = np.swapaxes(hs[::-1, 1], 0, 1)
    return out, cache


def bilstm_backward(gh, cache):
    """Returns (gx, gw_x, gw_h, gb), the weight gradients stacked by direction
    as `bilstm_forward` takes the weights; gx in C order."""
    xs, _w_x, w_h, *_ = cache
    t_len, _, bsz, din = xs.shape
    h = w_h.shape[-1]
    ghs = np.empty((t_len, 2, bsz, h), dtype=xs.dtype)
    ghs[:, 0] = np.swapaxes(gh[..., :h], 0, 1)
    ghs[:, 1] = np.swapaxes(gh[:, ::-1, h:], 0, 1)
    gxs, gw_x, gw_h, gb = _lstm_backward(ghs, cache)
    gx = np.empty((bsz, t_len, din), dtype=gxs.dtype)
    np.add(np.swapaxes(gxs[:, 0], 0, 1), np.swapaxes(gxs[::-1, 1], 0, 1), out=gx)
    return gx, gw_x, gw_h, gb


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

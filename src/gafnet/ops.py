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

conv1d and conv2d share one N-d cross-correlation: its forward copies the
input's windows into a channel-first column buffer (cin·kⁿ, B·spatial) and
runs one GEMM with the kernels as a (cout, cin·kⁿ) matrix. Its input
gradient adds each kernel tap's GEMM product into the stride-parity plane
of the input positions that tap read, with unit-stride adds, and writes the
planes once into the C-order gradient. The BiLSTM's
reverse direction is the forward LSTM recurrence run over the flipped
sequence; one loop steps both directions together over time-major buffers
stacked by direction, (T, 2, B, ·), so each step works on contiguous slices.
`bilstm_forward` takes its weights stacked by direction too, forward
direction first (w_x (2, 4h, din), w_h (2, 4h, h), b (2, 4h)), and
`bilstm_backward` returns their gradients stacked the same way. The LSTM's
sigmoid gates are σ(z) = ½·tanh(½z) + ½, so one tanh pass activates all
four gates of a step; the inner ½ is folded into the weights. The input
projection runs in blocks of `LSTM_BLOCK_STEPS` steps. With
`record=False`, for prediction, the BiLSTM keeps no cache: its gates, c
and tanh(c) go into ring buffers of one block, two steps and one step,
chosen once before the one loop body both passes run, so the h sequence
has the same bytes. The BiLSTM backward forms the factors of
its gate gradients that do not depend on the recurrence once per block of
steps, and keeps those and the block's gate gradients within
`LSTM_FACTOR_BYTES`; a step makes 20 numpy calls. Both backward passes
give the bytes of their per-tap and per-gate forms.
"""

import math

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


# Bytes of the column buffer the forward copies the windows into per block
# of samples. Above glibc's 32 MB mmap threshold every call would map and
# page-fault its copy anew (the second conv2d layer's columns of w=140 take
# 21.3 MB per 32 rows in float32, 42.6 MB in float64).
WINDOW_BLOCK_BYTES = 16 * 2**20


def row_blocks(n, rows):
    """(start, end) of blocks over `n` rows: a block starts every `rows`
    rows and the last one also takes the remainder, so no block is a short
    tail (a lone row would be multiplied as a matrix-vector product, which
    rounds differently), and no block holds twice `rows` or more."""
    if n < 2 * rows:
        return [(0, n)]
    starts = list(range(0, n - rows + 1, rows))
    return list(zip(starts, starts[1:] + [n]))


def _window_product(win, w):
    """Cross-correlation of the window view win (B, cin, *spatial, k, ..., k)
    with w (cout, cin, k, ..., k) as one GEMM: W (cout, cin·kⁿ) @ columns
    (cin·kⁿ, B·spatial), returned as a (B, cout, *spatial) view of the
    (cout, B, *spatial) product. That is the product and the layout of the
    window einsum `bc…,oc…->bo…`, so the bytes are the einsum's.

    The windows are copied into the columns one `row_blocks` block of
    samples at a time, 8 samples or the largest multiple of 8 whose copy
    stays under `WINDOW_BLOCK_BYTES`, and each block's GEMM fills its own
    columns of the product. Blocks that start at multiples of 8 samples kept
    the single GEMM's bytes in every case measured; single-sample blocks did
    not always (OpenBLAS 0.3.31, at 49 or 9 columns a sample)."""
    bsz, cin = win.shape[:2]
    nd = w.ndim - 2
    spatial, taps = win.shape[2 : 2 + nd], win.shape[2 + nd :]
    # (cin, k, ..., k, B, *spatial): the axis order of the columns
    order = (1, *range(2 + nd, 2 + 2 * nd), 0, *range(2, 2 + nd))
    y = np.empty((w.shape[0], bsz) + spatial, dtype=win.dtype)
    y_cols = y.reshape(w.shape[0], -1)
    w_rows = w.reshape(w.shape[0], -1)
    per_sample = math.prod(spatial)
    row_bytes = max(win[:1].size * win.itemsize, 1)  # 0 for an empty batch
    for start, end in row_blocks(bsz, max(8, WINDOW_BLOCK_BYTES // row_bytes // 8 * 8)):
        cols = np.empty((cin, *taps, end - start, *spatial), dtype=win.dtype)
        np.copyto(cols, win[start:end].transpose(order))
        np.matmul(w_rows, cols.reshape(w_rows.shape[1], -1), out=y_cols[:, start * per_sample : end * per_sample])
        del cols  # before the next block's columns are allocated
    return np.moveaxis(y, 0, 1)


def conv_padding(k, stride):
    """Zeros padded on each side of an axis: 'same' for stride 1, else 'valid'."""
    return (k - 1) // 2 if stride == 1 else 0


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
    pad = conv_padding(k, stride)
    # without padding the window view (and the cache holding it) reads x itself
    xp = np.pad(xb, ((0, 0), (0, 0)) + ((pad, pad),) * nd) if pad else xb
    if min(xp.shape[2:]) < k:
        raise ShapeMismatchError(f"conv{nd}d input smaller than kernel")
    win = sliding_window_view(xp, (k,) * nd, axis=tuple(range(-nd, 0)))
    win = win[(slice(None), slice(None)) + (slice(None, None, stride),) * nd]
    y = _window_product(win, w)
    y += b.reshape((-1,) + (1,) * nd)
    return y, (win, w, xb.shape, pad, stride)


def _conv_backward(gy, cache, input_grad=True):
    """(gx, gw, gb) of `_conv_forward`; gx is None without `input_grad`.

    gx sums one product per kernel tap, `w_tapᵀ @ gy` (cin, B·spatial), over
    the padded input positions that tap read: tap d of a stride-s conv reads
    positions d, d + s, d + 2s, … along each axis. Those all lie in one
    stride-parity plane, the positions ≡ d (mod s), at offsets d//s, d//s + 1,
    …, so each tap's product is added with unit-stride reads and writes into
    the plane it hits (stride 1 is the one-plane case). The taps run in
    `np.ndindex` order into zeroed planes, so every element adds the same
    products in the same order from +0.0 as a scatter over the strided
    positions would, and has its bytes. The planes are written once into the
    C-order gx."""
    win, w, x_shape, pad, stride = cache
    s, kk = _CONV_AXES[w.ndim - 2]
    c, ci = _channel_axis(w)
    gw = np.einsum(f"bo{s},b{c}{s}{kk}->o{c}{kk}", gy, win[:, ci], optimize=True).reshape(w.shape)
    gb = gy.sum(axis=(0, *range(2, gy.ndim)))
    if not input_grad:
        return None, gw, gb
    bsz, cout, *spatial = gy.shape
    cin, sizes = x_shape[1], x_shape[2:]
    # One (cout, B*spatial) copy of gy serves every kernel tap. `w_tapᵀ @ gy_flat`
    # is the product numpy's einsum ran per tap, so gx keeps its bytes; the other
    # orientation, gy_flatᵀ @ w_tap, rounds differently at most batch sizes.
    gy_flat = np.ascontiguousarray(np.moveaxis(gy, 1, 0)).reshape(cout, -1)
    product = np.empty((cin, gy_flat.shape[1]), dtype=np.result_type(w, gy_flat))
    tap_grad = product.reshape((cin, bsz, *spatial))
    # plane p holds the padded positions ≡ p (mod stride) along each axis
    planes = {
        p: np.zeros((cin, bsz) + tuple(len(range(q, n + 2 * pad, stride)) for q, n in zip(p, sizes)), dtype=win.dtype)
        for p in np.ndindex(*(stride,) * len(sizes))
    }
    for tap in np.ndindex(*w.shape[2:]):
        np.matmul(w[(..., *tap)].T, gy_flat, out=product)
        at = tuple(slice(d // stride, d // stride + n) for d, n in zip(tap, spatial))
        planes[tuple(d % stride for d in tap)][(..., *at)] += tap_grad
    # C order: the next layer's bias gradient sums gy in that layout. Input
    # position j is padded position j + pad: plane p holds the j ≡ p - pad.
    gx = np.empty((bsz, cin, *sizes), dtype=win.dtype)
    for p, plane in planes.items():
        first = [(q - pad) % stride for q in p]
        src = tuple(slice((j + pad) // stride, (j + pad) // stride + len(range(j, n, stride))) for j, n in zip(first, sizes))
        np.copyto(gx[(..., *(slice(j, None, stride) for j in first))], np.moveaxis(plane[(..., *src)], 0, 1))
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


# Steps per block of the LSTM's input projection. Without a tape the gates
# of one block are all the forward holds: at 63 rows of w=140 in float32,
# 2 MB instead of the 18 MB of all 140 steps.
LSTM_BLOCK_STEPS = 16

# Bytes of the step-independent factors and the gate gradients the LSTM
# backward holds per block of steps, 9/4 of the block's gates. At about
# 1 MiB a block stays in the cache: with h=64 in float32 a step takes
# 288 KiB at 64 rows, so blocks are 3 steps there and 28 at 8 rows.
LSTM_FACTOR_BYTES = 2**20


def _lstm_forward(x, w_x, w_h, b, record=True):
    """Both LSTM directions stepped together from zero initial state.

    Time-major and direction-stacked: x (T, 2, B, din), each direction's
    sequence in its own time order; w_x (2, 4h, din), w_h (2, 4h, h) and
    b (2, 4h) in (input, forget, candidate, output) gate order. Returns the
    h sequence (T, 2, B, h) and the cache of `_lstm_backward`: every step's
    gates, c and tanh(c). With `record=False` the cache is None, and the
    gates, c and tanh(c) go into ring buffers of one block, two steps and
    one step instead, indexed modulo their length. The buffers are chosen
    once, before the loop, and both passes run the same loop body, so the h
    sequence has the same bytes, NaN bits included. Every step's arrays are
    contiguous slices.
    """
    t_len, _, bsz, _ = x.shape
    h = w_h.shape[-1]
    # One tanh pass activates all four gates: σ(z) = ½·tanh(½z) + ½ for i, f
    # and o, and tanh(z) itself (scale 1, shift 0) for the candidate g. The
    # inner ½ is folded into copies of the weights and bias: a power-of-two
    # scale is exact, so ½z has the bytes it had when z was scaled per step.
    scale = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype=x.dtype), h)
    shift = np.repeat(np.array([0.5, 0.5, 0.0, 0.5], dtype=x.dtype), h)
    # contiguous transposes: matmul over a swapped view takes a slower path
    w_xt = np.ascontiguousarray(np.swapaxes(w_x, 1, 2)) * scale
    w_ht = np.ascontiguousarray(np.swapaxes(w_h, 1, 2)) * scale
    b_scaled = (b * scale)[:, None]
    # slot t + 1 holds h after step t; slot 0 is the zero initial state
    hs = np.zeros((t_len + 1, 2, bsz, h), dtype=x.dtype)
    # slots of the gates, c (slot t + 1 holds c after step t, as in hs) and
    # tanh(c) of step t, at t modulo their count: every step's with a tape
    n_gates, n_c, n_tc = (t_len, t_len + 1, t_len) if record else (min(t_len, LSTM_BLOCK_STEPS), 2, 1)
    gates = np.empty((n_gates, 2, bsz, 4 * h), dtype=x.dtype)
    cs = np.zeros((n_c, 2, bsz, h), dtype=x.dtype)
    tcs = np.empty((n_tc, 2, bsz, h), dtype=x.dtype)
    for t0 in range(0, t_len, LSTM_BLOCK_STEPS):
        t1 = min(t0 + LSTM_BLOCK_STEPS, t_len)
        # x_t @ W_xᵀ + b of the block's steps: one (B, din) x (din, 4h) gemm per
        # step and direction, as over all steps at once. Each step adds
        # h_t @ W_hᵀ and turns its slot into the gates in place. A block's
        # slots are consecutive: t0 % n_gates is t0 with a tape, else 0.
        block = gates[t0 % n_gates :][: t1 - t0]
        np.matmul(x[t0:t1], w_xt, out=block)
        block += b_scaled
        for t in range(t0, t1):
            z = block[t - t0]
            z += np.matmul(hs[t], w_ht)
            np.tanh(z, out=z)
            z *= scale
            z += shift
            i, f, g, o = z[..., :h], z[..., h : 2 * h], z[..., 2 * h : 3 * h], z[..., 3 * h :]
            c = np.multiply(f, cs[t % n_c], out=cs[(t + 1) % n_c])
            tc = tcs[t % n_tc]
            np.multiply(i, g, out=tc)
            c += tc
            np.multiply(o, np.tanh(c, out=tc), out=hs[t + 1])
    return hs[1:], ((x, w_x, w_h, gates, cs, hs, tcs) if record else None)


def _lstm_backward(gh, cache):
    """(gx, gw_x, gw_h, gb) of `_lstm_forward`, stacked as its arguments are.

    Per step, with dh = gh_t + dh_next and dc = dc_next + dh·o·(1 − tanh(c)²),
    the gate gradients are dz = [dc·g·i·(1−i), dc·c_{t−1}·f·(1−f),
    dc·i·(1−g²), dh·tanh(c)·o·(1−o)], multiplied left to right. A step writes
    the first factor of each gate into its slot of dz, then multiplies the
    whole row in place by the gates [i, f, g, o] and by [1−i, 1−f, 1−g², 1−o]:
    dz's g slot is still +0.0 when the gates multiply it and gets dc·i only
    after, so dg's product is the one formed gate by gate. 1 − tanh(c)² and
    [1−i, 1−f, 1−g², 1−o] do not depend on the recurrence; they are formed
    once per block of steps sized to `LSTM_FACTOR_BYTES`, beside the block's
    dz. Each step's dz feeds its weight-gradient GEMMs, dh_next and its own
    gx GEMM, so no array of every step's dz is kept. Every product takes its
    operands in the order of the gate-by-gate formulas, and each GEMM has the
    shape and operands it has when run step by step, so the bytes are those
    of the gate-by-gate, step-by-step backward, NaN bits included."""
    x, w_x, w_h, gates, cs, hs, tcs = cache
    t_len, _, bsz, _ = x.shape
    h = w_h.shape[-1]
    gx = np.empty_like(x)
    gw_x, gw_h = np.zeros_like(w_x), np.zeros_like(w_h)
    gb = np.zeros(w_h.shape[:2], dtype=x.dtype)
    dh_next = np.zeros((2, bsz, h), dtype=x.dtype)
    dc_next = np.zeros((2, bsz, h), dtype=x.dtype)
    dh, dc = np.empty_like(dh_next), np.empty_like(dc_next)
    # per row and step the factors take 5h numbers and dz 4h: 9/4 of the gates
    steps = max(1, min(t_len, LSTM_FACTOR_BYTES * 4 // (9 * gates[0].nbytes or 1)))
    dzs = np.empty((steps,) + gates.shape[1:], dtype=x.dtype)
    slope = np.empty_like(dzs)
    dtanh = np.empty((steps,) + tcs.shape[1:], dtype=x.dtype)
    for t1 in range(t_len, 0, -steps):
        t0 = max(t1 - steps, 0)
        n = t1 - t0
        z = gates[t0:t1]
        i, f, g, o = (z[..., k * h : (k + 1) * h] for k in range(4))
        np.subtract(1, z, out=slope[:n])  # [1−i, 1−f, ·, 1−o]
        slope_g = slope[:n, ..., 2 * h : 3 * h]
        np.multiply(g, g, out=slope_g)
        np.subtract(1, slope_g, out=slope_g)  # 1−g²
        np.square(tcs[t0:t1], out=dtanh[:n])
        np.subtract(1.0, dtanh[:n], out=dtanh[:n])
        dzs[:n, ..., 2 * h : 3 * h] = 0
        for t in range(t1 - 1, t0 - 1, -1):
            k = t - t0
            dz = dzs[k]
            np.add(gh[t], dh_next, out=dh)
            np.multiply(dh, tcs[t], out=dz[..., 3 * h :])
            np.multiply(dh, o[k], out=dc)
            dc *= dtanh[k]
            np.add(dc_next, dc, out=dc)
            np.multiply(dc, g[k], out=dz[..., :h])
            np.multiply(dc, cs[t], out=dz[..., h : 2 * h])
            np.multiply(dc, f[k], out=dc_next)
            dz *= z[k]
            np.multiply(dc, i[k], out=dz[..., 2 * h : 3 * h])
            dz *= slope[k]
            # per-step accumulation: one gemm over all T·B rows would round differently
            dzt = np.swapaxes(dz, 1, 2)
            gw_x += np.matmul(dzt, x[t])
            gw_h += np.matmul(dzt, hs[t])
            gb += dz.sum(axis=1)
            np.matmul(dz, w_h, out=dh_next)
            np.matmul(dz, w_x, out=gx[t])
    return gx, gw_x, gw_h, gb


def bilstm_forward(x, w_x, w_h, b, record=True):
    """Forward and backward LSTM over the sequence, concatenated per timestep.

    The backward direction is the same recurrence run over the time-reversed
    sequence, its outputs flipped back into time order; both directions step
    together in `_lstm_forward`. x: (B, T, din) -> (B, T, 2h), C order. The
    weights are stacked by direction (forward, then backward) in
    (input, forget, candidate, output) gate order: w_x (2, 4h, din),
    w_h (2, 4h, h), b (2, 4h). With `record=False` the cache is None (no
    backward pass can follow) and the output has the same bytes.
    """
    x = as_float(x)
    bsz, t_len, din = x.shape
    h = w_h.shape[-1]
    if w_x.shape != (2, 4 * h, din) or w_h.shape != (2, 4 * h, h) or b.shape != (2, 4 * h):
        raise ShapeMismatchError(f"lstm: x {x.shape}, w_x {w_x.shape}, w_h {w_h.shape}, b {b.shape}")
    xs = np.empty((t_len, 2, bsz, din), dtype=x.dtype)
    xs[:, 0] = np.swapaxes(x, 0, 1)
    xs[:, 1] = np.swapaxes(x[:, ::-1], 0, 1)
    hs, cache = _lstm_forward(xs, w_x, w_h, b, record)
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

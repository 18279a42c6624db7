"""Differentiable primitive tests: hand-computed values, brute-force
convolution oracles, and finite-difference gradient checks."""

import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

from gafnet import model, ops


def rng_for(seed):
    return np.random.default_rng(seed)


def conv1d_oracle(x, w, b):
    """Triple-loop same-padded stride-1 cross-correlation."""
    cout, cin, k = w.shape
    _, t = x.shape
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (pad, pad)))
    y = np.zeros((cout, t))
    for o in range(cout):
        for tt in range(t):
            acc = b[o]
            for c in range(cin):
                for dt in range(k):
                    acc += w[o, c, dt] * xp[c, tt + dt]
            y[o, tt] = acc
    return y


def conv2d_oracle(x, w, b, stride):
    cout, cin, k, _ = w.shape
    _, h, wd = x.shape
    pad = (k - 1) // 2 if stride == 1 else 0
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    ho = (xp.shape[1] - k) // stride + 1
    wo = (xp.shape[2] - k) // stride + 1
    y = np.zeros((cout, ho, wo))
    for o in range(cout):
        for i in range(ho):
            for j in range(wo):
                acc = b[o]
                for c in range(cin):
                    for dy in range(k):
                        for dx in range(k):
                            acc += w[o, c, dy, dx] * xp[c, i * stride + dy, j * stride + dx]
                y[o, i, j] = acc
    return y


def _conv_windows(x, k, stride):
    """Strided window view of a batched input, padded as `ops` pads it."""
    nd = x.ndim - 2
    pad = (k - 1) // 2 if stride == 1 else 0
    xp = np.pad(x, ((0, 0), (0, 0)) + ((pad, pad),) * nd)
    win = sliding_window_view(xp, (k,) * nd, axis=tuple(range(-nd, 0)))
    return win[(slice(None), slice(None)) + (slice(None, None, stride),) * nd], pad


_CONV_LETTERS = {1: ("t", "k"), 2: ("hw", "kl")}

# numpy >= 2.3 contracts a two-operand einsum with `bmm_einsum`, which runs the
# matmuls `ops` runs, so the references below must match byte for byte. Older
# numpy contracts through `tensordot`, whose per-tap `gx` product is the other
# orientation (gyᵀ @ w_tap): there the sums are ordered differently and only a
# float64 rounding tolerance holds. The LSTM references below run the same
# per-step matmuls as `ops`; they are held to the same tolerance below 2.3,
# where their bytes were not checked.
_SAME_PRODUCTS = np.lib.NumpyVersion(np.__version__) >= "2.3.0"


def rounding_tolerance(dtype):
    """1e-12 in float64, and as many units of the dtype's epsilon in float32."""
    return 1e-12 * np.finfo(dtype).eps / np.finfo(np.float64).eps


def assert_same_result(got, want):
    assert got.dtype == want.dtype
    if _SAME_PRODUCTS:
        assert np.array_equal(got, want)
    else:
        tol = rounding_tolerance(got.dtype)
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


def assert_same_bits(got, want):
    """`assert_same_result` for arrays that hold NaN and inf: the same bits,
    NaN payloads and signs included; below numpy 2.3, NaN and inf at the same
    positions and the rounding tolerance elsewhere."""
    assert got.dtype == want.dtype
    if _SAME_PRODUCTS:
        bits = f"u{got.itemsize}"
        assert np.array_equal(got.view(bits), want.view(bits))
    else:
        tol = rounding_tolerance(got.dtype)
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


def conv_forward_reference(x, w, b, stride):
    """Batched conv as one einsum over the channel axis, whatever its size."""
    win, _ = _conv_windows(x, w.shape[-1], stride)
    s, kk = _CONV_LETTERS[w.ndim - 2]
    y = np.einsum(f"bc{s}{kk},oc{kk}->bo{s}", win, w, optimize=True)
    y += b.reshape((-1,) + (1,) * (w.ndim - 2))
    return y


def conv_backward_reference(gy, x, w, stride):
    """(gx, gw, gb) with one einsum per kernel tap for gx, each reading gy as it is."""
    win, pad = _conv_windows(x, w.shape[-1], stride)
    s, kk = _CONV_LETTERS[w.ndim - 2]
    gw = np.einsum(f"bo{s},bc{s}{kk}->oc{kk}", gy, win, optimize=True)
    gb = gy.sum(axis=(0, *range(2, gy.ndim)))
    gxp = np.zeros(x.shape[:2] + tuple(n + 2 * pad for n in x.shape[2:]))
    for tap in np.ndindex(*w.shape[2:]):
        at = tuple(slice(d, d + stride * n, stride) for d, n in zip(tap, gy.shape[2:]))
        gxp[(..., *at)] += np.einsum(f"bo{s},oc->bc{s}", gy, w[(..., *tap)], optimize=True)
    gx = gxp[(..., *(slice(pad, pad + n) for n in x.shape[2:]))] if pad else gxp
    return gx, gw, gb


def sigmoid(z):
    """σ(z) = ½·tanh(½z) + ½, the form `ops` evaluates the i, f and o gates in;
    `TestLstmGates` checks it against `expit`."""
    return 0.5 * np.tanh(0.5 * z) + 0.5


def lstm_forward_reference(x, w_x, w_h, b):
    """One direction over batch-major x (B, T, din), one step at a time, in the
    input's dtype. Each step is (x_t W_xᵀ + b) + h_t W_hᵀ over contiguous
    transposes, as in `ops`."""
    bsz, t_len, _ = x.shape
    h = b.shape[0] // 4
    w_xt, w_ht = np.ascontiguousarray(w_x.T), np.ascontiguousarray(w_h.T)
    gates = np.zeros((bsz, t_len, 4 * h), dtype=x.dtype)
    cs = np.zeros((bsz, t_len + 1, h), dtype=x.dtype)
    hs = np.zeros((bsz, t_len + 1, h), dtype=x.dtype)
    h_t = c_t = hs[:, 0]
    for t in range(t_len):
        z = (x[:, t] @ w_xt + b) + h_t @ w_ht
        i = sigmoid(z[:, :h])
        f = sigmoid(z[:, h : 2 * h])
        g = np.tanh(z[:, 2 * h : 3 * h])
        o = sigmoid(z[:, 3 * h :])
        np.concatenate([i, f, g, o], axis=1, out=gates[:, t])
        c_t = f * c_t + i * g
        h_t = o * np.tanh(c_t)
        cs[:, t + 1] = c_t
        hs[:, t + 1] = h_t
    return hs[:, 1:], (x, w_x, w_h, gates, cs, hs)


def lstm_backward_reference(gh, cache):
    x, w_x, w_h, gates, cs, hs = cache
    bsz, t_len, _ = x.shape
    h = cs.shape[2]
    gx = np.zeros_like(x)
    gw_x, gw_h, gb = np.zeros_like(w_x), np.zeros_like(w_h), np.zeros(4 * h, dtype=x.dtype)
    dh_next = np.zeros((bsz, h), dtype=x.dtype)
    dc_next = np.zeros((bsz, h), dtype=x.dtype)
    for t in range(t_len - 1, -1, -1):
        i, f, g, o = gates[:, t].reshape(bsz, 4, h).swapaxes(0, 1)
        tc = np.tanh(cs[:, t + 1])
        dh = gh[:, t] + dh_next
        do = dh * tc
        dc = dc_next + dh * o * (1.0 - tc**2)
        di = dc * g
        dg = dc * i
        df = dc * cs[:, t]
        dc_next = dc * f
        dz = np.concatenate(
            [di * i * (1 - i), df * f * (1 - f), dg * (1 - g**2), do * o * (1 - o)], axis=1
        )
        gw_x += dz.T @ x[:, t]
        gw_h += dz.T @ hs[:, t]
        gb += dz.sum(axis=0)
        gx[:, t] = dz @ w_x
        dh_next = dz @ w_h
    return gx, gw_x, gw_h, gb


def lstm_weights(rng, din, h):
    """Direction-stacked BiLSTM weights (w_x, w_h, b), drawn from the model's
    BiLSTM stage rows in the order `init_params` draws them."""
    values = [model._initial_value(rng, shape, init) for _name, shape, init in model._bilstm_stage(din, h).params]
    return tuple(np.stack(values[i::3]) for i in range(3))


def bilstm_reference(x, w_x, w_h, b):
    """BiLSTM output (B, T, 2h) and a backward giving (gx, gw_x, gw_h, gb),
    the weight gradients stacked by direction, each direction run on its own
    over batch-major buffers."""
    hf, cache_f = lstm_forward_reference(x, w_x[0], w_h[0], b[0])
    hb, cache_b = lstm_forward_reference(np.ascontiguousarray(x[:, ::-1]), w_x[1], w_h[1], b[1])
    hid = hf.shape[-1]

    def backward(gh):
        gx_f, *grads_f = lstm_backward_reference(gh[..., :hid], cache_f)
        gx_b, *grads_b = lstm_backward_reference(gh[:, ::-1, hid:], cache_b)
        return gx_f + gx_b[:, ::-1], tuple(np.stack(pair) for pair in zip(grads_f, grads_b))

    return np.concatenate([hf, hb[:, ::-1]], axis=-1), backward


class TestConv1d:
    def test_identity_kernel(self):
        x = rng_for(2).standard_normal((1, 1, 9))
        y, _ = ops.conv1d_forward(x, np.array([[[0.0, 1.0, 0.0]]]), np.zeros(1))
        assert np.allclose(y, x, atol=1e-15)

    def test_box_kernel_example(self):
        y, _ = ops.conv1d_forward([[[1.0, 2.0, 3.0]]], np.ones((1, 1, 3)), np.zeros(1))
        assert np.array_equal(y, [[[3.0, 6.0, 5.0]]])

    def test_output_shape(self):
        x = rng_for(3).standard_normal((4, 2, 11))
        w = rng_for(4).standard_normal((5, 2, 7))
        y, _ = ops.conv1d_forward(x, w, np.zeros(5))
        assert y.shape == (4, 5, 11)

    def test_matches_oracle(self):
        rng = rng_for(5)
        for _ in range(5):
            x = rng.standard_normal((2, 8))
            w = rng.standard_normal((3, 2, 5))
            b = rng.standard_normal(3)
            y, _ = ops.conv1d_forward(x[None], w, b)
            assert np.allclose(y[0], conv1d_oracle(x, w, b), atol=1e-12)


class TestConv2d:
    def test_one_by_one_identity(self):
        x = rng_for(6).standard_normal((1, 1, 4, 4))
        y, _ = ops.conv2d_forward(x, np.ones((1, 1, 1, 1)), np.zeros(1), stride=1)
        assert np.allclose(y, x, atol=1e-15)

    def test_all_ones_valid(self):
        y, _ = ops.conv2d_forward(np.ones((1, 1, 3, 3)), np.ones((1, 1, 3, 3)), np.zeros(1), stride=2)
        assert y.shape == (1, 1, 1, 1) and y[0, 0, 0, 0] == 9.0

    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_oracle(self, stride):
        rng = rng_for(7)
        for _ in range(4):
            x = rng.standard_normal((2, 7, 6))
            w = rng.standard_normal((3, 2, 3, 3))
            b = rng.standard_normal(3)
            y, _ = ops.conv2d_forward(x[None], w, b, stride=stride)
            assert np.allclose(y[0], conv2d_oracle(x, w, b, stride), atol=1e-12)


class TestConvBytes:
    """The convolutions give the same bytes as the plain einsum references
    (on numpy >= 2.3), so a trained model file does not depend on which of
    the two ran."""

    # (cin, cout, kernel, size, stride): the paper-default layers on the
    # 96-sample surrogate (the conv2d chain 96 -> 47 -> 23 and both conv1d)
    @pytest.mark.parametrize(
        "cin, cout, k, size, stride",
        [(1, 16, 3, (96, 96), 2), (16, 32, 3, (47, 47), 2), (32, 64, 3, (23, 23), 2),
         (1, 32, 7, (96,), 1), (32, 64, 5, (96,), 1)],
    )
    def test_matches_einsum_reference(self, cin, cout, k, size, stride):
        rng = rng_for(40 + cin + len(size))
        w = rng.standard_normal((cout, cin) + (k,) * len(size))
        b = rng.standard_normal(cout)
        backward = ops.conv2d_backward if len(size) == 2 else ops.conv1d_backward
        for bsz in range(1, 20):
            x = rng.standard_normal((bsz, cin) + size)
            if len(size) == 2:
                y, cache = ops.conv2d_forward(x, w, b, stride=stride)
            else:
                y, cache = ops.conv1d_forward(x, w, b)
            assert_same_result(y, conv_forward_reference(x, w, b, stride))
            # gy in C order, and in the layout relu_backward gives it in the model
            (gy_relu,) = ops.relu_backward(rng.standard_normal(y.shape), ops.relu_forward(y)[1])
            for gy in (rng.standard_normal(y.shape), gy_relu):
                gx, gw, gb = backward(gy, cache)
                want = conv_backward_reference(gy, x, w, stride)
                for got, ref in zip((gx, gw, gb), want):
                    assert_same_result(got, ref)
                assert gx.flags.c_contiguous
                no_gx = backward(gy, cache, input_grad=False)
                assert no_gx[0] is None
                assert np.array_equal(no_gx[1], gw) and np.array_equal(no_gx[2], gb)

    # the 96-sample surrogate's conv2d layers that read 16 and 32 channels
    @pytest.mark.parametrize("cin, cout, size", [(16, 32, (47, 47)), (32, 64, (23, 23))])
    def test_blocked_window_product(self, monkeypatch, cin, cout, size):
        rng = rng_for(60 + cin)
        w = rng.standard_normal((cout, cin, 3, 3))
        b = rng.standard_normal(cout)
        per_sample = ((size[0] - 3) // 2 + 1) * ((size[1] - 3) // 2 + 1)
        real_matmul = np.matmul
        blocks = []

        def recording_matmul(a, cols, **kwargs):
            blocks.append(cols.shape[1] // per_sample)
            return real_matmul(a, cols, **kwargs)

        for bsz in (1, 7, 8, 9, 16, 17, 33, 40):
            x = rng.standard_normal((bsz, cin) + size)
            whole, _ = ops.conv2d_forward(x, w, b, stride=2)  # one block at the default budget
            # every block's column copy is over a budget of 1 byte: 8-sample blocks
            with monkeypatch.context() as m:
                m.setattr(ops, "WINDOW_BLOCK_BYTES", 1)
                m.setattr(np, "matmul", recording_matmul)
                blocks.clear()
                y, cache = ops.conv2d_forward(x, w, b, stride=2)
            # one GEMM per block of columns; blocks start every 8 samples and
            # the last one takes the remainder
            assert blocks == ([8] * (bsz // 8 - 1) + [8 + bsz % 8] if bsz >= 16 else [bsz])
            # splitting the GEMM by columns keeps its bytes and the output layout
            assert np.array_equal(y, whole)
            assert y.strides == whole.strides
            assert_same_result(y, conv_forward_reference(x, w, b, 2))
            gy = rng.standard_normal(y.shape)
            for got, ref in zip(ops.conv2d_backward(gy, cache), conv_backward_reference(gy, x, w, 2)):
                assert_same_result(got, ref)

    def test_window_copy_stays_under_mmap_threshold(self):
        # the paper-default second conv2d layer at 32 rows of w=140: one window
        # copy of 42.6 MB, above glibc's 32 MB mmap threshold, unless blocked
        rng = rng_for(70)
        x = rng.standard_normal((32, 16, 69, 69))
        w = rng.standard_normal((32, 16, 3, 3))
        b = rng.standard_normal(32)
        tracemalloc.start()
        try:
            y, cache = ops.conv2d_forward(x, w, b, stride=2)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        # the output is all that stays: the cached window view reads x itself
        assert y.nbytes <= held < y.nbytes + 2**20
        assert np.shares_memory(cache[0], x)


    # the paper-default conv2d chain at w=140, ECG5000's length: 140² -> 69² -> 34² -> 16²
    W140_CHAIN = [(1, 16, (140, 140)), (16, 32, (69, 69)), (32, 64, (34, 34))]

    @staticmethod
    def check_backward(x, w, b, stride, gy):
        y, cache = ops.conv2d_forward(x, w, b, stride=stride)
        assert gy.shape == y.shape
        got = ops.conv2d_backward(gy, cache)
        for a, want in zip(got, conv_backward_reference(gy, x, w, stride)):
            assert_same_bits(a, want)
        assert got[0].flags.c_contiguous

    @pytest.mark.parametrize("cin, cout, size", W140_CHAIN)
    def test_w140_chain_matches_einsum_reference(self, cin, cout, size):
        rng = rng_for(140 + cin)
        w = rng.standard_normal((cout, cin, 3, 3))
        b = rng.standard_normal(cout)
        out = tuple((n - 3) // 2 + 1 for n in size)
        for bsz in list(range(1, 20)) + [64]:
            x = rng.standard_normal((bsz, cin) + size)
            self.check_backward(x, w, b, 2, rng.standard_normal((bsz, cout) + out))

    # the w=96 chain of `test_matches_einsum_reference` at the paper's batch size
    @pytest.mark.parametrize("cin, cout, size", [(1, 16, (96, 96)), (16, 32, (47, 47)), (32, 64, (23, 23))])
    def test_w96_chain_at_batch_64(self, cin, cout, size):
        rng = rng_for(96 + cin)
        w = rng.standard_normal((cout, cin, 3, 3))
        x = rng.standard_normal((64, cin) + size)
        out = tuple((n - 3) // 2 + 1 for n in size)
        self.check_backward(x, w, rng.standard_normal(cout), 2, rng.standard_normal((64, cout) + out))

    @pytest.mark.parametrize("cin, cout, k, size, stride", [(16, 32, 3, (69, 69), 2), (32, 64, 5, (140,), 1)])
    def test_nan_and_inf_gradient_give_reference_bits(self, cin, cout, k, size, stride):
        rng = rng_for(150 + cin)
        w = rng.standard_normal((cout, cin) + (k,) * len(size))
        b = rng.standard_normal(cout)
        backward = ops.conv2d_backward if len(size) == 2 else ops.conv1d_backward
        for bsz in (1, 8, 64):
            x = rng.standard_normal((bsz, cin) + size)
            y, cache = ops._conv_forward(x, w, b, stride, len(size))
            gy = rng.standard_normal(y.shape)
            gy[0, 1, 2], gy[-1, -1, -1] = np.nan, np.inf
            gy[bsz // 2, 0, 3] = -np.inf
            with np.errstate(invalid="ignore"):
                got = backward(gy, cache)
                want = conv_backward_reference(gy, x, w, stride)
            assert np.isnan(got[0]).any() and np.isinf(got[0]).any()
            for a, ref in zip(got, want):
                assert_same_bits(a, ref)


class TestConvInputChecks:
    @pytest.mark.parametrize(
        "x_shape, w_shape, b_shape, error",
        [
            ((1, 1, 9), (1, 1, 4), (1,), ValueError),  # even kernel
            ((1, 2, 9), (3, 1, 3), (3,), ops.ShapeMismatchError),  # channel mismatch
            ((1, 1, 9), (3, 1, 3), (2,), ops.ShapeMismatchError),  # bias mismatch
            ((1, 9), (1, 1, 3), (1,), ops.ShapeMismatchError),  # rank too low: no batch axis
            ((1, 1, 1, 9), (1, 1, 3), (1,), ops.ShapeMismatchError),  # rank too high
        ],
    )
    def test_conv1d_rejects(self, x_shape, w_shape, b_shape, error):
        with pytest.raises(error):
            ops.conv1d_forward(np.zeros(x_shape), np.zeros(w_shape), np.zeros(b_shape))

    @pytest.mark.parametrize(
        "x_shape, w_shape, b_shape, stride, error",
        [
            ((1, 1, 6, 6), (1, 1, 3, 2), (1,), 1, ValueError),  # non-square kernel
            ((1, 2, 6, 6), (3, 1, 3, 3), (3,), 2, ops.ShapeMismatchError),  # channel mismatch
            ((1, 1, 6, 6), (3, 1, 3, 3), (2,), 2, ops.ShapeMismatchError),  # bias mismatch
            ((1, 6, 6), (1, 1, 3, 3), (1,), 1, ops.ShapeMismatchError),  # rank too low: no batch axis
            ((1, 1, 1, 6, 6), (1, 1, 3, 3), (1,), 1, ops.ShapeMismatchError),  # rank too high
            ((1, 1, 2, 6), (1, 1, 3, 3), (1,), 2, ops.ShapeMismatchError),  # smaller than kernel
        ],
    )
    def test_conv2d_rejects(self, x_shape, w_shape, b_shape, stride, error):
        with pytest.raises(error):
            ops.conv2d_forward(np.zeros(x_shape), np.zeros(w_shape), np.zeros(b_shape), stride=stride)


class TestPointwise:
    def test_relu(self):
        y, _ = ops.relu_forward([-1.0, 0.0, 2.0])
        assert np.array_equal(y, [0.0, 0.0, 2.0])

    def test_relu_passes_nan_through(self):
        y, cache = ops.relu_forward([np.nan, -np.inf, np.inf, -0.0])
        assert np.isnan(y[0]) and np.array_equal(y[1:], [0.0, np.inf, 0.0])
        (g,) = ops.relu_backward(np.ones(4), cache)
        assert np.array_equal(g, [0.0, 0.0, 1.0, 0.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_gradient_bits_equal_where(self, dtype):
        rng = rng_for(31)
        x = rng.standard_normal((6, 5, 7)).astype(dtype)
        gy = rng.standard_normal(x.shape).astype(dtype)
        x.flat[:6] = [np.nan, -0.0, 0.0, np.inf, -np.inf, -np.nan]
        gy.flat[6:14] = [-0.0, np.nan, np.inf, -np.inf, -np.nan, -0.0, np.nan, np.inf]
        x.flat[6:14] = [1.0, 2.0, 3.0, 4.0, 5.0, -1.0, -2.0, -0.0]  # gy's specials under both signs of x
        nan_payload = np.array([0x7FC00123 if dtype == np.float32 else 0x7FF8000000000123], dtype=f"u{gy.itemsize}")
        gy.flat[20] = nan_payload.view(dtype)[0]
        x.flat[20] = 1.0
        y, cache = ops.relu_forward(x)
        (gx,) = ops.relu_backward(gy, cache)
        want = np.where(x > 0, gy, 0.0)
        assert gx.dtype == want.dtype == dtype and gx.shape == x.shape
        assert gx.tobytes() == want.tobytes() and gx.strides == want.strides
        # other layouts of y and gy, as the conv before and the stage after hand them over:
        # the gradient's layout must be np.where's too, since conv backward's bytes depend on it
        y_conv = np.ascontiguousarray(y.transpose(1, 0, 2)).transpose(1, 0, 2)
        for y_in, gy_in in ((y, gy.T.copy().T), (y_conv, gy), (y_conv, np.broadcast_to(gy[:1], gy.shape))):
            (got,) = ops.relu_backward(gy_in, (y_in,))
            ref = np.where(y_in > 0, gy_in, 0.0)
            assert got.tobytes() == ref.tobytes() and got.strides == ref.strides

    def test_softmax_uniform(self):
        y, _ = ops.softmax_forward([0.0, 0.0, 0.0])
        assert np.allclose(y, np.ones(3) / 3, atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        x = rng_for(8).standard_normal((6, 9)) * 10
        y, _ = ops.softmax_forward(x, axis=-1)
        assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_shift_invariance(self):
        x = rng_for(9).standard_normal(7)
        a, _ = ops.softmax_forward(x)
        b, _ = ops.softmax_forward(x + 123.4)
        assert np.allclose(a, b, atol=1e-12)

    def test_layer_norm_constant_vector(self):
        y, _ = ops.layer_norm_forward(np.full(5, 3.0), np.ones(5), np.zeros(5))
        assert np.allclose(y, 0.0, atol=1e-12)

    def test_layer_norm_moments(self):
        x = rng_for(10).standard_normal((4, 32))
        y, _ = ops.layer_norm_forward(x, np.ones(32), np.zeros(32))
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(y.var(axis=-1), 1.0, atol=1e-3)

    def test_global_avg_pool(self):
        y, _ = ops.global_avg_pool_forward(np.array([[1.0, 3.0], [2.0, 2.0]]), n_spatial=1)
        assert np.array_equal(y, [2.0, 2.0])


class TestBilstm:
    def test_output_shape(self):
        rng = rng_for(13)
        weights = lstm_weights(rng, 3, 4)
        x = rng.standard_normal((2, 7, 3))
        h, _ = ops.bilstm_forward(x, *weights)
        assert h.shape == (2, 7, 8)

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_weight_shapes_checked(self, bad):
        # w_x (2, 4h, din), w_h (2, 4h, h), b (2, 4h), one of them with a single direction
        weights = [np.zeros((2, 8, 3)), np.zeros((2, 8, 2)), np.zeros((2, 8))]
        weights[bad] = weights[bad][:1]
        with pytest.raises(ops.ShapeMismatchError, match="lstm"):
            ops.bilstm_forward(np.zeros((1, 5, 3)), *weights)

    def test_all_zero_parameters_give_zero_output(self):
        x = rng_for(14).standard_normal((1, 5, 2))
        h, _ = ops.bilstm_forward(x, np.zeros((2, 8, 2)), np.zeros((2, 8, 2)), np.zeros((2, 8)))
        assert np.array_equal(h, np.zeros((1, 5, 4)))

    def test_time_reversal_swaps_direction_blocks(self):
        rng = rng_for(15)
        w_x, w_h, b = (np.stack([w[0], w[0]]) for w in lstm_weights(rng, 3, 2))  # one cell both ways
        x = rng.standard_normal((1, 3, 3))
        h, _ = ops.bilstm_forward(x, w_x, w_h, b)
        h_rev, _ = ops.bilstm_forward(x[:, ::-1], w_x, w_h, b)
        assert np.allclose(h_rev[:, :, :2], h[:, ::-1, 2:], atol=1e-12)
        assert np.allclose(h_rev[:, :, 2:], h[:, ::-1, :2], atol=1e-12)


class TestLstmGates:
    """The gates `bilstm_forward` caches against scipy's `expit` and numpy's
    `tanh` as the oracle. With w_h = 0 one step's pre-activations are
    x W_xᵀ + b, the same in both directions."""

    HIDDEN = 3
    # how far σ(z) = ½·tanh(½z) + ½ may lie from the exact sigmoid
    TOLERANCE = {np.float64: 4e-16, np.float32: 1.2e-7}

    def gates_and_oracle(self, x, w_x, b):
        h = self.HIDDEN
        _, cache = ops.bilstm_forward(x[:, None], np.stack([w_x, w_x]), np.zeros((2, 4 * h, h), dtype=x.dtype),
                                      np.stack([b, b]))
        gates = cache[3][0]  # (2, B, 4h) of the one step
        z = (x @ np.ascontiguousarray(w_x.T) + b).astype(np.float64)
        want = expit(z)
        want[:, 2 * h : 3 * h] = np.tanh(z[:, 2 * h : 3 * h])
        return gates, want

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_match_expit_and_tanh(self, dtype):
        rng = rng_for(90)
        h = self.HIDDEN
        # every pre-activation in [-60, 60] in steps of 1/8, exactly, as one feature
        sweep = np.arange(-480, 481, dtype=dtype)[:, None] / 8
        random_x = rng.standard_normal((16, 5)).astype(dtype)
        random_w = rng.uniform(-2, 2, (4 * h, 5)).astype(dtype)
        cases = [
            (sweep, np.ones((4 * h, 1), dtype=dtype), np.zeros(4 * h, dtype=dtype)),
            (random_x, random_w, rng.uniform(-1, 1, 4 * h).astype(dtype)),
        ]
        for x, w_x, b in cases:
            gates, want = self.gates_and_oracle(x, w_x, b)
            assert gates.dtype == dtype
            sigmoids = np.delete(gates, np.s_[2 * h : 3 * h], axis=-1)  # i, f and o
            assert sigmoids.min() >= 0 and sigmoids.max() <= 1
            assert np.abs(gates).max() <= 1
            for direction in gates:
                np.testing.assert_allclose(direction, want, rtol=0, atol=self.TOLERANCE[dtype])


class TestLstmBytes:
    """The BiLSTM gives the same bytes as the per-direction recurrence kept
    above as the reference (on numpy >= 2.3), so a trained model file does not
    depend on which of the two ran. float64 is the reference path that
    `grad_check` runs; float32, with the weights cast as `model` casts them,
    is the path that trains `model.bin`."""

    HIDDEN = 64  # the paper default: the gemm shapes decide the rounding
    BATCHES = list(range(1, 20)) + [32, 64]

    def check(self, din, t_len, rng, exact_gw_x=True, dtype=np.float64):
        weights = tuple(w.astype(dtype) for w in lstm_weights(rng, din, self.HIDDEN))
        stage = model._bilstm_stage(din, self.HIDDEN)
        for bsz in self.BATCHES:
            x = rng.standard_normal((bsz, t_len, din)).astype(dtype)
            want_h, want_backward = bilstm_reference(x, *weights)
            h, cache = ops.bilstm_forward(x, *weights)
            assert_same_result(h, want_h)
            gh = rng.standard_normal(h.shape).astype(dtype)
            grads = ops.bilstm_backward(gh, cache)
            want_gx, want_grads = want_backward(gh)
            self.assert_same_grads(grads, (want_gx, *want_grads), exact_gw_x)
            # the model's stage over channels-first input, on each direction's
            # w_x, w_h and b: the time pool after it sums in the layout the stage
            # returns, so its features check that layout
            xc = np.ascontiguousarray(np.swapaxes(x, 1, 2))
            y, _ = stage.forward(xc, *(w[d] for d in range(2) for w in weights))
            feats, _ = ops.global_avg_pool_forward(y, n_spatial=1)
            want_feats, _ = ops.global_avg_pool_forward(np.swapaxes(want_h, 1, 2), n_spatial=1)
            assert_same_result(feats, want_feats)

    @staticmethod
    def assert_same_grads(got, want, exact_gw_x):
        for k, (a, b) in enumerate(zip(got, want)):
            if exact_gw_x or k != 1:  # gw_x, stacked by direction
                assert_same_result(a, b)
            else:
                tol = rounding_tolerance(a.dtype)
                np.testing.assert_allclose(a, b, rtol=tol, atol=tol)

    @pytest.mark.parametrize("t_len", [1, 2, 96, 140])
    @pytest.mark.parametrize("din", [2, 64])
    def test_matches_per_direction_reference(self, din, t_len):
        self.check(din, t_len, rng_for(60 + din + t_len))

    @pytest.mark.parametrize("t_len", [1, 2, 96])
    def test_single_input_feature(self, t_len):
        """With no conv1d layers the BiLSTM reads one feature. Its gw_x sums
        the per-step dzᵀ @ x_t, a gemv whose rounding depends on the stride it
        reads x_t with, so gw_x is held to a float64 tolerance."""
        self.check(1, t_len, rng_for(70 + t_len), exact_gw_x=False)

    @pytest.mark.parametrize("t_len", [1, 2, 96, 140])
    @pytest.mark.parametrize("din", [1, 2, 64])
    def test_float32_matches_per_direction_reference(self, din, t_len):
        self.check(din, t_len, rng_for(80 + din + t_len), exact_gw_x=din > 1, dtype=np.float32)


    @staticmethod
    def factor_block_steps(bsz, dtype):
        """Steps per block of the backward: its factors and gate gradients
        take 9h numbers per row, direction and step within
        `ops.LSTM_FACTOR_BYTES`."""
        return ops.LSTM_FACTOR_BYTES // (9 * TestLstmBytes.HIDDEN * 2 * bsz * np.dtype(dtype).itemsize)

    def compare_backward(self, x, weights, gh, exact_gw_x=True):
        want_h, want_backward = bilstm_reference(x, *weights)
        h, cache = ops.bilstm_forward(x, *weights)
        assert_same_result(h, want_h)
        grads = ops.bilstm_backward(gh, cache)
        want_gx, want_grads = want_backward(gh)
        return grads, (want_gx, *want_grads)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bsz", [8, 64])
    def test_factor_block_edges(self, bsz, dtype):
        steps = self.factor_block_steps(bsz, dtype)  # 1 at B=64 in float64
        rng = rng_for(90 + bsz)
        weights = tuple(w.astype(dtype) for w in lstm_weights(rng, 64, self.HIDDEN))
        for t_len in sorted({max(steps - 1, 1), steps, steps + 1, 2 * steps, 2 * steps + 1}):
            x = rng.standard_normal((bsz, t_len, 64)).astype(dtype)
            gh = rng.standard_normal((bsz, t_len, 2 * self.HIDDEN)).astype(dtype)
            self.assert_same_grads(*self.compare_backward(x, weights, gh), exact_gw_x=True)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bsz", [8, 64])
    def test_nan_and_inf_gradient_give_reference_bits(self, bsz, dtype):
        t_len = self.factor_block_steps(bsz, dtype) + 2  # across a block edge
        rng = rng_for(95 + bsz)
        weights = tuple(w.astype(dtype) for w in lstm_weights(rng, 64, self.HIDDEN))
        x = rng.standard_normal((bsz, t_len, 64)).astype(dtype)
        gh = rng.standard_normal((bsz, t_len, 2 * self.HIDDEN)).astype(dtype)
        # one NaN and one inf in each direction's half, at different steps
        gh[bsz // 2, t_len // 3, 5], gh[0, t_len - 2, self.HIDDEN + 7] = np.nan, np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = self.compare_backward(x, weights, gh)
        assert all(np.isnan(a).any() for a in got)
        for a, ref in zip(got, want):
            assert_same_bits(a, ref)


class TestLstmBackwardMemory:
    def test_factor_blocks_stay_in_budget(self):
        """At the paper's batch size and w=140 in float32 the backward holds
        the time-major gh and gx and the returned gx, 10.9 MiB together, and
        a block of factors and gate gradients within
        `ops.LSTM_FACTOR_BYTES`. Every step's gate gradients would take
        18.4 MB, factors for all 140 steps 23 MB, and 16-step blocks 4.7 MB."""
        rng = rng_for(98)
        bsz, t_len, hid = 64, 140, 64
        weights = tuple(w.astype(np.float32) for w in lstm_weights(rng, 64, hid))
        x = rng.standard_normal((bsz, t_len, 64)).astype(np.float32)
        h, cache = ops.bilstm_forward(x, *weights)
        gh = rng.standard_normal(h.shape).astype(np.float32)
        ops.bilstm_backward(gh, cache)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ops.bilstm_backward(gh, cache)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        step_arrays = gh.nbytes + 3 * x.nbytes
        assert ops.LSTM_FACTOR_BYTES <= 2**20
        assert peak < step_arrays + 3 * 2**19, (peak - step_arrays) / 2**20


class TestUnrecordedLstm:
    """`bilstm_forward(record=False)`, the prediction path, keeps no cache and
    gives the bytes of the recorded forward, at T on both sides of the input
    projection's block edges."""

    BATCHES = list(range(1, 20)) + [32, 63, 64]

    @pytest.mark.parametrize("t_len", [1, 2, 15, 16, 17, 33, 96, 140])
    @pytest.mark.parametrize("din", [1, 2, 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bytes_as_recorded(self, dtype, din, t_len):
        assert ops.LSTM_BLOCK_STEPS == 16  # the block edges the t_len cases straddle
        rng = rng_for(100 + din + t_len)
        weights = tuple(w.astype(dtype) for w in lstm_weights(rng, din, 64))
        for bsz in self.BATCHES:
            x = rng.standard_normal((bsz, t_len, din)).astype(dtype)
            want, cache = ops.bilstm_forward(x, *weights)
            got, no_cache = ops.bilstm_forward(x, *weights, record=False)
            assert cache is not None and no_cache is None
            assert got.dtype == dtype and got.flags.c_contiguous
            assert np.array_equal(got, want), bsz

    @pytest.mark.parametrize("t_len", [15, 16, 17, 33])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_and_inf_input_give_recorded_bits(self, dtype, t_len):
        """`np.array_equal` is never true for arrays that hold NaN; both
        passes run the same multiplies, so they give the same bits."""
        rng = rng_for(110 + t_len)
        weights = tuple(w.astype(dtype) for w in lstm_weights(rng, 2, 64))
        for bsz in (1, 8, 63):
            x = rng.standard_normal((bsz, t_len, 2)).astype(dtype)
            x[-1, t_len // 3, 0], x[0, t_len - 2, 1] = np.nan, np.inf
            with np.errstate(invalid="ignore", over="ignore"):
                want, _cache = ops.bilstm_forward(x, *weights)
                got, _ = ops.bilstm_forward(x, *weights, record=False)
            assert np.isnan(got).any() and np.isfinite(got).any(), bsz
            assert_same_bits(got, want)

    def test_keeps_one_block_of_gates(self):
        # 63 rows of w=140 in float32, the largest prediction chunk: every
        # step's gates alone would take 18 MB
        rng = rng_for(99)
        weights = tuple(w.astype(np.float32) for w in lstm_weights(rng, 64, 64))
        x = rng.standard_normal((63, 140, 64)).astype(np.float32)
        ops.bilstm_forward(x, *weights, record=False)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ops.bilstm_forward(x, *weights, record=False)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the input copy, the h sequence and the output, 4.5 MB each, one
        # block of gates (2.1 MB), and one step's c and tanh(c)
        assert peak < 16 * 2**20, peak / 2**20


class TestGradients:
    """Quick per-op finite-difference checks; the acceptance suite runs the
    full 20-trial battery."""

    def test_conv1d(self):
        rng = rng_for(17)
        err = ops.grad_check(
            ops.conv1d_forward,
            ops.conv1d_backward,
            [rng.standard_normal((1, 2, 6)), rng.standard_normal((3, 2, 3)), rng.standard_normal(3)],
        )
        assert err < 1e-6

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d(self, stride):
        rng = rng_for(18 + stride)
        err = ops.grad_check(
            lambda x, w, b: ops.conv2d_forward(x, w, b, stride=stride),
            ops.conv2d_backward,
            [rng.standard_normal((1, 2, 5, 5)), rng.standard_normal((2, 2, 3, 3)), rng.standard_normal(2)],
        )
        assert err < 1e-6

    def test_relu_away_from_kink(self):
        rng = rng_for(20)
        x = rng.standard_normal(20)
        x = np.where(np.abs(x) < 0.05, 0.1, x)
        err = ops.grad_check(ops.relu_forward, ops.relu_backward, [x])
        assert err < 1e-6

    def test_softmax(self):
        rng = rng_for(21)
        err = ops.grad_check(
            lambda x: ops.softmax_forward(x, axis=-1),
            lambda g, c: ops.softmax_backward(g, c),
            [rng.standard_normal((3, 5))],
        )
        assert err < 1e-6

    def test_layer_norm(self):
        rng = rng_for(22)
        err = ops.grad_check(
            ops.layer_norm_forward,
            ops.layer_norm_backward,
            [rng.standard_normal((2, 7)), rng.standard_normal(7), rng.standard_normal(7)],
        )
        assert err < 1e-5

    def test_global_avg_pool(self):
        rng = rng_for(23)
        err = ops.grad_check(
            lambda x: ops.global_avg_pool_forward(x, n_spatial=2), ops.global_avg_pool_backward,
            [rng.standard_normal((3, 4, 4))],
        )
        assert err < 1e-6

    def test_linear(self):
        rng = rng_for(24)
        err = ops.grad_check(
            ops.linear_forward,
            ops.linear_backward,
            [rng.standard_normal((4, 3)), rng.standard_normal((3, 2)), rng.standard_normal(2)],
        )
        assert err < 1e-6

    def test_bilstm(self):
        rng = rng_for(25)
        weights = lstm_weights(rng, 2, 3)
        err = ops.grad_check(ops.bilstm_forward, ops.bilstm_backward, [rng.standard_normal((2, 4, 2)), *weights])
        assert err < 1e-5


class TestRngAndParams:
    def test_identical_seed_identical_stream(self):
        a = ops.make_rng(42).standard_normal(100)
        b = ops.make_rng(42).standard_normal(100)
        assert np.array_equal(a, b)

    def test_uniform_init_bounds(self):
        w = ops.uniform_init(ops.make_rng(0), (50, 50), fan_in=25)
        assert np.all(np.abs(w) <= 0.2)

"""Differentiable primitive tests: hand-computed values, brute-force
convolution oracles, and finite-difference gradient checks."""

import numpy as np
import pytest

from gafnet import ops


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


class TestMatmul:
    def test_identity(self):
        x = rng_for(0).standard_normal((3, 5))
        y, _ = ops.matmul_forward(np.eye(3), x)
        assert np.array_equal(y, x)

    def test_hand_example(self):
        y, _ = ops.matmul_forward([[1.0, 2.0], [3.0, 4.0]], [[5.0], [6.0]])
        assert np.array_equal(y, [[17.0], [39.0]])

    def test_transpose_identity(self):
        rng = rng_for(1)
        for _ in range(10):
            a = rng.standard_normal((4, 3))
            b = rng.standard_normal((3, 5))
            ab, _ = ops.matmul_forward(a, b)
            ba, _ = ops.matmul_forward(b.T, a.T)
            assert np.allclose(ab.T, ba, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ops.ShapeMismatchError):
            ops.matmul_forward(np.zeros((2, 3)), np.zeros((4, 2)))


class TestConv1d:
    def test_identity_kernel(self):
        x = rng_for(2).standard_normal((1, 9))
        y, _ = ops.conv1d_forward(x, np.array([[[0.0, 1.0, 0.0]]]), np.zeros(1))
        assert np.allclose(y, x, atol=1e-15)

    def test_box_kernel_example(self):
        y, _ = ops.conv1d_forward([[1.0, 2.0, 3.0]], np.ones((1, 1, 3)), np.zeros(1))
        assert np.array_equal(y, [[3.0, 6.0, 5.0]])

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
            y, _ = ops.conv1d_forward(x, w, b)
            assert np.allclose(y, conv1d_oracle(x, w, b), atol=1e-12)


class TestConv2d:
    def test_one_by_one_identity(self):
        x = rng_for(6).standard_normal((1, 4, 4))
        y, _ = ops.conv2d_forward(x, np.ones((1, 1, 1, 1)), np.zeros(1), stride=1)
        assert np.allclose(y, x, atol=1e-15)

    def test_all_ones_valid(self):
        y, _ = ops.conv2d_forward(np.ones((1, 3, 3)), np.ones((1, 1, 3, 3)), np.zeros(1), stride=2)
        assert y.shape == (1, 1, 1) and y[0, 0, 0] == 9.0

    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_oracle(self, stride):
        rng = rng_for(7)
        for _ in range(4):
            x = rng.standard_normal((2, 7, 6))
            w = rng.standard_normal((3, 2, 3, 3))
            b = rng.standard_normal(3)
            y, _ = ops.conv2d_forward(x, w, b, stride=stride)
            assert np.allclose(y, conv2d_oracle(x, w, b, stride), atol=1e-12)


class TestPointwise:
    def test_relu(self):
        y, _ = ops.relu_forward([-1.0, 0.0, 2.0])
        assert np.array_equal(y, [0.0, 0.0, 2.0])

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
        y, _ = ops.global_avg_pool_forward(np.array([[1.0, 3.0], [2.0, 2.0]]))
        assert np.array_equal(y, [2.0, 2.0])


class TestBilstm:
    def make_cells(self, rng, din, h):
        return ops.init_lstm_cell(rng, din, h), ops.init_lstm_cell(rng, din, h)

    def test_output_shape(self):
        rng = rng_for(13)
        fwd, bwd = self.make_cells(rng, 3, 4)
        x = rng.standard_normal((2, 7, 3))
        h, _ = ops.bilstm_forward(x, fwd, bwd)
        assert h.shape == (2, 7, 8)

    def test_all_zero_parameters_give_zero_output(self):
        x = rng_for(14).standard_normal((1, 5, 2))
        zero = ops.LstmCellParams(np.zeros((8, 2)), np.zeros((8, 2)), np.zeros(8))
        h, _ = ops.bilstm_forward(x, zero, zero)
        assert np.array_equal(h, np.zeros((1, 5, 4)))

    def test_time_reversal_swaps_direction_blocks(self):
        rng = rng_for(15)
        cell = ops.init_lstm_cell(rng, 3, 2)
        x = rng.standard_normal((1, 3, 3))
        h, _ = ops.bilstm_forward(x, cell, cell)
        h_rev, _ = ops.bilstm_forward(x[:, ::-1], cell, cell)
        assert np.allclose(h_rev[:, :, :2], h[:, ::-1, 2:], atol=1e-12)
        assert np.allclose(h_rev[:, :, 2:], h[:, ::-1, :2], atol=1e-12)


class TestGradients:
    """Quick per-op finite-difference checks; the acceptance suite runs the
    full 20-trial battery."""

    def test_matmul(self):
        rng = rng_for(16)
        err = ops.grad_check(
            ops.matmul_forward,
            ops.matmul_backward,
            [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))],
        )
        assert err < 1e-6

    def test_conv1d(self):
        rng = rng_for(17)
        err = ops.grad_check(
            ops.conv1d_forward,
            ops.conv1d_backward,
            [rng.standard_normal((2, 6)), rng.standard_normal((3, 2, 3)), rng.standard_normal(3)],
        )
        assert err < 1e-6

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d(self, stride):
        rng = rng_for(18 + stride)
        err = ops.grad_check(
            lambda x, w, b: ops.conv2d_forward(x, w, b, stride=stride),
            ops.conv2d_backward,
            [rng.standard_normal((2, 5, 5)), rng.standard_normal((2, 2, 3, 3)), rng.standard_normal(2)],
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
            ops.global_avg_pool_forward, ops.global_avg_pool_backward, [rng.standard_normal((3, 4, 4))]
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
        cell_f = ops.init_lstm_cell(rng, 2, 3)
        cell_b = ops.init_lstm_cell(rng, 2, 3)

        def fwd(x, wxf, whf, bf, wxb, whb, bb):
            return ops.bilstm_forward(
                x, ops.LstmCellParams(wxf, whf, bf), ops.LstmCellParams(wxb, whb, bb)
            )

        def bwd(g, cache):
            gx, gf, gb = ops.bilstm_backward(g, cache)
            return (gx, *gf, *gb)

        err = ops.grad_check(
            fwd,
            bwd,
            [rng.standard_normal((2, 4, 2)), cell_f.w_x, cell_f.w_h, cell_f.b, cell_b.w_x, cell_b.w_h, cell_b.b],
        )
        assert err < 1e-5


class TestRngAndParams:
    def test_identical_seed_identical_stream(self):
        a = ops.make_rng(42).standard_normal(100)
        b = ops.make_rng(42).standard_normal(100)
        assert np.array_equal(a, b)

    def test_uniform_init_bounds(self):
        w = ops.uniform_init(ops.make_rng(0), (50, 50), fan_in=25)
        assert np.all(np.abs(w) <= 0.2)

    def test_param_tensor_tracks_grad_shape(self):
        p = ops.ParamTensor(np.zeros((2, 3)))
        assert p.grad.shape == (2, 3)
        p.grad += 1.0
        p.zero_grad()
        assert np.array_equal(p.grad, np.zeros((2, 3)))

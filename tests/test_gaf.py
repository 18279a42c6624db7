"""GAF encoding tests: closed-form landmark values, algebraic identities,
and the PGM export round trip."""

import numpy as np
import pytest

from gafnet import gaf


def read_pgm(path):
    with open(path, "rb") as f:
        data = f.read()
    header, payload = data.split(b"\n", 3)[:3], data.split(b"\n", 3)[3]
    magic, dims, maxval = header
    assert magic == b"P5" and maxval == b"255"
    w, h = (int(v) for v in dims.split())
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)


def block_rows(w):
    """The rows in each of gaf_images' blocks at segment length w, by its own
    rule: at least one."""
    return max(1, gaf.IMAGE_BLOCK_BYTES // (8 * w * w))


class TestRescale:
    def test_endpoints_and_midpoint(self):
        assert np.allclose(gaf.rescale([0.0, 5.0, 10.0]), [-1.0, 0.0, 1.0], atol=0)

    def test_constant_maps_to_midpoint(self):
        assert np.array_equal(gaf.rescale([7.0, 7.0, 7.0]), np.zeros(3))

    def test_two_point(self):
        assert np.allclose(gaf.rescale([-3.0, 1.0]), [-1.0, 1.0], atol=0)


class TestAngularEncode:
    """The polar encoding phi = arccos(rescaled value), seen through gaf_transform."""

    def test_landmarks(self):
        # rescaled -1, 0, 1 -> phases pi, pi/2, 0
        phases = np.array([np.pi, np.pi / 2, 0.0])
        m = gaf.gaf_transform([0.0, 5.0, 10.0])
        assert np.allclose(m, np.cos(phases[:, None] + phases[None, :]), atol=1e-15)

    def test_arccos_half(self):
        # rescaled 0.5 -> phase pi/3
        m = gaf.gaf_transform([-1.0, 0.5, 1.0])
        assert np.allclose([m[1, 1], m[1, 2]], [np.cos(2 * np.pi / 3), np.cos(np.pi / 3)], atol=1e-15)

    def test_rounding_overshoot_clamped(self, monkeypatch):
        monkeypatch.setattr(gaf, "rescale", lambda values: np.array([1.0 + 5e-10, -1.0 - 5e-10]))
        assert np.array_equal(gaf.gaf_transform([0.0, 0.0]), [[1.0, -1.0], [-1.0, 1.0]])


class TestGafMatrix:
    """GAF[j, k] = cos(phi_j + phi_k), seen through gaf_transform."""

    def test_landmark_matrix(self):
        m = gaf.gaf_transform([2.0, 1.0, 0.0])  # rescaled 1, 0, -1: phases 0, pi/2, pi
        expected = np.array([[1, 0, -1], [0, -1, 0], [-1, 0, 1]], dtype=float)
        assert np.allclose(m, expected, atol=1e-12)

    def test_single_phase(self):
        # a one-sample segment is constant: rescaled 0, phase pi/2, cos(pi)
        assert np.allclose(gaf.gaf_transform([3.0]), [[-1.0]], atol=0)

    def test_diagonal_double_angle(self):
        rng = np.random.default_rng(0)
        seg = rng.uniform(-3, 3, size=17)
        x = gaf.rescale(seg)
        m = gaf.gaf_transform(seg)
        assert np.allclose(np.diag(m), 2 * x**2 - 1, atol=1e-12)


class TestGafTransform:
    def test_composition_example(self):
        m = gaf.gaf_transform([0.0, 5.0, 10.0])
        expected = np.array([[1, 0, -1], [0, -1, 0], [-1, 0, 1]], dtype=float)
        assert np.allclose(m, expected, atol=1e-12)

    def test_constant_segment_all_minus_one(self):
        m = gaf.gaf_transform([4.0] * 6)
        assert np.allclose(m, -np.ones((6, 6)), atol=1e-12)

    def test_reversal_permutes_consistently(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            seg = rng.standard_normal(5)
            forward = gaf.gaf_transform(seg)
            backward = gaf.gaf_transform(seg[::-1])
            assert np.allclose(backward, forward[::-1, ::-1], atol=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = gaf.gaf_transform(rng.standard_normal(int(rng.integers(2, 60))))
            assert np.array_equal(m, m.T)

    def test_range_and_gram_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            seg = rng.standard_normal(int(rng.integers(2, 60)))
            x = gaf.rescale(seg)
            m = gaf.gaf_transform(seg)
            assert np.all(m >= -1.0 - 1e-12) and np.all(m <= 1.0 + 1e-12)
            assert np.allclose(np.diag(m), 2 * x**2 - 1, atol=1e-12)
            root = np.sqrt(np.clip(1 - x**2, 0.0, None))
            gram = np.outer(x, x) - np.outer(root, root)
            assert np.allclose(m, gram, atol=1e-9)

    def test_shift_scale_invariance(self):
        rng = np.random.default_rng(4)
        seg = rng.standard_normal(40)
        base = gaf.gaf_transform(seg)
        mapped = gaf.gaf_transform(3.7 * seg + 2.0)
        assert np.allclose(base, mapped, atol=1e-9)


def per_window_images(segs):
    """The float32 images as the per-window float64 definition gives them."""
    return np.stack([gaf.gaf_transform(s) for s in segs]).astype(np.float32)


def assert_within_one_ulp(imgs, ref):
    """Each float32 pixel is at most one float32 ULP from the reference; an
    absolute 1e-15 covers the float64 rounding of the two forms near 0."""
    gap = np.abs(imgs.astype(np.float64) - ref.astype(np.float64))
    assert np.all(gap <= np.spacing(np.abs(ref)).astype(np.float64) + 1e-15)


class TestGafImages:
    @pytest.mark.parametrize("w", [1, 2, 96, 128, 140, 360])
    def test_within_one_ulp_of_per_window_transform(self, w):
        segs = np.random.default_rng(w).standard_normal((5, w))
        imgs = gaf.gaf_images(segs)
        assert imgs.dtype == np.float32 and imgs.shape == (5, w, w) and imgs.flags.c_contiguous
        assert_within_one_ulp(imgs, per_window_images(segs))

    def test_empty_batch(self):
        imgs = gaf.gaf_images(np.empty((0, 140)))
        assert imgs.dtype == np.float32 and imgs.shape == (0, 140, 140)

    def test_single_row(self):
        seg = np.random.default_rng(7).standard_normal((1, 33))
        assert_within_one_ulp(gaf.gaf_images(seg), per_window_images(seg))

    def test_one_past_block_boundary(self):
        w = 140
        rows = gaf.IMAGE_BLOCK_BYTES // (8 * w * w)
        segs = np.random.default_rng(8).standard_normal((rows + 1, w))
        imgs = gaf.gaf_images(segs)
        assert imgs.shape == (rows + 1, w, w)
        assert_within_one_ulp(imgs, per_window_images(segs))
        for r in (0, rows - 1, rows):
            assert np.array_equal(imgs[r], gaf.gaf_images(segs[r:r + 1])[0])

    def test_symmetric_in_range_and_constant_rows(self):
        rng = np.random.default_rng(9)
        segs = rng.standard_normal((12, 64)) * rng.uniform(0.1, 10.0, size=(12, 1))
        segs[[3, 8]] = 2.5
        imgs = gaf.gaf_images(segs)
        assert all(np.array_equal(img, img.T) for img in imgs)
        assert imgs.min() >= -1.0 and imgs.max() <= 1.0
        assert np.array_equal(imgs[[3, 8]], -np.ones((2, 64, 64), dtype=np.float32))

    def test_batched_rescale_matches_rows_byte_for_byte(self):
        rng = np.random.default_rng(10)
        segs = rng.standard_normal((9, 50)) * 3.0 + 1.0
        segs[4] = -0.75
        batched = gaf.rescale(segs)
        assert batched.shape == segs.shape
        for row, seg in zip(batched, segs):
            assert row.tobytes() == gaf.rescale(seg).tobytes()


def outer_product_images(segs):
    """The float32 images as two broadcast outer products and a subtract
    that casts to float32 form them, block by block: gaf_images' earlier
    form, kept as its byte reference."""
    x = gaf.rescale(segs)
    n, w = x.shape
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    out = np.empty((n, w, w), dtype=np.float32)
    rows = max(1, gaf.IMAGE_BLOCK_BYTES // (8 * w * w))
    for start in range(0, n, rows):
        xb, sb = x[start:start + rows], s[start:start + rows]
        np.subtract(xb[:, :, None] * xb[:, None, :], sb[:, :, None] * sb[:, None, :], out=out[start:start + len(xb)])
    return out


class TestGafImagesBytes:
    @pytest.mark.parametrize("w", [24, 96, 128, 140, 360])
    def test_equal_to_outer_products_across_blocks(self, w):
        rows = block_rows(w)
        rng = np.random.default_rng(w + 1)
        segs = rng.standard_normal((2 * rows + 1, w)) * rng.uniform(0.1, 10.0, size=(2 * rows + 1, 1))
        segs[rows] = 1.5  # a constant row
        imgs = gaf.gaf_images(segs)
        assert imgs.tobytes() == outer_product_images(segs).tobytes()
        assert np.array_equal(imgs, np.swapaxes(imgs, 1, 2))

    def test_empty_batch(self):
        segs = np.empty((0, 96))
        assert gaf.gaf_images(segs).tobytes() == outer_product_images(segs).tobytes() == b""


class TestExport:
    def test_value_to_pixel_endpoints(self, tmp_path):
        path = tmp_path / "m.pgm"
        gaf.export_image(np.array([[-1.0, 1.0], [0.0, -1.0]]), path)
        pixels = read_pgm(path)
        assert pixels[0, 0] == 0 and pixels[0, 1] == 255 and pixels[1, 0] == 128

    def test_payload_size(self, tmp_path):
        rng = np.random.default_rng(5)
        m = gaf.gaf_transform(rng.standard_normal(96))
        path = tmp_path / "big.pgm"
        gaf.export_image(m, path)
        with open(path, "rb") as f:
            data = f.read()
        header_len = len(b"P5\n96 96\n255\n")
        assert len(data) - header_len == 96 * 96

    def test_round_trip_quantized(self, tmp_path):
        rng = np.random.default_rng(6)
        m = gaf.gaf_transform(rng.standard_normal(31))
        path = tmp_path / "rt.pgm"
        gaf.export_image(m, path)
        pixels = read_pgm(path)
        expected = np.clip(np.rint((m + 1.0) / 2.0 * 255.0), 0, 255).astype(np.uint8)
        assert np.array_equal(pixels, expected)


def gram_then_cast_images(segs):
    """The images as one float64 stacked Gram matmul over the whole batch,
    then cast to float32: the form gaf_images had before it cast each block
    on its way out, kept as its byte reference."""
    x = gaf.rescale(segs)
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    return np.matmul(np.stack([x, s], axis=-1), np.stack([x, -s], axis=1)).astype(np.float32)


class TestGafImagesCast:
    @pytest.mark.parametrize("w", [2, 24, 96, 140, 360])
    @pytest.mark.parametrize("edge", [-1, 0, 1])
    def test_equal_to_gram_then_cast_at_block_edges(self, w, edge):
        n = 2 * block_rows(w) + edge  # around the second block edge, which every w has
        rng = np.random.default_rng(100 * w + edge)
        segs = rng.standard_normal((n, w)) * rng.uniform(0.1, 10.0, size=(n, 1))
        segs[n // 2] = -0.25  # a constant segment, whose image is all -1
        imgs = gaf.gaf_images(segs)
        assert imgs.dtype == np.float32 and imgs.shape == (n, w, w) and imgs.flags.c_contiguous
        assert imgs.tobytes() == gram_then_cast_images(segs).tobytes()
        assert np.array_equal(imgs[n // 2], -np.ones((w, w), dtype=np.float32))

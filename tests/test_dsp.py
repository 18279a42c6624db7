"""Filtering, normalization, and windowing tests.

The frequency-response oracle evaluates the biquad cascade's transfer
function on the unit circle with plain complex arithmetic, independent of
the design and filtering code paths.
"""

import numpy as np
import pytest

from gafnet import dsp


def freq_response_db(coeffs: dsp.FilterCoefficients, f_hz: float, fs: float) -> float:
    """|H(e^{j 2 pi f / fs})| in dB via direct complex evaluation."""
    z = np.exp(1j * 2 * np.pi * f_hz / fs)
    h = 1.0 + 0.0j
    for b0, b1, b2, a0, a1, a2 in coeffs.sos:
        num = b0 + b1 / z + b2 / z**2
        den = a0 + a1 / z + a2 / z**2
        h *= num / den
    mag = abs(h)
    return -np.inf if mag == 0 else 20.0 * np.log10(mag)


def make_signal(values, fs=180.0):
    return dsp.Signal(samples=np.asarray(values, dtype=float), fs=fs)


class TestDesign:
    def test_center_frequency_near_unity_gain(self):
        coeffs = dsp.design_butterworth(4, 0.5, 40.0, 180.0)
        fc = np.sqrt(0.5 * 40.0)
        assert abs(freq_response_db(coeffs, fc, 180.0)) < 1.0

    def test_dc_heavily_attenuated(self):
        coeffs = dsp.design_butterworth(4, 0.5, 40.0, 180.0)
        assert freq_response_db(coeffs, 0.0, 180.0) < -40.0

    def test_60hz_vs_10hz_separation(self):
        coeffs = dsp.design_butterworth(4, 0.5, 40.0, 180.0)
        gap = freq_response_db(coeffs, 10.0, 180.0) - freq_response_db(coeffs, 60.0, 180.0)
        assert gap >= 20.0

    def test_invalid_cutoffs_rejected(self):
        with pytest.raises(ValueError):
            dsp.design_butterworth(4, 40.0, 0.5, 180.0)
        with pytest.raises(ValueError):
            dsp.design_butterworth(4, 0.5, 95.0, 180.0)
        with pytest.raises(ValueError):
            dsp.design_butterworth(0, 0.5, 40.0, 180.0)

    def test_stability_across_random_cutoffs(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            fs = rng.uniform(100.0, 1000.0)
            f_l = rng.uniform(0.01, 0.3) * fs / 2
            f_h = rng.uniform(0.5, 0.95) * fs / 2
            order = int(rng.integers(1, 9))
            coeffs = dsp.design_butterworth(order, f_l, f_h, fs)
            for row in coeffs.sos:
                assert np.all(np.abs(np.roots(row[3:])) < 1.0)


class TestApplyFilter:
    @pytest.fixture
    def coeffs(self):
        return dsp.design_butterworth(4, 0.5, 40.0, 180.0)

    def test_zero_input_zero_output(self, coeffs):
        out = dsp.apply_filter(coeffs, make_signal(np.zeros(100)))
        assert np.array_equal(out.samples, np.zeros(100))

    def test_passband_sine_amplitude_preserved(self, coeffs):
        fs = 180.0
        t = np.arange(int(5 * fs)) / fs
        sig = make_signal(np.sin(2 * np.pi * 10.0 * t), fs)
        out = dsp.apply_filter(coeffs, sig)
        steady = out.samples[int(fs) :]
        amplitude = np.sqrt(2.0) * np.sqrt(np.mean(steady**2))
        assert abs(amplitude - 1.0) < 0.10

    def test_dc_decays_toward_zero(self, coeffs):
        out = dsp.apply_filter(coeffs, make_signal(np.ones(2000)))
        assert np.max(np.abs(out.samples[-100:])) < 0.01

    def test_linearity(self, coeffs):
        rng = np.random.default_rng(1)
        x = make_signal(rng.standard_normal(300))
        y = make_signal(rng.standard_normal(300))
        a, b = 2.3, -0.7
        combined = dsp.apply_filter(coeffs, make_signal(a * x.samples + b * y.samples))
        separate = a * dsp.apply_filter(coeffs, x).samples + b * dsp.apply_filter(coeffs, y).samples
        assert np.allclose(combined.samples, separate, atol=1e-9)

    def test_forward_backward_zero_phase(self, coeffs):
        # away from the edges, a passband sine comes out phase-aligned with
        # the input at the squared magnitude gain
        fs, f = 180.0, 10.0
        t = np.arange(int(20 * fs)) / fs
        out = dsp.apply_filter(coeffs, make_signal(np.sin(2 * np.pi * f * t), fs), mode="forward-backward")
        assert len(out) == t.size
        mid = slice(int(5 * fs), int(15 * fs))
        in_phase = 2.0 * np.mean(out.samples[mid] * np.sin(2 * np.pi * f * t[mid]))
        quadrature = 2.0 * np.mean(out.samples[mid] * np.cos(2 * np.pi * f * t[mid]))
        expected_gain = 10.0 ** (2 * freq_response_db(coeffs, f, fs) / 20.0)
        assert abs(quadrature) < 1e-3
        assert abs(in_phase - expected_gain) < 1e-3


class TestNormalize:
    def test_three_point_example(self):
        out = dsp.normalize(make_signal([1.0, 2.0, 3.0]))
        expected = np.array([-1.0, 0.0, 1.0]) * np.sqrt(3.0 / 2.0)
        assert np.allclose(out.samples, expected, atol=1e-12)

    def test_moments(self):
        rng = np.random.default_rng(2)
        out = dsp.normalize(make_signal(rng.standard_normal(500) * 3 + 7))
        assert abs(out.samples.mean()) < 1e-12
        assert abs(np.sqrt(np.mean(out.samples**2)) - 1.0) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        once = dsp.normalize(make_signal(rng.standard_normal(64)))
        twice = dsp.normalize(once)
        assert np.allclose(once.samples, twice.samples, atol=1e-12)

    def test_scale_shift_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(64)
        base = dsp.normalize(make_signal(x))
        mapped = dsp.normalize(make_signal(2.5 * x + 11.0))
        assert np.allclose(base.samples, mapped.samples, atol=1e-9)

    def test_constant_maps_to_zeros(self):
        out = dsp.normalize(make_signal([5.0, 5.0, 5.0, 5.0]))
        assert np.array_equal(out.samples, np.zeros(4))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            dsp.normalize(make_signal([1.0]))


class TestSegment:
    def test_overlap_example(self):
        sig = make_signal(np.arange(1, 9, dtype=float))
        segs = dsp.segment(sig, 4, 2)
        assert len(segs) == 3
        assert segs.tolist() == [[1, 2, 3, 4], [3, 4, 5, 6], [5, 6, 7, 8]]

    def test_single_full_window(self):
        sig = make_signal(np.arange(6, dtype=float))
        (seg,) = dsp.segment(sig, 6, 3)
        assert np.array_equal(seg, sig.samples)

    def test_trailing_samples_dropped(self):
        sig = make_signal(np.arange(10, dtype=float))
        segs = dsp.segment(sig, 4, 0)
        assert len(segs) == 2
        assert np.array_equal(segs[1], np.arange(4, 8, dtype=float))

    def test_window_longer_than_signal(self):
        with pytest.raises(ValueError):
            dsp.segment(make_signal(np.arange(4, dtype=float)), 5, 0)

    def test_zero_overlap_tiles_prefix(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(23)
        segs = dsp.segment(make_signal(x), 5, 0)
        tiled = segs.reshape(-1)
        assert np.array_equal(tiled, x[: len(tiled)])

    def test_count_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            t = int(rng.integers(5, 200))
            w = int(rng.integers(2, t + 1))
            o = int(rng.integers(0, w))
            segs = dsp.segment(make_signal(np.zeros(t)), w, o)
            assert len(segs) == (t - w) // (w - o) + 1


class TestPreprocess:
    def test_whole_series_no_filter(self):
        rng = np.random.default_rng(7)
        raw = make_signal(rng.standard_normal(96))
        cfg = dsp.PreprocessConfig(enable_filter=False, window=None, overlap=0)
        (seg,) = dsp.preprocess(raw, cfg)
        assert np.allclose(seg, dsp.normalize(raw).samples, atol=0)

    def test_whole_signal_normalization_not_per_window(self):
        # independent two-step script: normalize everything, then window
        rng = np.random.default_rng(8)
        raw = make_signal(rng.standard_normal(100))
        cfg = dsp.PreprocessConfig(enable_filter=False, window=20, overlap=5)
        segs = dsp.preprocess(raw, cfg)
        normed = (raw.samples - raw.samples.mean()) / np.sqrt(np.mean((raw.samples - raw.samples.mean()) ** 2))
        for i, seg in enumerate(segs):
            start = i * 15
            assert np.allclose(seg, normed[start : start + 20], atol=1e-12)

    def test_filtered_pipeline_count(self):
        rng = np.random.default_rng(9)
        raw = make_signal(rng.standard_normal(400), fs=180.0)
        cfg = dsp.PreprocessConfig(enable_filter=True, window=64, overlap=16)
        segs = dsp.preprocess(raw, cfg)
        assert len(segs) == (400 - 64) // 48 + 1

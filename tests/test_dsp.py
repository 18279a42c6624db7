"""Filtering, normalization, and windowing tests.

The frequency-response oracle evaluates the biquad cascade's transfer
function on the unit circle with plain complex arithmetic, independent of
the design and filtering code paths.
"""

import numpy as np
import pytest
from scipy import signal as sps

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


def random_designs():
    """25 (order, f_l, f_h, fs) draws, many of them wide bands."""
    rng = np.random.default_rng(0)
    for _ in range(25):
        fs = rng.uniform(100.0, 1000.0)
        f_l = rng.uniform(0.01, 0.3) * fs / 2
        f_h = rng.uniform(0.5, 0.95) * fs / 2
        yield int(rng.integers(1, 9)), f_l, f_h, fs


def scipy_filter(coeffs, values, mode):
    """What `apply_filter` computed with `scipy.signal.sosfilt`."""
    sos = np.array(coeffs.sos)  # sosfilt rejects the design's read-only array
    y = sps.sosfilt(sos, values, axis=-1)
    if mode == "forward-backward":
        y = sps.sosfilt(sos, y[..., ::-1], axis=-1)[..., ::-1]
    return np.ascontiguousarray(y)


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
        for order, f_l, f_h, fs in random_designs():
            coeffs = dsp.design_butterworth(order, f_l, f_h, fs)
            for row in coeffs.sos:
                assert np.all(np.abs(np.roots(row[3:])) < 1.0)

    @pytest.mark.parametrize("order", range(1, 9))
    def test_sections_are_scipys_bytes(self, order):
        # the random bands at every order, wide ones included: their real
        # poles take zpk2sos's real-pole pairing
        bands = [(f_l, f_h, fs) for _order, f_l, f_h, fs in random_designs()] + [(0.5, 40.0, 360.0)]
        for f_l, f_h, fs in bands:
            want = sps.butter(order, [f_l, f_h], btype="bandpass", output="sos", fs=fs)
            got = dsp.design_butterworth(order, f_l, f_h, fs).sos
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (order, f_l, f_h, fs)

    def test_repeated_design_is_shared_and_read_only(self):
        a = dsp.design_butterworth(4, 0.5, 40.0, 360.0)
        want = a.sos.copy()
        # the design is shared between callers, so no caller may edit it
        with pytest.raises(ValueError):
            a.sos[0, 0] = 7.0
        b = dsp.design_butterworth(4, 0.5, 40.0, 360.0)
        assert b is a and np.array_equal(b.sos, want)
        # the coefficients given to the dataclass are copied, not frozen in place
        mine = want.copy()
        coeffs = dsp.FilterCoefficients(sos=mine)
        assert mine.flags.writeable and not np.shares_memory(coeffs.sos, mine)

    def test_section_without_unit_a0_rejected(self):
        # the cascade divides by no a0, so a section must come normalised
        sos = dsp.design_butterworth(4, 0.5, 40.0, 360.0).sos.copy()
        sos[1, 3:] *= 2.0
        with pytest.raises(ValueError, match="a0"):
            dsp.FilterCoefficients(sos=sos)

    @pytest.mark.parametrize("mode", ["single-pass", "forward-backward"])
    def test_filtered_beats_match_uncached_design(self, mode):
        # every beat of a record runs the same design; each must filter as a fresh scipy design does
        rng = np.random.default_rng(3)
        cfg = dsp.PreprocessConfig(enable_filter=True, filter_mode=mode)
        for _beat in range(5):
            raw = make_signal(rng.standard_normal(128), fs=360.0)
            sos = sps.butter(cfg.order, [cfg.f_l, cfg.f_h], btype="bandpass", output="sos", fs=360.0)
            filtered = dsp.apply_filter(dsp.FilterCoefficients(sos), raw, mode)
            (expected,) = dsp.segment(dsp.normalize(filtered), 128, 0)
            (got,) = dsp.preprocess(raw, cfg)
            assert got.tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("mode", ["single-pass", "forward-backward"])
    @pytest.mark.parametrize("shape", [(300,), (7, 128), (2, 3, 50), (5, 3), (4, 1), (1,)],
                             ids=["1d", "2d", "3d", "shorter-than-cascade", "one-sample", "lone-sample"])
    def test_output_is_scipys_bytes(self, mode, shape):
        rng = np.random.default_rng(11)
        values = rng.standard_normal(shape) * 40.0
        for order, f_l, f_h, fs in [(4, 0.5, 40.0, 360.0), (8, 1.0, 170.0, 360.0), *random_designs()]:
            coeffs = dsp.design_butterworth(order, f_l, f_h, fs)
            want = scipy_filter(coeffs, values, mode)
            got = dsp.apply_filter(coeffs, make_signal(values, fs), mode).samples
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (order, f_l, f_h, fs)

    @pytest.mark.parametrize("mode", ["single-pass", "forward-backward"])
    def test_zero_input_is_scipys_bytes(self, mode):
        # on zeros of either sign, the sign of each output zero depends on the
        # signs of the zeros the sections' states start from and step through;
        # at every order S, series of 1, S - 1, S and S + 1 samples end near
        # where the cascade fills
        values = np.zeros((3, 40))
        values[1], values[2, ::3] = -0.0, -0.0
        cases = [(order, f_l, f_h, fs, 40) for order, f_l, f_h, fs in [(4, 0.5, 40.0, 360.0), *random_designs()]]
        cases += [(order, f_l, f_h, 360.0, t) for order in range(1, 9) for f_l, f_h in [(0.5, 40.0), (1.0, 170.0)]
                  for t in sorted({1, max(order - 1, 1), order, order + 1})]
        for order, f_l, f_h, fs, t in cases:
            coeffs = dsp.design_butterworth(order, f_l, f_h, fs)
            got = dsp.apply_filter(coeffs, make_signal(values[:, :t], fs), mode).samples
            assert got.tobytes() == scipy_filter(coeffs, values[:, :t], mode).tobytes(), (order, f_l, f_h, fs, t)

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


class TestBatched:
    """A batch of series along the last axis gives, series by series, the
    bytes that one call per series gives."""

    @staticmethod
    def assert_rows_match(values, cfg, fs=360.0):
        batched = dsp.preprocess(dsp.Signal(samples=values, fs=fs), cfg)
        assert batched.shape[0] == len(values)
        for row, got in zip(values, batched):
            want = dsp.preprocess(dsp.Signal(samples=row, fs=fs), cfg)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "cfg",
        [
            dsp.PreprocessConfig(),
            dsp.PreprocessConfig(enable_filter=True),
            dsp.PreprocessConfig(enable_filter=True, filter_mode="forward-backward"),
            dsp.PreprocessConfig(window=40, overlap=15),
            dsp.PreprocessConfig(enable_filter=True, filter_mode="forward-backward", window=64, overlap=63),
        ],
        ids=["plain", "single-pass", "forward-backward", "overlap", "filtered-overlap"],
    )
    def test_preprocess_matches_per_series_calls(self, cfg):
        rng = np.random.default_rng(20)
        values = rng.standard_normal((11, 200)) * rng.uniform(0.1, 50.0, size=(11, 1)) + 3.0
        values[[2, 7]] = -4.25  # constant rows normalize to zeros, with no warning
        self.assert_rows_match(values, cfg)

    def test_non_contiguous_values(self):
        rng = np.random.default_rng(21)
        base = rng.standard_normal((300, 18))
        cfg = dsp.PreprocessConfig(enable_filter=True, window=30, overlap=10)
        for values in (base.T, base[::2, ::3].T, base.T[:, ::-1]):
            assert not values.flags.c_contiguous
            self.assert_rows_match(values, cfg)
            self.assert_rows_match(np.ascontiguousarray(values), cfg)

    def test_windows_of_each_series(self):
        values = np.arange(30, dtype=float).reshape(3, 10)
        segs = dsp.segment(dsp.Signal(samples=values, fs=1.0), 4, 1)
        assert segs.shape == (3, 3, 4)
        assert np.array_equal(segs[1], [[10, 11, 12, 13], [13, 14, 15, 16], [16, 17, 18, 19]])

    def test_batch_signal_checks(self):
        sig = dsp.Signal(samples=np.ones((4, 6)), fs=2.0)
        assert len(sig) == 6 and sig.samples.shape == (4, 6)
        assert np.array_equal(dsp.normalize(sig).samples, np.zeros((4, 6)))
        with pytest.raises(ValueError):
            dsp.Signal(samples=np.ones((3, 0)), fs=1.0)
        with pytest.raises(ValueError):
            dsp.Signal(samples=np.array(1.0), fs=1.0)
        with pytest.raises(ValueError):
            dsp.Signal(samples=[[1.0, 2.0], [np.nan, 1.0]], fs=1.0)
        with pytest.raises(ValueError):
            dsp.normalize(dsp.Signal(samples=np.ones((3, 1)), fs=1.0))

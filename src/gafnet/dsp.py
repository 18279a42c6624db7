"""ECG signal preprocessing: bandpass filtering, normalization, windowing."""

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataFormatError, GafnetError

DEGENERATE_STD = 1e-12


@dataclass(frozen=True)
class Signal:
    """Sampled waveforms with their sampling frequency in Hz.

    `samples` holds one series of T samples, shape (T,), or a batch of
    equal-length series along the last axis, shape (..., T); every function
    below works on each series independently. It is stored as a
    C-contiguous float64 copy when it is not one already, so each series'
    reductions run in the same order whether it comes alone or in a batch.
    `len()` is T.
    """

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64, order="C")
        object.__setattr__(self, "samples", arr)
        if arr.ndim == 0 or arr.size == 0:
            raise DataFormatError("signal must be a nonempty array of series along the last axis")
        if not np.all(np.isfinite(arr)):
            raise DataFormatError("signal contains non-finite samples")
        if not (np.isfinite(self.fs) and self.fs > 0):
            raise DataFormatError(f"sampling frequency must be finite and > 0, got {self.fs!r}")

    def __len__(self):
        return self.samples.shape[-1]


@dataclass(frozen=True)
class FilterCoefficients:
    """Cascaded second-order sections of a bandpass filter.

    `sos` has shape (n_sections, 6): rows are (b0, b1, b2, 1, a1, a2). It
    is a read-only copy: `design_butterworth` hands one object to every caller.
    The sections are all a filter holds; its band and order are the design's
    arguments.
    """

    sos: np.ndarray

    def __post_init__(self):
        sos = np.array(self.sos, dtype=np.float64)
        sos.flags.writeable = False
        object.__setattr__(self, "sos", sos)
        if sos.ndim != 2 or sos.shape[1] != 6:
            raise ValueError("sos must have shape (n_sections, 6)")
        if np.any(sos[:, 3] != 1.0):
            raise ValueError("each section's a0 must be 1")
        for row in sos:
            poles = np.roots(row[3:])
            if np.any(np.abs(poles) >= 1.0):
                raise GafnetError("unstable filter design: pole on or outside unit circle")


@dataclass
class PreprocessConfig:
    """Preprocessing parameters.

    `window` of None means one window spanning the whole signal (the default
    for fixed-length UCR series, where each series carries a single label).
    """

    f_l: float = 0.5
    f_h: float = 40.0
    order: int = 4
    window: Optional[int] = None
    overlap: int = 0
    filter_mode: str = "single-pass"
    enable_filter: bool = False

    def __post_init__(self):
        if self.window is not None:
            if self.window < 2:
                raise ConfigError("window must be >= 2")
            if not 0 <= self.overlap < self.window:
                raise ConfigError("overlap must satisfy 0 <= o < w")
        if self.filter_mode not in ("single-pass", "forward-backward"):
            raise ConfigError(f"unknown filter_mode {self.filter_mode!r}")


@lru_cache(maxsize=16)
def design_butterworth(order: int, f_l: float, f_h: float, fs: float) -> FilterCoefficients:
    """Design a Butterworth bandpass filter as cascaded biquads.

    Bilinear transform with frequency pre-warping; `order` is the analog
    prototype order (the digital bandpass has twice as many poles). The
    sections are the bytes of `scipy.signal.butter(order, [f_l, f_h],
    btype="bandpass", output="sos", fs=fs)`: the same numpy operations in
    the same order. Each parameter set is designed and checked once:
    `preprocess` asks for the same filter for every dataset of a run, and
    every call gets the same object.
    """
    if not 1 <= order <= 8:
        raise ConfigError("order must be in [1, 8]")
    if not (0 < f_l < f_h < fs / 2):
        raise ConfigError(f"cutoffs must satisfy 0 < f_l < f_h < fs/2, got {f_l}, {f_h} at fs={fs}")
    # analog lowpass prototype: `order` poles on the left unit half circle
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    p = -np.exp(1j * np.pi * m / (2 * order))
    # band edges pre-warped for a bilinear transform at fs = 2
    warped = 4.0 * np.tan(np.pi * (np.asarray([f_l, f_h], dtype=np.float64) / (float(fs) / 2)) / 2.0)
    bw, wo = float(warped[1] - warped[0]), float(np.sqrt(warped[0] * warped[1]))
    # lowpass to bandpass: each pole splits in two around ±wo, and `order` zeros go to s = 0
    p_lp = p * bw / 2
    p = np.concatenate((p_lp + np.sqrt(p_lp**2 - wo**2), p_lp - np.sqrt(p_lp**2 - wo**2)))
    # bilinear transform s -> (4 + s) / (4 - s): the zeros at s = 0 go to z = 1, those at infinity to z = -1
    k = bw**order * np.real(np.prod(np.full(order, 4.0 + 0j)) / np.prod(4.0 - p))
    p = (4.0 + p) / (4.0 - p)
    return FilterCoefficients(sos=_zpk2sos(np.repeat([-1.0, 1.0], order), p, k))


def _zpk2sos(z: np.ndarray, p: np.ndarray, k) -> np.ndarray:
    """scipy's `zpk2sos` with its digital 'nearest' pairing, for a
    Butterworth bandpass: the pole nearest the unit circle takes the zeros
    nearest it, and its section goes last; the gain goes into the first
    section. `z` holds the zeros, all ±1, sorted. The poles are sorted as
    scipy's `_cplxreal` sorts them, by real part, then by the size of the
    imaginary part. Butterworth poles come in exact conjugate pairs, so the
    upper member of each pair is scipy's average of the pair, and the
    values within 100 eps of the real axis are its real poles. Those come
    in pairs, so only scipy's general branch (two poles, two real zeros) is
    ever taken."""
    p = p[np.lexsort((abs(p.imag), p.real))]
    is_real = abs(p.imag) <= 100 * np.finfo(np.float64).eps * abs(p)
    p = np.concatenate((p[~is_real & (p.imag > 0)], p[is_real].real))
    sos = np.zeros((len(z) // 2, 6))
    for si in range(len(sos) - 1, -1, -1):
        i = np.argmin(np.abs(1 - np.abs(p)))
        p1, p = p[i], np.delete(p, i)
        if np.isreal(p1):
            real = np.flatnonzero(np.isreal(p))
            i = real[np.argmin(np.abs(1 - np.abs(p[real])))]
            p2, p = p[i], np.delete(p, i)
        else:
            p2 = p1.conj()
        nearest = np.argsort(np.abs(z - p1), kind="stable")[:2]
        sos[si] = np.concatenate((np.poly(z[nearest]), np.poly([p1, p2])))
        z = np.delete(z, nearest)
    sos[0][:3] *= k
    return sos


def apply_filter(coeffs: FilterCoefficients, sig: Signal, mode: str = "single-pass") -> Signal:
    """Run the biquad cascade over each series of a signal.

    single-pass: causal filtering from zero initial state.
    forward-backward: filter, reverse, filter, reverse -- zero phase with the
    squared magnitude response. Output length equals input length either way.
    Each pass gives the bytes of `scipy.signal.sosfilt`.
    """
    if mode not in ("single-pass", "forward-backward"):
        raise ValueError(f"unknown filter mode {mode!r}")
    x = sig.samples
    # time along the first axis, the series along the second: each step of
    # the recursion reads and writes one contiguous row of every section;
    # S - 1 rows before and after the samples let every step run all S sections
    pad = len(coeffs.sos) - 1
    y = np.zeros((x.shape[-1] + 2 * pad, x.size // x.shape[-1]))
    y[pad : len(y) - pad] = x.reshape(-1, x.shape[-1]).T
    _sosfilt(coeffs.sos, y)
    if mode == "forward-backward":
        _sosfilt(coeffs.sos, y[::-1])
    return Signal(samples=y[pad : len(y) - pad].T.reshape(x.shape), fs=sig.fs)


def _sosfilt(sos: np.ndarray, x: np.ndarray) -> None:
    """Filter the samples of the (T + 2(S − 1), rows) array `x` in place
    along its first axis, from zero state, as scipy's `sosfilt` does; the
    S − 1 rows before and after them are room for the cascade to fill and
    drain, and what they hold never reaches the samples. Per sample and
    section,

        y = b0·x + z0;  z0 = (b1·x − a1·y) + z1;  z1 = b2·x − a2·y.

    All S sections step at once as a wavefront: at step n section s takes
    row n + S − 1 − s, which section s − 1 wrote at step n − 1, and writes
    its own output over it, so rows n .. n + S − 1 of `x` hold sections
    S − 1 .. 0. The coefficients and states are laid out in that order,
    (product, section, row). While the cascade fills, the sections still
    in the leading rows get a zero state after each step, so each section
    meets its first sample from +0.0, as `sosfilt` starts."""
    n_sec = len(sos)
    b = np.repeat(sos[::-1, :3].T[:, :, None], x.shape[1], axis=2)  # (3, S, rows)
    a = np.repeat(sos[::-1, 4:].T[:, :, None], x.shape[1], axis=2)  # (2, S, rows)
    bx, ay = np.empty_like(b), np.empty_like(a)
    states = np.zeros((2,) + a.shape)  # (z0, z1) before and after a step, in turn
    # what a step reads and writes, for even and odd n
    views = [(states[p][0], states[p][1], states[1 - p], states[1 - p][0]) for p in (0, 1)]
    bx0, bx12 = bx[0], bx[1:]
    for n in range(len(x) - n_sec + 1):
        z0, z1, z_next, z0_next = views[n % 2]
        rows = x[n : n + n_sec]
        np.multiply(b, rows, out=bx)
        np.add(bx0, z0, out=rows)
        np.multiply(a, rows, out=ay)
        np.subtract(bx12, ay, out=z_next)
        np.add(z0_next, z1, out=z0_next)
        if n < n_sec - 1:
            z_next[:, : n_sec - 1 - n] = 0.0


def normalize(sig: Signal) -> Signal:
    """Map each series to zero mean and unit population standard deviation.

    A degenerate (constant) series maps to all zeros instead of dividing by
    a vanishing std.
    """
    x = sig.samples
    if len(sig) < 2:
        raise DataFormatError("normalize requires at least 2 samples")
    centered = x - x.mean(axis=-1, keepdims=True)
    std = np.sqrt(np.mean(centered**2, axis=-1, keepdims=True))
    out = np.divide(centered, std, out=np.zeros_like(x), where=std >= DEGENERATE_STD)
    return Signal(samples=out, fs=sig.fs)


def segment(sig: Signal, window: int, overlap: int) -> np.ndarray:
    """Cut each series into fixed windows of size `window` with `overlap`
    shared samples.

    Returns a (..., n, window) read-only view of the samples: window i of a
    series covers its samples [i*(w-o), i*(w-o)+w); trailing samples that do
    not fill a window are dropped. One series (T,) gives (n, window).
    """
    t = len(sig)
    if window > t:
        raise ConfigError(f"window {window} longer than signal {t}")
    if not 0 <= overlap < window:
        raise ConfigError("overlap must satisfy 0 <= o < w")
    return sliding_window_view(sig.samples, window, axis=-1)[..., :: window - overlap, :]


def preprocess(raw: Signal, cfg: PreprocessConfig) -> np.ndarray:
    """Filter (optional) -> normalize -> segment each series into a
    (..., n, w) array."""
    sig = raw
    if cfg.enable_filter:
        coeffs = design_butterworth(cfg.order, cfg.f_l, cfg.f_h, sig.fs)
        sig = apply_filter(coeffs, sig, cfg.filter_mode)
    sig = normalize(sig)
    w = cfg.window if cfg.window is not None else len(sig)
    return segment(sig, w, cfg.overlap)

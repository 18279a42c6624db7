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
        if self.fs <= 0:
            raise DataFormatError("sampling frequency must be positive")

    def __len__(self):
        return self.samples.shape[-1]


@dataclass(frozen=True)
class FilterCoefficients:
    """Cascaded second-order sections of a bandpass filter.

    `sos` has shape (n_sections, 6): rows are (b0, b1, b2, 1, a1, a2). It
    is a read-only copy: `design_butterworth` hands one object to every caller.
    """

    sos: np.ndarray
    f_l: float
    f_h: float
    order: int

    def __post_init__(self):
        sos = np.array(self.sos, dtype=np.float64)
        sos.flags.writeable = False
        object.__setattr__(self, "sos", sos)
        if sos.ndim != 2 or sos.shape[1] != 6:
            raise ValueError("sos must have shape (n_sections, 6)")
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
    prototype order (the digital bandpass has twice as many poles). Each
    parameter set is designed and checked once: `preprocess` asks for the
    same filter for every dataset of a run, and every call gets the same
    object. scipy is imported here and in `apply_filter`, not with the
    module, so a run that never filters does not load `scipy.signal`.
    """
    from scipy import signal as sps

    if not 1 <= order <= 8:
        raise ConfigError("order must be in [1, 8]")
    if not (0 < f_l < f_h < fs / 2):
        raise ConfigError(f"cutoffs must satisfy 0 < f_l < f_h < fs/2, got {f_l}, {f_h} at fs={fs}")
    sos = sps.butter(order, [f_l, f_h], btype="bandpass", output="sos", fs=fs)
    return FilterCoefficients(sos=sos, f_l=f_l, f_h=f_h, order=order)


def apply_filter(coeffs: FilterCoefficients, sig: Signal, mode: str = "single-pass") -> Signal:
    """Run the biquad cascade over each series of a signal.

    single-pass: causal filtering from zero initial state.
    forward-backward: filter, reverse, filter, reverse -- zero phase with the
    squared magnitude response. Output length equals input length either way.
    """
    from scipy import signal as sps

    sos = np.array(coeffs.sos)  # scipy's sosfilt rejects a read-only array
    y = sps.sosfilt(sos, sig.samples, axis=-1)
    if mode == "forward-backward":
        y = sps.sosfilt(sos, y[..., ::-1], axis=-1)[..., ::-1]
    elif mode != "single-pass":
        raise ValueError(f"unknown filter mode {mode!r}")
    return Signal(samples=y, fs=sig.fs)


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

"""A fixed reference kernel that measures how fast the machine runs right now.

The machine the benchmark runs on is shared: its speed changes by a third
or more from one second to the next and from one minute to the next, in
process CPU time as much as in wall time. A run of gafnet alone cannot
tell a slower program from a slower machine. So an untraced run also times
a fixed reference kernel every `INTERVAL_S`, between the training steps and
predicted batches too, and converts each stretch of wall time between two
samples into reference seconds: wall seconds divided by how much slower
than `NOMINAL_S` the samples nearest to it ran (their median). A phase timed in reference
seconds takes about as long as it would on the reference machine.

The kernel does numpy work of the kinds gafnet spends its time on: a
strided 2-D convolution as an einsum over a sliding-window view with a
ReLU, and an LSTM recurrence of GEMMs and nonlinearities stepped from
Python. It uses nothing from gafnet, so a change to gafnet cannot change
it.
"""

import functools
import statistics
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

# Kernel part times on the reference machine (README, "Reference figures"),
# one BLAS thread.
NOMINAL_S = {"small": 0.0104, "large": 0.0235}
# Seconds of other work between two samples; the kernel then takes about 6%
# of a run.
INTERVAL_S = 0.6


class ReferenceKernel:
    """Inputs are made once; each part redoes the same work every time.

    `small` works on batches of 16, as a training step does: its time goes
    mostly to numpy's per-call overhead and to the Python around it.
    `large` works on batches of 64 and 128, as a predicted batch does, and
    writes a fresh 46 MB array: its time goes to the arithmetic and memory
    traffic of big arrays and to the page faults of memory the allocator
    maps anew for every array over 32 MB, as the window einsums of a batch
    of 256 do. The two slow down by different amounts when the machine is
    busy, and every gafnet phase mixes both kinds of work, so a sample's
    slowdown is the mean of the two parts'.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small_img = rng.standard_normal((16, 16, 49, 49))
        self.small_kernels = rng.standard_normal((32, 16, 3, 3))
        self.small_seq = rng.standard_normal((16, 48, 64))
        self.large_img = rng.standard_normal((64, 1, 64, 64))
        self.large_kernels = rng.standard_normal((16, 1, 3, 3))
        self.large_seq = rng.standard_normal((128, 8, 64))
        self.w_x = rng.standard_normal((256, 64)) * 0.1
        self.w_h = rng.standard_normal((256, 64)) * 0.1

    @staticmethod
    def _conv_relu(img, kernels):
        win = sliding_window_view(img, (3, 3), axis=(-2, -1))[:, :, ::2, ::2]
        y = np.einsum("bchwkl,ockl->bohw", win, kernels, optimize=True)
        return np.maximum(y, 0.0)

    def _lstm(self, seq):
        bsz = seq.shape[0]
        h = np.zeros((bsz, 64))
        c = np.zeros((bsz, 64))
        for t in range(seq.shape[1]):
            z = seq[:, t] @ self.w_x.T + h @ self.w_h.T
            i, f, o = expit(z[:, :64]), expit(z[:, 64:128]), expit(z[:, 192:])
            c = f * c + i * np.tanh(z[:, 128:192])
            h = o * np.tanh(c)
        return h

    def small(self):
        y = self._conv_relu(self.small_img, self.small_kernels)
        return float(y[0, 0, 0, 0] + self._lstm(self.small_seq)[0, 0])

    def large(self):
        y = self._conv_relu(self.large_img, self.large_kernels)
        fresh = np.full(6_000_000, y[0, 0, 0, 0])
        return float(fresh[-1] + self._lstm(self.large_seq)[0, 0])


class Speedometer:
    """Samples the reference kernel through a run and converts wall time
    into reference seconds.

    `maybe_sample()` times both kernel parts if `INTERVAL_S` of other work
    has passed since the last sample. `install(model)` calls it before every
    `model.forward`, which `optim.train` and `model.predict_probs` both look
    up at call time. The wall time between two samples is one segment; the
    samples themselves belong to no segment, so `seconds()` leaves them out.
    """

    def __init__(self):
        self.kernel = ReferenceKernel()
        self.parts = {"small": self.kernel.small, "large": self.kernel.large}
        # Slowdown of every sample in order: the mean over the parts of
        # their time over their NOMINAL_S.
        self.samples = []
        # (start, end) of the work between sample i and sample i + 1.
        self.segments = []
        self._restore = None
        for part in self.parts.values():
            part()  # warm-up, not kept
        self.next_at = 0.0
        self.maybe_sample()

    def maybe_sample(self):
        now = time.perf_counter()
        if now < self.next_at:
            return
        if self.samples:
            self.segments.append((self.open_at, now))
        slowdowns = []
        for name, part in self.parts.items():
            t0 = time.perf_counter()
            part()
            slowdowns.append((time.perf_counter() - t0) / NOMINAL_S[name])
        self.samples.append(statistics.fmean(slowdowns))
        self.open_at = time.perf_counter()
        self.next_at = self.open_at + INTERVAL_S

    def close(self):
        """Ends the open segment with a last sample; call once, after the
        last timed phase."""
        self.next_at = 0.0
        self.maybe_sample()

    def seconds(self, start, end, near):
        """Reference seconds in the wall interval [start, end]: each
        segment's wall time in it over the median slowdown of the 2 × `near`
        samples nearest to the segment, `near` on either side. With `near`
        0, wall seconds without the samples."""
        total = 0.0
        for i, (s, e) in enumerate(self.segments):
            overlap = min(e, end) - max(s, start)
            if overlap > 0:
                if near:
                    overlap /= statistics.median(self.samples[max(0, i + 1 - near) : i + 1 + near])
                total += overlap
        return total

    def install(self, model):
        original = model.forward

        @functools.wraps(original)
        def forward(*args, **kwargs):
            self.maybe_sample()
            return original(*args, **kwargs)

        model.forward = forward
        self._restore = (model, original)

    def uninstall(self):
        if self._restore is not None:
            model, original = self._restore
            model.forward = original
            self._restore = None

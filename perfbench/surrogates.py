"""Seeded synthetic inputs shaped like the paper's three datasets, and the
file writers that put them on disk in the formats gafnet reads.

Every beat is a sum of Gaussian waves (P, Q, R, S, T) whose placement,
width and sign depend on the class, plus per-beat jitter, baseline wander
and white noise. The classes differ in morphology a convolutional model
can see in both the raw window and its GAF image, so a short training run
separates them.

The writers are independent of gafnet: UCR text rows, a WFDB header, a
format-212 packer and an MIT annotation encoder.
"""

import numpy as np

# (center, width, amplitude) of each wave on a window scaled to [0, 1).
_NORMAL = ((0.20, 0.025, 0.15), (0.33, 0.008, -0.10), (0.36, 0.012, 1.00), (0.39, 0.010, -0.25), (0.65, 0.050, 0.30))

# ECG200: normal against myocardial infarction (deep Q, raised ST, inverted T).
ECG200_CLASSES = (
    _NORMAL,
    ((0.20, 0.025, 0.15), (0.33, 0.012, -0.40), (0.36, 0.012, 0.80), (0.47, 0.060, 0.30), (0.65, 0.050, -0.35)),
)

# ECG5000: normal, R-on-T PVC, PVC, supraventricular premature, unclassified.
ECG5000_CLASSES = (
    _NORMAL,
    ((0.30, 0.040, 1.10), (0.40, 0.050, -0.70), (0.55, 0.060, -0.40)),
    ((0.36, 0.045, -1.20), (0.62, 0.070, 0.50)),
    ((0.15, 0.030, -0.45), (0.30, 0.010, 1.00), (0.33, 0.010, -0.25), (0.50, 0.030, 0.45)),
    ((0.20, 0.040, 0.10), (0.36, 0.020, 0.40), (0.75, 0.060, 0.60)),
)

# MIT-BIH record: (annotation code, share of beats, RR factor, waves in seconds
# relative to the R peak). The codes are N, L, R, V and A of the 15-type
# vocabulary.
MITBIH_FS = 360.0
MITBIH_RR_S = 0.8
MITBIH_BEATS = (
    (1, 0.40, 1.00, ((-0.15, 0.020, 0.15), (-0.02, 0.006, -0.10), (0.0, 0.010, 1.00), (0.025, 0.008, -0.25), (0.22, 0.040, 0.30))),
    (2, 0.15, 1.00, ((-0.15, 0.020, 0.12), (-0.03, 0.018, 1.00), (0.03, 0.018, 1.00), (0.14, 0.030, -0.60))),
    (3, 0.15, 1.00, ((-0.15, 0.020, 0.15), (0.0, 0.008, 0.40), (0.035, 0.012, -0.70), (0.08, 0.020, 1.40), (0.20, 0.040, -0.30))),
    (5, 0.15, 0.75, ((0.0, 0.045, -1.50), (0.15, 0.040, 0.80))),
    (8, 0.15, 0.65, ((-0.09, 0.020, -0.40), (0.0, 0.010, 1.00), (0.025, 0.008, -0.25), (0.22, 0.040, 0.30))),
)
MITBIH_GAIN = 200.0  # adu per mV
# The 15 beat codes gafnet uses as its WFDB class vocabulary, in ascending
# order: N, L, R, a, V, F, J, A, S, E, j, /, Q, e, f.
MITBIH_VOCABULARY = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 34, 38)
RHYTHM_CODE = 28  # '+' rhythm change, a non-beat annotation carrying aux text


def _waves(t, waves, rng, jitter):
    """Sum of Gaussian waves at times `t`, each jittered in place, width and size."""
    out = np.zeros_like(t)
    for center, width, amp in waves:
        c = center + rng.uniform(-jitter, jitter)
        s = width * rng.uniform(0.9, 1.1)
        a = amp * rng.uniform(0.85, 1.15)
        out += a * np.exp(-0.5 * ((t - c) / s) ** 2)
    return out


def ucr_split(rng, classes, n, w, noise=0.03):
    """`n` labelled series of length `w`; labels cycle through the classes
    in a seeded order so every class has floor or ceil of n / C members."""
    labels = rng.permutation(np.arange(n) % len(classes))
    t = np.arange(w) / w
    values = np.empty((n, w))
    for i, label in enumerate(labels):
        beat = _waves(t, classes[label], rng, jitter=0.02)
        wander = 0.1 * np.sin(2 * np.pi * rng.uniform(0.5, 1.5) * t + rng.uniform(0, 2 * np.pi))
        values[i] = beat + wander + noise * rng.standard_normal(w)
    return values, labels


def write_ucr(path, values, labels):
    """One series per line: the integer label, then the values, tab-separated.
    Labels are written 1-based, as in the UCR archive."""
    with open(path, "w") as f:
        for label, row in zip(labels, values):
            f.write("\t".join([str(int(label) + 1)] + [repr(float(v)) for v in row]) + "\n")


def mitbih_record(rng, n_beats):
    """A 2-channel record in adu with its beat annotations.

    Returns (adu of shape (n_samples, 2), beat sample indices, beat codes).
    The record ends shortly after the last beat, too close for a centred
    window, so beat extraction has an edge case to skip.
    """
    codes = np.array([b[0] for b in MITBIH_BEATS])
    shares = np.array([b[1] for b in MITBIH_BEATS])
    kinds = rng.choice(len(MITBIH_BEATS), size=n_beats, p=shares / shares.sum())
    rr = np.array([MITBIH_BEATS[k][2] for k in kinds]) * MITBIH_RR_S * rng.uniform(0.95, 1.05, size=n_beats)
    peaks_s = 3.0 + np.concatenate([[0.0], np.cumsum(rr[1:])])
    n_samples = int((peaks_s[-1] + 0.1) * MITBIH_FS)
    t = np.arange(n_samples) / MITBIH_FS
    mv = np.zeros((n_samples, 2))
    for peak, k in zip(peaks_s, kinds):
        lo = max(0, int((peak - 0.4) * MITBIH_FS))
        hi = min(n_samples, int((peak + 0.5) * MITBIH_FS))
        seg = _waves(t[lo:hi] - peak, MITBIH_BEATS[k][3], rng, jitter=0.004)
        mv[lo:hi, 0] += seg
        mv[lo:hi, 1] += 0.6 * seg
    for ch in range(2):
        mv[:, ch] += 0.2 * np.sin(2 * np.pi * 0.3 * t + rng.uniform(0, 2 * np.pi))
        mv[:, ch] += 0.02 * rng.standard_normal(n_samples)
    adu = np.clip(np.rint(mv * MITBIH_GAIN), -2048, 2047).astype(np.int64)
    peaks = np.rint(peaks_s * MITBIH_FS).astype(np.int64)
    return adu, peaks, codes[kinds]


def wfdb_header(record, n_samples):
    """Header of a 2-channel format-212 record at 360 Hz, gain 200 adu/mV, ADC zero 0."""
    lines = [f"{record} 2 {MITBIH_FS:g} {n_samples}"]
    for desc in ("MLII", "V5"):
        lines.append(f"{record}.dat 212 {MITBIH_GAIN:g} 12 0 0 0 0 {desc}")
    return "\n".join(lines) + "\n"


def pack_212(adu):
    """Pack (n, 2) 12-bit two's-complement samples into format-212 byte triples."""
    u = np.asarray(adu, dtype=np.int64) & 0xFFF
    out = np.empty((u.shape[0], 3), dtype=np.uint8)
    out[:, 0] = u[:, 0] & 0xFF
    out[:, 1] = ((u[:, 0] >> 8) & 0x0F) | (((u[:, 1] >> 8) & 0x0F) << 4)
    out[:, 2] = u[:, 1] & 0xFF
    return out.tobytes()


def _word(code, delta):
    return int((code << 10) | delta).to_bytes(2, "little")


def encode_annotations(peaks, codes):
    """MIT annotation stream: a rhythm annotation with aux text, then one word
    per beat. A delta longer than the 10-bit field goes through a SKIP, as
    the 3 s before the first annotation does."""
    out = bytearray()
    time = 0

    def annotate(sample, code):
        nonlocal time
        delta = int(sample) - time
        if delta > 0x3FF:
            out.extend(_word(59, 0))
            out.extend((delta >> 16).to_bytes(2, "little"))
            out.extend((delta & 0xFFFF).to_bytes(2, "little"))
            delta = 0
        out.extend(_word(code, delta))
        time = int(sample)

    annotate(max(int(peaks[0]) - 5, 0), RHYTHM_CODE)
    aux = b"(N\x00"
    out.extend(_word(63, len(aux)))
    out.extend(aux + b"\x00" * (len(aux) & 1))
    for sample, code in zip(peaks, codes):
        annotate(sample, int(code))
    out.extend(_word(0, 0))
    return bytes(out)


def write_wfdb(prefix, adu, peaks, codes):
    record = prefix.replace("\\", "/").rsplit("/", 1)[-1]
    with open(prefix + ".hea", "w") as f:
        f.write(wfdb_header(record, adu.shape[0]))
    with open(prefix + ".dat", "wb") as f:
        f.write(pack_212(adu))
    with open(prefix + ".atr", "wb") as f:
        f.write(encode_annotations(peaks, codes))

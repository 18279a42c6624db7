"""Output checks computed apart from gafnet.

Each function returns a list of (check name, passed) pairs, so the caller
can count every check as one operation. The reference computations here
use only numpy and the benchmark's own knowledge of what it wrote; none
compares against stored program output.
"""

import hashlib

import numpy as np

F32_EPS = float(np.finfo(np.float32).eps)


def rank2_gaf(seg):
    """GAF image as the rank-2 Gram form x xᵀ − s sᵀ, with x the min–max
    rescale of the segment onto [−1, 1] and s = √(1 − x²)."""
    seg = np.asarray(seg, dtype=np.float64)
    lo, hi = seg.min(), seg.max()
    x = np.zeros_like(seg) if hi == lo else (seg - lo) * 2.0 / (hi - lo) - 1.0
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    return np.outer(x, x) - np.outer(s, s)


def check_images(segs, imgs, rows):
    """Sampled GAF images equal the rank-2 formula within float32 rounding,
    and every image is symmetric with entries in [−1, 1]. The symmetry is
    checked one image at a time, so the check adds no array the size of the
    whole tensor to the process's peak memory."""
    n, w = segs.shape
    ok_formula = imgs.shape == (n, w, w) and all(
        np.max(np.abs(imgs[r].astype(np.float64) - rank2_gaf(segs[r]))) <= F32_EPS for r in rows
    )
    return [
        ("gaf_rank2_formula", bool(ok_formula)),
        ("gaf_symmetric", all(np.array_equal(img, img.T) for img in imgs)),
        ("gaf_range", bool(imgs.min() >= -1.0 and imgs.max() <= 1.0)),
    ]


def check_segments(segs):
    """Each preprocessed segment has zero mean and unit population std."""
    mean = segs.mean(axis=1)
    std = np.sqrt(np.mean((segs - mean[:, None]) ** 2, axis=1))
    return [
        ("segments_zero_mean", bool(np.all(np.abs(mean) <= 1e-9))),
        ("segments_unit_std", bool(np.all(np.abs(std - 1.0) <= 1e-9))),
    ]


def check_probs(probs, n_rows, n_classes):
    ok_shape = probs.shape == (n_rows, n_classes)
    finite = bool(np.all(np.isfinite(probs)))
    return [
        ("probs_shape_finite", ok_shape and finite),
        ("probs_non_negative", finite and bool(probs.min() >= 0.0)),
        ("probs_rows_sum_to_1", finite and bool(np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-9)),
    ]


def pairwise_auc(scores, positive):
    """P(score_pos > score_neg) + ½ P(tie), over every positive–negative pair."""
    pos = scores[positive]
    neg = scores[~positive]
    diff = pos[:, None] - neg[None, :]
    return (np.count_nonzero(diff > 0) + 0.5 * np.count_nonzero(diff == 0)) / diff.size


def macro_auc(probs, labels, n_classes):
    """Mean one-vs-rest AUC over classes that are present but not universal."""
    aucs = []
    for c in range(n_classes):
        positive = labels == c
        if 0 < positive.sum() < labels.size:
            aucs.append(pairwise_auc(probs[:, c], positive))
    return float(np.mean(aucs))


def check_report(report, probs, labels, n_classes):
    """`metrics.evaluate` against argmax accuracy and the O(n²) pairwise AUC."""
    acc = np.count_nonzero(probs.argmax(axis=1) == labels) / labels.size
    return [
        ("accuracy_matches_argmax", abs(report.accuracy - acc) <= 1e-12),
        ("macro_auc_matches_pairwise", abs(report.macro_auc - macro_auc(probs, labels, n_classes)) <= 1e-9),
    ]


def check_learned(accuracy, labels, history):
    """Test accuracy clearly above chance, and the training loss falls.

    Chance is the share of the most common test class. Clearly above means
    at least a quarter of the way from chance to a perfect score. The loss
    check compares the mean per-epoch loss of the second half of training
    with the first half.
    """
    chance = np.bincount(labels).max() / labels.size
    losses = [rec.train_loss for rec in history]
    half = len(losses) // 2
    falls = len(losses) >= 2 and np.mean(losses[half:]) < np.mean(losses[:half])
    return [
        ("accuracy_above_chance", accuracy >= chance + (1.0 - chance) / 4.0),
        ("training_loss_falls", bool(falls)),
    ]


def check_same_params(params, loaded):
    same = [name for name, _ in params.items()] == [name for name, _ in loaded.items()]
    same = same and all(np.array_equal(p.value, q.value) for (_, p), (_, q) in zip(params.items(), loaded.items()))
    return [("load_model_params_identical", bool(same))]


def check_decoded(signals, adu, gain):
    """Decoded channels equal the written adu divided by the gain, exactly."""
    ok = len(signals) == adu.shape[1]
    ok = ok and all(np.array_equal(sig.samples, adu[:, ch] / gain) for ch, sig in enumerate(signals))
    return [("wfdb_212_decode", bool(ok))]


def expected_beats(adu, gain, peaks, codes, vocabulary, window):
    """Channel-0 windows centred on every written beat whose code is in the
    vocabulary and whose window fits inside the record, with class ids."""
    half = window // 2
    rows, labels = [], []
    for peak, code in zip(peaks, codes):
        start = int(peak) - half
        if code in vocabulary and start >= 0 and start + window <= adu.shape[0]:
            rows.append(adu[start : start + window, 0] / gain)
            labels.append(vocabulary.index(code))
    return np.array(rows), np.array(labels, dtype=np.int64)


def check_beats(ds, rows, labels):
    ok = ds.values.shape == rows.shape and np.array_equal(ds.values, rows) and np.array_equal(ds.labels, labels)
    return [("wfdb_beats_match_annotations", bool(ok))]


def check_split(pooled, first, second, fraction):
    """The two parts partition the pooled rows, and each class with two or
    more members is split in proportion, within one beat of rounding."""
    def row_keys(ds):
        return sorted(row.tobytes() + bytes([int(lab)]) for row, lab in zip(ds.values, ds.labels))

    ok = row_keys(pooled) == sorted(row_keys(first) + row_keys(second))
    for c in np.unique(pooled.labels):
        n = int(np.count_nonzero(pooled.labels == c))
        n_first = int(np.count_nonzero(first.labels == c))
        if n >= 2:
            ok = ok and abs(n_first - fraction * n) <= 1.0 and 0 < n_first < n
    return [("stratified_split_partition", bool(ok))]


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digest_arrays(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).data)  # no copy of a contiguous array
    return h.hexdigest()

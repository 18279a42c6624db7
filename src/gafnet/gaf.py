"""Gramian Angular Field encoding of 1-D segments, plus PGM export."""

import numpy as np

# gaf_images works through blocks of rows whose float64 (rows, w, w) products,
# which numpy holds in a temporary for the cast, stay near this size whatever
# N is (one row when a row is larger): well under glibc's 32 MB mmap
# threshold, and with the block's float32 images well inside a 2 MiB
# per-core L2. Median ms of gaf_images, one BLAS thread, 2-CPU Xeon (2 MiB L2
# a core), budgets 128 KiB to 2 MiB: flat from 384 KiB to 1 MiB, and 1.3-1.5x
# slower at 2 MiB (600x140: 13.1 against 16.8; 100x360: 13.4 against 17.9;
# 200x96: 1.34 against 1.99).
IMAGE_BLOCK_BYTES = 512 * 2**10


def rescale(values) -> np.ndarray:
    """Affine map of each segment (the last axis) onto [-1, 1]
    (min -> -1, max -> +1).

    A constant segment maps to the interval midpoint 0.
    """
    x = np.asarray(values, dtype=np.float64)
    lo = x.min(axis=-1, keepdims=True)
    span = x.max(axis=-1, keepdims=True) - lo
    flat = span == 0.0
    return np.where(flat, 0.0, (x - lo) * 2.0 / np.where(flat, 1.0, span) - 1.0)


def gaf_transform(values) -> np.ndarray:
    """GAF[j, k] = cos(phi_j + phi_k), phi = arccos of the rescaled segment:
    a symmetric float64 matrix with entries in [-1, 1]. The clip only guards
    arccos, since `rescale` already maps finite input into [-1, 1]. This is
    the float64 reference that the tests and the benchmark's self-check hold
    `gaf_images` to; the model and `gafnet gaf` read `gaf_images`."""
    p = np.arccos(np.clip(rescale(values), -1.0, 1.0))
    return np.cos(p[:, None] + p[None, :])


def gaf_images(segs) -> np.ndarray:
    """GAF images of a batch of segments (N, w) as float32 (N, w, w).

    Uses the Gram identity cos(phi_j + phi_k) = x_j x_k - s_j s_k, with x
    the rescaled segment and s = sqrt(1 - x^2), so it takes no arccos and no
    cosine. Each block of rows is one stacked float64 matmul [x, s] @ [x, -s]^T
    of shapes (k, w, 2) @ (k, 2, w), cast on its way into the float32 result.
    Every image is exactly symmetric and within one float32 ULP of
    gaf_transform's.
    """
    x = rescale(segs)
    n, w = x.shape
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    left = np.stack([x, s], axis=-1)  # (n, w, 2)
    right = np.stack([x, -s], axis=1)  # (n, 2, w)
    out = np.empty((n, w, w), dtype=np.float32)
    rows = max(1, IMAGE_BLOCK_BYTES // (8 * w * w))
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        np.matmul(left[block], right[block], out=out[block], casting="same_kind")
    return out


def export_image(matrix: np.ndarray, path) -> None:
    """Write a GAF matrix as a binary PGM (P5, maxval 255).

    Value v in [-1, 1] maps to pixel round((v + 1) / 2 * 255).
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    pixels = np.rint((m + 1.0) / 2.0 * 255.0)
    pixels = np.clip(pixels, 0, 255).astype(np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())

"""Gramian Angular Field encoding of 1-D segments, plus PGM export."""

import numpy as np

# gaf_images works through blocks of rows whose two float64 (rows, w, w)
# temporaries stay near this size whatever N is: well under glibc's 32 MB
# mmap threshold, and small enough to stay in cache (at w=140, 1-2 MB blocks
# ran faster than 4-8 MB ones).
IMAGE_BLOCK_BYTES = 2 * 2**20


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
    arccos, since `rescale` already maps finite input into [-1, 1]."""
    p = np.arccos(np.clip(rescale(values), -1.0, 1.0))
    return np.cos(p[:, None] + p[None, :])


def gaf_images(segs) -> np.ndarray:
    """GAF images of a batch of segments (N, w) as float32 (N, w, w).

    Uses the Gram identity cos(phi_j + phi_k) = x_j x_k - s_j s_k, with x
    the rescaled segment and s = sqrt(1 - x^2), so it takes no arccos and no
    cosine. Each block of rows is formed in float64 and written straight
    into the float32 result. Every image is exactly symmetric and within one
    float32 ULP of gaf_transform's.
    """
    x = rescale(segs)
    n, w = x.shape
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    out = np.empty((n, w, w), dtype=np.float32)
    rows = max(1, IMAGE_BLOCK_BYTES // (8 * w * w))
    xx = np.empty((min(rows, n), w, w))
    ss = np.empty_like(xx)
    for start in range(0, n, rows):
        xb, sb = x[start:start + rows], s[start:start + rows]
        k = len(xb)
        np.multiply(xb[:, :, None], xb[:, None, :], out=xx[:k])
        np.multiply(sb[:, :, None], sb[:, None, :], out=ss[:k])
        np.subtract(xx[:k], ss[:k], out=out[start:start + k])
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

"""prepare_inputs: the image tensor's layout and the memory it takes to build."""

import tracemalloc

import numpy as np

from gafnet import dsp, gaf, pipeline
from gafnet.data import Dataset


def test_prepare_inputs_builds_images_without_a_float64_stack():
    n, w = 400, 140
    rng = np.random.default_rng(0)
    ds = Dataset(values=rng.standard_normal((n, w)), labels=np.arange(n) % 2, class_names=["a", "b"])
    tracemalloc.start()  # numpy reports its array buffers to tracemalloc
    try:
        before = tracemalloc.get_traced_memory()[0]
        inputs = pipeline.prepare_inputs(ds, dsp.PreprocessConfig())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    imgs = inputs.imgs
    assert imgs.dtype == np.float32 and imgs.flags.c_contiguous and imgs.shape == (n, w, w)
    # A float64 (N, w, w) stack alone would be 2x the float32 images.
    assert peak < 1.5 * imgs.nbytes, peak / imgs.nbytes
    assert np.array_equal(imgs, gaf.gaf_images(inputs.segs))

"""prepare_inputs: the image tensor's layout and the memory it takes to
build; evaluate: the report of a model's predictions."""

import tracemalloc

import numpy as np
import pytest

from gafnet import dsp, gaf, metrics, model, ops, pipeline
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


def test_prepare_inputs_labels_follow_their_windows():
    rng = np.random.default_rng(1)
    n, t = 7, 120
    ds = Dataset(values=rng.standard_normal((n, t)), labels=[3, 0, 2, 1, 3, 2, 0], class_names=list("abcd"), fs=180.0)
    cfg = dsp.PreprocessConfig(enable_filter=True, window=50, overlap=20)  # three windows per series
    inputs = pipeline.prepare_inputs(ds, cfg, need_images=False)
    assert inputs.imgs is None and inputs.segs.shape == (3 * n, 50)
    assert inputs.segs.flags.c_contiguous and inputs.segs.flags.writeable
    for i, row in enumerate(ds.values):
        want = dsp.preprocess(dsp.Signal(samples=row, fs=ds.fs), cfg)
        assert inputs.segs[3 * i:3 * i + 3].tobytes() == want.tobytes()
        assert inputs.labels[3 * i:3 * i + 3].tolist() == [ds.labels[i]] * 3


@pytest.mark.parametrize("variant", ["full", "gaf_only", "time_only"])
def test_evaluate_reports_the_predictions_of_the_inputs_the_variant_reads(variant):
    rng = np.random.default_rng(2)
    ds = Dataset(values=rng.standard_normal((10, 24)), labels=np.arange(10) % 3, class_names=list("abc"))
    cfg = model.ModelConfig(num_classes=3, cnn1d_layers=((4, 3),), lstm_hidden=3, cnn2d_layers=((4, 3, 2),),
                            groups=2, d_attn=4, mlp_hidden=8, variant=variant)
    inputs = pipeline.prepare_inputs(ds, dsp.PreprocessConfig(), need_images=cfg.uses_spatial)
    params = model.init_params(cfg, ops.make_rng(0))
    probs = model.predict_probs(params, cfg, inputs.segs if cfg.uses_temporal else None, inputs.imgs)
    report = pipeline.evaluate(params, cfg, inputs)
    want = metrics.evaluate(probs, inputs.labels, cfg.num_classes)
    assert metrics.format_report(report) == metrics.format_report(want)
    assert (report.accuracy, report.macro_auc) == (want.accuracy, want.macro_auc)

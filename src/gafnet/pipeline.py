"""Glue between datasets and the model: preprocessing, GAF imaging, training
and evaluation of whole runs."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dsp, gaf, metrics, model as model_mod, optim
from .data import Dataset
from .model import ModelConfig


@dataclass
class ModelInputs:
    segs: Optional[np.ndarray]  # (N, w), float64; the model casts them to float32 per batch
    imgs: Optional[np.ndarray]  # (N, w, w), float32 to bound memory
    labels: np.ndarray  # (N,)


def prepare_inputs(ds: Dataset, pre_cfg: dsp.PreprocessConfig, need_images: bool = True) -> ModelInputs:
    """Preprocess all series in one batch and encode their windows as GAF
    images.

    The windows of series i are rows i*n_win .. (i+1)*n_win - 1, and every
    window inherits its source series' label.
    """
    windows = dsp.preprocess(dsp.Signal(samples=ds.values, fs=ds.fs), pre_cfg)  # (N, n_win, w)
    segs = np.array(windows).reshape(-1, windows.shape[-1])  # a writable copy of the read-only view
    labels = np.repeat(ds.labels, windows.shape[1])
    imgs = None
    if need_images:
        imgs = gaf.gaf_images(segs)
    return ModelInputs(segs=segs, imgs=imgs, labels=labels)


def inputs_for_variant(inputs: ModelInputs, cfg: ModelConfig):
    segs = inputs.segs if cfg.uses_temporal else None
    imgs = inputs.imgs if cfg.uses_spatial else None
    return segs, imgs


def train_and_evaluate(
    cfg: ModelConfig,
    train_inputs: ModelInputs,
    test_inputs: ModelInputs,
    train_cfg: optim.TrainConfig,
):
    """Train on the train inputs, evaluate the checkpoint on the test inputs."""
    result = optim.train(cfg, *inputs_for_variant(train_inputs, cfg), train_inputs.labels, train_cfg)
    return result, evaluate(result.params, cfg, test_inputs)


def evaluate(params: model_mod.ModelParams, cfg: ModelConfig, inputs: ModelInputs) -> metrics.EvalReport:
    """Predict every row of `inputs` with `params` and score the predictions
    against the inputs' labels."""
    probs = model_mod.predict_probs(params, cfg, *inputs_for_variant(inputs, cfg))
    return metrics.evaluate(probs, inputs.labels, cfg.num_classes)

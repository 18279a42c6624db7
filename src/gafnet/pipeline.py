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
    segs: Optional[np.ndarray]  # (N, w)
    imgs: Optional[np.ndarray]  # (N, w, w), float32 to bound memory
    labels: np.ndarray  # (N,)


def prepare_inputs(ds: Dataset, pre_cfg: dsp.PreprocessConfig, need_images: bool = True) -> ModelInputs:
    """Preprocess each series and encode its windows as GAF images.

    Every window inherits its source series' label.
    """
    windows = [dsp.preprocess(dsp.Signal(samples=row, fs=ds.fs), pre_cfg) for row in ds.values]
    segs = np.concatenate(windows)
    labels = np.repeat(ds.labels, [len(w) for w in windows])
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
    tr_segs, tr_imgs = inputs_for_variant(train_inputs, cfg)
    result = optim.train(cfg, tr_segs, tr_imgs, train_inputs.labels, train_cfg)
    te_segs, te_imgs = inputs_for_variant(test_inputs, cfg)
    probs = model_mod.predict_probs(result.params, cfg, te_segs, te_imgs)
    report = metrics.evaluate(probs, test_inputs.labels, cfg.num_classes)
    return result, report

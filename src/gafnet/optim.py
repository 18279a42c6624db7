"""Loss, Adam, learning-rate schedules, and the training loop."""

import csv
import io
import math
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from . import data, metrics, model as model_mod
from .errors import ConfigError, GafnetError, ShapeMismatchError
from .model import ModelConfig, ModelParams, is_int_at_least
from .ops import make_rng

LOG_EPS = 1e-12


@dataclass
class ScheduleConfig:
    kind: str = "inverse_sqrt"  # or "cosine"
    eta0: float = 0.001
    decay: float = 0.01  # per-step decay factor for inverse_sqrt
    total_steps: int = 0  # cosine horizon

    def __post_init__(self):
        # written so that NaN fails too
        if not 0 < self.eta0 < math.inf:
            raise ConfigError("initial learning rate must be finite and positive")
        if not 0 <= self.decay < math.inf:
            raise ConfigError("decay factor must be finite and >= 0")
        if self.kind not in ("inverse_sqrt", "cosine"):
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        if not is_int_at_least(self.total_steps, 0):
            raise ConfigError("total_steps must be an integer >= 0 (0: every step of the run)")


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 64
    seed: int = 0
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    checkpoint_policy: str = "best_validation"  # or "last"
    val_fraction: float = 0.1

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            if not is_int_at_least(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer >= 1")
        if self.checkpoint_policy not in ("best_validation", "last"):
            raise ConfigError(f"unknown checkpoint policy {self.checkpoint_policy!r}")
        if not 0.0 <= self.val_fraction < 1.0:  # NaN fails too
            raise ConfigError(f"val_fraction must be in [0, 1), got {self.val_fraction!r}")


def cross_entropy(probs, labels_onehot) -> float:
    """Batch-mean of -sum_j y_j log(p_j + eps)."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels_onehot, dtype=np.float64)
    if p.shape != y.shape:
        raise ShapeMismatchError(f"cross_entropy: {p.shape} vs {y.shape}")
    row_sums = y.sum(axis=-1)
    if not (np.all(np.isin(y, (0.0, 1.0))) and np.all(row_sums == 1.0)):
        raise ValueError("labels must be one-hot rows")
    return float(-np.mean(np.sum(y * np.log(p + LOG_EPS), axis=-1)))


def one_hot(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def lr_schedule(step: int, cfg: ScheduleConfig) -> float:
    if step < 0:
        raise ValueError("step must be >= 0")
    if cfg.kind == "inverse_sqrt":
        return cfg.eta0 / np.sqrt(1.0 + cfg.decay * step)
    # cosine annealing to zero over total_steps
    total = max(cfg.total_steps, 1)
    return cfg.eta0 * (1.0 + np.cos(np.pi * min(step, total) / total)) / 2.0


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """First and second moments, flat like `ModelParams.values`, the shared
    step counter, and two scratch vectors of that size for `adam_step`."""

    def __init__(self, params: ModelParams):
        self.t = 0
        self.m = np.zeros_like(params.values)
        self.v = np.zeros_like(params.values)
        self.scratch = np.empty_like(params.values), np.empty_like(params.values)


def adam_step(params: ModelParams, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of `params.values` from `params.grads`:
    value -= lr·(m/bc1) / (sqrt(v/bc2) + eps), evaluated in that order, every
    temporary written into the state's scratch vectors."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    g, m, v = params.grads, state.m, state.v
    step, denom = state.scratch
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, g, out=step)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(1.0 - ADAM_BETA2, g, out=denom), g, out=denom)
    np.multiply(lr, np.divide(m, bc1, out=step), out=step)
    np.add(np.sqrt(np.divide(v, bc2, out=denom), out=denom), ADAM_EPS, out=denom)
    params.values -= np.divide(step, denom, out=step)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_accuracy: float
    lr: float


@dataclass
class TrainResult:
    params: ModelParams
    history: List[EpochRecord]


def batch_order(n: int, batch_size: int, seed: int, epoch: int) -> List[np.ndarray]:
    """Deterministic per-epoch shuffled batches; the final partial batch is kept."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(epoch,))))
    perm = rng.permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]


def train(
    cfg: ModelConfig,
    segs: Optional[np.ndarray],
    imgs: Optional[np.ndarray],
    labels: np.ndarray,
    train_cfg: TrainConfig,
) -> TrainResult:
    """Train from a seeded initialization; deterministic for fixed inputs.

    A stratified validation slice (train_cfg.val_fraction) is carved from the
    provided data for checkpoint selection; with best_validation the returned
    params are the epoch checkpoint with the highest validation accuracy
    (ties broken by lower validation loss).

    A cosine schedule with `total_steps` 0 anneals over all the steps of this
    run. A non-finite batch loss or gradient stops training with `GafnetError`.

    The steps compute in `model.COMPUTE_DTYPE`: each step gathers its batch's
    rows from `segs` and `imgs` and casts them (`model.gather`), and the
    validation predicts its rows 32 at a time the same way, so no copy of the
    training or validation rows is kept; the parameters, their gradients and
    the Adam moments stay float64.
    """
    labels = metrics.class_ids(labels, cfg.num_classes)
    n = labels.size
    if n == 0:
        raise ValueError("empty dataset")
    params = model_mod.init_params(cfg, make_rng(train_cfg.seed))

    tr_idx = val_idx = np.arange(n)  # unless a validation slice can be carved out
    if train_cfg.val_fraction > 0.0 and n >= 4:
        split = data.stratified_indices(labels, 1.0 - train_cfg.val_fraction, make_rng(train_cfg.seed ^ 0x5EED))
        if split[1].size:
            tr_idx, val_idx = split

    tr_labels, val_labels = labels[tr_idx], labels[val_idx]
    tr_onehot = one_hot(tr_labels, cfg.num_classes)
    val_onehot = one_hot(val_labels, cfg.num_classes)

    schedule = train_cfg.schedule
    if schedule.kind == "cosine" and schedule.total_steps == 0:
        # the horizon is every step this run takes, counted after the
        # validation slice is carved out
        n_batches = -(-tr_labels.size // train_cfg.batch_size)
        schedule = replace(schedule, total_steps=train_cfg.epochs * n_batches)

    state = AdamState(params)
    history: List[EpochRecord] = []
    best_key = None
    best_params = None

    for epoch in range(1, train_cfg.epochs + 1):
        loss_sum = 0.0
        for batch in batch_order(tr_labels.size, train_cfg.batch_size, train_cfg.seed, epoch):
            params.zero_grad()
            trace = model_mod.forward(*model_mod.gather(segs, imgs, tr_idx[batch]), params, cfg)
            y = tr_onehot[batch]
            loss = cross_entropy(trace.probs, y)
            loss_sum += loss * batch.size
            # nothing reads the segment or image gradients: skip them
            model_mod.backward_cross_entropy(trace, y, params, cfg, input_grads=False)
            # the gradients are checked too, as a safety net: the backward pass
            # can overflow to inf or NaN while the batch loss is still finite
            if not (np.isfinite(loss) and np.isfinite(params.grads).all()):
                raise GafnetError(f"non-finite loss or gradient at epoch {epoch}, step {state.t + 1}")
            # `state.t` counts the steps taken so far: adam_step adds one
            lr = lr_schedule(state.t, schedule)
            adam_step(params, state, lr)
        train_loss = loss_sum / tr_labels.size

        val_probs = model_mod.predict_probs(params, cfg, segs, imgs, val_idx)
        val_acc = metrics.accuracy(val_probs.argmax(axis=1), val_labels)
        val_loss = cross_entropy(val_probs, val_onehot)
        history.append(EpochRecord(epoch=epoch, train_loss=train_loss, val_accuracy=val_acc, lr=lr))

        key = (val_acc, -val_loss)
        if best_key is None or key > best_key:
            best_key = key
            best_params = params.copy()

    final = best_params if train_cfg.checkpoint_policy == "best_validation" else params
    return TrainResult(params=final, history=history)


def write_history_csv(path, history: List[EpochRecord]) -> None:
    """One row per epoch, with csv's CRLF line endings, written by `model.write_atomically`."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(["epoch", "train_loss", "val_accuracy", "lr"])
    for rec in history:
        writer.writerow([rec.epoch, f"{rec.train_loss:.10g}", f"{rec.val_accuracy:.10g}", f"{rec.lr:.10g}"])
    model_mod.write_atomically(path, text.getvalue().encode("utf-8"))

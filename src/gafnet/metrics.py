"""Evaluation measures: accuracy, macro F1, macro one-vs-rest AUC, confusion matrix."""

from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import DataFormatError


@dataclass
class EvalReport:
    accuracy: float
    macro_f1: float
    macro_auc: float
    confusion: np.ndarray  # (C, C), rows = truth, cols = prediction
    per_class_f1: List[float]


def _checked(preds, labels):
    """`preds` and `labels` as arrays, once their shapes match and are not empty."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError("prediction/label length mismatch")
    if preds.size == 0:
        raise ValueError("empty inputs")
    return preds, labels


def class_ids(labels, num_classes: int) -> np.ndarray:
    """`labels` as an int64 vector, once every label equals its integer
    value and that value is a class in [0, num_classes): the check of
    `data.Dataset`, `evaluate` and `optim.train`. A fractional label is
    rejected, not truncated."""
    labels = np.asarray(labels)
    with np.errstate(invalid="ignore"):  # nan, inf or a float beyond int64 casts to a value it then differs from
        ids = labels.astype(np.int64)
    if labels.ndim != 1 or not np.array_equal(ids, labels) or (ids.size and not 0 <= ids.min() <= ids.max() < num_classes):
        raise DataFormatError(f"class ids must be a vector of integers in [0, {num_classes})")
    return ids


def accuracy(preds, labels) -> float:
    preds, labels = _checked(preds, labels)
    return float(np.mean(preds == labels))


def confusion_matrix(preds, labels, num_classes: int) -> np.ndarray:
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    m = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(m, (labels, preds), 1)
    return m


def _f1(m: np.ndarray):
    """F1 per class of the confusion matrix `m`, 2·tp / (row sum + column
    sum), and the classes whose sum is above 0, those that occur in the
    labels or the predictions. A class whose sum is 0 scores 0."""
    counts = m.sum(axis=1) + m.sum(axis=0)
    present = counts > 0
    return np.divide(2.0 * np.diag(m), counts, out=np.zeros(len(m)), where=present), present


def per_class_f1(preds, labels, num_classes: int) -> List[float]:
    """F1 per class; a class with precision + recall == 0 contributes 0."""
    return _f1(confusion_matrix(*_checked(preds, labels), num_classes))[0].tolist()


def macro_f1(preds, labels, num_classes: int) -> float:
    """Unweighted mean F1 over the classes that occur in the labels or the
    predictions. A vocabulary class absent from both is left out, as
    `macro_auc` leaves out classes absent from the labels, so a fixed
    vocabulary larger than the data does not deflate the score."""
    f1, present = _f1(confusion_matrix(*_checked(preds, labels), num_classes))
    return float(np.mean(f1[present]))


def _midranks(scores) -> np.ndarray:
    """Ranks 1..N of a 1-D array, tied scores sharing the mean of their ranks
    (scipy's `rankdata(method="average")`): a value's rank is the count of
    values <= it, less half of the other values tied with it. A NaN score
    makes every rank NaN."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    if np.isnan(scores).any():
        ranks[:] = np.nan
    return ranks


def _binary_auc(scores, positive_mask) -> float:
    """Mann-Whitney statistic: P(score_pos > score_neg) + 0.5 P(tie), via midranks."""
    n_pos = int(positive_mask.sum())
    n_neg = positive_mask.size - n_pos
    ranks = _midranks(scores)
    return float((ranks[positive_mask].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def macro_auc(scores, labels, num_classes: int) -> float:
    """Unweighted mean one-vs-rest AUC over classes present in the labels."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.ndim != 2 or scores.shape[0] != labels.size:
        raise ValueError("scores must be (N, C) aligned with labels")
    aucs = []
    for c in range(num_classes):
        mask = labels == c
        if mask.sum() == 0 or mask.sum() == labels.size:
            continue
        aucs.append(_binary_auc(scores[:, c], mask))
    if not aucs:
        raise ValueError("labels contain a single class: AUC undefined")
    return float(np.mean(aucs))


def evaluate(probs, labels, num_classes: int) -> EvalReport:
    """Every measure of the report from one check of the inputs and one
    confusion matrix."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = class_ids(labels, num_classes)
    if probs.shape != (labels.size, num_classes):
        raise DataFormatError(f"probabilities must be of shape ({labels.size}, {num_classes}), got {probs.shape}")
    preds, labels = _checked(probs.argmax(axis=1), labels)
    m = confusion_matrix(preds, labels, num_classes)
    f1, present = _f1(m)
    return EvalReport(
        accuracy=float(np.mean(preds == labels)),
        macro_f1=float(np.mean(f1[present])),
        macro_auc=macro_auc(probs, labels, num_classes),
        confusion=m,
        per_class_f1=f1.tolist(),
    )


def format_report(report: EvalReport) -> str:
    lines = [
        f"accuracy: {report.accuracy:.6f}",
        f"macro_f1: {report.macro_f1:.6f}",
        f"macro_auc: {report.macro_auc:.6f}",
        "per_class_f1: " + " ".join(f"{v:.6f}" for v in report.per_class_f1),
        "confusion:",
    ]
    for row in report.confusion:
        lines.append("  " + " ".join(str(int(v)) for v in row))
    return "\n".join(lines)

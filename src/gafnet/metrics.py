"""Evaluation measures: accuracy, macro F1, macro one-vs-rest AUC, confusion matrix."""

from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass
class EvalReport:
    accuracy: float
    macro_f1: float
    macro_auc: float
    confusion: np.ndarray  # (C, C), rows = truth, cols = prediction
    per_class_f1: List[float]


def accuracy(preds, labels) -> float:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError("prediction/label length mismatch")
    if preds.size == 0:
        raise ValueError("empty inputs")
    return float(np.mean(preds == labels))


def confusion_matrix(preds, labels, num_classes: int) -> np.ndarray:
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    m = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(m, (labels, preds), 1)
    return m


def per_class_f1(preds, labels, num_classes: int) -> List[float]:
    """F1 per class; a class with precision + recall == 0 contributes 0."""
    m = confusion_matrix(preds, labels, num_classes)
    out = []
    for c in range(num_classes):
        tp = m[c, c]
        fp = m[:, c].sum() - tp
        fn = m[c, :].sum() - tp
        denom = 2 * tp + fp + fn
        out.append(0.0 if denom == 0 else 2.0 * tp / denom)
    return out


def macro_f1(preds, labels, num_classes: int) -> float:
    """Unweighted mean F1 over the classes that occur in the labels or the
    predictions. A vocabulary class absent from both is left out, as
    `macro_auc` leaves out classes absent from the labels, so a fixed
    vocabulary larger than the data does not deflate the score."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError("prediction/label length mismatch")
    if preds.size == 0:
        raise ValueError("empty inputs")
    present = np.isin(np.arange(num_classes), np.concatenate([preds.ravel(), labels.ravel()]))
    return float(np.mean(np.asarray(per_class_f1(preds, labels, num_classes))[present]))


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
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    preds = probs.argmax(axis=1)
    return EvalReport(
        accuracy=accuracy(preds, labels),
        macro_f1=macro_f1(preds, labels, num_classes),
        macro_auc=macro_auc(probs, labels, num_classes),
        confusion=confusion_matrix(preds, labels, num_classes),
        per_class_f1=per_class_f1(preds, labels, num_classes),
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

"""Metric tests: hand-worked fixtures plus an O(N^2) pairwise AUC oracle."""

import numpy as np
import pytest

from gafnet import metrics
from gafnet.errors import DataFormatError


def pairwise_auc(scores, positive_mask):
    """Count positive-beats-negative pairs directly (ties worth 1/2)."""
    pos = scores[positive_mask]
    neg = scores[~positive_mask]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestAccuracy:
    def test_hand_value(self):
        assert metrics.accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75

    def test_perfect_and_zero(self):
        assert metrics.accuracy([1, 2], [1, 2]) == 1.0
        assert metrics.accuracy([1, 2], [2, 1]) == 0.0

    def test_mismatch_and_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.accuracy([0, 1], [0])
        with pytest.raises(ValueError):
            metrics.accuracy([], [])


class TestConfusion:
    def test_hand_matrix(self):
        # (label, pred) pairs: (0,0) (1,1) (2,1) (2,2) (1,0)
        m = metrics.confusion_matrix([0, 1, 1, 2, 0], [0, 1, 2, 2, 1], 3)
        assert np.array_equal(m, [[1, 0, 0], [1, 1, 0], [0, 1, 1]])
        assert m.sum() == 5

    def test_trace_equals_correct_count(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=200)
        preds = rng.integers(0, 4, size=200)
        m = metrics.confusion_matrix(preds, labels, 4)
        assert np.trace(m) == np.sum(preds == labels)
        assert np.array_equal(m.sum(axis=1), np.bincount(labels, minlength=4))


class TestF1:
    def test_hand_value(self):
        # class 0: tp=2 fp=1 fn=0 -> f1 = 4/5; class 1: tp=1 fp=0 fn=1 -> f1 = 2/3
        preds = [0, 0, 0, 1]
        labels = [0, 0, 1, 1]
        f1 = metrics.per_class_f1(preds, labels, 2)
        assert abs(f1[0] - 0.8) < 1e-12
        assert abs(f1[1] - 2.0 / 3.0) < 1e-12
        assert abs(metrics.macro_f1(preds, labels, 2) - (0.8 + 2.0 / 3.0) / 2) < 1e-12

    def test_absent_class_contributes_zero(self):
        # class 2 never appears in truth or prediction
        f1 = metrics.per_class_f1([0, 1], [0, 1], 3)
        assert f1 == [1.0, 1.0, 0.0]

    def test_perfect(self):
        assert metrics.macro_f1([0, 1, 2], [0, 1, 2], 3) == 1.0

    def test_per_class_mismatch_and_empty_rejected(self):
        # as accuracy and macro_f1 do: not numpy's IndexError, nor all-zero F1 for no rows
        with pytest.raises(ValueError, match="length mismatch"):
            metrics.per_class_f1([0, 1, 1], [0, 1], 2)
        with pytest.raises(ValueError, match="empty"):
            metrics.per_class_f1([], [], 2)

    def test_absent_classes_left_out_of_mean(self):
        # perfect predictions on 2 of a 15-class vocabulary (the WFDB beat classes)
        assert metrics.macro_f1([3, 7, 7, 3], [3, 7, 7, 3], 15) == 1.0

    def test_class_only_predicted_counts(self):
        # class 2 is predicted but never true: it scores 0 and stays in the mean
        assert abs(metrics.macro_f1([0, 2], [0, 1], 4) - 1.0 / 3.0) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.macro_f1([], [], 2)


class TestAuc:
    def test_hand_value(self):
        s = np.array([0.1, 0.4, 0.35, 0.8])
        scores = np.stack([1 - s, s], axis=1)
        assert abs(metrics.macro_auc(scores, [0, 0, 1, 1], 2) - 0.75) < 1e-12

    def test_ties_worth_half(self):
        s = np.array([0.5, 0.5])
        scores = np.stack([1 - s, s], axis=1)
        assert abs(metrics.macro_auc(scores, [0, 1], 2) - 0.5) < 1e-12

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(5, 40))
            c = int(rng.integers(2, 5))
            labels = rng.integers(0, c, size=n)
            if len(np.unique(labels)) < 2:
                continue
            # coarse quantization forces ties
            scores = np.round(rng.random((n, c)), 1)
            expected = []
            for cls in range(c):
                mask = labels == cls
                if mask.sum() in (0, n):
                    continue
                expected.append(pairwise_auc(scores[:, cls], mask))
            assert metrics.macro_auc(scores, labels, c) == pytest.approx(np.mean(expected), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 3, size=50)
        scores = rng.random((50, 3))
        base = metrics.macro_auc(scores, labels, 3)
        mapped = metrics.macro_auc(np.exp(5 * scores), labels, 3)
        assert abs(base - mapped) < 1e-12

    @pytest.mark.parametrize("scores", [
        np.random.default_rng(4).random(60),  # no ties
        np.random.default_rng(5).integers(0, 4, 60).astype(float),  # runs of ties
        np.array([0.5, -0.0, 0.0, np.inf, -np.inf, 0.5, 0.5]),  # signed zeros tie
        np.array([3.0]),
        np.array([0.2, np.nan, 0.1, 0.2]),
    ])
    def test_midranks_match_scipy_rankdata(self, scores):
        stats = pytest.importorskip("scipy.stats")
        ranks = metrics._midranks(scores)
        assert ranks.dtype == np.float64
        assert np.array_equal(ranks, stats.rankdata(scores, method="average"), equal_nan=True)

    def test_nan_score_gives_nan_auc(self):
        # a NaN probability makes its class's AUC, and the macro mean, NaN
        scores = np.array([[0.3, 0.7], [np.nan, 0.5], [0.1, 0.9], [0.3, 0.7]])
        assert np.isnan(metrics._binary_auc(scores[:, 0], np.array([True, False, True, False])))
        assert np.isnan(metrics.macro_auc(scores, [0, 1, 0, 1], 2))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            metrics.macro_auc(np.random.default_rng(3).random((4, 2)), [1, 1, 1, 1], 2)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            metrics.macro_auc(np.zeros(4), [0, 1, 0, 1], 2)


class TestEvaluateAndReport:
    def test_perfect_report(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]])
        report = metrics.evaluate(probs, [0, 1, 0], 2)
        assert report.accuracy == 1.0 and report.macro_f1 == 1.0 and report.macro_auc == 1.0
        assert np.array_equal(report.confusion, [[2, 0], [0, 1]])

    def test_format_structure(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        text = metrics.format_report(metrics.evaluate(probs, [0, 1], 2))
        lines = text.splitlines()
        assert lines[0] == "accuracy: 1.000000"
        assert lines[1].startswith("macro_f1:") and lines[2].startswith("macro_auc:")
        assert lines[4] == "confusion:"
        assert lines[5].strip() == "1 0" and lines[6].strip() == "0 1"


class TestClassIds:
    """`evaluate` and `optim.train` take class ids in [0, C) and, for
    `evaluate`, one row of C probabilities per label: anything else is a
    `DataFormatError`, before any measure is computed."""

    PROBS = np.array([[0.9, 0.1], [0.2, 0.8], [0.4, 0.6]])

    @pytest.mark.parametrize("labels", [[0, 1, -1], [0, 1, 2], [[0, 1, 1]], [0.5, 1.7, 1.0], [0, 1, np.nan]])
    def test_ids_outside_the_classes_rejected(self, labels):
        with pytest.raises(DataFormatError, match=r"class ids must be a vector of integers in \[0, 2\)"):
            metrics.evaluate(self.PROBS, labels, 2)

    @pytest.mark.parametrize("probs, num_classes", [(PROBS[:, 0], 2), (PROBS, 3), (PROBS[:2], 2)])
    def test_probabilities_of_another_shape_rejected(self, probs, num_classes):
        with pytest.raises(DataFormatError, match=r"probabilities must be of shape \(3, "):
            metrics.evaluate(probs, [0, 1, 1], num_classes)

    def test_valid_ids_pass_as_int64(self):
        ids = metrics.class_ids([0, 2, 1], 3)
        assert ids.dtype == np.int64 and ids.tolist() == [0, 2, 1]
        assert metrics.class_ids([], 2).size == 0

    @pytest.mark.parametrize("labels", [[0.5, 1.7], [0.0, 1.0 + 1e-9], [0.0, np.inf], [0.0, 2.0**63]])
    def test_fractional_or_non_finite_ids_rejected_not_truncated(self, labels):
        with pytest.raises(DataFormatError, match=r"class ids must be a vector of integers in \[0, 2\)"):
            metrics.class_ids(labels, 2)

    def test_integral_float_ids_pass(self):
        ids = metrics.class_ids([0.0, 1.0, -0.0], 2)
        assert ids.dtype == np.int64 and ids.tolist() == [0, 1, 0]

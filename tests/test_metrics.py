import math

import numpy as np
import pytest

from iec.metrics import (ConfusionMatrix, MetricsReport, confusion,
                         format_table, mean_report, report,
                         zero_denominator_metrics)


def random_matrix(rng):
    while True:
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 30, size=4))
        if tp + fp + tn + fn >= 1:
            return ConfusionMatrix(tp, fp, tn, fn)


class TestConfusion:
    def test_perfect_prediction(self):
        cm = confusion([1, 0, 1], [1, 0, 1])
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 1, 0, 0)

    def test_total_error(self):
        cm = confusion([0, 1, 0], [1, 0, 1])
        assert cm.tp == 0 and cm.tn == 0
        assert cm.fp == 1 and cm.fn == 2

    def test_all_four_cells(self):
        cm = confusion([1, 1, 0, 0], [1, 0, 1, 0])
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 1, 1, 1)

    def test_length_mismatch_and_empty(self):
        with pytest.raises(ValueError,
                           match=r"^actual must be a vector of length 2, got shape \(1,\)$"):
            confusion([1, 0], [1])
        with pytest.raises(ValueError, match="confusion matrix must cover at least one row"):
            confusion([], [])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="predicted must be 0 or 1, got 2"):
            confusion([2, 0], [1, 0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        pred = rng.integers(0, 2, size=40)
        act = rng.integers(0, 2, size=40)
        base = confusion(pred, act)
        for _ in range(10):
            perm = rng.permutation(40)
            assert confusion(pred[perm], act[perm]) == base


class TestReport:
    def test_pinned_arithmetic(self):
        rep = report(ConfusionMatrix(tp=40, fp=20, tn=30, fn=10))
        assert rep.sensitivity == pytest.approx(0.8, abs=1e-12)
        assert rep.specificity == pytest.approx(0.6, abs=1e-12)
        assert rep.precision == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert rep.g_mean == pytest.approx(math.sqrt(0.48), abs=1e-12)
        assert rep.auc == pytest.approx(0.7, abs=1e-12)
        assert rep.f_measure == pytest.approx(8.0 / 11.0, abs=1e-12)
        assert rep.accuracy == pytest.approx(0.7, abs=1e-12)

    def test_perfect_matrix(self):
        rep = report(ConfusionMatrix(tp=5, fp=0, tn=9, fn=0))
        for name in ("precision", "sensitivity", "specificity", "g_mean",
                     "auc", "f_measure", "accuracy"):
            assert getattr(rep, name) == 1.0

    def test_zero_denominator_convention(self):
        cm = ConfusionMatrix(tp=0, fp=0, tn=4, fn=2)  # nothing predicted positive
        rep = report(cm)
        assert rep.precision == 0.0
        assert rep.f_measure == 0.0
        assert "precision" in zero_denominator_metrics(cm)
        assert "f_measure" in zero_denominator_metrics(cm)

    @pytest.mark.parametrize("cm, flagged", [
        (ConfusionMatrix(tp=0, fp=2, tn=3, fn=0), ("sensitivity", "f_measure")),
        (ConfusionMatrix(tp=2, fp=0, tn=0, fn=1), ("specificity",)),
    ], ids=["no-positive-rows", "no-negative-rows"])
    def test_each_empty_denominator_is_flagged(self, cm, flagged):
        assert zero_denominator_metrics(cm) == flagged

    def test_all_negative_predictor_on_eighty_twenty(self):
        pred = np.zeros(100, dtype=int)
        actual = np.concatenate([np.zeros(80, int), np.ones(20, int)])
        rep = report(confusion(pred, actual))
        assert rep.accuracy == pytest.approx(0.8, abs=1e-12)
        assert rep.g_mean == 0.0

    def test_amgm_ordering(self):
        # min(sens, spec) <= g_mean <= auc <= max(sens, spec)
        rng = np.random.default_rng(6)
        for _ in range(300):
            rep = report(random_matrix(rng))
            lo = min(rep.sensitivity, rep.specificity)
            hi = max(rep.sensitivity, rep.specificity)
            assert lo - 1e-12 <= rep.g_mean <= rep.auc + 1e-12
            assert rep.auc <= hi + 1e-12

    def test_derived_identities(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            rep = report(random_matrix(rng))
            assert rep.auc == (rep.sensitivity + rep.specificity) / 2.0
            assert rep.g_mean ** 2 == pytest.approx(
                rep.sensitivity * rep.specificity, abs=1e-12)


class TestMeanReport:
    def test_single_report_is_identity(self):
        rep = report(ConfusionMatrix(3, 1, 4, 2))
        assert mean_report([rep]) == rep

    def test_midpoint(self):
        a = report(ConfusionMatrix(tp=9, fp=0, tn=9, fn=2))   # accuracy 0.9
        b = report(ConfusionMatrix(tp=7, fp=2, tn=7, fn=4))   # accuracy 0.7
        assert mean_report([a, b]).accuracy == pytest.approx(0.8, abs=1e-12)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(11)
        reports = [report(random_matrix(rng)) for _ in range(5)]
        mean = mean_report(reports)
        for name in ("precision", "sensitivity", "specificity", "g_mean",
                     "auc", "f_measure", "accuracy"):
            total = 0.0
            for rep in reports:
                total += getattr(rep, name)
            assert getattr(mean, name) == pytest.approx(total / 5.0, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mean_report([])


class TestValidationAndFormats:
    def test_confusion_matrix_invariants(self):
        with pytest.raises(ValueError, match="tp must be an integer >= 0, got -1"):
            ConfusionMatrix(-1, 0, 2, 0)
        with pytest.raises(ValueError, match="at least one"):
            ConfusionMatrix(0, 0, 0, 0)

    def test_report_range_checked(self):
        with pytest.raises(ValueError, match="auc"):
            MetricsReport(0.5, 0.5, 0.5, 0.5, 1.5, 0.5, 0.5)

    def test_table_layout(self):
        rep = report(ConfusionMatrix(40, 20, 30, 10))
        text = format_table([("IEC", rep), ("HDDT", rep)])
        lines = text.splitlines()
        assert len(lines) == 3
        header = lines[0].split()
        assert header == ["Classifier", "AUC", "F-measure", "G-mean", "Accuracy"]
        assert lines[1].split()[0] == "IEC"
        assert lines[1].split()[1] == "0.700"
        assert lines[2].split()[0] == "HDDT"

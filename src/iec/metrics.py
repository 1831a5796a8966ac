"""Confusion-matrix evaluation for imbalanced binary classification.

The positive class (label 1) is the minority class.  AUC here is the
arithmetic mean of sensitivity and specificity computed from hard labels
(balanced accuracy), not a ranking/ROC area.  Any metric whose denominator
is zero evaluates to 0, the pessimistic convention for imbalanced data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from iec.data import require_int, require_labels, require_number

METRIC_NAMES = ("precision", "sensitivity", "specificity", "g_mean", "auc",
                "f_measure", "accuracy")

# Column order used for plain-text report tables.
TABLE_COLUMNS = (("AUC", "auc"), ("F-measure", "f_measure"),
                 ("G-mean", "g_mean"), ("Accuracy", "accuracy"))


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            require_int(name, getattr(self, name), 0)
        if self.total < 1:
            raise ValueError("confusion matrix must cover at least one row")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsReport:
    precision: float
    sensitivity: float
    specificity: float
    g_mean: float
    auc: float
    f_measure: float
    accuracy: float

    def __post_init__(self):
        for name in METRIC_NAMES:
            require_number(name, getattr(self, name), 0.0, 1.0)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in METRIC_NAMES}


def confusion(predicted, actual) -> ConfusionMatrix:
    """Count prediction outcomes against ground truth (both 0/1 vectors)."""
    pred = require_labels("predicted", predicted)
    act = require_labels("actual", actual, len(pred))
    return ConfusionMatrix(
        tp=int(((pred == 1) & (act == 1)).sum()),
        fp=int(((pred == 1) & (act == 0)).sum()),
        tn=int(((pred == 0) & (act == 0)).sum()),
        fn=int(((pred == 0) & (act == 1)).sum()),
    )


def _ratios(cm: ConfusionMatrix) -> dict:
    """Each ratio score's (numerator, denominator)."""
    return {"precision": (cm.tp, cm.tp + cm.fp), "sensitivity": (cm.tp, cm.tp + cm.fn),
            "specificity": (cm.tn, cm.fp + cm.tn)}


def report(cm: ConfusionMatrix) -> MetricsReport:
    """Derive all scores from a confusion matrix (zero denominators give 0)."""
    precision, sensitivity, specificity = (num / den if den > 0 else 0.0
                                           for num, den in _ratios(cm).values())
    g_mean = math.sqrt(sensitivity * specificity)
    auc = (sensitivity + specificity) / 2.0
    f_den = precision + sensitivity
    f_measure = 2.0 * precision * sensitivity / f_den if f_den > 0 else 0.0
    accuracy = (cm.tp + cm.tn) / cm.total
    return MetricsReport(precision, sensitivity, specificity, g_mean, auc,
                         f_measure, accuracy)


def zero_denominator_metrics(cm: ConfusionMatrix) -> tuple[str, ...]:
    """Names of metrics forced to 0 by an empty denominator, for flagging."""
    flagged = [name for name, (_, den) in _ratios(cm).items() if den == 0]
    # F-measure's denominator, precision + sensitivity, is 0 exactly when tp is.
    return tuple(flagged + ["f_measure"] * (cm.tp == 0))


def mean_report(reports) -> MetricsReport:
    """Element-wise arithmetic mean of several reports.

    Derived-metric identities are not re-imposed: the averaged g_mean is the
    mean of per-split g_means, not a recomputation.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("cannot average an empty list of reports")
    return MetricsReport(**{
        name: sum(getattr(r, name) for r in reports) / len(reports)
        for name in METRIC_NAMES
    })


def format_table(named_reports) -> str:
    """Aligned plain-text table with AUC, F-measure, G-mean, Accuracy columns."""
    named_reports = list(named_reports)
    name_width = max([len("Classifier")] + [len(name) for name, _ in named_reports])
    header = "Classifier".ljust(name_width) + "".join(
        f"{label:>11}" for label, _ in TABLE_COLUMNS
    )
    lines = [header]
    for name, rep in named_reports:
        lines.append(name.ljust(name_width) + "".join(
            f"{getattr(rep, attr):>11.3f}" for _, attr in TABLE_COLUMNS
        ))
    return "\n".join(lines)

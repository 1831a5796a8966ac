"""Output checks that hold for any correct build of the iec CLI.

Each check returns a list of problems (empty when the output is right).
Metric values are recomputed here from confusion counts with formulas
written independently of ``iec.metrics``.
"""

from __future__ import annotations

import json
import math

METRIC_NAMES = ("precision", "sensitivity", "specificity", "g_mean", "auc",
                "f_measure", "accuracy")
TOLERANCE = 1e-9


def round_half_away(x: float) -> int:
    return int(math.floor(abs(x) + 0.5)) * (1 if x >= 0 else -1)


def metrics_from_counts(tp: int, fp: int, tn: int, fn: int) -> dict:
    def ratio(num, den):
        return num / den if den > 0 else 0.0

    precision = ratio(tp, tp + fp)
    sensitivity = ratio(tp, tp + fn)
    specificity = ratio(tn, tn + fp)
    f_den = precision + sensitivity
    return {
        "precision": precision,
        "sensitivity": sensitivity,
        "specificity": specificity,
        "g_mean": math.sqrt(sensitivity * specificity),
        "auc": (sensitivity + specificity) / 2.0,
        "f_measure": 2.0 * precision * sensitivity / f_den if f_den > 0 else 0.0,
        "accuracy": (tp + tn) / (tp + fp + tn + fn),
    }


def compare(printed: dict, expected: dict, what: str) -> list[str]:
    return [f"{what}: {name} printed {printed.get(name)!r}, recomputed {expected[name]!r}"
            for name in METRIC_NAMES
            if not (isinstance(printed.get(name), (int, float))
                    and abs(printed[name] - expected[name]) <= TOLERANCE)]


def counts_from_rates(report: dict, positives: int, negatives: int, what: str):
    """Confusion counts implied by a report's sensitivity and specificity on
    a set with the given class sizes; (counts, problems)."""
    tp = report["sensitivity"] * positives
    tn = report["specificity"] * negatives
    if abs(tp - round(tp)) > 1e-6 or abs(tn - round(tn)) > 1e-6:
        return None, [f"{what}: sensitivity/specificity are not whole counts "
                      f"of {positives} positives and {negatives} negatives"]
    tp, tn = round(tp), round(tn)
    return (tp, negatives - tn, tn, positives - tp), []


def hidden_count(n: int, d_m: int) -> int:
    return max(1, round_half_away(math.sqrt(n / (d_m * math.log(n)))))


def check_fit(stdout: str, model_path, manifest: dict) -> tuple[list[str], float]:
    """``iec train``: the model reloads and reproduces the printed metrics."""
    from iec import data, ensemble

    summary = json.loads(stdout)
    rows, positives = manifest["rows"], manifest["positives"]
    problems = []
    if summary["n_train"] != rows:
        problems.append(f"n_train {summary['n_train']} != {rows}")
    printed = summary["train_metrics"]
    counts, bad = counts_from_rates(printed, positives, rows - positives, "train")
    problems += bad
    if counts:
        problems += compare(printed, metrics_from_counts(*counts), "train metrics")

    with open(model_path, encoding="utf-8") as fh:
        model = ensemble.model_from_dict(json.load(fh))
    if (summary["d_m"], summary["k"]) != (model.d_m, model.net.hidden_count):
        problems.append("printed d_m/k differ from the saved model")
    if model.net.hidden_count != hidden_count(rows, model.d_m):
        problems.append(f"k={model.net.hidden_count} breaks the hidden-width formula")
    ds = data.load_csv(manifest["data"], "class", "1", manifest["categorical"])
    preds = ensemble.predict(model, ds.rows)
    labels = ds.labels
    reloaded = metrics_from_counts(
        int(((preds == 1) & (labels == 1)).sum()), int(((preds == 1) & (labels == 0)).sum()),
        int(((preds == 0) & (labels == 0)).sum()), int(((preds == 0) & (labels == 1)).sum()))
    problems += compare(printed, reloaded, "reloaded model")
    return problems, printed["auc"]


def check_score(stdout: str, manifest: dict) -> tuple[list[str], float]:
    """``iec evaluate``: metrics agree with the printed confusion counts."""
    result = json.loads(stdout)
    cm = result["confusion"]
    rows, positives = manifest["rows"], manifest["positives"]
    problems = []
    if cm["tp"] + cm["fn"] != positives or cm["fp"] + cm["tn"] != rows - positives:
        problems.append(f"confusion {cm} does not cover {positives} positives "
                        f"and {rows - positives} negatives")
    problems += compare(result["metrics"],
                        metrics_from_counts(cm["tp"], cm["fp"], cm["tn"], cm["fn"]),
                        "evaluate metrics")
    return problems, result["metrics"]["auc"]


def check_protocol(stdout: str, folds_path, manifest: dict) -> tuple[list[str], float]:
    """``iec benchmark``: each fold's metrics agree with the counts they imply
    on its test side, the means are the fold means, and the directional
    ordering IEC >= HDDT - 0.01 and IEC > ANN holds."""
    summary = json.loads(stdout)
    with open(folds_path, encoding="utf-8") as fh:
        dump = json.load(fh)
    reps = manifest["params"]["repetitions"]
    positives = manifest["positives"]
    negatives = manifest["rows"] - positives
    test_pos = positives - round_half_away(0.7 * positives)
    test_neg = negatives - round_half_away(0.7 * negatives)
    problems = []
    means = summary["means"]
    for name in ("ANN", "HDDT", "IEC"):
        folds = dump["folds"][name]
        if len(folds) != reps:
            problems.append(f"{name}: {len(folds)} folds, expected {reps}")
            continue
        for i, fold in enumerate(folds):
            what = f"{name} fold {i}"
            counts, bad = counts_from_rates(fold, test_pos, test_neg, what)
            problems += bad
            if counts:
                problems += compare(fold, metrics_from_counts(*counts), what)
        mean = {m: sum(f[m] for f in folds) / reps for m in METRIC_NAMES}
        problems += compare(means[name], mean, f"{name} printed means")
        problems += compare(dump["means"][name], mean, f"{name} dumped means")
    auc = {name: means[name]["auc"] for name in means}
    if not auc["IEC"] >= auc["HDDT"] - 0.01:
        problems.append(f"IEC AUC {auc['IEC']:.4f} < HDDT AUC {auc['HDDT']:.4f} - 0.01")
    if not auc["IEC"] > auc["ANN"]:
        problems.append(f"IEC AUC {auc['IEC']:.4f} <= ANN AUC {auc['ANN']:.4f}")
    return problems, auc["IEC"]

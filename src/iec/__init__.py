"""Imbalanced ensemble classifier.

A Hellinger-distance decision tree picks out the informative features of an
imbalanced binary dataset and contributes its own prediction as one extra
input column to a one-hidden-layer sigmoid network, which produces the final
classification.  Submodules: ``data`` (loading, scaling, splitting,
synthesis), ``hddt`` (the tree), ``ann`` (the network), ``ensemble`` (the
combined pipeline), ``metrics`` (confusion-matrix scores) and ``cli``.

Importing the package before numpy sets one BLAS thread per process, unless the
caller set another count: training forks its own helper and the benchmark its
own workers, and BLAS worker threads beside them only compete for the CPUs.
"""

import os

os.environ.update({threads: os.environ.get(threads, "1")
                   for threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

from iec.ann import MlpModel, TrainConfig, hidden_neuron_count
from iec.data import (Dataset, FeatureSpec, ScalingParams, imbalance_cv,
                      load_csv, min_max_apply_matrix, min_max_fit_matrix,
                      repeated_eval_protocol, stratified_split, synth_generate)
from iec.ensemble import IecModel, run_benchmark
from iec.hddt import HddtModel, TreeConfig, grow_tree, hellinger_split_score
from iec.metrics import ConfusionMatrix, MetricsReport, confusion, mean_report, report

__all__ = [
    "ConfusionMatrix",
    "Dataset",
    "FeatureSpec",
    "HddtModel",
    "IecModel",
    "MetricsReport",
    "MlpModel",
    "ScalingParams",
    "TrainConfig",
    "TreeConfig",
    "confusion",
    "grow_tree",
    "hellinger_split_score",
    "hidden_neuron_count",
    "imbalance_cv",
    "load_csv",
    "mean_report",
    "min_max_apply_matrix",
    "min_max_fit_matrix",
    "report",
    "repeated_eval_protocol",
    "run_benchmark",
    "stratified_split",
    "synth_generate",
]

__version__ = "0.1.0"

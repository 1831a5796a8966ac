"""Seeded input generator for the perfbench workloads.

Each workload's inputs are CSV files built from ``iec.data.synth_generate``
rows plus, where the workload asks for them, categorical columns made by
binning a noisy copy of an informative feature.  Only these files (and, for
``score``, a model fitted from them through the CLI) reach the program.

Run as a script it performs one set-up in a fresh process, so that the
set-up's memory does not count towards the measured process's peak RSS, and
prints the set-up's wall seconds, which exclude interpreter start and imports:

    python3 perfbench/inputs.py --workload score --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Workload parameters.  ``rows`` is the size of the CSV the measured command
# reads; ``categorical`` lists (level count, index of the informative feature
# whose noisy copy is binned).  ``score`` also fits a model during set-up on a
# separate ``fit_rows``-row file from the same generator.  Short trainings use
# learning rate 2.0: at the default 0.3, 100-200 epochs leave the network
# predicting all-negative (AUC 0.5), which on ``protocol`` breaks the
# directional ordering the run checks; at 2.0 it follows the tree's OP column.
WORKLOADS = {
    "fit": {
        "rows": 20_000, "informative": 8, "noise": 8, "minority": 0.2,
        "categorical": [],
    },
    "score": {
        "rows": 100_000, "fit_rows": 20_000, "fit_epochs": 100, "learning_rate": 2.0,
        "informative": 8, "noise": 8, "minority": 0.2,
        "categorical": [(8, 0), (40, 1)],
    },
    "protocol": {
        "rows": 10_000, "informative": 8, "noise": 24, "minority": 0.2,
        "categorical": [(6, 0), (24, 1)],
        "repetitions": 5, "epochs": 200, "learning_rate": 2.0,
    },
}

# Standard deviation of the noise added to an informative feature before it
# is binned, and the range its bins cover (outer bins are open-ended).
CATEGORY_NOISE = 1.0
CATEGORY_RANGE = (-2.5, 3.5)


def categorical_names(params: dict) -> list[str]:
    return [f"cat{i}" for i in range(len(params["categorical"]))]


def write_csv(path: Path, params: dict, n: int, seed: int) -> int:
    """Write one dataset of ``n`` rows; return its positive-row count."""
    import numpy as np

    from iec.data import synth_generate

    ds = synth_generate(n, params["informative"], params["noise"],
                        params["minority"], seed)
    rng = np.random.default_rng([seed, 1])
    cat_columns = []
    for levels, source in params["categorical"]:
        noisy = ds.rows[:, source] + rng.normal(0.0, CATEGORY_NOISE, ds.n)
        edges = np.linspace(*CATEGORY_RANGE, levels - 1)
        cat_columns.append(np.digitize(noisy, edges))
    names = [s.name for s in ds.specs] + categorical_names(params) + ["class"]
    cats = [[f"c{v}" for v in col.tolist()] for col in cat_columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(
            list(map(repr, row)) + [c[i] for c in cats] + [str(label)]
            for i, (row, label) in enumerate(zip(ds.rows.tolist(), ds.labels.tolist())))
    return int(ds.labels.sum())


def build(workload: str, seed: int, out: Path) -> None:
    """Write the workload's inputs and their ``manifest.json`` into ``out``."""
    params = WORKLOADS[workload]
    out.mkdir(parents=True, exist_ok=True)
    data = out / f"{workload}.csv"
    manifest = {"workload": workload, "seed": seed, "params": params,
                "data": str(data), "rows": params["rows"],
                "categorical": categorical_names(params),
                "positives": write_csv(data, params, params["rows"], seed)}
    if workload == "score":
        from iec import cli

        train_csv = out / "score_fit.csv"
        write_csv(train_csv, params, params["fit_rows"], seed + 1_000_003)
        model = out / "model.json"
        argv = ["train", "--data", str(train_csv), "--out", str(model),
                "--epochs", str(params["fit_epochs"]),
                "--learning-rate", str(params["learning_rate"]), "--seed", str(seed),
                "--categorical", ",".join(manifest["categorical"])]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"set-up fit exited with code {code}")
        manifest["model"] = str(model)
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import iec.cli  # noqa: F401  (imports are not set-up work)

    start = time.perf_counter()
    build(args.workload, args.seed, args.out)
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())

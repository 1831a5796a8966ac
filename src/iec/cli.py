"""Command-line surface: synth, train, evaluate, benchmark.

Exit codes: 0 success, 2 usage error, 1 runtime error.  Every command is
deterministic given its seed flags.  A config file (JSON object or key=value
lines, keys matching the long flag names) supplies defaults; explicit flags
always win.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from iec import ensemble, metrics
from iec.ann import TrainConfig
from iec.data import Dataset, load_csv, synth_generate
from iec.ensemble import run_benchmark
from iec.hddt import TreeConfig


def _load_config(path: str) -> dict:
    """Read a JSON-object or key=value config file into a flat dict."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        cfg = json.loads(text)
        if not isinstance(cfg, dict):
            raise ValueError(f"{path}: config JSON must be an object")
    else:
        cfg = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno} is not key=value")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return {str(k).replace("-", "_"): v for k, v in cfg.items()}


def _add_data_flags(sub):
    sub.add_argument("--data", required=True, help="input CSV file")
    sub.add_argument("--label-col", default="class", help="label column name")
    sub.add_argument("--positive", default="1", help="label value of the positive class")
    sub.add_argument("--categorical", default="",
                     help="comma-separated categorical column names")


def _add_tree_flags(sub):
    sub.add_argument("--min-leaf", type=int, default=1)
    sub.add_argument("--max-depth", type=int, default=None)


def _add_train_flags(sub):
    sub.add_argument("--epochs", type=int, default=2000)
    sub.add_argument("--learning-rate", type=float, default=0.3)
    sub.add_argument("--init-scale", type=float, default=0.5)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="iec",
        description="Imbalanced ensemble classifier: Hellinger-tree feature "
                    "selection feeding a one-hidden-layer network.",
    )
    parser.add_argument("--config", help="JSON or key=value file of flag defaults")
    commands = parser.add_subparsers(dest="command", required=True)
    subs = {}

    synth = commands.add_parser("synth", help="generate an imbalanced CSV dataset")
    synth.add_argument("--n", type=int, default=1000)
    synth.add_argument("--informative", type=int, default=5)
    synth.add_argument("--noise", type=int, default=5)
    synth.add_argument("--minority", type=float, default=0.2)
    synth.add_argument("--separation", type=float, default=1.0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True, help="output CSV path")
    synth.set_defaults(func=cmd_synth)
    subs["synth"] = synth

    train = commands.add_parser("train", help="fit the classifier and save a model")
    _add_data_flags(train)
    _add_tree_flags(train)
    _add_train_flags(train)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", required=True, help="output model JSON path")
    train.add_argument("--format", choices=("table", "json"), default="table")
    train.set_defaults(func=cmd_train)
    subs["train"] = train

    evaluate = commands.add_parser("evaluate", help="score a saved model on a CSV")
    _add_data_flags(evaluate)
    evaluate.add_argument("--model", help="model JSON path")
    evaluate.add_argument("--baseline", choices=("constant0",),
                          help="evaluate a constant all-negative predictor instead")
    evaluate.add_argument("--format", choices=("table", "json"), default="table")
    evaluate.set_defaults(func=cmd_evaluate)
    subs["evaluate"] = evaluate

    bench = commands.add_parser(
        "benchmark", help="compare ANN-only, HDDT-only and IEC over repeated splits")
    _add_data_flags(bench)
    _add_tree_flags(bench)
    _add_train_flags(bench)
    bench.add_argument("--repetitions", type=int, default=5)
    bench.add_argument("--train-fraction", type=float, default=0.7)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--format", choices=("table", "json"), default="table")
    bench.add_argument("--dump-folds", help="write per-fold metrics JSON here")
    bench.set_defaults(func=cmd_benchmark)
    subs["benchmark"] = bench

    return parser, subs


def _validate(args, parser):
    """Reject bad flags before any file is read (exit 2).

    The tree and training configs are built here, once; their own checks
    cover the tree and training flags.
    """
    cmd = args.command
    if cmd == "synth":
        if args.n < 10:
            parser.error("--n must be >= 10")
        if not 0.0 < args.minority < 0.5:
            parser.error("--minority must be in (0, 0.5)")
        if args.informative < 1:
            parser.error("--informative must be >= 1")
        if args.noise < 0:
            parser.error("--noise must be >= 0")
    if cmd in ("train", "benchmark"):
        try:
            args.tree_config = TreeConfig(min_leaf=args.min_leaf, max_depth=args.max_depth)
            args.train_config = TrainConfig(epochs=args.epochs, learning_rate=args.learning_rate,
                                            seed=args.seed, init_scale=args.init_scale)
        except ValueError as exc:
            parser.error(str(exc))
    if cmd == "benchmark":
        if args.repetitions < 1:
            parser.error("--repetitions must be >= 1")
        if not 0.0 < args.train_fraction < 1.0:
            parser.error("--train-fraction must be in (0, 1)")
    if cmd == "evaluate" and not (args.model or args.baseline):
        parser.error("either --model or --baseline is required")


def _load_dataset(args, specs=None) -> Dataset:
    categorical = tuple(c for c in args.categorical.split(",") if c)
    return load_csv(args.data, args.label_col, args.positive, categorical, specs)


def cmd_synth(args) -> int:
    dataset = synth_generate(args.n, args.informative, args.noise,
                             args.minority, args.seed, args.separation)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([s.name for s in dataset.specs] + ["class"])
        for row, label in zip(dataset.rows, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [str(int(label))])
    print(f"wrote {dataset.n} rows x {dataset.p} features to {args.out}")
    return 0


def cmd_train(args) -> int:
    dataset = _load_dataset(args)
    model = ensemble.fit(dataset, args.tree_config, args.train_config)
    # Built before the file is opened, so a failure keeps the previous file.
    text = json.dumps(ensemble.model_to_dict(model), indent=2)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")

    preds = ensemble.predict(model, dataset.rows)
    train_report = metrics.report(metrics.confusion(preds, dataset.labels))
    selected_names = [dataset.specs[j].name for j in model.selected_features]
    summary = {
        "model_path": args.out,
        "n_train": dataset.n,
        "selected_features": selected_names,
        "d_m": model.d_m,
        "k": model.net.hidden_count,
        "train_metrics": train_report.to_dict(),
    }
    if args.format == "json":
        print(json.dumps(summary, indent=2))
    else:
        print(f"selected features: {', '.join(selected_names)}")
        print(f"n_train: {dataset.n}")
        print(f"d_m: {model.d_m}")
        print(f"k: {model.net.hidden_count}")
        print(metrics.format_table([("IEC (train)", train_report)]))
    return 0


def cmd_evaluate(args) -> int:
    if args.baseline == "constant0":
        name = "constant0"
        dataset = _load_dataset(args)
        preds = np.zeros(dataset.n, dtype=np.int64)
    else:
        with open(args.model, encoding="utf-8") as fh:
            model = ensemble.model_from_dict(json.load(fh))
        name = "IEC"
        # Columns are matched by name and encoded with the model's categories.
        dataset = _load_dataset(args, model.tree.specs)
        preds = ensemble.predict(model, dataset.rows)

    cm = metrics.confusion(preds, dataset.labels)
    rep = metrics.report(cm)
    flagged = metrics.zero_denominator_metrics(cm)
    if args.format == "json":
        print(json.dumps({
            "classifier": name,
            "confusion": {"tp": cm.tp, "fp": cm.fp, "tn": cm.tn, "fn": cm.fn},
            "metrics": rep.to_dict(),
            "zero_denominator": list(flagged),
        }, indent=2))
    else:
        print(metrics.format_table([(name, rep)]))
        if flagged:
            print(f"note: zero denominator forced 0 for: {', '.join(flagged)}")
    return 0


def cmd_benchmark(args) -> int:
    dataset = _load_dataset(args)
    results = run_benchmark(dataset, args.repetitions, args.train_fraction,
                            args.seed, args.tree_config, args.train_config)
    means = {name: metrics.mean_report(reports) for name, reports in results.items()}
    mean_dicts = {name: rep.to_dict() for name, rep in means.items()}

    if args.dump_folds:
        with open(args.dump_folds, "w", encoding="utf-8") as fh:
            json.dump({
                "repetitions": args.repetitions,
                "train_fraction": args.train_fraction,
                "seed": args.seed,
                "folds": {name: [r.to_dict() for r in reports]
                          for name, reports in results.items()},
                "means": mean_dicts,
            }, fh, indent=2)
            fh.write("\n")

    if args.format == "json":
        print(json.dumps({
            "repetitions": args.repetitions,
            "means": mean_dicts,
        }, indent=2))
    else:
        print(metrics.format_table(list(means.items())))
    return 0


def main(argv=None) -> int:
    parser, subs = _build_parser()

    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config:
        try:
            overrides = _load_config(known.config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # A key may belong to any command, so one file can serve several.
        dests = {sub: {a.dest for a in sub._actions} for sub in subs.values()}
        unknown = sorted(set(overrides).difference(*dests.values()))
        if unknown:
            print(f"error: {known.config}: config keys {unknown} name no flag", file=sys.stderr)
            return 2
        # argparse applies each flag's type to a string default it falls back on.
        for sub, known_dests in dests.items():
            sub.set_defaults(**{key: value for key, value in overrides.items()
                                if key in known_dests})

    try:
        args = parser.parse_args(argv)
        _validate(args, parser)
        return args.func(args)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

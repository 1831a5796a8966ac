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
from iec.data import Dataset, load_csv, require_protocol, synth_generate
from iec.ensemble import run_benchmark
from iec.hddt import TreeConfig


def _load_config(path: str) -> dict:
    """Read a JSON-object or key=value config file into a flat dict."""
    try:
        with open(path, encoding="utf-8-sig") as fh:  # skips a byte-order mark, as load_csv does
            text = fh.read()
        # Text that starts with "{" parses to an object or not at all.
        cfg = json.loads(text) if text.lstrip().startswith("{") else None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{path}: {exc}") from None
    if cfg is None:
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
    sub.add_argument("--format", choices=("table", "json"), default="table")


def _add_tree_flags(sub):
    sub.add_argument("--min-leaf", type=int, default=TreeConfig.min_leaf)
    sub.add_argument("--max-depth", type=int, default=TreeConfig.max_depth)


def _add_train_flags(sub):
    sub.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    sub.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    sub.add_argument("--init-scale", type=float, default=TrainConfig.init_scale)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="iec",
        description="Imbalanced ensemble classifier: Hellinger-tree feature "
                    "selection feeding a one-hidden-layer network.",
    )
    parser.add_argument("--config", help="JSON or key=value file of flag defaults")
    commands = parser.add_subparsers(dest="command", required=True)

    synth = commands.add_parser("synth", help="generate an imbalanced CSV dataset")
    synth.add_argument("--n", type=int, default=1000)
    synth.add_argument("--informative", type=int, default=5)
    synth.add_argument("--noise", type=int, default=5)
    synth.add_argument("--minority", type=float, default=0.2)
    synth.add_argument("--separation", type=float, default=1.0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True, help="output CSV path")
    synth.set_defaults(func=cmd_synth)

    train = commands.add_parser("train", help="fit the classifier and save a model")
    _add_data_flags(train)
    _add_tree_flags(train)
    _add_train_flags(train)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", required=True, help="output model JSON path")
    train.set_defaults(func=cmd_train)

    evaluate = commands.add_parser("evaluate", help="score a saved model on a CSV")
    _add_data_flags(evaluate)
    evaluate.add_argument("--model", help="model JSON path")
    evaluate.add_argument("--baseline", choices=("constant0",),
                          help="evaluate a constant all-negative predictor instead")
    evaluate.set_defaults(func=cmd_evaluate)

    bench = commands.add_parser(
        "benchmark", help="compare ANN-only, HDDT-only and IEC over repeated splits")
    _add_data_flags(bench)
    _add_tree_flags(bench)
    _add_train_flags(bench)
    bench.add_argument("--repetitions", type=int, default=5)
    bench.add_argument("--train-fraction", type=float, default=0.7)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--dump-folds", help="write per-fold metrics JSON here")
    bench.set_defaults(func=cmd_benchmark)

    return parser, commands


def _validate(args, parser):
    """Reject bad flags before any file is read (exit 2).

    The synthetic dataset, the tree and training configs and the protocol
    arguments are built or checked here, once, by the library's own checks.
    """
    cmd = args.command
    try:
        if cmd == "synth":
            args.dataset = synth_generate(args.n, args.informative, args.noise,
                                          args.minority, args.seed, args.separation)
        if cmd in ("train", "benchmark"):
            args.tree_config = TreeConfig(min_leaf=args.min_leaf, max_depth=args.max_depth)
            args.train_config = TrainConfig(epochs=args.epochs, learning_rate=args.learning_rate,
                                            seed=args.seed, init_scale=args.init_scale)
        if cmd == "benchmark":
            require_protocol(args.repetitions, args.train_fraction)
    except ValueError as exc:
        parser.error(str(exc))
    if cmd == "evaluate" and bool(args.model) == bool(args.baseline):
        parser.error("give exactly one of --model and --baseline")


def _load_dataset(args, specs=None) -> Dataset:
    categorical = tuple(c for c in args.categorical.split(",") if c)
    return load_csv(args.data, args.label_col, args.positive, categorical, specs)


def _write_json(path: str, doc) -> None:
    # Built before the file is opened, so a failure keeps the previous file.
    text = json.dumps(doc, indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def cmd_synth(args):
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([s.name for s in args.dataset.specs] + ["class"])
        for row, label in zip(args.dataset.rows, args.dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [str(int(label))])
    return None, [f"wrote {args.dataset.n} rows x {args.dataset.p} features to {args.out}"]


def cmd_train(args):
    dataset = _load_dataset(args)
    model = ensemble.fit(dataset, args.tree_config, args.train_config)
    _write_json(args.out, ensemble.model_to_dict(model))

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
    return summary, [f"selected features: {', '.join(selected_names)}",
                     f"n_train: {dataset.n}", f"d_m: {model.d_m}", f"k: {model.net.hidden_count}",
                     metrics.format_table([("IEC (train)", train_report)])]


def cmd_evaluate(args):
    if args.baseline == "constant0":
        name = "constant0"
        dataset = _load_dataset(args)
        preds = np.zeros(dataset.n, dtype=np.int64)
    else:
        try:
            with open(args.model, encoding="utf-8-sig") as fh:
                doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{args.model}: {exc}") from None
        model = ensemble.model_from_dict(doc)
        name = "IEC"
        # Columns are matched by name and encoded with the model's categories.
        dataset = _load_dataset(args, model.tree.specs)
        preds = ensemble.predict(model, dataset.rows)

    cm = metrics.confusion(preds, dataset.labels)
    rep = metrics.report(cm)
    flagged = metrics.zero_denominator_metrics(cm)
    note = [f"note: zero denominator forced 0 for: {', '.join(flagged)}"] if flagged else []
    return {
        "classifier": name,
        "confusion": {"tp": cm.tp, "fp": cm.fp, "tn": cm.tn, "fn": cm.fn},
        "metrics": rep.to_dict(),
        "zero_denominator": list(flagged),
    }, [metrics.format_table([(name, rep)]), *note]


def cmd_benchmark(args):
    dataset = _load_dataset(args)
    results = run_benchmark(dataset, args.repetitions, args.train_fraction,
                            args.seed, args.tree_config, args.train_config)
    means = {name: metrics.mean_report(reports) for name, reports in results.items()}
    mean_dicts = {name: rep.to_dict() for name, rep in means.items()}

    if args.dump_folds:
        _write_json(args.dump_folds, {
            "repetitions": args.repetitions,
            "train_fraction": args.train_fraction,
            "seed": args.seed,
            "folds": {name: [r.to_dict() for r in reports]
                      for name, reports in results.items()},
            "means": mean_dicts,
        })
    return ({"repetitions": args.repetitions, "means": mean_dicts},
            [metrics.format_table(list(means.items()))])


def main(argv=None) -> int:
    parser, commands = _build_parser()

    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config:
        try:
            overrides = _load_config(known.config)
            # A key may belong to any command, so one file can serve several.
            actions = [a for sub in commands.choices.values() for a in sub._actions]
            unknown = sorted(set(overrides).difference(a.dest for a in actions))
            if unknown:
                raise ValueError(f"{known.config}: config keys {unknown} name no flag")
            # argparse applies each flag's type to a string default it falls back on, but
            # checks no default against the flag's choices.  A flag with no type keeps its
            # default as given, so that must be text, or null where the default is none.
            for action in (a for a in actions if a.dest in overrides):
                value = overrides[action.dest]
                if (action.type is None and not isinstance(value, str)
                        and value is not action.default):
                    raise ValueError(f"{known.config}: {action.dest} must be a string, "
                                     f"got {value!r}")
                if (action.choices is not None and value not in action.choices
                        and value is not action.default):
                    raise ValueError(f"{known.config}: {action.dest} must be one of "
                                     f"{list(action.choices)}, got {value!r}")
                action.default = value
                action.required = action.required and value is None  # null leaves it unset
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    try:
        args = parser.parse_args(argv)
        _validate(args, parser)
        document, lines = args.func(args)  # synth has no --format and no document
        print("\n".join(lines) if document is None or args.format == "table"
              else json.dumps(document, indent=2))
        return 0
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

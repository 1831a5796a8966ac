import ast
import csv
import json
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from iec import ann, cli, ensemble
from iec.ann import hidden_neuron_count
from iec.cli import main
from iec.data import load_csv
from iec.metrics import METRIC_NAMES

# A model file with a format_version 1 (nested) tree, as `iec train` wrote it
# before the flat node list, and its training CSV (color is categorical).
V1_MODEL = Path(__file__).parent / "data" / "v1_model.json"
V1_DATA = Path(__file__).parent / "data" / "v1_model.csv"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_separable_csv(path, n=30, seed=0):
    """Feature x cleanly separates the classes; y is uninformative."""
    rng = np.random.default_rng(seed)
    labels = (rng.uniform(size=n) < 0.3).astype(int)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "class"])
        for lab in labels:
            writer.writerow([repr(float(lab * 5.0 + rng.uniform(0, 1))),
                             repr(float(rng.uniform(0, 1))), str(lab)])
    return str(path)


def write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def fail_fold(*args):
    raise ValueError("planted fold failure")


def write_eighty_twenty_csv(path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "class"])
        for i in range(80):
            writer.writerow([repr(float(i)), "0"])
        for i in range(20):
            writer.writerow([repr(80.0 + i), "1"])
    return str(path)


def widen_network_input(doc):
    """Add one network input to d_m, the scaling and the network, but not to
    the selected features."""
    doc["d_m"] += 1
    scaling = doc["scaling"]
    scaling["columns"].append(len(scaling["columns"]))
    scaling["mins"].append(0.0)
    scaling["maxs"].append(1.0)
    net = doc["net"]
    dim, weights = net["input_dim"], net["hidden_weights"]
    net["hidden_weights"] = [v for i in range(net["hidden_count"])
                             for v in weights[i * dim:(i + 1) * dim] + [0.0]]
    net["input_dim"] = dim + 1


class TestSynth:
    def test_writes_expected_rows(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, _, _ = run(capsys, ["synth", "--n", "200", "--minority", "0.2",
                                  "--seed", "7", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-1] == "class"
        body = rows[1:]
        assert len(body) == 200
        assert sum(r[-1] == "1" for r in body) == 40

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, ["synth", "--n", "50", "--seed", "3", "--out", str(a)])
        run(capsys, ["synth", "--n", "50", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_minority_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, ["synth", "--minority", "0.6",
                                    "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "minority" in err

    def test_missing_out_flag(self, tmp_path, capsys):
        code, _, _ = run(capsys, ["synth", "--n", "50"])
        assert code == 2

    @pytest.mark.parametrize("config, flags", [
        ({"seed": None}, []), ({"seed": 2.5}, []), ({"seed": True}, []), ({}, ["--seed", "-1"])],
        ids=["null", "float", "bool", "negative-flag"])
    def test_bad_seed_is_usage_error(self, tmp_path, capsys, config, flags):
        # The seed follows the training seed's rule, from a flag or a config file: a null
        # seed would write different bytes on each run.
        cfg, out = tmp_path / "run.json", tmp_path / "x.csv"
        cfg.write_text(json.dumps(config))
        code, _, err = run(capsys, ["--config", str(cfg), "synth", "--n", "50", *flags,
                                    "--out", str(out)])
        assert code == 2
        assert "seed must be an integer >= 0" in err and not out.exists()


class TestTrain:
    @pytest.mark.parametrize("command", ["train", "benchmark"])
    @pytest.mark.parametrize("flags", [
        ["--learning-rate", "nan"], ["--learning-rate", "inf"], ["--learning-rate", "0"],
        ["--init-scale", "inf"], ["--init-scale", "-1"], ["--epochs", "0"],
        ["--min-leaf", "0"], ["--max-depth", "-1"], ["--seed", "-1"],
    ])
    def test_bad_config_flag_is_usage_error(self, tmp_path, capsys, command, flags):
        # The data file does not exist: the flags must be rejected before it is read.
        out = ["--out", str(tmp_path / "m.json")] if command == "train" else []
        code, _, err = run(capsys, [command, "--data", str(tmp_path / "absent.csv"),
                                    *out, *flags])
        assert code == 2
        assert flags[0][2:].replace("-", "_") in err

    def test_summary_is_consistent(self, tmp_path, capsys):
        data = write_separable_csv(tmp_path / "d.csv")
        model_path = tmp_path / "model.json"
        code, out, _ = run(capsys, [
            "train", "--data", data, "--out", str(model_path),
            "--epochs", "300", "--format", "json"])
        assert code == 0
        summary = json.loads(out)
        assert summary["k"] == hidden_neuron_count(summary["n_train"], summary["d_m"])
        doc = json.loads(model_path.read_text())
        assert doc["net"]["hidden_count"] == summary["k"]
        assert doc["d_m"] == summary["d_m"]

    def test_retrain_identical(self, tmp_path, capsys):
        data = write_separable_csv(tmp_path / "d.csv")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["train", "--data", data, "--epochs", "100", "--seed", "4"]
        run(capsys, args + ["--out", str(a)])
        run(capsys, args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_one_row_per_class_trains(self, tmp_path, capsys):
        data = write_rows(tmp_path / "d.csv", ["x", "class"], [["0.0", "0"], ["1.0", "1"]])
        code, out, _ = run(capsys, ["train", "--data", data, "--out", str(tmp_path / "m.json"),
                                    "--format", "json"])
        assert code == 0
        summary = json.loads(out)
        assert (summary["n_train"], summary["d_m"], summary["k"]) == (2, 2, 1)

    def test_missing_label_column_is_runtime_error(self, tmp_path, capsys):
        data = write_separable_csv(tmp_path / "d.csv")
        code, _, err = run(capsys, [
            "train", "--data", data, "--label-col", "target",
            "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "label column" in err

    def test_missing_data_file_is_runtime_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, ["train", "--data", str(tmp_path / "no.csv"),
                                  "--out", str(tmp_path / "m.json")])
        assert code == 1

    def test_failed_save_keeps_previous_model(self, tmp_path, capsys, monkeypatch):
        def fail(model):
            raise ValueError("model document cannot be built")

        monkeypatch.setattr(ensemble, "model_to_dict", fail)
        data = write_separable_csv(tmp_path / "d.csv")
        model_path = tmp_path / "m.json"
        model_path.write_bytes(b"previous model\n")
        code, _, err = run(capsys, ["train", "--data", data, "--epochs", "1",
                                    "--out", str(model_path)])
        assert code == 1
        assert "model document cannot be built" in err
        assert model_path.read_bytes() == b"previous model\n"

    def test_deep_tree_saves_and_evaluates(self, tmp_path, capsys):
        # Alternating labels over 0..799 grow a chain of 799 splits, deeper
        # than a nested JSON document can be written or read.
        data = write_rows(tmp_path / "deep.csv", ["x", "class"],
                          [[str(i), str(i % 2)] for i in range(800)])
        model_path = tmp_path / "m.json"
        code, _, _ = run(capsys, ["train", "--data", data, "--epochs", "1",
                                  "--out", str(model_path)])
        assert code == 0
        tree = json.loads(model_path.read_text())["tree"]
        assert tree["format_version"] == 2 and len(tree["nodes"]) == 1599
        assert not any("children" in node for node in tree["nodes"])
        code, _, _ = run(capsys, ["evaluate", "--model", str(model_path), "--data", data])
        assert code == 0

    def test_categorical_column_flag(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        rng = np.random.default_rng(2)
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["city", "x", "class"])
            for _ in range(24):
                lab = int(rng.uniform() < 0.4)
                city = ("north", "south")[lab] if rng.uniform() < 0.9 else "east"
                writer.writerow([city, repr(float(rng.uniform())), str(lab)])
        model_path = tmp_path / "m.json"
        code, out, _ = run(capsys, [
            "train", "--data", str(data), "--categorical", "city",
            "--epochs", "200", "--out", str(model_path), "--format", "json"])
        assert code == 0
        assert "city" in json.loads(out)["selected_features"]
        code, out, _ = run(capsys, ["evaluate", "--model", str(model_path),
                                    "--data", str(data), "--categorical", "city",
                                    "--format", "json"])
        assert code == 0
        assert json.loads(out)["metrics"]["accuracy"] > 0.8


class TestEvaluate:
    def fit_model(self, tmp_path, capsys):
        data = write_separable_csv(tmp_path / "d.csv")
        model_path = tmp_path / "model.json"
        run(capsys, ["train", "--data", data, "--out", str(model_path),
                     "--epochs", "2000", "--learning-rate", "0.5"])
        return data, str(model_path)

    def test_perfect_fit_scores_one(self, tmp_path, capsys):
        data, model_path = self.fit_model(tmp_path, capsys)
        code, out, _ = run(capsys, ["evaluate", "--model", model_path,
                                    "--data", data, "--format", "json"])
        assert code == 0
        result = json.loads(out)
        for name in METRIC_NAMES:
            assert result["metrics"][name] == 1.0

    def test_formats_agree(self, tmp_path, capsys):
        data, model_path = self.fit_model(tmp_path, capsys)
        _, json_out, _ = run(capsys, ["evaluate", "--model", model_path,
                                      "--data", data, "--format", "json"])
        _, table_out, _ = run(capsys, ["evaluate", "--model", model_path,
                                       "--data", data, "--format", "table"])
        values = json.loads(json_out)["metrics"]
        row = table_out.splitlines()[1].split()
        for cell, name in zip(row[1:], ("auc", "f_measure", "g_mean", "accuracy")):
            assert abs(float(cell) - values[name]) < 5e-4

    def test_constant_baseline(self, tmp_path, capsys):
        data = write_eighty_twenty_csv(tmp_path / "d.csv")
        code, out, _ = run(capsys, ["evaluate", "--baseline", "constant0",
                                    "--data", data, "--format", "json"])
        assert code == 0
        result = json.loads(out)
        assert result["metrics"]["accuracy"] == pytest.approx(0.8, abs=1e-12)
        assert result["metrics"]["g_mean"] == 0.0
        assert "precision" in result["zero_denominator"]

    def synth_model(self, tmp_path, capsys):
        """A synth CSV (columns inf0, inf1, noise0, class) and a model trained on it."""
        data, model_path = str(tmp_path / "d.csv"), str(tmp_path / "model.json")
        run(capsys, ["synth", "--n", "200", "--informative", "2", "--noise", "1",
                     "--seed", "3", "--out", data])
        code, _, _ = run(capsys, ["train", "--data", data, "--out", model_path,
                                  "--epochs", "50", "--learning-rate", "2.0"])
        assert code == 0
        return data, model_path

    def test_categorical_is_ignored_with_a_model(self, tmp_path, capsys):
        # The model's specs give each feature its kind, so one config file may set
        # categorical for train and evaluate alike: an absent column or a continuous one.
        data, model_path = self.synth_model(tmp_path, capsys)
        argv = ["evaluate", "--model", model_path, "--data", data, "--format", "json"]
        code, flagless, _ = run(capsys, argv)
        assert code == 0
        for categorical in ("city", "inf0"):
            assert run(capsys, argv + ["--categorical", categorical]) == (0, flagless, "")

    def test_a_positive_label_the_column_lacks_is_rejected(self, tmp_path, capsys):
        # It fails at load: scored, every row would count as negative.
        data, model_path = self.synth_model(tmp_path, capsys)
        with open(data, newline="") as fh:
            rows = list(csv.reader(fh))
        relabelled = write_rows(tmp_path / "yes_no.csv", rows[0],
                                [row[:-1] + [("no", "yes")[row[-1] == "1"]] for row in rows[1:]])
        code, out, err = run(capsys, ["evaluate", "--model", model_path, "--data", relabelled])
        assert (code, out) == (1, "")
        assert err == (f"error: {relabelled}: label column 'class' holds 'no' and 'yes', "
                       "neither is the positive label '1'\n")

    def color_rows(self):
        """``color`` decides the class; red comes first."""
        rng = np.random.default_rng(5)
        labels = [0] + [int(v) for v in rng.uniform(size=29) < 0.3]
        return [[("red", "blue")[lab], repr(float(rng.uniform())), str(lab)]
                for lab in labels]

    def test_category_order_does_not_matter(self, tmp_path, capsys):
        rows = self.color_rows()
        train = write_rows(tmp_path / "train.csv", ["color", "x", "class"], rows)
        blue_first = write_rows(tmp_path / "blue.csv", ["color", "x", "class"],
                                sorted(rows, key=lambda r: r[0]))
        model_path = str(tmp_path / "model.json")
        code, _, _ = run(capsys, ["train", "--data", train, "--categorical", "color",
                                  "--out", model_path, "--epochs", "2000",
                                  "--learning-rate", "0.5"])
        assert code == 0
        for data in (train, blue_first):
            code, out, _ = run(capsys, ["evaluate", "--model", model_path, "--data", data,
                                        "--categorical", "color", "--format", "json"])
            assert code == 0
            assert json.loads(out)["metrics"]["accuracy"] == 1.0

    def test_columns_matched_by_name(self, tmp_path, capsys):
        data, model_path = self.fit_model(tmp_path, capsys)
        with open(data, newline="") as fh:
            rows = list(csv.reader(fh))
        swapped = write_rows(tmp_path / "swapped.csv", ["class", "y", "x"],
                             [[lab, y, x] for x, y, lab in rows[1:]])
        outputs = []
        for path in (data, swapped):
            code, out, _ = run(capsys, ["evaluate", "--model", model_path,
                                        "--data", path, "--format", "json"])
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_unseen_category_is_runtime_error(self, tmp_path, capsys):
        rows = self.color_rows()
        train = write_rows(tmp_path / "train.csv", ["color", "x", "class"], rows)
        model_path = str(tmp_path / "model.json")
        run(capsys, ["train", "--data", train, "--categorical", "color",
                     "--out", model_path, "--epochs", "100"])
        rows[3][0] = "green"
        other = write_rows(tmp_path / "green.csv", ["color", "x", "class"], rows)
        code, _, err = run(capsys, ["evaluate", "--model", model_path, "--data", other])
        assert code == 1
        assert "unseen category 'green' at row 5, column 'color'" in err

    def test_missing_column_is_runtime_error(self, tmp_path, capsys):
        data, model_path = self.fit_model(tmp_path, capsys)
        with open(data, newline="") as fh:
            rows = list(csv.reader(fh))
        no_y = write_rows(tmp_path / "no_y.csv", ["x", "class"],
                          [[x, lab] for x, _, lab in rows[1:]])
        code, _, err = run(capsys, ["evaluate", "--model", model_path, "--data", no_y])
        assert code == 1
        assert "row 1" in err and "'y'" in err

    @pytest.mark.parametrize("field, tamper", [
        ("selected_features", lambda doc: doc["selected_features"].append(
            doc["selected_features"][0])),
        ("selected_features", lambda doc: doc.update(
            selected_features=[len(doc["tree"]["specs"])])),
        ("selected_features", lambda doc: doc.update(selected_features=[-1])),
        ("scaling", lambda doc: [doc["scaling"][key].pop()
                                 for key in ("columns", "mins", "maxs")]),
        ("d_m", lambda doc: widen_network_input(doc)),
        ("scaling", lambda doc: doc["scaling"]["mins"].__setitem__(0, float("nan"))),
        ("scaling", lambda doc: doc["scaling"]["maxs"].__setitem__(0, float("nan"))),
        ("scaling", lambda doc: doc["scaling"]["maxs"].__setitem__(0, float("inf"))),
        ("scaling", lambda doc: doc["scaling"]["mins"].__setitem__(0, float("-inf"))),
        ("selected_features", lambda doc: doc["selected_features"].__setitem__(
            0, doc["selected_features"][0] + 0.5)),
        ("d_m", lambda doc: doc.update(d_m=str(doc["d_m"]))),
        ("input_dim", lambda doc: doc["net"].update(input_dim=doc["net"]["input_dim"] + 0.9)),
        ("format_version", lambda doc: doc.update(format_version=True)),
        ("format_version", lambda doc: doc.update(format_version=1.0)),
        ("format_version", lambda doc: doc["tree"].update(format_version=True)),
        ("format_version", lambda doc: doc["tree"].update(format_version=1.0)),
        ("format_version", lambda doc: doc["net"].update(format_version=True)),
        ("format_version", lambda doc: doc["net"].update(format_version=1.0)),
        ("columns", lambda doc: doc["scaling"].update(
            columns=[float(c) for c in doc["scaling"]["columns"]])),
        ("scaling", lambda doc: doc["scaling"]["mins"].__setitem__(0, "0.0")),
        ("scaling", lambda doc: doc["scaling"]["mins"].__setitem__(0, False)),
        ("importances", lambda doc: doc["tree"]["importances"].pop()),
        ("importances", lambda doc: doc["tree"]["importances"].__setitem__(0, float("nan"))),
        ("output_bias", lambda doc: doc["net"].update(output_bias="0.25")),
        ("hidden_biases", lambda doc: doc["net"]["hidden_biases"].__setitem__(0, "1")),
        ("hidden_weights", lambda doc: doc["net"]["hidden_weights"].pop()),
        ("name", lambda doc: doc["tree"]["specs"][0].update(name=5)),
        # Feature y is never selected, so as a categorical feature it reaches no check but
        # its spec's own.
        ("categories", lambda doc: doc["tree"]["specs"][1].update(kind="categorical",
                                                                  categories="rgb")),
        ("categories", lambda doc: doc["tree"]["specs"][1].update(kind="categorical",
                                                                  categories=[5, 6, 7])),
        ("importances", lambda doc: doc["tree"].update(importances=5)),
        ("selected_features", lambda doc: doc.update(selected_features=0)),
        ("scaling", lambda doc: doc["scaling"].update(mins=0.0)),
        ("hidden_weights", lambda doc: doc["net"].update(hidden_weights=0.5)),
        ("columns", lambda doc: doc["scaling"].update(columns=5)),
        ("specs", lambda doc: doc["tree"].update(specs=5)),
        ("d_m", lambda doc: doc.pop("d_m")),
        ("net", lambda doc: doc.update(net="x")),
        ("kind", lambda doc: doc["tree"]["nodes"].__setitem__(1, {})),
        ("scaling", lambda doc: doc.update(scaling=[1])),
        ("feature names", lambda doc: doc["tree"]["specs"][1].update(
            name=doc["tree"]["specs"][0]["name"])),
    ], ids=["repeated-feature", "feature-past-specs", "negative-feature",
            "scaling-width", "d_m-width", "nan-min", "nan-max", "inf-max", "-inf-min",
            "fractional-feature", "string-d_m", "fractional-input_dim", "bool-version",
            "float-version", "bool-tree-version", "float-tree-version", "bool-net-version",
            "float-net-version", "float-columns", "string-min", "bool-min",
            "short-importances", "nan-importance", "string-output_bias",
            "string-hidden-bias", "short-hidden_weights", "number-name",
            "string-categories", "number-categories", "scalar-importances",
            "scalar-selected_features", "scalar-mins", "scalar-hidden_weights",
            "scalar-columns", "scalar-specs", "missing-d_m", "string-net", "empty-node",
            "list-scaling", "repeated-name"])
    def test_malformed_model_rejected_at_load(self, tmp_path, capsys, field, tamper):
        data = write_separable_csv(tmp_path / "d.csv")
        model_path = tmp_path / "model.json"
        run(capsys, ["train", "--data", data, "--out", str(model_path), "--epochs", "10"])
        doc = json.loads(model_path.read_text())
        tamper(doc)
        model_path.write_text(json.dumps(doc))
        # The data file does not exist: the model must be rejected before it is read.
        code, _, err = run(capsys, ["evaluate", "--model", str(model_path),
                                    "--data", str(tmp_path / "absent.csv")])
        assert code == 1
        assert f"error: {field} " in err and "absent.csv" not in err

    @pytest.mark.parametrize("text, message", [
        ("[1]", "error: model must be an object, got [1]"),
        ("{", "model.json: Expecting property name enclosed in double quotes"),
    ], ids=["list", "not-json"])
    def test_model_file_not_an_object_rejected_at_load(self, tmp_path, capsys, text, message):
        model_path = tmp_path / "model.json"
        model_path.write_text(text)
        code, _, err = run(capsys, ["evaluate", "--model", str(model_path),
                                    "--data", str(tmp_path / "absent.csv")])
        assert code == 1
        assert message in err and "absent.csv" not in err

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # A model file that starts with a UTF-8 byte-order mark reads as the
        # same file without it, as a CSV or a config file does.
        data, model_path = self.fit_model(tmp_path, capsys)
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(model_path).read_bytes())
        plain, with_mark = (run(capsys, ["evaluate", "--model", str(path), "--data", data])
                            for path in (model_path, marked))
        assert plain[0] == 0
        assert with_mark == plain

    # The numeric model's root splits x (continuous); the categorical model's
    # root splits color into its two categories.  Both roots have leaf
    # children, so the pre-order nodes are the root and its two leaves.
    @pytest.mark.parametrize("field, categorical, tamper", [
        ("feature_index", False, lambda nodes: nodes[0].update(feature_index=99)),
        ("feature_index", False, lambda nodes: nodes[0].update(feature_index=-1)),
        ("split_kind", False, lambda nodes: nodes[0].update(split_kind="categorical",
                                                           categories=[0, 1])),
        ("split_kind", True, lambda nodes: nodes[0].update(split_kind="numeric",
                                                          threshold=0.5)),
        ("nodes", False, lambda nodes: nodes.pop()),
        ("nodes", True, lambda nodes: nodes.insert(1, dict(nodes[1]))),
        ("categories", True, lambda nodes: nodes[0].update(categories=[0, 0])),
        ("categories", True, lambda nodes: nodes[0].update(categories=[0, 2])),
        ("threshold", False, lambda nodes: nodes[0].update(threshold=float("nan"))),
        ("threshold", False, lambda nodes: nodes[0].update(threshold=float("inf"))),
        ("label", False, lambda nodes: nodes[1].update(label=7)),
        ("label", True, lambda nodes: nodes[2].update(label=-1)),
        ("feature_index", False, lambda nodes: nodes[0].update(feature_index=0.7)),
        ("feature_index", False, lambda nodes: nodes[0].update(feature_index=True)),
        ("label", False, lambda nodes: nodes[1].update(label=True)),
        ("label", False, lambda nodes: nodes[1].update(label=1.0)),
        ("n_pos", False, lambda nodes: nodes[0].update(n_pos=-50)),
        ("threshold", False, lambda nodes: nodes[0].update(threshold="1e3")),
        ("hd_score", False, lambda nodes: nodes[0].update(hd_score=float("nan"))),
        ("hd_score", True, lambda nodes: nodes[0].update(hd_score=-1.0)),
        ("kind", False, lambda nodes: nodes[0].update(kind="foo")),
        ("categories", True, lambda nodes: nodes[0].update(categories=5)),
    ], ids=["feature-past-specs", "negative-feature", "categorical-on-continuous",
            "numeric-on-categorical", "one-numeric-child", "extra-categorical-child",
            "repeated-category", "unknown-category", "nan-threshold", "inf-threshold",
            "leaf-label-7", "leaf-label-minus-1", "fractional-feature", "bool-feature",
            "bool-label", "float-label", "negative-n_pos", "string-threshold",
            "nan-hd_score", "negative-hd_score", "kind-foo", "scalar-categories"])
    def test_malformed_tree_rejected_at_load(self, tmp_path, capsys, field, categorical,
                                             tamper):
        model_path = tmp_path / "model.json"
        if categorical:
            data = write_rows(tmp_path / "d.csv", ["color", "x", "class"], self.color_rows())
            extra = ["--categorical", "color"]
        else:
            data, extra = write_separable_csv(tmp_path / "d.csv"), []
        code, _, _ = run(capsys, ["train", "--data", data, "--out", str(model_path),
                                  "--epochs", "10", *extra])
        assert code == 0
        doc = json.loads(model_path.read_text())
        tamper(doc["tree"]["nodes"])
        model_path.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["evaluate", "--model", str(model_path),
                                    "--data", str(tmp_path / "absent.csv")])
        assert code == 1
        assert f"error: {field} " in err and "absent.csv" not in err

    def test_v1_model_reads_as_its_v2_rewrite(self, tmp_path, capsys):
        doc = json.loads(V1_MODEL.read_text())
        assert doc["tree"]["format_version"] == 1
        v1 = ensemble.model_from_dict(doc)
        rewrite = json.loads(json.dumps(ensemble.model_to_dict(v1)))
        assert rewrite["tree"]["format_version"] == 2
        v2 = ensemble.model_from_dict(rewrite)
        assert v2.tree.root == v1.tree.root
        rows = load_csv(V1_DATA, "class", "1", specs=v1.tree.specs).rows
        np.testing.assert_array_equal(ensemble.predict(v2, rows), ensemble.predict(v1, rows))

        v2_path = tmp_path / "v2.json"
        v2_path.write_text(json.dumps(rewrite))
        outs = [run(capsys, ["evaluate", "--model", str(path), "--data", str(V1_DATA),
                             "--format", "json"]) for path in (V1_MODEL, v2_path)]
        assert outs[0] == outs[1] and outs[0][0] == 0

    # The v1 fixture's root splits x, its children are a leaf and a
    # three-way split on color.
    @pytest.mark.parametrize("field, tamper", [
        ("nodes", lambda root: root["children"].pop()),
        ("nodes", lambda root: root["children"].append(root["children"][0])),
        ("feature_index", lambda root: root.update(feature_index=99)),
        ("categories", lambda root: root["children"][1].update(categories=[0, 0, 1])),
        ("label", lambda root: root["children"][0].update(label=7)),
        ("kind", lambda root: root["children"][1].update(kind="foo")),
    ], ids=["dropped-child", "extra-child", "feature-past-specs", "repeated-category",
            "leaf-label-7", "kind-foo"])
    def test_malformed_v1_tree_rejected_at_load(self, tmp_path, capsys, field, tamper):
        doc = json.loads(V1_MODEL.read_text())
        tamper(doc["tree"]["root"])
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["evaluate", "--model", str(model_path),
                                    "--data", str(tmp_path / "absent.csv")])
        assert code == 1
        assert f"error: {field} " in err and "absent.csv" not in err

    def test_model_or_baseline_required(self, tmp_path, capsys):
        data = write_eighty_twenty_csv(tmp_path / "d.csv")
        code, _, _ = run(capsys, ["evaluate", "--data", data])
        assert code == 2

    @pytest.mark.parametrize("config, flags", [
        ({}, ["--model", "m.json", "--baseline", "constant0"]),
        ({"baseline": "constant0"}, ["--model", "m.json"]),
        ({"model": "m.json"}, ["--baseline", "constant0"]),
    ], ids=["both-flags", "baseline-in-config", "model-in-config"])
    def test_model_and_baseline_together_rejected(self, tmp_path, capsys, config, flags):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run(capsys, ["--config", str(cfg), "evaluate",
                                    "--data", str(tmp_path / "absent.csv"), *flags])
        assert code == 2
        assert "exactly one of --model and --baseline" in err and "absent.csv" not in err


class TestBenchmark:
    def bench_args(self, data, extra=()):
        return ["benchmark", "--data", data, "--repetitions", "2",
                "--epochs", "150", "--seed", "1", *extra]

    def test_table_rows_in_order(self, tmp_path, capsys):
        data = write_separable_csv(tmp_path / "d.csv", n=40)
        code, out, _ = run(capsys, self.bench_args(data))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split()[0] == "Classifier"
        assert [line.split()[0] for line in lines[1:]] == ["ANN", "HDDT", "IEC"]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        data = write_separable_csv(tmp_path / "d.csv", n=40)
        _, first, _ = run(capsys, self.bench_args(data))
        _, second, _ = run(capsys, self.bench_args(data))
        assert first == second

    def test_dump_folds_reaggregates(self, tmp_path, capsys):
        data = write_separable_csv(tmp_path / "d.csv", n=40)
        dump = tmp_path / "folds.json"
        _, out, _ = run(capsys, self.bench_args(
            data, ["--format", "json", "--dump-folds", str(dump)]))
        printed = json.loads(out)["means"]
        doc = json.loads(dump.read_text())
        for name, folds in doc["folds"].items():
            assert len(folds) == 2
            for metric in METRIC_NAMES:
                mean = sum(f[metric] for f in folds) / len(folds)
                assert doc["means"][name][metric] == mean
                assert printed[name][metric] == mean

    def test_failed_dump_keeps_previous_file(self, tmp_path, capsys, monkeypatch):
        def fail(self, o, _one_shot=False):
            raise ValueError("dump cannot be encoded")

        data = write_separable_csv(tmp_path / "d.csv", n=40)
        dump = tmp_path / "folds.json"
        dump.write_bytes(b"previous dump\n")
        monkeypatch.setattr(json.JSONEncoder, "iterencode", fail)
        code, _, err = run(capsys, self.bench_args(data, ["--dump-folds", str(dump)]))
        assert code == 1
        assert "dump cannot be encoded" in err
        assert dump.read_bytes() == b"previous dump\n"

    def test_bad_repetitions(self, tmp_path, capsys):
        data = write_separable_csv(tmp_path / "d.csv", n=40)
        code, _, err = run(capsys, ["benchmark", "--data", data,
                                    "--repetitions", "0"])
        assert code == 2
        assert "repetitions" in err

    @pytest.mark.parametrize("flag,value,field", [
        ("--repetitions", "0", "repetitions"), ("--train-fraction", "1.5", "train_fraction")])
    def test_bad_protocol_argument_exits_before_reading(self, tmp_path, capsys,
                                                        flag, value, field):
        code, _, err = run(capsys, ["benchmark", "--data", str(tmp_path / "absent.csv"),
                                    flag, value])
        assert code == 2
        assert f"{field} must be" in err and "absent.csv" not in err

    def test_failed_fold_reports_index(self, monkeypatch):
        from iec.ann import TrainConfig
        from iec.cli import run_benchmark
        from iec.data import Dataset, FeatureSpec
        from iec.hddt import TreeConfig

        d = Dataset((FeatureSpec("x", "continuous"),),
                    np.array([[1.0], [2.0], [3.0], [4.0]]),
                    np.array([0, 0, 1, 1]))
        # A forked worker inherits the patched task.
        monkeypatch.setattr(ensemble, "_iec_fold", fail_fold)
        for cpus in (1, 2):  # in this process, and in a worker
            monkeypatch.setattr(ann, "_cpu_count", lambda: cpus)
            with pytest.raises(RuntimeError, match="fold 0"):
                run_benchmark(d, repetitions=1, train_fraction=0.5, seed=0,
                              tree_config=TreeConfig(), train_config=TrainConfig())

    def test_failed_fold_in_a_worker_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ann, "_cpu_count", lambda: 2)
        monkeypatch.setattr(ensemble, "_iec_fold", fail_fold)
        data = write_rows(tmp_path / "d.csv", ["x", "class"],
                          [["1.0", "0"], ["2.0", "0"], ["3.0", "1"], ["4.0", "1"]])
        code, _, err = run(capsys, ["benchmark", "--data", data, "--repetitions", "1",
                                    "--train-fraction", "0.5"])
        assert code == 1
        assert "benchmark fold 0 failed" in err

    def bench_outputs(self, tmp_path, capsys):
        data = write_separable_csv(tmp_path / "d.csv", n=40)
        dump = tmp_path / "folds.json"
        code, out, _ = run(capsys, self.bench_args(data, ["--dump-folds", str(dump)]))
        assert code == 0
        return out, dump.read_bytes()

    def test_workers_write_the_serial_bytes(self, tmp_path, capsys, monkeypatch):
        # One CPU runs the folds in this process; two CPUs give two workers.
        monkeypatch.setattr(ann, "_cpu_count", lambda: 1)
        serial = self.bench_outputs(tmp_path, capsys)
        pools, pool_class = [], ensemble.ProcessPoolExecutor

        def counted_pool(workers, **kwargs):
            pools.append(workers)
            return pool_class(workers, **kwargs)

        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", counted_pool)
        monkeypatch.setattr(ann, "_cpu_count", lambda: 2)
        assert self.bench_outputs(tmp_path, capsys) == serial
        assert pools == [2]

    def test_no_fork_runs_the_folds_here(self, tmp_path, capsys, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(ann, "_cpu_count", lambda: 1)
            serial = self.bench_outputs(tmp_path, capsys)

        def no_pool(*args, **kwargs):
            raise AssertionError("no worker may start")

        # Two CPUs but no fork: the CPU rule gives one.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert self.bench_outputs(tmp_path, capsys) == serial


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path, capsys):
        data = write_separable_csv(tmp_path / "d.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 50\nseed = 9\n")

        from_cfg = tmp_path / "a.json"
        run(capsys, ["--config", str(cfg), "train", "--data", data,
                     "--out", str(from_cfg)])
        explicit = tmp_path / "b.json"
        run(capsys, ["train", "--data", data, "--epochs", "50", "--seed", "9",
                     "--out", str(explicit)])
        assert from_cfg.read_bytes() == explicit.read_bytes()

        overridden = tmp_path / "c.json"
        run(capsys, ["--config", str(cfg), "train", "--data", data,
                     "--epochs", "120", "--out", str(overridden)])
        plain = tmp_path / "d.json"
        run(capsys, ["train", "--data", data, "--epochs", "120", "--seed", "9",
                     "--out", str(plain)])
        assert overridden.read_bytes() == plain.read_bytes()
        assert overridden.read_bytes() != from_cfg.read_bytes()

    def test_comment_and_blank_lines_are_skipped(self, tmp_path, capsys):
        data = write_separable_csv(tmp_path / "d.csv")
        models = []
        for name, text in (("plain", "epochs = 50\nseed = 9\n"),
                           ("commented", "# a comment\nepochs = 50\n\nseed = 9\n")):
            cfg, model = tmp_path / f"{name}.cfg", tmp_path / f"{name}.json"
            cfg.write_text(text)
            code, _, err = run(capsys, ["--config", str(cfg), "train", "--data", data,
                                        "--out", str(model)])
            assert code == 0, err
            models.append(model.read_bytes())
        assert models[0] == models[1]

    def test_json_config(self, tmp_path, capsys):
        data = write_separable_csv(tmp_path / "d.csv")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"epochs": 50, "seed": 9}))
        a = tmp_path / "a.json"
        run(capsys, ["--config", str(cfg), "train", "--data", data, "--out", str(a)])
        b = tmp_path / "b.json"
        run(capsys, ["train", "--data", data, "--epochs", "50", "--seed", "9",
                     "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("write", [json.dumps, lambda cfg: "".join(
        f"{key} = {value}\n" for key, value in cfg.items())], ids=["json", "key-value"])
    def test_config_sets_a_required_flag(self, tmp_path, capsys, write):
        data = write_separable_csv(tmp_path / "d.csv")
        cfg, a, b = tmp_path / "run.cfg", tmp_path / "a.json", tmp_path / "b.json"
        cfg.write_text(write({"data": data, "out": str(a), "epochs": 50}))
        code, _, err = run(capsys, ["--config", str(cfg), "train"])
        assert code == 0, err
        run(capsys, ["train", "--data", data, "--epochs", "50", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

        csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg.write_text(write({"out": str(csv_a), "n": 40}))
        code, _, err = run(capsys, ["--config", str(cfg), "synth"])
        assert code == 0, err
        run(capsys, ["synth", "--n", "40", "--out", str(csv_b)])
        assert csv_a.read_bytes() == csv_b.read_bytes()

    @pytest.mark.parametrize("command, key", [("train", "data"), ("train", "out"),
                                              ("synth", "out")])
    def test_null_required_flag_is_usage_error(self, tmp_path, capsys, command, key):
        data = write_separable_csv(tmp_path / "d.csv")
        cfg = tmp_path / "run.json"
        given = {"data": data, "out": str(tmp_path / "m.json")}
        cfg.write_text(json.dumps({**given, key: None} if command == "train" else {key: None}))
        code, _, err = run(capsys, ["--config", str(cfg), command])
        assert code == 2
        assert f"the following arguments are required: --{key}" in err
        assert not (tmp_path / "m.json").exists()

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("just some words without an assignment\n")
        code, _, err = run(capsys, ["--config", str(cfg), "synth",
                                    "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "key=value" in err

        cfg.write_text("epochs=abc\n")
        code, _, err = run(capsys, ["--config", str(cfg), "train",
                                    "--data", str(tmp_path / "absent.csv"),
                                    "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "--epochs" in err

    @pytest.mark.parametrize("content, message", [
        (b"{bad", "Expecting property name enclosed in double quotes"),
        (b"\xffepochs = 5\n", "'utf-8' codec can't decode byte 0xff"),
    ], ids=["not-json", "not-utf8"])
    def test_unreadable_config_names_the_file(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(content)
        code, _, err = run(capsys, ["--config", str(cfg), "synth",
                                    "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert f"error: {cfg}: {message}" in err

    @pytest.mark.parametrize("content", ['{"n": 50, "seed": 3}', "n = 50\nseed = 3\n"],
                             ids=["json", "key-value"])
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, content):
        # A config file that starts with a UTF-8 byte-order mark reads as the
        # same file without it, as a CSV does.
        cfg, a, b = tmp_path / "bom.cfg", tmp_path / "a.csv", tmp_path / "b.csv"
        cfg.write_bytes(b"\xef\xbb\xbf" + content.encode())
        code, _, err = run(capsys, ["--config", str(cfg), "synth", "--out", str(a)])
        assert code == 0, err
        run(capsys, ["synth", "--n", "50", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    @pytest.mark.parametrize("key,value", [
        ("epochs", 2.5), ("seed", 1.5), ("min_leaf", 2.0), ("max_depth", 1.5)])
    def test_non_integer_config_value_is_usage_error(self, tmp_path, capsys, command, key,
                                                     value):
        # A JSON value reaches the config unconverted; the data file is absent,
        # so exit 2 shows the value was rejected before it was read.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        out = ["--out", str(tmp_path / "m.json")] if command == "train" else []
        code, _, err = run(capsys, ["--config", str(cfg), command,
                                    "--data", str(tmp_path / "absent.csv"), *out])
        assert code == 2
        assert f"{key} must be an integer" in err

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    @pytest.mark.parametrize("key,value,message", [
        ("learning_rate", True, "learning_rate must be a finite number"),
        ("init_scale", True, "init_scale must be a finite number"),
        ("learning_rate", 0, "learning_rate must be positive"),
        ("format", "xml", "format must be one of ['table', 'json'], got 'xml'"),
        ("positive", 1, "positive must be a string, got 1"),
        ("positive", None, "positive must be a string, got None"),
        ("label_col", 5, "label_col must be a string, got 5"),
        ("categorical", 5, "categorical must be a string, got 5"),
        ("dump_folds", 1, "dump_folds must be a string, got 1"),
    ], ids=["bool-learning_rate", "bool-init_scale", "zero-learning_rate", "xml-format",
            "number-positive", "null-positive", "number-label_col", "number-categorical",
            "number-dump_folds"])
    def test_config_value_checked_like_its_flag(self, tmp_path, capsys, command, key, value,
                                                message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        out = ["--out", str(tmp_path / "m.json")] if command == "train" else []
        code, _, err = run(capsys, ["--config", str(cfg), command,
                                    "--data", str(tmp_path / "absent.csv"), *out])
        assert code == 2
        assert message in err and "absent.csv" not in err

    @pytest.mark.parametrize("command, key, message", [
        ("benchmark", "train_fraction", "train_fraction must be a finite number, got None"),
        ("synth", "minority", "minority_fraction must be a finite number, got None"),
        ("synth", "separation", "separation must be a finite number, got None"),
    ])
    def test_null_number_is_usage_error(self, tmp_path, capsys, command, key, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: None}))
        out = tmp_path / "x.csv"
        flags = ["--out", str(out)] if command == "synth" else ["--data", str(out)]
        code, _, err = run(capsys, ["--config", str(cfg), command, *flags])
        assert code == 2
        assert message in err and "x.csv" not in err and not out.exists()

    def test_null_max_depth_means_no_limit(self, tmp_path, capsys):
        data = write_separable_csv(tmp_path / "d.csv")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"max_depth": None, "epochs": 20}))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, ["--config", str(cfg), "train", "--data", data,
                            "--out", str(a)])[0] == 0
        assert run(capsys, ["train", "--data", data, "--epochs", "20", "--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_null_default_passes_choices(self, tmp_path, capsys):
        # null is --baseline's own default, as it is --model's.
        data = write_separable_csv(tmp_path / "d.csv")
        model = tmp_path / "m.json"
        assert run(capsys, ["train", "--data", data, "--epochs", "20",
                            "--out", str(model)])[0] == 0
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"baseline": None}))
        argv = ["evaluate", "--data", data, "--model", str(model)]
        assert run(capsys, ["--config", str(cfg), *argv]) == run(capsys, argv)

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        argv = ["--config", str(cfg), "train", "--data", str(tmp_path / "absent.csv"),
                "--out", str(tmp_path / "m.json")]
        cfg.write_text("epoch = 5\n")
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "'epoch'" in err and "absent.csv" not in err

        # Keys of other commands are accepted: the run gets as far as the data file.
        cfg.write_text("epochs = 5\nrepetitions = 3\nn = 50\n")
        code, _, err = run(capsys, argv)
        assert code == 1
        assert "absent.csv" in err


    @pytest.mark.parametrize("content", [
        None, "just some words\n", "{bad", '{"epoch": 5}', '{"positive": 1}',
        '{"format": "xml"}'], ids=["absent", "not-key-value", "not-json", "unknown-key",
                                   "number-for-text", "outside-choices"])
    def test_config_error_prints_the_usage_line(self, tmp_path, capsys, content):
        # A config file's fault is a usage error like a flag's: usage line, message, exit 2.
        cfg = tmp_path / "run.cfg"
        if content is not None:
            cfg.write_text(content)
        code, out, err = run(capsys, ["--config", str(cfg), "train", "--data",
                                      str(tmp_path / "absent.csv"), "--out",
                                      str(tmp_path / "m.json")])
        assert code == 2 and out == ""
        assert err.startswith("usage: iec ") and "\niec: error: " in err and str(cfg) in err


class TestTopLevel:
    def test_config_flag_without_a_value_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["--config"])
        assert code == 2
        assert err.startswith("usage: iec [-h]")
        assert err.endswith("iec: error: argument --config: expected one argument\n")

    @pytest.mark.parametrize("command, flags", [
        ("train", ["--out"]), ("benchmark", []), ("evaluate", ["--baseline", "constant0"])],
        ids=["train", "benchmark", "evaluate"])
    def test_label_column_alone_is_runtime_error(self, tmp_path, capsys, command, flags):
        # The file is rejected at load, naming it, before a fit starts or a worker forks.
        data = write_rows(tmp_path / "d.csv", ["class"], [[lab] for lab in "0110011010"])
        model = tmp_path / "m.json"
        code, out, err = run(capsys, [command, "--data", data, *flags,
                                      *[str(model)] * (command == "train")])
        assert code == 1 and out == "" and not model.exists()
        assert err == (f"error: {data}: rows must have at least one feature column, "
                       f"got shape (10, 0)\n")

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert "synth" in out and "benchmark" in out

    def test_only_main_prints(self):
        # Commands return their document and table lines; main prints one of them.
        module = ast.parse(Path(cli.__file__).read_text())
        main_def = next(fn for fn in module.body
                        if isinstance(fn, ast.FunctionDef) and fn.name == "main")

        def prints(node):
            return [call for call in ast.walk(node) if isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "print"]

        assert prints(main_def) and len(prints(module)) == len(prints(main_def))

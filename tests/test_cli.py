import csv
import json

import numpy as np
import pytest

from iec.ann import hidden_neuron_count
from iec.cli import main
from iec.metrics import METRIC_NAMES


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


class TestTrain:
    @pytest.mark.parametrize("command", ["train", "benchmark"])
    @pytest.mark.parametrize("flags", [
        ["--learning-rate", "nan"], ["--learning-rate", "inf"], ["--learning-rate", "0"],
        ["--init-scale", "inf"], ["--init-scale", "-1"], ["--epochs", "0"],
        ["--min-leaf", "0"], ["--max-depth", "-1"],
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

    def test_failed_save_keeps_previous_model(self, tmp_path, capsys):
        # Alternating labels over 0..799 grow a tree too deep for the nested
        # model JSON, so saving fails after training.
        data = write_rows(tmp_path / "deep.csv", ["x", "class"],
                          [[str(i), str(i % 2)] for i in range(800)])
        model_path = tmp_path / "m.json"
        model_path.write_bytes(b"previous model\n")
        code, _, _ = run(capsys, ["train", "--data", data, "--epochs", "1",
                                  "--out", str(model_path)])
        assert code == 1
        assert model_path.read_bytes() == b"previous model\n"

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
    ], ids=["repeated-feature", "feature-past-specs", "negative-feature",
            "scaling-width", "d_m-width"])
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

    # The numeric model's root splits x (continuous); the categorical model's
    # root splits color into its two categories.  Both roots have leaf children.
    @pytest.mark.parametrize("field, categorical, tamper", [
        ("feature_index", False, lambda root: root.update(feature_index=99)),
        ("feature_index", False, lambda root: root.update(feature_index=-1)),
        ("split_kind", False, lambda root: root.update(split_kind="categorical",
                                                       categories=[0, 1])),
        ("split_kind", True, lambda root: root.update(split_kind="numeric", threshold=0.5)),
        ("children", False, lambda root: root["children"].pop()),
        ("children", True, lambda root: root["children"].append(root["children"][0])),
        ("categories", True, lambda root: root.update(categories=[0, 0])),
        ("categories", True, lambda root: root.update(categories=[0, 2])),
        ("threshold", False, lambda root: root.update(threshold=float("nan"))),
        ("threshold", False, lambda root: root.update(threshold=float("inf"))),
        ("label", False, lambda root: root["children"][0].update(label=7)),
        ("label", True, lambda root: root["children"][1].update(label=-1)),
    ], ids=["feature-past-specs", "negative-feature", "categorical-on-continuous",
            "numeric-on-categorical", "one-numeric-child", "extra-categorical-child",
            "repeated-category", "unknown-category", "nan-threshold", "inf-threshold",
            "leaf-label-7", "leaf-label-minus-1"])
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
        tamper(doc["tree"]["root"])
        model_path.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["evaluate", "--model", str(model_path),
                                    "--data", str(tmp_path / "absent.csv")])
        assert code == 1
        assert f"error: {field} " in err and "absent.csv" not in err

    def test_model_or_baseline_required(self, tmp_path, capsys):
        data = write_eighty_twenty_csv(tmp_path / "d.csv")
        code, _, _ = run(capsys, ["evaluate", "--data", data])
        assert code == 2


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

    def test_bad_repetitions(self, tmp_path, capsys):
        data = write_separable_csv(tmp_path / "d.csv", n=40)
        code, _, err = run(capsys, ["benchmark", "--data", data,
                                    "--repetitions", "0"])
        assert code == 2
        assert "repetitions" in err

    def test_failed_fold_reports_index(self):
        from iec.ann import TrainConfig
        from iec.cli import run_benchmark
        from iec.data import Dataset, FeatureSpec
        from iec.hddt import TreeConfig

        # 2+2 rows split 50/50 leaves 2 training rows, too few for the network
        d = Dataset((FeatureSpec("x", "continuous"),),
                    np.array([[1.0], [2.0], [3.0], [4.0]]),
                    np.array([0, 0, 1, 1]))
        with pytest.raises(RuntimeError, match="fold 0"):
            run_benchmark(d, repetitions=1, train_fraction=0.5, seed=0,
                          tree_config=TreeConfig(), train_config=TrainConfig())


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


class TestTopLevel:
    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert "synth" in out and "benchmark" in out

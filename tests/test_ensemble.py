import json
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from iec import ann, ensemble, hddt, metrics
from iec.ann import MlpModel, TrainConfig
from iec.data import (CATEGORICAL, CONTINUOUS, Dataset, FeatureSpec, ScalingParams,
                      min_max_apply_matrix, min_max_fit_matrix, split_indices,
                      stratified_split, synth_generate)
from iec.ensemble import (IecModel, fit, model_from_dict, model_to_dict, network_input,
                          predict, run_benchmark)
from iec.hddt import Leaf, hellinger_split_score
from iec.metrics import ConfusionMatrix, MetricsReport


def continuous_dataset(rows, labels, names=None):
    rows = np.asarray(rows, dtype=float)
    names = names or [f"f{j}" for j in range(rows.shape[1])]
    specs = tuple(FeatureSpec(n, CONTINUOUS) for n in names)
    return Dataset(specs, rows, np.asarray(labels))


def separable_dataset(n=24, seed=0):
    """Feature 0 separates the classes cleanly; feature 1 is constant."""
    rng = np.random.default_rng(seed)
    labels = (rng.uniform(size=n) < 0.35).astype(int)
    rows = np.column_stack([labels * 4.0 + rng.uniform(0, 1, n), np.full(n, 2.0)])
    return continuous_dataset(rows, labels)


def mixed_dataset(n, seed, spread=1.0):
    """Three continuous columns (the first informative), a constant column and
    two categoricals of 4 and 30 levels binned from a noisy copy of the
    informative column.  ``spread`` widens the continuous columns and moves
    the constant one, so rows fall outside a range fitted at spread 1."""
    rng = np.random.default_rng(seed)
    labels = (rng.uniform(size=n) < 0.2).astype(int)
    x = rng.normal(size=(n, 3))
    x[:, 0] += 1.5 * labels
    noisy = x[:, 0] + rng.normal(size=n)
    rows = np.column_stack([x * spread, np.full(n, 2.0 * spread),
                            np.clip(np.floor(noisy + 2.0), 0, 3),
                            np.clip(np.floor((noisy + 3.0) * 5.0), 0, 29)])
    specs = (tuple(FeatureSpec(f"x{j}", CONTINUOUS) for j in range(4))
             + (FeatureSpec("c4", CATEGORICAL, tuple("abcd")),
                FeatureSpec("c30", CATEGORICAL, tuple(f"k{i}" for i in range(30)))))
    return Dataset(specs, rows, labels)


def hstack_input(rows, specs, selected, op=None):
    """Reference: the input matrix as one-hot blocks joined by ``np.hstack``,
    then a second ``np.hstack`` for the OP column."""
    blocks = []
    for j in selected:
        col = rows[:, j]
        if specs[j].kind == CATEGORICAL:
            onehot = np.zeros((rows.shape[0], len(specs[j].categories)))
            onehot[np.arange(rows.shape[0]), col.astype(np.int64)] = 1.0
            blocks.append(onehot)
        else:
            blocks.append(col[:, np.newaxis])
    expanded = np.hstack(blocks)
    if op is None:
        return expanded
    return np.hstack([expanded, op.astype(np.float64)[:, np.newaxis]])


def where_scale(x, s):
    """Reference: min-max scaling as one nested ``np.where`` expression."""
    lo, span = np.array(s.mins), np.array(s.maxs) - np.array(s.mins)
    constant = span == 0.0
    return np.where(constant, 0.5, np.clip((x - lo) / np.where(constant, 1.0, span), 0.0, 1.0))


def op_input(rows, tree, selected):
    """The IEC network input: the selected features plus the tree's OP column."""
    return network_input(rows, tree.specs, selected, hddt.predict(tree, rows))


class TestAugment:
    def test_width_two_continuous(self):
        d = separable_dataset()
        tree = hddt.grow_tree(d)
        assert op_input(d.rows, tree, [0, 1]).shape == (d.n, 3)
        assert network_input(d.rows, d.specs, [0, 1]).shape == (d.n, 2)

    def test_width_with_categorical(self):
        specs = (FeatureSpec("c", CATEGORICAL, ("a", "b", "z")),
                 FeatureSpec("x", CONTINUOUS))
        rows = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 7.0], [0.0, 8.0]])
        d = Dataset(specs, rows, np.array([1, 1, 0, 0]))
        tree = hddt.grow_tree(d)
        matrix = op_input(d.rows, tree, [0, 1])
        assert matrix.shape == (4, 3 + 1 + 1)
        # one-hot block reproduces the category indices
        np.testing.assert_array_equal(matrix[:, :3].argmax(axis=1), rows[:, 0])
        np.testing.assert_array_equal(matrix[:, :3].sum(axis=1), np.ones(4))
        np.testing.assert_array_equal(matrix[:, 3], rows[:, 1])
        # without OP, column order follows the selection
        swapped = network_input(d.rows, specs, [1, 0])
        np.testing.assert_array_equal(swapped, matrix[:, [3, 0, 1, 2]])

    def test_op_column_is_tree_prediction(self):
        d = separable_dataset()
        tree = hddt.grow_tree(d)
        matrix = op_input(d.rows, tree, [0])
        np.testing.assert_array_equal(matrix[:, -1], hddt.predict(tree, d.rows))

    def test_empty_selection_rejected(self):
        d = separable_dataset()
        tree = hddt.grow_tree(d)
        with pytest.raises(ValueError, match="selection"):
            op_input(d.rows, tree, [])
        with pytest.raises(ValueError, match="selection"):
            network_input(d.rows, d.specs, [])

    def test_schema_mismatch(self):
        d = separable_dataset()
        with pytest.raises(ValueError, match="rows must be a 2-d matrix of width 2"):
            network_input(np.zeros((2, 5)), d.specs, [0], op=np.zeros(2))
        with pytest.raises(ValueError, match="rows must be a 2-d matrix of width 2"):
            network_input(np.zeros(2), d.specs, [0])

    def test_expand_rejects_invalid_category(self):
        specs = (FeatureSpec("c", CATEGORICAL, ("a", "b")),)
        for value in (3.0, -1.0, 0.5):
            with pytest.raises(ValueError, match="category index in feature 'c'"):
                network_input(np.array([[value]]), specs, [0])

    @pytest.mark.parametrize("with_op", [True, False], ids=["iec", "ann-baseline"])
    def test_scaled_input_matches_hstack_path_bit_for_bit(self, with_op):
        train = mixed_dataset(600, seed=3)
        test = mixed_dataset(400, seed=4, spread=3.0)
        if with_op:
            tree = hddt.grow_tree(train)
            selected = hddt.select_features(tree) + [3]  # 3 is the constant column
            ops = [hddt.predict(tree, d.rows) for d in (train, test)]
        else:
            selected, ops = list(range(train.p)), [None, None]
        pairs = list(zip((train, test), ops))
        built = [network_input(d.rows, d.specs, selected, op) for d, op in pairs]
        stacked = [hstack_input(d.rows, d.specs, selected, op) for d, op in pairs]
        scaling = min_max_fit_matrix(built[0])
        assert scaling == min_max_fit_matrix(stacked[0])
        assert 0.0 in np.subtract(scaling.maxs, scaling.mins)
        assert (built[1] < scaling.mins).any() and (built[1] > scaling.maxs).any()
        for new, old in zip(built, stacked):
            assert new.shape == old.shape
            np.testing.assert_array_equal(
                min_max_apply_matrix(new, scaling).view(np.int64),
                where_scale(old, scaling).view(np.int64))


class TestFit:
    def test_structural_contract_on_synthetic(self):
        d = synth_generate(1000, 5, 5, 0.2, seed=6)
        model = fit(d, train_config=TrainConfig(epochs=20))
        assert model.selected_features
        assert all(model.tree.importances[j] > 0 for j in model.selected_features)
        assert model.d_m == len(model.selected_features) + 1  # all continuous
        assert model.net.hidden_count == ann.hidden_neuron_count(1000, model.d_m)
        assert model.net.input_dim == model.d_m
        assert len(model.scaling.mins) == model.d_m

    def test_width_invariant_with_categoricals(self):
        rng = np.random.default_rng(31)
        n = 60
        labels = (rng.uniform(size=n) < 0.3).astype(int)
        rows = np.column_stack([
            labels * 2.0 + rng.normal(size=n),          # informative continuous
            rng.integers(0, 3, size=n).astype(float),   # 3-category noise
        ])
        specs = (FeatureSpec("x", CONTINUOUS),
                 FeatureSpec("c", CATEGORICAL, ("a", "b", "z")))
        d = Dataset(specs, rows, labels)
        model = fit(d, train_config=TrainConfig(epochs=20))
        widths = {0: 1, 1: 3}  # x is continuous, c has three categories
        assert model.d_m == sum(widths[j] for j in model.selected_features) + 1

    def test_separable_case(self):
        d = separable_dataset()
        model = fit(d, train_config=TrainConfig(epochs=2000, learning_rate=0.5))
        assert model.selected_features == (0,)
        matrix = op_input(d.rows, model.tree, model.selected_features)
        np.testing.assert_array_equal(matrix[:, -1], d.labels)
        np.testing.assert_array_equal(predict(model, d.rows), d.labels)

    def test_column_wider_than_float_max(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=300) * 1e300
        x[:2] = -1.7e308, 1.7e308
        d = continuous_dataset(x[:, np.newaxis], (x > 0).astype(int))
        model = fit(d, train_config=TrainConfig(epochs=20))
        assert model.selected_features == (0,)
        assert set(predict(model, d.rows)) <= {0, 1}

    def test_one_row_per_class(self):
        # n = 2 is the least that sizes k: ln n > 0.
        d = continuous_dataset([[0.0], [1.0]], [0, 1])
        model = fit(d)
        assert (model.d_m, model.net.hidden_count) == (2, 1)
        np.testing.assert_array_equal(predict(model, d.rows), d.labels)

    def test_single_class_rejected(self):
        d = continuous_dataset([[1.0], [2.0]], [1, 1])
        with pytest.raises(ValueError, match="both classes"):
            fit(d)

    def test_degenerate_tree_falls_back_to_all_features(self):
        # constant features: the tree cannot split, selection comes back empty
        rows = np.full((12, 2), 3.0)
        labels = np.array([0] * 8 + [1] * 4)
        d = continuous_dataset(rows, labels)
        model = fit(d, train_config=TrainConfig(epochs=10))
        assert isinstance(model.tree.root, Leaf)
        assert model.selected_features == (0, 1)
        assert model.d_m == 3

    def test_deterministic(self):
        d = synth_generate(120, 3, 2, 0.25, seed=2)
        config = TrainConfig(epochs=30, seed=5)
        a = fit(d, train_config=config)
        b = fit(d, train_config=config)
        assert model_to_dict(a) == model_to_dict(b)


class TestPredict:
    def test_peak_memory_is_a_few_matrices(self):
        # The input matrix is written once and scaled in place (about 1.3x);
        # scaling into a second matrix costs about 2.3x, hstacked blocks and a
        # nested np.where scaling about 3x.
        model = fit(mixed_dataset(2000, seed=1), train_config=TrainConfig(epochs=5))
        rows = mixed_dataset(5000, seed=2).rows
        tracemalloc.start()
        try:
            predict(model, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.d_m > 20  # both categoricals are expanded
        assert peak <= 1.5 * rows.shape[0] * model.d_m * 8

    def test_refit_predictions_are_stable(self):
        d = synth_generate(150, 3, 2, 0.3, seed=9)
        model = fit(d, train_config=TrainConfig(epochs=50))
        first = predict(model, d.rows)
        second = predict(model, d.rows)
        np.testing.assert_array_equal(first, second)

    def test_duplicate_row_gets_same_prediction(self):
        d = separable_dataset()
        model = fit(d, train_config=TrainConfig(epochs=200))
        row = d.rows[3:4]
        assert predict(model, row)[0] == predict(model, d.rows)[3]

    def test_batch_equals_per_row(self):
        d = synth_generate(80, 3, 2, 0.25, seed=4)
        model = fit(d, train_config=TrainConfig(epochs=50))
        batch = predict(model, d.rows)
        singles = np.array([predict(model, d.rows[i:i + 1])[0] for i in range(d.n)])
        np.testing.assert_array_equal(batch, singles)


class TestWhatTheNetworkAdds:
    """Documents current behaviour, not a goal.  On the acceptance dataset the
    unpruned tree labels every training row correctly, so the network's OP
    column equals its target, and IEC's test labels equal the tree's."""

    @pytest.mark.parametrize("seed", range(5))
    def test_iec_labels_equal_its_trees_on_the_acceptance_splits(self, seed):
        train, test = stratified_split(synth_generate(2000, 8, 8, 0.2, seed=42), 0.7, seed)
        model = fit(train)
        np.testing.assert_array_equal(hddt.predict(model.tree, train.rows), train.labels)
        np.testing.assert_array_equal(predict(model, test.rows),
                                      hddt.predict(model.tree, test.rows))


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the folds run in workers only where there is fork")


class TestRunBenchmark:
    def test_one_tree_per_fold(self, monkeypatch):
        monkeypatch.setattr(ann, "_cpu_count", lambda: 1)  # count calls in this process
        calls = []
        grow_tree = hddt.grow_tree

        def counting_grow_tree(*args, **kwargs):
            calls.append(1)
            return grow_tree(*args, **kwargs)

        monkeypatch.setattr(hddt, "grow_tree", counting_grow_tree)
        d = synth_generate(200, 3, 2, 0.25, seed=3)
        results = run_benchmark(d, repetitions=3, train_fraction=0.7, seed=0,
                                tree_config=hddt.TreeConfig(),
                                train_config=TrainConfig(epochs=10))
        assert [len(reports) for reports in results.values()] == [3, 3, 3]
        assert len(calls) == 3

    def test_one_tree_pass_per_fold_over_the_test_rows(self, monkeypatch):
        # Per fold the tree sees the training rows (OP for the network) and the
        # test rows once: its HDDT predictions are also the IEC model's OP column.
        monkeypatch.setattr(ann, "_cpu_count", lambda: 1)  # count calls in this process
        passes = []
        tree_predict = hddt.predict

        def counting_predict(model, rows):
            passes.append(len(rows))
            return tree_predict(model, rows)

        monkeypatch.setattr(hddt, "predict", counting_predict)
        d = synth_generate(200, 3, 2, 0.25, seed=3)
        run_benchmark(d, repetitions=3, train_fraction=0.7, seed=0,
                      tree_config=hddt.TreeConfig(), train_config=TrainConfig(epochs=10))
        assert passes == [140, 60] * 3

    @pytest.mark.parametrize("task", ["_ann_fold", "_iec_fold"])
    def test_failed_fold_is_named_by_its_fold(self, task, monkeypatch):
        # Only fold 2 fails; its two tasks are the 3rd and the 6th of six.
        d = synth_generate(200, 3, 2, 0.25, seed=3)
        failing_train_idx, _ = split_indices(d.labels, 0.7, 2)
        fold_task = getattr(ensemble, task)

        def fail_on_fold_2(dataset, train_idx, *args):
            if np.array_equal(train_idx, failing_train_idx):
                raise ValueError("planted failure")
            return fold_task(dataset, train_idx, *args)

        monkeypatch.setattr(ensemble, task, fail_on_fold_2)
        for cpus in (1, 2):  # in this process, and in a worker
            monkeypatch.setattr(ann, "_cpu_count", lambda: cpus)
            with pytest.raises(RuntimeError, match="^benchmark fold 2 failed: planted failure$"):
                run_benchmark(d, 3, 0.7, 0, hddt.TreeConfig(), TrainConfig(epochs=10))

    def test_each_task_scores_its_own_test_rows(self):
        # A task returns its reports by classifier name, each scored on its fold's test rows.
        d = mixed_dataset(300, seed=4)
        configs = (hddt.TreeConfig(min_leaf=3), TrainConfig(epochs=40, seed=1))
        train_idx, test_idx = split_indices(d.labels, 0.7, 3)
        test_rows, test_labels = d.rows[test_idx], d.labels[test_idx]

        def scored(preds):
            return metrics.report(metrics.confusion(preds, test_labels))

        model = fit(d.subset(train_idx), *configs)
        assert ensemble._iec_fold(d, train_idx, test_idx, *configs) == {
            "HDDT": scored(hddt.predict(model.tree, test_rows)),
            "IEC": scored(predict(model, test_rows))}
        # The ANN baseline, rebuilt from public functions: IEC's network half on every raw
        # feature, without the OP column.
        features = range(d.p)
        train_matrix = network_input(d.rows[train_idx], d.specs, features)
        scaling = min_max_fit_matrix(train_matrix)
        net = ann.train(min_max_apply_matrix(train_matrix, scaling), d.labels[train_idx],
                        ann.hidden_neuron_count(*train_matrix.shape), configs[1])
        test_matrix = min_max_apply_matrix(network_input(test_rows, d.specs, features), scaling)
        assert ensemble._ann_fold(d, train_idx, test_idx, configs[1]) == {
            "ANN": scored(ann.classify_batch(net, test_matrix))}

    def test_iec_tasks_run_first_and_reports_stay_in_fold_order(self, monkeypatch):
        # The longest tasks, a tree and a network each, start first.
        d = synth_generate(200, 3, 2, 0.25, seed=3)
        configs = (hddt.TreeConfig(), TrainConfig(epochs=10))
        folds = [split_indices(d.labels, 0.7, 5 + i) for i in range(3)]
        expected = {"ANN": [], "HDDT": [], "IEC": []}
        for train_idx, test_idx in folds:
            for reports in (ensemble._ann_fold(d, train_idx, test_idx, configs[1]),
                            ensemble._iec_fold(d, train_idx, test_idx, *configs)):
                for name, report in reports.items():
                    expected[name].append(report.to_dict())
        calls = []

        def spy(name):
            fold_task = getattr(ensemble, name)

            def record(dataset, train_idx, *args):
                calls.append((name, [np.array_equal(train_idx, f[0]) for f in folds].index(True)))
                return fold_task(dataset, train_idx, *args)
            return record

        for name in ("_iec_fold", "_ann_fold"):
            monkeypatch.setattr(ensemble, name, spy(name))
        monkeypatch.setattr(ann, "_cpu_count", lambda: 1)  # see the calls in this process
        results = run_benchmark(d, 3, 0.7, 5, *configs)
        assert calls == [("_iec_fold", i) for i in range(3)] + [("_ann_fold", i) for i in range(3)]
        assert {name: [r.to_dict() for r in reports] for name, reports in results.items()} == \
            expected

    def test_workers_give_the_serial_reports(self, monkeypatch):
        d = mixed_dataset(300, seed=4)
        args = (d, 3, 0.7, 2, hddt.TreeConfig(min_leaf=3), TrainConfig(epochs=40, seed=1))
        monkeypatch.setattr(ann, "_cpu_count", lambda: 1)
        serial = run_benchmark(*args)
        monkeypatch.setattr(ann, "_cpu_count", lambda: 2)
        pooled = run_benchmark(*args)
        assert {name: [r.to_dict() for r in reports] for name, reports in pooled.items()} == \
            {name: [r.to_dict() for r in reports] for name, reports in serial.items()}

    @needs_fork
    def test_no_dataset_is_pickled_on_the_pool_path(self, monkeypatch):
        # The workers inherit the dataset through fork and receive task numbers.
        def refuse(self, protocol):
            raise AssertionError("a Dataset was pickled")

        d = mixed_dataset(300, seed=4)
        args = (d, 2, 0.7, 2, hddt.TreeConfig(min_leaf=3), TrainConfig(epochs=40, seed=1))
        monkeypatch.setattr(ann, "_cpu_count", lambda: 1)
        serial = run_benchmark(*args)
        monkeypatch.setattr(Dataset, "__reduce_ex__", refuse)
        monkeypatch.setattr(ann, "_cpu_count", lambda: 2)
        pooled = run_benchmark(*args)
        assert {name: [r.to_dict() for r in reports] for name, reports in pooled.items()} == \
            {name: [r.to_dict() for r in reports] for name, reports in serial.items()}

    @needs_fork
    def test_pool_path_holds_indices_not_folds(self, monkeypatch):
        # With two workers this process keeps each fold's row indices and the
        # workers' reports: under 0.6x the rows here.  Building every fold here
        # and pickling it into the tasks costs about 5.6x.
        monkeypatch.setattr(ann, "_cpu_count", lambda: 2)
        d = synth_generate(2000, 4, 16, 0.2, seed=1)
        tracemalloc.start()
        try:
            run_benchmark(d, 3, 0.7, 0, hddt.TreeConfig(), TrainConfig(epochs=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * d.rows.nbytes

    def test_split_errors_stay_early(self, monkeypatch):
        # A class that cannot go on both sides fails in this process, with the
        # split's own message, before any worker starts.
        def no_pool(*args, **kwargs):
            raise AssertionError("no worker may start")

        monkeypatch.setattr(ann, "_cpu_count", lambda: 2)
        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", no_pool)
        d = continuous_dataset(np.arange(11.0)[:, None], [0] * 10 + [1])
        with pytest.raises(ValueError, match="class 1 has 1 rows; cannot place it on both sides"):
            run_benchmark(d, 2, 0.7, 0, hddt.TreeConfig(), TrainConfig(epochs=5))

    def test_no_worker_outlives_the_call(self, monkeypatch):
        # Forked workers are joined when the call returns: no child is left,
        # running or unreaped, so waitpid finds none.
        monkeypatch.setattr(ann, "_cpu_count", lambda: 2)
        d = synth_generate(200, 3, 2, 0.25, seed=3)
        run_benchmark(d, 2, 0.7, 0, hddt.TreeConfig(), TrainConfig(epochs=10))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_library_call_starts_the_cli_pool(self, monkeypatch):
        # No worker argument: eight CPUs and one repetition (two tasks) give one
        # pool of two workers, the pool `iec benchmark` starts.
        pools, pool_class = [], ensemble.ProcessPoolExecutor

        def counted_pool(workers, **kwargs):
            pools.append(workers)
            return pool_class(min(workers, 2), **kwargs)

        monkeypatch.setattr(ann, "_cpu_count", lambda: 8)
        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", counted_pool)
        d = synth_generate(200, 3, 2, 0.25, seed=3)
        run_benchmark(d, 1, 0.7, 0, hddt.TreeConfig(), TrainConfig(epochs=10))
        assert pools == [2]


class TestSkewInsensitivity:
    def test_selection_and_op_survive_minority_replication(self):
        rng = np.random.default_rng(15)
        rows = rng.normal(size=(40, 3))
        labels = (rows[:, 1] > 0.9).astype(int)
        d = continuous_dataset(rows, labels)
        base_tree = hddt.grow_tree(d)
        base_selected = hddt.select_features(base_tree)
        base_op = hddt.predict(base_tree, rows)
        for c in (2, 5):
            extra = np.repeat(rows[labels == 1], c - 1, axis=0)
            rep = continuous_dataset(
                np.vstack([rows, extra]),
                np.concatenate([labels, np.ones(len(extra), int)]))
            tree = hddt.grow_tree(rep)
            assert hddt.select_features(tree) == base_selected
            np.testing.assert_array_equal(hddt.predict(tree, rows), base_op)


class TestSerialization:
    def test_roundtrip_preserves_predictions(self):
        d = synth_generate(100, 3, 2, 0.3, seed=8)
        model = fit(d, train_config=TrainConfig(epochs=40))
        doc = json.loads(json.dumps(model_to_dict(model)))
        restored = model_from_dict(doc)
        np.testing.assert_array_equal(predict(restored, d.rows),
                                      predict(model, d.rows))
        assert restored.selected_features == model.selected_features
        assert restored.d_m == model.d_m

    @pytest.mark.parametrize("seed", range(5))
    def test_reader_accepts_what_the_writer_writes(self, seed):
        # The strict reader must take every document the writer emits, both kinds of split.
        model = fit(mixed_dataset(150, seed), train_config=TrainConfig(epochs=20, seed=seed))
        doc = json.loads(json.dumps(model_to_dict(model)))
        kinds = {node.get("split_kind") for node in doc["tree"]["nodes"]}
        assert {hddt.NUMERIC, hddt.CATEGORICAL_SPLIT} <= kinds
        assert model_to_dict(model_from_dict(doc)) == doc

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            model_from_dict({"format_version": 1, "kind": "other"})

    def test_model_invariants(self):
        d = separable_dataset()
        model = fit(d, train_config=TrainConfig(epochs=10))
        with pytest.raises(ValueError, match="d_m"):
            IecModel(model.tree, model.selected_features, model.scaling,
                     model.net, model.d_m + 1)
        with pytest.raises(ValueError, match="selected_features"):
            IecModel(model.tree, (), model.scaling, model.net, model.d_m)

    # Each constructor owns its fields' rules, so an object built in code meets the
    # rules a loaded model file meets.
    @pytest.mark.parametrize("build, message", [
        (lambda: FeatureSpec("c", CATEGORICAL, "rgb"), "categories of 'c' must be"),
        (lambda: FeatureSpec("c", CATEGORICAL, (1, 2)), "categories of 'c' must be"),
        (lambda: MlpModel(1.0, 1, np.zeros((1, 1)), np.zeros(1), np.zeros(1), 0.0),
         "input_dim must be an integer"),
        (lambda: MlpModel(True, 1, np.zeros((1, 1)), np.zeros(1), np.zeros(1), 0.0),
         "input_dim must be an integer"),
        (lambda: MlpModel(1, 1, np.zeros((1, 1)), [True], np.zeros(1), 0.0),
         "hidden_biases must be"),
        (lambda: ScalingParams(("a",), (1.0,)), "scaling mins must be"),
        (lambda: ScalingParams(0.0, (1.0,)), "scaling mins must be"),
        (lambda: MetricsReport("0.5", 0.5, 0.5, 0.5, 0.5, 0.5, 0.5), "precision must be"),
        (lambda: ConfusionMatrix(2.0, 0, 1, 0), "tp must be an integer >= 0, got 2.0"),
        (lambda: ConfusionMatrix(True, 0, 1, 0), "tp must be an integer >= 0, got True"),
        (lambda: hellinger_split_score([(1.5, 2), (2, 1)]),
         "partition count must be an integer >= 0, got 1.5"),
        (lambda: hellinger_split_score([(True, 2), (2, 1)]),
         "partition count must be an integer >= 0, got True"),
    ], ids=["string-categories", "number-categories", "float-input_dim", "bool-input_dim",
            "bool-hidden-bias", "string-min", "scalar-mins", "string-metric", "float-count",
            "bool-count", "float-partition-count", "bool-partition-count"])
    def test_objects_built_in_code_meet_the_readers_rules(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_scalar_selected_features_rejected(self):
        model = fit(separable_dataset(), train_config=TrainConfig(epochs=10))
        with pytest.raises(ValueError, match="selected_features must be a non-empty list"):
            IecModel(model.tree, 0, model.scaling, model.net, model.d_m)

    def test_numpy_integer_counts_accepted(self):
        assert ConfusionMatrix(np.int64(2), 0, np.int32(1), 0).total == 3
        assert (hellinger_split_score([(np.int64(1), 2), (2, np.uint8(1))])
                == hellinger_split_score([(1, 2), (2, 1)]))

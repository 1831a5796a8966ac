import re
import tracemalloc

import numpy as np
import pytest

from iec import ensemble
from iec.ann import TrainConfig, forward_batch, init_model
from iec.data import (CATEGORICAL, CONTINUOUS, Dataset, FeatureSpec,
                      ScalingParams, category_codes, fields, imbalance_cv, load_csv,
                      min_max_apply_matrix, min_max_fit_matrix,
                      repeated_eval_protocol, require_both_classes, require_indices,
                      require_labels, require_matrix, require_positive, require_vector,
                      round_half_away, specs_from_dicts, specs_to_dicts, split_indices,
                      stratified_split, synth_generate)
from iec.ensemble import network_input
from iec.hddt import best_split_categorical


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def continuous_dataset(rows, labels, names=None):
    rows = np.asarray(rows, dtype=float)
    names = names or [f"f{j}" for j in range(rows.shape[1])]
    specs = tuple(FeatureSpec(n, CONTINUOUS) for n in names)
    return Dataset(specs, rows, np.asarray(labels))


def labelled_dataset(n_neg, n_pos, seed=0):
    """Rows carry a unique id in column 0 so partitions can be checked."""
    n = n_neg + n_pos
    rng = np.random.default_rng(seed)
    rows = np.column_stack([np.arange(n, dtype=float), rng.normal(size=n)])
    labels = np.concatenate([np.zeros(n_neg, int), np.ones(n_pos, int)])
    return continuous_dataset(rows, labels)


class TestLoadCsv:
    def test_two_row_sample(self, tmp_path):
        path = write_csv(tmp_path / "d.csv",
                         "SSC,HSC,Placement\n68.4,85.6,Y\n64,68,N\n")
        d = load_csv(path, "Placement", "Y")
        assert d.n == 2 and d.p == 2
        assert d.labels.tolist() == [1, 0]
        assert [s.name for s in d.specs] == ["SSC", "HSC"]
        assert all(s.kind == CONTINUOUS for s in d.specs)
        np.testing.assert_array_equal(d.rows, [[68.4, 85.6], [64.0, 68.0]])

    def test_byte_order_mark_is_not_part_of_a_name(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b,class\n1,2,1\n3,4,0\n")
        assert [s.name for s in load_csv(str(path), "class", "1").specs] == ["a", "b"]
        d = load_csv(str(path), "a", "1")
        assert [s.name for s in d.specs] == ["b", "class"] and d.labels.tolist() == [1, 0]

    def test_single_row(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,lab\n1.5,Y\n")
        d = load_csv(path, "lab", "Y")
        assert d.n == 1 and d.labels.tolist() == [1]

    def test_three_label_values_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,lab\n1,Y\n2,N\n3,M\n")
        with pytest.raises(ValueError, match="distinct"):
            load_csv(path, "lab", "Y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(str(tmp_path / "nope.csv"), "lab", "Y")

    def test_missing_columns(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,lab\n1,Y\n2,N\n")
        with pytest.raises(ValueError, match="label column"):
            load_csv(path, "target", "Y")
        with pytest.raises(ValueError, match="categorical columns"):
            load_csv(path, "lab", "Y", categorical_columns=("city",))

    def test_non_numeric_continuous(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,lab\nhigh,Y\n2,N\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(path, "lab", "Y")

    def test_empty_and_header_only(self, tmp_path):
        empty = write_csv(tmp_path / "e.csv", "")
        with pytest.raises(ValueError, match="empty"):
            load_csv(empty, "lab", "Y")
        header = write_csv(tmp_path / "h.csv", "a,lab\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(header, "lab", "Y")

    def test_missing_value_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,b,lab\n1,,Y\n2,3,N\n")
        with pytest.raises(ValueError, match="missing value"):
            load_csv(path, "lab", "Y")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_rejected(self, tmp_path, cell):
        path = write_csv(tmp_path / "d.csv", f"a,lab,b\n1,Y,2\n3,N,{cell}\n")
        with pytest.raises(ValueError, match="non-finite value at row 3, column 'b'"):
            load_csv(path, "lab", "Y")

    def test_ragged_row_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,b,lab\n1,2,Y\n3,N\n")
        with pytest.raises(ValueError, match="fields"):
            load_csv(path, "lab", "Y")

    def test_oversized_cell_named_at_its_row(self, tmp_path):
        # The csv module's own error names neither the file nor the row.
        path = write_csv(tmp_path / "d.csv", "a,lab\n1,Y\n2,N\n" + "3" * 200_000 + ",Y\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: field larger than field limit (131072) at row 4")):
            load_csv(path, "lab", "Y")

    def test_invalid_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,lab\n1,Y\n\xff2,N\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: not UTF-8 text")):
            load_csv(str(path), "lab", "Y")

    def test_categorical_first_appearance_order(self, tmp_path):
        path = write_csv(tmp_path / "d.csv",
                         "city,x,lab\nparis,1,Y\nrome,2,N\nparis,3,N\noslo,4,Y\n")
        d = load_csv(path, "lab", "Y", categorical_columns=("city",))
        spec = d.specs[0]
        assert spec.kind == CATEGORICAL
        assert spec.categories == ("paris", "rome", "oslo")
        assert d.rows[:, 0].tolist() == [0.0, 1.0, 0.0, 2.0]


    def test_specs_map_columns_by_name(self, tmp_path):
        path = write_csv(tmp_path / "d.csv",
                         "b,city,lab,a\n9,rome,Y,1\n8,oslo,N,2\n7,rome,N,3\n")
        specs = (FeatureSpec("a", CONTINUOUS),
                 FeatureSpec("city", CATEGORICAL, ("oslo", "paris", "rome")))
        d = load_csv(path, "lab", "Y", specs=specs)
        assert d.specs == specs
        np.testing.assert_array_equal(d.rows, [[1.0, 2.0], [2.0, 0.0], [3.0, 2.0]])
        assert d.labels.tolist() == [1, 0, 0]

    def test_specs_reject_unseen_category_and_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "city,lab\nrome,Y\nbern,N\n")
        city = FeatureSpec("city", CATEGORICAL, ("rome",))
        with pytest.raises(ValueError, match="unseen category 'bern' at row 3, column 'city'"):
            load_csv(path, "lab", "Y", specs=(city,))
        with pytest.raises(ValueError, match="row 1 .* column 'a'"):
            load_csv(path, "lab", "Y", specs=(FeatureSpec("a", CONTINUOUS),))

    def test_repeated_header_name_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,lab,lab\n1,Y,2\n3,N,4\n")
        with pytest.raises(ValueError, match="repeats"):
            load_csv(path, "lab", "Y")

    def mixed_csv(self, path, n=2000):
        """Six continuous columns, two categorical ones and a label, seeded."""
        rng = np.random.default_rng(3)
        lines = ["x0,x1,x2,city,x3,x4,x5,grade,lab"]
        for i in range(n):
            x = [repr(float(v)) for v in rng.normal(size=6)]
            lines.append(",".join(x[:3] + [f"city{rng.integers(30)}"] + x[3:]
                                  + [f"g{rng.integers(5)}", "Y" if i % 5 == 0 else "N"]))
        return write_csv(path, "\n".join(lines) + "\n")

    def test_peak_memory_is_a_few_matrices(self, tmp_path):
        # Holds only if no string copy of the file is kept: one costs 13-15x the matrix.
        path = self.mixed_csv(tmp_path / "d.csv")
        tracemalloc.start()
        try:
            d = load_csv(path, "lab", "Y", categorical_columns=("city", "grade"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.n == 2000 and d.p == 8
        assert peak <= 4 * d.rows.nbytes

    def test_third_label_value_named_at_its_row(self, tmp_path):
        path = self.mixed_csv(tmp_path / "d.csv", n=5000)
        with pytest.raises(ValueError) as info:
            load_csv(path, "x0", "Y", categorical_columns=("city", "grade", "lab"))
        message = str(info.value)
        assert len(message) < 500
        assert "third distinct value" in message and "at row 4 " in message


class TestFields:
    def test_values_in_the_order_asked(self):
        assert fields({"a": 1, "b": None}, "doc", "b", "a") == (None, 1)

    @pytest.mark.parametrize("doc, message", [
        ([1], "doc must be an object, got [1]"),
        ({"b": 1}, "a is missing from doc"),
        ({"a": 1}, "b is missing from doc"),
    ])
    def test_first_fault_named(self, doc, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            fields(doc, "doc", "a", "b")


class TestInputRuleOwners:
    # tests/test_input_rules.py holds each site's rejection; these are the passes.
    def test_labels_returned_as_an_array(self):
        labels = require_labels("labels", [0, 1, 1])
        assert isinstance(labels, np.ndarray) and labels.tolist() == [0, 1, 1]

    def test_matrix_returned_as_float64_without_a_copy(self):
        x = np.zeros((2, 3))
        assert require_matrix("x", x, 3) is x
        assert require_matrix("x", [[1, 2]]).dtype == np.float64

    def test_nan_is_a_value_not_a_shape_fault(self):
        # hddt.predict routes NaN to the right child, so the matrix rule lets it through.
        assert np.isnan(require_matrix("x", [[np.nan]], 1)).all()

    def test_vector_returned_in_the_callers_dtype_without_a_copy(self):
        for values in (np.arange(3, dtype=np.int8), np.zeros(3, dtype=np.float32)):
            assert require_vector("values", values, 3) is values

    def test_list_labels_split_as_the_same_int64_array(self):
        # A list compared unequal to each label, so each class had 0 rows.
        labels = [0, 1, 0, 1, 0, 1, 1, 0]
        got, want = split_indices(labels, 0.5, 3), split_indices(np.array(labels), 0.5, 3)
        for side, same in zip(got, want):
            np.testing.assert_array_equal(side, same)

    def test_indices_returned_as_a_tuple(self):
        assert require_indices("selected", range(3), 3) == (0, 1, 2)
        assert require_indices("selected", [2, np.int64(0)], 3) == (2, 0)
        rows = np.arange(6.0).reshape(3, 2)
        specs = (FeatureSpec("a", CONTINUOUS), FeatureSpec("b", CONTINUOUS))
        np.testing.assert_array_equal(network_input(rows, specs, range(2)), rows)

    def test_class_counts_and_positive_numbers_returned(self):
        assert require_both_classes("train", 1, 4) == (1, 4)
        assert require_positive("init_scale", 2) == 2.0
        assert init_model(2, 1, 0, 1).hidden_weights.tolist() == (
            init_model(2, 1, 0, 1.0).hidden_weights.tolist())

    def test_no_rows_give_no_outputs(self):
        data = continuous_dataset([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0]], [0, 1, 0, 1])
        model = ensemble.fit(data, train_config=TrainConfig(epochs=1))
        assert forward_batch(init_model(2, 1, 0), np.zeros((0, 2))).shape == (0,)
        assert ensemble.predict(model, np.zeros((0, 2))).shape == (0,)


class TestMinMax:
    def test_fit_records_extrema(self):
        s = min_max_fit_matrix([[2.0], [4.0], [10.0]])
        assert s.mins == (2.0,) and s.maxs == (10.0,)

    def test_fit_constant_column(self):
        s = min_max_fit_matrix([[5.0], [5.0]])
        assert s.mins == (5.0,) and s.maxs == (5.0,)

    def test_fit_columns_independent(self):
        rng = np.random.default_rng(11)
        rows = rng.normal(size=(20, 2)) * [3.0, 50.0]
        s = min_max_fit_matrix(rows)
        # Oracle: plain per-column scan.
        for j in range(2):
            lo, hi = rows[0, j], rows[0, j]
            for v in rows[:, j]:
                lo, hi = min(lo, v), max(hi, v)
            assert s.mins[j] == lo and s.maxs[j] == hi

    def test_apply_affine(self):
        x = np.array([[2.0], [4.0], [10.0]])
        out = min_max_apply_matrix(x, min_max_fit_matrix(x))
        np.testing.assert_allclose(out[:, 0], [0.0, 0.25, 1.0])

    def test_apply_constant_gives_half(self):
        x = np.array([[5.0], [5.0]])
        out = min_max_apply_matrix(x, min_max_fit_matrix(x))
        np.testing.assert_array_equal(out[:, 0], [0.5, 0.5])

    def test_apply_clamps_unseen(self):
        s = min_max_fit_matrix([[2.0], [10.0]])
        out = min_max_apply_matrix(np.array([[-4.0], [25.0]]), s)
        np.testing.assert_array_equal(out[:, 0], [0.0, 1.0])

    def test_apply_spec_mismatch(self):
        s = ScalingParams((1.0,), (3.0,))
        with pytest.raises(ValueError, match="x must be a 2-d matrix of width 1, got shape"):
            min_max_apply_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]), s)

    def test_matrix_helpers(self):
        x = np.array([[0.0, 5.0], [2.0, 5.0], [4.0, 5.0]])
        s = min_max_fit_matrix(x)
        out = min_max_apply_matrix(x, s)
        np.testing.assert_allclose(out[:, 0], [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(out[:, 1], [0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match="x must be a 2-d matrix of width 2, got shape"):
            min_max_apply_matrix(np.zeros((2, 3)), s)

    def test_apply_matches_where_form_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n, d = rng.integers(1, 40), rng.integers(1, 8)
            centre, scale = rng.normal(size=d) * 10, rng.uniform(0.01, 100, size=d)
            fitted = rng.normal(size=(n, d)) * scale + centre
            constant = rng.uniform(size=d) < 0.3
            fitted[:, constant] = fitted[0, constant]
            s = min_max_fit_matrix(fitted)
            # Twice the spread: many values fall outside the fitted range.
            x = rng.normal(size=(rng.integers(1, 40), d)) * 2 * scale + centre
            lo, span = np.array(s.mins), np.array(s.maxs) - np.array(s.mins)
            where = np.where(span == 0.0, 0.5,
                             np.clip((x - lo) / np.where(span == 0.0, 1.0, span), 0.0, 1.0))
            out = min_max_apply_matrix(x, s)
            assert not np.shares_memory(out, x)
            np.testing.assert_array_equal(out.view(np.int64), where.view(np.int64))
            # The same steps written into x itself.
            assert min_max_apply_matrix(x, s, out=x) is x
            np.testing.assert_array_equal(x.view(np.int64), where.view(np.int64))

    def test_column_wider_than_float_max(self):
        # max - min overflows to inf: the column is scaled without it, and the
        # ordinary column beside it keeps the plain affine map.
        x = np.array([[-1.7e308, 2.0], [0.0, 4.0], [1.7e308, 10.0]])
        s = min_max_fit_matrix(x)
        out = min_max_apply_matrix(x, s)
        np.testing.assert_array_equal(out[:, 0], [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(out[:, 1], (x[:, 1] - 2.0) / 8.0)
        unseen = min_max_apply_matrix(np.array([[-1.79e308, 0.0], [1.79e308, 12.0]]), s)
        np.testing.assert_array_equal(unseen, [[0.0, 0.0], [1.0, 1.0]])

    def test_unseen_value_beyond_float_max_from_range(self):
        # x - min overflows (first column) and (x - min) / span overflows
        # (second); both clamp without a warning, which pytest makes an error.
        s = min_max_fit_matrix([[1e308, 0.0], [1.5e308, 1e-300]])
        out = min_max_apply_matrix(np.array([[-1.7e308, 1e10], [1.7e308, -1e10]]), s)
        np.testing.assert_array_equal(out, [[0.0, 1.0], [1.0, 0.0]])

    def test_roundtrip_recovers_originals(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            rows = rng.normal(loc=rng.normal() * 10, scale=rng.uniform(0.1, 9),
                              size=(rng.integers(2, 30), 1))
            if rows.max() == rows.min():
                continue
            s = min_max_fit_matrix(rows)
            scaled = min_max_apply_matrix(rows, s)
            recovered = scaled[:, 0] * (s.maxs[0] - s.mins[0]) + s.mins[0]
            np.testing.assert_allclose(recovered, rows[:, 0], rtol=1e-9)

    def test_scaling_params_json(self):
        s = ScalingParams((1.0, -3.0), (2.0, 5.5))
        assert s.to_dict()["columns"] == [0, 1]
        assert ScalingParams.from_dict(s.to_dict()) == s
        with pytest.raises(ValueError, match="max"):
            ScalingParams((2.0,), (1.0,))

    @pytest.mark.parametrize("columns", [[0], [1, 0], [0, 2], [1, 2], [0, 1, 2]])
    def test_from_dict_rejects_other_columns(self, columns):
        doc = {"columns": columns, "mins": [1.0, -3.0], "maxs": [2.0, 5.5]}
        with pytest.raises(ValueError, match="columns"):
            ScalingParams.from_dict(doc)


class TestImbalanceCv:
    def test_balanced_is_zero(self):
        assert imbalance_cv(labelled_dataset(50, 50)) == 0.0

    def test_two_to_one_ratio(self):
        # std of (100, 50) is 25, mean 75: just over the 0.30 imbalance line.
        d = labelled_dataset(100, 50)
        assert imbalance_cv(d) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_eighty_twenty(self):
        assert imbalance_cv(labelled_dataset(80, 20)) == pytest.approx(0.6, abs=1e-12)

    def test_single_class_rejected(self):
        d = continuous_dataset([[1.0], [2.0]], [1, 1])
        with pytest.raises(ValueError, match="both classes"):
            imbalance_cv(d)

    def test_symmetric_and_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = int(rng.integers(1, 60)), int(rng.integers(1, 60))
            cv_ab = imbalance_cv(labelled_dataset(a, b))
            cv_ba = imbalance_cv(labelled_dataset(b, a))
            assert cv_ab == pytest.approx(cv_ba, abs=1e-12)
            assert (cv_ab == 0.0) == (a == b)


class TestStratifiedSplit:
    def test_per_class_rounding(self):
        d = labelled_dataset(80, 20)
        train, test = stratified_split(d, 0.7, seed=9)
        assert train.class_counts() == (56, 14)
        assert test.class_counts() == (24, 6)

    def test_tiny_symmetric_split(self):
        d = labelled_dataset(2, 2)
        train, test = stratified_split(d, 0.5, seed=1)
        assert train.class_counts() == (1, 1)
        assert test.class_counts() == (1, 1)

    def test_deterministic(self):
        d = labelled_dataset(30, 10)
        a_train, a_test = stratified_split(d, 0.7, seed=123)
        b_train, b_test = stratified_split(d, 0.7, seed=123)
        np.testing.assert_array_equal(a_train.rows, b_train.rows)
        np.testing.assert_array_equal(a_test.rows, b_test.rows)

    def test_fraction_out_of_range(self):
        d = labelled_dataset(10, 10)
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ValueError, match="train_fraction"):
                stratified_split(d, bad, seed=0)

    def test_class_too_small(self):
        d = labelled_dataset(10, 1)
        with pytest.raises(ValueError, match="both"):
            stratified_split(d, 0.7, seed=0)

    def test_partition_and_proportions(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n_neg = int(rng.integers(6, 60))
            n_pos = int(rng.integers(4, n_neg + 1))
            frac = float(rng.uniform(0.3, 0.8))
            d = labelled_dataset(n_neg, n_pos, seed=int(rng.integers(1000)))
            train, test = stratified_split(d, frac, seed=int(rng.integers(1000)))
            ids_train = set(train.rows[:, 0].tolist())
            ids_test = set(test.rows[:, 0].tolist())
            assert ids_train.isdisjoint(ids_test)
            assert ids_train | ids_test == set(d.rows[:, 0].tolist())
            # Each side's class share stays within one example of the full
            # dataset's share, per class.
            for side in (train, test):
                neg, pos = side.class_counts()
                for count, full in ((neg, n_neg), (pos, n_pos)):
                    expected = full * side.n / d.n
                    assert abs(count - expected) <= 1.0 + 1e-9


def split_cases():
    """TestStratifiedSplit's splits: (negatives, positives, fraction, data seed, split seed)."""
    cases = [(80, 20, 0.7, 0, 9), (2, 2, 0.5, 0, 1), (30, 10, 0.7, 0, 123)]
    rng = np.random.default_rng(17)  # the draws of test_partition_and_proportions
    for _ in range(20):
        n_neg = int(rng.integers(6, 60))
        n_pos = int(rng.integers(4, n_neg + 1))
        frac = float(rng.uniform(0.3, 0.8))
        cases.append((n_neg, n_pos, frac, int(rng.integers(1000)), int(rng.integers(1000))))
    return cases


class TestSplitIndices:
    @pytest.mark.parametrize("n_neg, n_pos, frac, data_seed, seed", split_cases())
    def test_rows_are_the_stratified_split(self, n_neg, n_pos, frac, data_seed, seed):
        d = labelled_dataset(n_neg, n_pos, seed=data_seed)
        train_idx, test_idx = split_indices(d.labels, frac, seed)
        train, test = stratified_split(d, frac, seed)
        for idx, side in ((train_idx, train), (test_idx, test)):
            assert (np.diff(idx) > 0).all()
            np.testing.assert_array_equal(d.rows[idx], side.rows)
            np.testing.assert_array_equal(d.labels[idx], side.labels)

    @pytest.mark.parametrize("n_pos, frac, message", [
        (10, 0.0, "train_fraction"), (10, 1.7, "train_fraction"), (1, 0.7, "both")])
    def test_errors_are_the_stratified_split(self, n_pos, frac, message):
        d = labelled_dataset(10, n_pos)
        with pytest.raises(ValueError, match=message) as from_split:
            stratified_split(d, frac, seed=0)
        with pytest.raises(ValueError, match=message) as from_indices:
            split_indices(d.labels, frac, seed=0)
        assert str(from_indices.value) == str(from_split.value)


class TestRepeatedEvalProtocol:
    def test_five_valid_pairs(self):
        d = labelled_dataset(40, 20)
        pairs = repeated_eval_protocol(d, repetitions=5, train_fraction=0.7, seed=2)
        assert len(pairs) == 5
        for train, test in pairs:
            assert train.class_counts() == (28, 14)
            assert test.class_counts() == (12, 6)

    def test_single_repetition_matches_split(self):
        d = labelled_dataset(20, 10)
        (train, test), = repeated_eval_protocol(d, repetitions=1, train_fraction=0.6, seed=77)
        ref_train, ref_test = stratified_split(d, 0.6, seed=77)
        np.testing.assert_array_equal(train.rows, ref_train.rows)
        np.testing.assert_array_equal(test.rows, ref_test.rows)

    def test_each_pair_partitions_dataset(self):
        d = labelled_dataset(15, 8)
        for train, test in repeated_eval_protocol(d, repetitions=3, seed=4):
            ids = sorted(train.rows[:, 0].tolist() + test.rows[:, 0].tolist())
            assert ids == list(range(d.n))

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValueError, match="repetitions"):
            repeated_eval_protocol(labelled_dataset(10, 5), repetitions=0)

    @pytest.mark.parametrize("repetitions", [2.5, 2.0, True])
    def test_non_integer_repetitions_rejected(self, repetitions):
        with pytest.raises(ValueError, match="repetitions must be an integer >= 1"):
            repeated_eval_protocol(labelled_dataset(10, 5), repetitions)


# Every caller of category_codes, each given one bad cell of a two-level
# feature named 'c' (index 5 for the split search, which names features by
# index) next to a valid one.
TWO_LEVELS = (FeatureSpec("c", CATEGORICAL, ("a", "b")),)
CODE_CALLERS = {
    "Dataset": (lambda v: Dataset(TWO_LEVELS, [[v], [0.0]], [1, 0]), "c"),
    "network_input": (lambda v: network_input(np.array([[v], [0.0]]), TWO_LEVELS, [0]), "c"),
    "best_split_categorical": (lambda v: best_split_categorical([v, 0.0], [1, 0], 2, 5), 5),
}


class TestCategoryCodes:
    # NaN, +-inf and 1e300 warned "invalid value encountered in cast" (an error
    # here) in network_input and best_split_categorical; Dataset rejects
    # non-finite cells earlier, so it gets the finite cases only.
    @pytest.mark.parametrize("caller,value", [
        (caller, value) for caller in CODE_CALLERS
        for value in (np.nan, np.inf, -np.inf, 1e300, -1.0, 0.5, 2.0)
        if caller != "Dataset" or np.isfinite(value)])
    def test_invalid_code_rejected_by_every_caller(self, caller, value):
        call, name = CODE_CALLERS[caller]
        message = f"invalid category index in feature {name!r}: out of range 0 .. 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            call(value)

    def test_valid_codes_returned_as_int64(self):
        codes = category_codes(np.array([2.0, 0.0, -0.0, 1.0]), 3, "c")
        assert codes.dtype == np.int64 and codes.tolist() == [2, 0, 0, 1]


@pytest.mark.parametrize("x, expected", [(2.5, 3), (-2.5, -3), (0.4, 0), (-0.4, 0), (-1.6, -2)])
def test_round_half_away_from_zero(x, expected):
    assert round_half_away(x) == expected


class TestSynthGenerate:
    def test_class_sizes(self):
        d = synth_generate(1000, 5, 5, 0.2, seed=7)
        assert d.class_counts() == (800, 200)

    def test_feature_counts_all_continuous(self):
        d = synth_generate(50, 5, 5, 0.2, seed=7)
        assert d.p == 10
        assert all(s.kind == CONTINUOUS for s in d.specs)

    def test_imbalance_cv_of_output(self):
        d = synth_generate(1000, 3, 2, 0.2, seed=1)
        assert imbalance_cv(d) == pytest.approx(0.6, abs=1e-12)

    def test_deterministic(self):
        a = synth_generate(100, 4, 2, 0.3, seed=5)
        b = synth_generate(100, 4, 2, 0.3, seed=5)
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_informative_features_shifted(self):
        d = synth_generate(4000, 2, 2, 0.25, seed=9, separation=1.0)
        pos = d.rows[d.labels == 1]
        neg = d.rows[d.labels == 0]
        for j in range(2):
            assert pos[:, j].mean() - neg[:, j].mean() > 0.7
        for j in range(2, 4):
            assert abs(pos[:, j].mean() - neg[:, j].mean()) < 0.2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            synth_generate(5, 2, 2, 0.2, seed=0)
        with pytest.raises(ValueError):
            synth_generate(100, 2, 2, 0.6, seed=0)
        with pytest.raises(ValueError):
            synth_generate(100, 0, 2, 0.2, seed=0)
        with pytest.raises(ValueError):
            synth_generate(100, 2, -1, 0.2, seed=0)
        with pytest.raises(ValueError, match="^minority_fraction too small: no positive rows"):
            synth_generate(10, 1, 0, 0.01, 0)

    @pytest.mark.parametrize("field,args", [
        ("n", (100.5, 2, 2)), ("informative", (100, 2.0, 2)), ("noise", (100, 2, True))])
    def test_non_integer_counts_rejected(self, field, args):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            synth_generate(*args, 0.2, seed=0)


class TestDatasetInvariants:
    def test_rows_are_immutable(self):
        d = labelled_dataset(3, 2)
        with pytest.raises(ValueError):
            d.rows[0, 0] = 99.0
        with pytest.raises(ValueError):
            d.labels[0] = 1

    def test_label_values_checked(self):
        with pytest.raises(ValueError, match="labels must be 0 or 1, got 2"):
            continuous_dataset([[1.0]], [2])

    def test_one_label_per_row(self):
        with pytest.raises(ValueError,
                           match=r"^labels must be a vector of length 3, got shape \(2,\)$"):
            continuous_dataset([[1.0], [2.0], [3.0]], [0, 1])

    def test_subset_copies_its_rows_once(self):
        # The indexed rows are the subset's copy; copying them again cost 2.19x.
        d = synth_generate(10_000, 8, 24, 0.2, seed=1)
        tracemalloc.start()
        try:
            sub = d.subset(np.arange(0, d.n, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sub.n == 5000
        assert peak <= 1.2 * sub.rows.nbytes

    def test_neither_constructor_nor_subset_freezes_a_callers_array(self):
        rows, labels = np.arange(10.0).reshape(5, 2), np.array([0, 1, 0, 1, 1])
        d = continuous_dataset(rows, labels)
        sub = d.subset(np.array([4, 0, 2]))
        assert rows.flags.writeable and labels.flags.writeable
        assert not np.shares_memory(d.rows, rows) and not np.shares_memory(sub.rows, d.rows)
        assert not sub.rows.flags.writeable and not sub.labels.flags.writeable
        assert sub.labels.dtype == np.int64
        np.testing.assert_array_equal(sub.rows, rows[[4, 0, 2]])
        np.testing.assert_array_equal(sub.labels, [1, 0, 0])

    @pytest.mark.parametrize("indices", [[], np.array([], dtype=np.int64)], ids=["list", "array"])
    def test_empty_subset_rejected(self, indices):
        with pytest.raises(ValueError,
                           match=r"^rows must have at least one row, got shape \(0, 2\)$"):
            labelled_dataset(3, 2).subset(indices)

    @pytest.mark.parametrize("labels", [[0.5, 1], [np.nan, 1]], ids=["half", "nan"])
    def test_labels_checked_before_the_cast(self, labels):
        # The int64 cast made 0.5 a 0 and failed on NaN with numpy's own message.
        with pytest.raises(ValueError, match="labels must be 0 or 1, got "):
            Dataset((FeatureSpec("x", CONTINUOUS),), [[1.0], [2.0]], labels)

    def test_category_indices_checked(self):
        specs = (FeatureSpec("c", CATEGORICAL, ("a", "b")),)
        with pytest.raises(ValueError, match="category index"):
            Dataset(specs, np.array([[2.0]]), np.array([0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="non-finite value at row 1, feature 'f1'"):
            continuous_dataset([[1.0, 2.0], [3.0, value]], [0, 1])

    def test_duplicate_names_rejected(self):
        specs = (FeatureSpec("x", CONTINUOUS), FeatureSpec("x", CONTINUOUS))
        with pytest.raises(ValueError, match="unique"):
            Dataset(specs, np.zeros((1, 2)), np.array([0]))

    def test_specs_json_roundtrip(self):
        specs = (FeatureSpec("x", CONTINUOUS),
                 FeatureSpec("c", CATEGORICAL, ("lo", "hi")))
        assert specs_from_dicts(specs_to_dicts(specs)) == specs

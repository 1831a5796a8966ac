import ast
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import iec
from iec import hddt
from iec.data import CATEGORICAL, CONTINUOUS, Dataset, FeatureSpec, synth_generate
from iec.hddt import (NUMERIC, HddtModel, Internal, Leaf, SplitCandidate, TreeConfig,
                      best_split_categorical, best_split_numeric, grow_tree,
                      hellinger_split_score, model_from_dict, model_to_dict, predict,
                      select_features)
from oracles import brute_force_numeric, hd_reference, strip_counts

SQRT2 = math.sqrt(2.0)

# Columns whose two top values a < b have a midpoint outside [a, b): it
# overflows to inf, or it rounds up to b.  Labels [0, 1, 0] split them there.
MIDPOINT_OUTSIDE_BOUNDARY = pytest.mark.parametrize("values", [
    [1.6e308, 1.7e308, 0.0],
    [1.0 + 2.0 ** -52, np.nextafter(1.0 + 2.0 ** -52, 2.0), 0.0],
], ids=["overflow", "adjacent-doubles"])


# Partition pos [315, 155] against neg [61, 50] on a two-value column.  Python's
# ** (libm pow) squares one of its terms an ulp away from np.square, so a
# threshold split and a category split of it tie only if both square alike.
POS_NEG_ROWS = [315, 155, 61, 50]
TWO_VALUE_COLUMN = np.repeat([0.0, 1.0, 0.0, 1.0], POS_NEG_ROWS)
TWO_VALUE_LABELS = np.repeat([1, 1, 0, 0], POS_NEG_ROWS)


def continuous_dataset(rows, labels, names=None):
    rows = np.asarray(rows, dtype=float)
    names = names or [f"f{j}" for j in range(rows.shape[1])]
    specs = tuple(FeatureSpec(n, CONTINUOUS) for n in names)
    return Dataset(specs, rows, np.asarray(labels))


def reference_walk(model, x, seen):
    """Leaf label of one row, routed node by node; ``seen`` counts the NaN
    comparisons and the unlisted categories met on the way."""
    node = model.root
    while isinstance(node, Internal):
        split = node.split
        value = x[split.feature_index]
        if split.kind == NUMERIC:
            seen["nan"] += math.isnan(value)
            node = node.children[0] if value <= split.threshold else node.children[1]
        elif int(value) in split.categories:
            node = node.children[split.categories.index(int(value))]
        else:
            seen["unlisted"] += 1
            sizes = [child.n_pos + child.n_neg for child in node.children]
            node = node.children[int(np.argmax(sizes))]
    return node.label


class TestHellingerScore:
    def test_perfect_separation_hits_max(self):
        for p in (1, 2, 7):
            for n in (1, 3, 9):
                assert hellinger_split_score([(p, 0), (0, n)]) == pytest.approx(
                    SQRT2, abs=1e-15)

    def test_proportion_preserving_split_is_zero(self):
        assert hellinger_split_score([(2, 1), (2, 1)]) == 0.0

    def test_pinned_mixed_partition(self):
        # sqrt((sqrt(3/4)-sqrt(1/2))^2 + (sqrt(1/4)-sqrt(1/2))^2)
        assert hellinger_split_score([(3, 1), (1, 1)]) == pytest.approx(
            0.26105238444010315, abs=1e-15)

    def test_requires_two_partitions(self):
        with pytest.raises(ValueError, match="two partitions"):
            hellinger_split_score([(3, 2)])

    def test_requires_both_classes(self):
        with pytest.raises(ValueError, match="both classes"):
            hellinger_split_score([(3, 0), (2, 0)])

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="partition count must be an integer >= 0, got -1"):
            hellinger_split_score([(3, -1), (1, 2)])

    def test_bounds_and_max_attainment(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            k = int(rng.integers(2, 5))
            parts = [(int(rng.integers(0, 6)), int(rng.integers(0, 6)))
                     for _ in range(k)]
            if sum(p for p, _ in parts) == 0 or sum(n for _, n in parts) == 0:
                continue
            score = hellinger_split_score(parts)
            assert -1e-12 <= score <= SQRT2 + 1e-12
            pure = all(p == 0 or n == 0 for p, n in parts)
            assert (abs(score - SQRT2) <= 1e-12) == pure

    def test_matches_reference_transcription(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            k = int(rng.integers(2, 5))
            parts = [(int(rng.integers(1, 21)), int(rng.integers(1, 21)))
                     for _ in range(k)]
            assert hellinger_split_score(parts) == pytest.approx(
                hd_reference(parts), abs=1e-12)


class TestBestSplitNumeric:
    def test_clean_separation(self):
        cand = best_split_numeric([1, 2, 3, 4], [1, 1, 0, 0])
        assert cand.threshold == 2.5
        assert cand.hd_score == pytest.approx(SQRT2, abs=1e-15)
        # agreement with brute force over all three midpoints
        t, score = brute_force_numeric([1, 2, 3, 4], [1, 1, 0, 0])
        assert cand.threshold == t and cand.hd_score == pytest.approx(score, abs=1e-15)

    def test_identical_values_give_none(self):
        assert best_split_numeric([3, 3, 3], [1, 0, 1]) is None

    def test_two_rows(self):
        cand = best_split_numeric([1, 2], [1, 0])
        assert cand.threshold == 1.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError,
                           match=r"^labels must be a vector of length 3, got shape \(2,\)$"):
            best_split_numeric([1, 2, 3], [0, 1])

    def test_one_row_rejected(self):
        with pytest.raises(ValueError, match="^need at least two rows to split$"):
            best_split_numeric([1.0], [1])

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            best_split_numeric([1, 2, 3], [1, 1, 1])

    @MIDPOINT_OUTSIDE_BOUNDARY
    def test_threshold_lies_below_the_upper_value(self, values):
        cand = best_split_numeric(values, [0, 1, 0])
        assert values[0] <= cand.threshold < values[1]
        assert cand.hd_score == SQRT2

    def test_same_bits_as_hellinger_split_score(self):
        rng = np.random.default_rng(29)
        columns = [(TWO_VALUE_COLUMN, TWO_VALUE_LABELS)]
        for _ in range(300):
            n = int(rng.integers(2, 200))
            labels = rng.integers(0, 2, size=n)
            if labels.min() < labels.max():
                columns.append((rng.normal(size=n), labels))
        for values, labels in columns:
            cand = best_split_numeric(values, labels)
            left = values <= cand.threshold
            expected = hellinger_split_score(
                [((labels[side] == 1).sum(), (labels[side] == 0).sum()) for side in (left, ~left)])
            assert np.float64(cand.hd_score).view(np.int64) == np.float64(expected).view(np.int64)

    def test_agrees_with_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            values = [float(v) for v in rng.integers(0, 6, size=n)]
            labels = [int(v) for v in rng.integers(0, 2, size=n)]
            if len(set(labels)) < 2:
                continue
            expected = brute_force_numeric(values, labels)
            cand = best_split_numeric(values, labels)
            if expected is None:
                assert cand is None
            else:
                assert cand.threshold == expected[0]
                assert cand.hd_score == pytest.approx(expected[1], abs=1e-12)


class TestBestSplitCategorical:
    def test_pure_categories_hit_max(self):
        cand = best_split_categorical([0, 0, 1, 1], [1, 1, 0, 0], 2)
        assert cand.hd_score == pytest.approx(SQRT2, abs=1e-15)
        assert cand.categories == (0, 1)

    def test_single_observed_category_gives_none(self):
        assert best_split_categorical([1, 1, 1], [1, 0, 1], 3) is None

    def test_three_way_pinned(self):
        # categories with (pos, neg) = (2,0), (1,1), (0,2): sqrt(4/3)
        values = [0, 0, 1, 1, 2, 2]
        labels = [1, 1, 1, 0, 0, 0]
        cand = best_split_categorical(values, labels, 3)
        assert cand.hd_score == pytest.approx(math.sqrt(4.0 / 3.0), abs=1e-15)
        assert cand.categories == (0, 1, 2)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            best_split_categorical([0, 3], [1, 0], 3)

    def test_needs_two_declared_categories(self):
        with pytest.raises(ValueError, match="category_count must be an integer >= 2, got 1"):
            best_split_categorical([0, 0], [1, 0], 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError,
                           match=r"^labels must be a vector of length 2, got shape \(1,\)$"):
            best_split_categorical([0, 1], [1], 2)

    def test_same_bits_as_hellinger_split_score(self):
        # Count tables of 2-40 categories, some empty and some pure; the
        # scorer must add its terms in hellinger_split_score's order (np.sum
        # adds more than eight terms pairwise).
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(400):
            c = int(rng.integers(2, 41))
            pos = rng.integers(0, 25, size=c) * (rng.uniform(size=c) < 0.7)
            neg = rng.integers(0, 25, size=c) * (rng.uniform(size=c) < 0.7)
            observed = [i for i in range(c) if pos[i] + neg[i] > 0]
            if pos.sum() == 0 or neg.sum() == 0 or len(observed) < 2:
                continue
            values = np.concatenate([np.repeat(np.arange(c), pos), np.repeat(np.arange(c), neg)])
            labels = np.repeat([1, 0], [pos.sum(), neg.sum()])
            shuffle = rng.permutation(values.size)
            cand = best_split_categorical(values[shuffle], labels[shuffle], c, feature_index=3)
            expected = hellinger_split_score([(pos[i], neg[i]) for i in observed])
            assert np.float64(cand.hd_score).view(np.int64) == np.float64(expected).view(np.int64)
            # Both paths share one sum.  The oracle squares with Python's **
            # (libm pow), which can miss np.square by an ulp, so it pins the
            # order of that sum; on these tables it agrees to the last bit.
            oracle = hd_reference([(int(pos[i]), int(neg[i])) for i in observed])
            assert np.float64(expected).view(np.int64) == np.float64(oracle).view(np.int64)
            assert cand.categories == tuple(observed) and cand.feature_index == 3
            checked += 1
        assert checked > 300


class TestSplitInputs:
    @pytest.mark.parametrize("labels", [[0, 2, 0], [0, 2, 1, 0]])
    def test_non_binary_labels_rejected(self, labels):
        # best_split_numeric scored [0, 2, 0] as two positives and one negative: sqrt(2).
        values = [float(i % 2) for i in range(len(labels))]
        with pytest.raises(ValueError, match="labels must be 0 or 1, got 2"):
            best_split_numeric([1.0 + i for i in range(len(labels))], labels)
        with pytest.raises(ValueError, match="labels must be 0 or 1, got 2"):
            best_split_categorical(values, labels, 2)


class TestTreeConfig:
    @pytest.mark.parametrize("field,value", [
        ("min_leaf", math.nan), ("min_leaf", 1.5), ("min_leaf", 2.0), ("min_leaf", True),
        ("min_leaf", 0), ("max_depth", math.nan), ("max_depth", math.inf),
        ("max_depth", 2.5), ("max_depth", -1),
    ])
    def test_non_integer_or_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TreeConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        assert TreeConfig(min_leaf=np.int64(3), max_depth=np.int32(0)).min_leaf == 3


class TestGrowTree:
    def test_separable_single_feature(self):
        d = continuous_dataset([[1.0], [2.0], [7.0], [8.0]], [1, 1, 0, 0])
        model = grow_tree(d)
        assert isinstance(model.root, Internal)
        assert all(isinstance(c, Leaf) for c in model.root.children)
        np.testing.assert_array_equal(predict(model, d.rows), d.labels)

    def test_pure_dataset_is_single_leaf(self):
        d = continuous_dataset([[1.0], [5.0]], [0, 0])
        model = grow_tree(d)
        assert model.root == Leaf(0, 0, 2)

    def test_constant_feature_gets_zero_importance(self):
        d = continuous_dataset(
            [[1.0, 4.0], [2.0, 4.0], [7.0, 4.0], [8.0, 4.0]], [1, 1, 0, 0])
        model = grow_tree(d)
        assert model.importances[1] == 0.0
        assert model.importances[0] > 0.0

    def test_tied_leaf_prefers_positive(self):
        d = continuous_dataset([[3.0], [3.0]], [0, 1])
        model = grow_tree(d)
        assert model.root == Leaf(1, 1, 1)

    def test_no_positive_split_leaves_an_impure_leaf(self):
        # The only split puts one row of each class on each side and scores 0, so
        # a tree need not label its own training rows correctly.
        d = continuous_dataset([[1.0], [1.0], [2.0], [2.0]], [0, 1, 0, 1])
        assert grow_tree(d).root == Leaf(label=1, n_pos=2, n_neg=2)

    def test_min_leaf_stops_small_nodes(self):
        d = continuous_dataset([[1.0], [2.0], [7.0]], [1, 0, 0])
        model = grow_tree(d, TreeConfig(min_leaf=2))
        assert isinstance(model.root, Leaf)

    def test_min_leaf_bounds_no_leaf_size(self):
        # Ten rows reach 2 * 3, so the root splits, and its best split gives a 1-row leaf.
        d = continuous_dataset(np.arange(10.0)[:, None], [1] + [0] * 9)
        model = grow_tree(d, TreeConfig(min_leaf=3))
        assert model.root.children == (Leaf(1, 1, 0), Leaf(0, 0, 9))

    def test_max_depth_zero_forces_leaf(self):
        d = continuous_dataset([[1.0], [2.0]], [1, 0])
        model = grow_tree(d, TreeConfig(max_depth=0))
        assert model.root == Leaf(1, 1, 1)

    def test_deterministic_and_permutation_invariant(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(40, 3))
        labels = (rows[:, 0] + rng.normal(scale=0.5, size=40) > 0).astype(int)
        d = continuous_dataset(rows, labels)
        model_a = grow_tree(d)
        model_b = grow_tree(d)
        assert model_to_dict(model_a) == model_to_dict(model_b)
        perm = rng.permutation(40)
        shuffled = continuous_dataset(rows[perm], labels[perm])
        model_c = grow_tree(shuffled)
        assert model_to_dict(model_a) == model_to_dict(model_c)

    def test_minority_replication_leaves_tree_unchanged(self):
        rng = np.random.default_rng(14)
        rows = rng.normal(size=(30, 2))
        labels = (rows[:, 0] > 0.8).astype(int)  # minority positives
        d = continuous_dataset(rows, labels)
        base = grow_tree(d)
        for c in (2, 5, 10):
            extra = np.repeat(rows[labels == 1], c - 1, axis=0)
            rep = continuous_dataset(np.vstack([rows, extra]),
                                     np.concatenate([labels, np.ones(len(extra), int)]))
            assert strip_counts(grow_tree(rep).root) == strip_counts(base.root)

    def test_deep_tree_grows_and_predicts(self):
        # Alternating labels over 0..799 need a chain of about 800 splits,
        # deeper than a recursive build reaches under the default limit.
        labels = np.arange(800) % 2
        d = continuous_dataset(np.arange(800.0)[:, np.newaxis], labels)
        model = grow_tree(d)
        np.testing.assert_array_equal(predict(model, d.rows), labels)

    @MIDPOINT_OUTSIDE_BOUNDARY
    def test_split_sends_rows_to_both_children(self, values):
        # A threshold of inf, or of the upper value itself, sent every row to
        # child 0 and the same split repeated down to max_depth.
        d = continuous_dataset(np.array(values)[:, np.newaxis], [0, 1, 0])
        model = grow_tree(d, TreeConfig(max_depth=6))
        assert len(model_to_dict(model)["nodes"]) == 3
        np.testing.assert_array_equal(predict(model, d.rows), d.labels)

    def test_peak_memory_is_a_few_matrices(self):
        # Columns are scored in blocks of hddt.BLOCK_ELEMENTS cells; scoring
        # all 16 columns of the 20k-row root at once costs about 13x.
        d = synth_generate(20_000, 8, 8, 0.2, seed=3)
        tracemalloc.start()
        try:
            grow_tree(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * d.rows.nbytes

    def test_no_function_in_the_package_calls_itself(self):
        # Recursion would tie the depth of a tree that can be grown, saved or
        # loaded to Python's recursion limit.
        for path in Path(iec.__file__).parent.glob("*.py"):
            for fn in ast.walk(ast.parse(path.read_text())):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                for call in ast.walk(fn):
                    f = getattr(call, "func", None)
                    method = (isinstance(f, ast.Attribute)
                              and getattr(f.value, "id", None) in ("self", "cls"))
                    name = f.id if isinstance(f, ast.Name) else f.attr if method else None
                    assert name != fn.name, f"{path.name}: {fn.name} calls itself"

    def test_one_level_categorical_is_never_split(self):
        specs = (FeatureSpec("x", CONTINUOUS), FeatureSpec("c", CATEGORICAL, ("a",)))
        d = Dataset(specs, np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), np.array([1, 0, 0]))
        model = grow_tree(d)
        assert model.root.split.feature_index == 0
        np.testing.assert_array_equal(predict(model, d.rows), d.labels)

    def test_equal_partitions_tie_to_the_lower_feature_index(self):
        specs = (FeatureSpec("x", CONTINUOUS), FeatureSpec("c", CATEGORICAL, ("a", "b")))
        d = Dataset(specs, np.c_[TWO_VALUE_COLUMN, TWO_VALUE_COLUMN], TWO_VALUE_LABELS)
        assert grow_tree(d).root.split.feature_index == 0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            continuous_dataset(np.zeros((0, 1)), [])


def reference_grow_tree(train, config):
    """Reference: the per-node grower, which gathers each node's rows and
    searches every column afresh through ``per_column_best_candidate``."""
    importances = np.zeros(train.p)
    preorder = []
    stack = [(np.arange(train.n), 0)]
    while stack:
        row_idx, depth = stack.pop()
        labels = train.labels[row_idx]
        n_pos = int(labels.sum())
        n_neg = int(labels.size - n_pos)
        cand = None
        if (n_pos > 0 and n_neg > 0 and labels.size >= 2 * config.min_leaf
                and (config.max_depth is None or depth < config.max_depth)):
            cand = per_column_best_candidate(train.rows[row_idx], labels, train.specs)
        if cand is None or cand.hd_score <= 0.0:
            preorder.append(Leaf(1 if n_pos >= n_neg else 0, n_pos, n_neg))
            continue
        importances[cand.feature_index] += (labels.size / train.n) * cand.hd_score
        branch = hddt._branch(cand, train.rows[row_idx, cand.feature_index], unlisted=-1)
        preorder.append((cand, n_pos, n_neg))
        stack.extend((row_idx[branch == i], depth + 1)
                     for i in reversed(range(hddt._arity(cand))))
    return hddt.HddtModel(hddt._nest(preorder), importances, train.specs)


def per_column_best_candidate(rows, labels, specs):
    """Reference: one argsort and one score vector per continuous column, one
    hellinger_split_score per categorical column, compared across features
    in order with strict >."""
    best = None
    for j, spec in enumerate(specs):
        if spec.kind == CONTINUOUS:
            cand = per_column_numeric(rows[:, j], labels, j)
        else:
            cand = per_column_categorical(rows[:, j], labels, j)
        if cand is not None and (best is None or cand.hd_score > best.hd_score):
            best = cand
    return best


def per_column_categorical(values, labels, feature_index):
    observed = np.unique(values.astype(int))
    if observed.size < 2:
        return None
    parts = [(int(np.sum((values == c) & (labels == 1))),
              int(np.sum((values == c) & (labels == 0)))) for c in observed]
    return SplitCandidate(feature_index, hddt.CATEGORICAL_SPLIT, hellinger_split_score(parts),
                          categories=tuple(int(c) for c in observed))


def per_column_numeric(values, labels, feature_index):
    order = np.argsort(values, kind="stable")
    sv = values[order]
    sl = labels[order].astype(np.int64)
    boundaries = np.flatnonzero(sv[1:] != sv[:-1])
    if boundaries.size == 0:
        return None
    total_pos = int(sl.sum())
    total_neg = int(sl.size - total_pos)
    left_pos = np.cumsum(sl)[boundaries]
    left_neg = boundaries + 1 - left_pos
    right_pos = total_pos - left_pos
    right_neg = total_neg - left_neg
    scores = np.sqrt(
        (np.sqrt(left_pos / total_pos) - np.sqrt(left_neg / total_neg)) ** 2
        + (np.sqrt(right_pos / total_pos) - np.sqrt(right_neg / total_neg)) ** 2
    )
    best = int(np.argmax(scores))
    i = boundaries[best]
    return SplitCandidate(feature_index, NUMERIC, float(scores[best]),
                          threshold=float((sv[i] + sv[i + 1]) / 2.0))


def random_mixed_dataset(rng, n, kinds):
    """Columns of the given kinds: ``"normal"``, ``"repeated"`` (few distinct
    values), ``"ties"`` (three values, so equal values straddle every split
    on another column), ``"zeros"`` (-0.0 and 0.0 mixed with +-1),
    ``"constant"``, ``"copy"`` (of the column before, so scores tie),
    ``"cat"`` (four random codes), ``"cat40"`` (40 levels that follow the
    signal) and ``"binary"`` / ``"catbin"`` (the same two-valued column as
    continuous / categorical, so scores tie across kinds)."""
    signal = rng.normal(size=n)
    labels = (signal + rng.normal(scale=0.8, size=n) > 0.9).astype(int)
    cols, specs = [], []
    for j, kind in enumerate(kinds):
        col = {"normal": lambda: signal * rng.uniform() + rng.normal(size=n),
               "repeated": lambda: np.round(signal + rng.normal(size=n)),
               "ties": lambda: rng.integers(0, 3, size=n) + (signal > 0.9),
               "zeros": lambda: np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
               * np.abs(np.sign(np.round(signal + rng.normal(scale=0.5, size=n)))),
               "constant": lambda: np.full(n, 3.0),
               "copy": lambda: cols[-1],
               "cat": lambda: rng.integers(0, 4, size=n).astype(float),
               "cat40": lambda: np.clip(np.round(8 * (signal + rng.normal(size=n)) + 20), 0, 39),
               "binary": lambda: (signal > 0.5).astype(float),
               "catbin": lambda: (signal > 0.5).astype(float)}[kind]()
        cols.append(col)
        levels = tuple(f"v{i}" for i in range(40 if kind == "cat40" else 4))
        specs.append(FeatureSpec(f"f{j}", CATEGORICAL, levels) if kind.startswith("cat")
                     else FeatureSpec(f"f{j}", CONTINUOUS))
    return Dataset(tuple(specs), np.column_stack(cols), labels)


class TestBlockedSplitSearch:
    """grow_tree sorts each continuous column once and scores a node's columns
    together in blocks; the tree must equal the one a per-node search grows."""

    @pytest.mark.parametrize("kinds,n,config", [
        (["normal", "copy", "repeated", "constant", "cat", "normal", "copy"], 300,
         TreeConfig(min_leaf=2)),
        (["binary", "catbin", "repeated", "normal"], 300, TreeConfig(min_leaf=2)),
        (["catbin", "binary", "repeated", "normal"], 300, TreeConfig(min_leaf=2)),
        (["normal", "repeated", "constant", "copy"], 400, TreeConfig(min_leaf=2)),
        (["cat", "cat", "catbin"], 300, TreeConfig(min_leaf=2)),
        (["normal", "copy", "repeated", "constant", "normal", "cat"] * 3, 6000,
         TreeConfig(min_leaf=2)),
        (["normal", "cat40", "cat40"], 600, TreeConfig()),
        (["ties", "normal", "ties", "ties"], 400, TreeConfig()),
        (["zeros", "normal", "zeros"], 300, TreeConfig()),
        (["normal", "cat", "ties", "normal"], 500, TreeConfig(min_leaf=6, max_depth=5)),
        (["repeated", "normal", "cat"], 500, TreeConfig(max_depth=3)),
    ], ids=["mixed", "tie-continuous-first", "tie-categorical-first", "continuous-only",
            "categorical-only", "many-blocks", "wide-categorical", "ties-straddle-splits",
            "signed-zeros", "min-leaf-max-depth", "shallow"])
    def test_same_tree_as_per_column_search(self, kinds, n, config, monkeypatch):
        if n == 6000:  # the root's continuous columns span two blocks
            assert n * (len(kinds) - kinds.count("cat")) > hddt.BLOCK_ELEMENTS
        rng = np.random.default_rng(n + len(kinds))
        # Small budgets split every node's columns into blocks of one, two or
        # a few columns, the last one narrower.
        budgets = (hddt.BLOCK_ELEMENTS, 1, 700) if n < 1000 else (hddt.BLOCK_ELEMENTS,)
        for _ in range(3 if n < 1000 else 1):
            d = random_mixed_dataset(rng, n, kinds)
            reference = model_to_dict(reference_grow_tree(d, config))
            for budget in budgets:
                with monkeypatch.context() as patch:
                    patch.setattr(hddt, "BLOCK_ELEMENTS", budget)
                    assert model_to_dict(grow_tree(d, config)) == reference
            nodes = reference["nodes"]
            assert len(nodes) > 3
            if kinds[:2] in (["binary", "catbin"], ["catbin", "binary"]):
                assert nodes[0]["feature_index"] == 0
            splits = [node for node in nodes[1:] if node["kind"] == "split"]
            if "cat40" in kinds:  # a many-way split below the root
                assert any(len(node.get("categories", ())) >= 3 for node in splits)
            if kinds[0] == "ties":  # a tied column split after its rows were partitioned
                assert any(kinds[node["feature_index"]] == "ties" for node in splits)
            if kinds[0] == "zeros":
                zero = d.rows[:, 0] == 0
                assert np.signbit(d.rows[zero, 0]).any() and not np.signbit(d.rows[zero, 0]).all()

    def test_argsort_runs_once_per_root_block(self, monkeypatch):
        # 3,000 rows fit 21 columns in a block, so the root's 30 continuous
        # columns are sorted in two argsort calls; no node sorts again.
        d = random_mixed_dataset(np.random.default_rng(9), 3000, ["normal"] * 30 + ["cat"])
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
        model = grow_tree(d)
        assert len(calls) == math.ceil(30 / (hddt.BLOCK_ELEMENTS // 3000)) == 2
        assert len(model_to_dict(model)["nodes"]) > 100


class TestPredict:
    def test_training_rows_reach_majority_leaves(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(25, 2))
        labels = (rows[:, 1] > 0.3).astype(int)
        d = continuous_dataset(rows, labels)
        model = grow_tree(d)
        preds = predict(model, d.rows)
        # unpruned growth with min_leaf=1 fits the training set exactly
        np.testing.assert_array_equal(preds, labels)

    def test_threshold_routing(self):
        d = continuous_dataset([[1.0], [2.0], [3.0], [4.0]], [1, 1, 0, 0])
        model = grow_tree(d)
        assert model.root.split.threshold == 2.5
        assert predict(model, np.array([[2.4]]))[0] == 1
        assert predict(model, np.array([[2.6]]))[0] == 0

    def test_unseen_category_routes_to_largest_child(self):
        specs = (FeatureSpec("c", CATEGORICAL, ("a", "b", "z")),)
        # category 0: three negatives; category 1: one positive
        rows = np.array([[0.0], [0.0], [0.0], [1.0]])
        d = Dataset(specs, rows, np.array([0, 0, 0, 1]))
        model = grow_tree(d)
        assert isinstance(model.root, Internal)
        # querying the never-observed category 2 follows the bigger child
        assert predict(model, np.array([[2.0]]))[0] == 0

    def test_matches_per_row_walk_on_mixed_trees(self):
        rng = np.random.default_rng(30)
        specs = (FeatureSpec("x", CONTINUOUS), FeatureSpec("c", CATEGORICAL, tuple("abcde")),
                 FeatureSpec("y", CONTINUOUS), FeatureSpec("d", CATEGORICAL, tuple("pqr")))
        seen = {"nan": 0, "unlisted": 0}
        for _ in range(20):
            n = int(rng.integers(10, 80))
            rows = np.column_stack([rng.normal(size=n), rng.integers(0, 5, size=n),
                                    rng.integers(0, 4, size=n), rng.integers(0, 3, size=n)])
            labels = (rng.uniform(size=n) < 0.3 + 0.1 * rows[:, 1]).astype(int)
            if labels.min() == labels.max():
                continue
            model = grow_tree(Dataset(specs, rows, labels),
                              TreeConfig(min_leaf=int(rng.integers(1, 4))))
            queries = np.column_stack([rng.normal(size=300), rng.uniform(-0.9, 5, size=300),
                                       rng.normal(2, 2, size=300), rng.uniform(0, 3, size=300)])
            queries[rng.uniform(size=300) < 0.2, 0] = np.nan
            queries[rng.uniform(size=300) < 0.2, 2] = np.nan
            # Category codes that truncate, fall off either end or overflow an intp.
            edges = [-0.9, -1.0, 2.5, 1e300, -1e300]
            queries[:len(edges), 1] = queries[-len(edges):, 3] = edges
            expected = [reference_walk(model, q, seen) for q in queries]
            np.testing.assert_array_equal(predict(model, queries), expected)
        assert seen["nan"] > 0 and seen["unlisted"] > 0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_category_rejected(self, value):
        specs = (FeatureSpec("c", CATEGORICAL, ("a", "b")),)
        model = grow_tree(Dataset(specs, np.array([[0.0], [1.0]]), np.array([0, 1])))
        with pytest.raises(ValueError, match="non-finite"):
            predict(model, np.array([[0.0], [value]]))

    def test_non_finite_category_names_the_row_and_feature(self):
        # x <= 0.5 goes to a leaf; only the rows going right meet the split on 'color',
        # so only their colors are checked.
        specs = (FeatureSpec("x", CONTINUOUS), FeatureSpec("color", CATEGORICAL, ("r", "g")))
        by_color = Internal(SplitCandidate(1, hddt.CATEGORICAL_SPLIT, 1.0, categories=(0, 1)),
                            (Leaf(0, 0, 1), Leaf(1, 1, 0)), 1, 1)
        root = Internal(SplitCandidate(0, NUMERIC, 1.0, threshold=0.5),
                        (Leaf(0, 0, 2), by_color), 1, 3)
        model = HddtModel(root, np.zeros(2), specs)
        np.testing.assert_array_equal(predict(model, np.array([[0.0, np.nan], [1.0, 1.0]])),
                                      [0, 1])
        with pytest.raises(ValueError, match=r"^non-finite value at row 2, feature 'color'$"):
            predict(model, np.array([[0.0, np.nan], [1.0, 1.0], [1.0, np.inf], [1.0, np.nan]]))

    def test_schema_mismatch(self):
        d = continuous_dataset([[1.0], [2.0]], [1, 0])
        model = grow_tree(d)
        with pytest.raises(ValueError, match="rows must be a 2-d matrix of width 1, got shape"):
            predict(model, np.zeros((2, 3)))


class TestSelectFeatures:
    def test_stump_selects_single_feature(self):
        rows = np.zeros((4, 4))
        rows[:, 3] = [1.0, 2.0, 7.0, 8.0]
        d = continuous_dataset(rows, [1, 1, 0, 0])
        model = grow_tree(d)
        assert select_features(model) == [3]

    def test_unused_feature_absent(self):
        d = continuous_dataset(
            [[1.0, 4.0], [2.0, 4.0], [7.0, 4.0], [8.0, 4.0]], [1, 1, 0, 0])
        assert 1 not in select_features(grow_tree(d))

    def test_importance_ordering_on_fixed_dataset(self):
        # Root splits feature 0 (tie with feature 1's best, lower index wins),
        # the impure child then splits feature 1 perfectly.  Weighted sums:
        #   importance[0] = (8/8) * sqrt(2/3 + (1 - sqrt(1/3))^2)
        #   importance[1] = (4/8) * sqrt(2)
        rows = np.array([
            [0.0, 1.0], [0.0, 2.0], [0.0, 3.0], [0.0, 4.0],
            [1.0, 1.0], [1.0, 2.0], [1.0, 3.0], [1.0, 4.0],
        ])
        labels = [0, 0, 0, 0, 1, 1, 0, 0]
        model = grow_tree(continuous_dataset(rows, labels))
        imp0 = math.sqrt(2.0 / 3.0 + (1.0 - math.sqrt(1.0 / 3.0)) ** 2)
        imp1 = math.sqrt(2.0) / 2.0
        assert model.importances[0] == pytest.approx(imp0, abs=1e-12)
        assert model.importances[1] == pytest.approx(imp1, abs=1e-12)
        assert select_features(model) == [0, 1]

    def test_equal_importances_keep_the_lower_index_first(self):
        specs = tuple(FeatureSpec(f"f{j}", CONTINUOUS) for j in range(4))
        model = HddtModel(Leaf(1, 1, 1), [0.5, 1.0, 0.0, 0.5], specs)
        assert select_features(model) == [1, 0, 3]


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(20, 2))
        rows[:, 1] = rng.integers(0, 3, size=20)  # categorical column
        labels = (rows[:, 0] > 0).astype(int)
        specs = (FeatureSpec("x", CONTINUOUS),
                 FeatureSpec("c", CATEGORICAL, ("p", "q", "r")))
        d = Dataset(specs, rows, labels)
        model = grow_tree(d)
        doc = json.loads(json.dumps(model_to_dict(model)))
        restored = model_from_dict(doc)
        assert restored.root == model.root
        np.testing.assert_array_equal(restored.importances, model.importances)
        assert restored.specs == model.specs
        np.testing.assert_array_equal(predict(restored, d.rows), predict(model, d.rows))

    def test_version_check(self):
        with pytest.raises(ValueError, match="version"):
            model_from_dict({"format_version": 99})

    @pytest.mark.parametrize("importances", [[0.5], [0.5, math.nan], [0.5, -0.1],
                                             [0.5, 0.0, 0.0]])
    def test_importances_one_finite_non_negative_per_spec(self, importances):
        specs = (FeatureSpec("x", CONTINUOUS), FeatureSpec("y", CONTINUOUS))
        with pytest.raises(ValueError, match="importances must be 2 finite values >= 0"):
            hddt.HddtModel(Leaf(1, 1, 0), importances, specs)

    def test_pure_split_scoring_above_sqrt2_round_trips(self):
        # Pure, so sqrt(2) in exact arithmetic; its float sum lands above math.sqrt(2).
        pos, neg = [0, 7, 0, 4, 4, 8], [5, 0, 5, 0, 0, 0]
        codes = np.concatenate([np.repeat(np.arange(6.0), pos), np.repeat(np.arange(6.0), neg)])
        specs = (FeatureSpec("c", CATEGORICAL, tuple("abcdef")),)
        model = grow_tree(Dataset(specs, codes[:, np.newaxis], np.repeat([1, 0], [23, 10])))
        assert model.root.split.hd_score > SQRT2
        restored = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert restored.root == model.root

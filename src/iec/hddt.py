"""Unpruned Hellinger-distance decision tree (HDDT).

Split quality is the Hellinger distance between the per-class distributions
over the partitions a split induces:

    score = sqrt( sum_j ( sqrt(pos_j / total_pos) - sqrt(neg_j / total_neg) )^2 )

Because only within-class proportions enter, the score ignores class priors:
replicating the minority class leaves every score (and hence the grown tree)
unchanged.  In exact arithmetic scores lie in [0, sqrt(2)], with sqrt(2) when
no partition mixes the classes; in floating point such a pure split can
score a few ulps either side of ``math.sqrt(2)``.

Growth is presorted, after SLIQ and SPRINT: ``grow_tree`` sorts each
continuous column once, at the root, into a q x n array of row indices.
Every node carries its own q x m block of that order and scores all its
continuous columns from it in blocks of at most ``BLOCK_ELEMENTS`` cells.  A
split marks each row with its child, and a child's block is the parent's
block with the other children's rows left out.  That keeps it sorted, with
equal values in row order, exactly as a stable sort of the child's rows
would, so the tree is the one a per-node sort grows.  Categorical columns
are keyed once as ``code * 2 + label``, so a node's per-category counts are
one ``bincount``.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from iec.data import (CONTINUOUS, Dataset, FeatureSpec, category_codes, fields, require_int,
                      require_labels, require_list, require_matrix, require_number,
                      require_numbers, require_unique_names, specs_from_dicts, specs_to_dicts)

NUMERIC = "numeric"
CATEGORICAL_SPLIT = "categorical"


@dataclass(frozen=True)
class SplitCandidate:
    """A scored split: a threshold on one feature, or a branch per category."""

    feature_index: int
    kind: str
    hd_score: float
    threshold: float | None = None
    categories: tuple[int, ...] = ()


@dataclass(frozen=True)
class Leaf:
    label: int
    n_pos: int
    n_neg: int


@dataclass(frozen=True)
class Internal:
    split: SplitCandidate
    children: tuple
    n_pos: int
    n_neg: int


TreeNode = Leaf | Internal


@dataclass(frozen=True)
class TreeConfig:
    min_leaf: int = 1
    max_depth: int | None = None

    def __post_init__(self):
        require_int("min_leaf", self.min_leaf, 1)
        if self.max_depth is not None:
            require_int("max_depth", self.max_depth, 0)


@dataclass(frozen=True, eq=False)
class HddtModel:
    """A fitted tree plus per-feature importance scores."""

    root: TreeNode
    importances: np.ndarray
    specs: tuple[FeatureSpec, ...]

    def __post_init__(self):
        require_unique_names(self.specs)
        imp = require_numbers("importances", self.importances, (len(self.specs),), 0.0)
        imp.setflags(write=False)
        object.__setattr__(self, "importances", imp)


def hellinger_split_score(partition_counts) -> float:
    """Hellinger distance of a candidate partition, given (pos, neg) per branch.

    Requires at least two partitions and at least one example of each class in
    the node overall; individual partitions may be pure or empty of one class.
    """
    pairs = []
    for part in partition_counts:
        if len(require_list("partition", part)) != 2:
            raise ValueError(f"partition must be a (pos, neg) pair, got {reprlib.repr(part)}")
        pairs.append(tuple(require_int("partition count", count, 0) for count in part))
    if len(pairs) < 2:
        raise ValueError("a split needs at least two partitions")
    pos, neg = np.array(pairs, dtype=np.int64).T
    return _hellinger(pos, neg)


def _hellinger(pos: np.ndarray, neg: np.ndarray) -> float:
    """Hellinger score of partitions with ``pos[i]`` positive and ``neg[i]`` negative rows.
    The terms are added one by one: np.sum pairs more than eight, changing last bits."""
    terms = _terms(pos, neg, int(pos.sum()), int(neg.sum()))
    return math.sqrt(np.add.accumulate(terms)[-1])


def _terms(pos: np.ndarray, neg: np.ndarray, total_pos: float, total_neg: float) -> np.ndarray:
    """Each partition's term ``(sqrt(pos / total_pos) - sqrt(neg / total_neg))**2``.

    Every split's score is built from these, in numpy's exactly rounded ops
    (Python's ``** 2`` calls libm ``pow``, which can miss by one ulp), so equal
    partitions score equal bits whichever search finds them.
    """
    if total_pos < 1 or total_neg < 1:
        raise ValueError("both classes must be present at the node being split")
    d, e = pos / total_pos, neg / total_neg
    np.sqrt(d, out=d)
    d -= np.sqrt(e, out=e)
    return np.square(d, out=d)


def _split_inputs(values, labels) -> tuple[np.ndarray, np.ndarray]:
    """``values`` (as float64) and ``labels`` as equal-length vectors, labels only 0 and 1."""
    values, labels = np.asarray(values, dtype=np.float64), require_labels("labels", labels)
    if values.shape != labels.shape or values.ndim != 1:
        raise ValueError("values and labels must be equal-length vectors")
    return values, labels


def best_split_numeric(values, labels, feature_index: int = 0) -> SplitCandidate | None:
    """Highest-scoring binary threshold for one continuous feature.

    Candidate thresholds lie between adjacent distinct sorted values (their
    midpoint where it falls strictly below the upper one); ties in score go to
    the lowest threshold.  Returns None when all values are identical.
    """
    values, labels = _split_inputs(values, labels)
    if values.size < 2:
        raise ValueError("need at least two rows to split")
    column = values[:, np.newaxis]
    y = labels.astype(np.float64)
    scores, bounds = _numeric_splits(column, [0], _presort(column, [0]), y, float(y.sum()))
    return _numeric_candidate(feature_index, scores[0], bounds[0])


# Cells (rows x columns) that _presort sorts, and _numeric_splits scores, in
# one pass (at least one column).  It caps each of the pass's half-dozen
# temporaries at 512 KB on nodes of up to 65,536 rows, instead of growing
# with the node's width.
BLOCK_ELEMENTS = 1 << 16


def _block_width(m: int, q: int) -> int:
    """Columns of m rows per pass: as many of the q as fit in BLOCK_ELEMENTS, at least one."""
    return max(1, min(q, BLOCK_ELEMENTS // m))


def _presort(rows: np.ndarray, columns: list[int]) -> np.ndarray:
    """Row indices of ``rows`` sorted by each listed column, as a q x n array.

    The sort is stable, so equal values (-0.0 and 0.0 among them) stay in row
    order.  Indices are int32 while they fit, half the memory of intp.
    """
    n, q = rows.shape[0], len(columns)
    order = np.empty((q, n), dtype=np.int32 if n < 2 ** 31 else np.intp)
    width = _block_width(n, q)
    for first in range(0, q, width):
        block = rows[:, columns[first:first + width]]
        order[first:first + block.shape[1]] = np.argsort(block, axis=0, kind="stable").T
    return order


def _numeric_splits(rows: np.ndarray, columns: list[int], order: np.ndarray,
                    y: np.ndarray, total_pos: float) -> tuple[np.ndarray, np.ndarray]:
    """Best threshold boundary of each listed column of ``rows`` at one node.

    ``order`` is the node's q x m block of row indices, its row c sorted by
    column ``columns[c]``; ``y`` holds every row's label as float64 and
    ``total_pos`` the node's positive count.  Returns each column's Hellinger
    score (-inf for a constant column) and the two sorted values either side
    of its boundary, as q and q x 2 arrays; the first maximum wins, so ties go
    to the lowest threshold.  Columns are scored in blocks of at most
    BLOCK_ELEMENTS cells, each block in one pass.
    """
    q, m = order.shape
    scores, bounds = np.full(q, -np.inf), np.zeros((q, 2))
    total_neg = m - total_pos
    left_n = np.arange(1.0, m)
    width = _block_width(m, q)
    columns = np.asarray(columns, dtype=np.intp)[:, np.newaxis]
    for first in range(0, q, width):
        block = order[first:first + width]
        k = block.shape[0]
        # Flat gathers through np.take run about twice as fast as 2-d fancy indexing.
        flat = np.multiply(block, rows.shape[1], dtype=np.intp)
        flat += columns[first:first + k]
        sv = rows.take(flat)
        same = sv[:, 1:] == sv[:, :-1]
        if same.all():
            continue
        # Counts of the first i + 1 sorted rows, exact as float64 below 2**53.
        left_pos = y.take(block[:, :-1])
        np.cumsum(left_pos, axis=1, out=left_pos)
        left_neg = left_n - left_pos
        s = _terms(left_pos, left_neg, total_pos, total_neg)
        s += _terms(total_pos - left_pos, total_neg - left_neg, total_pos, total_neg)
        np.sqrt(s, out=s)
        s[same] = -np.inf
        best = np.argmax(s, axis=1)
        r = np.arange(k)
        scores[first:first + k] = s[r, best]
        bounds[first:first + k, 0] = sv[r, best]
        bounds[first:first + k, 1] = sv[r, best + 1]
    return scores, bounds


def _numeric_candidate(feature_index: int, score: float, bounds) -> SplitCandidate | None:
    """The split at one column's best boundary, or None for a constant column."""
    if score == -np.inf:
        return None
    # Both children must get rows, so the threshold t needs a <= t < b: the
    # midpoint, unless it overflows or rounds up to b (adjacent doubles).
    a, b = float(bounds[0]), float(bounds[1])
    for t in ((a + b) / 2.0, a / 2.0 + b / 2.0, a):
        if a <= t < b:
            break
    return SplitCandidate(feature_index, NUMERIC, float(score), threshold=t)


def best_split_categorical(values, labels, category_count: int,
                           feature_index: int = 0) -> SplitCandidate | None:
    """Score the one-branch-per-observed-category partition of a feature.

    Returns None when only a single category occurs.
    """
    values, labels = _split_inputs(values, labels)
    if category_count < 2:
        raise ValueError("categorical splits need at least two declared categories")
    idx = category_codes(values, category_count, feature_index)
    counts = np.bincount(idx * 2 + (labels == 1), minlength=2 * category_count)
    return _categorical_split(counts, feature_index)


def _categorical_split(counts: np.ndarray, feature_index: int) -> SplitCandidate | None:
    """The one-branch-per-observed-category split, from the bincount of
    ``code * 2 + label``; None when fewer than two categories occur."""
    neg, pos = counts[0::2], counts[1::2]
    observed = np.flatnonzero(neg + pos)
    if observed.size < 2:
        return None
    return SplitCandidate(feature_index, CATEGORICAL_SPLIT,
                          _hellinger(pos[observed], neg[observed]),
                          categories=tuple(observed.tolist()))


def _rank(score: float, feature_index: int) -> tuple:
    """Sort key of each choice made from Hellinger scores: higher score first, lower index next."""
    return -score, feature_index


def _best_candidate(train: Dataset, numeric: list[int], order: np.ndarray, y: np.ndarray,
                    keyed: dict, row_idx: np.ndarray, n_pos: int) -> SplitCandidate | None:
    """Globally best split of the node holding ``row_idx``, by ``_rank``.

    ``order`` is the node's block of presorted row indices for the ``numeric``
    columns.  ``keyed[j]`` holds categorical column j's ``code * 2 + label``
    and the number of such keys.  Of the continuous columns only the first
    maximum can win, so it is the one candidate they put up.
    """
    cands = [_categorical_split(np.bincount(codes[row_idx], minlength=size), j)
             for j, (codes, size) in keyed.items()]
    if numeric:
        scores, bounds = _numeric_splits(train.rows, numeric, order, y, float(n_pos))
        c = int(np.argmax(scores))
        cands.append(_numeric_candidate(numeric[c], scores[c], bounds[c]))
    return min((cand for cand in cands if cand is not None), default=None,
               key=lambda cand: _rank(cand.hd_score, cand.feature_index))


def grow_tree(train: Dataset, config: TreeConfig | None = None) -> HddtModel:
    """Grow an unpruned HDDT by greedy Hellinger-score maximization.

    A node becomes a leaf when it is pure, hits max_depth, holds fewer than
    2 * min_leaf rows, or no feature offers a positive-score split.  Leaf
    labels are the majority class, ties going to the positive (minority)
    class.  Feature importance accumulates (rows_at_node / n) * hd_score over
    the internal nodes that split on the feature.
    """
    config = config or TreeConfig()
    importances = np.zeros(train.p, dtype=np.float64)
    numeric = [j for j, spec in enumerate(train.specs) if spec.kind == CONTINUOUS]
    y = train.labels.astype(np.float64)
    keyed = {j: (train.rows[:, j].astype(np.intp) * 2 + train.labels, 2 * len(spec.categories))
             for j, spec in enumerate(train.specs) if spec.kind != CONTINUOUS}
    child_of = np.empty(train.n, dtype=np.int32)

    # Explicit-stack pre-order (a recursive build's visiting order, so importances
    # sum in the same order): a split's children go on the stack reversed.
    preorder: list = []
    stack = [(np.arange(train.n), _presort(train.rows, numeric), 0)]
    while stack:
        row_idx, order, depth = stack.pop()
        n_pos = int(train.labels[row_idx].sum())
        n_neg = int(row_idx.size - n_pos)
        cand = None
        if (n_pos > 0 and n_neg > 0 and row_idx.size >= 2 * config.min_leaf
                and (config.max_depth is None or depth < config.max_depth)):
            cand = _best_candidate(train, numeric, order, y, keyed, row_idx, n_pos)
        if cand is None or cand.hd_score <= 0.0:
            preorder.append(Leaf(1 if n_pos >= n_neg else 0, n_pos, n_neg))
            continue
        importances[cand.feature_index] += (row_idx.size / train.n) * cand.hd_score
        branch = _branch(cand, train.rows[row_idx, cand.feature_index], unlisted=-1)
        preorder.append((cand, n_pos, n_neg))
        # A child's block is the parent's with the other children's rows left
        # out: still sorted, equal values still in row order, so it is what a
        # stable sort of the child's rows would give.
        child_of[row_idx] = branch
        marks = child_of.take(order)
        for i in reversed(range(_arity(cand))):
            rows_i = row_idx[branch == i]
            block = order.compress((marks == i).ravel()).reshape(len(numeric), rows_i.size)
            stack.append((rows_i, block, depth + 1))

    return HddtModel(_nest(preorder), importances, train.specs)


def _arity(split: SplitCandidate) -> int:
    return 2 if split.kind == NUMERIC else len(split.categories)


def _nest(preorder: list) -> TreeNode:
    """The nested tree of a pre-order list of leaves and ``(split, n_pos, n_neg)`` entries;
    read backwards, each split finds its subtrees built, its first child on top."""
    built: list[TreeNode] = []
    for node in reversed(preorder):
        if not isinstance(node, Leaf):
            split, n_pos, n_neg = node
            k = _arity(split)
            if len(built) < k:
                raise ValueError(f"nodes end inside a {split.kind} split of {k} children")
            node = Internal(split, tuple(built.pop() for _ in range(k)), n_pos, n_neg)
        built.append(node)
    if len(built) != 1:
        raise ValueError(f"nodes hold {len(built)} trees, expected one")
    return built[0]


def _branch(split: SplitCandidate, values: np.ndarray, unlisted: int) -> np.ndarray:
    """Child index of each value under ``split``, for growth and prediction alike.

    Numeric: child 0 exactly where ``value <= threshold``, so NaN goes right.
    Categorical: the position of ``int(value)`` in ``split.categories``, or
    ``unlisted`` where it is not listed; the values must be finite.
    """
    if split.kind == NUMERIC:
        return (~(values <= split.threshold)).astype(np.intp)
    # Code -> child, with a last slot (index -1) for unlisted codes.  Clipping
    # keeps astype from overflowing; it truncates as int() does (-0.9 -> 0).
    table = np.full(max(split.categories) + 2, unlisted, dtype=np.intp)
    table[list(split.categories)] = np.arange(len(split.categories))
    return table[np.clip(values, -1, len(table) - 1).astype(np.intp)]


def predict(model: HddtModel, rows: np.ndarray) -> np.ndarray:
    """Route each row to a leaf and return the leaf labels."""
    rows = require_matrix("rows", rows, len(model.specs))
    out = np.empty(rows.shape[0], dtype=np.int64)
    stack = [(model.root, np.arange(rows.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if isinstance(node, Leaf):
            out[idx] = node.label
        elif idx.size:
            # An unseen category follows the child that saw the most training rows.
            sizes = [child.n_pos + child.n_neg for child in node.children]
            largest = sizes.index(max(sizes))
            values = rows[idx, node.split.feature_index]
            if node.split.kind != NUMERIC and not np.isfinite(values).all():
                raise ValueError(f"non-finite value at row {idx[~np.isfinite(values)][0]}, feature "
                                 f"{model.specs[node.split.feature_index].name!r}")
            branch = _branch(node.split, values, largest)
            stack.extend((child, idx[branch == i]) for i, child in enumerate(node.children))
    return out


def select_features(model: HddtModel) -> list[int]:
    """Feature indices with positive importance, most important first."""
    imp = model.importances
    return sorted(np.flatnonzero(imp > 0.0).tolist(), key=lambda j: _rank(imp[j], j))


def _preorder(root, children) -> list:
    """The nodes of a nested tree in pre-order; ``children(node)`` lists a node's children."""
    out, stack = [], [root]
    while stack:
        out.append(stack.pop())
        stack.extend(reversed(children(out[-1])))
    return out


def _node_to_dict(node: TreeNode) -> dict:
    if isinstance(node, Leaf):
        return {"kind": "leaf", "label": node.label,
                "n_pos": node.n_pos, "n_neg": node.n_neg}
    split = node.split
    d = {"kind": "split", "feature_index": split.feature_index, "split_kind": split.kind,
         "hd_score": split.hd_score, "n_pos": node.n_pos, "n_neg": node.n_neg}
    if split.kind == NUMERIC:
        d["threshold"] = split.threshold
    else:
        d["categories"] = list(split.categories)
    return d


def _node_from_dict(d: dict, specs: tuple[FeatureSpec, ...]) -> Leaf | tuple:
    """One ``_nest`` entry, rejecting a node that ``predict`` could not route, naming the field."""
    node_kind, n_pos, n_neg = fields(d, "tree node", "kind", "n_pos", "n_neg")
    counts = require_int("n_pos", n_pos, 0), require_int("n_neg", n_neg, 0)
    if node_kind == "leaf":
        return Leaf(require_int("label", *fields(d, "tree node", "label"), 0, 1), *counts)
    if node_kind != "split":
        raise ValueError(f"kind must be 'leaf' or 'split', got {node_kind!r}")
    j, kind, hd_score = fields(d, "tree node", "feature_index", "split_kind", "hd_score")
    spec = specs[require_int("feature_index", j, 0, len(specs) - 1)]
    if kind != (NUMERIC if spec.kind == CONTINUOUS else CATEGORICAL_SPLIT):
        raise ValueError(f"split_kind {kind!r} does not fit {spec.kind} feature {spec.name!r}")
    threshold, categories = None, ()
    if kind == NUMERIC:
        threshold = require_number("threshold", *fields(d, "tree node", "threshold"))
    else:
        categories = tuple(require_int("categories", c, 0) for c in
                           require_list("categories", *fields(d, "tree node", "categories")))
        if (len(categories) < 2 or len(set(categories)) != len(categories)
                or not all(c < len(spec.categories) for c in categories)):
            raise ValueError(f"categories {list(categories)} must be at least two distinct "
                             f"codes in 0 .. {len(spec.categories) - 1} of {spec.name!r}")
    split = SplitCandidate(j, kind, require_number("hd_score", hd_score, 0.0),
                           threshold, categories)
    return (split, *counts)


def model_to_dict(model: HddtModel) -> dict:
    nodes = _preorder(model.root, lambda node: getattr(node, "children", ()))
    return {
        "format_version": 2,
        "specs": specs_to_dicts(model.specs),
        "importances": [float(v) for v in model.importances],
        "nodes": [_node_to_dict(node) for node in nodes],
    }


def model_from_dict(d: dict) -> HddtModel:
    """Rebuild a tree from version 2's pre-order ``nodes`` or version 1's nested ``root``."""
    version = require_int("format_version", *fields(d, "tree", "format_version"), 1, 2)
    nodes, specs, importances = fields(d, "tree", "nodes" if version == 2 else "root",
                                       "specs", "importances")
    nodes = (require_list("nodes", nodes) if version == 2 else _preorder(nodes, lambda node: (
        require_list("children", node.get("children", [])) if isinstance(node, dict) else [])))
    specs = specs_from_dicts(require_list("specs", specs))
    return HddtModel(_nest([_node_from_dict(node, specs) for node in nodes]), importances, specs)

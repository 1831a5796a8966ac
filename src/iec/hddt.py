"""Unpruned Hellinger-distance decision tree (HDDT).

Split quality is the Hellinger distance between the per-class distributions
over the partitions a split induces:

    score = sqrt( sum_j ( sqrt(pos_j / total_pos) - sqrt(neg_j / total_neg) )^2 )

Because only within-class proportions enter, the score ignores class priors:
replicating the minority class leaves every score (and hence the grown tree)
unchanged.  Scores live in [0, sqrt(2)], with sqrt(2) reached exactly when no
partition mixes the classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from iec.data import CONTINUOUS, Dataset, FeatureSpec, specs_from_dicts, specs_to_dicts

MAX_SCORE = math.sqrt(2.0)

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
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0 (or None for unlimited)")


@dataclass(frozen=True, eq=False)
class HddtModel:
    """A fitted tree plus per-feature importance scores."""

    root: TreeNode
    importances: np.ndarray
    specs: tuple[FeatureSpec, ...]

    def __post_init__(self):
        imp = np.array(self.importances, dtype=np.float64)
        imp.setflags(write=False)
        object.__setattr__(self, "importances", imp)


def hellinger_split_score(partition_counts) -> float:
    """Hellinger distance of a candidate partition, given (pos, neg) per branch.

    Requires at least two partitions and at least one example of each class in
    the node overall; individual partitions may be pure or empty of one class.
    """
    counts = [(int(p), int(n)) for p, n in partition_counts]
    if len(counts) < 2:
        raise ValueError("a split needs at least two partitions")
    if any(p < 0 or n < 0 for p, n in counts):
        raise ValueError("partition counts cannot be negative")
    total_pos = sum(p for p, _ in counts)
    total_neg = sum(n for _, n in counts)
    if total_pos < 1 or total_neg < 1:
        raise ValueError("both classes must be present at the node being split")
    total = 0.0
    for pos, neg in counts:
        total += (math.sqrt(pos / total_pos) - math.sqrt(neg / total_neg)) ** 2
    return math.sqrt(total)


def best_split_numeric(values, labels, feature_index: int = 0) -> SplitCandidate | None:
    """Highest-scoring binary threshold for one continuous feature.

    Candidate thresholds are the midpoints between adjacent distinct sorted
    values; ties in score go to the lowest threshold.  Returns None when all
    values are identical.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if values.shape != labels.shape or values.ndim != 1:
        raise ValueError("values and labels must be equal-length vectors")
    if values.size < 2:
        raise ValueError("need at least two rows to split")

    order = np.argsort(values, kind="stable")
    sv = values[order]
    sl = labels[order].astype(np.int64)
    boundaries = np.flatnonzero(sv[1:] != sv[:-1])
    if boundaries.size == 0:
        return None

    total_pos = int(sl.sum())
    total_neg = int(sl.size - total_pos)
    if total_pos < 1 or total_neg < 1:
        raise ValueError("both classes must be present at the node being split")

    cum_pos = np.cumsum(sl)
    left_pos = cum_pos[boundaries]
    left_n = boundaries + 1
    left_neg = left_n - left_pos
    right_pos = total_pos - left_pos
    right_neg = total_neg - left_neg

    # Same expression and evaluation order as hellinger_split_score on the
    # two-partition case, vectorized over all candidate boundaries.
    scores = np.sqrt(
        (np.sqrt(left_pos / total_pos) - np.sqrt(left_neg / total_neg)) ** 2
        + (np.sqrt(right_pos / total_pos) - np.sqrt(right_neg / total_neg)) ** 2
    )
    best = int(np.argmax(scores))
    i = boundaries[best]
    threshold = float((sv[i] + sv[i + 1]) / 2.0)
    return SplitCandidate(feature_index, NUMERIC, float(scores[best]), threshold=threshold)


def best_split_categorical(values, labels, category_count: int,
                           feature_index: int = 0) -> SplitCandidate | None:
    """Score the one-branch-per-observed-category partition of a feature.

    Returns None when only a single category occurs.
    """
    values = np.asarray(values)
    labels = np.asarray(labels)
    if values.shape != labels.shape or values.ndim != 1:
        raise ValueError("values and labels must be equal-length vectors")
    if category_count < 2:
        raise ValueError("categorical splits need at least two declared categories")
    idx = values.astype(np.int64)
    if not ((idx == values) & (idx >= 0) & (idx < category_count)).all():
        raise ValueError("category index out of range")

    observed = np.unique(idx)
    if observed.size < 2:
        return None
    pos_counts = np.bincount(idx[labels == 1], minlength=category_count)
    neg_counts = np.bincount(idx[labels == 0], minlength=category_count)
    partitions = [(pos_counts[c], neg_counts[c]) for c in observed]
    score = hellinger_split_score(partitions)
    return SplitCandidate(feature_index, CATEGORICAL_SPLIT, score,
                          categories=tuple(int(c) for c in observed))


def _best_candidate(rows: np.ndarray, labels: np.ndarray,
                    specs: tuple[FeatureSpec, ...]) -> SplitCandidate | None:
    """Globally best split over all features; lower feature index wins ties."""
    best = None
    for j, spec in enumerate(specs):
        if spec.kind == CONTINUOUS:
            cand = best_split_numeric(rows[:, j], labels, feature_index=j)
        else:
            cand = best_split_categorical(rows[:, j], labels, len(spec.categories),
                                          feature_index=j)
        if cand is not None and (best is None or cand.hd_score > best.hd_score):
            best = cand
    return best


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

    # Explicit-stack pre-order, the visiting order of a recursive build, so
    # importances sum in the same order: a split's row groups go on the stack
    # reversed, above a placeholder assembled once its children are built.
    built: list[TreeNode] = []
    stack: list = [(np.arange(train.n), 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, Internal):
            first = len(built) - len(item.children)
            built[first:] = [Internal(item.split, tuple(built[first:]), item.n_pos, item.n_neg)]
            continue
        row_idx, depth = item
        labels = train.labels[row_idx]
        n_pos = int(labels.sum())
        n_neg = int(labels.size - n_pos)
        cand = None
        if (n_pos > 0 and n_neg > 0 and labels.size >= 2 * config.min_leaf
                and (config.max_depth is None or depth < config.max_depth)):
            cand = _best_candidate(train.rows[row_idx], labels, train.specs)
        if cand is None or cand.hd_score <= 0.0:
            built.append(Leaf(1 if n_pos >= n_neg else 0, n_pos, n_neg))
            continue
        importances[cand.feature_index] += (labels.size / train.n) * cand.hd_score
        branch = _branch(cand, train.rows[row_idx, cand.feature_index], unlisted=-1)
        groups = range(2 if cand.kind == NUMERIC else len(cand.categories))
        stack.append(Internal(cand, groups, n_pos, n_neg))
        stack.extend((row_idx[branch == i], depth + 1) for i in reversed(groups))

    return HddtModel(built[0], importances, train.specs)


def _branch(split: SplitCandidate, values: np.ndarray, unlisted: int) -> np.ndarray:
    """Child index of each value under ``split``, for growth and prediction alike.

    Numeric: child 0 exactly where ``value <= threshold``, so NaN goes right.
    Categorical: the position of ``int(value)`` in ``split.categories``, or
    ``unlisted`` where it is not listed.
    """
    if split.kind == NUMERIC:
        return (~(values <= split.threshold)).astype(np.intp)
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite value in categorical feature {split.feature_index}")
    child = {c: i for i, c in enumerate(split.categories)}
    return np.array([child.get(int(v), unlisted) for v in values.tolist()], dtype=np.intp)


def predict(model: HddtModel, rows: np.ndarray) -> np.ndarray:
    """Route each row to a leaf and return the leaf labels."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != len(model.specs):
        raise ValueError(f"rows have width {rows.shape[-1] if rows.ndim == 2 else '?'}, "
                         f"model expects {len(model.specs)}")
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
            branch = _branch(node.split, rows[idx, node.split.feature_index], largest)
            stack.extend((child, idx[branch == i]) for i, child in enumerate(node.children))
    return out


def select_features(model: HddtModel) -> list[int]:
    """Feature indices with positive importance, most important first."""
    ranked = [(float(imp), j) for j, imp in enumerate(model.importances) if imp > 0.0]
    ranked.sort(key=lambda item: (-item[0], item[1]))
    return [j for _, j in ranked]


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
    d["children"] = [_node_to_dict(c) for c in node.children]
    return d


def _node_from_dict(d: dict, specs: tuple[FeatureSpec, ...]) -> TreeNode:
    """Rebuild a node, rejecting one that ``predict`` could not route, naming the field."""
    if d["kind"] == "leaf":
        if d["label"] not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {d['label']!r}")
        return Leaf(int(d["label"]), int(d["n_pos"]), int(d["n_neg"]))
    j = int(d["feature_index"])
    if not 0 <= j < len(specs):
        raise ValueError(f"feature_index {j} is outside 0 .. {len(specs) - 1}")
    kind, spec = d["split_kind"], specs[j]
    if kind != (NUMERIC if spec.kind == CONTINUOUS else CATEGORICAL_SPLIT):
        raise ValueError(f"split_kind {kind!r} does not fit {spec.kind} feature {spec.name!r}")
    threshold, categories = None, ()
    if kind == NUMERIC:
        threshold = float(d["threshold"])
        if not math.isfinite(threshold):
            raise ValueError(f"threshold must be finite, got {threshold}")
    else:
        categories = tuple(int(c) for c in d["categories"])
        if (len(categories) < 2 or len(set(categories)) != len(categories)
                or not all(0 <= c < len(spec.categories) for c in categories)):
            raise ValueError(f"categories {list(categories)} must be at least two distinct "
                             f"codes in 0 .. {len(spec.categories) - 1} of {spec.name!r}")
    arity = len(categories) if categories else 2
    if len(d["children"]) != arity:
        raise ValueError(f"children has {len(d['children'])} nodes, a {kind} split here "
                         f"needs {arity}")
    children = tuple(_node_from_dict(c, specs) for c in d["children"])
    split = SplitCandidate(j, kind, float(d["hd_score"]), threshold, categories)
    return Internal(split, children, int(d["n_pos"]), int(d["n_neg"]))


def model_to_dict(model: HddtModel) -> dict:
    return {
        "format_version": 1,
        "specs": specs_to_dicts(model.specs),
        "importances": [float(v) for v in model.importances],
        "root": _node_to_dict(model.root),
    }


def model_from_dict(d: dict) -> HddtModel:
    if d.get("format_version") != 1:
        raise ValueError(f"unsupported tree format version {d.get('format_version')!r}")
    specs = specs_from_dicts(d["specs"])
    return HddtModel(_node_from_dict(d["root"], specs),
                     np.array(d["importances"], dtype=np.float64), specs)

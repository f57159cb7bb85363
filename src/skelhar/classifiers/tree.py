"""CART-style decision tree (Gini impurity, best-first growth) and bagging.

Splits are axis-aligned thresholds at midpoints of consecutive distinct
sorted values. Growth is best-first: the leaf whose best split yields the
largest total impurity decrease is expanded next, up to max_splits splits.
Equal-gain candidates resolve to the smaller feature index, then the smaller
threshold; leaf predictions are the majority label with ties to the smallest
label, so training is fully deterministic.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterator

import numpy as np

from .base import BaggedTreesSpec, FineTreeSpec, TrainedModel, validate_training_data

_MIN_GAIN = 1e-12


class _Node:
    __slots__ = ("label", "counts", "feature", "threshold", "left", "right")

    def __init__(self, label: int, counts: np.ndarray | None = None):
        self.label = label
        self.counts = counts  # training class counts; meaningful at leaves
        self.feature: int | None = None
        self.threshold: float | None = None
        self.left: "_Node | None" = None
        self.right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _majority(counts: np.ndarray, class_set: np.ndarray) -> int:
    return int(class_set[int(np.argmax(counts))])


def _gini(counts: np.ndarray, n: int) -> float:
    return 1.0 - float(np.sum((counts / n) ** 2))


def _best_split(x: np.ndarray, label_idx: np.ndarray, idx: np.ndarray,
                counts: np.ndarray):
    """Best (gain, feature, threshold, left_rows, right_rows) for a node, or None."""
    n = len(idx)
    g_node = _gini(counts, n)
    if g_node <= 0.0:
        return None
    best_gain = _MIN_GAIN
    best = None
    n_classes = len(counts)
    node_labels = label_idx[idx]
    for f in range(x.shape[1]):
        vals = x[idx, f]
        order = np.argsort(vals, kind="stable")
        v = vals[order]
        cuts = np.nonzero(v[:-1] < v[1:])[0]
        if len(cuts) == 0:
            continue
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), node_labels[order]] = 1.0
        cum = np.cumsum(onehot, axis=0)
        lc = cum[cuts]
        rc = counts - lc
        nl = (cuts + 1).astype(np.float64)
        nr = n - nl
        gl = 1.0 - np.sum(lc * lc, axis=1) / (nl * nl)
        gr = 1.0 - np.sum(rc * rc, axis=1) / (nr * nr)
        gain = g_node - (nl * gl + nr * gr) / n
        j = int(np.argmax(gain))  # first maximum = smallest threshold
        if gain[j] > best_gain:
            cut = cuts[j]
            thr = (v[cut] + v[cut + 1]) / 2.0
            if thr >= v[cut + 1]:  # adjacent floats: midpoint collapsed upward
                thr = v[cut]
            left = idx[order[:cut + 1]]
            right = idx[order[cut + 1:]]
            best_gain = float(gain[j])
            best = (best_gain, f, float(thr), left, right)
    return best


def _grow_tree(x: np.ndarray, label_idx: np.ndarray, class_set: np.ndarray,
               max_splits: int) -> _Node:
    n_total = x.shape[0]
    n_classes = len(class_set)

    def _make(idx: np.ndarray) -> tuple[_Node, np.ndarray, np.ndarray]:
        counts = np.bincount(label_idx[idx], minlength=n_classes).astype(np.float64)
        return _Node(_majority(counts, class_set), counts), idx, counts

    root, root_idx, root_counts = _make(np.arange(n_total))
    heap: list[tuple[float, int, _Node, tuple]] = []
    counter = 0

    def _enqueue(node: _Node, idx: np.ndarray, counts: np.ndarray):
        nonlocal counter
        split = _best_split(x, label_idx, idx, counts)
        if split is None:
            return
        gain = split[0]
        decrease = gain * len(idx) / n_total
        heapq.heappush(heap, (-decrease, counter, node, split))
        counter += 1

    _enqueue(root, root_idx, root_counts)
    splits = 0
    while heap and splits < max_splits:
        _, _, node, (gain, feature, threshold, left_idx, right_idx) = heapq.heappop(heap)
        node.feature = feature
        node.threshold = threshold
        left, left_rows, left_counts = _make(left_idx)
        right, right_rows, right_counts = _make(right_idx)
        node.left, node.right = left, right
        _enqueue(left, left_rows, left_counts)
        _enqueue(right, right_rows, right_counts)
        splits += 1
    return root


def _leaf_counts(root: _Node, rows: np.ndarray, n_classes: int) -> np.ndarray:
    """(n_rows, n_classes) training class counts of the leaf each row reaches.

    Rows travel as index blocks, one comparison per node; a row equal to a
    threshold goes left.
    """
    out = np.empty((rows.shape[0], n_classes))
    blocks = [(root, np.arange(rows.shape[0]))]
    while blocks:
        node, idx = blocks.pop()
        if node.is_leaf:
            out[idx] = node.counts
        elif len(idx):
            left = rows[idx, node.feature] <= node.threshold
            blocks += [(node.left, idx[left]), (node.right, idx[~left])]
    return out


def _node_to_dict(node: _Node) -> dict:
    if node.is_leaf:
        return {"leaf": node.label, "counts": [int(v) for v in node.counts]}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(d: dict) -> _Node:
    if "leaf" in d:
        return _Node(int(d["leaf"]), np.asarray(d["counts"], dtype=np.float64))
    node = _Node(0)
    node.feature = int(d["feature"])
    node.threshold = float(d["threshold"])
    node.left = _node_from_dict(d["left"])
    node.right = _node_from_dict(d["right"])
    return node


class FineTreeModel(TrainedModel):
    kind = "fine_tree"

    def __init__(self, spec: FineTreeSpec, root: _Node, n_features: int,
                 class_set: np.ndarray):
        super().__init__(spec, class_set)
        self.root = root
        self.n_features = n_features

    def _counts(self, rows: np.ndarray) -> np.ndarray:
        return _leaf_counts(self.root, self._check_rows(rows, self.n_features),
                            len(self.class_set))

    def predict(self, rows: np.ndarray) -> np.ndarray:
        """The reached leaf's majority label, ties to the smallest label."""
        return self.class_set[np.argmax(self._counts(rows), axis=1)]

    def decision_scores(self, rows: np.ndarray) -> np.ndarray:
        """Class proportions of the training rows in the reached leaf."""
        counts = self._counts(rows)
        return counts / counts.sum(axis=1, keepdims=True)

    def to_json_dict(self) -> dict:
        return {
            **super().to_json_dict(),
            "n_features": self.n_features,
            "tree": _node_to_dict(self.root),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FineTreeModel":
        return cls(
            FineTreeSpec(**d["spec"]),
            _node_from_dict(d["tree"]),
            int(d["n_features"]),
            np.asarray(d["class_set"], dtype=np.int64),
        )


class BaggedTreesModel(TrainedModel):
    """Bootstrap-aggregated CART trees; per-row majority vote across trees."""

    kind = "bagged_trees"

    def __init__(self, spec: BaggedTreesSpec, trees: list[_Node], n_features: int,
                 class_set: np.ndarray):
        super().__init__(spec, class_set)
        self.trees = trees
        self.n_features = n_features

    def _member_counts(self, rows: np.ndarray) -> Iterator[np.ndarray]:
        rows = self._check_rows(rows, self.n_features)
        return (_leaf_counts(tree, rows, len(self.class_set)) for tree in self.trees)

    def predict(self, rows: np.ndarray) -> np.ndarray:
        """Hard vote of the members' leaf majorities, ties to the smallest label."""
        one_hot = np.eye(len(self.class_set), dtype=np.int64)
        votes = sum(one_hot[np.argmax(c, axis=1)] for c in self._member_counts(rows))
        return self.class_set[np.argmax(votes, axis=1)]

    def decision_scores(self, rows: np.ndarray) -> np.ndarray:
        """Mean leaf class proportions across ensemble members."""
        shares = (c / c.sum(axis=1, keepdims=True) for c in self._member_counts(rows))
        return sum(shares) / len(self.trees)

    def to_json_dict(self) -> dict:
        return {
            **super().to_json_dict(),
            "n_features": self.n_features,
            "trees": [_node_to_dict(t) for t in self.trees],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "BaggedTreesModel":
        return cls(
            BaggedTreesSpec(**d["spec"]),
            [_node_from_dict(t) for t in d["trees"]],
            int(d["n_features"]),
            np.asarray(d["class_set"], dtype=np.int64),
        )


def train_fine_tree(spec: FineTreeSpec, x: np.ndarray, y: np.ndarray) -> FineTreeModel:
    x, y = validate_training_data(x, y)
    class_set = np.unique(y)
    label_idx = np.searchsorted(class_set, y)
    root = _grow_tree(x, label_idx, class_set, spec.max_splits)
    return FineTreeModel(spec, root, x.shape[1], class_set)


def train_bagged_trees(
    spec: BaggedTreesSpec,
    x: np.ndarray,
    y: np.ndarray,
    sampler: Callable[[int, int], np.ndarray] | None = None,
) -> BaggedTreesModel:
    """Fit a bagged ensemble. Tree t draws its bootstrap from the substream
    (seed, t), so ensembles are reproducible and members independent.

    sampler overrides bootstrap row selection (testing hook): it receives
    (tree_index, n_rows) and returns the row indices to train on.
    """
    x, y = validate_training_data(x, y)
    class_set = np.unique(y)
    label_idx = np.searchsorted(class_set, y)
    n = x.shape[0]
    trees = []
    for t in range(spec.n_trees):
        if sampler is None:
            rng = np.random.default_rng([spec.seed, t])
            rows = rng.integers(0, n, size=n)
        else:
            rows = np.asarray(sampler(t, n))
        trees.append(_grow_tree(x[rows], label_idx[rows], class_set, spec.max_splits))
    return BaggedTreesModel(spec, trees, x.shape[1], class_set)

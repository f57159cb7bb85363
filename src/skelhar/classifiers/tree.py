"""CART-style decision tree (Gini impurity, best-first growth) and bagging.

Splits are axis-aligned thresholds at midpoints of consecutive distinct
sorted values. Growth is best-first: the leaf whose best split yields the
largest total impurity decrease is expanded next, up to max_splits splits.
Equal-gain candidates resolve to the smaller feature index, then the smaller
threshold; leaf predictions are the majority label with ties to the smallest
label, so training is fully deterministic.

Split search presorts once per tree: every feature column is argsorted
stably at the root, and a split hands each child its rows in the same order
by a stable partition, so no node sorts again. A node scores all features at
once, as a (features x cuts) gain matrix, in blocks of at most _BLOCK_CELLS
(rows x features) cells, or of one feature where a node has more rows.

The gains come in rank form, CART's incremental impurity update taken over
every cut at once. Sorted by label, a node's rows form the same run for every
feature, in which the row of rank r in its class adds 2r + 1 to that class's
squared left count. A stable argsort of a feature's labels (a radix sort, as
labels are uint8 up to 256 classes) puts that run back in the feature's
order, and its cumulative sum is sum_c l_c^2 at every cut; a cumulative sum
of each position's class size gives the right side. Every sum is an exact
integer, so the gains equal those of per-class counts bit for bit. The
working set is one int32 presort of the training rows plus one block's
arrays, each freed before the next is made.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .base import BaggedTreesSpec, FineTreeSpec, TrainedModel, validate_training_data

_MIN_GAIN = 1e-12
_BLOCK_CELLS = 1 << 16  # presort cells scored at once; bounds the working set


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


def _best_split(x: np.ndarray, label_idx: np.ndarray, order: np.ndarray,
                counts: np.ndarray):
    """Best (gain, feature, threshold, cut) for a node, or None.

    order is the node's (n_features, n) presort: order[f] lists the node's
    rows by ascending x[:, f]. The split sends order[feature, :cut + 1] left.
    Each block of features yields one (features x cuts) gain matrix.
    """
    n_features, n = order.shape
    g_node = _gini(counts, n)
    if g_node <= 0.0:
        return None
    nl = np.arange(1.0, n)  # left sizes, one per cut position
    nr = n - nl
    nl2, nr2 = nl * nl, nr * nr
    # Sorted by label, the node's rows form one run for every feature: class c
    # fills positions start[c] ... start[c] + N[c] - 1. The row of rank r in its
    # class raises that class's squared left count from r^2 to (r + 1)^2, so
    # the run of 2r + 1, put back in feature order, has sum_c l_c^2 at every
    # cut as its cumulative sum. Each sum is an exact integer, as a count is.
    sizes = counts.astype(np.int64)
    start = np.cumsum(sizes) - sizes
    run = 2.0 * (np.arange(n) - np.repeat(start, sizes)) + 1.0
    minus_2n = -2.0 * counts
    sum_n2 = float(np.sum(counts * counts))
    best_gain, best = _MIN_GAIN, None
    step = max(1, _BLOCK_CELLS // n)
    for f0 in range(0, n_features, step):
        rows = order[f0:f0 + step]
        cells = np.multiply(rows, n_features, dtype=np.intp)  # flat positions in x
        cells += np.arange(f0, f0 + len(rows))[:, None]
        v = np.take(x, cells)  # the block's values, then each run in turn
        tied = v[:, :-1] >= v[:, 1:]  # no cut between equal values
        if tied.all():
            continue
        labels = np.take(label_idx, rows)
        del cells  # a dead block array is freed before the next one is made
        by_label = np.argsort(labels, axis=1, kind="stable")  # radix for small labels
        by_label += np.arange(0, labels.size, n)[:, None]  # flat positions in v
        v.reshape(-1)[by_label] = run
        del by_label
        gl = np.cumsum(v[:, :-1], axis=1, out=np.empty(tied.shape))  # sum_c l_c^2
        # sum_c r_c^2 = sum_c N_c^2 - 2 sum_c N_c l_c + sum_c l_c^2, where the
        # middle sum accumulates N of each position's class
        np.take(minus_2n, labels, out=v, mode="clip")  # in range; clip skips a buffer
        v[:, 0] += sum_n2
        gr = np.cumsum(v[:, :-1], axis=1, out=np.empty(tied.shape))
        gr += gl
        np.subtract(1.0, np.divide(gl, nl2, out=gl), out=gl)  # left Gini, then the gain
        np.subtract(1.0, np.divide(gr, nr2, out=gr), out=gr)
        gl *= nl
        gl += np.multiply(gr, nr, out=gr)
        gl /= n
        gain = np.subtract(g_node, gl, out=gl)
        if tied.any():
            np.putmask(gain, tied, -np.inf)
        j = int(np.argmax(gain))  # row-major first maximum: smaller feature, then cut
        if gain.flat[j] > best_gain:
            best_gain = float(gain.flat[j])
            best = (f0 + j // (n - 1), j % (n - 1))
    if best is None:
        return None
    feature, cut = best
    lo, hi = x[order[feature, cut:cut + 2], feature]
    thr = (lo + hi) / 2.0
    if thr >= hi:  # adjacent floats: midpoint collapsed upward
        thr = lo
    return best_gain, feature, float(thr), cut


def _grow_tree(x: np.ndarray, label_idx: np.ndarray, class_set: np.ndarray,
               max_splits: int) -> _Node:
    x = np.ascontiguousarray(x)  # _best_split gathers from its flat layout
    n_total = x.shape[0]
    n_classes = len(class_set)
    # the smallest unsigned labels: numpy sorts 8- and 16-bit keys by radix
    label_idx = label_idx.astype(np.min_scalar_type(n_classes - 1))

    def _make(rows: np.ndarray) -> tuple[_Node, np.ndarray]:
        counts = np.bincount(label_idx[rows], minlength=n_classes).astype(np.float64)
        return _Node(_majority(counts, class_set), counts), counts

    heap: list[tuple[float, int, _Node, np.ndarray, tuple]] = []
    counter = 0

    def _enqueue(node: _Node, order: np.ndarray, counts: np.ndarray):
        nonlocal counter
        split = _best_split(x, label_idx, order, counts)
        if split is None:
            return
        gain = split[0]
        decrease = gain * order.shape[1] / n_total
        heapq.heappush(heap, (-decrease, counter, node, order, split))
        counter += 1

    order = np.ascontiguousarray(np.argsort(x, axis=0, kind="stable").T, dtype=np.int32)
    root, root_counts = _make(np.arange(n_total))
    _enqueue(root, order, root_counts)
    splits = 0
    while heap and splits < max_splits:
        _, _, node, order, (_, feature, threshold, cut) = heapq.heappop(heap)
        node.feature = feature
        node.threshold = threshold
        left, left_counts = _make(order[feature, :cut + 1])
        right, right_counts = _make(order[feature, cut + 1:])
        node.left, node.right = left, right
        splits += 1
        if splits == max_splits:
            break  # the budget is spent, so the children stay leaves and go unscored
        goes_left = np.zeros(n_total, dtype=bool)
        goes_left[order[feature, :cut + 1]] = True
        mask = goes_left[order]
        n_features, n = order.shape
        left_order = order[mask].reshape(n_features, cut + 1)
        right_order = order[~mask].reshape(n_features, n - cut - 1)
        del order, mask  # only the children's orders stay alive while they are scored
        _enqueue(left, left_order, left_counts)
        _enqueue(right, right_order, right_counts)
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


def _node_from_dict(d, model: "FineTreeModel | BaggedTreesModel", path: str) -> _Node:
    """The node that _node_to_dict wrote as d, or a ValueError naming its path.

    A split needs an int feature in [0, n_features), a finite threshold and
    both children; a leaf needs one non-negative int count per class, with a
    positive sum, and the counts' majority label as its label.
    """
    problem = None  # JSON gives exact types: a bool is no int, and an int no float
    if not isinstance(d, dict):
        problem = f"is a {type(d).__name__}, expected an object"
    elif "leaf" in d:
        counts, n_classes = d.get("counts"), len(model.class_set)
        if (not isinstance(counts, list) or len(counts) != n_classes
                or not all(type(c) is int and c >= 0 for c in counts) or sum(counts) == 0):
            problem = (f"has counts {counts!r}, expected {n_classes} non-negative "
                       f"integers with a positive sum")
        else:
            counts = np.asarray(counts, dtype=np.float64)
            node = _Node(_majority(counts, model.class_set), counts)
            if type(d["leaf"]) is not int or d["leaf"] != node.label:
                problem = f"has leaf {d['leaf']!r}, but its counts' majority label is {node.label}"
    elif not (type(d.get("feature")) is int and 0 <= d["feature"] < model.n_features):
        problem = (f"has feature {d.get('feature')!r}, expected an integer in "
                   f"[0, {model.n_features})")
    elif not (type(d.get("threshold")) in (int, float) and math.isfinite(d["threshold"])):
        problem = f"has threshold {d.get('threshold')!r}, expected a finite number"
    elif not {"left", "right"} <= d.keys():
        problem = f"has no {'left' if 'left' not in d else 'right'} child"
    else:
        node = _Node(0)
        node.feature = d["feature"]
        node.threshold = float(d["threshold"])
        node.left = _node_from_dict(d["left"], model, path + ".left")
        node.right = _node_from_dict(d["right"], model, path + ".right")
    if problem:
        raise ValueError(f"{model.kind} model: node {path}: {problem}")
    return node


@dataclass(eq=False)
class FineTreeModel(TrainedModel):
    kind = "fine_tree"

    spec: FineTreeSpec
    root: _Node  # model.json key "tree"
    n_features: int
    class_set: np.ndarray

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
        d = super().to_json_dict()
        d["tree"] = _node_to_dict(d.pop("root"))
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "FineTreeModel":
        model = super().from_json_dict(d, root=None)
        model.root = _node_from_dict(cls._json_field(d, "tree"), model, "root")
        return model


@dataclass(eq=False)
class BaggedTreesModel(TrainedModel):
    """Bootstrap-aggregated CART trees; per-row majority vote across trees."""

    kind = "bagged_trees"

    spec: BaggedTreesSpec
    trees: list[_Node]
    n_features: int
    class_set: np.ndarray

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
        d = super().to_json_dict()
        d["trees"] = [_node_to_dict(t) for t in self.trees]
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "BaggedTreesModel":
        model = super().from_json_dict(d, trees=None)
        model.trees = [_node_from_dict(t, model, f"trees[{k}]")
                       for k, t in enumerate(cls._json_field(d, "trees"))]
        return model


def train_fine_tree(spec: FineTreeSpec, x: np.ndarray, y: np.ndarray) -> FineTreeModel:
    x, y, class_set = validate_training_data(x, y)
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
    x, y, class_set = validate_training_data(x, y)
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

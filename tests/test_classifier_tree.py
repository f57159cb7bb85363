import copy
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skelhar import BaggedTreesSpec, FineTreeSpec, train_arrays
from skelhar.classifiers import FineTreeModel, model_from_json_dict, tree
from skelhar.classifiers.tree import train_bagged_trees, train_fine_tree
from oracles import per_feature_best_split, per_feature_grow_tree


def _internal_nodes(node):
    return 0 if node.is_leaf else 1 + _internal_nodes(node.left) + _internal_nodes(node.right)


def _tree_depth(node):
    if node.is_leaf:
        return 0
    return 1 + max(_tree_depth(node.left), _tree_depth(node.right))


class TestFineTree:
    def test_single_informative_feature_yields_shallow_perfect_tree(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 5))
        y = np.where(x[:, 2] > 0.1, 7, 3)
        model = train_arrays(FineTreeSpec(), x, y)
        assert np.array_equal(model.predict(x), y)
        assert _tree_depth(model.root) == 1
        assert model.root.feature == 2

    def test_memorizes_distinct_rows(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(60, 3))
        y = rng.integers(1, 10, size=60)
        y[:2] = [1, 2]
        model = train_arrays(FineTreeSpec(max_splits=100), x, y)
        assert np.mean(model.predict(x) == y) == 1.0

    def test_max_splits_caps_growth(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(200, 4))
        y = rng.integers(1, 10, size=200)
        y[:2] = [1, 2]
        model = train_arrays(FineTreeSpec(max_splits=1), x, y)
        assert _tree_depth(model.root) == 1

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(80, 6))
        y = rng.integers(1, 5, size=80)
        y[:2] = [1, 2]
        a = train_arrays(FineTreeSpec(), x, y)
        b = train_arrays(FineTreeSpec(), x, y)
        assert a.to_json_dict() == b.to_json_dict()

    def test_leaf_tie_breaks_to_smallest_label(self):
        # one feature value carries an even label mix: no split possible,
        # majority tie resolves downward
        x = np.zeros((4, 1))
        y = np.array([9, 2, 9, 2])
        model = train_arrays(FineTreeSpec(), x, y)
        assert model.predict(np.zeros((1, 1)))[0] == 2

    def test_query_on_the_threshold_goes_left(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([4, 4, 6, 6])
        model = train_arrays(FineTreeSpec(), x, y)
        on = np.array([[model.root.threshold]])
        assert model.predict(on)[0] == 4
        assert np.array_equal(model.decision_scores(on), [[1.0, 0.0]])
        above = np.array([[np.nextafter(model.root.threshold, np.inf)]])
        assert model.predict(above)[0] == 6

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 4))
        y = rng.integers(1, 6, size=50)
        y[:2] = [1, 2]
        model = train_arrays(FineTreeSpec(), x, y)
        again = FineTreeModel.from_json_dict(model.to_json_dict())
        queries = rng.normal(size=(20, 4))
        assert np.array_equal(model.predict(queries), again.predict(queries))


class TestBaggedTrees:
    def test_equal_seeds_give_identical_forests(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(60, 4))
        y = rng.integers(1, 5, size=60)
        y[:2] = [1, 2]
        a = train_arrays(BaggedTreesSpec(n_trees=5, seed=11), x, y)
        b = train_arrays(BaggedTreesSpec(n_trees=5, seed=11), x, y)
        assert a.to_json_dict() == b.to_json_dict()

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(60, 4))
        y = rng.integers(1, 5, size=60)
        y[:2] = [1, 2]
        a = train_arrays(BaggedTreesSpec(n_trees=5, seed=11), x, y)
        b = train_arrays(BaggedTreesSpec(n_trees=5, seed=12), x, y)
        assert a.to_json_dict() != b.to_json_dict()

    def test_identity_bootstrap_equals_fine_tree(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(70, 5))
        y = rng.integers(1, 7, size=70)
        y[:2] = [1, 2]
        bagged = train_bagged_trees(
            BaggedTreesSpec(n_trees=1, max_splits=40), x, y,
            sampler=lambda tree_index, n: np.arange(n),
        )
        single = train_fine_tree(FineTreeSpec(max_splits=40), x, y)
        queries = rng.normal(size=(40, 5))
        assert np.array_equal(bagged.predict(queries), single.predict(queries))

    def test_improves_or_matches_on_noisy_data(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(300, 6))
        y = np.where(x[:, 0] + 0.5 * rng.normal(size=300) > 0, 1, 2)
        holdout_x = rng.normal(size=(200, 6))
        holdout_y = np.where(holdout_x[:, 0] > 0, 1, 2)
        bagged = train_arrays(BaggedTreesSpec(n_trees=20, max_splits=30), x, y)
        acc = np.mean(bagged.predict(holdout_x) == holdout_y)
        assert acc > 0.8

    def test_scores_are_the_mean_of_member_leaf_proportions(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(120, 4))
        y = rng.integers(1, 6, size=120)
        bagged = train_arrays(BaggedTreesSpec(n_trees=4, max_splits=6, seed=2), x, y)
        members = [FineTreeModel(FineTreeSpec(), tree, 4, bagged.class_set)
                   for tree in bagged.trees]
        queries = rng.normal(size=(50, 4))
        mean = sum(m.decision_scores(queries) for m in members) / len(members)
        assert np.array_equal(bagged.decision_scores(queries), mean)
        assert not np.isin(mean, (0.0, 1.0)).all()  # some leaves are impure

    def test_predict_is_the_members_hard_vote_with_ties_to_the_smallest_label(self):
        # rows 0-9 (x = 0..9) are class 2 and rows 10-19 class 1; tree 0 sees
        # every row and splits at 9.5, tree 1 sees rows 0-2 and 10-19 and
        # splits at 6, so queries in (6, 9.5] get one vote for each class
        x = np.arange(20.0)[:, None]
        y = np.where(np.arange(20) < 10, 2, 1)
        bootstraps = [np.arange(20), np.r_[0:3, 10:20]]
        bagged = train_bagged_trees(BaggedTreesSpec(n_trees=2), x, y,
                                    sampler=lambda t, n: bootstraps[t])
        members = [FineTreeModel(FineTreeSpec(), tree, 1, bagged.class_set)
                   for tree in bagged.trees]
        queries = np.array([[3.0], [8.0], [12.0]])
        assert [m.predict(queries).tolist() for m in members] == [[2, 2, 1], [2, 1, 1]]
        assert bagged.predict(queries).tolist() == [2, 1, 1]


def _column(rng, kind, n):
    if kind == "ties":  # small integers: many equal values per column
        return rng.integers(0, 4, size=n).astype(np.float64)
    if kind == "constant":
        return np.full(n, rng.normal())
    if kind == "adjacent":  # neighbouring floats: the midpoint collapses upward
        base = rng.normal(size=3)[rng.integers(0, 3, size=n)]
        return np.where(rng.random(n) < 0.5, base, np.nextafter(base, np.inf))
    return rng.normal(size=n)


def _oracle_json(spec, x, y):
    class_set = np.unique(y)
    root = per_feature_grow_tree(x, np.searchsorted(class_set, y), class_set,
                                 spec.max_splits)
    return FineTreeModel(spec, root, x.shape[1], class_set).to_json_dict()


def _assert_root_split_equals_the_oracle(x, label_idx, n_classes):
    """_best_split at a node of every row gives the per-feature oracle's
    (gain, feature, threshold, cut); the gain is compared with ==."""
    counts = np.bincount(label_idx, minlength=n_classes).astype(np.float64)
    order = np.ascontiguousarray(np.argsort(x, axis=0, kind="stable").T, dtype=np.int32)
    labels = label_idx.astype(np.min_scalar_type(n_classes - 1))
    split = tree._best_split(x, labels, order, counts)
    oracle = per_feature_best_split(x, label_idx, np.arange(len(x)), counts)
    assert oracle is not None
    gain, feature, threshold, left, _ = oracle
    assert split == (gain, feature, threshold, len(left) - 1)


class TestPresortedSplitSearch:
    """The presorted, blocked split search grows the per-feature oracle's tree."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.integers(2, 60),
           kinds=st.lists(st.sampled_from(["ties", "constant", "adjacent", "normal"]),
                          min_size=1, max_size=6),
           n_classes=st.integers(2, 9),
           max_splits=st.integers(1, 30),
           block_cells=st.sampled_from([1, 7, 50, 1 << 16]))
    def test_trees_equal_the_per_feature_oracle(self, seed, n, kinds, n_classes,
                                                max_splits, block_cells):
        rng = np.random.default_rng(seed)
        x = np.column_stack([_column(rng, kind, n) for kind in kinds])
        y = rng.choice(np.arange(1, 10), size=n_classes, replace=False)[
            rng.integers(0, n_classes, size=n)]
        y[:2] = [1, 9]  # at least two classes
        spec = FineTreeSpec(max_splits=max_splits)
        with mock.patch.object(tree, "_BLOCK_CELLS", block_cells):
            model = train_fine_tree(spec, x, y)
        assert model.to_json_dict() == _oracle_json(spec, x, y)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n_classes=st.integers(257, 300),
           extra=st.integers(0, 40),
           kinds=st.lists(st.sampled_from(["ties", "constant", "adjacent", "normal"]),
                          min_size=1, max_size=3),
           max_splits=st.integers(1, 30))
    def test_more_than_256_labels_take_16_bit_labels_and_equal_the_oracle(
            self, seed, n_classes, extra, kinds, max_splits):
        rng = np.random.default_rng(seed)
        n = n_classes + extra
        y = rng.permutation(np.r_[1:n_classes + 1, rng.integers(1, n_classes + 1, size=extra)])
        x = np.column_stack([_column(rng, kind, n) for kind in kinds])
        x[:, 0] = rng.normal(size=n)  # a column with cuts, so the root is scored
        spec = FineTreeSpec(max_splits=max_splits)
        with mock.patch.object(tree, "_best_split", wraps=tree._best_split) as scored:
            model = train_fine_tree(spec, x, y)
        assert scored.call_args.args[1].dtype == np.uint16
        assert model.to_json_dict() == _oracle_json(spec, x, y)
        _assert_root_split_equals_the_oracle(x, y - 1, n_classes)

    def test_nodes_missing_middle_classes_equal_the_oracle(self):
        # feature 1 parts labels 1, 3, 5 from 2, 4: each child's counts hold
        # zeros between nonzero entries
        rng = np.random.default_rng(11)
        n = 120
        x = np.column_stack([_column(rng, kind, n) for kind in ("ties", "normal", "adjacent")])
        y = np.where(x[:, 1] > 0, rng.choice([1, 3, 5], size=n), rng.choice([2, 4], size=n))
        spec = FineTreeSpec(max_splits=12)
        model = train_fine_tree(spec, x, y)
        assert model.root.feature == 1
        assert model.root.left.counts[[0, 2, 4]].tolist() == [0, 0, 0]
        assert model.root.right.counts[[1, 3]].tolist() == [0, 0]
        assert model.to_json_dict() == _oracle_json(spec, x, y)
        # a node of labels 0, 2 and 4 of five, scored as it is
        right = x[:, 1] > 0
        _assert_root_split_equals_the_oracle(x[right], y[right] - 1, 5)

    @pytest.mark.parametrize("max_splits", [1, 3, 10, 100])
    def test_a_spent_budget_leaves_the_last_children_unscored(self, max_splits):
        rng = np.random.default_rng(max_splits)
        n = 120
        x = np.column_stack([_column(rng, kind, n)
                             for kind in ("ties", "adjacent", "ties", "normal")])
        y = rng.integers(1, 10, size=n)
        y[:2] = [1, 9]
        spec = FineTreeSpec(max_splits=max_splits)
        with mock.patch.object(tree, "_best_split", wraps=tree._best_split) as scored:
            model = train_fine_tree(spec, x, y)
        assert model.to_json_dict() == _oracle_json(spec, x, y)
        splits = _internal_nodes(model.root)
        # the root, then two children per split, except the split that spends
        # the budget
        spent = splits == max_splits
        assert scored.call_count == 1 + 2 * splits - (2 if spent else 0)

    @pytest.mark.parametrize("max_splits", [1, 3, 10, 100])
    def test_bagged_members_equal_the_per_feature_oracle(self, max_splits):
        rng = np.random.default_rng(100 + max_splits)
        n = 90
        x = np.column_stack([_column(rng, kind, n) for kind in ("ties", "adjacent", "ties")])
        y = rng.integers(1, 6, size=n)
        y[:2] = [1, 5]
        spec = BaggedTreesSpec(n_trees=4, max_splits=max_splits, seed=3)
        grown = train_bagged_trees(spec, x, y).to_json_dict()
        with mock.patch.object(tree, "_grow_tree", per_feature_grow_tree):
            oracle = train_bagged_trees(spec, x, y).to_json_dict()
        assert grown == oracle

    def test_single_class_node_stays_a_leaf(self):
        x = np.random.default_rng(0).normal(size=(10, 3))
        label_idx = np.zeros(10, dtype=np.int64)
        class_set = np.array([4])
        grown = tree._grow_tree(x, label_idx, class_set, 5)
        oracle = per_feature_grow_tree(x, label_idx, class_set, 5)
        assert grown.is_leaf and oracle.is_leaf
        assert tree._node_to_dict(grown) == tree._node_to_dict(oracle)

    def test_equal_gain_tie_across_blocks_goes_to_the_smaller_feature(self):
        # features 2 and 3 are the same perfect separator; with three features
        # per block they are scored in different blocks
        rng = np.random.default_rng(1)
        n = 40
        x = rng.normal(size=(n, 5))
        x[:, 2] = x[:, 3] = np.arange(n)
        y = np.where(np.arange(n) < 20, 1, 2)
        spec = FineTreeSpec(max_splits=1)
        with mock.patch.object(tree, "_BLOCK_CELLS", 3 * n):
            model = train_fine_tree(spec, x, y)
        assert model.root.feature == 2
        assert model.to_json_dict() == _oracle_json(spec, x, y)

    def test_peak_memory_stays_within_four_times_the_features(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4000, 81))
        y = rng.integers(1, 10, size=4000)
        tracemalloc.start()
        try:
            train_fine_tree(FineTreeSpec(), x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * x.nbytes


# a 3-feature, 2-class tree: the leaf at root.right.right is a 2:2 tie
_TREE = {"feature": 0, "threshold": 0.5,
         "left": {"leaf": 1, "counts": [3, 1]},
         "right": {"feature": 2, "threshold": 1.5,
                   "left": {"leaf": 2, "counts": [0, 2]},
                   "right": {"leaf": 1, "counts": [2, 2]}}}
_MISSING = object()


def _fine_tree_dict(tree_dict):
    return {"kind": "fine_tree", "spec": {"max_splits": 100, "seed": 0},
            "tree": tree_dict, "n_features": 3, "class_set": [1, 2]}


def _corrupt(path, key, value):
    """_TREE with node path's key set to value, or removed for _MISSING."""
    d = copy.deepcopy(_TREE)
    node = d
    for side in path:
        node = node[side]
    if value is _MISSING:
        del node[key]
    else:
        node[key] = value
    return d


class TestTreeModelLoader:
    """model.json trees load only when every node is one a trainer could grow."""

    def test_a_valid_tree_loads_and_routes_rows(self):
        model = model_from_json_dict(_fine_tree_dict(_TREE))
        assert model.to_json_dict() == _fine_tree_dict(_TREE)
        rows = np.array([[0.0, 0, 0], [1, 0, 1], [1, 0, 2]])
        assert model.predict(rows).tolist() == [1, 2, 1]

    @pytest.mark.parametrize("path, key, value, problem", [
        ((), "feature", -1, "node root: has feature -1, expected an integer in [0, 3)"),
        (("right",), "feature", 7, "node root.right: has feature 7"),
        (("right",), "feature", 1.0, "node root.right: has feature 1.0"),
        (("right",), "threshold", float("nan"), "node root.right: has threshold nan"),
        (("right",), "left", _MISSING, "node root.right: has no left child"),
        (("right",), "left", [1, 2], "node root.right.left: is a list, expected an object"),
        (("left",), "counts", [1], "node root.left: has counts [1], expected 2 non-negative"),
        (("left",), "counts", [4, -1], "node root.left: has counts [4, -1]"),
        (("right", "left"), "counts", [0, 0], "node root.right.left: has counts [0, 0]"),
        (("right", "left"), "leaf", 1, "node root.right.left: has leaf 1, but its counts' "
                                       "majority label is 2"),
        (("right", "right"), "leaf", 2, "node root.right.right: has leaf 2, but its counts' "
                                        "majority label is 1"),
    ], ids=["negative-feature", "feature-past-the-last", "float-feature", "nan-threshold",
            "missing-child", "child-not-an-object", "short-counts", "negative-count", "empty-counts",
            "leaf-not-the-majority", "leaf-not-the-smallest-of-a-tie"])
    def test_a_corrupt_fine_tree_node_fails_naming_its_path(self, path, key, value, problem):
        with pytest.raises(ValueError, match=re.escape(f"fine_tree model: {problem}")):
            model_from_json_dict(_fine_tree_dict(_corrupt(path, key, value)))

    def test_a_corrupt_bagged_member_fails_naming_the_member(self):
        d = {"kind": "bagged_trees", "spec": {"n_trees": 2, "max_splits": 100, "seed": 0},
             "trees": [_TREE, _corrupt(("right",), "threshold", float("inf"))],
             "n_features": 3, "class_set": [1, 2]}
        with pytest.raises(ValueError, match=re.escape(
                "bagged_trees model: node trees[1].right: has threshold inf")):
            model_from_json_dict(d)

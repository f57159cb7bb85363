import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skelhar import BaggedTreesSpec, FineTreeSpec, train_arrays
from skelhar.classifiers import FineTreeModel, tree
from skelhar.classifiers.tree import train_bagged_trees, train_fine_tree
from oracles import per_feature_grow_tree


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

import numpy as np
import pytest

from skelhar import (
    CubicSvmSpec,
    JointSubset,
    Modality,
    SynthSpec,
    build_feature_matrix,
    generate_synthetic,
    train_arrays,
)
from skelhar.classifiers import BinarySvm, CubicSvmModel, cubic_kernel


def _blobs(rng, centers, n=40, spread=0.4):
    x = np.concatenate([rng.normal(c, spread, size=(n, len(c))) for c in centers])
    y = np.concatenate([np.full(n, label) for label in range(1, len(centers) + 1)])
    return x, y


def test_separable_blobs_reach_zero_training_error_within_tolerance():
    rng = np.random.default_rng(0)
    x, y = _blobs(rng, [(-3.0, -3.0), (3.0, 3.0)], n=60, spread=0.5)
    model = train_arrays(CubicSvmSpec(), x, y)
    assert np.mean(model.predict(x) == y) == 1.0
    assert model.max_kkt_residual() <= 1e-3


def test_overlapping_classes_converge_with_bounded_multipliers():
    # heavy class overlap drives multipliers to the box bound; convergence
    # and the KKT conditions must still hold at the stated tolerance
    rng = np.random.default_rng(7)
    x, y = _blobs(rng, [(0.0, 0.0), (1.0, 0.5)], n=60, spread=1.0)
    spec = CubicSvmSpec(c=1.0, tolerance=1e-3)
    model = train_arrays(spec, x, y)
    assert model.max_kkt_residual() <= 1e-3
    at_bound = sum(int(np.any(m.alphas >= spec.c - 1e-9)) for m in model.machines)
    assert at_bound >= 1  # the fixture actually exercises the bounded case


def test_nine_classes_train_36_machines():
    rng = np.random.default_rng(1)
    centers = [(4.0 * i, 4.0 * (i % 3)) for i in range(9)]
    x, y = _blobs(rng, centers, n=10, spread=0.3)
    model = train_arrays(CubicSvmSpec(), x, y)
    assert len(model.machines) == 36
    assert np.mean(model.predict(x) == y) == 1.0


def _assert_exact_box(model):
    c = model.spec.c
    for m in model.machines:
        assert np.all((m.alphas >= 0.0) & (m.alphas <= c)), (m.pos_label, m.neg_label)


def test_multipliers_stay_in_the_box_exactly():
    rng = np.random.default_rng(7)
    x, y = _blobs(rng, [(0.0, 0.0), (1.0, 0.5)], n=60, spread=1.0)
    _assert_exact_box(train_arrays(CubicSvmSpec(), x, y))
    rng = np.random.default_rng(1)
    x, y = _blobs(rng, [(4.0 * i, 4.0 * (i % 3)) for i in range(9)], n=10, spread=0.3)
    _assert_exact_box(train_arrays(CubicSvmSpec(), x, y))


def test_synthetic_coordinates_converge_in_the_box():
    # a dataset whose lying-class pairs once stalled a first-order solver
    matrix = build_feature_matrix(generate_synthetic(SynthSpec(n_participants=2, seed=4)),
                                  Modality.COORDINATES, JointSubset.c28(), 3)
    spec = CubicSvmSpec()
    model = train_arrays(spec, matrix.rows, matrix.labels)
    _assert_exact_box(model)
    assert model.max_kkt_residual() <= spec.tolerance
    assert np.mean(model.predict(matrix.rows) == matrix.labels) == 1.0


def test_kernel_is_cubic_polynomial():
    a = np.array([[1.0, 2.0]])
    b = np.array([[0.5, -1.0]])
    assert cubic_kernel(a, b)[0, 0] == (1.0 + 1.0 * 0.5 + 2.0 * -1.0) ** 3


def test_training_is_deterministic():
    rng = np.random.default_rng(2)
    x, y = _blobs(rng, [(-2.0, 0.0), (2.0, 0.0), (0.0, 3.0)], n=25)
    a = train_arrays(CubicSvmSpec(), x, y)
    b = train_arrays(CubicSvmSpec(), x, y)
    for ma, mb in zip(a.machines, b.machines):
        assert np.array_equal(ma.alphas, mb.alphas)
        assert ma.bias == mb.bias


def test_internal_standardization_absorbs_affine_feature_changes():
    rng = np.random.default_rng(3)
    x, y = _blobs(rng, [(-2.0, 1.0), (2.0, -1.0)], n=30)
    queries = rng.normal(0, 2, size=(50, 2))
    base = train_arrays(CubicSvmSpec(), x, y).predict(queries)
    shifted = train_arrays(
        CubicSvmSpec(), x * np.array([1000.0, 0.01]) + 7.0, y
    ).predict(queries * np.array([1000.0, 0.01]) + 7.0)
    assert np.array_equal(base, shifted)


def test_predictions_stay_in_class_set():
    rng = np.random.default_rng(4)
    x, y = _blobs(rng, [(0.0, 0.0), (5.0, 5.0)], n=20)
    model = train_arrays(CubicSvmSpec(), x, y)
    far = rng.normal(50.0, 1.0, size=(10, 2))
    assert set(model.predict(far)) <= {1, 2}


def test_serialization_round_trip():
    rng = np.random.default_rng(5)
    x, y = _blobs(rng, [(-2.0, -2.0), (2.0, 2.0), (-2.0, 2.0)], n=15)
    model = train_arrays(CubicSvmSpec(), x, y)
    again = CubicSvmModel.from_json_dict(model.to_json_dict())
    queries = rng.normal(0, 2, size=(30, 2))
    assert np.array_equal(model.predict(queries), again.predict(queries))


def test_json_dict_shares_one_list_per_distinct_row():
    # every row of a class is stored by each machine that pairs it; equal
    # rows (here a duplicated block) must share one list object
    rng = np.random.default_rng(6)
    x, y = _blobs(rng, [(-2.0, -2.0), (2.0, 2.0), (-2.0, 2.0), (2.0, -2.0)], n=12)
    x, y = np.concatenate([x, x[:5]]), np.concatenate([y, y[:5]])
    model = train_arrays(CubicSvmSpec(), x, y)
    d = model.to_json_dict()
    stored = [row for m in d["machines"] for row in m["train_x"]]
    assert len(stored) == 3 * len(x)  # each row in the 3 machines of its class
    assert len({id(row) for row in stored}) == len(np.unique(x, axis=0)) == len(x) - 5

    again = CubicSvmModel.from_json_dict(d)
    queries = rng.normal(0, 2, size=(30, 2))
    labels, scores = model.predict_with_scores(queries)
    labels_again, scores_again = again.predict_with_scores(queries)
    assert np.array_equal(labels, labels_again)
    assert np.array_equal(scores, scores_again)


def _constant_machine(pos, neg, bias):
    # zero support vectors make the decision value a constant bias
    return BinarySvm(pos, neg, np.empty((0, 2)), np.empty(0), np.empty(0), bias)


def test_vote_ties_fall_back_to_summed_decisions_then_smallest_label():
    spec = CubicSvmSpec()
    mean, scale = np.zeros(2), np.ones(2)
    class_set = np.array([1, 2, 5])
    query = np.zeros((1, 2))

    # cyclic outcome: 1 beats 2, 2 beats 5, 5 beats 1 -> one vote each;
    # summed decisions: 1 -> -1, 2 -> 0, 5 -> +1
    cyclic = CubicSvmModel(spec, [
        _constant_machine(1, 2, +1.0),
        _constant_machine(2, 5, +1.0),
        _constant_machine(1, 5, -2.0),
    ], mean, scale, class_set)
    assert cyclic.predict(query)[0] == 5

    # balanced cycle: every summed decision is zero -> smallest label
    balanced = CubicSvmModel(spec, [
        _constant_machine(1, 2, +1.0),
        _constant_machine(2, 5, +1.0),
        _constant_machine(1, 5, -1.0),
    ], mean, scale, class_set)
    assert balanced.predict(query)[0] == 1


def test_hyperparameter_validation():
    with pytest.raises(ValueError):
        CubicSvmSpec(c=0.0)
    with pytest.raises(ValueError):
        CubicSvmSpec(tolerance=-1.0)

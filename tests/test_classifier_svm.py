import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skelhar import (
    CubicSvmSpec,
    JointSubset,
    Modality,
    SynthSpec,
    build_feature_matrix,
    generate_synthetic,
    train_arrays,
)
from skelhar.classifiers import BinarySvm, CubicSvmModel, cubic_kernel, svm
from oracles import per_machine_smo


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


@st.composite
def svm_problems(draw):
    """Unequal classes (so lockstep rows carry padding), some tight and some
    overlapping (so machines need very different step counts), optional
    duplicated rows (flat curvature) and a C small enough to clip."""
    sizes = draw(st.lists(st.integers(2, 14), min_size=2, max_size=4))
    dims = draw(st.integers(1, 3))
    spreads = draw(st.lists(st.sampled_from([0.05, 0.5, 3.0]), min_size=len(sizes),
                            max_size=len(sizes)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.concatenate([rng.normal(rng.normal(0.0, 2.0, dims), spread, size=(n, dims))
                        for n, spread in zip(sizes, spreads)])
    y = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    repeat = rng.integers(0, len(y), draw(st.integers(0, 5)))
    x, y = np.concatenate([x, x[repeat]]), np.concatenate([y, y[repeat]])
    return x, y, draw(st.sampled_from([0.02, 1.0, 50.0]))


def _bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


def _assert_machines_equal_the_oracle(model):
    spec = model.spec
    for m in model.machines:
        alphas, bias = per_machine_smo(cubic_kernel(m.train_x, m.train_x), m.train_y,
                                       spec.c, spec.tolerance)
        assert _bits(m.alphas) == _bits(alphas), (m.pos_label, m.neg_label)
        assert _bits(m.bias) == _bits(bias), (m.pos_label, m.neg_label)


@pytest.mark.parametrize("group_bytes", [None, 1, 2 * 8 * 30**2],
                         ids=["default-groups", "groups-of-1", "groups-of-about-2"])
@settings(max_examples=40, deadline=None)
@given(problem=svm_problems())
def test_lockstep_machines_equal_the_per_machine_oracle_bit_for_bit(group_bytes, problem):
    x, y, c = problem
    budget = svm._GROUP_BYTES if group_bytes is None else group_bytes
    with mock.patch.object(svm, "_GROUP_BYTES", budget):
        model = train_arrays(CubicSvmSpec(c=c), x, y)
    _assert_machines_equal_the_oracle(model)


def test_lockstep_matches_the_oracle_on_synthetic_coordinates():
    matrix = build_feature_matrix(generate_synthetic(SynthSpec(n_participants=1, seed=4)),
                                  Modality.COORDINATES, JointSubset.c28(), 3)
    _assert_machines_equal_the_oracle(train_arrays(CubicSvmSpec(), matrix.rows, matrix.labels))


def _three_blobs(seed):
    # 60 rows, 3 classes
    return _blobs(np.random.default_rng(seed), [(-2.0, 0.0), (2.0, 0.0), (0.0, 3.0)], n=20)


def test_a_step_that_moves_no_multiplier_fails_at_once_naming_the_pair():
    # at tolerance 1e-16 machine 2 vs 3 reaches a fixed point: the step
    # moves neither multiplier, so it would repeat until the step cap
    x, y = _three_blobs(2)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"labels 2 vs 3.*1e-16.*--svm-tol") as err:
        train_arrays(CubicSvmSpec(tolerance=1e-16), x, y)
    assert time.perf_counter() - start < 2.0
    assert "g_max - g_min" in str(err.value)


def test_a_machine_that_cycles_fails_long_before_the_step_cap_naming_the_pair():
    # at tolerance 1e-16 machine 2 vs 3 of this set alternates between two
    # states, moving both multipliers by one rounding step each time
    x, y = _three_blobs(1)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"repeats itself on the machine for labels 2 vs 3.*"
                                           r"1e-16.*--svm-tol") as err:
        train_arrays(CubicSvmSpec(tolerance=1e-16), x, y)
    assert time.perf_counter() - start < 2.0
    assert "g_max - g_min" in str(err.value)


def test_the_step_cap_still_stops_a_machine_that_keeps_moving(monkeypatch):
    # at tolerance 1e-16 machine 2 vs 3 of this set alternates between two
    # states, moving both multipliers by one rounding step each time; with the
    # cycle check beyond the cap, only the cap stops it
    x, y = _three_blobs(1)
    monkeypatch.setattr(svm, "_MAX_STEPS", 3000)
    monkeypatch.setattr(svm, "_CYCLE_STEPS", 4096)
    with pytest.raises(RuntimeError, match=r"within 3000 steps on the machine for labels 2 vs 3"):
        train_arrays(CubicSvmSpec(tolerance=1e-16), x, y)
    # the same cap is no obstacle at the default tolerance
    train_arrays(CubicSvmSpec(), x, y)


def _three_class_dict():
    rng = np.random.default_rng(5)
    x, y = _blobs(rng, [(-2.0, -2.0), (2.0, 2.0), (-2.0, 2.0)], n=6)
    return train_arrays(CubicSvmSpec(), x, y).to_json_dict()


def _set(path, value):
    def mutate(d):
        *head, last = path
        target = d
        for key in head:
            target = target[key]
        target[last] = value(target[last]) if callable(value) else value
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (_set(["machines"], []), r"machine 0 \(labels 1 vs 2\) is missing"),
    (_set(["machines"], lambda ms: ms[:1]), r"machine 1 \(labels 1 vs 3\) is missing"),
    (_set(["machines"], lambda ms: ms + ms[:1]), r"machine 3 is beyond the 3 class pairs"),
    (_set(["machines"], lambda ms: [ms[1], ms[0], ms[2]]), r"machine 0 pairs labels 1 vs 3"),
    (_set(["machines", 2, "pos_label"], 7), r"machine 2 pairs labels 7 vs 3"),
    (_set(["machines", 1, "train_x"], lambda rows: [r[:1] for r in rows]),
     r"machine 1 has train_x of shape \(12, 1\)"),
    (_set(["machines", 0, "alphas"], lambda a: a[:-1]), r"machine 0 has 12 train_x rows"),
    (_set(["machines", 0, "train_y"], lambda t: t[:-1]), r"machine 0 has 12 train_x rows"),
    (_set(["machines", 2, "train_y"], lambda t: [2.0] + t[1:]), r"machine 2 has a train_y label"),
    (_set(["machines", 1, "alphas"], lambda a: [-0.5] + a[1:]), r"machine 1 has an alpha outside"),
    (_set(["machines", 1, "alphas"], lambda a: [1.5] + a[1:]), r"machine 1 has an alpha outside"),
    (_set(["machines", 1, "alphas"], lambda a: [float("nan")] + a[1:]),
     r"machine 1 has an alpha outside"),
    (_set(["machines", 0, "bias"], float("inf")), r"machine 0 has bias inf"),
    (_set(["machines", 0, "bias"], "0.5"), r"machine 0 has bias '0.5'"),
    (_set(["machines", 0, "bias"], True), r"machine 0 has bias True"),
], ids=["no-machines", "one-of-three", "one-too-many", "out-of-order", "label-outside-class-set",
        "narrow-train-x", "short-alphas", "short-train-y", "label-not-plus-minus-one",
        "negative-alpha", "alpha-above-c", "nan-alpha", "infinite-bias", "text-bias",
        "bool-bias"])
def test_loading_rejects_a_broken_machine_with_its_index(mutate, message):
    d = _three_class_dict()
    CubicSvmModel.from_json_dict(d)  # the untouched dict loads
    mutate(d)
    with pytest.raises(ValueError, match=r"^cubic_svm model: " + message):
        CubicSvmModel.from_json_dict(d)

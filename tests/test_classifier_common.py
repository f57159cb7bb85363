"""Contracts every classifier family must satisfy."""

import dataclasses
import json
import re

import numpy as np
import pytest

from skelhar import (
    BaggedTreesSpec,
    CubicSvmSpec,
    FineKnnSpec,
    FineTreeSpec,
    LinearDiscriminantSpec,
    MlpSpec,
    train_arrays,
)
from skelhar.classifiers import FAMILIES, HyperparameterError, model_from_json_dict

ALL_SPECS = [
    FineTreeSpec(seed=3),
    BaggedTreesSpec(n_trees=5, seed=3),
    FineKnnSpec(k=1, seed=3),
    CubicSvmSpec(seed=3),
    LinearDiscriminantSpec(seed=3),
    MlpSpec(hidden_width=12, epochs=40, learning_rate=0.05, seed=3),
]


def _three_blobs(seed=0, n=30):
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.normal([-4, -4], 0.4, (n, 2)),
                        rng.normal([4, -4], 0.4, (n, 2)),
                        rng.normal([0, 5], 0.4, (n, 2))])
    y = np.repeat([1, 2, 5], n)
    queries = np.concatenate([rng.normal([-4, -4], 0.8, (10, 2)),
                              rng.normal([4, -4], 0.8, (10, 2)),
                              rng.normal([0, 5], 0.8, (10, 2))])
    return x, y, queries


def test_label_permutation_equivariance():
    # relabeling classes by a permutation and retraining must permute the
    # predictions, with seeds held fixed
    x, y, queries = _three_blobs()
    permutation = {1: 7, 2: 3, 5: 1}
    y_perm = np.vectorize(permutation.get)(y)
    for spec in ALL_SPECS:
        base = train_arrays(spec, x, y).predict(queries)
        permuted = train_arrays(spec, x, y_perm).predict(queries)
        expected = np.vectorize(permutation.get)(base)
        assert np.array_equal(permuted, expected), type(spec).__name__


def test_predictions_come_from_class_set():
    x, y, _ = _three_blobs(seed=1)
    rng = np.random.default_rng(2)
    far = rng.normal(0, 60, size=(25, 2))
    for spec in ALL_SPECS:
        model = train_arrays(spec, x, y)
        assert set(model.predict(far)) <= {1, 2, 5}, type(spec).__name__


def test_single_class_data_is_rejected():
    x = np.random.default_rng(3).normal(size=(10, 2))
    y = np.full(10, 4)
    for spec in ALL_SPECS:
        with pytest.raises(ValueError, match="2 distinct"):
            train_arrays(spec, x, y)


def test_non_finite_features_are_rejected():
    x = np.random.default_rng(4).normal(size=(10, 2))
    x[3, 1] = np.nan
    y = np.array([1] * 5 + [2] * 5)
    for spec in ALL_SPECS:
        with pytest.raises(ValueError, match="non-finite"):
            train_arrays(spec, x, y)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_rows_are_rejected(bad):
    x, y, queries = _three_blobs(seed=9)
    queries = queries[:6].copy()
    queries[4, 0] = bad
    queries[5, 1] = np.nan
    for family in FAMILIES:
        model = train_arrays(family.spec(seed=3), x, y)
        for score in (model.predict, model.decision_scores, model.predict_with_scores):
            with pytest.raises(ValueError, match="query row 4 contains non-finite"):
                score(queries)
        with pytest.raises(ValueError, match="query row 0 contains non-finite"):
            model.predict(queries[4])  # a single row is row 0


def test_training_determinism_across_runs():
    x, y, queries = _three_blobs(seed=5)
    for spec in ALL_SPECS:
        a = train_arrays(spec, x, y).predict(queries)
        b = train_arrays(spec, x, y).predict(queries)
        assert np.array_equal(a, b), type(spec).__name__


def test_decision_scores_rank_the_predicted_label_first():
    x, y, queries = _three_blobs(seed=6)
    for spec in ALL_SPECS:
        model = train_arrays(spec, x, y)
        scores = model.decision_scores(queries)
        assert scores.shape == (len(queries), 3)
        predictions = model.predict(queries)
        # where the top score is unique it must be the predicted label
        for i in range(len(queries)):
            top = np.nonzero(scores[i] == scores[i].max())[0]
            if len(top) == 1:
                assert model.class_set[top[0]] == predictions[i], type(spec).__name__


def test_predict_with_scores_matches_predict_and_decision_scores():
    x, y, queries = _three_blobs(seed=7)
    for spec in ALL_SPECS:
        model = train_arrays(spec, x, y)
        labels, scores = model.predict_with_scores(queries)
        assert np.array_equal(labels, model.predict(queries)), type(spec).__name__
        assert np.array_equal(scores, model.decision_scores(queries)), type(spec).__name__


# model.json keys of each kind besides kind, spec and class_set: its state
# field names, except that the tree models store their nodes under "tree"
STATE_KEYS = {
    "fine_tree": {"tree", "n_features"},
    "bagged_trees": {"trees", "n_features"},
    "fine_knn": {"train_x", "train_y"},
    "cubic_svm": {"machines", "mean", "scale"},
    "linear_discriminant": {"means", "weights", "intercepts"},
    "mlp": {"weights", "n_in"},
}


def _assert_same_state(a, b, where):
    """Every array field of b equals a's in values, dtype and shape, and every
    scalar field in value and type; SVM machines are compared field by field."""
    for field in dataclasses.fields(a):
        old, new = getattr(a, field.name), getattr(b, field.name)
        name = f"{where}.{field.name}"
        if isinstance(old, np.ndarray):
            assert (new.dtype, new.shape) == (old.dtype, old.shape), name
            assert np.array_equal(new, old), name
        elif isinstance(old, (int, float)):
            assert type(new) is type(old) and new == old, name
        elif field.name == "machines":
            for i, (m_old, m_new) in enumerate(zip(old, new, strict=True)):
                _assert_same_state(m_old, m_new, f"{name}[{i}]")


def test_model_json_round_trip():
    x, y, queries = _three_blobs(seed=8)
    for spec in ALL_SPECS:
        model = train_arrays(spec, x, y)
        payload = json.loads(json.dumps(model.to_json_dict()))
        assert payload["spec"] == dataclasses.asdict(spec), type(spec).__name__
        assert set(payload) == {"kind", "spec", "class_set", *STATE_KEYS[model.kind]}
        loaded = model_from_json_dict(payload)
        assert type(loaded) is type(model)
        assert loaded.spec == model.spec
        _assert_same_state(model, loaded, model.kind)
        assert json.loads(json.dumps(loaded.to_json_dict())) == payload, model.kind
        assert np.array_equal(loaded.predict(queries), model.predict(queries))
        assert np.array_equal(loaded.decision_scores(queries),
                              model.decision_scores(queries)), type(spec).__name__


def test_model_json_names_a_missing_field():
    x, y, _ = _three_blobs(seed=8)
    for spec in ALL_SPECS:
        payload = train_arrays(spec, x, y).to_json_dict()
        for key in set(payload) - {"kind"}:
            broken = {k: v for k, v in payload.items() if k != key}
            with pytest.raises(ValueError, match=f"^{payload['kind']} model: missing field "
                                                 f"'{key}'$"):
                model_from_json_dict(broken)


def test_model_json_names_an_unknown_spec_key():
    x, y, _ = _three_blobs(seed=8)
    for spec in ALL_SPECS:
        payload = train_arrays(spec, x, y).to_json_dict()
        payload["spec"] = {**payload["spec"], "depth": 3}
        with pytest.raises(ValueError, match=f"^{payload['kind']} model: unknown spec key "
                                             "'depth'$"):
            model_from_json_dict(payload)


@pytest.mark.parametrize("key, value, problem", [
    ("n_features", "3", "n_features must be an integer >= 1, got '3'"),
    ("n_features", 0, "n_features must be an integer >= 1, got 0"),
    ("n_features", True, "n_features must be an integer >= 1, got True"),
    ("class_set", [2, 1], "class_set must be a strictly increasing list of at least "
                          "two integers, got [2, 1]"),
    ("class_set", [1, 1], "class_set must be a strictly increasing list"),
    ("class_set", [1], "class_set must be a strictly increasing list"),
    ("class_set", [1.0, 2.0], "class_set must be a strictly increasing list"),
    ("class_set", "12", "class_set must be a strictly increasing list"),
])
def test_model_json_checks_class_set_and_counts_before_the_family_loader(key, value,
                                                                         problem):
    # the fine tree loader would otherwise compare "3" with a feature index,
    # or fail at the first leaf whose counts follow the unsorted class set
    x, y, _ = _three_blobs(seed=8)
    payload = train_arrays(FineTreeSpec(seed=3), x, y).to_json_dict()
    payload[key] = value
    with pytest.raises(ValueError, match=re.escape(f"fine_tree model: {problem}")):
        model_from_json_dict(payload)


def test_model_json_checks_every_int_field():
    x, y, _ = _three_blobs(seed=8)
    for spec in ALL_SPECS:
        payload = train_arrays(spec, x, y).to_json_dict()
        for key in {"n_features", "n_in"} & set(payload):
            with pytest.raises(ValueError, match=f"^{payload['kind']} model: {key} must be "
                                                 "an integer >= 1, got 2.0$"):
                model_from_json_dict({**payload, key: 2.0})
        with pytest.raises(ValueError, match=f"^{payload['kind']} model: class_set must be"):
            model_from_json_dict({**payload, "class_set": [5, 2, 1]})


@pytest.mark.parametrize("field, build", [
    ("seed", lambda: MlpSpec(seed=-1)),
    ("seed", lambda: BaggedTreesSpec(seed=-1)),
    ("epochs", lambda: MlpSpec(epochs=1.5)),
    ("hidden_width", lambda: MlpSpec(hidden_width=2.5)),
    ("k", lambda: FineKnnSpec(k=1.5)),
    ("seed", lambda: MlpSpec(seed=1.5)),
    ("n_trees", lambda: BaggedTreesSpec(n_trees=True)),
    ("seed", lambda: FineTreeSpec(seed=2**64)),
    ("seed", lambda: CubicSvmSpec(seed=None)),
    ("seed", lambda: LinearDiscriminantSpec(seed=False)),
])
def test_spec_integers_are_checked_where_the_spec_is_built(field, build):
    with pytest.raises(HyperparameterError) as info:
        build()
    assert info.value.field == field
    assert str(info.value).startswith(f"{field} must be an integer")


def test_every_spec_accepts_the_u64_seed_range():
    for spec in ALL_SPECS:
        for seed in (0, 2**64 - 1):
            assert dataclasses.replace(spec, seed=seed).seed == seed

import numpy as np
import pytest

from skelhar import FineKnnSpec, train_arrays
from skelhar.classifiers import FineKnnModel, model_from_json_dict
from oracles import exhaustive_knn


def test_one_nn_memorizes_training_set():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 4))
    y = rng.integers(1, 10, size=50)
    y[:2] = [1, 2]  # ensure two classes
    model = train_arrays(FineKnnSpec(k=1), x, y)
    assert np.array_equal(model.predict(x), y)


def test_majority_vote():
    x = np.array([[0.0], [1.0], [10.0]])
    y = np.array([2, 2, 5])
    model = train_arrays(FineKnnSpec(k=3), x, y)
    assert model.predict(np.array([[0.5]]))[0] == 2


def test_equal_distance_vote_tie_prefers_smallest_label():
    # neighbors at distance 1 on both sides carry labels {2, 5}
    x = np.array([[-1.0], [1.0]])
    y = np.array([5, 2])
    model = train_arrays(FineKnnSpec(k=2), x, y)
    assert model.predict(np.array([[0.0]]))[0] == 2


def test_one_nn_scores_are_the_one_hot_of_predict_on_duplicated_rows():
    # every training row appears twice with different labels: the nearest
    # neighbour is the lower-index copy, for predict and decision_scores alike
    rng = np.random.default_rng(3)
    base = rng.normal(size=(20, 3))
    x = np.concatenate([base, base])
    y = np.concatenate([np.full(20, 7), rng.integers(1, 7, size=20)])
    model = train_arrays(FineKnnSpec(k=1), x, y)
    queries = np.concatenate([base, rng.normal(size=(30, 3))])
    predictions = model.predict(queries)
    assert np.array_equal(predictions[:20], np.full(20, 7))
    one_hot = (model.class_set[None, :] == predictions[:, None]).astype(np.float64)
    assert np.array_equal(model.decision_scores(queries), one_hot)


def test_matches_exhaustive_oracle_including_ties():
    rng = np.random.default_rng(1)
    for trial in range(12):
        n = int(rng.integers(10, 120))
        d = int(rng.integers(1, 6))
        if trial % 3 == 0:
            # integer grids force exact distance ties
            x = rng.integers(0, 4, size=(n, d)).astype(np.float64)
            queries = rng.integers(0, 4, size=(30, d)).astype(np.float64)
        else:
            x = rng.normal(size=(n, d))
            queries = np.concatenate([rng.normal(size=(20, d)), x[:5]])
        y = rng.integers(1, 10, size=n)
        y[:2] = [1, 2]
        k = int(rng.choice([1, 2, 3, 5]))
        k = min(k, n)
        model = train_arrays(FineKnnSpec(k=k), x, y)
        expected = exhaustive_knn(x, y, queries, k)
        assert np.array_equal(model.predict(queries), expected)


def test_dimension_mismatch():
    model = train_arrays(FineKnnSpec(), np.eye(3), np.array([1, 2, 3]))
    with pytest.raises(ValueError, match="dimension"):
        model.predict(np.zeros((1, 4)))


def test_k_larger_than_training_set():
    with pytest.raises(ValueError, match="exceeds"):
        train_arrays(FineKnnSpec(k=5), np.eye(3), np.array([1, 2, 3]))


def test_serialization_round_trip():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(20, 3))
    y = rng.integers(1, 4, size=20)
    y[:2] = [1, 2]
    model = train_arrays(FineKnnSpec(k=3), x, y)
    again = FineKnnModel.from_json_dict(model.to_json_dict())
    queries = rng.normal(size=(10, 3))
    assert np.array_equal(model.predict(queries), again.predict(queries))


def test_model_json_rejects_labels_that_do_not_match_rows():
    model = train_arrays(FineKnnSpec(), np.eye(2), np.array([1, 2]))
    payload = model.to_json_dict()
    payload["train_y"] = [1, 2, 1]
    with pytest.raises(ValueError, match="^fine_knn model: train_y has 3 labels for 2 "
                                         "train_x rows$"):
        model_from_json_dict(payload)

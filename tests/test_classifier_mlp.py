import numpy as np
import pytest

from skelhar import MlpSpec, mlp_loss_and_gradient, train_arrays
from skelhar.classifiers import MlpModel, initial_weights, train_mlp
from oracles import central_difference, per_step_train_weights


def _weight_count(n_in, hidden, n_out):
    return n_in * hidden + hidden + hidden * n_out + n_out


def test_zero_weights_give_uniform_softmax_loss():
    n_in, hidden, n_out = 4, 7, 9
    weights = np.zeros(_weight_count(n_in, hidden, n_out))
    loss, _ = mlp_loss_and_gradient(weights, np.zeros((9, n_in)), np.arange(9),
                                    hidden, n_out)
    assert abs(loss - np.log(9)) < 1e-12


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(0)
    n_in, hidden, n_out = 5, 8, 4
    weights = rng.normal(0, 0.5, size=_weight_count(n_in, hidden, n_out))
    x = rng.normal(size=(6, n_in))
    y = rng.integers(0, n_out, size=6)
    _, grad = mlp_loss_and_gradient(weights, x, y, hidden, n_out)

    def loss_at(w):
        return mlp_loss_and_gradient(w, x, y, hidden, n_out)[0]

    for index in rng.choice(len(weights), size=15, replace=False):
        fd = central_difference(loss_at, weights, int(index))
        denom = max(1e-6, abs(fd), abs(grad[index]))
        assert abs(fd - grad[index]) / denom <= 1e-4


def test_duplicated_batch_preserves_mean_loss_and_gradient():
    rng = np.random.default_rng(1)
    n_in, hidden, n_out = 3, 5, 4
    weights = rng.normal(0, 0.5, size=_weight_count(n_in, hidden, n_out))
    x = rng.normal(size=(8, n_in))
    y = rng.integers(0, n_out, size=8)
    loss_a, grad_a = mlp_loss_and_gradient(weights, x, y, hidden, n_out)
    loss_b, grad_b = mlp_loss_and_gradient(weights, np.concatenate([x, x]),
                                           np.concatenate([y, y]), hidden, n_out)
    assert abs(loss_a - loss_b) < 1e-12
    assert np.abs(grad_a - grad_b).max() < 1e-12


def test_bad_weight_vector_length():
    with pytest.raises(ValueError, match="length"):
        mlp_loss_and_gradient(np.zeros(10), np.zeros((2, 3)), np.zeros(2, dtype=int),
                              4, 9)


def test_initialization_is_within_glorot_bounds_and_seeded():
    spec = MlpSpec(hidden_width=6, seed=5)
    class_set = np.array([1, 2, 5])
    a = initial_weights(spec, 4, class_set)
    b = initial_weights(spec, 4, class_set)
    assert np.array_equal(a, b)
    lim = np.sqrt(6.0 / (4 + 6))
    assert np.abs(a[:4 * 6]).max() <= lim


def test_training_is_deterministic_and_learns_blobs():
    rng = np.random.default_rng(2)
    x = np.concatenate([rng.normal([-2, 0], 0.4, (40, 2)),
                        rng.normal([2, 0], 0.4, (40, 2))])
    y = np.array([1] * 40 + [4] * 40)
    spec = MlpSpec(hidden_width=16, epochs=60, learning_rate=0.05, seed=9)
    a = train_arrays(spec, x, y)
    b = train_arrays(spec, x, y)
    assert np.array_equal(a.weights, b.weights)
    assert np.mean(a.predict(x) == y) > 0.95


def test_diverging_training_is_a_runtime_error_naming_the_learning_rate():
    rng = np.random.default_rng(2)
    x = np.concatenate([rng.normal([-2, 0], 0.4, (40, 2)),
                        rng.normal([2, 0], 0.4, (40, 2))])
    y = np.array([1] * 40 + [4] * 40)
    spec = MlpSpec(hidden_width=16, epochs=5, learning_rate=1e300, seed=9)
    with pytest.raises(RuntimeError, match=r"non-finite weights at learning rate 1e\+300 "
                                           r"\(--lr\)"), np.errstate(all="ignore"):
        train_mlp(spec, x, y)


def test_serialization_round_trip():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 3))
    y = np.where(x[:, 0] > 0, 2, 8)
    model = train_arrays(MlpSpec(hidden_width=5, epochs=10, seed=1), x, y)
    again = MlpModel.from_json_dict(model.to_json_dict())
    queries = rng.normal(size=(10, 3))
    assert np.array_equal(model.predict(queries), again.predict(queries))


@pytest.mark.parametrize("n, n_in, labels, hidden, order", [
    (20, 6, (1, 2), 7, "C"),                    # n below one batch
    (64, 84, tuple(range(1, 10)), 175, "C"),    # n a multiple of the batch
    (77, 84, tuple(range(1, 10)), 40, "C"),     # a short last batch
    (33, 12, (2, 5, 9), 16, "C"),               # a last batch of one row
    (90, 4, (3, 8, 11, 40), 25, "C"),           # narrow, PCA-like, non-contiguous labels
    (50, 30, (1, 9), 175, "C"),                 # 2 classes at the default width
    # column-major features: gathering batches into a column-major buffer
    # would change the BLAS call, which can change the low bits of the weights
    (97, 30, tuple(range(1, 10)), 64, "F"),
])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_in_place_training_is_bitwise_the_per_step_oracle(n, n_in, labels, hidden, order,
                                                          seed):
    rng = np.random.default_rng([n, seed])
    x = rng.normal(size=(n, n_in)) * rng.uniform(0.1, 10.0, size=n_in)
    x = np.asarray(x, order=order)
    y = np.array(labels)[rng.integers(0, len(labels), size=n)]
    y[:len(labels)] = labels
    spec = MlpSpec(hidden_width=hidden, epochs=6, learning_rate=0.05, seed=seed)
    assert np.array_equal(train_mlp(spec, x, y).weights, per_step_train_weights(spec, x, y))

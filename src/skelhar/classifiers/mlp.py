"""Single-hidden-layer perceptron: ReLU, softmax output, cross-entropy loss.

Trained by mini-batch gradient descent (batch 32) on a flat weight vector
[W1 | b1 | W2 | b2]. The output column for each class is initialized from a
substream keyed by the class *label* rather than its column position, so
relabeling classes by a permutation permutes the trained network exactly.
"""

from __future__ import annotations

import numpy as np

from .base import MlpSpec, TrainedModel, validate_training_data

BATCH_SIZE = 32


def _unpack(weights: np.ndarray, n_in: int, hidden: int, n_out: int):
    sizes = (n_in * hidden, hidden, hidden * n_out, n_out)
    if weights.shape != (sum(sizes),):
        raise ValueError(
            f"weight vector has length {weights.shape}, expected ({sum(sizes)},)"
        )
    o1 = sizes[0]
    o2 = o1 + sizes[1]
    o3 = o2 + sizes[2]
    w1 = weights[:o1].reshape(n_in, hidden)
    b1 = weights[o1:o2]
    w2 = weights[o2:o3].reshape(hidden, n_out)
    b2 = weights[o3:]
    return w1, b1, w2, b2


def mlp_loss_and_gradient(weights: np.ndarray, batch_x: np.ndarray,
                          batch_y: np.ndarray, hidden: int, n_out: int
                          ) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient in the flat layout.

    batch_y holds output-unit indices in 0..n_out-1. With zero weights the
    softmax is uniform, so the loss is ln(n_out) regardless of the inputs.
    """
    batch_x = np.asarray(batch_x, dtype=np.float64)
    batch_y = np.asarray(batch_y, dtype=np.int64)
    n = batch_x.shape[0]
    w1, b1, w2, b2 = _unpack(np.asarray(weights, dtype=np.float64),
                             batch_x.shape[1], hidden, n_out)

    z1 = batch_x @ w1 + b1
    a1 = np.maximum(z1, 0.0)
    logits = a1 @ w2 + b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(log_norm - shifted[np.arange(n), batch_y]))

    probs = np.exp(shifted - log_norm[:, None])
    delta = probs
    delta[np.arange(n), batch_y] -= 1.0
    delta /= n

    grad_w2 = a1.T @ delta
    grad_b2 = delta.sum(axis=0)
    back = (delta @ w2.T) * (z1 > 0)
    grad_w1 = batch_x.T @ back
    grad_b1 = back.sum(axis=0)

    grad = np.concatenate([grad_w1.ravel(), grad_b1, grad_w2.ravel(), grad_b2])
    return loss, grad


def initial_weights(spec: MlpSpec, n_in: int, class_set: np.ndarray) -> np.ndarray:
    """Uniform +-sqrt(6/(fan_in+fan_out)) init, output columns keyed by label."""
    hidden = spec.hidden_width
    n_out = len(class_set)
    lim1 = np.sqrt(6.0 / (n_in + hidden))
    w1 = np.random.default_rng([spec.seed, 1]).uniform(-lim1, lim1, size=(n_in, hidden))
    lim2 = np.sqrt(6.0 / (hidden + n_out))
    w2 = np.empty((hidden, n_out))
    for j, label in enumerate(class_set):
        rng = np.random.default_rng([spec.seed, 2, int(label)])
        w2[:, j] = rng.uniform(-lim2, lim2, size=hidden)
    return np.concatenate([w1.ravel(), np.zeros(hidden), w2.ravel(), np.zeros(n_out)])


class MlpModel(TrainedModel):
    kind = "mlp"

    def __init__(self, spec: MlpSpec, weights: np.ndarray, n_in: int,
                 class_set: np.ndarray):
        super().__init__(spec, class_set)
        self.weights = weights
        self.n_in = n_in

    def _logits(self, rows: np.ndarray) -> np.ndarray:
        """(n_rows, n_classes) output-layer activations before the softmax."""
        rows = self._check_rows(rows, self.n_in)
        w1, b1, w2, b2 = _unpack(self.weights, self.n_in, self.spec.hidden_width,
                                 len(self.class_set))
        return np.maximum(rows @ w1 + b1, 0.0) @ w2 + b2

    def predict(self, rows: np.ndarray) -> np.ndarray:
        # argmax of the logits, not of the rounded softmax, picks the first
        # maximum: logit ties go to the smallest label
        return self.class_set[np.argmax(self._logits(rows), axis=1)]

    def decision_scores(self, rows: np.ndarray) -> np.ndarray:
        """Softmax class probabilities."""
        logits = self._logits(rows)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    def to_json_dict(self) -> dict:
        return {
            **super().to_json_dict(),
            "n_in": self.n_in,
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "MlpModel":
        return cls(
            MlpSpec(**d["spec"]),
            np.asarray(d["weights"], dtype=np.float64),
            int(d["n_in"]),
            np.asarray(d["class_set"], dtype=np.int64),
        )


def train_mlp(spec: MlpSpec, x: np.ndarray, y: np.ndarray) -> MlpModel:
    x, y = validate_training_data(x, y)
    class_set = np.unique(y)
    y_idx = np.searchsorted(class_set, y)
    n = x.shape[0]

    weights = initial_weights(spec, x.shape[1], class_set)
    shuffle_rng = np.random.default_rng([spec.seed, 0])
    for _ in range(spec.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, BATCH_SIZE):
            rows = order[start:start + BATCH_SIZE]
            _, grad = mlp_loss_and_gradient(
                weights, x[rows], y_idx[rows], spec.hidden_width, len(class_set)
            )
            weights = weights - spec.learning_rate * grad
    return MlpModel(spec, weights, x.shape[1], class_set)

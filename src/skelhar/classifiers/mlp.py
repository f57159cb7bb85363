"""Single-hidden-layer perceptron: ReLU, softmax output, cross-entropy loss.

Trained by mini-batch gradient descent (batch 32) on a flat weight vector
[W1 | b1 | W2 | b2]. The output column for each class is initialized from a
substream keyed by the class *label* rather than its column position, so
relabeling classes by a permutation permutes the trained network exactly.

A training step is bound by numpy call overhead, not by flops, so it
allocates nothing. The weight and gradient vectors are allocated once and
their W1|b1|W2|b2 blocks are views (`_unpack`); `_backprop` writes every
intermediate into buffers sized for one batch (sliced for the last, shorter
one) and every gradient block straight into its view, with `out=`. Each
epoch gathers its shuffled rows and a one-hot label block once, so a batch
is a fixed slice, and the update is `g *= lr; w -= g`.

The weights are bit-identical to a step that allocates each intermediate and
concatenates the gradient (the oracle in the tests): every value comes from
the same operation on operands of the same shape and memory layout, so
numpy's summation order and the BLAS call are unchanged. Subtracting the
one-hot block is p - 1.0 on the true column and p - 0.0 = p elsewhere, and
`lr * g` equals `g * lr`. `mlp_loss_and_gradient` runs the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _step_buffers(rows: int, hidden: int, n_out: int) -> tuple[np.ndarray, ...]:
    """Scratch arrays for a batch of up to `rows` rows; a shorter batch uses
    their first rows."""
    return (np.empty((rows, hidden)),              # pre-activation, then backprop
            np.empty((rows, hidden), dtype=bool),  # ReLU active
            np.empty((rows, hidden)),              # hidden activation
            np.empty((rows, n_out)),               # logits, then minus the row max
            np.empty((rows, 1)),                   # row max
            np.empty((rows, n_out)),               # exp, softmax, then output delta
            np.empty((rows, 1)))                   # log softmax normaliser


def _backprop(params: tuple[np.ndarray, ...], grads: tuple[np.ndarray, ...],
              batch_x: np.ndarray, target: np.ndarray,
              buffers: tuple[np.ndarray, ...]) -> None:
    """Write the batch-mean cross-entropy gradient into the (W1, b1, W2, b2)
    views `grads`, allocating nothing.

    target is the batch's one-hot label block; `buffers` come from
    _step_buffers, cut to the batch. On return the shifted logits and log
    normaliser are still in their buffers, so the loss can be read off.
    """
    w1, b1, w2, b2 = params
    grad_w1, grad_b1, grad_w2, grad_b2 = grads
    z1, active, a1, shifted, row_max, delta, log_norm = buffers

    np.matmul(batch_x, w1, out=z1)
    z1 += b1
    np.greater(z1, 0.0, out=active)
    np.maximum(z1, 0.0, out=a1)
    np.matmul(a1, w2, out=shifted)
    shifted += b2
    np.maximum.reduce(shifted, axis=1, keepdims=True, out=row_max)
    shifted -= row_max
    np.exp(shifted, out=delta)
    np.add.reduce(delta, axis=1, keepdims=True, out=log_norm)
    np.log(log_norm, out=log_norm)
    np.subtract(shifted, log_norm, out=delta)
    np.exp(delta, out=delta)
    # subtracting the one-hot block is p - 1.0 on the true column and p - 0.0
    # (= p) elsewhere, the same values as decrementing the true column alone
    delta -= target
    delta /= batch_x.shape[0]

    np.matmul(a1.T, delta, out=grad_w2)
    np.add.reduce(delta, axis=0, out=grad_b2)
    back = z1  # the pre-activation is spent once `active` holds its sign
    np.matmul(delta, w2.T, out=back)
    back *= active
    np.matmul(batch_x.T, back, out=grad_w1)
    np.add.reduce(back, axis=0, out=grad_b1)


def mlp_loss_and_gradient(weights: np.ndarray, batch_x: np.ndarray,
                          batch_y: np.ndarray, hidden: int, n_out: int
                          ) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient in the flat layout.

    batch_y holds output-unit indices in 0..n_out-1. With zero weights the
    softmax is uniform, so the loss is ln(n_out) regardless of the inputs.
    """
    batch_x = np.asarray(batch_x, dtype=np.float64)
    batch_y = np.asarray(batch_y, dtype=np.int64)
    n, n_in = batch_x.shape
    weights = np.asarray(weights, dtype=np.float64)
    params = _unpack(weights, n_in, hidden, n_out)
    grad = np.empty_like(weights)
    target = np.zeros((n, n_out))
    target[np.arange(n), batch_y] = 1.0
    buffers = _step_buffers(n, hidden, n_out)
    _backprop(params, _unpack(grad, n_in, hidden, n_out), batch_x, target, buffers)
    _, _, _, shifted, _, _, log_norm = buffers
    loss = float(np.mean(log_norm[:, 0] - shifted[np.arange(n), batch_y]))
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


@dataclass(eq=False)
class MlpModel(TrainedModel):
    kind = "mlp"

    spec: MlpSpec
    weights: np.ndarray
    n_in: int
    class_set: np.ndarray

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


def train_mlp(spec: MlpSpec, x: np.ndarray, y: np.ndarray) -> MlpModel:
    x, y, class_set = validate_training_data(x, y)
    n, n_in = x.shape
    hidden, n_out = spec.hidden_width, len(class_set)
    onehot = (np.searchsorted(class_set, y)[:, None] == np.arange(n_out)).astype(np.float64)

    weights = initial_weights(spec, n_in, class_set)
    grad = np.empty_like(weights)
    params = _unpack(weights, n_in, hidden, n_out)
    grads = _unpack(grad, n_in, hidden, n_out)
    # each epoch's shuffled rows and labels are gathered into these, so a
    # step's batch is a fixed view; only the last batch may be shorter
    shuffled_x, shuffled_target = np.empty((n, n_in)), np.empty((n, n_out))
    full = _step_buffers(min(n, BATCH_SIZE), hidden, n_out)
    steps = [(shuffled_x[start:start + BATCH_SIZE],
              shuffled_target[start:start + BATCH_SIZE],
              tuple(b[:min(BATCH_SIZE, n - start)] for b in full))
             for start in range(0, n, BATCH_SIZE)]
    shuffle_rng = np.random.default_rng([spec.seed, 0])
    for _ in range(spec.epochs):
        order = shuffle_rng.permutation(n)
        np.take(x, order, axis=0, out=shuffled_x)
        np.take(onehot, order, axis=0, out=shuffled_target)
        for batch_x, target, buffers in steps:
            _backprop(params, grads, batch_x, target, buffers)
            grad *= spec.learning_rate
            weights -= grad
    if not np.isfinite(weights).all():
        raise RuntimeError(f"MLP training diverged to non-finite weights at learning rate "
                           f"{spec.learning_rate!r} (--lr); a smaller one may converge")
    return MlpModel(spec, weights, n_in, class_set)

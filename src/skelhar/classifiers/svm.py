"""Cubic-kernel support vector machine trained by sequential minimal optimization.

Each binary subproblem minimizes the dual 1/2 a'Qa - e'a subject to
0 <= a_t <= C and y'a = 0, with Q_st = y_s y_t K(x_s, x_t), on the pair's
precomputed Gram matrix. Every SMO step picks its working pair by the
second-order rule of Fan, Chen & Lin (JMLR 2005), as LIBSVM does: i
maximizes -y_t G_t over the multipliers that may move up, and j minimizes
-b^2/a over those that may move down, where G is the gradient, b the gain
in -yG and a the curvature of the pair. The pair update is clipped the way
LIBSVM clips it, so every multiplier stays in [0, C] exactly. Ties go to
the first index, so training is deterministic. Training stops once the
largest -yG over the up set exceeds the smallest over the down set by less
than the tolerance; every KKT residual of `BinarySvm.kkt_residuals` is then
below the tolerance, up to rounding in G. The bias is -rho, with rho the
mean of y_t G_t over the free multipliers, or the midpoint of the two
extremes when none is free.

Multiclass uses one-vs-one voting over all label pairs. Features are
z-scored inside the model (fitted on the training set) to keep the
polynomial kernel numerically tame. A machine stores every row of its two
classes, but scores a query only against its support vectors (a > 0). A
row of class a is therefore stored by every machine that pairs a;
`CubicSvmModel.to_json_dict` gives equal rows one shared list, so the
bundle writer formats each of them once, and model.json is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .base import CubicSvmSpec, TrainedModel, _from_json, validate_training_data

_EPS = 1e-12
# curvature used for a pair whose kernel direction is flat (LIBSVM's TAU)
_TAU = 1e-12
# the second-order rule converges in finitely many steps; the cap only
# guards against genuine pathologies
_MAX_STEPS = 1_000_000


def cubic_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K(x, y) = (1 + x.y)^3, evaluated blockwise."""
    k = 1.0 + a @ b.T
    # two multiplies: ** 3 goes through libm pow for every element
    return k * k * k


def _smo(k: np.ndarray, y: np.ndarray, c: float, tol: float) -> tuple[np.ndarray, float]:
    """Solve the dual on a precomputed Gram matrix; returns (alphas, bias).

    The bias convention is f(x) = sum_i alpha_i y_i K(x_i, x) + b.
    """
    n = len(y)
    alpha = np.zeros(n)
    grad = -np.ones(n)  # G = Q alpha - e, updated after every step
    diag = np.diag(k).copy()
    pos = y > 0
    # I_up: multipliers that may grow along y; I_low: that may shrink
    up = pos.copy()
    low = ~pos

    for _ in range(_MAX_STEPS):
        minus_yg = -y * grad
        masked = np.where(up, minus_yg, -np.inf)
        i = int(np.argmax(masked))
        g_max = masked[i]
        g_min = np.min(minus_yg, where=low, initial=np.inf)
        if g_max - g_min < tol:
            break
        gain = g_max - minus_yg
        curve = diag[i] + diag - 2.0 * k[i]
        curve[curve <= 0] = _TAU
        j = int(np.argmin(np.where(low & (gain > 0), -(gain * gain) / curve, np.inf)))

        old_i, old_j = float(alpha[i]), float(alpha[j])
        quad = curve[j]
        # LIBSVM's clipping: each bound is restored from the pair's invariant
        # (diff or total), so both multipliers land in [0, C] exactly
        if y[i] != y[j]:
            delta = (-grad[i] - grad[j]) / quad
            diff = old_i - old_j
            a_i, a_j = old_i + delta, old_j + delta
            if diff > 0:
                if a_j < 0:
                    a_j, a_i = 0.0, diff
                if a_i > c:
                    a_i, a_j = c, c - diff
            else:
                if a_i < 0:
                    a_i, a_j = 0.0, -diff
                if a_j > c:
                    a_j, a_i = c, c + diff
        else:
            delta = (grad[i] - grad[j]) / quad
            total = old_i + old_j
            a_i, a_j = old_i - delta, old_j + delta
            if total > c:
                if a_i > c:
                    a_i, a_j = c, total - c
                if a_j > c:
                    a_j, a_i = c, total - c
            else:
                if a_j < 0:
                    a_j, a_i = 0.0, total
                if a_i < 0:
                    a_i, a_j = 0.0, total

        grad += y * (k[i] * (y[i] * (a_i - old_i)) + k[j] * (y[j] * (a_j - old_j)))
        alpha[i], alpha[j] = a_i, a_j
        for t in (i, j):
            up[t] = alpha[t] < c if pos[t] else alpha[t] > 0
            low[t] = alpha[t] > 0 if pos[t] else alpha[t] < c
    else:
        raise RuntimeError(f"SMO did not converge within {_MAX_STEPS} steps")

    free = (alpha > 0) & (alpha < c)
    if free.any():
        rho = float(np.mean(y[free] * grad[free]))
    else:
        rho = -(float(g_max) + float(g_min)) / 2.0
    return alpha, -rho


@dataclass
class BinarySvm:
    """One trained one-vs-one machine: +1 for pos_label, -1 for neg_label."""

    pos_label: int
    neg_label: int
    train_x: np.ndarray  # standardized rows of the two classes
    train_y: np.ndarray  # +1 / -1
    alphas: np.ndarray
    bias: float

    def decision(self, rows: np.ndarray) -> np.ndarray:
        sv = self.alphas > 0
        coef = self.alphas[sv] * self.train_y[sv]
        return coef @ cubic_kernel(self.train_x[sv], rows) + self.bias

    def kkt_residuals(self, c: float) -> np.ndarray:
        """Per-training-point violation of the dual optimality conditions."""
        margin = self.train_y * self.decision(self.train_x)
        res = np.empty_like(margin)
        at_zero = self.alphas <= _EPS
        at_c = self.alphas >= c - _EPS
        free = ~(at_zero | at_c)
        res[at_zero] = np.maximum(0.0, 1.0 - margin[at_zero])
        res[at_c] = np.maximum(0.0, margin[at_c] - 1.0)
        res[free] = np.abs(margin[free] - 1.0)
        return res


@dataclass(eq=False)
class CubicSvmModel(TrainedModel):
    kind = "cubic_svm"

    spec: CubicSvmSpec
    machines: list[BinarySvm]
    mean: np.ndarray
    scale: np.ndarray
    class_set: np.ndarray

    def _votes_and_scores(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows = self._check_rows(rows, len(self.mean))
        z = (rows - self.mean) / self.scale
        n_classes = len(self.class_set)
        votes = np.zeros((rows.shape[0], n_classes), dtype=np.int64)
        scores = np.zeros((rows.shape[0], n_classes))
        pos_of = {int(label): i for i, label in enumerate(self.class_set)}
        for m in self.machines:
            f = m.decision(z)
            a, b = pos_of[m.pos_label], pos_of[m.neg_label]
            votes[:, a] += f >= 0
            votes[:, b] += f < 0
            scores[:, a] += f
            scores[:, b] -= f
        return votes, scores

    def predict_with_scores(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Most votes wins; vote ties go to the larger summed decision value,
        then to the smallest label (argmax picks the first maximum)."""
        votes, scores = self._votes_and_scores(rows)
        top = votes == votes.max(axis=1, keepdims=True)
        labels = self.class_set[np.argmax(np.where(top, scores, -np.inf), axis=1)]
        return labels, scores

    def predict(self, rows: np.ndarray) -> np.ndarray:
        return self.predict_with_scores(rows)[0]

    def decision_scores(self, rows: np.ndarray) -> np.ndarray:
        """Summed pairwise decision values per class."""
        return self._votes_and_scores(rows)[1]

    def max_kkt_residual(self) -> float:
        return max(float(m.kkt_residuals(self.spec.c).max()) for m in self.machines)

    def to_json_dict(self) -> dict:
        """Equal rows share one list object (keyed by their exact bits, so
        -0.0 and NaN stay distinct): a pool row of class a appears in every
        machine that pairs a, and the JSON writer formats it once."""
        rows: dict[bytes, list] = {}
        d = super().to_json_dict()
        d["machines"] = [
            {
                "pos_label": m.pos_label,
                "neg_label": m.neg_label,
                "train_x": [rows.setdefault(r.tobytes(), r.tolist()) for r in m.train_x],
                "train_y": m.train_y.tolist(),
                "alphas": m.alphas.tolist(),
                "bias": m.bias,
            }
            for m in self.machines
        ]
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "CubicSvmModel":
        machines = [BinarySvm(**{f.name: _from_json(cls._json_field(m, f.name))
                                 for f in fields(BinarySvm)})
                    for m in cls._json_field(d, "machines")]
        return super().from_json_dict(d, machines=machines)


def train_cubic_svm(spec: CubicSvmSpec, x: np.ndarray, y: np.ndarray) -> CubicSvmModel:
    x, y, class_set = validate_training_data(x, y)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    scale = np.where(std > 0, std, 1.0)
    z = (x - mean) / scale

    machines = []
    for i, a in enumerate(class_set):
        for b in class_set[i + 1:]:
            mask = (y == a) | (y == b)
            xs = z[mask]
            ys = np.where(y[mask] == a, 1.0, -1.0)
            gram = cubic_kernel(xs, xs)
            alphas, bias = _smo(gram, ys, spec.c, spec.tolerance)
            machines.append(BinarySvm(int(a), int(b), xs, ys, alphas, bias))
    return CubicSvmModel(spec, machines, mean, scale, class_set)

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

The one-vs-one machines of a fit take their SMO steps in lockstep: one
round of numpy calls advances every live machine of a group by one step,
on state arrays with a row per machine, and a machine leaves its group
once it meets the tolerance. Each machine's arithmetic is exactly that of
a solver that runs it alone (tests/oracles.py holds one), so its alphas
and bias are the same bits; only the number of numpy calls falls, which
is what a step of a machine of a few hundred rows costs. Machines are
grouped in class-pair order, and a group's Grams stay within
`_GROUP_BYTES` (a single machine may exceed it): at 2 participants all 36
machines share one group, at 16 a group holds four. When the tolerance
is below what rounding in G lets the solver reach, a machine can come
back to a state it held before: a step moves neither multiplier of its
pair, or steps move them back and forth by one rounding step. Either way
it would repeat until the step cap. Every `_CYCLE_STEPS` steps, a machine
whose alphas and gradient have the bits they had at the last check
raises a RuntimeError that names its labels, the remaining gap and the
tolerance.

Multiclass uses one-vs-one voting over all label pairs. Features are
z-scored inside the model (fitted on the training set) to keep the
polynomial kernel numerically tame. A machine stores every row of its two
classes, but scores a query only against its support vectors (a > 0). A
row of class a is therefore stored by every machine that pairs a;
`CubicSvmModel.to_json_dict` gives equal rows one shared list, so the
bundle writer formats each of them once, and model.json is unchanged. A
loaded model must hold one valid machine per class pair, in class_set
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .base import CubicSvmSpec, TrainedModel, _from_json, validate_training_data

_EPS = 1e-12
# curvature used for a pair whose kernel direction is flat (LIBSVM's TAU)
_TAU = 1e-12
# the second-order rule converges in finitely many steps; the cap only
# guards against genuine pathologies
_MAX_STEPS = 1_000_000
# lockstep steps between cycle checks; a power of two, so that a machine
# cycling with period 2 (or any power of two up to this) is caught
_CYCLE_STEPS = 1024
# Gram bytes that one lockstep group may hold: every machine of a
# 2-participant fit (about 8 MB) shares one group, and at 16 participants
# (about 14 MB a pair) a group holds four machines; measured there, larger
# groups save little SMO time, and groups of one cost 2x
_GROUP_BYTES = 64 << 20
# additive set masks: _UP.take(member) is 0 for a member, -inf otherwise
_UP = np.array([-np.inf, 0.0])
_LOW = np.array([np.inf, 0.0])


def cubic_kernel(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """K(x, y) = (1 + x.y)^3, evaluated blockwise; written to `out` when given."""
    k = a @ b.T
    k += 1.0
    # two multiplies: ** 3 goes through libm pow for every element
    out = np.multiply(k, k, out=out)
    out *= k
    return out


def _clip_pair(old_i: float, old_j: float, a_i: float, a_j: float, same: bool,
               c: float) -> tuple[float, float]:
    """LIBSVM's clipping of an update that left the box: each bound is
    restored from the pair's invariant (diff or total), so both multipliers
    land in [0, C] exactly."""
    if not same:
        diff = old_i - old_j
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
        total = old_i + old_j
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
    return a_i, a_j


def _lockstep_smo(pairs: list[tuple[int, int]], xs: list[np.ndarray], ys: list[np.ndarray],
                  c: float, tol: float) -> list[tuple[np.ndarray, float]]:
    """Solve the dual of every machine of a group; returns (alphas, bias)
    per machine, with f(x) = sum_i alpha_i y_i K(x_i, x) + b.

    Row r of each state array belongs to one live machine, padded to the
    longest pair; padding is never in the up or down set. Live machines
    fill the first rows: when a machine converges, the last live row moves
    into its row.
    """
    sizes = np.array([len(labels) for labels in ys])
    count, width = len(ys), int(sizes.max())
    ends = np.cumsum(sizes * sizes)
    starts = ends - sizes * sizes
    # every Gram row-major in one buffer; rows_at[p] is flat[p:p + width], so
    # row t of machine r is rows_at[starts[r] + t * sizes[r]], and what it
    # reads past the row (the next Gram or the trailing zeros) fills padding
    flat = np.zeros(ends[-1] + width)
    rows_at = np.lib.stride_tricks.sliding_window_view(flat, width)
    diag = np.zeros((count, width))
    y = np.zeros((count, width))
    for r, (x, labels) in enumerate(zip(xs, ys)):
        n = len(labels)
        gram = cubic_kernel(x, x, out=flat[starts[r]:ends[r]].reshape(n, n))
        diag[r, :n] = gram.diagonal()
        y[r, :n] = labels
    minus_y = -y
    pos = y > 0
    alpha = np.zeros((count, width))
    grad = -np.ones((count, width))  # G = Q alpha - e, updated after every step
    # I_up (multipliers that may grow along y) and I_low (that may shrink)
    # as additive masks: 0 inside, -inf and +inf outside
    up = _UP.take(pos)
    low = _LOW.take(y < 0)
    machine = np.arange(count)
    row_base = np.arange(count) * width
    state = (diag, y, minus_y, pos, alpha, grad, up, low, machine, starts, sizes)
    results: list = [None] * count
    live, steps, viewed = count, 0, 0
    checked = None  # bits of the live alpha and grad rows at the last cycle check
    while live:
        if steps == _MAX_STEPS:
            a, b = pairs[machine[:live].min()]
            raise RuntimeError(f"SMO did not converge within {_MAX_STEPS} steps "
                               f"on the machine for labels {a} vs {b}")
        if viewed != live:
            base, d, y_l, my_l, g_l, up_l, low_l, st, sz = (
                s[:live] for s in (row_base, diag, y, minus_y, grad, up, low, starts, sizes))
            viewed = live
        minus_yg = my_l * g_l
        top = minus_yg + up_l
        i = top.argmax(axis=1)
        fi = base + i
        g_max = top.take(fi)
        bottom = minus_yg + low_l
        gap = g_max - np.minimum.reduce(bottom, axis=1)
        if np.minimum.reduce(gap) < tol:
            for r in np.flatnonzero(gap < tol)[::-1]:
                results[machine[r]] = _finish(alpha[r], grad[r], y[r], up[r], low[r],
                                              sizes[r], c)
                live -= 1
                for s in state:
                    s[r] = s[live]
            continue
        steps += 1
        if steps % _CYCLE_STEPS == 0:
            # rows move only when live falls, so at an equal shape each row
            # is the machine it was at the last check; if its state has the
            # same bits, it repeats that stretch forever
            state_bits = np.hstack((alpha[:live], grad[:live])).view(np.int64)
            if checked is not None and checked.shape == state_bits.shape:
                same = (state_bits == checked).all(axis=1)
                if same.any():
                    r = int(np.argmax(same))
                    a, b = pairs[machine[r]]
                    raise RuntimeError(
                        f"SMO repeats itself on the machine for labels {a} vs {b}: its "
                        f"multipliers and gradient have the values they had {_CYCLE_STEPS} "
                        f"steps before, with the gap g_max - g_min = {gap[r]:.6g} still "
                        f"above the tolerance {tol:g}; retry with a larger --svm-tol")
            checked = state_bits

        k_i = rows_at[st + i * sz]
        curve = d.take(fi)[:, None] + d - 2.0 * k_i
        np.putmask(curve, curve <= 0, _TAU)
        # j maximises b^2/a over I_low, first of equal values; outside I_low
        # the gain b is -inf
        gain = g_max[:, None] - bottom
        score = gain * gain / curve
        np.putmask(score, gain <= 0, -np.inf)
        j = score.argmax(axis=1)
        fj = base + j
        k_j = rows_at[st + j * sz]

        f = np.concatenate((fi, fj))
        old, g, y_ij = alpha.take(f), grad.take(f), y.take(f)
        # -1 for a pair of unequal labels: a_i and a_j then move together
        sign = y_ij[:live] * y_ij[live:]
        delta = (sign * g[:live] - g[live:]) / curve.take(fj)
        new = np.concatenate((old[:live] - sign * delta, old[live:] + delta))
        if np.minimum.reduce(new) < 0 or np.maximum.reduce(new) > c:
            for r in np.flatnonzero(((new < 0) | (new > c)).reshape(2, live).any(axis=0)):
                new[r], new[live + r] = _clip_pair(old[r], old[live + r], new[r],
                                                   new[live + r], sign[r] > 0, c)
        y_step = y_ij * (new - old)
        g_l += y_l * (k_i * y_step[:live, None] + k_j * y_step[live:, None])
        alpha.put(f, new)
        below_c, above_0 = new < c, new > 0
        moved_pos = pos.take(f)
        up.put(f, _UP.take(np.where(moved_pos, below_c, above_0)))
        low.put(f, _LOW.take(np.where(moved_pos, above_0, below_c)))
    return results


def _finish(alpha: np.ndarray, grad: np.ndarray, y: np.ndarray, up: np.ndarray,
            low: np.ndarray, n: int, c: float) -> tuple[np.ndarray, float]:
    """(alphas, bias) of a converged machine from its padded state row. The
    bias is -rho: the mean of y_t G_t over free multipliers, or else the
    midpoint of the extremes of -y_t G_t over I_up and I_low."""
    alpha, grad, y = alpha[:n].copy(), grad[:n], y[:n]
    free = (alpha > 0) & (alpha < c)
    if free.any():
        return alpha, -float(np.mean(y[free] * grad[free]))
    # taken as a per-machine solver takes them, so that even the sign of a
    # zero extreme is kept
    minus_yg = -y * grad
    masked = np.where(up[:n] == 0, minus_yg, -np.inf)
    g_max = masked[np.argmax(masked)]
    g_min = np.min(minus_yg, where=low[:n] == 0, initial=np.inf)
    return alpha, (float(g_max) + float(g_min)) / 2.0


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

        def shared(r: np.ndarray) -> list:
            key = r.tobytes()
            row = rows.get(key)
            if row is None:
                row = rows[key] = r.tolist()
            return row

        d = super().to_json_dict()
        d["machines"] = [
            {
                "pos_label": m.pos_label,
                "neg_label": m.neg_label,
                "train_x": [shared(r) for r in m.train_x],
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
        model = super().from_json_dict(d, machines=machines)
        model._check_machines()
        return model

    def _check_machines(self) -> None:
        """One machine per class pair, in class_set order, each with rows as
        wide as `mean`, one +1/-1 label and one multiplier in [0, C] per
        row, and a finite bias; else a ValueError naming the machine."""
        labels = [int(a) for a in self.class_set]
        pairs = [(a, b) for n, a in enumerate(labels) for b in labels[n + 1:]]
        if len(self.machines) > len(pairs):
            raise ValueError(f"{self.kind} model: machine {len(pairs)} is beyond the "
                             f"{len(pairs)} class pairs")
        for k, (a, b) in enumerate(pairs):
            if k == len(self.machines):
                raise ValueError(f"{self.kind} model: machine {k} (labels {a} vs {b}) "
                                 f"is missing")
            m = self.machines[k]
            problem = None
            if (m.pos_label, m.neg_label) != (a, b):
                problem = f"pairs labels {m.pos_label!r} vs {m.neg_label!r}, expected {a} vs {b}"
            elif np.ndim(m.train_x) != 2 or np.shape(m.train_x)[1] != len(self.mean):
                problem = (f"has train_x of shape {np.shape(m.train_x)}, expected rows of "
                           f"{len(self.mean)} features")
            elif not np.shape(m.train_y) == np.shape(m.alphas) == (len(m.train_x),):
                problem = (f"has {len(m.train_x)} train_x rows, train_y of shape "
                           f"{np.shape(m.train_y)} and alphas of shape {np.shape(m.alphas)}")
            elif not np.isin(m.train_y, (-1.0, 1.0)).all():
                problem = "has a train_y label other than +1 and -1"
            elif not ((m.alphas >= 0) & (m.alphas <= self.spec.c)).all():
                problem = f"has an alpha outside [0, C = {self.spec.c}]"
            elif (not isinstance(m.bias, (int, float)) or isinstance(m.bias, bool)
                  or not math.isfinite(m.bias)):
                problem = f"has bias {m.bias!r}, expected a finite number"
            if problem:
                raise ValueError(f"{self.kind} model: machine {k} {problem}")


def train_cubic_svm(spec: CubicSvmSpec, x: np.ndarray, y: np.ndarray) -> CubicSvmModel:
    x, y, class_set = validate_training_data(x, y)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    scale = np.where(std > 0, std, 1.0)
    z = (x - mean) / scale

    # machines in class-pair order, grouped so that a group's Grams stay
    # within _GROUP_BYTES (a lone machine may exceed it)
    counts = dict(zip(*np.unique(y, return_counts=True)))
    groups: list[list[tuple[int, int]]] = []
    held = _GROUP_BYTES
    for i, a in enumerate(class_set):
        for b in class_set[i + 1:]:
            gram_bytes = 8 * (counts[a] + counts[b]) ** 2
            if held + gram_bytes > _GROUP_BYTES:
                groups.append([])
                held = 0
            groups[-1].append((int(a), int(b)))
            held += gram_bytes

    machines = []
    for group in groups:
        masks = [(y == a) | (y == b) for a, b in group]
        xs = [z[mask] for mask in masks]
        ys = [np.where(y[mask] == a, 1.0, -1.0) for mask, (a, _) in zip(masks, group)]
        solved = _lockstep_smo(group, xs, ys, spec.c, spec.tolerance)
        machines += [BinarySvm(a, b, xs_, ys_, alphas, bias)
                     for (a, b), xs_, ys_, (alphas, bias) in zip(group, xs, ys, solved)]
    return CubicSvmModel(spec, machines, mean, scale, class_set)

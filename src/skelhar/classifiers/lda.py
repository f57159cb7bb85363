"""Linear discriminant analysis with a pooled within-class covariance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import LinearDiscriminantSpec, TrainedModel, validate_training_data


class SingularCovarianceError(ValueError):
    pass


@dataclass(eq=False)
class LinearDiscriminantModel(TrainedModel):
    """Gaussian classes with shared covariance; argmax of the linear scores.

    score_c(x) = x . w_c - 0.5 mu_c . w_c + log prior_c,  w_c = Sigma^-1 mu_c
    """

    kind = "linear_discriminant"

    spec: LinearDiscriminantSpec
    means: np.ndarray
    weights: np.ndarray  # (n_classes, d): Sigma^-1 mu_c per row
    intercepts: np.ndarray
    class_set: np.ndarray

    def predict(self, rows: np.ndarray) -> np.ndarray:
        # argmax picks the first maximum: score ties go to the smallest label
        return self.class_set[np.argmax(self.decision_scores(rows), axis=1)]

    def decision_scores(self, rows: np.ndarray) -> np.ndarray:
        """Linear discriminant score per class."""
        rows = self._check_rows(rows, self.means.shape[1])
        return rows @ self.weights.T + self.intercepts


def train_lda(spec: LinearDiscriminantSpec, x: np.ndarray, y: np.ndarray
              ) -> LinearDiscriminantModel:
    x, y, class_set = validate_training_data(x, y)
    n, d = x.shape

    means = np.stack([x[y == c].mean(axis=0) for c in class_set])
    priors = np.array([np.mean(y == c) for c in class_set])

    pooled = np.zeros((d, d))
    for c, mu in zip(class_set, means):
        centered = x[y == c] - mu
        pooled += centered.T @ centered
    pooled /= max(n - len(class_set), 1)

    def _try_solve(sigma: np.ndarray) -> np.ndarray | None:
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            return None
        # solve Sigma w_c = mu_c via the factorization
        z = np.linalg.solve(chol, means.T)
        return np.linalg.solve(chol.T, z).T

    weights = _try_solve(pooled)
    if weights is None:
        # regularize a non-invertible pooled covariance and retry
        ridge = 1e-6 * np.trace(pooled) / d
        if ridge <= 0:
            raise SingularCovarianceError(
                "pooled covariance is singular with zero trace: "
                "add regularization or more data"
            )
        weights = _try_solve(pooled + ridge * np.eye(d))
        if weights is None:
            raise SingularCovarianceError(
                "pooled covariance is singular even after regularization: "
                "add regularization or more data"
            )

    intercepts = -0.5 * np.einsum("cd,cd->c", means, weights) + np.log(priors)
    return LinearDiscriminantModel(spec, means, weights, intercepts, class_set)

"""Principal component analysis with explained-variance component selection.

The feature dimension here is small (at most 84), so the model is fit by
eigendecomposition of the sample covariance matrix rather than an SVD of the
data. Data is centered but not variance-standardized: posture features are
already dimensionless and commensurate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PcaModel:
    """A fitted basis, ordered by decreasing eigenvalue.

    components has one basis vector per row (all of them, not only the
    retained ones); retained_k is the smallest k whose cumulative
    eigenvalue fraction reaches variance_threshold.
    """

    mean: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray
    retained_k: int
    variance_threshold: float

    def to_json_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "components": self.components.tolist(),
            "eigenvalues": self.eigenvalues.tolist(),
            "retained_k": self.retained_k,
            "variance_threshold": self.variance_threshold,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PcaModel":
        """The model that `to_json_dict` wrote as d. A missing field, a mean
        that is not a non-empty list of finite numbers, components and
        eigenvalues not of shapes (n, n) and (n,) for a mean of n, a
        retained_k that is not an integer in 1..n, or a variance_threshold
        outside (0, 1] raises a ValueError naming the field."""
        mean = _json_array(d, "mean")
        n = len(mean) if mean.ndim == 1 else 0
        if not n:
            raise ValueError(f"pca model: mean must be a non-empty list, got shape {mean.shape}")
        arrays = {name: _json_array(d, name) for name in ("components", "eigenvalues")}
        for (name, array), shape in zip(arrays.items(), ((n, n), (n,))):
            if array.shape != shape:
                raise ValueError(f"pca model: {name} must have shape {shape} for a mean of "
                                 f"{n}, got {array.shape}")
        k, threshold = _json_field(d, "retained_k"), _json_field(d, "variance_threshold")
        if type(k) is not int or not 1 <= k <= n:  # JSON gives exact types: a bool is no int
            raise ValueError(f"pca model: retained_k must be an integer in 1..{n}, got {k!r}")
        if type(threshold) not in (int, float) or not 0 < threshold <= 1:
            raise ValueError(f"pca model: variance_threshold must be a number in (0, 1], "
                             f"got {threshold!r}")
        return cls(mean, arrays["components"], arrays["eigenvalues"], k, float(threshold))


def _json_field(d: dict, name: str):
    """d[name], or a ValueError naming the field."""
    try:
        return d[name]
    except KeyError:
        raise ValueError(f"pca model: missing field {name!r}") from None


def _json_array(d: dict, name: str) -> np.ndarray:
    """d[name] as a float64 array, or a ValueError naming the field unless
    it is a number or a (nested) list of them, all finite."""
    value = _json_field(d, name)
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged list
        array = np.asarray(None)
    if array.dtype.kind not in "iuf" or not np.isfinite(array).all():
        raise ValueError(f"pca model: {name} must hold finite numbers only")
    return array.astype(np.float64)


def pca_fit(rows: np.ndarray, variance_threshold: float = 0.95) -> PcaModel:
    """Fit a PCA model on feature rows.

    Covariance uses the unbiased (n-1) normalizer. Component signs are fixed
    by making the largest-magnitude entry of each component positive, so the
    fit is fully deterministic. Raises on degenerate input with no variance.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError(f"expected a 2D row matrix, got shape {rows.shape}")
    n, d = rows.shape
    if n < 2:
        raise ValueError("PCA requires at least 2 rows")
    if d < 1:
        raise ValueError("PCA requires at least 1 column")
    if not 0.0 < variance_threshold <= 1.0:
        raise ValueError(f"variance_threshold must be in (0, 1], got {variance_threshold}")

    mean = rows.mean(axis=0)
    centered = rows - mean
    cov = centered.T @ centered / (n - 1)
    total = float(np.trace(cov))
    if total <= 0.0 or not np.isfinite(total):
        raise ValueError("degenerate input: no variance to explain")

    eigenvalues, vectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.maximum(eigenvalues[order], 0.0)
    components = vectors[:, order].T

    for i in range(components.shape[0]):
        pivot = int(np.argmax(np.abs(components[i])))
        if components[i, pivot] < 0:
            components[i] = -components[i]

    cumulative = np.cumsum(eigenvalues) / eigenvalues.sum()
    retained_k = int(np.searchsorted(cumulative, variance_threshold) + 1)
    retained_k = min(retained_k, d)

    mean.setflags(write=False)
    components.setflags(write=False)
    eigenvalues.setflags(write=False)
    return PcaModel(mean, components, eigenvalues, retained_k, variance_threshold)


def pca_transform(model: PcaModel, rows: np.ndarray) -> np.ndarray:
    """Project rows onto the retained components: C_k (x - mean)."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.shape[1] != model.mean.shape[0]:
        raise ValueError(
            f"row dimension {rows.shape[1]} does not match model dimension "
            f"{model.mean.shape[0]}"
        )
    return (rows - model.mean) @ model.components[:model.retained_k].T

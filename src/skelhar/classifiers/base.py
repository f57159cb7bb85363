"""Classifier specs and the shared training/prediction contract.

All six families train deterministically from (spec, seed, data), emit only
labels seen in training, and resolve every tie toward the smallest class
label. Randomness, where a family has any, flows from spec.seed through
numpy substreams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class FineTreeSpec:
    max_splits: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.max_splits < 1:
            raise ValueError("max_splits must be >= 1")


@dataclass(frozen=True)
class BaggedTreesSpec:
    n_trees: int = 30
    max_splits: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_splits < 1:
            raise ValueError("max_splits must be >= 1")


@dataclass(frozen=True)
class FineKnnSpec:
    k: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class CubicSvmSpec:
    c: float = 1.0
    tolerance: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("C must be > 0")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")


@dataclass(frozen=True)
class LinearDiscriminantSpec:
    seed: int = 0


@dataclass(frozen=True)
class MlpSpec:
    hidden_width: int = 175
    epochs: int = 200
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.hidden_width < 1:
            raise ValueError("hidden_width must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")


ClassifierSpec = Union[
    FineTreeSpec,
    BaggedTreesSpec,
    FineKnnSpec,
    CubicSvmSpec,
    LinearDiscriminantSpec,
    MlpSpec,
]


def validate_training_data(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2:
        raise ValueError(f"training features must be 2D, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise ValueError("labels must align with feature rows")
    if not np.isfinite(x).all():
        raise ValueError("training features contain non-finite values")
    if len(np.unique(y)) < 2:
        raise ValueError("training data must contain at least 2 distinct labels")
    return x, y


class TrainedModel:
    """Base for fitted classifiers: carries the spec and the label set."""

    kind: str = ""

    def __init__(self, spec: ClassifierSpec, class_set: np.ndarray):
        self.spec = spec
        self.class_set = np.asarray(class_set, dtype=np.int64)

    def _check_rows(self, rows: np.ndarray, n_features: int) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.shape[1] != n_features:
            raise ValueError(
                f"row dimension {rows.shape[1]} does not match training dimension "
                f"{n_features}"
            )
        return rows

    def predict(self, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def decision_scores(self, rows: np.ndarray) -> np.ndarray:
        """(n_rows, n_classes) score matrix, columns ordered like class_set.

        Higher means more support for the class; scales are family-specific
        (vote shares, discriminants, margins, probabilities). Sufficient to
        derive ranking curves externally.
        """
        raise NotImplementedError

    def predict_with_scores(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(predict(rows), decision_scores(rows)); families that derive both
        from one pass over the rows override it."""
        return self.predict(rows), self.decision_scores(rows)

    def to_json_dict(self) -> dict:
        raise NotImplementedError

"""Classifier specs and the shared training/prediction contract.

All six families train deterministically from (spec, seed, data), emit only
labels seen in training, and resolve every tie toward the smallest class
label. Randomness, where a family has any, flows from spec.seed through
numpy substreams.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from . import ClassifierSpec


class HyperparameterError(ValueError):
    """A parameter outside its domain; `field` names the dataclass field, or
    `split` for split shares that do not sum to 1."""

    def __init__(self, field: str, rule: str, value):
        super().__init__(f"{field} must be {rule}, got {value!r}")
        self.field = field


def check_integers(obj, *counts: str, minimum: int = 1) -> None:
    """The named count fields must be ints >= minimum, and obj.seed an int in
    [0, 2**64); a bool is not an int here."""
    rules = [(name, minimum, math.inf, f"an integer >= {minimum}") for name in counts]
    for name, low, end, rule in [*rules, ("seed", 0, 2**64, "an integer in [0, 2**64)")]:
        value = getattr(obj, name)
        if not isinstance(value, int) or isinstance(value, bool) or not low <= value < end:
            raise HyperparameterError(name, rule, value)


def _check_positive(spec, *fields: str) -> None:
    # NaN fails every comparison, so a `value <= 0` test would let it through
    for name in fields:
        value = getattr(spec, name)
        if not (math.isfinite(value) and value > 0):
            raise HyperparameterError(name, "a finite number > 0", value)


@dataclass(frozen=True)
class FineTreeSpec:
    max_splits: int = 100
    seed: int = 0

    def __post_init__(self):
        check_integers(self, "max_splits")


@dataclass(frozen=True)
class BaggedTreesSpec:
    n_trees: int = 30
    max_splits: int = 100
    seed: int = 0

    def __post_init__(self):
        check_integers(self, "n_trees", "max_splits")


@dataclass(frozen=True)
class FineKnnSpec:
    k: int = 1
    seed: int = 0

    def __post_init__(self):
        check_integers(self, "k")


@dataclass(frozen=True)
class CubicSvmSpec:
    c: float = 1.0
    tolerance: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        _check_positive(self, "c", "tolerance")
        check_integers(self)


@dataclass(frozen=True)
class LinearDiscriminantSpec:
    seed: int = 0

    def __post_init__(self):
        check_integers(self)


@dataclass(frozen=True)
class MlpSpec:
    hidden_width: int = 175
    epochs: int = 200
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        check_integers(self, "hidden_width", "epochs")
        _check_positive(self, "learning_rate")


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
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            raise ValueError(f"query row {int(np.argmin(finite))} contains non-finite values")
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
        """kind, spec and class set; each family adds its fitted state."""
        return {"kind": self.kind, "spec": asdict(self.spec),
                "class_set": self.class_set.tolist()}

"""Classifier specs and the shared training/prediction contract.

All six families train deterministically from (spec, seed, data), emit only
labels seen in training, and resolve every tie toward the smallest class
label. Randomness, where a family has any, flows from spec.seed through
numpy substreams.
"""

from __future__ import annotations

import math
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np


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


def validate_training_data(x: np.ndarray, y: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, class_set): float64 rows, int64 labels and the sorted distinct
    labels, of which there must be at least two."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2:
        raise ValueError(f"training features must be 2D, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise ValueError("labels must align with feature rows")
    if not np.isfinite(x).all():
        raise ValueError("training features contain non-finite values")
    class_set = np.unique(y)
    if len(class_set) < 2:
        raise ValueError("training data must contain at least 2 distinct labels")
    return x, y, class_set


def _from_json(value):
    """A JSON list as an array (int64 from ints, float64 from floats); any
    other value as it is."""
    return np.asarray(value) if isinstance(value, list) else value


class TrainedModel:
    """Base for fitted classifiers.

    Each family is a dataclass whose fields are `spec`, then its fitted
    state, then `class_set` (cast to int64). `to_json_dict` writes `kind`,
    the spec as a dict, and every other field under its own name: an array
    as a nested list, any other value as it is. `from_json_dict` reverses
    that, so model.json keys are the field names. A family whose state
    nests maps that one field itself: the trees of the tree families and
    the machines of the SVM.
    """

    kind: str = ""

    def __post_init__(self):
        self.class_set = np.asarray(self.class_set, dtype=np.int64)

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
        d = {"kind": self.kind, "spec": asdict(self.spec)}
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            d[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return d

    @classmethod
    def from_json_dict(cls, d: dict, **decoded):
        """The model that `to_json_dict` wrote as d; a field passed by
        keyword is used as it is. A missing field, an unknown spec key, a
        class_set that is not a strictly increasing list of at least two
        ints, or an `int` field that is not an int >= 1 raises a ValueError
        naming the model kind and the key, before any family's own checks."""
        hints = typing.get_type_hints(cls)
        spec = cls._json_field(d, "spec")
        unknown = sorted(set(spec) - {f.name for f in fields(hints["spec"])})
        if unknown:
            raise ValueError(f"{cls.kind} model: unknown spec key {unknown[0]!r}")
        raw = {f.name: cls._json_field(d, f.name)
               for f in fields(cls)[1:] if f.name not in decoded}
        labels = raw["class_set"]
        # JSON gives exact types: a bool is no int
        if not (isinstance(labels, list) and len(labels) >= 2
                and all(type(v) is int for v in labels)
                and all(a < b for a, b in zip(labels, labels[1:]))):
            raise ValueError(f"{cls.kind} model: class_set must be a strictly increasing "
                             f"list of at least two integers, got {labels!r}")
        for name, value in raw.items():
            if hints[name] is int and not (type(value) is int and value >= 1):
                raise ValueError(f"{cls.kind} model: {name} must be an integer >= 1, "
                                 f"got {value!r}")
        state = {name: _from_json(value) for name, value in raw.items()}
        return cls(hints["spec"](**spec), **decoded, **state)

    @classmethod
    def _json_field(cls, d: dict, name: str):
        """d[name], or a ValueError naming the model kind and the field."""
        try:
            return d[name]
        except KeyError:
            raise ValueError(f"{cls.kind} model: missing field {name!r}") from None

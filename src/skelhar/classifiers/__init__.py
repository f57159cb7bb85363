"""Six classical classifiers behind one train/predict contract."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

import numpy as np

from .base import (
    BaggedTreesSpec,
    CubicSvmSpec,
    FineKnnSpec,
    FineTreeSpec,
    HyperparameterError,
    LinearDiscriminantSpec,
    MlpSpec,
    TrainedModel,
)
from .knn import FineKnnModel, train_knn
from .lda import LinearDiscriminantModel, SingularCovarianceError, train_lda
from .mlp import MlpModel, initial_weights, mlp_loss_and_gradient, train_mlp
from .svm import BinarySvm, CubicSvmModel, cubic_kernel, train_cubic_svm
from .tree import BaggedTreesModel, FineTreeModel, train_bagged_trees, train_fine_tree

if TYPE_CHECKING:  # dataset.py imports .base, and features.py imports dataset.py
    from ..features import FeatureMatrix

__all__ = [
    "BaggedTreesModel",
    "BaggedTreesSpec",
    "BinarySvm",
    "ClassifierSpec",
    "CubicSvmModel",
    "CubicSvmSpec",
    "DEFAULT_FAMILY",
    "FAMILIES",
    "FLAG_HELP",
    "Family",
    "FineKnnModel",
    "FineKnnSpec",
    "FineTreeModel",
    "FineTreeSpec",
    "HyperparameterError",
    "LinearDiscriminantModel",
    "LinearDiscriminantSpec",
    "MlpModel",
    "MlpSpec",
    "SingularCovarianceError",
    "TrainedModel",
    "cubic_kernel",
    "family_of",
    "initial_weights",
    "mlp_loss_and_gradient",
    "model_from_json_dict",
    "train",
    "train_arrays",
    "train_bagged_trees",
    "train_cubic_svm",
    "train_fine_tree",
    "train_knn",
    "train_lda",
    "train_mlp",
]


@dataclass(frozen=True)
class Family:
    """One classifier family: its CLI name, spec dataclass, model class,
    trainer, and the CLI flags that set spec fields (flag -> field)."""

    name: str
    spec: type
    model: type[TrainedModel]
    trainer: Callable[..., TrainedModel]
    flags: dict[str, str]


# The families in CLI order. The CLI flags and choices, the config-file
# round trip, trainer dispatch and model kinds all derive from this table.
FAMILIES = (
    Family("tree", FineTreeSpec, FineTreeModel, train_fine_tree,
           {"tree-max-splits": "max_splits"}),
    Family("lda", LinearDiscriminantSpec, LinearDiscriminantModel, train_lda, {}),
    Family("svm-cubic", CubicSvmSpec, CubicSvmModel, train_cubic_svm,
           {"svm-c": "c", "svm-tol": "tolerance"}),
    Family("knn", FineKnnSpec, FineKnnModel, train_knn, {"knn-k": "k"}),
    Family("bagged", BaggedTreesSpec, BaggedTreesModel, train_bagged_trees,
           {"bagged-trees": "n_trees", "tree-max-splits": "max_splits"}),
    Family("mlp", MlpSpec, MlpModel, train_mlp,
           {"hidden": "hidden_width", "epochs": "epochs", "lr": "learning_rate"}),
)

# Any one family's spec dataclass.
ClassifierSpec = Union[tuple(family.spec for family in FAMILIES)]

DEFAULT_FAMILY = "knn"

# Help text of every flag in FAMILIES, in the order `--help` lists them.
# tree-max-splits is shared by two families, so help lives here, once.
FLAG_HELP = {
    "knn-k": "neighbor count for knn",
    "tree-max-splits": "split budget for tree/bagged",
    "bagged-trees": "ensemble size for bagged",
    "svm-c": "box constraint for svm-cubic",
    "svm-tol": "KKT tolerance for svm-cubic",
    "hidden": "hidden width for mlp",
    "epochs": "training epochs for mlp",
    "lr": "learning rate for mlp",
}

_FAMILY_OF_SPEC = {family.spec: family for family in FAMILIES}

# Dispatch goes through module-level dicts that hold the trainers themselves:
# bench/tracer.py swaps a trainer for its wrapper by identity in module
# attributes and dicts, so it would miss one reached through a Family row.
_TRAINERS = {family.spec: family.trainer for family in FAMILIES}
_MODEL_KINDS = {family.model.kind: family.model for family in FAMILIES}


def family_of(spec: ClassifierSpec) -> Family:
    return _FAMILY_OF_SPEC[type(spec)]


def train_arrays(spec: ClassifierSpec, x: np.ndarray, y: np.ndarray) -> TrainedModel:
    """Train on raw arrays (rows, labels)."""
    try:
        trainer = _TRAINERS[type(spec)]
    except KeyError:
        raise TypeError(f"unknown classifier spec {type(spec).__name__}") from None
    return trainer(spec, x, y)


def train(spec: ClassifierSpec, features: FeatureMatrix) -> TrainedModel:
    """Train on a feature matrix and its labels."""
    return train_arrays(spec, features.rows, features.labels)


def model_from_json_dict(d: dict) -> TrainedModel:
    try:
        cls = _MODEL_KINDS[d["kind"]]
    except KeyError:
        raise ValueError(f"unknown model kind {d.get('kind')!r}") from None
    return cls.from_json_dict(d)

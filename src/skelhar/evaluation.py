"""Partitioning, cross-validation, metrics, and the experiment driver.

Protocol: rows are split 60/20/20 (train/test/validation) stratified by
class label by default. Model assessment runs stratified S-fold
cross-validation inside the train+test pool; the validation partition is
touched exactly once, by the final model, and produces the headline report.
PCA, when enabled, is fitted on the train partition only. report.json
labels which protocol produced each number.

`run_matrix_experiment` runs an experiment's fits: the final fit, scored
on the validation rows, and one task per CV fold on the queue of
`gridworker.Tasks`. Forked workers can take folds while this process runs
the final fit and the bundle write; grid cells and library callers run
every fit in process.

`write_json` streams the bundle's JSON files in the stdlib's indent=2,
sort_keys layout, except that a list of scalars takes one line, as
json.dumps writes it (as LIBSVM's model file gives each support vector a
line). Each such list is encoded by one C-encoder call, and a list object
shared by several parents (the SVM's row lists) is encoded once.
"""

from __future__ import annotations

import contextlib
import enum
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .classifiers import (
    ClassifierSpec,
    HyperparameterError,
    TrainedModel,
    family_of,
    train_arrays,
)
from .classifiers.base import check_integers
from .dataset import DatasetManifest, format_sig9, write_lines
from .features import FeatureMatrix, JointSubset, Modality, build_feature_matrix
from .gridworker import Tasks
from .pca import PcaModel, pca_fit, pca_transform
from .skeleton import N_CLASSES, STATIONARY_LABELS, validate_sequence


class StratifyBy(enum.Enum):
    CLASS_LABEL = "class"
    PARTICIPANT = "participant"


@dataclass(frozen=True)
class SplitPlan:
    train_frac: float = 0.60
    test_frac: float = 0.20
    validation_frac: float = 0.20
    stratify_by: StratifyBy = StratifyBy.CLASS_LABEL
    seed: int = 0

    SHARES = ("train_frac", "test_frac", "validation_frac")

    def __post_init__(self):
        shares = tuple(getattr(self, name) for name in self.SHARES)
        for name, value in zip(self.SHARES, shares):
            if not value > 0:  # NaN fails too
                raise HyperparameterError(name, "> 0", value)
        if abs(sum(shares) - 1.0) > 1e-9:
            raise HyperparameterError("split", "shares that sum to 1.0", shares)
        check_integers(self)


@dataclass(frozen=True)
class SplitIndices:
    train: np.ndarray
    test: np.ndarray
    validation: np.ndarray

    @property
    def pool(self) -> np.ndarray:
        """Train+test rows: the model-development pool."""
        return np.sort(np.concatenate([self.train, self.test]))


def split(matrix: FeatureMatrix, plan: SplitPlan) -> SplitIndices:
    """Disjoint stratified train/test/validation row partition.

    Within each stratum the test and validation shares are floored and the
    remainder goes to train, so per-stratum sizes sit within one row of the
    exact fractions. Deterministic in plan.seed.
    """
    if plan.stratify_by is StratifyBy.CLASS_LABEL:
        strata_key = matrix.labels
    else:
        if matrix.participants is None:
            raise ValueError("participant stratification requires participant ids")
        strata_key = matrix.participants

    rng = np.random.default_rng(plan.seed)
    train, test, validation = [], [], []
    for value in np.unique(strata_key):
        rows = np.nonzero(strata_key == value)[0]
        n = len(rows)
        if n < 5:
            raise ValueError(
                f"stratum {value} has only {n} rows; at least 5 are needed "
                f"for a 60/20/20 split"
            )
        perm = rng.permutation(rows)
        n_test = int(math.floor(plan.test_frac * n))
        n_val = int(math.floor(plan.validation_frac * n))
        n_train = n - n_test - n_val
        train.append(perm[:n_train])
        test.append(perm[n_train:n_train + n_test])
        validation.append(perm[n_train + n_test:])
    return SplitIndices(
        np.sort(np.concatenate(train)),
        np.sort(np.concatenate(test)),
        np.sort(np.concatenate(validation)),
    )


@dataclass(frozen=True)
class ClassMetrics:
    recall: float
    precision: float
    positive_likelihood_ratio: float  # math.inf when specificity is exactly 1


@dataclass(frozen=True)
class EvalReport:
    confusion: np.ndarray  # (9, 9) counts, rows = true, cols = predicted
    overall_accuracy: float
    per_class: dict[int, ClassMetrics]
    group_accuracy: dict[str, float | None]
    fold_accuracies: tuple[float, ...] | None = None

    def to_json_dict(self) -> dict:
        def _plr(v: float):
            return "inf" if math.isinf(v) else v

        return {
            "confusion": self.confusion.tolist(),
            "overall_accuracy": self.overall_accuracy,
            "per_class": {
                str(label): {
                    "recall": m.recall,
                    "precision": m.precision,
                    "positive_likelihood_ratio": _plr(m.positive_likelihood_ratio),
                }
                for label, m in sorted(self.per_class.items())
            },
            "group_accuracy": self.group_accuracy,
            "fold_accuracies": (
                None if self.fold_accuracies is None else list(self.fold_accuracies)
            ),
        }


def compute_report(true_labels: np.ndarray, predicted_labels: np.ndarray,
                   fold_accuracies: tuple[float, ...] | None = None) -> EvalReport:
    """Confusion matrix and derived metrics over aligned label arrays.

    Per-class positive likelihood ratio is sensitivity/(1 - specificity);
    a class with zero false positives has specificity 1 and is reported as
    the infinite marker. Classes with no true rows report recall 0, classes
    never predicted report precision 0.
    """
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted_labels = np.asarray(predicted_labels, dtype=np.int64)
    if true_labels.shape != predicted_labels.shape or true_labels.ndim != 1:
        raise ValueError("true and predicted labels must be equal-length 1D arrays")
    if len(true_labels) == 0:
        raise ValueError("at least one labeled row is required")
    for arr, name in ((true_labels, "true"), (predicted_labels, "predicted")):
        if arr.min() < 1 or arr.max() > N_CLASSES:
            raise ValueError(f"{name} labels must lie in 1..{N_CLASSES}")

    confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(confusion, (true_labels - 1, predicted_labels - 1), 1)
    total = confusion.sum()
    overall = float(np.trace(confusion)) / float(total)

    per_class: dict[int, ClassMetrics] = {}
    for c in range(1, N_CLASSES + 1):
        tp = float(confusion[c - 1, c - 1])
        fn = float(confusion[c - 1].sum()) - tp
        fp = float(confusion[:, c - 1].sum()) - tp
        tn = float(total) - tp - fn - fp
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        specificity = tn / (tn + fp) if tn + fp > 0 else 1.0
        plr = math.inf if specificity == 1.0 else recall / (1.0 - specificity)
        per_class[c] = ClassMetrics(recall, precision, plr)

    group_accuracy: dict[str, float | None] = {}
    for name, labels in (("stationary", STATIONARY_LABELS),
                         ("dynamic", tuple(range(5, N_CLASSES + 1)))):
        rows = [c - 1 for c in labels]
        group_total = confusion[rows].sum()
        if group_total == 0:
            group_accuracy[name] = None
        else:
            group_accuracy[name] = float(confusion[rows, rows].sum()) / float(group_total)

    return EvalReport(confusion, overall, per_class, group_accuracy, fold_accuracies)


def assign_folds(labels: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Stratified fold assignment: per-class shuffles dealt round-robin.

    Both global and per-class fold sizes stay within one row of N/folds.
    """
    rng = np.random.default_rng(seed)
    order = []
    for value in np.unique(labels):
        rows = np.nonzero(labels == value)[0]
        if len(rows) < folds:
            raise ValueError(
                f"class {value} has {len(rows)} rows, fewer than {folds} folds"
            )
        order.append(rng.permutation(rows))
    order = np.concatenate(order)
    assignment = np.empty(len(labels), dtype=np.int64)
    assignment[order] = np.arange(len(labels)) % folds
    return assignment


def cross_validate(spec: ClassifierSpec, matrix: FeatureMatrix, folds: int = 5,
                   seed: int = 0,
                   fold_assignment: np.ndarray | None = None) -> EvalReport:
    """Stratified S-fold cross-validation aggregating out-of-fold predictions.

    Every row lands in exactly one held-out fold; the report's confusion
    matrix covers all rows and fold_accuracies lists per-fold accuracy.
    fold_assignment overrides the assignment (testing hook); it must map
    every row to an integer fold in 0..folds-1 and leave no fold empty.
    """
    if fold_assignment is None:
        fold_assignment = assign_folds(matrix.labels, folds, seed)
    else:
        fold_assignment = np.asarray(fold_assignment)
        if fold_assignment.shape != (matrix.n_rows,):
            raise ValueError("fold_assignment must assign every row")
        if not np.issubdtype(fold_assignment.dtype, np.integer):
            raise ValueError(f"fold_assignment must hold integers, not {fold_assignment.dtype}")
        fold_assignment = fold_assignment.astype(np.int64)
        outside = fold_assignment[(fold_assignment < 0) | (fold_assignment >= folds)]
        if outside.size:
            raise ValueError(f"fold_assignment has fold {outside[0]}, outside 0..{folds - 1}")
        sizes = np.bincount(fold_assignment, minlength=folds)
        if not sizes.all():
            raise ValueError(f"fold_assignment leaves fold {np.argmin(sizes)} empty")

    with Tasks(folds, _fold_task(spec, matrix, fold_assignment)) as tasks:
        return _cv_report(matrix.labels, fold_assignment, tasks.collect(), folds)


def _fold_task(spec: ClassifierSpec, matrix: FeatureMatrix, assignment: np.ndarray):
    """CV fold f as a task: the held-out rows' predictions of the model
    trained on the other folds, or the error that raised."""
    def run(fold: int) -> np.ndarray | Exception:
        held = np.nonzero(assignment == fold)[0]
        rest = np.nonzero(assignment != fold)[0]
        try:
            model = train_arrays(spec, matrix.rows[rest], matrix.labels[rest])
            return model.predict(matrix.rows[held])
        except (ValueError, RuntimeError, MemoryError) as exc:
            return exc
    return run


def _cv_report(labels: np.ndarray, assignment: np.ndarray, outcomes: list,
               folds: int) -> EvalReport:
    """The out-of-fold report from the fold tasks' outcomes, in fold order.
    Raise the error of the lowest failing fold, which comes last."""
    if isinstance(outcomes[-1], str):  # its worker died
        raise RuntimeError(f"fold {len(outcomes)}/{folds}: {outcomes[-1]}")
    if isinstance(outcomes[-1], Exception):
        raise outcomes[-1]
    predictions = np.empty(len(labels), dtype=np.int64)
    fold_accuracies = []
    for f, pred in enumerate(outcomes):
        held = np.nonzero(assignment == f)[0]
        predictions[held] = pred
        fold_accuracies.append(float(np.mean(pred == labels[held])))
    return compute_report(labels, predictions, tuple(fold_accuracies))


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PcaConfig:
    enabled: bool = False
    variance_threshold: float = 0.95

    def __post_init__(self):
        # checked even when disabled: config.json records the value either way
        if not 0.0 < self.variance_threshold <= 1.0:
            raise HyperparameterError("variance_threshold", "in (0, 1]",
                                      self.variance_threshold)


@dataclass(frozen=True)
class PipelineConfig:
    modality: Modality = Modality.COORDINATES
    subset: JointSubset = field(default_factory=JointSubset.c28)
    dims: int = 3
    pca: PcaConfig = field(default_factory=PcaConfig)
    classifier: ClassifierSpec = None  # type: ignore[assignment]
    split: SplitPlan = field(default_factory=SplitPlan)
    folds: int = 5
    seed: int = 0
    # explicit source-frame positions; None selects the centered window
    frame_positions: tuple[int, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.dims, int) or self.dims not in (2, 3):
            raise HyperparameterError("dims", "2 or 3", self.dims)
        check_integers(self, "folds", minimum=2)
        if self.classifier is None:
            raise ValueError("a classifier spec is required")
        if self.frame_positions is not None:
            object.__setattr__(self, "frame_positions", tuple(self.frame_positions))

    def feature_matrix(self, manifest: DatasetManifest) -> FeatureMatrix:
        """The labeled feature matrix of a dataset under this config's
        modality, joint subset, dims and frame positions."""
        return build_feature_matrix(manifest, self.modality, self.subset, self.dims,
                                    self.frame_positions)

    def with_seed(self, seed: int) -> "PipelineConfig":
        """Rewire every seed in the config to one run seed."""
        return replace(
            self,
            seed=seed,
            split=replace(self.split, seed=seed),
            classifier=replace(self.classifier, seed=seed),
        )

    def to_json_dict(self) -> dict:
        classifier = {"name": family_of(self.classifier).name, **asdict(self.classifier)}
        return {
            "modality": self.modality.value,
            "subset": {
                "name": self.subset.name,
                "joints": [j.name for j in self.subset.joints],
            },
            "dims": self.dims,
            "pca": asdict(self.pca),
            "classifier": classifier,
            "split": {**asdict(self.split), "stratify_by": self.split.stratify_by.value},
            "folds": self.folds,
            "seed": self.seed,
            "frame_positions": (
                None if self.frame_positions is None else list(self.frame_positions)
            ),
        }


@dataclass(frozen=True)
class ExperimentResult:
    report: EvalReport  # validation-holdout metrics, CV fold accuracies attached
    cv_report: EvalReport  # out-of-fold metrics on the train+test pool
    model: TrainedModel
    pca_model: PcaModel | None
    config: PipelineConfig
    split_indices: SplitIndices
    validation_scores: np.ndarray  # (n_validation, |class_set|) decision scores
    validation_truth: np.ndarray


def run_matrix_experiment(config: PipelineConfig, matrix: FeatureMatrix,
                          out_dir: str | Path | None = None,
                          fold_workers: int = 0) -> ExperimentResult:
    """The experiment core, starting from an extracted feature matrix.

    `fold_workers` forked processes take CV folds from the task queue
    (gridworker.Tasks) while this process runs the final fit and writes
    every bundle file but report.json, under temporary names
    (`<name>.tmp`); this process then takes the folds left. With no fold
    workers every fit runs here, in the same order. The files are renamed
    into place only once every fit has succeeded. A failure raises what
    running the fits in order raises: the lowest failing fold's error,
    else the final fit's. Once a fold has failed no further fold starts,
    and a failure leaves no bundle file and no worker.
    """
    indices = split(matrix, config.split)

    pca_model = None
    if config.pca.enabled:
        pca_model = pca_fit(matrix.rows[indices.train], config.pca.variance_threshold)
        matrix = matrix.with_rows(pca_transform(pca_model, matrix.rows))

    pool_matrix = matrix.take(indices.pool)
    assignment = assign_folds(pool_matrix.labels, config.folds, config.seed)
    truth = matrix.labels[indices.validation]
    out = None if out_dir is None else Path(out_dir)
    created = out is not None and not out.exists()
    parts: dict[str, Path] = {}  # bundle file -> its temporary name

    def part(name: str) -> Path:
        parts[name] = out / f"{name}.tmp"
        return parts[name]

    try:
        with Tasks(config.folds, _fold_task(config.classifier, pool_matrix, assignment)) as folds:
            folds.fork(fold_workers)
            final_error = None
            try:
                model = train_arrays(config.classifier, pool_matrix.rows, pool_matrix.labels)
                pred, scores = model.predict_with_scores(matrix.rows[indices.validation])
                result = ExperimentResult(compute_report(truth, pred), None, model, pca_model,
                                          config, indices, scores, truth)
                if out is not None:
                    out.mkdir(parents=True, exist_ok=True)
                    _write_fit_files(result, part)
            except (ValueError, RuntimeError, OSError, MemoryError) as exc:
                final_error = exc
            cv_report = _cv_report(pool_matrix.labels, assignment, folds.collect(), config.folds)
        if final_error is not None:
            raise final_error
        result = replace(result, cv_report=cv_report, report=replace(
            result.report, fold_accuracies=cv_report.fold_accuracies))
        if out is not None:
            _write_report(result, part)
            while parts:
                name, path = parts.popitem()
                os.replace(path, out / name)
            created = False
    finally:
        for path in parts.values():
            path.unlink(missing_ok=True)
        if created:
            with contextlib.suppress(OSError):
                out.rmdir()
    return result


def run_experiment(config: PipelineConfig, manifest: DatasetManifest,
                   out_dir: str | Path | None = None) -> ExperimentResult:
    """Extract features per the config, run the evaluation protocol, and
    optionally persist the report bundle."""
    for seq in manifest.sequences:
        check = validate_sequence(seq)
        if not check.ok:
            v = check.violations[0]
            raise ValueError(
                f"invalid sequence (participant={seq.participant_id}, "
                f"activity={seq.activity.label}): {v.message}"
            )
    return run_matrix_experiment(config, config.feature_matrix(manifest), out_dir)


def error_text(exc: Exception) -> str:
    """An error's message for the user. A MemoryError's says what ran out,
    which numpy's "Unable to allocate ..." leaves unsaid."""
    if isinstance(exc, MemoryError):
        return f"out of memory: {exc}" if str(exc) else "out of memory"
    return str(exc)


_SCALARS = frozenset((float, int, str, bool, type(None)))


def _is_scalar(value) -> bool:
    return isinstance(value, (str, int, float)) or value is None  # bool is an int


def _count_scalar_lists(obj, uses: dict, active: set) -> None:
    """Count the uses of each scalar list in obj (a list or tuple that holds
    no list, tuple or dict) by its identity, checking its items on its first
    use only, and raise what json.dumps would raise: TypeError for a value
    it cannot encode (and for any non-str key), ValueError for a circular
    reference."""
    if isinstance(obj, (list, tuple)):
        key = id(obj)
        if key in uses:  # a scalar list met before
            uses[key] += 1
            return
        # the type check is one C pass; subclasses take the per-item check
        if _SCALARS.issuperset(map(type, obj)) or all(map(_is_scalar, obj)):
            uses[key] = 1
            return
        children = obj
    elif isinstance(obj, dict):
        bad = [k for k in obj if not isinstance(k, str)]
        if bad:
            raise TypeError(f"keys must be str, not {type(bad[0]).__name__}")
        children = obj.values()
    elif _is_scalar(obj):
        return
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if id(obj) in active:
        raise ValueError("Circular reference detected")
    active.add(id(obj))
    for child in children:
        _count_scalar_lists(child, uses, active)
    active.remove(id(obj))


def _emit(obj, depth: int, uses: dict, texts: dict, write: Callable[[str], object]) -> None:
    """Write obj at depth in the bundle layout. A scalar list is one line,
    encoded by one C-encoder call, and its text is kept only until its last
    use, so a list object shared by many parents is formatted once."""
    key = id(obj)
    if key in uses:  # a scalar list
        text = texts.pop(key, None) or json.dumps(obj)
        uses[key] -= 1
        if uses[key]:
            texts[key] = text
        write(text)
    elif isinstance(obj, (list, tuple, dict)) and obj:
        outer = "\n" + "  " * depth
        pad = outer + "  "
        if isinstance(obj, dict):
            sep = "{" + pad
            for name in sorted(obj):
                write(sep + json.dumps(name) + ": ")
                _emit(obj[name], depth + 1, uses, texts, write)
                sep = "," + pad
            write(outer + "}")
        else:
            sep = "[" + pad
            for item in obj:
                write(sep)
                _emit(item, depth + 1, uses, texts, write)
                sep = "," + pad
            write(outer + "]")
    else:  # a scalar or an empty dict
        write(json.dumps(obj))


def write_json(obj, path: Path) -> None:
    """Stream obj to path in the bundle layout: json.dumps(obj, indent=2,
    sort_keys=True) + "\\n", except that a non-empty list or tuple that holds
    no list, tuple or dict takes one line, as json.dumps(that_list) writes it.

    Every value is checked before the file is opened, so a TypeError or
    ValueError leaves no partial file behind. Dict keys must be str.
    """
    uses: dict = {}
    _count_scalar_lists(obj, uses, set())
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        _emit(obj, 0, uses, {}, f.write)
        f.write("\n")


def write_bundle(result: ExperimentResult, out_dir: str | Path) -> None:
    """Persist report.json, confusion.csv, scores.csv, config.json, model.json.

    confusion.csv is the 10x10 grid (header row/column of class labels) of
    the final validation confusion matrix; scores.csv holds one row per
    validation sample with its true label and the per-class decision scores,
    enough to plot ranking curves externally.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_fit_files(result, out.joinpath)
    _write_report(result, out.joinpath)


def _write_report(result: ExperimentResult, path: Callable[[str], Path]) -> None:
    """report.json, to path("report.json")."""
    report = result.report.to_json_dict()
    report["protocol"] = {
        "metrics_source": "validation-holdout",
        "fold_accuracies_source": (
            f"{result.config.folds}-fold cross-validation on the train+test pool"
        ),
        "cv_overall_accuracy": result.cv_report.overall_accuracy,
    }
    write_json(report, path("report.json"))


def _write_fit_files(result: ExperimentResult, path: Callable[[str], Path]) -> None:
    """The bundle files that need no cross-validation, each to path(name)."""
    classes = range(1, N_CLASSES + 1)
    write_lines(path("confusion.csv"), "true\\pred," + ",".join(map(str, classes)),
                (f"{c}," + ",".join(map(str, row))
                 for c, row in zip(classes, result.report.confusion.tolist())))

    score_columns = np.zeros((result.validation_scores.shape[0], N_CLASSES))
    for j, label in enumerate(result.model.class_set):
        score_columns[:, int(label) - 1] = result.validation_scores[:, j]
    write_lines(path("scores.csv"), "true_label," + ",".join(f"score_{c}" for c in classes),
                (f"{truth},{scores}" for truth, scores
                 in zip(result.validation_truth, format_sig9(score_columns))))

    write_json(result.config.to_json_dict(), path("config.json"))
    write_json(
        {
            "classifier": result.model.to_json_dict(),
            "pca": None if result.pca_model is None else result.pca_model.to_json_dict(),
        },
        path("model.json"),
    )

"""Command-line entry point: synth, extract, evaluate, grid.

Exit codes: 0 success, 1 runtime/data error, 2 usage error. Every command is
deterministic given its arguments and input files; --seed is the only
entropy source. A --config file supplies flat key=value defaults mirroring
the flag names; explicit flags override file values.

The pipeline flags only parse text. Their choices come from the Modality
and StratifyBy enums, features.SUBSETS and FAMILIES; their defaults are the
flat form of a default-built PipelineConfig; and the dataclasses check
every bound, with a HyperparameterError reported as a usage error that
names the flag.

grid and evaluate run their tasks through one queue, gridworker.Tasks,
on forked workers: grid one task per cell, each through run_cell, and
evaluate one per CV fold, which this process takes too once its final fit
is done (run_matrix_experiment). On one CPU every task runs here.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path

import click

from .classifiers import (
    DEFAULT_FAMILY,
    FAMILIES,
    FLAG_HELP,
    ClassifierSpec,
    HyperparameterError,
    family_of,
)
from .dataset import (
    SynthSpec,
    format_sig9,
    generate_synthetic,
    read_dataset,
    write_dataset,
    write_lines,
)
from .evaluation import (
    PcaConfig,
    PipelineConfig,
    SplitPlan,
    StratifyBy,
    error_text,
    run_matrix_experiment,
)
from .features import SUBSETS, FeatureMatrix, Modality, parse_subset
from .gridworker import Tasks, failed

CLASSIFIER_NAMES = tuple(family.name for family in FAMILIES)
_FAMILIES = {family.name: family for family in FAMILIES}

# hyperparameter flag -> the value it takes in a default-built spec
_FLAG_DEFAULTS = {
    flag: getattr(family.spec(), field)
    for family in FAMILIES
    for flag, field in family.flags.items()
}
# spec or config field -> the flag that sets it, where the names differ, so
# errors name the flag
_FIELD_FLAGS = {
    "variance_threshold": "pca-var",
    **dict.fromkeys(SplitPlan.SHARES, "split"),
    **{field: flag for family in FAMILIES for flag, field in family.flags.items()},
}


def _choices(enum_type) -> tuple[str, ...]:
    return tuple(member.value for member in enum_type)


# file key (= flag name) -> help, for every pipeline parameter, in --help order
_PIPELINE_HELP = {
    "modality": "feature modality: " + "|".join(_choices(Modality)),
    "joints": "joint subset: " + "|".join(SUBSETS) + "|list:<JointName,...>",
    "dims": "feature dimensionality per joint: 2|3",
    "pca": "PCA dimensionality reduction: on|off",
    "pca-var": "explained-variance threshold for PCA",
    "classifier": "|".join(CLASSIFIER_NAMES),
    **FLAG_HELP,
    "split": "train,test,validation shares",
    "folds": "cross-validation folds",
    "stratify": "split stratification: " + "|".join(_choices(StratifyBy)),
    "seed": "64-bit seed; the only entropy source",
    "frame-list": "explicit 51 source-frame positions (default: centered window)",
}


def _parse_number(values: dict[str, str], key: str, kind: type[int] | type[float]):
    try:
        return kind(values[key])
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise click.UsageError(f"--{key} must be {noun}, got {values[key]!r}") from None


def _parse_choice(values: dict[str, str], key: str, choices: tuple[str, ...]) -> str:
    v = values[key]
    if v not in choices:
        raise click.UsageError(f"--{key} must be one of {{{', '.join(choices)}}}, got {v!r}")
    return v


def _parse_split(values: dict[str, str]) -> tuple[float, float, float]:
    text = values["split"]
    parts = text.split(",")
    if len(parts) != 3:
        raise click.UsageError(f"--split expects three comma-separated shares, got {text!r}")
    try:
        shares = [float(p) for p in parts]
    except ValueError:
        raise click.UsageError(f"--split shares must be numbers, got {text!r}") from None
    total = sum(shares)
    if abs(total - 100.0) < 1e-6:
        shares = [s / 100.0 for s in shares]
    elif abs(total - 1.0) > 1e-9:
        raise click.UsageError(f"--split shares must sum to 100 (or 1.0), got {text!r}")
    return shares[0], shares[1], shares[2]


def _build_classifier(values: dict[str, str], seed: int) -> ClassifierSpec:
    """The selected family's spec; its __post_init__ checks the bounds."""
    family = _FAMILIES[_parse_choice(values, "classifier", CLASSIFIER_NAMES)]
    fields = {
        field: _parse_number(values, flag, type(_FLAG_DEFAULTS[flag]))
        for flag, field in family.flags.items()
    }
    return family.spec(**fields, seed=seed)


def _parse_frame_list(values: dict[str, str]) -> tuple[int, ...] | None:
    text = values["frame-list"].strip()
    if not text:
        return None
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise click.UsageError(
            f"--frame-list must be comma-separated integers, got {text!r}") from None


def build_config(values: dict[str, str]) -> PipelineConfig:
    """Build a PipelineConfig from flat key=value parameters.

    This is the parsing half of the config-file round trip; config_to_flat
    is its inverse.
    """
    try:
        seed = _parse_number(values, "seed", int)
        stratify = _parse_choice(values, "stratify", _choices(StratifyBy))
        return PipelineConfig(
            modality=Modality(_parse_choice(values, "modality", _choices(Modality))),
            subset=parse_subset(values["joints"]),
            dims=_parse_number(values, "dims", int),
            pca=PcaConfig(_parse_choice(values, "pca", ("on", "off")) == "on",
                          _parse_number(values, "pca-var", float)),
            classifier=_build_classifier(values, seed),
            split=SplitPlan(*_parse_split(values), StratifyBy(stratify), seed),
            folds=_parse_number(values, "folds", int),
            seed=seed,
            frame_positions=_parse_frame_list(values),
        )
    except HyperparameterError as exc:
        raise click.UsageError(f"--{_FIELD_FLAGS.get(exc.field, exc.field)}: {exc}") from None
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


def config_to_flat(config: PipelineConfig) -> dict[str, str]:
    """Serialize a PipelineConfig to the flat key=value file format. The
    flags of the families it does not select keep their spec defaults."""
    family = family_of(config.classifier)
    subset = config.subset
    return {
        "modality": config.modality.value,
        "joints": (subset.name if subset.name in SUBSETS
                   else "list:" + ",".join(j.name for j in subset.joints)),
        "dims": str(config.dims),
        "pca": "on" if config.pca.enabled else "off",
        "pca-var": repr(config.pca.variance_threshold),
        "classifier": family.name,
        **{flag: repr(value) for flag, value in _FLAG_DEFAULTS.items()},
        **{flag: repr(getattr(config.classifier, field)) for flag, field in family.flags.items()},
        "split": ",".join(repr(getattr(config.split, name)) for name in SplitPlan.SHARES),
        "stratify": config.split.stratify_by.value,
        "folds": str(config.folds),
        "seed": str(config.seed),
        "frame-list": ",".join(map(str, config.frame_positions or ())),
    }


_DEFAULT_CONFIG = PipelineConfig(classifier=_FAMILIES[DEFAULT_FAMILY].spec())
_PIPELINE_DEFAULTS = config_to_flat(_DEFAULT_CONFIG)


def _pipeline_options(fn):
    shown = {
        **_PIPELINE_DEFAULTS,
        # percentages, the form --split is usually given in
        "split": ",".join(f"{100 * getattr(_DEFAULT_CONFIG.split, name):g}"
                          for name in SplitPlan.SHARES),
        "frame-list": "unset",
    }
    for key, text in reversed(_PIPELINE_HELP.items()):
        fn = click.option(f"--{key}", key.replace("-", "_"), type=str, default=None,
                          help=f"{text} [default: {shown[key]}]")(fn)
    fn = click.option("--config", "config_path", type=str, default=None,
                      help="flat key=value config file; flags override it")(fn)
    return fn


def _read_config_file(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise click.UsageError(f"config file {path} does not exist")
    try:
        data = p.read_bytes()
        text = data.decode("utf-8")
    except OSError as exc:
        raise click.UsageError(f"config file {path} cannot be read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        line_no = data[:exc.start].count(b"\n") + 1
        raise click.UsageError(f"{path}:{line_no}: not UTF-8 text") from None
    values: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise click.UsageError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _PIPELINE_DEFAULTS:
            raise click.UsageError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _resolve(config_path: str | None, **flag_values: str | None) -> dict[str, str]:
    """Merge precedence: explicit flag > config file > default."""
    file_cfg = _read_config_file(config_path)
    resolved = dict(_PIPELINE_DEFAULTS)
    resolved.update(file_cfg)
    for param, value in flag_values.items():
        if value is not None:
            resolved[param.replace("_", "-")] = value
    return resolved


@click.group()
def main():
    """Skeleton-based activity recognition experiments."""


@main.command()
@click.option("--participants", type=int, default=16, show_default=True,
              help="number of participants to simulate")
@click.option("--frames", type=int, default=60, show_default=True,
              help="frames per (participant, activity) sequence")
@click.option("--noise", type=float, default=0.01, show_default=True,
              help="per-joint Gaussian noise sigma in meters")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("-o", "--output", "output", required=True, type=str,
              help="destination CSV path")
def synth(participants, frames, noise, seed, output):
    """Generate a deterministic synthetic dataset file."""
    try:
        spec = SynthSpec(n_participants=participants, frames_per_sequence=frames,
                         noise_sigma=noise, seed=seed)
        manifest = generate_synthetic(spec)
        write_dataset(manifest, output)
    except (ValueError, OSError, MemoryError) as exc:
        raise click.ClickException(error_text(exc)) from exc
    click.echo(f"wrote {len(manifest)} sequences x {frames} frames to {output}")


@main.command()
@click.argument("dataset", type=str)
@click.option("-o", "--output", "output", required=True, type=str,
              help="destination feature CSV path")
@_pipeline_options
def extract(dataset, output, config_path, **flags):
    """Extract the labeled feature matrix from a dataset file."""
    values = _resolve(config_path, **flags)
    config = build_config(values)
    try:
        matrix = config.feature_matrix(read_dataset(dataset))
        header = ",".join([f"f{i}" for i in range(matrix.n_features)] + ["label"])
        write_lines(output, header, (f"{row},{label}" for row, label
                                     in zip(format_sig9(matrix.rows), matrix.labels)))
    except (ValueError, OSError, MemoryError) as exc:
        raise click.ClickException(error_text(exc)) from exc
    click.echo(f"wrote {matrix.n_rows}x{matrix.n_features} feature matrix to {output}")


@main.command()
@click.argument("dataset", type=str)
@click.option("-o", "--output", "output", required=True, type=str,
              help="report bundle directory")
@_pipeline_options
def evaluate(dataset, output, config_path, **flags):
    """Run one experiment and persist its report bundle.

    The cross-validation folds run on forked worker processes, one per
    usable CPU beyond the first, while this process runs the final fit.
    """
    values = _resolve(config_path, **flags)
    config = build_config(values)
    # the final fit and the folds are the tasks; this process is one worker
    workers = _plan_workers(config.folds + 1, _usable_cpus())
    try:
        # read_dataset has already validated every sequence: skip
        # run_experiment's check, which serves direct API callers
        matrix = config.feature_matrix(read_dataset(dataset))
        result = run_matrix_experiment(config, matrix, out_dir=output,
                                       fold_workers=workers - 1)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        raise click.ClickException(error_text(exc)) from exc
    click.echo(f"validation accuracy: {result.report.overall_accuracy:.4f}")
    click.echo(f"cv accuracy:         {result.cv_report.overall_accuracy:.4f}")
    click.echo(f"report bundle:       {output}")


# grid axes, outermost first: the table's key columns and its row order
_GRID_AXES = ("modality", "joints", "dims", "pca", "classifier")


def _grid_axis(values: dict[str, str], key: str) -> list[str]:
    """One grid axis's comma-separated values. A custom joint list has commas
    of its own: a token that is no subset name continues the list before it."""
    items: list[str] = []
    for token in filter(None, values[key].split(",")):
        if (key == "joints" and items and items[-1].startswith("list:")
                and token not in SUBSETS and not token.startswith("list:")):
            items[-1] += "," + token
        else:
            items.append(token)
    if not items:
        raise click.UsageError(f"--{key} grid axis is empty")
    return items


def _cell_name(config: PipelineConfig) -> str:
    """A grid cell's axis values, as its table row starts."""
    flat = config_to_flat(config)
    flat["joints"] = flat["joints"].replace(",", ";")  # keep the CSV 7 columns wide
    return ",".join(flat[key] for key in _GRID_AXES)


def _matrix_key(config: PipelineConfig) -> tuple:
    """What a cell's feature matrix depends on among the axes. The axis order
    makes the cells of one matrix contiguous; custom subsets share the name
    "custom", so the key holds the joints."""
    return config.modality, config.subset.joints, config.dims


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _plan_workers(tasks: int, cpus: int) -> int:
    """Worker processes for `tasks` tasks on `cpus` usable CPUs, each given
    as many CPUs as it runs BLAS threads (see skelhar/__init__.py). One
    worker means the tasks run in the calling process, as they do where
    os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    try:
        blas_threads = max(1, int(os.environ.get("OPENBLAS_NUM_THREADS", "1")))
    except ValueError:
        blas_threads = 1
    return max(1, min(tasks, cpus // blas_threads))


def run_cell(config: PipelineConfig, matrix: FeatureMatrix) -> tuple[float, float, float] | str:
    """(cv accuracy, validation accuracy, seconds) of one cell's experiment,
    or the error text of a cell whose experiment raised."""
    start = time.perf_counter()
    try:
        result = run_matrix_experiment(config, matrix)
    except (ValueError, RuntimeError, MemoryError) as exc:
        return error_text(exc)
    return (result.cv_report.overall_accuracy, result.report.overall_accuracy,
            time.perf_counter() - start)


@main.command()
@click.argument("dataset", type=str)
@click.option("-o", "--output", "output", required=True, type=str,
              help="destination CSV table path")
@click.option("--jobs", type=click.IntRange(min=1), hidden=True, expose_value=False,
              deprecated="It has no effect: the cells run in one worker process per "
                         "usable CPU.")
@_pipeline_options
def grid(dataset, output, config_path, **flags):
    """Run a cartesian grid of configurations and tabulate accuracies.

    The axes --modality, --joints, --dims, --pca, and --classifier accept
    comma-separated value lists; all other parameters are fixed across the
    grid. Each cell is one task (gridworker.Tasks), taken in table order
    by one forked worker per usable CPU (at most one per cell), or, for
    one worker, by this process. A process builds the feature matrix of
    the cell it takes unless its last cell used the same one, and keeps
    only its last. Rows are in table order (modality outermost, classifier
    innermost), and each cell reports on stderr in that order, once this
    process has read its reply. The first failing cell in table order is
    the one named, and the table is written once every cell has
    succeeded.
    """
    values = _resolve(config_path, **flags)
    cells = [build_config({**values, **dict(zip(_GRID_AXES, combo))})
             for combo in itertools.product(*(_grid_axis(values, key) for key in _GRID_AXES))]
    workers = _plan_workers(len(cells), _usable_cpus())
    rows = []
    key = matrix = None  # this process's last feature matrix

    def run(n: int) -> tuple[float, float, float] | str:
        nonlocal key, matrix
        if _matrix_key(cells[n]) != key:
            key = matrix = None  # drop the last matrix before building the next
            try:
                matrix = cells[n].feature_matrix(manifest)
            except (ValueError, RuntimeError, MemoryError) as exc:
                return error_text(exc)
            key = _matrix_key(cells[n])
        return run_cell(cells[n], matrix)

    def report(n: int, outcome: tuple[float, float, float]) -> None:
        name, (cv, validation, seconds) = _cell_name(cells[n]), outcome
        rows.append(f"{name},{cv:.6f},{validation:.6f}")
        click.echo(f"cell {n + 1}/{len(cells)} {name}: cv {cv:.3f}, validation "
                   f"{validation:.3f}, {seconds:.2f} s", err=True)

    try:
        manifest = read_dataset(dataset)  # before the forks: every worker reads it
        # a command that runs cells holds the file pages its imports touched
        # too, where a fork counts only those it touches: with two or more
        # workers, every one is forked and this process only waits
        forked = workers if workers > 1 else 0
        with Tasks(len(cells), run) as tasks:
            tasks.fork(forked)
            outcomes = tasks.collect(report, take=not forked)
        if failed(outcomes[-1]):
            n = len(outcomes) - 1
            raise click.ClickException(
                f"cell {n + 1}/{len(cells)} {_cell_name(cells[n])}: {outcomes[n]}")
        write_lines(output, ",".join(_GRID_AXES) + ",cv_accuracy,validation_accuracy", rows)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        raise click.ClickException(error_text(exc)) from exc
    click.echo(f"wrote {len(cells)} grid rows to {output}")


@main.command("show-report")
@click.argument("bundle", type=str)
def show_report(bundle):
    """Print the headline numbers of a saved report bundle."""
    path = Path(bundle) / "report.json"
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise click.ClickException(str(exc)) from exc
    if not isinstance(report, dict):
        raise click.ClickException(f"{path}: expected a JSON object, not {type(report).__name__}")
    for name, required, ok in (
        ("overall_accuracy", True, lambda v: isinstance(v, (int, float))),
        ("group_accuracy", True, lambda v: isinstance(v, dict) and all(
            a is None or isinstance(a, (int, float)) for a in v.values())),
        ("fold_accuracies", False, lambda v: v is None or isinstance(v, list) and all(
            isinstance(a, (int, float)) for a in v)),
    ):
        if required and name not in report:
            raise click.ClickException(f"{path}: missing field {name!r}")
        if not ok(report.get(name)):
            raise click.ClickException(f"{path}: field {name!r} has the wrong type")
    click.echo(f"overall accuracy: {report['overall_accuracy']:.4f}")
    for name, value in report["group_accuracy"].items():
        shown = "n/a" if value is None else f"{value:.4f}"
        click.echo(f"{name} accuracy: {shown}")
    if report.get("fold_accuracies"):
        folds = ", ".join(f"{a:.4f}" for a in report["fold_accuracies"])
        click.echo(f"fold accuracies: {folds}")


if __name__ == "__main__":
    main()

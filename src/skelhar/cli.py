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

grid has one scheduler, _run_cells. It runs the cells in forked worker
processes (skelhar.gridworker), or on one CPU in this process, and either
way each cell through gridworker.run_cell. evaluate runs its CV folds on
forked fold workers beside its final fit (run_matrix_experiment).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import pickle
import select
from pathlib import Path
from typing import BinaryIO

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
from .features import SUBSETS, Modality, parse_subset
from .gridworker import Worker, fork_worker, run_cell, serve

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


def _worker_stopped(worker: Worker) -> str:
    """A cell's error text when its worker died before it replied."""
    return f"its grid worker stopped with exit code {worker.wait()}"


def _run_cells(cells, dataset: str, report, n_workers: int) -> None:
    """Run the cells on `n_workers` workers and report them in table order.

    A worker is a forked process (gridworker.serve). One worker is this
    process instead: a slot stands in for the worker's pipe, and reading its
    reply runs the cell here through gridworker.run_cell, so that one
    schedule serves every CPU count.

    This process builds each matrix once and sends it to a worker only when
    the worker's last cell used another. A matrix's cells start longest
    first, by the seconds that the cell with the same PCA and classifier
    took on an earlier matrix, so that no worker idles behind a long last
    cell; a kind not timed yet starts first, in table order. After a failure
    no later cell in table order starts, so the first failing cell in table
    order is the one named. Every worker is ended and waited for on the way
    out.
    """
    workers: dict[BinaryIO, Worker] = {}  # by the pipe it replies on
    try:
        for _ in range(n_workers if n_workers > 1 else 0):
            worker = fork_worker(serve)
            workers[worker.replies] = worker
        manifest = read_dataset(dataset)  # after the forks: no worker copies it
        outcomes: dict[int, tuple | str] = {}
        busy: dict[BinaryIO | None, int] = {}  # worker -> the cell it runs
        held: dict[BinaryIO | None, tuple] = {}  # worker -> the key of its last matrix
        idle: list[BinaryIO | None] = list(workers) or [None]  # None: the in-process slot
        took: dict[tuple, float] = {}  # (pca, classifier) -> seconds of its last cell
        queue: list[int] = []  # the current matrix's cells that have not started
        matrix_key, matrix = None, None
        queued = reported = 0
        stop = len(cells)  # the first failing cell: no cell from here on starts
        while True:
            queue = [n for n in queue if n < stop]
            while idle and (queue or queued < stop):
                if not queue:
                    matrix_key, end = _matrix_key(cells[queued]), queued + 1
                    while end < len(cells) and _matrix_key(cells[end]) == matrix_key:
                        end += 1
                    queue = sorted(range(queued, end), key=lambda n: -took.get(
                        (cells[n].pca, cells[n].classifier), math.inf))
                    try:
                        matrix = None  # drop the last matrix before building the next
                        matrix = cells[queued].feature_matrix(manifest)
                    except (ValueError, RuntimeError, MemoryError) as exc:
                        outcomes[queued], stop = error_text(exc), queued
                        break
                    queued = end
                pipe, n = idle.pop(), queue.pop(0)
                try:
                    if pipe is not None:  # the in-process slot runs its cell when read
                        pickle.dump((cells[n], None if held.get(pipe) == matrix_key
                                     else matrix), workers[pipe].requests)
                        workers[pipe].requests.flush()
                except OSError:  # the worker has died
                    outcomes[n], stop = _worker_stopped(workers[pipe]), min(stop, n)
                    break
                held[pipe], busy[pipe] = matrix_key, n
            if not busy:
                break
            # the in-process slot is always ready, and as it is the only
            # worker, no other matrix has been built since its cell was sent
            for pipe in select.select(list(busy), [], [])[0] if workers else list(busy):
                n = busy.pop(pipe)
                try:
                    outcomes[n] = run_cell(cells[n], matrix) if pipe is None else pickle.load(pipe)
                    idle.append(pipe)
                except (EOFError, pickle.UnpicklingError):
                    outcomes[n] = _worker_stopped(workers[pipe])
                if isinstance(outcomes[n], str):
                    stop = min(stop, n)
                else:
                    took[cells[n].pca, cells[n].classifier] = outcomes[n][2]
            while reported in outcomes and not isinstance(outcomes[reported], str):
                report(reported, *outcomes.pop(reported))
                reported += 1
        if reported < len(cells):
            # a cell before the first failure goes unrun only when every
            # worker has died
            first = min(n for n, outcome in outcomes.items() if isinstance(outcome, str))
            raise click.ClickException(
                f"cell {first + 1}/{len(cells)} {_cell_name(cells[first])}: {outcomes[first]}")
    finally:
        for worker in workers.values():
            worker.end()


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
    grid. The cells run on one worker per usable CPU (at most one per
    cell): forked worker processes, or, for one worker, this process. Rows
    are in table order (modality outermost, classifier innermost), and each
    cell reports on stderr in that order as it finishes; the table is
    written once every cell has succeeded.
    """
    values = _resolve(config_path, **flags)
    cells = [build_config({**values, **dict(zip(_GRID_AXES, combo))})
             for combo in itertools.product(*(_grid_axis(values, key) for key in _GRID_AXES))]
    workers = _plan_workers(len(cells), _usable_cpus())
    rows = []

    def report(n: int, cv: float, validation: float, seconds: float) -> None:
        name = _cell_name(cells[n])
        rows.append(f"{name},{cv:.6f},{validation:.6f}")
        click.echo(f"cell {n + 1}/{len(cells)} {name}: cv {cv:.3f}, validation "
                   f"{validation:.3f}, {seconds:.2f} s", err=True)

    try:
        _run_cells(cells, dataset, report, workers)
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

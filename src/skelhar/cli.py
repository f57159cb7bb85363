"""Command-line entry point: synth, extract, evaluate, grid.

Exit codes: 0 success, 1 runtime/data error, 2 usage error. Every command is
deterministic given its arguments and input files; --seed is the only
entropy source. A --config file supplies flat key=value defaults mirroring
the flag names; explicit flags override file values.
"""

from __future__ import annotations

import itertools
import json
from concurrent.futures import ThreadPoolExecutor
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
    ExperimentResult,
    PcaConfig,
    PipelineConfig,
    SplitPlan,
    StratifyBy,
    run_matrix_experiment,
)
from .features import Modality, build_feature_matrix, parse_subset

CLASSIFIER_NAMES = tuple(family.name for family in FAMILIES)
_FAMILIES = {family.name: family for family in FAMILIES}

# hyperparameter flag -> the value it takes in a default-built spec
_FLAG_DEFAULTS = {
    flag: getattr(family.spec(), field)
    for family in FAMILIES
    for flag, field in family.flags.items()
}
# spec or config field -> the flag that sets it, so errors name the flag
_FIELD_FLAGS = {
    "variance_threshold": "pca-var",
    **{field: flag for family in FAMILIES for flag, field in family.flags.items()},
}

# file key (= flag name) -> (default, help), for every pipeline parameter
_PIPELINE_PARAMS = {
    "modality": ("coordinates", "feature modality: coordinates|velocity|acceleration"),
    "joints": ("c28", "joint subset: c9|c18|c28|list:<JointName,...>"),
    "dims": ("3", "feature dimensionality per joint: 2|3"),
    "pca": ("off", "PCA dimensionality reduction: on|off"),
    "pca-var": ("0.95", "explained-variance threshold for PCA"),
    "classifier": (DEFAULT_FAMILY, "|".join(CLASSIFIER_NAMES)),
    **{flag: (repr(_FLAG_DEFAULTS[flag]), text) for flag, text in FLAG_HELP.items()},
    "split": ("60,20,20", "train,test,validation shares"),
    "folds": ("5", "cross-validation folds"),
    "stratify": ("class", "split stratification: class|participant"),
    "seed": ("0", "64-bit seed; the only entropy source"),
    "frame-list": ("", "explicit 51 source-frame positions (default: centered window)"),
}

_PIPELINE_DEFAULTS = {key: default for key, (default, _) in _PIPELINE_PARAMS.items()}


def _pipeline_options(fn):
    for key, (default, text) in reversed(list(_PIPELINE_PARAMS.items())):
        shown = default if default else "unset"
        fn = click.option(f"--{key}", key.replace("-", "_"), type=str, default=None,
                          help=f"{text} [default: {shown}]")(fn)
    fn = click.option("--config", "config_path", type=str, default=None,
                      help="flat key=value config file; flags override it")(fn)
    return fn


def _read_config_file(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise click.UsageError(f"config file {path} does not exist")
    values: dict[str, str] = {}
    for line_no, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
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


def _usage(message: str) -> click.UsageError:
    return click.UsageError(message)


def _parse_int(values: dict[str, str], key: str, minimum: int | None = None) -> int:
    try:
        v = int(values[key])
    except ValueError:
        raise _usage(f"--{key} must be an integer, got {values[key]!r}") from None
    if minimum is not None and v < minimum:
        raise _usage(f"--{key} must be >= {minimum}, got {v}")
    return v


def _parse_float(values: dict[str, str], key: str) -> float:
    try:
        return float(values[key])
    except ValueError:
        raise _usage(f"--{key} must be a number, got {values[key]!r}") from None


def _parse_choice(values: dict[str, str], key: str, choices: tuple[str, ...]) -> str:
    v = values[key]
    if v not in choices:
        raise _usage(f"--{key} must be one of {{{', '.join(choices)}}}, got {v!r}")
    return v


def _parse_split(values: dict[str, str]) -> tuple[float, float, float]:
    parts = values["split"].split(",")
    if len(parts) != 3:
        raise _usage(f"--split expects three comma-separated shares, got {values['split']!r}")
    try:
        shares = [float(p) for p in parts]
    except ValueError:
        raise _usage(f"--split shares must be numbers, got {values['split']!r}") from None
    total = sum(shares)
    if abs(total - 100.0) < 1e-6:
        shares = [s / 100.0 for s in shares]
    elif abs(total - 1.0) > 1e-9:
        raise _usage(f"--split shares must sum to 100 (or 1.0), got {values['split']!r}")
    return shares[0], shares[1], shares[2]


_PARSERS = {int: _parse_int, float: _parse_float}


def _build_classifier(values: dict[str, str], seed: int) -> ClassifierSpec:
    """The selected family's spec; its __post_init__ checks the bounds."""
    family = _FAMILIES[_parse_choice(values, "classifier", CLASSIFIER_NAMES)]
    fields = {
        field: _PARSERS[type(_FLAG_DEFAULTS[flag])](values, flag)
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
        raise _usage(f"--frame-list must be comma-separated integers, got {text!r}") from None


def build_config(values: dict[str, str]) -> PipelineConfig:
    """Build a PipelineConfig from flat key=value parameters.

    This is the parsing half of the config-file round trip; config_to_flat
    is its inverse.
    """
    try:
        modality = Modality(_parse_choice(
            values, "modality", ("coordinates", "velocity", "acceleration")))
        dims = _parse_int(values, "dims")
        if dims not in (2, 3):
            raise _usage(f"--dims must be 2 or 3, got {dims}")
        try:
            subset = parse_subset(values["joints"])
        except ValueError as exc:
            raise _usage(str(exc)) from None
        pca_enabled = _parse_choice(values, "pca", ("on", "off")) == "on"
        pca_var = _parse_float(values, "pca-var")
        seed = _parse_int(values, "seed", 0)
        train, test, val = _parse_split(values)
        stratify = StratifyBy(_parse_choice(values, "stratify", ("class", "participant")))
        folds = _parse_int(values, "folds", 2)
        classifier = _build_classifier(values, seed)
        return PipelineConfig(
            modality=modality,
            subset=subset,
            dims=dims,
            pca=PcaConfig(pca_enabled, pca_var),
            classifier=classifier,
            split=SplitPlan(train, test, val, stratify, seed),
            folds=folds,
            seed=seed,
            frame_positions=_parse_frame_list(values),
        )
    except HyperparameterError as exc:
        raise _usage(f"--{_FIELD_FLAGS[exc.field]}: {exc}") from None
    except ValueError as exc:
        raise _usage(str(exc)) from None


def config_to_flat(config: PipelineConfig) -> dict[str, str]:
    """Serialize a PipelineConfig to the flat key=value file format."""
    values = dict(_PIPELINE_DEFAULTS)
    values["modality"] = config.modality.value
    if config.subset.name == "custom":
        values["joints"] = "list:" + ",".join(j.name for j in config.subset.joints)
    else:
        values["joints"] = config.subset.name
    values["dims"] = str(config.dims)
    values["pca"] = "on" if config.pca.enabled else "off"
    values["pca-var"] = repr(config.pca.variance_threshold)
    values["split"] = ",".join(
        repr(v) for v in (config.split.train_frac, config.split.test_frac,
                          config.split.validation_frac)
    )
    values["stratify"] = config.split.stratify_by.value
    values["folds"] = str(config.folds)
    values["seed"] = str(config.seed)
    if config.frame_positions is not None:
        values["frame-list"] = ",".join(str(p) for p in config.frame_positions)
    family = family_of(config.classifier)
    values["classifier"] = family.name
    for flag, field in family.flags.items():
        values[flag] = repr(getattr(config.classifier, field))
    return values


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
    except (ValueError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc
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
        manifest = read_dataset(dataset)
        matrix = build_feature_matrix(manifest, config.modality, config.subset,
                                      config.dims, labeled=True,
                                      frame_positions=config.frame_positions)
        header = ",".join([f"f{i}" for i in range(matrix.n_features)] + ["label"])
        write_lines(output, header, (f"{row},{label}" for row, label
                                     in zip(format_sig9(matrix.rows), matrix.labels)))
    except (ValueError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"wrote {matrix.n_rows}x{matrix.n_features} feature matrix to {output}")


@main.command()
@click.argument("dataset", type=str)
@click.option("-o", "--output", "output", required=True, type=str,
              help="report bundle directory")
@_pipeline_options
def evaluate(dataset, output, config_path, **flags):
    """Run one experiment and persist its report bundle."""
    values = _resolve(config_path, **flags)
    config = build_config(values)
    try:
        # read_dataset has already validated every sequence: skip
        # run_experiment's check, which serves direct API callers
        matrix = build_feature_matrix(read_dataset(dataset), config.modality,
                                      config.subset, config.dims, labeled=True,
                                      frame_positions=config.frame_positions)
        result = run_matrix_experiment(config, matrix, out_dir=output)
    except (ValueError, OSError, RuntimeError) as exc:
        raise click.ClickException(str(exc)) from exc
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
                and token not in ("c9", "c18", "c28") and not token.startswith("list:")):
            items[-1] += "," + token
        else:
            items.append(token)
    if not items:
        raise _usage(f"--{key} grid axis is empty")
    return items


def _grid_row(config: PipelineConfig, result: ExperimentResult) -> str:
    flat = config_to_flat(config)
    flat["joints"] = flat["joints"].replace(",", ";")  # keep the CSV 7 columns wide
    return ",".join([*(flat[key] for key in _GRID_AXES),
                     f"{result.cv_report.overall_accuracy:.6f}",
                     f"{result.report.overall_accuracy:.6f}"])


@main.command()
@click.argument("dataset", type=str)
@click.option("-o", "--output", "output", required=True, type=str,
              help="destination CSV table path")
@click.option("--jobs", type=int, default=1, show_default=True,
              help="threads that run the grid cells; more were measured "
                   "slower, since the cells hold the GIL")
@_pipeline_options
def grid(dataset, output, jobs, config_path, **flags):
    """Run a cartesian grid of configurations and tabulate accuracies.

    The axes --modality, --joints, --dims, --pca, and --classifier accept
    comma-separated value lists; all other parameters are fixed across the
    grid. Rows appear in declaration order (modality outermost, classifier
    innermost) regardless of execution order.
    """
    values = _resolve(config_path, **flags)
    if jobs < 1:
        raise _usage("--jobs must be >= 1")
    cells = [build_config({**values, **dict(zip(_GRID_AXES, combo))})
             for combo in itertools.product(*(_grid_axis(values, key) for key in _GRID_AXES))]

    try:
        manifest = read_dataset(dataset)
        matrices, cell_matrices = {}, []
        for config in cells:
            # custom subsets share the name "custom", so key on the joints
            key = (config.modality, config.subset.joints, config.dims)
            if key not in matrices:
                matrices[key] = build_feature_matrix(
                    manifest, config.modality, config.subset, config.dims,
                    labeled=True, frame_positions=config.frame_positions,
                )
            cell_matrices.append(matrices[key])

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_matrix_experiment, cells, cell_matrices))

        write_lines(output, ",".join(_GRID_AXES) + ",cv_accuracy,validation_accuracy",
                    map(_grid_row, cells, results))
    except (ValueError, OSError, RuntimeError) as exc:
        raise click.ClickException(str(exc)) from exc
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

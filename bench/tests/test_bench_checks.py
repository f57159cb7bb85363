"""The benchmark's checks pass on real outputs and fail on corrupted ones.

Run with: python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from checks import (
    CheckError,
    check_grid_table,
    check_ingest,
    check_report,
    check_svm_model,
)
from run import BENCH, MIN_ROUNDS, Command, EvaluateSvm, GridAblation, Ingest, Round, Run
from tracer import layer_metrics, self_times

SEED = 3


def _round(workload) -> Path:
    rnd = Round(workload, traced=False)
    assert not rnd.failed, rnd.commands[-1].error
    return rnd.out


@pytest.fixture(scope="module")
def svm_run(tmp_path_factory):
    workload = EvaluateSvm(tmp_path_factory.mktemp("svm"))
    workload.prepare()
    return workload, _round(workload) / "bundle"


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    workload = GridAblation(tmp_path_factory.mktemp("grid"))
    workload.prepare()
    return workload, _round(workload) / "table.csv"


@pytest.fixture(scope="module")
def ingest_run(tmp_path_factory):
    workload = Ingest(tmp_path_factory.mktemp("ingest"))
    workload.participants = 3
    return workload, _round(workload)


def _copy(src: Path, tmp_path: Path) -> Path:
    dst = tmp_path / src.name
    shutil.copytree(src, dst)
    return dst


# ---------------------------------------------------------------------------
# evaluate-svm
# ---------------------------------------------------------------------------

def _model(bundle: Path) -> dict:
    return json.loads((bundle / "model.json").read_text(encoding="utf-8"))


def _svm_report(workload, bundle: Path) -> float:
    return check_report(bundle, workload.participants * 51, workload.accuracy_floor)


def test_svm_bundle_passes(svm_run):
    workload, bundle = svm_run
    assert _svm_report(workload, bundle) >= workload.accuracy_floor
    figures = check_svm_model(_model(bundle))
    assert 0 < figures["support_vectors"] < figures["stored_rows"]
    assert figures["max_kkt_residual"] <= 1e-3


def _edit_confusion_csv(bundle: Path, row: int, src: int, dst: int) -> None:
    path = bundle / "confusion.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[row].split(",")
    fields[src] = str(int(fields[src]) - 1)
    fields[dst] = str(int(fields[dst]) + 1)
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_moved_count_in_confusion_csv_fails(svm_run, tmp_path):
    workload, good = svm_run
    bundle = _copy(good, tmp_path)
    _edit_confusion_csv(bundle, row=1, src=1, dst=2)  # class 1: one hit becomes a miss
    with pytest.raises(CheckError, match="confusion.csv differs"):
        _svm_report(workload, bundle)


def _edit_report(bundle: Path, edit) -> None:
    path = bundle / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    edit(report)
    path.write_text(json.dumps(report), encoding="utf-8")


def _rewrite_confusion_csv(bundle: Path) -> None:
    confusion = json.loads((bundle / "report.json").read_text(encoding="utf-8"))["confusion"]
    lines = ["true\\pred," + ",".join(str(c) for c in range(1, 10))]
    lines += [f"{c}," + ",".join(str(v) for v in row) for c, row in enumerate(confusion, 1)]
    (bundle / "confusion.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_extra_validation_row_fails(svm_run, tmp_path):
    workload, good = svm_run
    bundle = _copy(good, tmp_path)

    def add_row(report):
        report["confusion"][0][0] += 1

    _edit_report(bundle, add_row)
    _rewrite_confusion_csv(bundle)
    with pytest.raises(CheckError, match="validation rows"):
        _svm_report(workload, bundle)


def test_accuracy_not_trace_over_total_fails(svm_run, tmp_path):
    workload, good = svm_run
    bundle = _copy(good, tmp_path)

    def shift(report):
        report["overall_accuracy"] -= 0.01

    _edit_report(bundle, shift)
    with pytest.raises(CheckError, match="trace/total"):
        _svm_report(workload, bundle)


def test_accuracy_below_floor_fails(svm_run, tmp_path):
    workload, good = svm_run
    bundle = _copy(good, tmp_path)

    def misclassify(report):
        confusion = np.array(report["confusion"])
        for c in range(9):  # half of each class predicted as the next class
            moved = confusion[c, c] // 2
            confusion[c, c] -= moved
            confusion[c, (c + 1) % 9] += moved
        report["confusion"] = confusion.tolist()
        report["overall_accuracy"] = float(np.trace(confusion)) / float(confusion.sum())

    _edit_report(bundle, misclassify)
    _rewrite_confusion_csv(bundle)
    with pytest.raises(CheckError, match="below"):
        _svm_report(workload, bundle)


def test_dropped_score_row_fails(svm_run, tmp_path):
    workload, good = svm_run
    bundle = _copy(good, tmp_path)
    path = bundle / "scores.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(CheckError, match="scores.csv"):
        _svm_report(workload, bundle)


def _support_vector(machine: dict) -> int:
    return int(np.flatnonzero(np.asarray(machine["alphas"]) > 0)[0])


def test_perturbed_alpha_fails(svm_run):
    model = _model(svm_run[1])
    machine = model["classifier"]["machines"][0]
    machine["alphas"][_support_vector(machine)] *= 1.01
    with pytest.raises(CheckError, match="sum\\(alpha"):
        check_svm_model(model)


def test_alpha_outside_box_fails(svm_run):
    model = _model(svm_run[1])
    machine = model["classifier"]["machines"][3]
    machine["alphas"][0] = -0.25
    with pytest.raises(CheckError, match="outside"):
        check_svm_model(model)


def test_balanced_alpha_shift_breaks_kkt(svm_run):
    # moving weight between two same-label rows keeps sum(alpha*y) = 0, so
    # only the recomputed decision values can catch it
    model = _model(svm_run[1])
    machine = model["classifier"]["machines"][5]
    alphas = np.asarray(machine["alphas"])
    y = np.asarray(machine["train_y"])
    i = _support_vector(machine)
    j = int(np.flatnonzero((alphas == 0) & (y == y[i]))[0])
    delta = alphas[i] / 2
    alphas[i] -= delta
    alphas[j] += delta
    machine["alphas"] = alphas.tolist()
    with pytest.raises(CheckError, match="KKT residual"):
        check_svm_model(model)


def test_shifted_bias_breaks_kkt(svm_run):
    model = _model(svm_run[1])
    model["classifier"]["machines"][7]["bias"] += 0.01
    with pytest.raises(CheckError, match="KKT residual"):
        check_svm_model(model)


# ---------------------------------------------------------------------------
# grid-ablation
# ---------------------------------------------------------------------------

def _grid_check(workload, text: str):
    return check_grid_table(text, workload.expected_keys(), workload.accuracy_floor)


def test_grid_table_passes_and_matches_one_job(grid_run, tmp_path):
    workload, table = grid_run
    text = table.read_text(encoding="utf-8")
    assert len(_grid_check(workload, text)) == 24
    serial = tmp_path / "serial.csv"
    cmd = Command(workload.grid_args(serial, jobs=1))
    assert cmd.ok, cmd.error
    assert serial.read_text(encoding="utf-8") == text


def _grid_lines(grid_run) -> list[str]:
    return grid_run[1].read_text(encoding="utf-8").splitlines()


def test_grid_dropped_row_fails(grid_run):
    lines = _grid_lines(grid_run)
    with pytest.raises(CheckError, match="23 rows"):
        _grid_check(grid_run[0], "\n".join(lines[:-1]))


def test_grid_rows_out_of_order_fail(grid_run):
    lines = _grid_lines(grid_run)
    lines[1], lines[2] = lines[2], lines[1]
    with pytest.raises(CheckError, match="declared"):
        _grid_check(grid_run[0], "\n".join(lines))


def test_grid_accuracy_outside_unit_interval_fails(grid_run):
    lines = _grid_lines(grid_run)
    fields = lines[10].split(",")
    fields[6] = "1.200000"
    lines[10] = ",".join(fields)
    with pytest.raises(CheckError, match=r"outside \[0, 1\]"):
        _grid_check(grid_run[0], "\n".join(lines))


def test_grid_family_below_floor_fails(grid_run):
    lines = _grid_lines(grid_run)
    fields = lines[4].split(",")  # coordinates, PCA off, mlp
    fields[5] = "0.500000"
    lines[4] = ",".join(fields)
    with pytest.raises(CheckError, match="mlp scores"):
        _grid_check(grid_run[0], "\n".join(lines))


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def _ingest_check(workload, out: Path) -> None:
    check_ingest(out / "data.csv", out / "features.csv", workload.participants,
                 workload.frames)


def test_ingest_outputs_pass(ingest_run):
    _ingest_check(*ingest_run)


def _edit_line(path: Path, line_no: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[line_no].split(",")
    edit(fields)
    lines[line_no] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_shifted_feature_value_fails(ingest_run, tmp_path):
    workload, good = ingest_run
    out = _copy(good, tmp_path)

    def shift(fields):
        fields[40] = repr(float(fields[40]) * (1 + 1e-7))

    _edit_line(out / "features.csv", 100, shift)
    with pytest.raises(CheckError, match="line 101 f40"):
        _ingest_check(workload, out)


def test_changed_feature_label_fails(ingest_run, tmp_path):
    workload, good = ingest_run
    out = _copy(good, tmp_path)

    def relabel(fields):
        fields[-1] = str(int(fields[-1]) % 9 + 1)

    _edit_line(out / "features.csv", 7, relabel)
    with pytest.raises(CheckError, match="labels disagree"):
        _ingest_check(workload, out)


def test_moved_joint_in_dataset_fails(ingest_run, tmp_path):
    # a coordinate inside the centred window no longer matches the features
    workload, good = ingest_run
    out = _copy(good, tmp_path)
    start = (workload.frames - 51) // 2

    def move(fields):
        fields[3 + 3 * 13] = repr(float(fields[3 + 3 * 13]) + 0.05)  # RHand_x

    _edit_line(out / "data.csv", 1 + start + 10, move)
    with pytest.raises(CheckError, match="values differ"):
        _ingest_check(workload, out)


def test_missing_dataset_row_fails(ingest_run, tmp_path):
    workload, good = ingest_run
    out = _copy(good, tmp_path)
    path = out / "data.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(CheckError, match="data.csv"):
        _ingest_check(workload, out)


def test_missing_feature_column_fails(ingest_run, tmp_path):
    workload, good = ingest_run
    out = _copy(good, tmp_path)
    path = out / "features.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(",".join(line.split(",")[1:]) for line in lines) + "\n",
                    encoding="utf-8")
    with pytest.raises(CheckError, match="features.csv"):
        _ingest_check(workload, out)


# ---------------------------------------------------------------------------
# repetitions, tracing and the runner itself
# ---------------------------------------------------------------------------

class _DriftingIngest(Ingest):
    """Writes a different dataset in every round, as a nondeterministic program would."""

    participants = 1
    calls = 0

    def commands(self, out: Path) -> list[list[str]]:
        self.calls += 1
        self.seed = SEED + self.calls
        return super().commands(out)


def test_outputs_that_differ_across_repetitions_fail(tmp_path):
    run = Run(_DriftingIngest(tmp_path), seconds=0, traced=False)
    assert any("differ across" in e for e in run.errors)


def test_steady_outputs_pass_repetitions(tmp_path):
    workload = Ingest(tmp_path)
    workload.participants = 1
    run = Run(workload, seconds=0, traced=True)
    assert run.errors == []
    metrics = layer_metrics(run.rounds[0][1].traces, jobs=1)
    assert metrics["dataset.frames"] == 9 * workload.frames
    assert metrics["features.rows"] == 9 * 51
    assert metrics["dataset.generate_s"] > 0 and metrics["cli.extract_write_s"] > 0


class _FailingIngest(Ingest):
    """Extracts from a file that does not exist, so every command fails."""

    def commands(self, out: Path) -> list[list[str]]:
        return [["extract", str(out / "missing.csv"), "-o", str(out / "features.csv")]]


def test_failed_commands_fail_the_run_and_are_counted(tmp_path):
    run = Run(_FailingIngest(tmp_path), seconds=0, traced=False)
    assert run.attempted == run.failed == len(run.rounds) == 1 + MIN_ROUNDS
    assert len(run.setup_s) == MIN_ROUNDS  # none before the untimed warm-up round
    assert run.ok == []
    assert any("commands failed" in e for e in run.errors)


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        [1, "cli.grid", 0.0, 10.0, None],
        [2, "evaluation.experiment", 1.0, 6.0, 1],  # two cells on two threads
        [3, "evaluation.experiment", 4.0, 9.0, 1],
        [4, "tree.train", 2.0, 3.0, 2],
    ]
    own = self_times(spans)
    assert own == {1: pytest.approx(2.0), 2: pytest.approx(4.0), 3: pytest.approx(5.0),
                   4: pytest.approx(1.0)}
    metrics = layer_metrics([{"spans": spans, "counters": {}}], jobs=2)
    assert metrics["cli.cells"] == 2
    assert metrics["cli.pool_utilisation"] == pytest.approx(10.0 / (2 * 8.0))


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""

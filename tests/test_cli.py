import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from oracles import bundle_json_text

import skelhar.classifiers
import skelhar.cli
import skelhar.dataset
import skelhar.evaluation
import skelhar.gridworker
from skelhar import (
    BaggedTreesSpec,
    CubicSvmSpec,
    FineKnnSpec,
    FineTreeSpec,
    JointId,
    JointSubset,
    LinearDiscriminantSpec,
    MlpSpec,
    Modality,
    PcaConfig,
    PipelineConfig,
    SplitPlan,
    StratifyBy,
    read_dataset,
    run_experiment,
    run_matrix_experiment,
    validate_sequence,
)
from skelhar.classifiers import FAMILIES
from skelhar.cli import (
    _PIPELINE_DEFAULTS,
    CLASSIFIER_NAMES,
    _plan_workers,
    build_config,
    config_to_flat,
    main,
)


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory, runner):
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    result = runner.invoke(main, ["synth", "--participants", "2", "--frames", "51",
                                  "--seed", "7", "-o", str(path)])
    assert result.exit_code == 0, result.output
    return path


# cells that tests run in place of cli.run_cell; the forked grid workers
# inherit the patch
def _die_in_the_first_cell(config, matrix):
    os._exit(3)


def _fail_knn_cells_last(config, matrix):
    name = type(config.classifier).__name__
    if name == "FineKnnSpec":
        time.sleep(0.5)
    return f"{name} failed"


def _use_cpus(monkeypatch, n):
    """Let grid see `n` usable CPUs, so that it starts up to `n` workers."""
    monkeypatch.setattr(skelhar.cli, "_usable_cpus", lambda: n)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh_env(**variables):
    """This environment with the package's sources on the path and none of
    the BLAS thread variables that `import skelhar` set here, plus
    `variables`."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return {**env, **variables}


def _run_skelhar(args, blas_threads):
    """Run the CLI in a fresh interpreter whose OpenBLAS uses `blas_threads`,
    or, for None, the threads that `import skelhar` chooses."""
    env = _fresh_env() if blas_threads is None else _fresh_env(
        OPENBLAS_NUM_THREADS=blas_threads)
    subprocess.run([sys.executable, "-m", "skelhar", *args], env=env, check=True,
                   capture_output=True, timeout=120)


def _count_forks(monkeypatch) -> list[int]:
    """The pids of the processes this process forks from now on."""
    forks, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def _fold_workers_fit_with(monkeypatch, marker, in_worker, in_command=None):
    """Patch the k-NN trainer: a fold worker touches `marker` and returns
    in_worker(), and this process waits for the marker before its first fit
    (the final one), so that a worker has taken fold 1 by then. This
    process's fits then call in_command(), or train."""
    command, train = os.getpid(), skelhar.classifiers._TRAINERS[FineKnnSpec]

    def trainer(spec, x, y):
        if os.getpid() != command:
            marker.touch()
            return in_worker()
        deadline = time.monotonic() + 60
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return (in_command or train)(spec, x, y)

    monkeypatch.setitem(skelhar.classifiers._TRAINERS, FineKnnSpec, trainer)


class TestSynth:
    def test_writes_expected_sequences(self, runner, tmp_path):
        out = tmp_path / "d.csv"
        result = runner.invoke(main, ["synth", "--participants", "2", "--frames",
                                      "52", "--seed", "1", "-o", str(out)])
        assert result.exit_code == 0
        assert "18 sequences" in result.output
        assert len(out.read_text().splitlines()) == 1 + 18 * 52

    def test_byte_identical_reruns(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--participants", "1", "--frames", "51", "--noise", "0",
                "--seed", "3"]
        assert runner.invoke(main, args + ["-o", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["-o", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_output_is_usage_error(self, runner):
        result = runner.invoke(main, ["synth", "--participants", "1"])
        assert result.exit_code == 2

    def test_bad_frame_count_is_runtime_error(self, runner, tmp_path):
        result = runner.invoke(main, ["synth", "--frames", "10", "-o",
                                      str(tmp_path / "x.csv")])
        assert result.exit_code == 1

    @pytest.mark.parametrize("noise", ["nan", "inf", "1e308"])
    def test_non_finite_noise_is_runtime_error(self, runner, tmp_path, noise):
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["synth", "--participants", "1", "--noise", noise,
                                      "-o", str(out)])
        assert result.exit_code == 1
        assert "noise_sigma" in result.output
        assert not out.exists()

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.csv"
            _run_skelhar(["synth", "--participants", "1", "--seed", "0", "-o", str(out)],
                         threads)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


# sha256 of `synth --participants 2 --seed 0` and of its three `extract` files,
# as the one-"%.9g"-format-per-row writer wrote them
_WRITTEN_SHA256 = {
    "dataset.csv": "07f7cbd903d0418f3af8aafded7f69bb59a65ba8d496a7782a9c5efbba035498",
    "coordinates.csv": "49d206dc430faf83bfb5835a54eaa2a189ad0e83c24467e6e265c8f0ecb85259",
    "velocity.csv": "4b5b48b4269b66df9a7f35031131f854a1a84c1ed1bf5a46cf677c5132a0a3aa",
    "acceleration.csv": "82ab70096b4fa8ceead6aba9496beaeab068c914c4daf202108fa5598065fc72",
}


def test_synth_and_extract_write_the_recorded_bytes(tmp_path):
    dataset = tmp_path / "dataset.csv"
    _run_skelhar(["synth", "--participants", "2", "--seed", "0", "-o", str(dataset)], "1")
    for modality in ("coordinates", "velocity", "acceleration"):
        _run_skelhar(["extract", str(dataset), "--modality", modality,
                      "-o", str(tmp_path / f"{modality}.csv")], "1")
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in _WRITTEN_SHA256} == _WRITTEN_SHA256


class TestExtract:
    def test_feature_file_shape(self, runner, dataset_file, tmp_path):
        out = tmp_path / "features.csv"
        result = runner.invoke(main, ["extract", str(dataset_file), "--modality",
                                      "velocity", "--joints", "c9", "-o", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 18 * 50
        assert lines[0].split(",") == [f"f{i}" for i in range(24)] + ["label"]

    def test_unknown_subset_is_usage_error(self, runner, dataset_file, tmp_path):
        result = runner.invoke(main, ["extract", str(dataset_file), "--joints",
                                      "c12", "-o", str(tmp_path / "x.csv")])
        assert result.exit_code == 2
        assert "c9" in result.output and "c18" in result.output and "c28" in result.output

    def test_unknown_flag_is_usage_error(self, runner, dataset_file, tmp_path):
        result = runner.invoke(main, ["extract", str(dataset_file), "--bogus", "1",
                                      "-o", str(tmp_path / "x.csv")])
        assert result.exit_code == 2

    def test_missing_dataset_is_runtime_error(self, runner, tmp_path):
        result = runner.invoke(main, ["extract", str(tmp_path / "nope.csv"), "-o",
                                      str(tmp_path / "x.csv")])
        assert result.exit_code == 1

    def test_explicit_frame_list(self, runner, dataset_file, tmp_path):
        frames = ",".join(str(i) for i in range(51))
        out = tmp_path / "explicit.csv"
        result = runner.invoke(main, ["extract", str(dataset_file), "--joints", "c9",
                                      "--frame-list", frames, "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert len(out.read_text().splitlines()) == 1 + 18 * 51

        result = runner.invoke(main, ["extract", str(dataset_file), "--frame-list",
                                      "1,2,3", "-o", str(tmp_path / "y.csv")])
        assert result.exit_code == 1  # wrong budget is a data error at extraction


class TestEvaluate:
    def test_bundle_and_determinism(self, runner, dataset_file, tmp_path):
        args = ["evaluate", str(dataset_file), "--classifier", "knn",
                "--joints", "c9", "--seed", "5"]
        a, b = tmp_path / "ra", tmp_path / "rb"
        assert runner.invoke(main, args + ["-o", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["-o", str(b)]).exit_code == 0
        for name in ("report.json", "confusion.csv", "scores.csv", "config.json",
                     "model.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        # knn on the separable synthetic data lands well above 0.90
        report = json.loads((a / "report.json").read_text())
        assert report["overall_accuracy"] >= 0.90

    def test_validates_each_sequence_once_and_matches_the_api_bundle(
            self, runner, dataset_file, tmp_path, monkeypatch):
        calls = []

        def counting(seq):
            calls.append(seq)
            return validate_sequence(seq)

        monkeypatch.setattr(skelhar.dataset, "validate_sequence", counting)
        monkeypatch.setattr(skelhar.evaluation, "validate_sequence", counting)
        flags = {"classifier": "tree", "joints": "c18", "seed": "3"}
        args = [f"--{k}={v}" for k, v in flags.items()]
        out = tmp_path / "cli"
        result = runner.invoke(main, ["evaluate", str(dataset_file), *args, "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert len(calls) == 2 * 9  # 2 participants x 9 activities, once each

        config = build_config({**_PIPELINE_DEFAULTS, **flags})
        run_experiment(config, read_dataset(dataset_file), out_dir=tmp_path / "api")
        for name in ("report.json", "confusion.csv", "scores.csv", "config.json",
                     "model.json"):
            assert (out / name).read_bytes() == (tmp_path / "api" / name).read_bytes()

    def test_config_echoes_mlp_width(self, runner, dataset_file, tmp_path):
        out = tmp_path / "mlp"
        result = runner.invoke(main, ["evaluate", str(dataset_file), "--classifier",
                                      "mlp", "--hidden", "175", "--epochs", "2",
                                      "--joints", "c9", "-o", str(out)])
        assert result.exit_code == 0, result.output
        config = json.loads((out / "config.json").read_text())
        assert config["classifier"]["name"] == "mlp"
        assert config["classifier"]["hidden_width"] == 175

    @pytest.mark.parametrize("flag, args", [
        ("--svm-tol", ["--classifier", "svm-cubic", "--svm-tol", "nan"]),
        ("--svm-c", ["--classifier", "svm-cubic", "--svm-c", "nan"]),
        ("--svm-c", ["--classifier", "svm-cubic", "--svm-c", "0"]),
        ("--lr", ["--classifier", "mlp", "--lr", "nan"]),
        ("--lr", ["--classifier", "mlp", "--lr", "inf"]),
        ("--pca-var", ["--pca", "off", "--pca-var", "nan"]),
        ("--pca-var", ["--pca", "on", "--pca-var", "nan"]),
        ("--knn-k", ["--classifier", "knn", "--knn-k", "0"]),
        ("--dims", ["--dims", "4"]),
        ("--folds", ["--folds", "1"]),
        ("--seed", ["--seed", "-1"]),
        ("--seed", ["--seed", str(2**64)]),
        ("--split", ["--split", "50,50,0"]),
        ("--split", ["--split", "0.5,nan,0.5"]),
    ])
    def test_bad_hyperparameter_is_usage_error_naming_the_flag(self, runner, tmp_path,
                                                              flag, args):
        # the dataset is never read: a rejected value must stop the command
        # while its flags are parsed, before any data is loaded or trained on
        result = runner.invoke(main, ["evaluate", str(tmp_path / "never-read.csv"),
                                      *args, "-o", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert flag in result.output

    def test_diverging_mlp_exits_1_and_writes_no_bundle(self, runner, dataset_file,
                                                        tmp_path):
        out = tmp_path / "mlp"
        result = runner.invoke(main, ["evaluate", str(dataset_file), "--classifier", "mlp",
                                      "--lr", "1e6", "--joints", "c9", "-o", str(out)])
        assert result.exit_code == 1
        assert "non-finite weights at learning rate 1000000.0 (--lr)" in result.stderr
        # the error alone, without numpy's overflow warnings before it
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert not out.exists()

    def test_show_report(self, runner, dataset_file, tmp_path):
        out = tmp_path / "rep"
        assert runner.invoke(main, ["evaluate", str(dataset_file), "--joints", "c9",
                                    "-o", str(out)]).exit_code == 0
        result = runner.invoke(main, ["show-report", str(out)])
        assert result.exit_code == 0
        assert "overall accuracy" in result.output

    @pytest.mark.parametrize("report, message", [
        ("[1, 2]", "expected a JSON object, not list"),
        ('{"overall_accuracy": 0.5}', "missing field 'group_accuracy'"),
        ('{"overall_accuracy": "0.5", "group_accuracy": {}}',
         "field 'overall_accuracy' has the wrong type"),
        ('{"overall_accuracy": 0.5, "group_accuracy": {}, "fold_accuracies": [null]}',
         "field 'fold_accuracies' has the wrong type"),
    ])
    def test_show_report_names_the_file_and_the_bad_field(self, runner, tmp_path,
                                                         report, message):
        (tmp_path / "report.json").write_text(report, encoding="utf-8")
        result = runner.invoke(main, ["show-report", str(tmp_path)])
        assert result.exit_code == 1, result.output
        assert f"{tmp_path / 'report.json'}: {message}" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_mlp_bundle_does_not_depend_on_blas_threads(self, tmp_path):
        # the trainer's BLAS calls write into views and read transposed views;
        # svm-cubic is left out: its kernel sums are known to depend on the
        # thread count
        data = tmp_path / "data.csv"
        _run_skelhar(["synth", "--participants", "1", "--seed", "0", "-o", str(data)], "1")
        bundles = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            _run_skelhar(["evaluate", str(data), "--classifier", "mlp", "--epochs", "3",
                          "-o", str(out)], threads)
            bundles.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert len(bundles[0]) == 5
        assert bundles[0] == bundles[1]

    def test_svm_cubic_bundle_is_the_one_blas_thread_bundle_by_default(self, tmp_path):
        # unset, the BLAS thread variables are pinned to 1 before numpy loads
        data = tmp_path / "data.csv"
        _run_skelhar(["synth", "--participants", "2", "--seed", "0", "-o", str(data)], "1")
        bundles = []
        for threads in (None, "1"):
            out = tmp_path / f"threads{threads}"
            _run_skelhar(["evaluate", str(data), "--classifier", "svm-cubic", "-o", str(out)],
                         threads)
            bundles.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert len(bundles[0]) == 5
        assert bundles[0] == bundles[1]

    @pytest.mark.parametrize("family", CLASSIFIER_NAMES)
    def test_every_worker_count_gives_the_same_bundle(self, runner, dataset_file, tmp_path,
                                                      monkeypatch, family):
        # one CPU runs every fit in this process, the reference; 2 and 3 CPUs
        # fork 1 and 2 fold workers
        bundles, forked, forks = {}, {}, _count_forks(monkeypatch)
        for cpus in (1, 2, 3):
            _use_cpus(monkeypatch, cpus)
            before = len(forks)
            out = tmp_path / f"cpus{cpus}"
            result = runner.invoke(main, ["evaluate", str(dataset_file), "--classifier", family,
                                          "--bagged-trees", "3", "--epochs", "5",
                                          "-o", str(out)])
            assert result.exit_code == 0, result.output
            bundles[cpus] = {path.name: path.read_bytes() for path in out.iterdir()}
            forked[cpus] = len(forks) - before
        assert sorted(bundles[1]) == ["config.json", "confusion.csv", "model.json",
                                      "report.json", "scores.csv"]
        assert bundles[2] == bundles[1] and bundles[3] == bundles[1]
        assert forked == {1: 0, 2: 1, 3: 2}

    def test_a_fold_that_fails_only_in_a_worker_fails_as_in_process(
            self, runner, dataset_file, tmp_path, monkeypatch):
        def broken(*args):
            raise ValueError("the k-NN trainer broke")

        args = ["evaluate", str(dataset_file), "--classifier", "knn", "--joints", "c9"]
        # the reference: on one CPU, with every fit broken
        _use_cpus(monkeypatch, 1)
        with monkeypatch.context() as patch:
            patch.setitem(skelhar.classifiers._TRAINERS, FineKnnSpec, broken)
            in_process = runner.invoke(main, args + ["-o", str(tmp_path / "in-process")])
        assert in_process.exit_code == 1
        assert in_process.stderr == "Error: the k-NN trainer broke\n"
        assert not (tmp_path / "in-process").exists()

        old = tmp_path / "old"
        assert runner.invoke(main, args + ["--seed", "5", "-o", str(old)]).exit_code == 0
        before = {path.name: path.read_bytes() for path in old.iterdir()}
        _use_cpus(monkeypatch, 2)
        for out in (old, tmp_path / "new"):
            marker = tmp_path / f"{out.name} taken"
            _fold_workers_fit_with(monkeypatch, marker, broken)
            result = runner.invoke(main, args + ["-o", str(out)])
            assert marker.exists()
            assert (result.exit_code, result.stderr) == (1, in_process.stderr)
        # the final fit succeeded and wrote its files, which are gone
        assert {path.name: path.read_bytes() for path in old.iterdir()} == before
        assert not (tmp_path / "new").exists()

    def test_a_fold_worker_that_dies_is_named_with_its_fold(self, runner, dataset_file,
                                                            tmp_path, monkeypatch):
        _use_cpus(monkeypatch, 2)
        _fold_workers_fit_with(monkeypatch, tmp_path / "taken", lambda: os._exit(3))
        out = tmp_path / "bundle"
        result = runner.invoke(main, ["evaluate", str(dataset_file), "--classifier", "knn",
                                      "--joints", "c9", "-o", str(out)])
        assert result.exit_code == 1
        assert result.stderr == "Error: fold 1/5: its worker stopped with exit code 3\n"
        assert not out.exists()

    def test_a_fold_that_fails_in_a_worker_starts_no_further_fold(self, runner, dataset_file,
                                                                  tmp_path, monkeypatch):
        def broken(*args):
            raise ValueError("the k-NN trainer broke")

        def in_command(spec, x, y):
            if not fits:  # the final fit: once the worker, failed in fold 1, has exited
                os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)
            fits.append(len(y))
            return train(spec, x, y)

        fits, forks = [], _count_forks(monkeypatch)
        train = skelhar.classifiers._TRAINERS[FineKnnSpec]
        _use_cpus(monkeypatch, 2)
        _fold_workers_fit_with(monkeypatch, tmp_path / "taken", broken, in_command)
        out = tmp_path / "bundle"
        result = runner.invoke(main, ["evaluate", str(dataset_file), "--classifier", "knn",
                                      "--joints", "c9", "-o", str(out)])
        assert (result.exit_code, result.stderr) == (1, "Error: the k-NN trainer broke\n")
        assert len(fits) == 1  # the final fit, and no fold
        assert not out.exists()

    def test_ctrl_c_during_the_folds_ends_every_fold_worker(self, runner, dataset_file,
                                                            tmp_path, monkeypatch):
        def interrupt(*args):
            raise KeyboardInterrupt

        # three fold workers, each in a fold that would take a minute; the
        # autouse fixture checks that they were ended and waited for
        _use_cpus(monkeypatch, 4)
        _fold_workers_fit_with(monkeypatch, tmp_path / "taken", lambda: time.sleep(60),
                               interrupt)
        out = tmp_path / "bundle"
        start = time.monotonic()
        result = runner.invoke(main, ["evaluate", str(dataset_file), "--classifier", "knn",
                                      "--joints", "c9", "-o", str(out)])
        assert result.exit_code == 1
        assert "Aborted!" in result.stderr
        assert time.monotonic() - start < 30
        assert not out.exists()

    @pytest.mark.parametrize("family", [f.name for f in FAMILIES])
    def test_bundle_json_is_the_bundle_layout(self, runner, dataset_file, tmp_path, family):
        out = tmp_path / family
        result = runner.invoke(main, ["evaluate", str(dataset_file), "--classifier", family,
                                      "--joints", "c9", "--bagged-trees", "3",
                                      "--epochs", "5", "-o", str(out)])
        assert result.exit_code == 0, result.output
        for name in ("report.json", "config.json", "model.json"):
            text = (out / name).read_text(encoding="utf-8")
            assert text == bundle_json_text(json.loads(text)) + "\n"


class TestOutOfMemory:
    """A size that cannot be allocated ends in a located exit 1, not a
    traceback. The address-space limit is set in the child only."""

    _LIMIT = 2 << 30  # bytes: room for the interpreter and numpy, not for the sizes

    @staticmethod
    def _limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (TestOutOfMemory._LIMIT,) * 2)

    @pytest.mark.parametrize("args", [
        ["evaluate", "{data}", "--classifier", "mlp", "--hidden", "100000000",
         "--joints", "c9", "-o", "{out}"],
        ["grid", "{data}", "--classifier", "knn,mlp", "--hidden", "100000000",
         "--joints", "c9", "-o", "{out}"],
        ["synth", "--participants", "1", "--frames", "100000000", "-o", "{out}"],
    ], ids=["evaluate", "grid", "synth"])
    def test_exits_1_naming_the_memory_and_writes_nothing(self, dataset_file, tmp_path,
                                                           args):
        out = tmp_path / "out"
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "skelhar",
             *(a.format(data=dataset_file, out=out) for a in args)],
            env=_fresh_env(), preexec_fn=self._limit_address_space,
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert re.match(r"Error: (cell \S+ \S+: )?out of memory: Unable to allocate ",
                        proc.stderr.splitlines()[-1]), proc.stderr
        assert "Traceback" not in proc.stderr
        assert time.monotonic() - start < 20
        assert not out.exists()


class TestGrid:
    def test_modality_by_classifier_grid(self, runner, dataset_file, tmp_path):
        out = tmp_path / "grid.csv"
        result = runner.invoke(main, [
            "grid", str(dataset_file), "--modality",
            "coordinates,velocity,acceleration", "--classifier", "knn,tree",
            "--joints", "c9", "-o", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 6
        assert lines[1].startswith("coordinates,c9,3,off,knn")
        assert lines[2].startswith("coordinates,c9,3,off,tree")
        assert lines[3].startswith("velocity,c9,3,off,knn")

    def test_table_v_shaped_grid(self, runner, dataset_file, tmp_path):
        out = tmp_path / "grid2.csv"
        result = runner.invoke(main, [
            "grid", str(dataset_file), "--joints", "c9,c18,c28", "--dims", "2,3",
            "--pca", "on,off", "--classifier", "knn", "-o", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert len(out.read_text().splitlines()) == 1 + 12

    def test_every_worker_count_gives_the_same_table(self, runner, dataset_file, tmp_path,
                                                     monkeypatch):
        # one CPU runs the cells in this process, the reference; 2 and 3 CPUs
        # fork as many workers, and this process runs no cell
        args = ["grid", str(dataset_file), "--modality", "coordinates,velocity",
                "--joints", "c9", "--pca", "off,on", "--classifier", ",".join(CLASSIFIER_NAMES),
                "--bagged-trees", "3", "--epochs", "5"]
        tables, lines, forked, forks = {}, {}, {}, _count_forks(monkeypatch)
        for cpus in (1, 2, 3):
            _use_cpus(monkeypatch, cpus)
            before = len(forks)
            out = tmp_path / f"cpus{cpus}.csv"
            result = runner.invoke(main, args + ["-o", str(out)])
            assert result.exit_code == 0, result.output
            tables[cpus] = out.read_bytes()
            # each cell's line, in table order, without its seconds
            lines[cpus] = [re.sub(r", \d+\.\d\d s$", "", line)
                           for line in result.stderr.splitlines()]
            forked[cpus] = len(forks) - before
        assert len(tables[1].splitlines()) == 1 + 2 * 2 * len(CLASSIFIER_NAMES)
        assert tables[2] == tables[1] and tables[3] == tables[1]
        assert lines[2] == lines[1] and lines[3] == lines[1]
        assert forked == {1: 0, 2: 2, 3: 3}

    def test_a_failing_cell_in_a_worker_is_named_as_in_process(self, runner, dataset_file,
                                                               tmp_path, monkeypatch):
        # k-NN fails in cells 1 and 3; LDA succeeds in cells 2 and 4, but no
        # line follows the first failure in table order
        errors = {}
        for cpus in (1, 2):
            _use_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{cpus}.csv"
            result = runner.invoke(main, ["grid", str(dataset_file), "--modality",
                                          "coordinates,velocity", "--classifier", "knn,lda",
                                          "--joints", "c9", "--knn-k", "100000",
                                          "-o", str(out)])
            assert result.exit_code == 1
            assert not out.exists()
            errors[cpus] = result.stderr
        assert errors[2] == errors[1]
        assert errors[2].startswith("Error: cell 1/4 coordinates,c9,3,off,knn: k=100000 "
                                    "exceeds the")

    @pytest.mark.parametrize("cell, problem", [
        (_die_in_the_first_cell, "its worker stopped with exit code 3"),
        (_fail_knn_cells_last, "FineKnnSpec failed"),
    ], ids=["dies", "fails"])
    def test_a_worker_failure_is_located_at_the_first_failing_cell(
            self, runner, dataset_file, tmp_path, monkeypatch, cell, problem):
        _use_cpus(monkeypatch, 2)
        monkeypatch.setattr(skelhar.cli, "run_cell", cell)
        out = tmp_path / "grid.csv"
        result = runner.invoke(main, ["grid", str(dataset_file), "--classifier", "knn,lda",
                                      "--joints", "c9", "-o", str(out)])
        assert result.exit_code == 1
        assert result.stderr == f"Error: cell 1/2 coordinates,c9,3,off,knn: {problem}\n"
        assert not out.exists()

    def test_a_failing_cell_ends_a_later_cell_that_runs(self, runner, dataset_file, tmp_path,
                                                        monkeypatch):
        def cell(config, matrix):
            if type(config.classifier).__name__ == "LinearDiscriminantSpec":
                marker.touch()
                time.sleep(60)
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return "FineKnnSpec failed"

        # k-NN's cell fails once the other worker runs LDA's, which would
        # take a minute; the autouse fixture checks that its worker was ended
        marker, deadline = tmp_path / "lda started", time.monotonic() + 60
        _use_cpus(monkeypatch, 2)
        monkeypatch.setattr(skelhar.cli, "run_cell", cell)
        out = tmp_path / "grid.csv"
        start = time.monotonic()
        result = runner.invoke(main, ["grid", str(dataset_file), "--classifier", "knn,lda",
                                      "--joints", "c9", "-o", str(out)])
        assert result.exit_code == 1
        assert result.stderr == "Error: cell 1/2 coordinates,c9,3,off,knn: FineKnnSpec failed\n"
        assert time.monotonic() - start < 30
        assert not out.exists()

    def test_ctrl_c_ends_every_worker(self, runner, dataset_file, tmp_path, monkeypatch):
        def interrupt(*args):
            raise KeyboardInterrupt

        _use_cpus(monkeypatch, 2)
        monkeypatch.setattr(skelhar.gridworker.select, "select", interrupt)
        out = tmp_path / "grid.csv"
        result = runner.invoke(main, ["grid", str(dataset_file), "--classifier", "knn,lda",
                                      "--joints", "c9", "-o", str(out)])
        assert result.exit_code == 1
        assert "Aborted!" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("cells, cpus, blas_threads, expected", [
        (24, 2, "1", 2),
        (24, 1, "1", 1),
        (24, 8, "1", 8),
        (3, 64, "1", 3),
        (1, 64, "1", 1),
        (10**12, 10**6, "1", 10**6),
        (7, 10**30, "1", 7),
        (24, 8, "2", 4),
        (24, 8, "3", 2),
        (24, 2, "4", 1),
        (24, 2, "0", 2),
        (24, 2, "many", 2),
    ])
    def test_workers_are_capped_at_the_cpus_and_the_cells(self, monkeypatch, cells, cpus,
                                                          blas_threads, expected):
        # each worker gets as many CPUs as it runs BLAS threads
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
        assert _plan_workers(cells, cpus) == expected

    @pytest.mark.parametrize("cpus, axes", [
        (64, ["--classifier", "lda"]),
        (1, ["--modality", "coordinates,velocity", "--classifier", "knn,lda"]),
    ], ids=["one-cell", "one-cpu"])
    def test_one_cell_starts_no_process(self, runner, dataset_file, tmp_path, monkeypatch,
                                        cpus, axes):
        # one cell, or one CPU, runs the cells in this process's slot
        def refuse(*args, **kwargs):
            raise AssertionError("grid started a process")

        _use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(os, "fork", refuse)
        out = tmp_path / "grid.csv"
        result = runner.invoke(main, ["grid", str(dataset_file), "--joints", "c9", *axes,
                                      "--jobs", str(10**30), "-o", str(out)])
        assert result.exit_code == 0, result.output
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == (1 if cpus > 1 else 4)
        # one stderr line per cell, in table order, after --jobs's deprecation
        assert [line.split(":")[0] for line in result.stderr.splitlines()[1:]] == [
            f"cell {n}/{len(rows)} {','.join(row.split(',')[:5])}"
            for n, row in enumerate(rows, 1)]

    @pytest.mark.parametrize("jobs", ["0", "-1", "two"])
    def test_jobs_must_be_a_positive_integer(self, runner, dataset_file, tmp_path, jobs):
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["grid", str(dataset_file), "--joints", "c9",
                                      "--classifier", "lda", "--jobs", jobs, "-o", str(out)])
        assert result.exit_code == 2
        assert "--jobs" in result.output
        assert not out.exists()

    def test_grid_starts_no_thread(self, runner, dataset_file, tmp_path, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"grid started thread {thread.name}")

        _use_cpus(monkeypatch, 2)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        out = tmp_path / "grid.csv"
        result = runner.invoke(main, ["grid", str(dataset_file), "--modality",
                                      "coordinates,velocity", "--classifier", "knn,lda",
                                      "--joints", "c9", "--jobs", "2", "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert len(out.read_text().splitlines()) == 1 + 4

    def test_importing_the_cli_loads_no_executor(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, skelhar.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('concurrent')))"],
            env=env, check=True, capture_output=True, text=True, timeout=120)
        assert proc.stdout.strip() == "[]"

    def test_repeated_and_interleaved_axis_values_give_each_cell_its_own_row(
            self, runner, dataset_file, tmp_path):
        # coordinates comes back after velocity, so its matrix is built again
        out = tmp_path / "grid.csv"
        axes = {"modality": "coordinates,velocity,coordinates",
                "joints": "c9,list:Neck,RHand", "classifier": "knn,lda"}
        args = [arg for key, value in axes.items() for arg in (f"--{key}", value)]
        result = runner.invoke(main, ["grid", str(dataset_file), *args, "-o", str(out)])
        assert result.exit_code == 0, result.output

        manifest = read_dataset(dataset_file)
        expected = []
        for modality in ("coordinates", "velocity", "coordinates"):
            for joints in ("c9", "list:Neck,RHand"):
                for classifier in ("knn", "lda"):
                    config = build_config({**_PIPELINE_DEFAULTS, "modality": modality,
                                           "joints": joints, "classifier": classifier})
                    alone = run_matrix_experiment(config, config.feature_matrix(manifest))
                    expected.append(
                        f"{modality},{joints.replace(',', ';')},3,off,{classifier},"
                        f"{alone.cv_report.overall_accuracy:.6f},"
                        f"{alone.report.overall_accuracy:.6f}")
        assert out.read_text().splitlines()[1:] == expected

    def test_each_cell_reports_its_accuracies_on_stderr(self, runner, dataset_file,
                                                        tmp_path):
        out = tmp_path / "grid.csv"
        result = runner.invoke(main, ["grid", str(dataset_file), "--modality",
                                      "coordinates,velocity", "--classifier", "lda",
                                      "--joints", "c9", "-o", str(out)])
        assert result.exit_code == 0, result.output
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        lines = result.stderr.splitlines()
        assert len(lines) == 2
        for n, (line, row) in enumerate(zip(lines, rows), 1):
            assert re.fullmatch(
                rf"cell {n}/2 {','.join(row[:5])}: cv {float(row[5]):.3f}, "
                rf"validation {float(row[6]):.3f}, \d+\.\d\d s", line), line

    def test_a_failing_cell_is_named_and_no_table_is_written(self, runner, dataset_file,
                                                             tmp_path, monkeypatch):
        def broken_trainer(spec, x, y):
            raise ValueError("the tree trainer broke")

        # the trainer is broken in this process only, so the cells run here
        _use_cpus(monkeypatch, 1)
        monkeypatch.setitem(skelhar.classifiers._TRAINERS, FineTreeSpec, broken_trainer)
        out = tmp_path / "grid.csv"
        result = runner.invoke(main, ["grid", str(dataset_file), "--classifier", "knn,tree",
                                      "--joints", "c9", "-o", str(out)])
        assert result.exit_code == 1
        assert "cell 2/2 coordinates,c9,3,off,tree: the tree trainer broke" in result.stderr
        assert result.stderr.startswith("cell 1/2 coordinates,c9,3,off,knn: cv ")
        assert not out.exists()

    def test_empty_axis_is_usage_error(self, runner, dataset_file, tmp_path):
        result = runner.invoke(main, ["grid", str(dataset_file), "--modality", ",",
                                      "-o", str(tmp_path / "x.csv")])
        assert result.exit_code == 2

    def test_single_joint_custom_subset_as_grid_axis(self, runner, dataset_file,
                                                     tmp_path):
        # a comma-free custom list is a valid axis value alongside the named
        # subsets
        out = tmp_path / "custom.csv"
        result = runner.invoke(main, ["grid", str(dataset_file), "--joints",
                                      "c9,list:Neck", "--dims", "2,3",
                                      "-o", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4
        assert any(line.startswith("coordinates,list:Neck,2") for line in lines)

    @pytest.mark.parametrize("source, expected", [
        ("flag", ["c9", "list:Neck;RHand", "c18"]),
        ("config", ["list:Neck;RHand"]),
    ])
    def test_multi_joint_custom_list_as_grid_axis(self, runner, dataset_file, tmp_path,
                                                  source, expected):
        # the axis splitter must not cut a custom list at its own commas
        if source == "flag":
            args = ["--joints", "c9,list:Neck,RHand,c18"]
        else:
            config = tmp_path / "grid.cfg"
            config.write_text("joints=list:Neck,RHand\n")
            args = ["--config", str(config)]
        out = tmp_path / "custom.csv"
        result = runner.invoke(main, ["grid", str(dataset_file), *args, "-o", str(out)])
        assert result.exit_code == 0, result.output
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(len(row) == 7 for row in rows)
        assert [row[1] for row in rows] == expected


class TestBlasThreads:
    @pytest.mark.parametrize("preset, expected", [
        ({}, ["1", "1", "1"]),
        ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "3", "3"]),
        ({"OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "4"}, ["2", "2", "4"]),
    ], ids=["unset", "openblas", "omp-mkl"])
    def test_import_sets_one_thread_and_keeps_a_user_s_count(self, preset, expected):
        # an unset variable takes the first count the user set
        code = ("import os, skelhar, numpy; print(' '.join(os.environ[name] for name in "
                f"{_BLAS_THREAD_VARS!r})); print(open('/proc/self/status').read())")
        proc = subprocess.run([sys.executable, "-c", code], env=_fresh_env(**preset),
                              check=True, capture_output=True, text=True, timeout=120)
        variables, status = proc.stdout.split("\n", 1)
        assert variables.split() == expected
        if not preset:  # numpy's OpenBLAS started no thread of its own
            assert re.search(r"^Threads:\s+1$", status, re.M), status


class TestConfigFile:
    def test_file_values_apply_and_flags_override(self, runner, dataset_file, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("modality=velocity\njoints=c9\n# comment\nseed=5\n")
        out_file = tmp_path / "f1.csv"
        result = runner.invoke(main, ["extract", str(dataset_file), "--config",
                                      str(config), "-o", str(out_file)])
        assert result.exit_code == 0, result.output
        assert len(out_file.read_text().splitlines()) == 1 + 18 * 50  # velocity

        out_file2 = tmp_path / "f2.csv"
        result = runner.invoke(main, ["extract", str(dataset_file), "--config",
                                      str(config), "--modality", "coordinates",
                                      "-o", str(out_file2)])
        assert result.exit_code == 0
        assert len(out_file2.read_text().splitlines()) == 1 + 18 * 51  # overridden

    @pytest.mark.parametrize("content, problem", [
        (b"modalities=velocity\n", "bad.cfg:1: unknown config key 'modalities'"),
        (None, "bad.cfg cannot be read: Is a directory"),
        (b"seed=5\n# caf\xe9\n", "bad.cfg:2: not UTF-8 text"),
    ], ids=["unknown-key", "directory", "not-utf-8"])
    def test_unknown_key_is_usage_error(self, runner, dataset_file, tmp_path, content,
                                        problem):
        config = tmp_path / "bad.cfg"
        if content is None:
            config.mkdir()
        else:
            config.write_bytes(content)
        result = runner.invoke(main, ["extract", str(dataset_file), "--config",
                                      str(config), "-o", str(tmp_path / "x.csv")])
        assert result.exit_code == 2
        assert problem in result.output

    def test_round_trip_is_lossless(self):
        configs = [
            PipelineConfig(
                modality=Modality.VELOCITY,
                subset=JointSubset.custom([JointId.Neck, JointId.RHand]),
                dims=2,
                pca=PcaConfig(True, 0.9),
                classifier=MlpSpec(hidden_width=175, epochs=17,
                                   learning_rate=0.015, seed=3),
                split=SplitPlan(0.55, 0.25, 0.20, StratifyBy.PARTICIPANT, seed=3),
                folds=4,
                seed=3,
            ),
            PipelineConfig(
                classifier=CubicSvmSpec(c=2.5, tolerance=1e-4, seed=8),
                split=SplitPlan(seed=8),
                seed=8,
            ),
            PipelineConfig(
                classifier=BaggedTreesSpec(n_trees=12, max_splits=50, seed=1),
                split=SplitPlan(seed=1),
                seed=1,
            ),
            PipelineConfig(
                classifier=FineTreeSpec(max_splits=7, seed=2),
                split=SplitPlan(seed=2),
                seed=2,
            ),
            PipelineConfig(
                classifier=FineKnnSpec(k=3, seed=4),
                split=SplitPlan(seed=4),
                seed=4,
            ),
            PipelineConfig(
                modality=Modality.ACCELERATION,
                classifier=LinearDiscriminantSpec(seed=6),
                split=SplitPlan(seed=6),
                seed=6,
            ),
        ]
        for config in configs:
            assert build_config(config_to_flat(config)) == config

    def test_flag_defaults_are_the_dataclass_defaults(self):
        # the CLI restates no default: parsing the defaults gives a default-built config
        assert build_config(dict(_PIPELINE_DEFAULTS)) == PipelineConfig(classifier=FineKnnSpec())

    def test_help_lists_flags(self, runner):
        result = runner.invoke(main, ["evaluate", "--help"])
        assert result.exit_code == 0
        for flag in ("--modality", "--joints", "--dims", "--pca", "--pca-var",
                     "--classifier", "--split", "--folds", "--stratify", "--seed"):
            assert flag in result.output
        text = " ".join(result.output.split())  # undo click's line wrapping
        for flag, default in (("--knn-k", "1"), ("--tree-max-splits", "100"),
                              ("--bagged-trees", "30"), ("--svm-c", "1.0"),
                              ("--svm-tol", "0.001"), ("--hidden", "175"),
                              ("--epochs", "200"), ("--lr", "0.01"),
                              ("--modality", "coordinates"), ("--joints", "c28"),
                              ("--dims", "3"), ("--pca", "off"), ("--pca-var", "0.95"),
                              ("--classifier", "knn"), ("--split", "60,20,20"),
                              ("--folds", "5"), ("--stratify", "class"), ("--seed", "0"),
                              ("--frame-list", "unset")):
            pattern = rf"{flag} TEXT [^\[]*\[default: {re.escape(default)}\]"
            assert re.search(pattern, text), flag

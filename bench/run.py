"""Benchmark of the skelhar CLI: evaluate, grid and ingest, end to end and per layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Each workload makes the same inputs
for every --seed (see SEED), then repeats whole rounds of its `skelhar`
commands, each a separate process as a user runs it, until --seconds of
rounds are measured. Every round's outputs are checked (see checks.py).
The last line of standard output is one JSON object: correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones;
with --trace 1 the run alternates plain and traced rounds and reports the
per-layer metrics and the tracing overhead. The exit code is 1 when a
check or a command fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import (  # noqa: E402
    CheckError,
    check_grid_table,
    check_ingest,
    check_report,
    check_svm_model,
)
from tracer import layer_metrics  # noqa: E402

WORK = BENCH / "_work"
MIN_ROUNDS = 3
# a run ends within 180 s: no round starts that would end after MAX_RUN_S,
# and a command running longer than COMMAND_TIMEOUT_S is killed and fails
MAX_RUN_S = 120
COMMAND_TIMEOUT_S = 150


class Command:
    """Outcome of one CLI process: wall time, exit code and resource usage."""

    def __init__(self, args: list[str], trace_path: Path | None = None):
        if trace_path is None:
            argv = [sys.executable, "-m", "skelhar", *args]
        else:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(trace_path), *args]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=command_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stderr = proc.stderr.read()
            proc.stderr.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        self.wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.ok = proc.returncode == 0
        self.error = stderr.decode("utf-8", "replace").strip()[-400:]
        self.user_s = usage.ru_utime
        self.sys_s = usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def command_env() -> dict[str, str]:
    """The user's environment with the checkout's sources first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_seconds() -> float:
    """Time to start the interpreter and import skelhar.cli, in a fresh process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import skelhar.cli"], env=command_env(), cwd=ROOT,
                   check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# SMO time varies up to 8x with the generator seed and 2x with the split seed
# (machines pairing the lying class stall), and MLP accuracy after the grid's
# few epochs varies with its seed. Every workload therefore reads or writes
# the same dataset and uses the same pipeline seed in every run, so that the
# spread between runs is the program's and the machine's, not the inputs'.
SEED = 0


class Workload:
    """Inputs, the commands of one round, and their checks."""

    name = ""
    jobs = 1

    def __init__(self, work: Path):
        self.work = work
        self.seed = SEED

    def prepare(self) -> None:
        """Untimed set-up: the dataset every round reads."""
        self.work.mkdir(parents=True, exist_ok=True)
        cmd = Command(self.synth(self.work / "data.csv"))
        if not cmd.ok:
            raise RuntimeError(f"skelhar synth failed: {cmd.error}")

    def commands(self, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self, out: Path) -> list[Path]:
        return sorted(p for p in out.rglob("*") if p.is_file())

    def check(self, out: Path) -> dict:
        """Raise CheckError on a wrong output; return figures the checks computed."""
        raise NotImplementedError

    def synth(self, path: Path) -> list[str]:
        return ["synth", "--participants", str(self.participants),
                "--frames", str(self.frames), "--noise", "0.01",
                "--seed", str(self.seed), "-o", str(path)]


class EvaluateSvm(Workload):
    """skelhar evaluate --classifier svm-cubic on c28/3D coordinates, PCA off."""

    name = "evaluate-svm"
    participants = 2
    frames = 60
    accuracy_floor = 0.95

    def commands(self, out: Path) -> list[list[str]]:
        return [["evaluate", str(self.work / "data.csv"), "--classifier", "svm-cubic",
                 "--modality", "coordinates", "--joints", "c28", "--dims", "3",
                 "--pca", "off", "--seed", str(self.seed), "-o", str(out / "bundle")]]

    def check(self, out: Path) -> dict:
        bundle = out / "bundle"
        check_report(bundle, self.participants * 51, self.accuracy_floor)
        figures = check_svm_model(json.loads((bundle / "model.json").read_text(encoding="utf-8")))
        return {"svm.max_kkt_residual": figures["max_kkt_residual"]}


class GridAblation(Workload):
    """The ablation table: 3 modalities x PCA off/on x 4 families, --jobs 2."""

    name = "grid-ablation"
    participants = 1
    frames = 60
    jobs = 2
    modalities = ("coordinates", "velocity", "acceleration")
    pca = ("off", "on")
    families = ("tree", "knn", "lda", "mlp")
    epochs = 20
    tree_max_splits = 10
    accuracy_floor = 0.8

    def grid_args(self, table: Path, jobs: int) -> list[str]:
        return ["grid", str(self.work / "data.csv"),
                "--modality", ",".join(self.modalities), "--joints", "c28", "--dims", "3",
                "--pca", ",".join(self.pca), "--classifier", ",".join(self.families),
                "--epochs", str(self.epochs), "--tree-max-splits", str(self.tree_max_splits),
                "--seed", str(self.seed), "--jobs", str(jobs), "-o", str(table)]

    def commands(self, out: Path) -> list[list[str]]:
        return [self.grid_args(out / "table.csv", self.jobs)]

    def expected_keys(self) -> list[tuple[str, ...]]:
        return [(m, "c28", "3", p, f) for m in self.modalities for p in self.pca
                for f in self.families]

    def check(self, out: Path) -> dict:
        check_grid_table((out / "table.csv").read_text(encoding="utf-8"),
                         self.expected_keys(), self.accuracy_floor)
        return {}


class Ingest(Workload):
    """skelhar synth for many participants, then skelhar extract on the file."""

    name = "ingest"
    participants = 16
    frames = 60

    def prepare(self) -> None:
        """Nothing: the round's own synth makes the dataset."""

    def commands(self, out: Path) -> list[list[str]]:
        data = out / "data.csv"
        return [self.synth(data),
                ["extract", str(data), "--modality", "coordinates", "--joints", "c28",
                 "--dims", "3", "-o", str(out / "features.csv")]]

    def check(self, out: Path) -> dict:
        check_ingest(out / "data.csv", out / "features.csv", self.participants, self.frames)
        return {}


WORKLOADS = {w.name: w for w in (EvaluateSvm, GridAblation, Ingest)}


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

class Round:
    """One pass over a workload's commands into a fresh output directory."""

    def __init__(self, workload: Workload, traced: bool):
        self.out = workload.work / ("traced" if traced else "round")
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.commands: list[Command] = []
        self.traces: list[dict] = []
        self.failed = 0
        argvs = workload.commands(self.out)
        for i, args in enumerate(argvs):
            trace_path = self.out / f"trace{i}.json" if traced else None
            cmd = Command(args, trace_path)
            self.commands.append(cmd)
            if not cmd.ok:
                print(f"command failed: skelhar {' '.join(args)}\n{cmd.error}", file=sys.stderr)
                self.failed = len(argvs) - i  # later commands read its output
                break
            if trace_path is not None:
                self.traces.append(json.loads(trace_path.read_text(encoding="utf-8")))
                trace_path.unlink()
        self.attempted = len(argvs)
        self.wall_s = sum(c.wall_s for c in self.commands)
        outputs = [] if self.failed else workload.outputs(self.out)
        self.output_bytes = sum(p.stat().st_size for p in outputs)
        self.digest = digest(outputs) if outputs else None


class Run:
    """Whole rounds of one workload, repeated for about `seconds`.

    A plain run's first round is a warm-up: it is checked and counted like
    the others, but not timed, so that bytecode compilation, the page cache
    and an idle CPU do not enter the figures. The plain run then times one
    interpreter start-up before every timed round, so the samples span the
    whole run. A traced run follows every plain round with a traced one.
    """

    def __init__(self, workload: Workload, seconds: float, traced: bool):
        self.rounds: list[tuple[Round, Round | None]] = []
        self.errors: list[str] = []
        self.figures: dict = {}
        self.setup_s: list[float] = []
        digests = set()
        if not traced:
            import_seconds()  # compiles the package's bytecode once, untimed
        started = time.perf_counter()
        warmup = 0 if traced else 1
        while True:
            t0 = time.perf_counter()
            if not traced and self.rounds:  # none before the warm-up round
                self.setup_s.append(import_seconds())
            plain = Round(workload, traced=False)
            if not plain.failed:
                if not digests:
                    try:
                        self.figures = workload.check(plain.out)
                    except CheckError as exc:
                        self.errors.append(str(exc))
                digests.add(plain.digest)
            again = Round(workload, traced=True) if traced else None
            if again is not None and not again.failed and again.digest != plain.digest:
                self.errors.append("a traced round wrote other outputs than the plain round")
            self.rounds.append((plain, again))
            # the end of the next round, if it takes as long as this one
            projected = 2 * time.perf_counter() - t0 - started
            enough = len(self.rounds) >= (1 if traced else warmup + MIN_ROUNDS)
            if projected > seconds and (enough or projected > MAX_RUN_S):
                break
        if len(digests) > 1:
            self.errors.append(f"outputs differ across the run's {len(self.rounds)} repetitions")
        done = [r for pair in self.rounds for r in pair if r is not None]
        self.attempted = sum(r.attempted for r in done)
        self.failed = sum(r.failed for r in done)
        if self.failed:
            self.errors.append(f"{self.failed} of {self.attempted} commands failed")
        # timed rounds whose commands all succeeded, with their traced twin
        self.ok = [(p, t) for p, t in self.rounds[warmup:]
                   if not p.failed and not (t and t.failed)]


def end_to_end(run: Run) -> dict:
    ok = [p for p, _ in run.ok]
    med = statistics.median
    return {
        "wall_s": (med(r.wall_s for r in ok), "s"),
        "setup_s": (med(run.setup_s), "s"),
        "peak_rss_mb": (med(max(c.rss_mb for c in r.commands) for r in ok), "MB"),
        "output_bytes": (med(r.output_bytes for r in ok), "bytes"),
    }


RATIOS = ("svm.sv_share", "svm.max_kkt_residual", "cli.pool_utilisation")


def per_layer(run: Run, jobs: int) -> dict:
    ok = run.ok
    med = statistics.median
    rows = [layer_metrics(t.traces, jobs) for _, t in ok]
    metrics = {key: med(row[key] for row in rows) for key in rows[0]}
    metrics["svm.max_kkt_residual"] = run.figures.get("svm.max_kkt_residual", 0.0)
    metrics["process.user_s"] = med(sum(c.user_s for c in p.commands) for p, _ in ok)
    metrics["process.sys_s"] = med(sum(c.sys_s for c in p.commands) for p, _ in ok)
    metrics["trace.overhead_s"] = med(t.wall_s for _, t in ok) - med(p.wall_s for p, _ in ok)
    out = {}
    for key, value in metrics.items():
        if key.endswith("_s"):
            unit = "s"
        elif key.endswith("_bytes"):
            unit = "bytes"
        else:
            unit = "ratio" if key in RATIOS else "count"
        out[key] = (value, unit)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "skelhar" / "cli.py").is_file():
        print(f"no skelhar sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](WORK / args.workload)
    shutil.rmtree(workload.work, ignore_errors=True)
    workload.prepare()
    run = Run(workload, args.seconds, bool(args.trace))
    if not run.ok:
        metrics = {}
    elif args.trace:
        metrics = per_layer(run, workload.jobs)
    else:
        metrics = end_to_end(run)

    for error in run.errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(f"{workload.name}: seed {args.seed}, {len(run.rounds)} rounds, "
          f"{run.attempted} commands attempted, {run.failed} failed")
    for key, (value, unit) in metrics.items():
        print(f"  {key:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if run.errors else 0


if __name__ == "__main__":
    sys.exit(main())

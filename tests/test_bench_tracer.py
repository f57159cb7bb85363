"""The benchmark's tracer (bench/tracer.py) wraps package functions by name
from outside src/: class-body predict/decision_scores, the trainers, and
build_feature_matrix wherever a module binds it. It also reads model
attributes such as FineTreeModel.root. This runs it on a small grid so a
rename in the package shows up here rather than as a silent gap in the
benchmark's per-layer metrics. The tracer sees only its own process, so the
grid runs on one CPU, where its cells run in that process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACED_FAMILIES = ("tree", "knn", "lda", "mlp", "svm")


def _on_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_tracer_records_every_family_of_a_grid(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH"))
                                        if p)
    data, trace = tmp_path / "data.csv", tmp_path / "trace.json"
    subprocess.run([sys.executable, "-m", "skelhar", "synth", "--participants", "1",
                    "--seed", "0", "-o", str(data)], env=env, check=True,
                   capture_output=True, timeout=120)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(trace), "grid", str(data),
         "--classifier", "tree,knn,lda,mlp,svm-cubic", "--epochs", "3",
         "-o", str(tmp_path / "table.csv")],
        env=env, capture_output=True, text=True, timeout=300, preexec_fn=_on_one_cpu)
    assert proc.returncode == 0, proc.stderr

    recorded = json.loads(trace.read_text())
    spans = {span[1] for span in recorded["spans"]}
    for family in TRACED_FAMILIES:
        assert f"{family}.train" in spans, family
        assert f"{family}.predict" in spans, family
    assert {"cli.grid", "dataset.read", "features.extract", "evaluation.experiment"} <= spans
    counters = recorded["counters"]
    for key in ("dataset.frames", "features.rows", "tree.nodes", "knn.distance_evals",
                "svm.stored_rows", "mlp.batches"):
        assert counters.get(key, 0) > 0, key

"""Run one skelhar CLI command in-process with a span recorded per layer call.

    python3 bench/tracer.py <trace.json> <skelhar arguments...>

The tracer wraps the public functions of each package module from outside
(src/ is not edited): every call records a span with its name, start, end
and the span that caused it, plus the work counts of that call. Spans stay
in memory and are written to <trace.json> when the command ends.
layer_metrics() turns the traces of a workload's commands into the
per-layer metrics of the benchmark.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import sys
import threading
import time
from pathlib import Path

FAMILIES = ("svm", "tree", "knn", "lda", "mlp")
LAYERS = ("dataset", "skeleton", "features", "pca") + FAMILIES + ("evaluation", "cli")

_MODEL_CLASSES = {
    "svm": ("skelhar.classifiers.svm", "CubicSvmModel", "train_cubic_svm"),
    "tree": ("skelhar.classifiers.tree", "FineTreeModel", "train_fine_tree"),
    "knn": ("skelhar.classifiers.knn", "FineKnnModel", "train_knn"),
    "lda": ("skelhar.classifiers.lda", "LinearDiscriminantModel", "train_lda"),
    "mlp": ("skelhar.classifiers.mlp", "MlpModel", "train_mlp"),
}


class Tracer:
    """Spans and work counts of one process; safe to use from pool threads."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent]
        self.counters: dict[str, float] = {}
        self._names: dict[int, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._command: int | None = None  # open CLI command span, parent of pool threads

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    def parent_name(self, span: list) -> str:
        return self._names.get(span[4], "")

    def wrap(self, fn, name: str, hook=None, command: bool = False):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._command
            span = [next(tracer._ids), name, 0.0, 0.0, parent]
            tracer._names[span[0]] = name
            stack.append(span[0])
            if command:
                tracer._command = span[0]
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(span)
            if hook is not None:
                hook(tracer, span, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever the package bound it."""
        import skelhar.cli

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "skelhar" or n.startswith("skelhar.")]
        for module_name, attr, name, hook in _targets():
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(cls.__dict__[method], name, hook))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(original, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                    elif isinstance(value, dict):  # dispatch tables such as _TRAINERS
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = traced
        for cmd_name, cmd in skelhar.cli.main.commands.items():
            cmd.callback = self.wrap(cmd.callback, f"cli.{cmd_name}", command=True)

    def to_json_dict(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


# ---------------------------------------------------------------------------
# Work counts recorded at each traced call
# ---------------------------------------------------------------------------

def _count_frames(tracer, span, args, manifest):
    tracer.add("dataset.frames", sum(len(s.frames) for s in manifest.sequences))


def _count_validate(tracer, span, args, result):
    tracer.add("skeleton.validate_calls", 1)


def _count_matrix(tracer, span, args, matrix):
    tracer.add("features.rows", matrix.n_rows)
    tracer.add("features.matrices_built", 1)


def _count_pca_fit(tracer, span, args, model):
    tracer.add("pca.fit_calls", 1)
    tracer.add("pca.retained_k_sum", model.retained_k)


def _tree_nodes(node) -> int:
    return 1 if node.is_leaf else 1 + _tree_nodes(node.left) + _tree_nodes(node.right)


def _train_hook(family: str):
    def hook(tracer, span, args, model):
        spec, x = args[0], args[1]
        tracer.add(f"{family}.train_calls", 1)
        tracer.add(f"{family}.rows_trained", len(x))
        if family == "svm":
            tracer.add("svm.stored_rows", sum(len(m.alphas) for m in model.machines))
            tracer.add("svm.support_vectors",
                       sum(int((m.alphas > 0).sum()) for m in model.machines))
        elif family == "tree":
            tracer.add("tree.nodes", _tree_nodes(model.root))
        elif family == "mlp":
            tracer.add("mlp.batches", spec.epochs * math.ceil(len(x) / 32))
    return hook


def _score_hook(family: str):
    def hook(tracer, span, args, result):
        if tracer.parent_name(span).startswith(family + "."):
            return  # nested call of the same model (LDA predict -> scores)
        model, rows = args[0], args[1]
        n = 1 if rows.ndim == 1 else rows.shape[0]
        tracer.add(f"{family}.rows_scored", n)
        if family == "svm":
            tracer.add("svm.kernel_evals", n * sum(len(m.alphas) for m in model.machines))
        elif family == "knn":
            tracer.add("knn.distance_evals", n * len(model.train_x))
    return hook


def _count_bundle(tracer, span, args, result):
    tracer.add("evaluation.model_json_bytes", (Path(args[1]) / "model.json").stat().st_size)


def _targets():
    yield "skelhar.dataset", "generate_synthetic", "dataset.generate", None
    yield "skelhar.dataset", "write_dataset", "dataset.write", None
    yield "skelhar.dataset", "read_dataset", "dataset.read", _count_frames
    yield "skelhar.skeleton", "validate_sequence", "skeleton.validate", _count_validate
    yield "skelhar.features", "build_feature_matrix", "features.extract", _count_matrix
    yield "skelhar.pca", "pca_fit", "pca.fit", _count_pca_fit
    yield "skelhar.pca", "pca_transform", "pca.transform", None
    for family, (module, cls, trainer) in _MODEL_CLASSES.items():
        yield module, trainer, f"{family}.train", _train_hook(family)
        yield module, f"{cls}.predict", f"{family}.predict", _score_hook(family)
        yield module, f"{cls}.decision_scores", f"{family}.scores", _score_hook(family)
    yield "skelhar.evaluation", "split", "evaluation.split", None
    yield "skelhar.evaluation", "cross_validate", "evaluation.cv", None
    yield "skelhar.evaluation", "compute_report", "evaluation.report", None
    yield "skelhar.evaluation", "write_bundle", "evaluation.bundle_write", _count_bundle
    yield "skelhar.evaluation", "run_matrix_experiment", "evaluation.experiment", None
    yield "skelhar.evaluation", "run_experiment", "evaluation.run", None


# ---------------------------------------------------------------------------
# Per-layer metrics from the traces of one workload round
# ---------------------------------------------------------------------------

TIMED_SPANS = (
    ["dataset.generate", "dataset.write", "dataset.read", "skeleton.validate",
     "features.extract", "pca.fit", "pca.transform"]
    + [f"{f}.{op}" for f in FAMILIES for op in ("train", "predict", "scores")]
    + ["evaluation.split", "evaluation.cv", "evaluation.report", "evaluation.bundle_write"]
)

COUNTERS = (
    ["dataset.frames", "skeleton.validate_calls", "features.rows",
     "features.matrices_built", "pca.fit_calls"]
    + [f"{f}.{c}" for f in FAMILIES for c in ("train_calls", "rows_trained", "rows_scored")]
    + ["svm.stored_rows", "svm.support_vectors", "svm.kernel_evals", "tree.nodes",
       "knn.distance_evals", "mlp.batches", "evaluation.model_json_bytes"]
)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _ in spans:
        inside = [(max(lo, start), min(hi, end)) for lo, hi in children.get(sid, [])]
        out[sid] = (end - start) - _covered([iv for iv in inside if iv[1] > iv[0]])
    return out


def layer_metrics(traces: list[dict], jobs: int) -> dict[str, float]:
    """Sum the traces of one round's commands into the per-layer metrics."""
    m: dict[str, float] = {f"{name}_s": 0.0 for name in TIMED_SPANS}
    m.update({name: 0 for name in COUNTERS})
    m.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    m["cli.extract_write_s"] = 0.0
    cells = []
    for trace in traces:
        spans = trace["spans"]
        own = self_times(spans)
        for sid, name, start, end, _ in spans:
            if f"{name}_s" in m:
                m[f"{name}_s"] += end - start
            m[f"{name.split('.')[0]}.self_s"] += own[sid]
            if name == "cli.extract":
                m["cli.extract_write_s"] += own[sid]
            if name == "evaluation.experiment":
                cells.append((start, end))
        for key, value in trace["counters"].items():
            m[key] = m.get(key, 0) + value

    m["pca.retained_k"] = m.pop("pca.retained_k_sum", 0) / max(m["pca.fit_calls"], 1)
    m["svm.sv_share"] = m["svm.support_vectors"] / max(m["svm.stored_rows"], 1)
    m["cli.cells"] = len(cells)
    m["cli.cell_busy_s"] = sum(end - start for start, end in cells)
    pool_wall = max((e for _, e in cells), default=0.0) - min((s for s, _ in cells), default=0.0)
    m["cli.pool_utilisation"] = m["cli.cell_busy_s"] / (jobs * pool_wall) if cells else 0.0
    return m


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import skelhar.cli

    tracer = Tracer()
    tracer.install()
    try:
        skelhar.cli.main.main(args=cli_args, prog_name="skelhar", standalone_mode=False)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json_dict(), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

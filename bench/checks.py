"""Output checks for the benchmark workloads.

Every check recomputes what it verifies from the program's documented
formats and the method's own properties (cubic-kernel KKT conditions, the
floor rule of the 20% validation split, head-relative posture features),
never from a stored copy of an earlier output. A failed check raises
CheckError with a message naming the file and the violated property.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

N_CLASSES = 9
N_JOINTS = 28
WINDOW = 51
# half a unit in the 9th significant digit, relative to the value
SIG9_RTOL = 5.0001e-9
# recomputed decision values differ from the solver's error cache by rounding
KKT_SLACK = 1e-6
# SMO's pair update a1 + s*(a2 - a2_new) lands within rounding of the box ends
BOX_SLACK = 1e-12


class CheckError(Exception):
    """An output violates a property the benchmark checks."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def read_numeric_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float matrix of a comma-separated file with one header row."""
    with open(path, encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
        _require(header is not None, f"{path.name}: empty file")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=np.float64)
        except ValueError as exc:
            raise CheckError(f"{path.name}: malformed row: {exc}") from None
    _require(data.shape[1] == len(header) or data.size == 0,
             f"{path.name}: rows have {data.shape[1]} fields, header has {len(header)}")
    return header, data


# ---------------------------------------------------------------------------
# evaluate-svm
# ---------------------------------------------------------------------------

def cubic_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (1.0 + a @ b.T) ** 3


def check_svm_model(model: dict) -> dict:
    """Dual feasibility and KKT optimality of every one-vs-one machine.

    Returns stored-row, support-vector and worst-residual figures.
    """
    clf = model.get("classifier") or {}
    _require(clf.get("kind") == "cubic_svm", "model.json: classifier is not a cubic SVM")
    c = float(clf["spec"]["c"])
    tol = float(clf["spec"]["tolerance"])
    class_set = [int(v) for v in clf["class_set"]]
    pairs = [(int(m["pos_label"]), int(m["neg_label"])) for m in clf["machines"]]
    expected = [(a, b) for i, a in enumerate(class_set) for b in class_set[i + 1:]]
    _require(pairs == expected, f"model.json: machines cover {pairs}, expected {expected}")

    stored = support = 0
    worst = 0.0
    for (pos, neg), m in zip(pairs, clf["machines"]):
        where = f"model.json: machine {pos}v{neg}"
        x = np.asarray(m["train_x"], dtype=np.float64)
        y = np.asarray(m["train_y"], dtype=np.float64)
        alpha = np.asarray(m["alphas"], dtype=np.float64)
        _require(x.ndim == 2 and y.shape == alpha.shape == (x.shape[0],),
                 f"{where}: train_x, train_y and alphas disagree in length")
        _require(bool(np.all(np.abs(y) == 1.0)), f"{where}: labels are not +1/-1")
        _require(bool(np.all((alpha >= -BOX_SLACK * c) & (alpha <= c * (1 + BOX_SLACK)))),
                 f"{where}: alpha outside [0, C={c}]: "
                 f"min {alpha.min():.3g}, max {alpha.max():.3g}")
        balance = float(np.dot(alpha, y))
        _require(abs(balance) <= 1e-9 * max(1.0, float(alpha.sum())),
                 f"{where}: sum(alpha * y) = {balance:.3g}, not 0")

        sv = alpha > 0.0
        f = cubic_kernel(x, x[sv]) @ (alpha[sv] * y[sv]) + float(m["bias"])
        margin = y * f
        at_zero = alpha <= 1e-12 * c
        at_c = alpha >= c * (1.0 - 1e-12)
        free = ~(at_zero | at_c)
        residual = np.zeros_like(margin)
        residual[at_zero] = np.maximum(0.0, 1.0 - margin[at_zero])
        residual[at_c] = np.maximum(0.0, margin[at_c] - 1.0)
        residual[free] = np.abs(margin[free] - 1.0)
        worst = max(worst, float(residual.max()))
        _require(worst <= tol + KKT_SLACK,
                 f"{where}: KKT residual {worst:.3g} exceeds the tolerance {tol}")
        stored += len(alpha)
        support += int(sv.sum())
    return {"stored_rows": stored, "support_vectors": support, "max_kkt_residual": worst}


def read_confusion_csv(path: Path) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = "true\\pred," + ",".join(str(c) for c in range(1, N_CLASSES + 1))
    _require(len(lines) == N_CLASSES + 1 and lines[0] == header,
             f"{path.name}: expected a header and {N_CLASSES} class rows")
    grid = []
    for c, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        _require(len(fields) == N_CLASSES + 1 and fields[0] == str(c),
                 f"{path.name}: row {c} is malformed")
        try:
            grid.append([int(v) for v in fields[1:]])
        except ValueError:
            raise CheckError(f"{path.name}: row {c} holds a non-integer count") from None
    return np.array(grid, dtype=np.int64)


def check_report(bundle: Path, rows_per_class: int, accuracy_floor: float) -> float:
    """Confusion matrix, accuracy and score-file consistency of a bundle."""
    report = json.loads((bundle / "report.json").read_text(encoding="utf-8"))
    confusion = np.asarray(report["confusion"], dtype=np.int64)
    _require(confusion.shape == (N_CLASSES, N_CLASSES), "report.json: confusion is not 9x9")
    _require(bool((confusion >= 0).all()), "report.json: negative confusion count")
    _require(np.array_equal(read_confusion_csv(bundle / "confusion.csv"), confusion),
             "confusion.csv differs from the confusion matrix in report.json")

    per_class = rows_per_class // 5  # the floor rule of the 20% validation split
    total = int(confusion.sum())
    _require(total == N_CLASSES * per_class,
             f"report.json: confusion sums to {total}, the 20% split leaves "
             f"{N_CLASSES * per_class} validation rows")
    _require(bool((confusion.sum(axis=1) == per_class).all()),
             f"report.json: class rows do not each hold {per_class} validation rows")

    accuracy = float(report["overall_accuracy"])
    trace = float(np.trace(confusion)) / total
    _require(abs(accuracy - trace) <= 1e-12,
             f"report.json: overall accuracy {accuracy} is not trace/total = {trace}")
    _require(accuracy >= accuracy_floor,
             f"report.json: validation accuracy {accuracy:.4f} below {accuracy_floor}")

    header, scores = read_numeric_csv(bundle / "scores.csv")
    _require(header == ["true_label"] + [f"score_{c}" for c in range(1, N_CLASSES + 1)],
             "scores.csv: unexpected header")
    _require(scores.shape[0] == total,
             f"scores.csv: {scores.shape[0]} rows, expected {total} validation rows")
    truth = np.bincount(scores[:, 0].astype(np.int64), minlength=N_CLASSES + 1)[1:]
    _require(np.array_equal(truth, confusion.sum(axis=1)),
             "scores.csv: true labels disagree with the confusion matrix rows")
    return accuracy


# ---------------------------------------------------------------------------
# grid-ablation
# ---------------------------------------------------------------------------

GRID_HEADER = "modality,joints,dims,pca,classifier,cv_accuracy,validation_accuracy"


def check_grid_table(text: str, expected_keys: list[tuple[str, ...]],
                     floor: float) -> list[tuple]:
    """Row order, accuracy range and the coordinates/PCA-off accuracy floor."""
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == GRID_HEADER, "grid table: unexpected header")
    rows = [line.split(",") for line in lines[1:]]
    _require(len(rows) == len(expected_keys),
             f"grid table: {len(rows)} rows, expected {len(expected_keys)}")
    parsed = []
    for i, (fields, key) in enumerate(zip(rows, expected_keys), start=1):
        _require(len(fields) == 7, f"grid table row {i}: {len(fields)} fields, expected 7")
        _require(tuple(fields[:5]) == key,
                 f"grid table row {i}: {tuple(fields[:5])} where {key} was declared")
        try:
            cv, val = float(fields[5]), float(fields[6])
        except ValueError:
            raise CheckError(f"grid table row {i}: accuracy is not a number") from None
        _require(0.0 <= cv <= 1.0 and 0.0 <= val <= 1.0,
                 f"grid table row {i}: accuracy outside [0, 1]")
        if key[0] == "coordinates" and key[3] == "off":
            _require(min(cv, val) >= floor,
                     f"grid table row {i}: {key[4]} scores {min(cv, val):.4f} on "
                     f"coordinates without PCA, below {floor}")
        parsed.append((*key, cv, val))
    return parsed


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

# canonical joint order of the dataset format; Head and Neck are the
# normalization reference pair
JOINT_NAMES = (
    "Head", "Neck", "Chest", "MiddleSpine", "LowerSpine", "Hip", "CenterOfMass",
    "CenterOfMassGroundProjection", "REye", "EffectorHead", "RClavicle", "RShoulder",
    "RForearm", "RHand", "LClavicle", "LShoulder", "LForearm", "LHand", "RThigh",
    "RShin", "RFoot", "RToe", "EffectorRToe", "LThigh", "LShin", "LFoot", "LToe",
    "EffectorLToe",
)


def dataset_header() -> list[str]:
    return ["participant", "activity", "frame"] + [
        f"{joint}_{axis}" for joint in JOINT_NAMES for axis in "xyz"]


def coordinate_features(data: np.ndarray, frames: int) -> tuple[np.ndarray, np.ndarray]:
    """Head-relative, head-neck-scaled c28/3D features of the centred window.

    data holds dataset rows (participant, activity, frame, 84 coordinates);
    returns (rows, labels) ordered by participant, activity and frame.
    """
    order = np.lexsort((data[:, 2], data[:, 1], data[:, 0]))
    seqs = data[order].reshape(-1, frames, data.shape[1])
    start = (frames - WINDOW) // 2
    pos = seqs[:, start:start + WINDOW, 3:].reshape(seqs.shape[0], WINDOW, N_JOINTS, 3)
    head = pos[:, :, 0:1, :]
    ref = np.sqrt(((pos[:, :, 1:2, :] - head) ** 2).sum(axis=3, keepdims=True))
    rel = (pos[:, :, 1:, :] - head) / ref
    rows = rel.reshape(-1, (N_JOINTS - 1) * 3)
    labels = np.repeat(seqs[:, 0, 1], WINDOW)
    return rows, labels


def check_ingest(dataset: Path, features: Path, participants: int, frames: int) -> None:
    """Shape of both files and every feature value against a numpy recomputation."""
    header, data = read_numeric_csv(dataset)
    _require(header == dataset_header(), f"{dataset.name}: unexpected header")
    n_seq = participants * N_CLASSES
    _require(data.shape == (n_seq * frames, 87),
             f"{dataset.name}: {data.shape} rows x columns, "
             f"expected ({n_seq * frames}, 87)")
    keys = {(int(p), int(a)) for p, a in data[:, :2]}
    _require(keys == {(p, a) for p in range(1, participants + 1)
                      for a in range(1, N_CLASSES + 1)},
             f"{dataset.name}: sequences do not cover every participant and activity")

    fheader, fdata = read_numeric_csv(features)
    n_feat = (N_JOINTS - 1) * 3
    _require(fheader == [f"f{i}" for i in range(n_feat)] + ["label"],
             f"{features.name}: unexpected header")
    _require(fdata.shape == (n_seq * WINDOW, n_feat + 1),
             f"{features.name}: {fdata.shape} rows x columns, "
             f"expected ({n_seq * WINDOW}, {n_feat + 1})")

    rows, labels = coordinate_features(data, frames)
    _require(np.array_equal(fdata[:, -1], labels), f"{features.name}: labels disagree")
    close = np.isclose(fdata[:, :-1], rows, rtol=SIG9_RTOL, atol=1e-12)
    if not close.all():
        r, c = np.argwhere(~close)[0]
        raise CheckError(
            f"{features.name}: line {r + 2} f{c} = {float(fdata[r, c])!r}, recomputed "
            f"{float(rows[r, c])!r} ({int((~close).sum())} values differ)")

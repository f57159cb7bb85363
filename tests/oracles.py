"""Independent reference implementations the library is tested against.

These stay deliberately naive (pure-Python loops, alternative decompositions)
so that they share no code path with the implementations they check.
"""

import heapq
import json
import math
from pathlib import Path

import numpy as np

from skelhar import (
    ActivityClass,
    ActivitySequence,
    DatasetFormatError,
    DatasetManifest,
    FileIngest,
    JointId,
    Modality,
    Violation,
    validate_sequence,
)
from skelhar.classifiers.base import validate_training_data
from skelhar.classifiers.mlp import BATCH_SIZE, _unpack, initial_weights
from skelhar.classifiers.tree import _Node
from skelhar.dataset import csv_columns
from skelhar.skeleton import MIN_SOURCE_FRAMES, N_JOINTS


def exhaustive_knn(train_x, train_y, queries, k):
    """O(n^2) nearest-neighbor scan.

    Neighbors sort by (squared distance, training index); the majority label
    among the first k wins, ties to the smallest label.
    """
    predictions = []
    for q in queries:
        scored = []
        for idx in range(len(train_x)):
            d2 = 0.0
            for a, b in zip(train_x[idx], q):
                d2 += (float(a) - float(b)) ** 2
            scored.append((d2, idx, int(train_y[idx])))
        scored.sort(key=lambda t: (t[0], t[1]))
        counts = {}
        for _, _, label in scored[:k]:
            counts[label] = counts.get(label, 0) + 1
        best = max(counts.values())
        predictions.append(min(l for l, c in counts.items() if c == best))
    return np.array(predictions, dtype=np.int64)


def pca_eigenvalues_by_svd(rows):
    """Eigenvalues of the sample covariance via singular values of the data."""
    rows = np.asarray(rows, dtype=np.float64)
    n, d = rows.shape
    centered = rows - rows.mean(axis=0)
    singular = np.linalg.svd(centered, compute_uv=False)
    eig = np.zeros(d)
    eig[:len(singular)] = singular**2 / (n - 1)
    return eig  # svd returns descending singular values


def retained_components(eigenvalues, threshold):
    """Smallest k whose cumulative eigenvalue share reaches the threshold."""
    total = float(np.sum(eigenvalues))
    running = 0.0
    for i, v in enumerate(eigenvalues, start=1):
        running += float(v)
        if running / total >= threshold:
            return i
    return len(eigenvalues)


def explicit_covariance_trace(rows):
    """Trace of the unbiased sample covariance, accumulated column by column."""
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    total = 0.0
    for j in range(rows.shape[1]):
        col = rows[:, j]
        mu = col.mean()
        total += float(np.sum((col - mu) ** 2)) / (n - 1)
    return total


def central_difference(f, x, index, eps=1e-5):
    xp = x.copy()
    xp[index] += eps
    xm = x.copy()
    xm[index] -= eps
    return (f(xp) - f(xm)) / (2.0 * eps)


def per_frame_violations(seq):
    """validate_sequence's violations, found by walking the frames one at a time."""
    violations = []
    if len(seq.frames) < MIN_SOURCE_FRAMES:
        violations.append(
            Violation(
                None,
                None,
                f"sequence has {len(seq.frames)} frames; "
                f"at least {MIN_SOURCE_FRAMES} are required for feature extraction",
            )
        )

    prev_index = None
    for position, (frame_index, positions) in enumerate(zip(seq.frame_index.tolist(),
                                                             seq.frames)):
        if prev_index is not None and frame_index <= prev_index:
            violations.append(
                Violation(
                    position,
                    frame_index,
                    f"frame_index {frame_index} not greater than predecessor {prev_index}",
                )
            )
        prev_index = frame_index

        bad = ~np.isfinite(positions)
        if bad.any():
            joints = sorted({JointId(int(j)).name for j in np.nonzero(bad)[0]})
            violations.append(
                Violation(
                    position,
                    frame_index,
                    f"non-finite coordinate at joint(s) {', '.join(joints)}",
                )
            )
        else:
            head = positions[JointId.Head]
            neck = positions[JointId.Neck]
            if math.sqrt(float(np.sum((neck - head) ** 2))) == 0.0:
                violations.append(
                    Violation(position, frame_index, "Head and Neck positions coincide")
                )
    return tuple(violations)


def per_frame_posture_row(joint_vectors, subset, dims, modality=Modality.COORDINATES):
    """normalize_posture for exactly one (28, 3) frame, in scalar steps."""
    joint_vectors = np.asarray(joint_vectors, dtype=np.float64)
    assert joint_vectors.shape == (N_JOINTS, 3)
    idx = [int(j) for j in subset.feature_joints]
    if modality is Modality.COORDINATES:
        head = joint_vectors[JointId.Head]
        neck = joint_vectors[JointId.Neck]
        ref = float(np.linalg.norm(neck - head))
        if ref == 0.0:
            raise ValueError("Head and Neck coincide: normalization reference is degenerate")
        selected = (joint_vectors[idx] - head) / ref
    else:
        selected = joint_vectors[idx]
    return selected[:, :dims].ravel()


def _oracle_gini(counts, n):
    return 1.0 - float(np.sum((counts / n) ** 2))


def per_feature_best_split(x, label_idx, idx, counts, min_gain=1e-12):
    """Best (gain, feature, threshold, left_rows, right_rows) for a node, or None.

    Each feature is argsorted on its own and scored from a one-hot cumsum;
    the first strictly larger gain wins, so ties go to the smaller feature,
    then the smaller threshold.
    """
    n = len(idx)
    g_node = _oracle_gini(counts, n)
    if g_node <= 0.0:
        return None
    best_gain = min_gain
    best = None
    n_classes = len(counts)
    node_labels = label_idx[idx]
    for f in range(x.shape[1]):
        vals = x[idx, f]
        order = np.argsort(vals, kind="stable")
        v = vals[order]
        cuts = np.nonzero(v[:-1] < v[1:])[0]
        if len(cuts) == 0:
            continue
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), node_labels[order]] = 1.0
        cum = np.cumsum(onehot, axis=0)
        lc = cum[cuts]
        rc = counts - lc
        nl = (cuts + 1).astype(np.float64)
        nr = n - nl
        gl = 1.0 - np.sum(lc * lc, axis=1) / (nl * nl)
        gr = 1.0 - np.sum(rc * rc, axis=1) / (nr * nr)
        gain = g_node - (nl * gl + nr * gr) / n
        j = int(np.argmax(gain))
        if gain[j] > best_gain:
            cut = cuts[j]
            thr = (v[cut] + v[cut + 1]) / 2.0
            if thr >= v[cut + 1]:  # adjacent floats: midpoint collapsed upward
                thr = v[cut]
            left = idx[order[:cut + 1]]
            right = idx[order[cut + 1:]]
            best_gain = float(gain[j])
            best = (best_gain, f, float(thr), left, right)
    return best


def per_feature_grow_tree(x, label_idx, class_set, max_splits):
    """Best-first CART growth that re-sorts every feature at every node."""
    n_total = x.shape[0]
    n_classes = len(class_set)

    def _make(idx):
        counts = np.bincount(label_idx[idx], minlength=n_classes).astype(np.float64)
        return _Node(int(class_set[int(np.argmax(counts))]), counts), idx, counts

    root, root_idx, root_counts = _make(np.arange(n_total))
    heap = []
    counter = 0

    def _enqueue(node, idx, counts):
        nonlocal counter
        split = per_feature_best_split(x, label_idx, idx, counts)
        if split is None:
            return
        decrease = split[0] * len(idx) / n_total
        heapq.heappush(heap, (-decrease, counter, node, split))
        counter += 1

    _enqueue(root, root_idx, root_counts)
    splits = 0
    while heap and splits < max_splits:
        _, _, node, (gain, feature, threshold, left_idx, right_idx) = heapq.heappop(heap)
        node.feature = feature
        node.threshold = threshold
        left, left_rows, left_counts = _make(left_idx)
        right, right_rows, right_counts = _make(right_idx)
        node.left, node.right = left, right
        _enqueue(left, left_rows, left_counts)
        _enqueue(right, right_rows, right_counts)
        splits += 1
    return root


# ---------------------------------------------------------------------------
# MLP training, one freshly allocated gradient per step
# ---------------------------------------------------------------------------

def per_step_loss_and_gradient(weights, batch_x, batch_y, hidden, n_out):
    """Mean cross-entropy over the batch and its gradient in the flat layout,
    every intermediate a new array and the gradient a concatenation."""
    batch_x = np.asarray(batch_x, dtype=np.float64)
    batch_y = np.asarray(batch_y, dtype=np.int64)
    n = batch_x.shape[0]
    w1, b1, w2, b2 = _unpack(np.asarray(weights, dtype=np.float64),
                             batch_x.shape[1], hidden, n_out)

    z1 = batch_x @ w1 + b1
    a1 = np.maximum(z1, 0.0)
    logits = a1 @ w2 + b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(log_norm - shifted[np.arange(n), batch_y]))

    probs = np.exp(shifted - log_norm[:, None])
    delta = probs
    delta[np.arange(n), batch_y] -= 1.0
    delta /= n

    grad_w2 = a1.T @ delta
    grad_b2 = delta.sum(axis=0)
    back = (delta @ w2.T) * (z1 > 0)
    grad_w1 = batch_x.T @ back
    grad_b1 = back.sum(axis=0)

    grad = np.concatenate([grad_w1.ravel(), grad_b1, grad_w2.ravel(), grad_b2])
    return loss, grad


def per_step_train_weights(spec, x, y):
    """Trained MLP weight vector: fancy-indexed batches and a new weight
    vector per step."""
    x, y, _ = validate_training_data(x, y)
    class_set = np.unique(y)
    y_idx = np.searchsorted(class_set, y)
    n = x.shape[0]

    weights = initial_weights(spec, x.shape[1], class_set)
    shuffle_rng = np.random.default_rng([spec.seed, 0])
    for _ in range(spec.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, BATCH_SIZE):
            rows = order[start:start + BATCH_SIZE]
            _, grad = per_step_loss_and_gradient(
                weights, x[rows], y_idx[rows], spec.hidden_width, len(class_set)
            )
            weights = weights - spec.learning_rate * grad
    return weights


# ---------------------------------------------------------------------------
# SMO, one machine at a time
# ---------------------------------------------------------------------------

def per_machine_smo(k, y, c, tol, max_steps=1_000_000):
    """(alphas, bias) of one machine's dual on its Gram matrix k: one
    working pair per step with scalar updates, as LIBSVM takes it."""
    n = len(y)
    alpha = np.zeros(n)
    grad = -np.ones(n)  # G = Q alpha - e, updated after every step
    diag = np.diag(k).copy()
    pos = y > 0
    # I_up: multipliers that may grow along y; I_low: that may shrink
    up = pos.copy()
    low = ~pos

    for _ in range(max_steps):
        minus_yg = -y * grad
        masked = np.where(up, minus_yg, -np.inf)
        i = int(np.argmax(masked))
        g_max = masked[i]
        g_min = np.min(minus_yg, where=low, initial=np.inf)
        if g_max - g_min < tol:
            break
        gain = g_max - minus_yg
        curve = diag[i] + diag - 2.0 * k[i]
        curve[curve <= 0] = 1e-12
        j = int(np.argmin(np.where(low & (gain > 0), -(gain * gain) / curve, np.inf)))

        old_i, old_j = float(alpha[i]), float(alpha[j])
        quad = curve[j]
        # LIBSVM's clipping: each bound is restored from the pair's invariant
        # (diff or total), so both multipliers land in [0, C] exactly
        if y[i] != y[j]:
            delta = (-grad[i] - grad[j]) / quad
            diff = old_i - old_j
            a_i, a_j = old_i + delta, old_j + delta
            if diff > 0:
                if a_j < 0:
                    a_j, a_i = 0.0, diff
                if a_i > c:
                    a_i, a_j = c, c - diff
            else:
                if a_i < 0:
                    a_i, a_j = 0.0, -diff
                if a_j > c:
                    a_j, a_i = c, c + diff
        else:
            delta = (grad[i] - grad[j]) / quad
            total = old_i + old_j
            a_i, a_j = old_i - delta, old_j + delta
            if total > c:
                if a_i > c:
                    a_i, a_j = c, total - c
                if a_j > c:
                    a_j, a_i = c, total - c
            else:
                if a_j < 0:
                    a_j, a_i = 0.0, total
                if a_i < 0:
                    a_i, a_j = 0.0, total

        grad += y * (k[i] * (y[i] * (a_i - old_i)) + k[j] * (y[j] * (a_j - old_j)))
        alpha[i], alpha[j] = a_i, a_j
        for t in (i, j):
            up[t] = alpha[t] < c if pos[t] else alpha[t] > 0
            low[t] = alpha[t] > 0 if pos[t] else alpha[t] < c
    else:
        raise RuntimeError(f"SMO did not converge within {max_steps} steps")

    free = (alpha > 0) & (alpha < c)
    if free.any():
        rho = float(np.mean(y[free] * grad[free]))
    else:
        rho = -(float(g_max) + float(g_min)) / 2.0
    return alpha, -rho


# ---------------------------------------------------------------------------
# Synthetic generation, one frame at a time
# ---------------------------------------------------------------------------

def _pitch_matrix(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _sagittal(theta):
    return np.array([0.0, -math.cos(theta), math.sin(theta)])


def _build_pose(pelvis_height, torso_pitch, head_pitch, r_shoulder, l_shoulder,
                r_elbow, l_elbow, r_hip, l_hip, r_knee, l_knee, lying=False):
    """One (28, 3) pose from scalar joint angles."""
    out = np.zeros((N_JOINTS, 3))
    pelvis = np.array([0.0, pelvis_height, 0.0])
    torso_up = np.array([0.0, math.cos(torso_pitch), math.sin(torso_pitch)])

    hip = pelvis
    lower = hip + 0.10 * torso_up
    middle = lower + 0.15 * torso_up
    chest = middle + 0.15 * torso_up
    neck = chest + 0.15 * torso_up
    head_up = _pitch_matrix(torso_pitch + head_pitch) @ np.array([0.0, 1.0, 0.0])
    head = neck + 0.15 * head_up
    eff_head = head + 0.10 * head_up
    eye = head + _pitch_matrix(torso_pitch + head_pitch) @ np.array([0.03, 0.02, 0.08])

    out[JointId.Hip] = hip
    out[JointId.LowerSpine] = lower
    out[JointId.MiddleSpine] = middle
    out[JointId.Chest] = chest
    out[JointId.Neck] = neck
    out[JointId.Head] = head
    out[JointId.EffectorHead] = eff_head
    out[JointId.REye] = eye

    com = hip + 0.35 * (chest - hip)
    out[JointId.CenterOfMass] = com
    out[JointId.CenterOfMassGroundProjection] = np.array([com[0], 0.0, com[2]])

    for side, shoulder_pitch, elbow_bend, clav_id, sh_id, fore_id, hand_id in (
        (+1.0, r_shoulder, r_elbow, JointId.RClavicle, JointId.RShoulder,
         JointId.RForearm, JointId.RHand),
        (-1.0, l_shoulder, l_elbow, JointId.LClavicle, JointId.LShoulder,
         JointId.LForearm, JointId.LHand),
    ):
        shoulder = neck + np.array([side * 0.19, -0.05, 0.0])
        elbow = shoulder + 0.28 * _sagittal(shoulder_pitch)
        out[clav_id] = neck + np.array([side * 0.07, -0.02, 0.0])
        out[sh_id] = shoulder
        out[fore_id] = elbow
        out[hand_id] = elbow + 0.26 * _sagittal(shoulder_pitch + elbow_bend)

    for side, hip_pitch, knee_bend, thigh_id, shin_id, foot_id, toe_id, eff_id in (
        (+1.0, r_hip, r_knee, JointId.RThigh, JointId.RShin, JointId.RFoot,
         JointId.RToe, JointId.EffectorRToe),
        (-1.0, l_hip, l_knee, JointId.LThigh, JointId.LShin, JointId.LFoot,
         JointId.LToe, JointId.EffectorLToe),
    ):
        thigh = pelvis + np.array([side * 0.09, -0.02, 0.0])
        knee = thigh + 0.44 * _sagittal(hip_pitch)
        ankle = knee + 0.42 * _sagittal(hip_pitch - knee_bend)
        toe = ankle + np.array([0.0, -0.05, 0.13])
        out[thigh_id] = thigh
        out[shin_id] = knee
        out[foot_id] = ankle
        out[toe_id] = toe
        out[eff_id] = toe + np.array([0.0, -0.01, 0.05])

    if lying:
        rotated = np.empty_like(out)
        rotated[:, 0] = out[:, 1]
        rotated[:, 1] = 0.45 - out[:, 0]
        rotated[:, 2] = out[:, 2]
        out = rotated
    return out


def _swing(base, amplitude, phase):
    return base + amplitude * max(0.0, math.sin(phase))


def per_frame_class_template(label, phase):
    """class_template for one scalar phase, from Python floats and math.sin."""
    s = math.sin(phase)
    if label == 1:
        return _build_pose(0.55, -0.08, 0.05, 0.55, 0.55, 0.95, 0.95,
                           1.45, 1.45, 1.40, 1.40)
    if label == 2:
        return _build_pose(1.00, 0.03, 0.62, 0.62, 0.30, 1.65, 0.80,
                           0.00, 0.00, 0.03, 0.03)
    if label == 3:
        return _build_pose(0.70, 0.18, 0.15, 0.35, 0.35, 0.55, 0.55,
                           1.10, 1.10, 1.45, 1.45)
    if label == 4:
        return _build_pose(0.0, 0.0, 0.10, 0.90, 0.90, 1.90, 1.90,
                           0.35, 0.35, 0.50, 0.50, lying=True)
    if label == 5:
        return _build_pose(1.00, 0.06, 0.0, -0.40 * s, 0.40 * s, 0.20, 0.20,
                           0.45 * s, -0.45 * s,
                           _swing(0.10, 0.45, phase), _swing(0.10, 0.45, phase + math.pi))
    if label == 6:
        return _build_pose(1.00, 0.03, 0.62, 0.40, 0.40, 1.55, 1.55,
                           0.45 * s, -0.45 * s,
                           _swing(0.10, 0.45, phase), _swing(0.10, 0.45, phase + math.pi))
    if label == 7:
        return _build_pose(1.00, -0.08, 0.0, 1.05, 1.05, 0.25, 0.25,
                           0.32 * s, -0.32 * s,
                           _swing(0.10, 0.32, phase), _swing(0.10, 0.32, phase + math.pi))
    if label == 8:
        return _build_pose(1.00, 0.30, 0.05, -0.75, 0.25 * s, 0.15, 0.25,
                           0.38 * s, -0.38 * s,
                           _swing(0.10, 0.40, phase), _swing(0.10, 0.40, phase + math.pi))
    if label == 9:
        return _build_pose(0.98 + 0.02 * math.sin(2 * phase), 0.12, 0.0,
                           -0.55 * s, 0.55 * s, 1.15, 1.15,
                           0.80 * s, -0.80 * s,
                           _swing(0.15, 0.85, phase), _swing(0.15, 0.85, phase + math.pi))
    raise ValueError(label)


def sig9_by_text(a):
    """Every value rounded to 9 significant digits through "%.9g" text."""
    a = np.asarray(a, dtype=np.float64)
    return np.array([float("%.9g" % v) for v in a.ravel().tolist()]).reshape(a.shape)


def per_frame_sequence(spec, participant, label, rounded=True):
    """_generate_sequence's frames, posed and moved one frame at a time.

    The RNG is drawn in the generator's order: scale, yaw, home x, home z,
    phase, speed (dynamic classes only), then the (T, 28, 3) noise block.
    The frames are rounded through "%.9g" text unless rounded is False.
    """
    rng = np.random.default_rng([spec.seed, participant, label])
    scale = rng.uniform(0.92, 1.08)
    yaw = rng.uniform(-0.35, 0.35)
    home = np.array([rng.uniform(-1.0, 1.0), 0.0, rng.uniform(2.0, 4.0)])
    phase0 = rng.uniform(0.0, 2 * math.pi)
    dynamic = label >= 5
    speed = rng.uniform(*spec.gait_speed_range[label]) if dynamic else 0.0
    rate = (2 * math.pi / 14 if label == 9 else 2 * math.pi / 24) if dynamic else 0.0

    n = spec.frames_per_sequence
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    heading = rot @ np.array([0.0, 0.0, 1.0])
    noise = rng.normal(0.0, spec.noise_sigma, size=(n, N_JOINTS, 3))

    positions = np.empty((n, N_JOINTS, 3))
    for t in range(n):
        pose = (scale * per_frame_class_template(label, phase0 + rate * t)) @ rot.T
        walk = (t - (n - 1) / 2.0) * speed * heading
        positions[t] = pose + home + walk
    return sig9_by_text(positions + noise) if rounded else positions + noise


def format_sig9_by_text(rows):
    """Each row of a 2-D float array as "%.9g" values joined by commas, one
    Python format per row."""
    template = ",".join(["%.9g"] * rows.shape[1])
    return [template % tuple(row.tolist()) for row in rows]


def read_dataset_by_lines(path):
    """The dataset reader as one loop over the file's lines, each row parsed
    on its own; lines end in LF or CRLF only."""
    with open(path, encoding="utf-8", newline="") as f:
        text = f.read().replace("\r\n", "\n")
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()
    if not lines:
        raise DatasetFormatError("empty file: missing header")
    n_cols = len(csv_columns())
    header_fields = lines[0].split(",")
    if header_fields != csv_columns():
        if len(header_fields) != n_cols:
            raise DatasetFormatError(
                f"header has {len(header_fields)} columns, expected {n_cols}", line=1)
        got, want = next((g, w) for g, w in zip(header_fields, csv_columns()) if g != w)
        raise DatasetFormatError(f"unknown column {got!r} where {want!r} was expected", line=1)

    coords = np.empty((len(lines) - 1, n_cols - 3))
    frame_index = np.empty(len(lines) - 1, dtype=np.int64)
    row_lines = np.empty(len(lines) - 1, dtype=np.int64)
    starts = {}
    n = 0
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != n_cols:
            raise DatasetFormatError(f"row has {len(fields)} fields, expected {n_cols}",
                                     line=line_no)
        try:
            key = (int(fields[0]), int(fields[1]))
            frame = int(fields[2])
        except ValueError as exc:
            raise DatasetFormatError(f"malformed row key: {exc}", line=line_no) from exc
        try:
            coords[n] = fields[3:]
        except ValueError as exc:
            raise DatasetFormatError(f"malformed coordinate: {exc}", line=line_no) from exc
        if key not in starts:
            starts[key] = n
        elif key != next(reversed(starts)):
            raise DatasetFormatError(
                f"rows for (participant={key[0]}, activity={key[1]}) are not contiguous",
                line=line_no)
        if not 0 <= frame <= np.iinfo(np.int64).max:
            bound = ("be non-negative" if frame < 0
                     else f"be at most {np.iinfo(np.int64).max}")
            raise DatasetFormatError(f"frame_index must {bound}, got {frame}", line=line_no)
        frame_index[n], row_lines[n] = frame, line_no
        n += 1

    sequences = []
    ends = list(starts.values())[1:] + [n]
    for ((participant, label), lo), hi in zip(starts.items(), ends):
        try:
            seq = ActivitySequence(participant, ActivityClass(label),
                                   coords[lo:hi].reshape(-1, 28, 3), frame_index[lo:hi])
        except ValueError as exc:
            raise DatasetFormatError(str(exc), line=int(row_lines[lo])) from exc
        violations = validate_sequence(seq).violations
        if violations:
            v = violations[0]
            raise DatasetFormatError(
                f"sequence (participant={participant}, activity={label}): {v.message}",
                line=None if v.position is None else int(row_lines[lo + v.position]))
        sequences.append(seq)
    return DatasetManifest(tuple(sequences), FileIngest(str(Path(path))))


def bundle_json_text(obj, depth=0):
    """The bundle JSON layout, built whole as one string, without its final
    newline: json.dumps(obj, indent=2, sort_keys=True), except that a list or
    tuple with no list, tuple or dict among its items is json.dumps(obj)."""
    if isinstance(obj, (list, tuple)):
        if not any(isinstance(item, (list, tuple, dict)) for item in obj):
            return json.dumps(obj)
        brackets, lines = "[]", [bundle_json_text(item, depth + 1) for item in obj]
    elif isinstance(obj, dict) and obj:
        brackets = "{}"
        lines = [json.dumps(key) + ": " + bundle_json_text(obj[key], depth + 1)
                 for key in sorted(obj)]
    else:
        return json.dumps(obj)
    indent = "  " * (depth + 1)
    body = ",\n".join(indent + line for line in lines)
    return brackets[0] + "\n" + body + "\n" + "  " * depth + brackets[1]

"""Independent reference implementations the library is tested against.

These stay deliberately naive (pure-Python loops, alternative decompositions)
so that they share no code path with the implementations they check.
"""

import math

import numpy as np

from skelhar import JointId, Modality, Violation
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

"""Independent reference implementations the library is tested against.

These stay deliberately naive (pure-Python loops, alternative decompositions)
so that they share no code path with the implementations they check.
"""

import heapq
import math

import numpy as np

from skelhar import JointId, Modality, Violation
from skelhar.classifiers.tree import _Node
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

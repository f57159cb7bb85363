"""k-nearest-neighbor classifier (Euclidean, unweighted, k=1 by default)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import FineKnnSpec, TrainedModel, validate_training_data

_CHUNK = 512


@dataclass(eq=False)
class FineKnnModel(TrainedModel):
    """Stores the training set; prediction is an exact nearest-neighbor scan.

    Neighbor order is (squared distance, training index); among the k
    nearest, the majority label wins and vote ties resolve to the smallest
    label. Distance ties at the k-th position therefore admit the
    lower-index training row, deterministically.
    """

    kind = "fine_knn"

    spec: FineKnnSpec
    train_x: np.ndarray
    train_y: np.ndarray
    class_set: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if len(self.train_y) != len(self.train_x):
            raise ValueError(f"{self.kind} model: train_y has {len(self.train_y)} labels "
                             f"for {len(self.train_x)} train_x rows")

    def _vote_counts(self, rows: np.ndarray) -> np.ndarray:
        """(n_rows, n_classes) count of each class among the k nearest."""
        rows = self._check_rows(rows, self.train_x.shape[1])
        k = self.spec.k
        train_sq = np.einsum("ij,ij->i", self.train_x, self.train_x)
        label_idx = np.searchsorted(self.class_set, self.train_y)
        counts = np.zeros((rows.shape[0], len(self.class_set)))
        for start in range(0, rows.shape[0], _CHUNK):
            q = rows[start:start + _CHUNK]
            d2 = train_sq[None, :] - 2.0 * (q @ self.train_x.T)
            d2 += np.einsum("ij,ij->i", q, q)[:, None]
            if k == 1:
                nearest = np.argmin(d2, axis=1)[:, None]  # first minimum = lowest index
            else:
                nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
            block = counts[start:start + q.shape[0]]
            for col in label_idx[nearest].T:
                block[np.arange(q.shape[0]), col] += 1
        return counts

    def predict(self, rows: np.ndarray) -> np.ndarray:
        # argmax picks the first maximum: vote ties go to the smallest label
        return self.class_set[np.argmax(self._vote_counts(rows), axis=1)]

    def decision_scores(self, rows: np.ndarray) -> np.ndarray:
        """Share of the k nearest neighbors per class."""
        return self._vote_counts(rows) / self.spec.k


def train_knn(spec: FineKnnSpec, x: np.ndarray, y: np.ndarray) -> FineKnnModel:
    x, y, class_set = validate_training_data(x, y)
    if spec.k > x.shape[0]:
        raise ValueError(f"k={spec.k} exceeds the {x.shape[0]} training rows")
    return FineKnnModel(spec, x, y, class_set)

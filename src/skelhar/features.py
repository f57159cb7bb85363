"""Posture feature extraction from skeleton sequences.

The pipeline per (participant, activity) sequence:

1. take the centered contiguous window of 51 source frames;
2. derive the requested modality: raw coordinates (51 rows), per-frame
   velocities by first forward difference (50), or accelerations by second
   difference (49);
3. for the coordinate modality, re-express every joint relative to the head
   and divide by the head-neck distance, which cancels where the subject
   stood and how large they are; velocity and acceleration stay in the world
   frame so whole-body motion survives;
4. keep only the configured joint subset (the head itself contributes no
   feature: its relative position is identically zero), optionally drop the
   depth component, and flatten to one row per frame.

Stacking the rows of every sequence, ordered by (participant, activity,
frame), yields the input matrix, with its aligned label and participant
columns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .dataset import DatasetManifest
from .skeleton import (
    MIN_SOURCE_FRAMES,
    N_JOINTS,
    ActivitySequence,
    JointId,
    head_neck_length,
)

C9_JOINTS = (
    JointId.Head,
    JointId.Neck,
    JointId.Chest,
    JointId.Hip,
    JointId.CenterOfMass,
    JointId.RHand,
    JointId.LHand,
    JointId.RFoot,
    JointId.LFoot,
)

C18_JOINTS = C9_JOINTS + (
    JointId.MiddleSpine,
    JointId.RShoulder,
    JointId.RForearm,
    JointId.LShoulder,
    JointId.LForearm,
    JointId.RThigh,
    JointId.RShin,
    JointId.LThigh,
    JointId.LShin,
)

C28_JOINTS = tuple(JointId)

# The named subsets, by the name that parse_subset, the CLI and config files use.
SUBSETS = {"c9": C9_JOINTS, "c18": C18_JOINTS, "c28": C28_JOINTS}


class Modality(enum.Enum):
    """Which per-frame quantity feeds the feature vectors."""

    COORDINATES = "coordinates"
    VELOCITY = "velocity"
    ACCELERATION = "acceleration"


@dataclass(frozen=True)
class JointSubset:
    """A named or custom selection of joints entering the feature vector."""

    name: str
    joints: tuple[JointId, ...]

    @classmethod
    def c9(cls) -> "JointSubset":
        return cls("c9", C9_JOINTS)

    @classmethod
    def c18(cls) -> "JointSubset":
        return cls("c18", C18_JOINTS)

    @classmethod
    def c28(cls) -> "JointSubset":
        return cls("c28", C28_JOINTS)

    @classmethod
    def custom(cls, joints: list[JointId] | tuple[JointId, ...]) -> "JointSubset":
        joints = tuple(joints)
        if not joints:
            raise ValueError("custom joint subset must be nonempty")
        if len(set(joints)) != len(joints):
            raise ValueError("custom joint subset contains duplicates")
        if JointId.Head in joints:
            raise ValueError(
                "custom joint subset must not include Head: the reference joint "
                "contributes no feature"
            )
        return cls("custom", joints)

    def __post_init__(self):
        if self.name in SUBSETS and self.joints != SUBSETS[self.name]:
            raise ValueError(f"subset {self.name} has a fixed member list")

    @property
    def feature_joints(self) -> tuple[JointId, ...]:
        """Subset joints in canonical order, minus the Head reference."""
        ordered = sorted(self.joints, key=int)
        return tuple(j for j in ordered if j is not JointId.Head)

    def feature_dimension(self, dims: int) -> int:
        return len(self.feature_joints) * dims


def parse_subset(text: str) -> JointSubset:
    """Parse a subset name: one of SUBSETS, or list:<JointName>,<JointName>,..."""
    if text in SUBSETS:
        return JointSubset(text, SUBSETS[text])
    if text.startswith("list:"):
        names = [n for n in text[len("list:"):].split(",") if n]
        try:
            joints = [JointId[n] for n in names]
        except KeyError as exc:
            raise ValueError(f"unknown joint name {exc.args[0]!r}") from None
        return JointSubset.custom(joints)
    raise ValueError(f"unknown joint subset {text!r}; expected one of "
                     f"{', '.join(SUBSETS)}, list:<names>")


@dataclass(frozen=True)
class Provenance:
    modality: Modality
    subset: str
    dims: int
    manifest_id: str


@dataclass(frozen=True)
class FeatureMatrix:
    """Feature rows with aligned labels in 1..9 and optional participant ids."""

    rows: np.ndarray
    labels: np.ndarray
    participants: np.ndarray | None
    provenance: Provenance

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        object.__setattr__(self, "rows", rows)
        labels = np.asarray(self.labels, dtype=np.int64)
        if len(labels) != len(rows):
            raise ValueError("labels length must match row count")
        if len(labels) and (labels.min() < 1 or labels.max() > 9):
            raise ValueError("labels must lie in 1..9")
        object.__setattr__(self, "labels", labels)
        if self.participants is not None:
            parts = np.asarray(self.participants, dtype=np.int64)
            if len(parts) != len(rows):
                raise ValueError("participants length must match row count")
            object.__setattr__(self, "participants", parts)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    def take(self, indices: np.ndarray) -> "FeatureMatrix":
        """Row-subset view preserving labels, participants, and provenance."""
        indices = np.asarray(indices)
        return FeatureMatrix(
            self.rows[indices],
            self.labels[indices],
            None if self.participants is None else self.participants[indices],
            self.provenance,
        )

    def with_rows(self, rows: np.ndarray) -> "FeatureMatrix":
        """Replace the feature columns (e.g. after PCA), keeping alignment."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape[0] != self.n_rows:
            raise ValueError("replacement rows must keep the row count")
        return FeatureMatrix(rows, self.labels, self.participants, self.provenance)


def select_frames(seq: ActivitySequence, positions: tuple[int, ...] | None = None
                  ) -> np.ndarray:
    """The 51-frame source window of a sequence, shape (51, 28, 3).

    By default this is the centered contiguous window, a deterministic proxy
    for hand-picked key poses; positions overrides it with explicit 0-based
    frame positions (strictly increasing, exactly 51). All modalities share
    the 51-pose budget; differencing later shortens velocity to 50 rows and
    acceleration to 49.
    """
    n = len(seq.frames)
    if n < MIN_SOURCE_FRAMES:
        raise ValueError(
            f"sequence (participant={seq.participant_id}, "
            f"activity={seq.activity.label}) has {n} frames; "
            f"{MIN_SOURCE_FRAMES} are required"
        )
    if positions is None:
        start = (n - MIN_SOURCE_FRAMES) // 2
        return seq.frames[start:start + MIN_SOURCE_FRAMES]
    if len(positions) != MIN_SOURCE_FRAMES:
        raise ValueError(
            f"an explicit frame list must name exactly {MIN_SOURCE_FRAMES} "
            f"positions, got {len(positions)}"
        )
    if any(b <= a for a, b in zip(positions, positions[1:])):
        raise ValueError("explicit frame positions must be strictly increasing")
    if positions[0] < 0 or positions[-1] >= n:
        raise ValueError(
            f"explicit frame positions must lie in 0..{n - 1} for a "
            f"{n}-frame sequence"
        )
    return seq.frames[list(positions)]


def derive_modality(window: np.ndarray, modality: Modality) -> np.ndarray:
    """Per-frame joint vectors for a modality, shape (budget, 28, 3).

    window is the (51, 28, 3) source window. Velocity is the first forward
    difference of positions (meters/frame), acceleration the second
    difference (meters/frame^2); the frame interval is one, since the stream
    carries indices rather than timestamps.
    """
    positions = np.asarray(window, dtype=np.float64)
    if len(positions) != MIN_SOURCE_FRAMES:
        raise ValueError(f"expected {MIN_SOURCE_FRAMES} frames, got {len(positions)}")
    if modality is Modality.COORDINATES:
        return positions
    if modality is Modality.VELOCITY:
        return np.diff(positions, n=1, axis=0)
    return np.diff(positions, n=2, axis=0)


def normalize_posture(joint_vectors: np.ndarray, subset: JointSubset, dims: int,
                      modality: Modality = Modality.COORDINATES) -> np.ndarray:
    """Flatten joint vectors of shape (..., 28, 3) into posture feature rows (..., F).

    Coordinates are re-expressed relative to the head and scaled by the
    head-neck distance, making each row invariant to where the subject stood
    and to uniform body scale (not to rotation). Velocity and acceleration
    vectors pass through unnormalized in the same joint layout. A single
    (28, 3) frame gives one (F,) row.
    """
    if dims not in (2, 3):
        raise ValueError(f"dims must be 2 or 3, got {dims}")
    joint_vectors = np.asarray(joint_vectors, dtype=np.float64)
    if joint_vectors.shape[-2:] != (N_JOINTS, 3):
        raise ValueError(
            f"expected (..., {N_JOINTS}, 3) joint vectors, got {joint_vectors.shape}"
        )

    idx = [int(j) for j in subset.feature_joints]
    selected = joint_vectors[..., idx, :dims]
    if modality is Modality.COORDINATES:
        head = joint_vectors[..., JointId.Head, :]
        ref = head_neck_length(joint_vectors)
        if (ref == 0.0).any():
            raise ValueError("Head and Neck coincide: normalization reference is degenerate")
        selected = (selected - head[..., None, :dims]) / ref[..., None, None]
    return selected.reshape(*joint_vectors.shape[:-2], len(idx) * dims)


def build_feature_matrix(manifest: DatasetManifest, modality: Modality,
                         subset: JointSubset, dims: int,
                         frame_positions: tuple[int, ...] | None = None
                         ) -> FeatureMatrix:
    """Extract the full feature matrix for a dataset, with the activity label
    and participant id of every row.

    Rows are ordered by (participant, activity, frame); each sequence
    contributes exactly the modality's frame budget. frame_positions
    replaces the centered source window with an explicit per-sequence frame
    list. PipelineConfig.feature_matrix calls this with a config's fields.
    """
    sequences = sorted(manifest.sequences,
                       key=lambda s: (s.participant_id, s.activity.label))
    blocks: list[np.ndarray] = []
    labels: list[int] = []
    participants: list[int] = []
    for seq in sequences:
        vectors = derive_modality(select_frames(seq, frame_positions), modality)
        block = normalize_posture(vectors, subset, dims, modality)
        blocks.append(block)
        labels.extend([seq.activity.label] * block.shape[0])
        participants.extend([seq.participant_id] * block.shape[0])

    dim = subset.feature_dimension(dims)
    rows = np.concatenate(blocks) if blocks else np.empty((0, dim))
    provenance = Provenance(modality, subset.name, dims, manifest.manifest_id)
    return FeatureMatrix(
        rows,
        np.array(labels, dtype=np.int64),
        np.array(participants, dtype=np.int64),
        provenance,
    )

"""Canonical domain types for skeleton streams: joints, sequences, labels.

The joint taxonomy is the 28-joint skeleton emitted by RGB-D body trackers,
indexed in a fixed canonical order. All downstream code (file layout, feature
layout) derives column order from :class:`JointId`, so the enum order is part
of the on-disk contract and must never be reordered.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

# Coordinate-modality extraction consumes a window of this many source poses;
# velocity/acceleration are derived by differencing inside the window.
MIN_SOURCE_FRAMES = 51

N_JOINTS = 28
N_CLASSES = 9


class JointId(enum.IntEnum):
    """The 28 tracked body joints, in canonical index order.

    Head (0) and Neck (1) are the reference pair for posture normalization.
    """

    Head = 0
    Neck = 1
    Chest = 2
    MiddleSpine = 3
    LowerSpine = 4
    Hip = 5
    CenterOfMass = 6
    CenterOfMassGroundProjection = 7
    REye = 8
    EffectorHead = 9
    RClavicle = 10
    RShoulder = 11
    RForearm = 12
    RHand = 13
    LClavicle = 14
    LShoulder = 15
    LForearm = 16
    LHand = 17
    RThigh = 18
    RShin = 19
    RFoot = 20
    RToe = 21
    EffectorRToe = 22
    LThigh = 23
    LShin = 24
    LFoot = 25
    LToe = 26
    EffectorLToe = 27


class ActivityKind(enum.Enum):
    STATIONARY = "stationary"
    DYNAMIC = "dynamic"


_ACTIVITY_NAMES = {
    1: "sitting on office chair",
    2: "standing and texting",
    3: "sitting on stool",
    4: "lying on couch",
    5: "walking",
    6: "walking and texting",
    7: "carrying objects",
    8: "pulling object",
    9: "running",
}

STATIONARY_LABELS = (1, 2, 3, 4)
DYNAMIC_LABELS = (5, 6, 7, 8, 9)


@dataclass(frozen=True, order=True)
class ActivityClass:
    """One of the nine activity classes, labeled 1..9.

    Classes 1-4 are stationary postures, classes 5-9 are dynamic
    (locomotion) activities.
    """

    label: int

    def __post_init__(self):
        if self.label not in _ACTIVITY_NAMES:
            raise ValueError(f"activity label must be in 1..9, got {self.label}")

    @property
    def name(self) -> str:
        return _ACTIVITY_NAMES[self.label]

    @property
    def kind(self) -> ActivityKind:
        return ActivityKind.STATIONARY if self.label <= 4 else ActivityKind.DYNAMIC


@dataclass(frozen=True)
class ActivitySequence:
    """Ordered frames for one (participant, activity) pair.

    frames is a read-only (T, 28, 3) float64 array of (x, y, z) joint
    positions in meters, one pose per frame; frame_index is the read-only
    (T,) int64 array of the frames' stream indices. Finiteness, index order
    and the Head != Neck requirement are *reported* by validate_sequence
    rather than enforced here, so that malformed data can be represented
    long enough to be diagnosed.
    """

    participant_id: int
    activity: ActivityClass
    frames: np.ndarray
    frame_index: np.ndarray

    def __post_init__(self):
        if self.participant_id < 1:
            raise ValueError(f"participant_id must be >= 1, got {self.participant_id}")
        frames = np.array(self.frames, dtype=np.float64)
        index = np.array(self.frame_index, dtype=np.int64)
        if frames.shape[1:] != (N_JOINTS, 3) or index.shape != frames.shape[:1]:
            raise ValueError(f"frames must have shape (T, {N_JOINTS}, 3) and frame_index "
                             f"(T,), got {frames.shape} and {index.shape}")
        if (index < 0).any():
            raise ValueError(f"frame_index must be non-negative, got {index.min()}")
        frames.setflags(write=False)
        index.setflags(write=False)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "frame_index", index)

    def __len__(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class Violation:
    """One violated invariant, located at a frame when applicable.

    position is the frame's 0-based place in the sequence and frame_index
    its stored index; both are None for a whole-sequence violation.
    """

    position: int | None
    frame_index: int | None
    message: str


@dataclass(frozen=True)
class ValidationResult:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def head_neck_length(joint_vectors: np.ndarray) -> np.ndarray:
    """The Head-Neck distance of each (..., 28, 3) frame: the normalization
    reference, 0 where the two joints coincide.

    sqrt of the batched dot product is bit-identical to np.linalg.norm of
    one 3-vector; norm(axis=-1) rounds differently.
    """
    reference = joint_vectors[..., JointId.Neck, :] - joint_vectors[..., JointId.Head, :]
    return np.sqrt(reference[..., None, :] @ reference[..., :, None])[..., 0, 0]


def validate_sequence(seq: ActivitySequence) -> ValidationResult:
    """Check every sequence invariant and report all violations found.

    Violations are data, not faults: the function never raises on bad
    content. Checks, per frame where applicable:

    * frame_index strictly increasing across the sequence
    * at least MIN_SOURCE_FRAMES frames (coordinate-window requirement)
    * all coordinates finite
    * Head and Neck positions distinct (the normalization reference pair)

    Frame violations come in frame order; within a frame, an index-order
    violation precedes a coordinate one.
    """
    violations: list[Violation] = []
    frames, index = seq.frames, seq.frame_index

    if len(frames) < MIN_SOURCE_FRAMES:
        violations.append(
            Violation(
                None,
                None,
                f"sequence has {len(frames)} frames; "
                f"at least {MIN_SOURCE_FRAMES} are required for feature extraction",
            )
        )

    not_increasing = np.zeros(len(index), dtype=bool)
    not_increasing[1:] = index[1:] <= index[:-1]
    bad_joints = ~np.isfinite(frames).all(axis=2)
    non_finite = bad_joints.any(axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        coincide = head_neck_length(frames) == 0.0

    for t in np.flatnonzero(not_increasing | non_finite | coincide).tolist():
        frame_index = int(index[t])
        if not_increasing[t]:
            message = f"frame_index {frame_index} not greater than predecessor {index[t - 1]}"
            violations.append(Violation(t, frame_index, message))
        if non_finite[t]:
            joints = sorted(JointId(int(j)).name for j in np.flatnonzero(bad_joints[t]))
            message = f"non-finite coordinate at joint(s) {', '.join(joints)}"
            violations.append(Violation(t, frame_index, message))
        elif coincide[t]:
            violations.append(Violation(t, frame_index, "Head and Neck positions coincide"))

    return ValidationResult(tuple(violations))

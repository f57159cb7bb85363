#!/usr/bin/env python3
"""Walk through feature extraction: frame window, modalities, normalization.

Posture features re-express every joint relative to the head, scaled by the
head-neck distance. That buys invariance to where the subject stood and how
tall they are, while keeping orientation information. Velocity and
acceleration features are plain world-frame differences, so whole-body
motion survives in them.
"""

import numpy as np

from skelhar import (
    JointSubset,
    Modality,
    SynthSpec,
    build_feature_matrix,
    derive_modality,
    generate_synthetic,
    normalize_posture,
    select_frames,
)

manifest = generate_synthetic(SynthSpec(n_participants=2, frames_per_sequence=75,
                                        seed=7))
seq = manifest.sequences[0]

window = select_frames(seq)
print(f"sequence has {len(seq)} frames; the centered source window keeps "
      f"{len(window)}")

for modality in Modality:
    vectors = derive_modality(window, modality)
    print(f"  {modality.value:13s} -> {vectors.shape[0]} per-frame vector sets")

# invariances of the coordinate features
positions = window[0]
subset = JointSubset.c28()
base = normalize_posture(positions, subset, 3)
moved = normalize_posture(positions * 2.5 + np.array([4.0, 0.5, -9.0]), subset, 3)
rot = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
rotated = normalize_posture(positions @ rot.T, subset, 3)
print(f"\nfeature dimension for all 28 joints in 3D: {base.shape[0]}")
print(f"max feature change under scale x2.5 + translation: {np.abs(base - moved).max():.2e}")
print(f"max feature change under a 90-degree rotation:      {np.abs(base - rotated).max():.2f}")

# the assembled matrix: one row per selected frame, ordered by
# (participant, activity, frame), with the label column attached
print("\nassembled matrices:")
for modality in Modality:
    for subset, dims in ((JointSubset.c9(), 3), (JointSubset.c28(), 2)):
        matrix = build_feature_matrix(manifest, modality, subset, dims)
        print(f"  {modality.value:13s} {subset.name:3s} {dims}D -> "
              f"{matrix.n_rows} x {matrix.n_features}")

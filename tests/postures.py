"""Hand-built valid skeleton postures and sequences for tests. They live
here, not in conftest.py, because bench/tests has a conftest module too."""

import numpy as np

from skelhar import ActivityClass, ActivitySequence


def grid_positions(shift=0.0):
    """A valid, asymmetric joint layout (Head != Neck, all finite)."""
    base = np.arange(28 * 3, dtype=np.float64).reshape(28, 3) * 0.013
    base[:, 1] += 1.0
    return base + shift


def make_frames(n_frames=51, drift=0.0):
    """A (n_frames, 28, 3) stack of grid postures, frame t shifted by drift * t."""
    return np.stack([grid_positions(drift * t) for t in range(n_frames)])


def make_sequence(n_frames=51, participant=1, label=1, drift=0.0):
    return ActivitySequence(participant, ActivityClass(label),
                            make_frames(n_frames, drift), np.arange(n_frames))

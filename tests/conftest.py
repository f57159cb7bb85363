import os

import numpy as np
import pytest

from skelhar import (
    ActivityClass,
    ActivitySequence,
    DatasetManifest,
    SynthSpec,
    Synthetic,
    generate_synthetic,
)


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


@pytest.fixture(scope="session")
def small_manifest() -> DatasetManifest:
    """2 participants x 9 activities x 55 frames, light noise."""
    return generate_synthetic(SynthSpec(n_participants=2, frames_per_sequence=55,
                                        noise_sigma=0.005, seed=3))


@pytest.fixture()
def two_sequence_manifest() -> DatasetManifest:
    seqs = (make_sequence(participant=1, label=1),
            make_sequence(participant=1, label=2, drift=0.001))
    return DatasetManifest(seqs, Synthetic(0))


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process of the test run running or
    unwaited-for, such as a grid worker."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail("the test left a child process running" if pid == 0 else
                f"the test left child process {pid} unwaited-for "
                f"(exit code {os.waitstatus_to_exitcode(status)})")

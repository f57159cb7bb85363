import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skelhar import (
    ActivityClass,
    ActivityKind,
    ActivitySequence,
    JointId,
    validate_sequence,
)
from postures import make_frames, make_sequence
from oracles import per_frame_violations


class TestJointId:
    def test_has_28_members_in_fixed_order(self):
        assert len(JointId) == 28
        assert JointId.Head == 0
        assert JointId.Neck == 1
        assert JointId.EffectorLToe == 27
        assert [int(j) for j in JointId] == list(range(28))

    def test_name_round_trip_is_bijective(self):
        names = [j.name for j in JointId]
        assert len(set(names)) == 28
        for j in JointId:
            assert JointId[j.name] is j


class TestActivityClass:
    def test_kind_partition(self):
        for label in range(1, 5):
            assert ActivityClass(label).kind is ActivityKind.STATIONARY
        for label in range(5, 10):
            assert ActivityClass(label).kind is ActivityKind.DYNAMIC

    def test_names(self):
        assert ActivityClass(5).name == "walking"
        assert ActivityClass(9).name == "running"
        assert ActivityClass(4).name == "lying on couch"

    def test_label_out_of_range(self):
        for bad in (0, 10, -1):
            with pytest.raises(ValueError):
                ActivityClass(bad)


class TestActivitySequence:
    def test_participant_must_be_positive(self):
        with pytest.raises(ValueError):
            ActivitySequence(0, ActivityClass(1), make_frames(1), np.arange(1))

    def test_frames_are_an_immutable_copy(self):
        frames, index = make_frames(51), np.arange(51)
        seq = ActivitySequence(1, ActivityClass(1), frames, index)
        frames[0, 0, 0] = 5.0
        index[0] = 7
        assert seq.frames[0, 0, 0] != 5.0 and seq.frame_index[0] == 0
        with pytest.raises(ValueError):
            seq.frames[0, 0, 0] = 5.0
        with pytest.raises(ValueError):
            seq.frame_index[0] = 7

    def test_shape_is_enforced(self):
        with pytest.raises(ValueError):
            ActivitySequence(1, ActivityClass(1), np.zeros((51, 27, 3)), np.arange(51))
        with pytest.raises(ValueError):
            ActivitySequence(1, ActivityClass(1), np.zeros((28, 3)), np.arange(1))
        with pytest.raises(ValueError):
            ActivitySequence(1, ActivityClass(1), make_frames(51), np.arange(50))

    def test_negative_index_rejected(self):
        index = np.arange(51)
        index[3] = -1
        with pytest.raises(ValueError, match="non-negative"):
            ActivitySequence(1, ActivityClass(1), make_frames(51), index)

    def test_frames_shape(self):
        seq = make_sequence(n_frames=51)
        assert seq.frames.shape == (51, 28, 3)
        assert seq.frames.dtype == np.float64 and seq.frame_index.dtype == np.int64


def with_frames(frames, index=None):
    index = np.arange(len(frames)) if index is None else index
    return ActivitySequence(1, ActivityClass(1), frames, index)


class TestValidateSequence:
    def test_valid_sequence_is_ok(self):
        assert validate_sequence(make_sequence(51)).ok

    def test_nan_coordinate_is_located(self):
        frames = make_frames(51)
        frames[7, JointId.RHand, 0] = np.nan
        result = validate_sequence(with_frames(frames))
        assert not result.ok
        assert any(v.frame_index == 7 and v.position == 7 and "RHand" in v.message
                   for v in result.violations)

    def test_too_few_frames(self):
        result = validate_sequence(make_sequence(40))
        assert not result.ok
        assert any("51" in v.message for v in result.violations)

    def test_non_monotone_frame_index(self):
        index = np.arange(51)
        index[10] = 5
        result = validate_sequence(with_frames(make_frames(51), index))
        assert any("not greater" in v.message for v in result.violations)

    def test_head_equals_neck(self):
        frames = make_frames(51)
        frames[50, JointId.Neck] = frames[50, JointId.Head]
        result = validate_sequence(with_frames(frames))
        assert any(v.frame_index == 50 and "coincide" in v.message
                   for v in result.violations)

    def test_is_pure(self):
        seq = make_sequence(40)
        assert validate_sequence(seq) == validate_sequence(seq)


@st.composite
def hostile_sequences(draw):
    """Random sequences with injected NaN/inf, out-of-order indices and Head == Neck."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 60))
    # squared Head-Neck components underflow to zero at 1e-170 and overflow at 1e160
    scale = draw(st.sampled_from([1.0, 1e-170, 1e160]))
    frames = rng.normal(0.0, 1.0, (n, 28, 3)) * scale
    index = np.cumsum(rng.integers(1, 3, n)) + draw(st.integers(0, 5))
    if n:
        for _ in range(draw(st.integers(0, 4))):
            t, j, a = rng.integers(0, n), rng.integers(0, 28), rng.integers(0, 3)
            frames[t, j, a] = rng.choice([np.nan, np.inf, -np.inf])
        for _ in range(draw(st.integers(0, 4))):
            t = rng.integers(0, n)
            index[t] = index[rng.integers(0, n)]
        for _ in range(draw(st.integers(0, 4))):
            t = rng.integers(0, n)
            frames[t, JointId.Neck] = frames[t, JointId.Head]
    return with_frames(frames, index)


class TestValidateSequenceOracle:
    @settings(max_examples=200, deadline=None)
    @given(hostile_sequences())
    def test_matches_the_per_frame_loop(self, seq):
        with np.errstate(over="ignore", invalid="ignore"):
            expected = per_frame_violations(seq)
        assert validate_sequence(seq).violations == expected

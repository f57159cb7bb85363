import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skelhar import (
    JointId,
    JointSubset,
    Modality,
    build_feature_matrix,
    derive_modality,
    normalize_posture,
    parse_subset,
    select_frames,
)
from conftest import grid_positions, make_frames, make_sequence
from oracles import per_frame_posture_row


class TestJointSubset:
    def test_named_sizes(self):
        assert len(JointSubset.c9().joints) == 9
        assert len(JointSubset.c18().joints) == 18
        assert len(JointSubset.c28().joints) == 28

    def test_feature_dimensions(self):
        # the head contributes no feature, so named subsets lose one joint
        assert JointSubset.c9().feature_dimension(3) == 24
        assert JointSubset.c9().feature_dimension(2) == 16
        assert JointSubset.c18().feature_dimension(3) == 51
        assert JointSubset.c18().feature_dimension(2) == 34
        assert JointSubset.c28().feature_dimension(3) == 81
        assert JointSubset.c28().feature_dimension(2) == 54

    def test_custom_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            JointSubset.custom([])
        with pytest.raises(ValueError, match="duplicates"):
            JointSubset.custom([JointId.Neck, JointId.Neck])
        with pytest.raises(ValueError, match="Head"):
            JointSubset.custom([JointId.Head, JointId.Neck])

    def test_parse_subset(self):
        assert parse_subset("c18").name == "c18"
        custom = parse_subset("list:Neck,RHand")
        assert custom.joints == (JointId.Neck, JointId.RHand)
        with pytest.raises(ValueError, match="c9, c18, c28"):
            parse_subset("c12")
        with pytest.raises(ValueError, match="unknown joint"):
            parse_subset("list:Skull")


class TestSelectFrames:
    def test_exact_window_is_identity(self):
        seq = make_sequence(51)
        assert np.array_equal(select_frames(seq), seq.frames)

    def test_centered_window_of_101(self):
        seq = make_sequence(101, drift=1.0)
        window = select_frames(seq)
        assert window.shape == (51, 28, 3)
        assert np.array_equal(window, seq.frames[25:76])

    def test_too_short_sequence(self):
        with pytest.raises(ValueError, match="51"):
            select_frames(make_sequence(50))

    def test_budget_is_modality_independent(self):
        # selection takes no modality; every modality derives from these 51 poses
        window = select_frames(make_sequence(60))
        assert len(window) == 51
        for modality, rows in zip(Modality, (51, 50, 49)):
            assert derive_modality(window, modality).shape[0] == rows

    def test_explicit_positions_override_the_window(self):
        seq = make_sequence(120, drift=1.0)
        positions = tuple(range(0, 102, 2))
        window = select_frames(seq, positions=positions)
        assert np.array_equal(window, seq.frames[list(positions)])

    def test_explicit_positions_are_validated(self):
        seq = make_sequence(60)
        with pytest.raises(ValueError, match="exactly 51"):
            select_frames(seq, positions=tuple(range(10)))
        with pytest.raises(ValueError, match="strictly increasing"):
            select_frames(seq, positions=tuple([5] + list(range(50))))
        with pytest.raises(ValueError, match="0..59"):
            select_frames(seq, positions=tuple(range(10, 61)))


class TestDeriveModality:
    def test_constant_posture_has_zero_velocity(self):
        velocity = derive_modality(make_frames(51), Modality.VELOCITY)
        assert velocity.shape == (50, 28, 3)
        assert np.all(velocity == 0.0)

    def test_linear_motion(self):
        frames = make_frames(51)
        frames[:, JointId.Hip, 0] = 0.1 * np.arange(51)
        velocity = derive_modality(frames, Modality.VELOCITY)
        accel = derive_modality(frames, Modality.ACCELERATION)
        assert np.allclose(velocity[:, JointId.Hip, 0], 0.1, atol=1e-12)
        assert np.allclose(accel[:, JointId.Hip, 0], 0.0, atol=1e-12)

    def test_quadratic_motion_has_constant_acceleration(self):
        frames = make_frames(51)
        t = np.arange(51)
        frames[:, JointId.Hip, 0] = 0.01 * t * t
        accel = derive_modality(frames, Modality.ACCELERATION)
        assert accel.shape == (49, 28, 3)
        assert np.allclose(accel[:, JointId.Hip, 0], 0.02, atol=1e-12)

    def test_acceleration_is_difference_of_velocity(self):
        frames = select_frames(make_sequence(60, drift=0.003))
        velocity = derive_modality(frames, Modality.VELOCITY)
        accel = derive_modality(frames, Modality.ACCELERATION)
        assert np.array_equal(accel, np.diff(velocity, axis=0))

    def test_frame_budgets(self):
        frames = make_frames(51)
        assert derive_modality(frames, Modality.COORDINATES).shape[0] == 51
        assert derive_modality(frames, Modality.VELOCITY).shape[0] == 50
        assert derive_modality(frames, Modality.ACCELERATION).shape[0] == 49


class TestNormalizePosture:
    def test_joints_at_head_give_zero_features(self):
        positions = grid_positions()
        subset = JointSubset.custom([JointId.Chest, JointId.RHand, JointId.LFoot])
        for j in subset.joints:
            positions[j] = positions[JointId.Head]
        feature = normalize_posture(positions, subset, 3)
        assert np.all(feature == 0.0)

    def test_translation_invariance(self):
        positions = grid_positions()
        shifted = positions + np.array([1.0, 2.0, 3.0])
        a = normalize_posture(positions, JointSubset.c28(), 3)
        b = normalize_posture(shifted, JointSubset.c28(), 3)
        assert np.abs(a - b).max() <= 1e-9

    def test_scale_invariance(self):
        positions = grid_positions()
        a = normalize_posture(positions, JointSubset.c28(), 3)
        b = normalize_posture(positions * 2.0, JointSubset.c28(), 3)
        assert np.abs(a - b).max() <= 1e-9

    def test_rotation_changes_features(self):
        positions = grid_positions()
        rot = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
        a = normalize_posture(positions, JointSubset.c28(), 3)
        b = normalize_posture(positions @ rot.T, JointSubset.c28(), 3)
        assert np.abs(a - b).max() > 1e-3

    def test_two_dims_drop_depth(self):
        positions = grid_positions()
        a3 = normalize_posture(positions, JointSubset.c28(), 3).reshape(27, 3)
        a2 = normalize_posture(positions, JointSubset.c28(), 2).reshape(27, 2)
        assert np.array_equal(a2, a3[:, :2])

    def test_velocity_passes_through_unnormalized(self):
        vectors = grid_positions() * 0.1
        subset = JointSubset.c9()
        feature = normalize_posture(vectors, subset, 3, Modality.VELOCITY)
        idx = [int(j) for j in subset.feature_joints]
        assert np.array_equal(feature, vectors[idx].ravel())

    def test_degenerate_reference_raises_for_coordinates_only(self):
        positions = grid_positions()
        positions[JointId.Neck] = positions[JointId.Head]
        with pytest.raises(ValueError, match="coincide"):
            normalize_posture(positions, JointSubset.c28(), 3)
        # velocity vectors never touch the reference pair
        normalize_posture(positions, JointSubset.c28(), 3, Modality.VELOCITY)


class TestNormalizePostureOracle:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e3]),
           offset=st.floats(-10.0, 10.0))
    def test_batch_equals_per_frame_stack_bit_for_bit(self, seed, scale, offset):
        rng = np.random.default_rng(seed)
        window = rng.normal(offset, scale, (51, 28, 3))
        for modality in Modality:
            vectors = derive_modality(window, modality)
            for subset in (JointSubset.c9(), JointSubset.c28()):
                for dims in (2, 3):
                    batch = normalize_posture(vectors, subset, dims, modality)
                    expected = np.stack([per_frame_posture_row(v, subset, dims, modality)
                                         for v in vectors])
                    assert batch.shape == expected.shape
                    assert np.array_equal(batch.view(np.int64), expected.view(np.int64))

    def test_one_degenerate_frame_fails_the_batch(self):
        frames = make_frames(51)
        frames[30, JointId.Neck] = frames[30, JointId.Head]
        with pytest.raises(ValueError, match="coincide"):
            normalize_posture(frames, JointSubset.c28(), 3)


class TestBuildFeatureMatrix:
    def test_row_counts_per_modality(self, small_manifest):
        subset = JointSubset.c28()
        for modality, budget in ((Modality.COORDINATES, 51), (Modality.VELOCITY, 50),
                                 (Modality.ACCELERATION, 49)):
            matrix = build_feature_matrix(small_manifest, modality, subset, 3)
            assert matrix.n_rows == 18 * budget

    def test_row_order_and_labels(self, small_manifest):
        matrix = build_feature_matrix(small_manifest, Modality.COORDINATES,
                                      JointSubset.c9(), 3)
        assert matrix.labels is not None
        assert matrix.participants is not None
        # first 9 blocks of 51 rows belong to participant 1, activities 1..9
        for a in range(9):
            block = slice(a * 51, (a + 1) * 51)
            assert np.all(matrix.labels[block] == a + 1)
            assert np.all(matrix.participants[block] == 1)

    def test_deterministic(self, small_manifest):
        a = build_feature_matrix(small_manifest, Modality.VELOCITY, JointSubset.c18(), 2)
        b = build_feature_matrix(small_manifest, Modality.VELOCITY, JointSubset.c18(), 2)
        assert np.array_equal(a.rows, b.rows)

    def test_dimension_law_on_built_matrices(self, small_manifest):
        for subset, dims, expected in (
            (JointSubset.c9(), 3, 24), (JointSubset.c9(), 2, 16),
            (JointSubset.c18(), 3, 51), (JointSubset.c18(), 2, 34),
            (JointSubset.c28(), 3, 81), (JointSubset.c28(), 2, 54),
        ):
            matrix = build_feature_matrix(small_manifest, Modality.COORDINATES,
                                          subset, dims)
            assert matrix.n_features == expected

    def test_provenance(self, small_manifest):
        matrix = build_feature_matrix(small_manifest, Modality.VELOCITY,
                                      JointSubset.c18(), 2)
        assert matrix.provenance.modality is Modality.VELOCITY
        assert matrix.provenance.subset == "c18"
        assert matrix.provenance.dims == 2
        assert matrix.provenance.manifest_id == small_manifest.manifest_id

    def test_take_preserves_alignment(self, small_manifest):
        matrix = build_feature_matrix(small_manifest, Modality.COORDINATES,
                                      JointSubset.c9(), 3)
        subset = matrix.take(np.array([0, 100, 600]))
        assert subset.n_rows == 3
        assert np.array_equal(subset.rows, matrix.rows[[0, 100, 600]])
        assert np.array_equal(subset.labels, matrix.labels[[0, 100, 600]])

import math
import tracemalloc

import numpy as np
import pytest

from skelhar import (
    DatasetFormatError,
    DatasetManifest,
    JointId,
    SynthSpec,
    Synthetic,
    class_template,
    generate_depth_pair,
    generate_synthetic,
    read_dataset,
    validate_sequence,
    write_dataset,
)
from skelhar.dataset import csv_columns
from conftest import make_sequence


def manifests_equal(a: DatasetManifest, b: DatasetManifest) -> bool:
    if len(a) != len(b):
        return False
    for sa, sb in zip(a.sequences, b.sequences):
        if sa.participant_id != sb.participant_id or sa.activity != sb.activity:
            return False
        if not np.array_equal(sa.frame_index, sb.frame_index):
            return False
        if not np.array_equal(sa.frames, sb.frames):
            return False
    return True


class TestCsvLayout:
    def test_column_count_and_order(self):
        cols = csv_columns()
        assert len(cols) == 87
        assert cols[:3] == ["participant", "activity", "frame"]
        assert cols[3] == "Head_x"
        assert cols[-1] == "EffectorLToe_z"

    def test_write_empty_manifest(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_dataset(DatasetManifest((), Synthetic(0)), path)
        assert path.read_text() == ",".join(csv_columns()) + "\n"

    def test_write_streams_rows(self, tmp_path):
        manifest = generate_synthetic(SynthSpec(n_participants=4))
        path = tmp_path / "four.csv"
        tracemalloc.start()
        try:
            write_dataset(manifest, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * path.stat().st_size

    def test_one_sequence_writes_one_row_per_frame(self, tmp_path):
        manifest = DatasetManifest((make_sequence(51),), Synthetic(0))
        path = tmp_path / "one.csv"
        write_dataset(manifest, path)
        assert len(path.read_text().splitlines()) == 52  # header + 51 frames


class TestReadDataset:
    def test_round_trip_full_synthetic(self, tmp_path):
        manifest = generate_synthetic(SynthSpec(seed=42))
        path = tmp_path / "full.csv"
        write_dataset(manifest, path)
        again = read_dataset(path)
        assert manifests_equal(manifest, again)
        # re-serialization is byte-identical
        text = path.read_text()
        write_dataset(again, path)
        assert path.read_text() == text

    def test_header_only_is_empty_manifest(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text(",".join(csv_columns()) + "\n")
        assert len(read_dataset(path)) == 0

    def test_short_row_reports_line_number(self, tmp_path):
        manifest = DatasetManifest((make_sequence(51),), Synthetic(0))
        path = tmp_path / "bad.csv"
        write_dataset(manifest, path)
        lines = path.read_text().splitlines()
        lines[11] = ",".join(lines[11].split(",")[:83])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="line 12") as err:
            read_dataset(path)
        assert err.value.line == 12

    def test_unknown_joint_column(self, tmp_path):
        path = tmp_path / "col.csv"
        header = csv_columns()
        header[3] = "Skull_x"
        path.write_text(",".join(header) + "\n")
        with pytest.raises(DatasetFormatError, match="Skull_x"):
            read_dataset(path)

    def test_non_monotone_frame_index(self, tmp_path):
        manifest = DatasetManifest((make_sequence(52),), Synthetic(0))
        path = tmp_path / "mono.csv"
        write_dataset(manifest, path)
        lines = path.read_text().splitlines()
        fields = lines[5].split(",")
        fields[2] = "1"  # duplicate of an earlier frame index
        lines[5] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="not greater") as err:
            read_dataset(path)
        assert err.value.line == 6

    @pytest.mark.parametrize("column, value, message", [
        (2, "99999999999999999999999", "frame_index must be at most"),
        (2, "-1", "frame_index must be non-negative"),
        (0, "0", "participant_id must be >= 1"),
        (1, "10", "activity label must be in 1..9"),
    ])
    def test_out_of_range_key_is_located(self, tmp_path, column, value, message):
        manifest = DatasetManifest((make_sequence(52),), Synthetic(0))
        path = tmp_path / "key.csv"
        write_dataset(manifest, path)
        lines = path.read_text().splitlines()
        # a participant or label is changed on every row, so one sequence stays
        rows = [5] if column == 2 else range(1, len(lines))
        for i in rows:
            fields = lines[i].split(",")
            fields[column] = value
            lines[i] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=f"line {rows[0] + 1}: {message}"):
            read_dataset(path)

    def test_violation_in_a_later_sequence_names_its_line(self, tmp_path):
        manifest = DatasetManifest(
            (make_sequence(51, label=1), make_sequence(51, label=2)), Synthetic(0)
        )
        path = tmp_path / "later.csv"
        write_dataset(manifest, path)
        lines = path.read_text().splitlines()
        fields = lines[56].split(",")
        fields[3] = "nan"  # Head_x of the second sequence's sixth frame
        lines[56] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="non-finite") as err:
            read_dataset(path)
        assert err.value.line == 57

    def test_head_equals_neck_rejected(self, tmp_path):
        manifest = DatasetManifest((make_sequence(51),), Synthetic(0))
        path = tmp_path / "hn.csv"
        write_dataset(manifest, path)
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[3:6] = fields[6:9]  # copy Neck onto Head
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="coincide"):
            read_dataset(path)

    def test_malformed_coordinate(self, tmp_path):
        manifest = DatasetManifest((make_sequence(51),), Synthetic(0))
        path = tmp_path / "coord.csv"
        write_dataset(manifest, path)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[10] = "not-a-number"
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            read_dataset(path)

    def test_non_contiguous_sequence_rows(self, tmp_path):
        manifest = DatasetManifest(
            (make_sequence(51, label=1), make_sequence(51, label=2)), Synthetic(0)
        )
        path = tmp_path / "contig.csv"
        write_dataset(manifest, path)
        lines = path.read_text().splitlines()
        lines.append(lines[1].replace(",0,", ",99,", 1))  # reopen sequence 1
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="contiguous"):
            read_dataset(path)


class TestGenerateSynthetic:
    def test_deterministic_in_seed(self):
        a = generate_synthetic(SynthSpec(n_participants=2, seed=42))
        b = generate_synthetic(SynthSpec(n_participants=2, seed=42))
        assert manifests_equal(a, b)

    def test_different_seeds_differ(self):
        a = generate_synthetic(SynthSpec(n_participants=1, seed=1))
        b = generate_synthetic(SynthSpec(n_participants=1, seed=2))
        assert not manifests_equal(a, b)

    def test_every_sequence_validates(self, small_manifest):
        for seq in small_manifest.sequences:
            assert validate_sequence(seq).ok

    def test_unique_participant_activity_pairs(self, small_manifest):
        keys = [(s.participant_id, s.activity.label) for s in small_manifest.sequences]
        assert len(set(keys)) == len(keys) == 18

    def test_stationary_class_is_still_without_noise(self):
        manifest = generate_synthetic(
            SynthSpec(n_participants=1, noise_sigma=0.0, seed=5))
        seq = next(s for s in manifest.sequences if s.activity.label == 1)
        positions = seq.frames
        assert np.array_equal(positions[0], positions[-1])

    def test_hip_displacement_zero_for_stationary_positive_for_dynamic(self):
        manifest = generate_synthetic(
            SynthSpec(n_participants=2, noise_sigma=0.0, seed=5))
        for seq in manifest.sequences:
            hips = seq.frames[:, JointId.Hip]
            steps = np.linalg.norm(np.diff(hips, axis=0), axis=1)
            if seq.activity.kind.value == "stationary":
                assert np.allclose(steps, 0.0, atol=1e-7)
            else:
                assert steps.mean() > 0.01

    def test_running_hip_speed_exceeds_walking(self):
        manifest = generate_synthetic(
            SynthSpec(n_participants=3, noise_sigma=0.0, seed=5))

        def mean_speed(label):
            speeds = []
            for seq in manifest.sequences:
                if seq.activity.label == label:
                    hips = seq.frames[:, JointId.Hip]
                    speeds.append(np.linalg.norm(np.diff(hips, axis=0), axis=1).mean())
            return np.mean(speeds)

        v_walk, v_text, v_carry, v_run = (mean_speed(l) for l in (5, 6, 7, 9))
        assert v_run > v_walk
        assert v_walk < v_text
        assert abs(v_text - v_carry) < 0.01
        assert v_run > v_carry

    def test_class_templates_differ_pairwise(self):
        # mean joint distance across a gait cycle must clear 5x the default
        # noise sigma (0.01 m) for every class pair
        phases = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
        templates = {
            label: np.stack([class_template(label, p) for p in phases])
            for label in range(1, 10)
        }
        for a in range(1, 10):
            for b in range(a + 1, 10):
                dist = np.linalg.norm(templates[a] - templates[b], axis=2).mean()
                assert dist > 0.05, f"classes {a} and {b} too close: {dist:.4f}"

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(frames_per_sequence=50)
        with pytest.raises(ValueError):
            SynthSpec(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            SynthSpec(n_participants=0)
        with pytest.raises(ValueError):
            SynthSpec(gait_speed_range={5: (0.01, 0.02)})


class TestDepthPairFixture:
    def test_classes_differ_only_in_depth(self):
        manifest = generate_depth_pair(seed=1, n_participants=1, noise_sigma=0.0)
        a = next(s for s in manifest.sequences if s.activity.label == 1)
        b = next(s for s in manifest.sequences if s.activity.label == 2)
        pa, pb = a.frames[0], b.frames[0]
        # same participant home offsets differ, so compare centered clouds
        pa = pa - pa[JointId.Head]
        pb = pb - pb[JointId.Head]
        assert np.allclose(pa[:, :2], pb[:, :2], atol=1e-7)
        assert np.abs(pa[:, 2] - pb[:, 2]).max() > 0.3

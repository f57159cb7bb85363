import math
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import skelhar.dataset
from skelhar import (
    ActivityClass,
    ActivitySequence,
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
from skelhar.classifiers import HyperparameterError
from skelhar.dataset import _generate_sequence, _quantize_sig9, csv_columns, format_sig9
from conftest import make_sequence
from oracles import (
    format_sig9_by_text,
    per_frame_class_template,
    per_frame_sequence,
    read_dataset_by_lines,
    sig9_by_text,
)


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


def _outcome(read, path):
    """A reader's manifest, or the (message, line) of the DatasetFormatError it raised."""
    try:
        return read(path)
    except DatasetFormatError as exc:
        return str(exc), exc.line


def _same_outcome(a, b) -> bool:
    if isinstance(a, DatasetManifest) and isinstance(b, DatasetManifest):
        return manifests_equal(a, b)
    return a == b


def _edit_field(lines, line_no, column, value):
    lines = list(lines)
    fields = lines[line_no - 1].split(",")
    fields[column] = value
    lines[line_no - 1] = ",".join(fields)
    return lines


def _with_head_x(manifest, frame, value):
    """manifest's only sequence with Head_x of one frame set to value."""
    (seq,) = manifest.sequences
    frames = seq.frames.copy()
    frames[frame, JointId.Head, 0] = value
    return DatasetManifest((ActivitySequence(seq.participant_id, seq.activity, frames,
                                             seq.frame_index),), Synthetic(0))


class TestReaderInputLanguage:
    """The block reader's input language. The CASES keep the outcome that the
    line-at-a-time reader gave them, recorded from it: the same manifest, or
    the same message and line."""

    BASE = DatasetManifest((ActivitySequence(1, ActivityClass(1),
                                             _quantize_sig9(make_sequence(51).frames),
                                             np.arange(51)),), Synthetic(0))

    @pytest.fixture(scope="class")
    def lines(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("base") / "base.csv"
        write_dataset(self.BASE, path)
        return path.read_text().split("\n")[:-1]

    CASES = {
        "crlf": (lambda ls: "\r\n".join(ls) + "\r\n", BASE),
        "blank line mid-file": (lambda ls: "\n".join(ls[:20] + [""] + ls[20:]) + "\n", BASE),
        "no final newline": (lambda ls: "\n".join(ls), BASE),
        "padded coordinate": (lambda ls: "\n".join(_edit_field(ls, 3, 3, " 0.5 ")) + "\n",
                              _with_head_x(BASE, 1, 0.5)),
        "underscore digits": (lambda ls: "\n".join(_edit_field(ls, 3, 3, "1_5")) + "\n",
                              _with_head_x(BASE, 1, 15.0)),
        "non-ascii digits": (lambda ls: "\n".join(_edit_field(ls, 4, 3, "\u0661.\u0665")) + "\n",
                             _with_head_x(BASE, 2, 1.5)),
        "fullwidth digits": (lambda ls: "\n".join(_edit_field(ls, 4, 3, "\uff13")) + "\n",
                             _with_head_x(BASE, 2, 3.0)),
        "nan coordinate": (lambda ls: "\n".join(_edit_field(ls, 3, 3, "nan")) + "\n",
                           ("line 3: sequence (participant=1, activity=1): "
                            "non-finite coordinate at joint(s) Head", 3)),
        "inf coordinate": (lambda ls: "\n".join(_edit_field(ls, 3, 3, "inf")) + "\n",
                           ("line 3: sequence (participant=1, activity=1): "
                            "non-finite coordinate at joint(s) Head", 3)),
        "bom header": (lambda ls: "\ufeff" + "\n".join(ls) + "\n",
                       ("line 1: unknown column '\\ufeffparticipant' where 'participant' "
                        "was expected", 1)),
        "whitespace-only line": (lambda ls: "\n".join(ls[:20] + ["   "] + ls[20:]) + "\n",
                                 ("line 21: row has 1 fields, expected 87", 21)),
        "frame 0.0": (lambda ls: "\n".join(_edit_field(ls, 2, 2, "0.0")) + "\n",
                      ("line 2: malformed row key: invalid literal for int() with base 10: "
                       "'0.0'", 2)),
        "keys only": (lambda ls: "\n".join(ls[:9] + ["1,1,8,"] + ls[10:]) + "\n",
                      ("line 10: row has 4 fields, expected 87", 10)),
        "an extra column on every row": (lambda ls: "\n".join([ls[0]] + [l + ",0" for l in ls[1:]])
                                         + "\n", ("line 2: row has 88 fields, expected 87", 2)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_outcome_is_the_line_readers(self, tmp_path, lines, case):
        edit, expected = self.CASES[case]
        path = tmp_path / "case.csv"
        path.write_bytes(edit(lines).encode("utf-8"))
        assert _same_outcome(_outcome(read_dataset, path), expected)

    @pytest.mark.parametrize("separator", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                           "\u2028", "\u2029"])
    def test_only_lf_and_crlf_end_a_line(self, tmp_path, lines, separator):
        # str.splitlines also breaks at these; here they are row text
        path = tmp_path / "joined.csv"
        text = "\n".join(lines[:5]) + "\n" + lines[5] + separator + "\n".join(lines[6:]) + "\n"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(read_dataset, path) == ("line 6: row has 173 fields, expected 87", 6)
        path.write_bytes(("\n".join(lines[:20] + [separator] + lines[20:]) + "\n").encode())
        assert _outcome(read_dataset, path) == ("line 21: row has 1 fields, expected 87", 21)

    def test_cr_alone_ends_no_line(self, tmp_path, lines):
        path = tmp_path / "cr.csv"
        path.write_bytes(("\n".join(lines[:6]) + "\r" + "\n".join(lines[6:]) + "\n").encode())
        assert _outcome(read_dataset, path) == ("line 6: row has 173 fields, expected 87", 6)
        # two rows' coordinates on one line, and a row with none: as many rows as lines
        two = lines[3] + "\r" + lines[4].split(",", 3)[3]
        path.write_bytes(("\n".join(lines[:3] + [two, "1,1,3,"] + lines[5:]) + "\n").encode())
        assert _outcome(read_dataset, path) == ("line 4: row has 170 fields, expected 87", 4)
        path.write_bytes(("\r".join(lines) + "\r").encode())  # one line: 52 rows' fields
        assert _outcome(read_dataset, path) == (
            f"line 1: header has {87 + 51 * 86} columns, expected 87", 1)

    def test_invalid_utf8_is_located(self, tmp_path, lines):
        path = tmp_path / "latin1.csv"
        data = ("\n".join(_edit_field(lines, 30, 5, "0.5\xe9")) + "\n").encode("latin-1")
        path.write_bytes(data)
        assert _outcome(read_dataset, path) == ("line 30: not UTF-8: invalid continuation byte", 30)
        path.write_bytes(b"\xff" + data)
        assert _outcome(read_dataset, path) == ("line 1: not UTF-8: invalid start byte", 1)

    def test_reads_from_a_pipe(self, tmp_path):
        manifest = generate_synthetic(SynthSpec(n_participants=1, frames_per_sequence=51))
        path, fifo = tmp_path / "one.csv", tmp_path / "fifo"
        write_dataset(manifest, path)
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()))
        writer.start()
        try:
            again = read_dataset(fifo)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert manifests_equal(manifest, again)

    def test_memory_does_not_hold_the_text(self, tmp_path):
        manifest = generate_synthetic(SynthSpec(n_participants=2))
        path = tmp_path / "two.csv"
        write_dataset(manifest, path)
        tracemalloc.start()
        try:
            read_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the coordinates alone are 0.7x the file; the text and its lines were 1.8x more
        assert peak < 1.5 * path.stat().st_size


_MUTATION_TOKENS = ["", " ", "0.5", " 0.5 ", "1_5", "\u0663", "nan", "inf", "-0", "1e400",
                    "x", "1,2", "\v", "\f", "\x1c", "\x1f", "\x85", "\u2028", "\r", "\r\n",
                    "\n", "\t1", "-1", "99999999999999999999999", "0.0", "2", "+3",
                    "\x1c1", "1\x1f", "1\r2", "1\x00"]


class TestBlockReaderOracle:
    """read_dataset equals the one-loop line reader on mutated synthetic files."""

    @pytest.fixture(scope="class")
    def lines(self):
        manifest = generate_synthetic(SynthSpec(n_participants=1, frames_per_sequence=51))
        rows = [",".join(csv_columns())]
        for seq in manifest.sequences:
            coords = format_sig9_by_text(seq.frames.reshape(len(seq), -1))
            rows += [f"{seq.participant_id},{seq.activity.label},{i},{c}"
                     for i, c in enumerate(coords)]
        return rows

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_line_reader(self, tmp_path_factory, lines, data):
        lines = list(lines)
        for _ in range(data.draw(st.integers(0, 4))):
            row = data.draw(st.integers(0, len(lines) - 1))
            action = data.draw(st.sampled_from(["field", "insert", "move", "drop"]))
            if action == "field":
                fields = lines[row].split(",")
                fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(
                    st.sampled_from(_MUTATION_TOKENS))
                lines[row] = ",".join(fields)
            elif action == "insert":
                lines.insert(row, data.draw(st.sampled_from(_MUTATION_TOKENS)))
            elif action == "move":
                lines.insert(data.draw(st.integers(1, len(lines) - 1)), lines.pop(row))
            else:
                lines.pop(row)
        end = data.draw(st.sampled_from(["\n", "\r\n"]))
        text = end.join(lines) + data.draw(st.sampled_from([end, ""]))
        path = tmp_path_factory.mktemp("mutated") / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        block_bytes = data.draw(st.sampled_from([1, 3000, 1 << 16]))
        with mock.patch.object(skelhar.dataset, "_READ_BYTES", block_bytes):
            got = _outcome(read_dataset, path)
        assert _same_outcome(got, _outcome(read_dataset_by_lines, path))


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
        templates = {label: class_template(label, phases) for label in range(1, 10)}
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
        for field, value in [("seed", 1.5), ("n_participants", 1.5),
                             ("n_participants", True), ("frames_per_sequence", 51.5)]:
            with pytest.raises(HyperparameterError) as info:
                SynthSpec(**{field: value})
            assert info.value.field == field

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_spec_rejects_non_finite_noise(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma"):
            SynthSpec(noise_sigma=sigma)

    @pytest.mark.parametrize("bounds", [(0.02, math.inf), (math.nan, 0.03),
                                        (0.02, math.nan), (math.inf, math.inf)])
    def test_spec_rejects_non_finite_speed_range(self, bounds):
        ranges = dict(SynthSpec().gait_speed_range)
        ranges[7] = bounds
        with pytest.raises(ValueError, match="class 7"):
            SynthSpec(gait_speed_range=ranges)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestGenerationOracle:
    """The array-at-a-time generator against its per-frame, text-rounded oracle."""

    PHASES = [0.0, math.pi / 2, math.pi, 2 * math.pi, -7.3, 1e3]

    @pytest.mark.parametrize("label", range(1, 10))
    def test_class_template_phase_array_matches_per_frame_oracle(self, label):
        expected = np.stack([per_frame_class_template(label, p) for p in self.PHASES])
        assert _same_bits(class_template(label, np.array(self.PHASES)), expected)
        for p, frame in zip(self.PHASES, expected):
            assert _same_bits(class_template(label, p), frame)

    def test_class_template_rejects_unknown_label(self):
        with pytest.raises(ValueError, match="1..9"):
            class_template(10, np.zeros(3))

    @pytest.mark.parametrize("seed,participant,label,frames,noise", [
        (0, 1, 1, 60, 0.01),
        (0, 3, 4, 60, 0.01),
        (42, 2, 5, 51, 0.01),
        (123456789, 1, 9, 51, 0.01),
        (7, 4, 8, 120, 0.01),
        (5, 2, 6, 60, 0.0),
        (5, 1, 7, 60, 0.0),
        (2**64 - 1, 16, 9, 75, 0.05),
    ])
    def test_generate_sequence_matches_per_frame_oracle(self, monkeypatch, seed, participant,
                                                        label, frames, noise):
        spec = SynthSpec(n_participants=participant, frames_per_sequence=frames,
                         noise_sigma=noise, seed=seed)
        seq = _generate_sequence(spec, participant, label)
        assert _same_bits(seq.frames, per_frame_sequence(spec, participant, label))
        assert np.array_equal(seq.frame_index, np.arange(frames))
        # 9-digit rounding hides last-bit differences, so compare before it too.
        monkeypatch.setattr(skelhar.dataset, "_quantize_sig9", lambda a: a)
        unrounded = _generate_sequence(spec, participant, label).frames
        assert _same_bits(unrounded, per_frame_sequence(spec, participant, label, rounded=False))


_POWERS_OF_TEN = np.array([10.0 ** k for k in range(-30, 31)])
_SPECIAL_VALUES = np.concatenate([
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
     np.finfo(float).max, -np.finfo(float).max, 0.1234567885, -0.1234567885,
     123456788.5, 9.999999995, 999999999.5, 1e-20, 3.3e40],
    _POWERS_OF_TEN,
    np.nextafter(_POWERS_OF_TEN, 0.0),
    np.nextafter(_POWERS_OF_TEN, math.inf),
])


class TestQuantizeSig9:
    """_quantize_sig9 is bitwise float("%.9g" % v), sign bit and NaN included."""

    @staticmethod
    def _assert_matches_text(values):
        values = np.asarray(values, dtype=np.float64)
        got, want = _quantize_sig9(values), sig9_by_text(values)
        assert got.shape == values.shape
        same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
        assert same.all(), values[~same][:5]

    def test_special_values_and_powers_of_ten(self):
        self._assert_matches_text(_SPECIAL_VALUES)
        self._assert_matches_text(-_SPECIAL_VALUES)

    def test_nine_digit_ties_at_every_scale(self):
        digits = np.random.default_rng(0).integers(10**8, 10**9, 200)
        for k in range(-25, 26):
            ties = (digits + 0.5) / 10.0**k if k >= 0 else (digits + 0.5) * 10.0**-k
            self._assert_matches_text(ties)
            self._assert_matches_text(np.nextafter(ties, 0.0))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
        | st.sampled_from(_SPECIAL_VALUES.tolist())
        | st.builds(lambda sign, digits, half, k: sign * (digits + half) / 10.0**k,
                    st.sampled_from([1.0, -1.0]), st.integers(10**8, 10**9 - 1),
                    st.sampled_from([0.0, 0.5]), st.integers(-30, 30)),
        min_size=1, max_size=40))
    def test_matches_text_rounding(self, values):
        self._assert_matches_text(values)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_text_rounding_on_normal_draws(self, seed):
        self._assert_matches_text(np.random.default_rng(seed).normal(2.0, 1.0, (60, 28, 3)))


_FORMAT_EDGES = np.concatenate([
    [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
     9.9999999996, 99999.9999996, 0.000999999999, 999999999.5, 99999999.95, 0.5, 100.0],
    np.nextafter(np.repeat([1e-5, 1e-4, 1e8, 1e9], 3), [0.0, math.inf, math.nan] * 4),
    _POWERS_OF_TEN,
])


class TestFormatSig9:
    """format_sig9 writes the bytes of one "%.9g" % row per row."""

    @staticmethod
    def _assert_matches_text(rows):
        rows = np.asarray(rows, dtype=np.float64)
        assert list(format_sig9(rows)) == format_sig9_by_text(rows)

    def test_edge_values_as_a_row_and_a_column(self):
        values = np.concatenate([_FORMAT_EDGES, -_FORMAT_EDGES])
        self._assert_matches_text(values[None, :])
        self._assert_matches_text(values[:, None])

    def test_nine_digit_ties_at_every_scale(self):
        digits = np.random.default_rng(1).integers(10**8, 10**9, 60)
        for k in range(-25, 26):
            ties = (digits + 0.5) / 10.0**k if k >= 0 else (digits + 0.5) * 10.0**-k
            self._assert_matches_text(np.stack([ties, np.nextafter(ties, 0.0),
                                                np.nextafter(ties, math.inf), -ties]))

    BLOCK = skelhar.dataset._SIG9_BLOCK

    @pytest.mark.parametrize("shape", [(BLOCK - 1, 1), (BLOCK, 1), (BLOCK + 1, 1),
                                       (BLOCK // 84, 84), (BLOCK // 84 + 1, 84),
                                       (2 * (BLOCK // 84) + 1, 84), (2, BLOCK + 1), (0, 3)])
    def test_blocks_of_every_size(self, shape):
        rows = np.random.default_rng(shape[0]).normal(0.0, 2.0, shape)
        rows[:, ::3] = np.round(rows[:, ::3], 2)
        self._assert_matches_text(rows)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda cols: st.lists(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
        | st.sampled_from(_FORMAT_EDGES.tolist())
        | st.builds(lambda sign, digits, half, k: sign * (digits + half) / 10.0**k,
                    st.sampled_from([1.0, -1.0]), st.integers(10**8, 10**9 - 1),
                    st.sampled_from([0.0, 0.5]), st.integers(-30, 30))
        | st.builds(lambda m, k: m * 10.0**k, st.integers(-999, 999), st.integers(-7, 10)),
        min_size=cols, max_size=8 * cols).map(
            lambda v: np.array(v[:len(v) // cols * cols]).reshape(-1, cols))))
    def test_matches_text(self, rows):
        self._assert_matches_text(rows)


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

    @pytest.mark.parametrize("field, value", [
        ("noise_sigma", math.nan), ("noise_sigma", -0.1), ("frames_per_sequence", 10),
        ("seed", -1), ("n_participants", 0), ("depth_offset", math.nan),
        ("depth_offset", math.inf),
    ])
    def test_rejects_bad_inputs(self, field, value):
        with pytest.raises(ValueError, match=field):
            generate_depth_pair(**{"seed": 0, field: value})

import json
import math
import re

import numpy as np
import pytest

from skelhar import (
    BaggedTreesSpec,
    CubicSvmSpec,
    FeatureMatrix,
    FineKnnSpec,
    FineTreeSpec,
    JointSubset,
    LinearDiscriminantSpec,
    MlpSpec,
    Modality,
    PcaConfig,
    PcaModel,
    PipelineConfig,
    SplitPlan,
    StratifyBy,
    SynthSpec,
    build_feature_matrix,
    compute_report,
    cross_validate,
    generate_synthetic,
    run_experiment,
    run_matrix_experiment,
    split,
)
from skelhar.classifiers import HyperparameterError, model_from_json_dict
from skelhar.evaluation import assign_folds, write_json
from skelhar.features import Provenance


def _toy_matrix(n=100, n_classes=1, d=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(1, n_classes + 1), n // n_classes)
    rows = rng.normal(size=(len(labels), d)) + labels[:, None]
    return FeatureMatrix(rows, labels, None,
                         Provenance(Modality.COORDINATES, "c28", 3, "test"))


class TestSplit:
    def test_exact_fractions_on_100_rows(self):
        indices = split(_toy_matrix(100), SplitPlan(seed=1))
        assert len(indices.train) == 60
        assert len(indices.test) == 20
        assert len(indices.validation) == 20

    def test_disjoint_cover(self):
        matrix = _toy_matrix(120, n_classes=3)
        indices = split(matrix, SplitPlan(seed=2))
        all_rows = np.concatenate([indices.train, indices.test, indices.validation])
        assert len(all_rows) == matrix.n_rows
        assert len(np.unique(all_rows)) == matrix.n_rows

    def test_off_by_one_rows_go_to_train(self):
        indices = split(_toy_matrix(17), SplitPlan(seed=3))
        assert len(indices.test) == 3  # floor(0.2 * 17)
        assert len(indices.validation) == 3
        assert len(indices.train) == 11

    def test_per_stratum_fractions_within_one_row(self):
        matrix = _toy_matrix(3 * 34, n_classes=3)
        indices = split(matrix, SplitPlan(seed=4))
        for c in (1, 2, 3):
            rows = set(np.nonzero(matrix.labels == c)[0])
            n_test = len(rows & set(indices.test))
            n_val = len(rows & set(indices.validation))
            assert abs(n_test - 0.2 * 34) <= 1
            assert abs(n_val - 0.2 * 34) <= 1

    def test_deterministic_in_seed(self):
        matrix = _toy_matrix(90, n_classes=3)
        a = split(matrix, SplitPlan(seed=5))
        b = split(matrix, SplitPlan(seed=5))
        c = split(matrix, SplitPlan(seed=6))
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.validation, b.validation)
        assert not np.array_equal(a.train, c.train)

    def test_small_stratum_is_rejected(self):
        with pytest.raises(ValueError, match="at least 5"):
            split(_toy_matrix(8, n_classes=2), SplitPlan(seed=0))

    def test_participant_stratification(self, small_manifest):
        matrix = build_feature_matrix(small_manifest, Modality.COORDINATES,
                                      JointSubset.c9(), 3)
        plan = SplitPlan(stratify_by=StratifyBy.PARTICIPANT, seed=7)
        indices = split(matrix, plan)
        for participant in (1, 2):
            rows = set(np.nonzero(matrix.participants == participant)[0])
            share = len(rows & set(indices.train)) / len(rows)
            assert abs(share - 0.6) < 0.01

    def test_fraction_validation(self):
        with pytest.raises(ValueError, match="sum to 1.0"):
            SplitPlan(train_frac=0.5, test_frac=0.2, validation_frac=0.2)

    def test_full_scale_class_shares(self):
        # 9 classes x 816 rows, the shape of a full 16-participant
        # coordinate matrix
        matrix = _toy_matrix(9 * 816, n_classes=9, d=2, seed=8)
        indices = split(matrix, SplitPlan(seed=8))
        for c in range(1, 10):
            rows = set(np.nonzero(matrix.labels == c)[0])
            assert abs(len(rows & set(indices.test)) - 0.2 * 816) <= 1
            assert abs(len(rows & set(indices.validation)) - 0.2 * 816) <= 1
            assert abs(len(rows & set(indices.train)) - 0.6 * 816) <= 1


class TestCrossValidate:
    def test_duplicated_rows_in_different_folds_are_perfectly_recalled(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(40, 4))
        labels = np.repeat(np.arange(1, 6), 8)
        rows = np.concatenate([base, base])
        matrix = FeatureMatrix(rows, np.concatenate([labels, labels]), None,
                               Provenance(Modality.COORDINATES, "c28", 3, "test"))
        # force each row's twin into the adjacent fold
        assignment = np.concatenate([np.arange(40) % 5, (np.arange(40) + 1) % 5])
        report = cross_validate(FineKnnSpec(k=1), matrix, folds=5,
                                fold_assignment=assignment)
        assert report.overall_accuracy == 1.0

    def test_fold_sizes_within_one_row(self):
        matrix = _toy_matrix(7 * 33, n_classes=7, seed=1)
        assignment = assign_folds(matrix.labels, 5, seed=2)
        sizes = np.bincount(assignment, minlength=5)
        target = matrix.n_rows / 5
        assert np.all(np.abs(sizes - target) <= 1)
        # stratification: per-class fold counts also within one row
        for c in range(1, 8):
            class_sizes = np.bincount(assignment[matrix.labels == c], minlength=5)
            assert class_sizes.max() - class_sizes.min() <= 1

    def test_fold_sizes_at_full_coordinate_scale(self):
        labels = np.repeat(np.arange(1, 10), 816)  # 7344 rows
        assignment = assign_folds(labels, 5, seed=3)
        sizes = np.bincount(assignment, minlength=5)
        assert np.all(np.abs(sizes - 7344 / 5) <= 1)

    def test_confusion_row_sums_match_class_counts(self):
        matrix = _toy_matrix(150, n_classes=3, seed=2)
        report = cross_validate(FineKnnSpec(k=1), matrix, folds=5, seed=3)
        for c in (1, 2, 3):
            assert report.confusion[c - 1].sum() == np.sum(matrix.labels == c)
        assert len(report.fold_accuracies) == 5

    @pytest.mark.parametrize("assignment, message", [
        (np.where(np.arange(100) == 17, 5, np.arange(100) % 4), "fold 5, outside 0..4"),
        (np.where(np.arange(100) == 17, -1, np.arange(100) % 4), "fold -1, outside 0..4"),
        (np.arange(100) % 4, "leaves fold 4 empty"),
        (np.arange(100) % 5 + 0.5, "must hold integers, not float64"),
    ], ids=["above", "below", "empty-fold", "float"])
    def test_fold_assignment_outside_the_folds_or_leaving_one_empty_is_rejected(
            self, assignment, message):
        # a row outside every fold would leave its prediction unset, an empty
        # fold would give a NaN fold accuracy, and a float fold would be cut
        # to an integer one
        matrix = _toy_matrix(100, n_classes=2, seed=5)
        with pytest.raises(ValueError, match=re.escape(message)):
            cross_validate(FineKnnSpec(k=1), matrix, folds=5, fold_assignment=assignment)

    def test_class_smaller_than_fold_count(self):
        matrix = _toy_matrix(12, n_classes=4, seed=3)
        with pytest.raises(ValueError, match="fewer than"):
            cross_validate(FineKnnSpec(), matrix, folds=5, seed=0)

    def test_deterministic(self):
        matrix = _toy_matrix(100, n_classes=2, seed=4)
        a = cross_validate(FineTreeSpec(), matrix, folds=5, seed=9)
        b = cross_validate(FineTreeSpec(), matrix, folds=5, seed=9)
        assert np.array_equal(a.confusion, b.confusion)
        assert a.fold_accuracies == b.fold_accuracies


class TestComputeReport:
    def test_perfect_predictions(self):
        labels = np.repeat(np.arange(1, 10), 5)
        report = compute_report(labels, labels)
        assert report.overall_accuracy == 1.0
        assert np.array_equal(np.diag(report.confusion), np.full(9, 5))
        assert report.confusion.sum() == 45
        for metrics in report.per_class.values():
            assert metrics.recall == 1.0
            assert math.isinf(metrics.positive_likelihood_ratio)

    def test_constant_predictor_on_balanced_truth(self):
        labels = np.repeat(np.arange(1, 10), 4)
        report = compute_report(labels, np.ones_like(labels))
        assert abs(report.overall_accuracy - 1 / 9) < 1e-12
        assert report.per_class[1].precision == pytest.approx(1 / 9)
        assert report.per_class[2].recall == 0.0

    def test_metrics_on_small_crafted_case(self):
        true_labels = np.array([1, 1, 1, 2, 2, 3])
        predicted = np.array([1, 1, 2, 2, 2, 3])
        report = compute_report(true_labels, predicted)
        m1 = report.per_class[1]
        assert m1.recall == pytest.approx(2 / 3)
        assert m1.precision == 1.0
        assert math.isinf(m1.positive_likelihood_ratio)  # zero false positives
        m2 = report.per_class[2]
        assert m2.recall == 1.0
        assert m2.precision == pytest.approx(2 / 3)
        # one false positive among four non-2 rows
        assert m2.positive_likelihood_ratio == pytest.approx(1.0 / (1.0 / 4.0))

    def test_group_accuracies(self):
        true_labels = np.array([1, 2, 5, 6])
        predicted = np.array([1, 1, 5, 5])
        report = compute_report(true_labels, predicted)
        assert report.group_accuracy["stationary"] == 0.5
        assert report.group_accuracy["dynamic"] == 0.5

    def test_group_accuracy_none_when_group_absent(self):
        report = compute_report(np.array([1, 2]), np.array([1, 2]))
        assert report.group_accuracy["dynamic"] is None

    def test_label_range_and_length_validation(self):
        with pytest.raises(ValueError, match="1..9"):
            compute_report(np.array([0]), np.array([1]))
        with pytest.raises(ValueError, match="1..9"):
            compute_report(np.array([1]), np.array([10]))
        with pytest.raises(ValueError, match="equal-length"):
            compute_report(np.array([1, 2]), np.array([1]))
        with pytest.raises(ValueError, match="at least one"):
            compute_report(np.array([], dtype=int), np.array([], dtype=int))

    def test_json_uses_inf_marker(self):
        labels = np.repeat(np.arange(1, 10), 2)
        payload = compute_report(labels, labels).to_json_dict()
        assert payload["per_class"]["1"]["positive_likelihood_ratio"] == "inf"
        assert json.dumps(payload)  # serializable


def _knn_config(seed=0, pca=False):
    return PipelineConfig(
        modality=Modality.COORDINATES,
        subset=JointSubset.c9(),
        dims=3,
        pca=PcaConfig(enabled=pca, variance_threshold=0.95),
        classifier=FineKnnSpec(k=1, seed=seed),
        split=SplitPlan(seed=seed),
        folds=5,
        seed=seed,
    )


class TestRunExperiment:
    def test_bundle_files_and_determinism(self, small_manifest, tmp_path):
        config = _knn_config(seed=11)
        first = tmp_path / "a"
        second = tmp_path / "b"
        run_experiment(config, small_manifest, out_dir=first)
        run_experiment(config, small_manifest, out_dir=second)
        for name in ("report.json", "confusion.csv", "scores.csv", "config.json",
                     "model.json"):
            assert (first / name).exists()
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_report_labels_protocol_sources(self, small_manifest, tmp_path):
        run_experiment(_knn_config(), small_manifest, out_dir=tmp_path / "r")
        payload = json.loads((tmp_path / "r" / "report.json").read_text())
        assert payload["protocol"]["metrics_source"] == "validation-holdout"
        assert "cross-validation" in payload["protocol"]["fold_accuracies_source"]
        assert len(payload["fold_accuracies"]) == 5

    def test_confusion_csv_is_10_by_10(self, small_manifest, tmp_path):
        run_experiment(_knn_config(), small_manifest, out_dir=tmp_path / "r")
        lines = (tmp_path / "r" / "confusion.csv").read_text().splitlines()
        assert len(lines) == 10
        assert all(len(line.split(",")) == 10 for line in lines)

    def test_scores_csv_covers_validation_rows(self, small_manifest, tmp_path):
        result = run_experiment(_knn_config(), small_manifest, out_dir=tmp_path / "r")
        lines = (tmp_path / "r" / "scores.csv").read_text().splitlines()
        assert len(lines) == 1 + len(result.split_indices.validation)
        assert lines[0] == "true_label," + ",".join(f"score_{c}" for c in range(1, 10))
        assert all(len(line.split(",")) == 10 for line in lines)

    def test_saved_model_reloads_and_predicts(self, small_manifest, tmp_path):
        from skelhar.classifiers import model_from_json_dict

        result = run_experiment(_knn_config(), small_manifest, out_dir=tmp_path / "r")
        payload = json.loads((tmp_path / "r" / "model.json").read_text())
        model = model_from_json_dict(payload["classifier"])
        matrix = build_feature_matrix(small_manifest, Modality.COORDINATES,
                                      JointSubset.c9(), 3)
        val = result.split_indices.validation
        assert np.array_equal(model.predict(matrix.rows[val]),
                              result.model.predict(matrix.rows[val]))

    def test_explicit_frame_positions_change_the_matrix(self, small_manifest):
        from dataclasses import replace

        config = _knn_config()
        default_matrix = build_feature_matrix(small_manifest, config.modality,
                                              config.subset, config.dims)
        explicit = build_feature_matrix(small_manifest, config.modality,
                                        config.subset, config.dims,
                                        frame_positions=tuple(range(51)))
        assert not np.array_equal(default_matrix.rows, explicit.rows)
        result = run_experiment(replace(config, frame_positions=tuple(range(51))),
                                small_manifest)
        assert result.config.frame_positions == tuple(range(51))

    def test_validation_rows_never_influence_training(self, small_manifest):
        # doctoring the held-out rows must leave every trained parameter,
        # including the PCA basis, bit-identical
        config = _knn_config(seed=5, pca=True)
        matrix = build_feature_matrix(small_manifest, config.modality,
                                      config.subset, config.dims)
        result_a = run_matrix_experiment(config, matrix)

        doctored = matrix.rows.copy()
        doctored[result_a.split_indices.validation] += 1000.0
        result_b = run_matrix_experiment(config, matrix.with_rows(doctored))

        assert json.dumps(result_a.model.to_json_dict()) == \
            json.dumps(result_b.model.to_json_dict())
        assert json.dumps(result_a.pca_model.to_json_dict()) == \
            json.dumps(result_b.pca_model.to_json_dict())
        assert result_a.cv_report.fold_accuracies == result_b.cv_report.fold_accuracies

    def test_pca_reduces_feature_count(self, small_manifest):
        config = _knn_config(seed=3, pca=True)
        matrix = build_feature_matrix(small_manifest, config.modality,
                                      config.subset, config.dims)
        result = run_matrix_experiment(config, matrix)
        assert result.pca_model is not None
        assert result.pca_model.retained_k <= matrix.n_features

    def test_model_json_is_a_fixed_point_of_load_and_save(self, tmp_path):
        # a state array reloaded with another dtype would change the bytes:
        # an int64 array read back as float64 writes 1.0 for 1
        matrix = PipelineConfig(classifier=FineKnnSpec()).feature_matrix(
            generate_synthetic(SynthSpec(n_participants=2, seed=0)))
        specs = [FineTreeSpec(), LinearDiscriminantSpec(), CubicSvmSpec(), FineKnnSpec(),
                 BaggedTreesSpec(n_trees=3), MlpSpec(epochs=5)]
        for spec in specs:
            for pca in (False, True):
                out = tmp_path / f"{type(spec).__name__}-{pca}"
                # two folds: cross-validation does not shape the saved model
                config = PipelineConfig(pca=PcaConfig(enabled=pca), classifier=spec, folds=2)
                run_matrix_experiment(config, matrix, out_dir=out)
                saved = json.loads((out / "model.json").read_text())
                again = {
                    "classifier": model_from_json_dict(saved["classifier"]).to_json_dict(),
                    "pca": saved["pca"] and PcaModel.from_json_dict(saved["pca"]).to_json_dict(),
                }
                write_json(again, out / "again.json")
                assert (out / "again.json").read_bytes() == (out / "model.json").read_bytes(), \
                    out.name

    def test_invalid_manifest_is_rejected(self, two_sequence_manifest):
        from skelhar import DatasetManifest, Synthetic
        from postures import make_sequence

        short = DatasetManifest((make_sequence(40),), Synthetic(0))
        with pytest.raises(ValueError, match="invalid sequence"):
            run_experiment(_knn_config(), short)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="classifier"):
            PipelineConfig(classifier=None)
        with pytest.raises(ValueError, match="dims"):
            PipelineConfig(dims=4, classifier=FineKnnSpec())

    @pytest.mark.parametrize("field, build", [
        ("dims", lambda: PipelineConfig(dims=4, classifier=FineKnnSpec())),
        ("dims", lambda: PipelineConfig(dims=2.0, classifier=FineKnnSpec())),
        ("folds", lambda: PipelineConfig(folds=1, classifier=FineKnnSpec())),
        ("seed", lambda: PipelineConfig(seed=-1, classifier=FineKnnSpec())),
        ("seed", lambda: PipelineConfig(seed=2**64, classifier=FineKnnSpec())),
        ("seed", lambda: _knn_config().with_seed(-1)),
        ("seed", lambda: SplitPlan(seed=-1)),
        ("seed", lambda: PipelineConfig(seed=1.5, classifier=FineKnnSpec())),
        ("seed", lambda: SplitPlan(seed=1.5)),
        ("folds", lambda: PipelineConfig(folds=2.5, classifier=FineKnnSpec())),
        ("train_frac", lambda: SplitPlan(math.nan, 0.5, 0.5)),
        ("validation_frac", lambda: SplitPlan(0.5, 0.5, 0.0)),
        ("test_frac", lambda: SplitPlan(0.7, -0.1, 0.4)),
        ("split", lambda: SplitPlan(0.5, 0.3, 0.3)),
        ("variance_threshold", lambda: PcaConfig(True, 0.0)),
    ])
    def test_bounds_raise_hyperparameter_error_naming_the_field(self, field, build):
        with pytest.raises(HyperparameterError) as info:
            build()
        assert info.value.field == field
        assert str(info.value).startswith(f"{field} must be ")

    def test_seed_bounds_are_inclusive_of_the_u64_range(self):
        for seed in (0, 2**64 - 1):
            assert _knn_config().with_seed(seed).split.seed == seed

    def test_feature_matrix_is_the_configured_extraction(self, small_manifest):
        from dataclasses import replace

        config = replace(_knn_config(), modality=Modality.VELOCITY, dims=2,
                         frame_positions=tuple(range(2, 53)))
        matrix = config.feature_matrix(small_manifest)
        expected = build_feature_matrix(small_manifest, Modality.VELOCITY,
                                        JointSubset.c9(), 2, tuple(range(2, 53)))
        assert np.array_equal(matrix.rows, expected.rows)
        assert np.array_equal(matrix.labels, expected.labels)
        assert np.array_equal(matrix.participants, expected.participants)
        assert matrix.provenance == expected.provenance

    def test_with_seed_rewires_all_seeds(self):
        config = _knn_config(seed=1).with_seed(99)
        assert config.seed == 99
        assert config.split.seed == 99
        assert config.classifier.seed == 99

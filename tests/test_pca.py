import numpy as np
import pytest

from skelhar import pca_fit, pca_transform
from skelhar.pca import PcaModel
from oracles import explicit_covariance_trace, pca_eigenvalues_by_svd, retained_components


class TestPcaFit:
    def test_line_embedded_in_3d_needs_one_component(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(200, 1))
        rows = t @ np.array([[1.0, 2.0, -0.5]]) + np.array([3.0, -1.0, 0.25])
        rows += rng.normal(0, 1e-9, rows.shape)  # break exact degeneracy
        model = pca_fit(rows, 0.95)
        assert model.retained_k == 1

    def test_isotropic_gaussian_needs_all_components(self):
        rng = np.random.default_rng(1)
        model = pca_fit(rng.normal(size=(3000, 3)), 0.95)
        assert model.retained_k == 3

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            rows = rng.normal(size=(rng.integers(20, 120), rng.integers(2, 10)))
            rows *= rng.uniform(0.5, 3.0, size=rows.shape[1])
            model = pca_fit(rows, 0.9)
            oracle = pca_eigenvalues_by_svd(rows)
            assert np.abs(model.eigenvalues - oracle).max() < 1e-8
            assert model.retained_k == retained_components(oracle, 0.9)

    def test_total_variance_conservation(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(150, 8)) * np.arange(1, 9)
        model = pca_fit(rows)
        assert abs(model.eigenvalues.sum() - explicit_covariance_trace(rows)) < 1e-8

    def test_components_are_orthonormal_and_ordered(self):
        rng = np.random.default_rng(4)
        model = pca_fit(rng.normal(size=(100, 6)))
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(6)).max() < 1e-8
        assert np.all(np.diff(model.eigenvalues) <= 1e-12)
        assert np.all(model.eigenvalues >= 0.0)

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        model = pca_fit(rng.normal(size=(80, 5)))
        for component in model.components:
            assert component[np.argmax(np.abs(component))] > 0

    def test_degenerate_input_raises(self):
        rows = np.ones((10, 4))
        with pytest.raises(ValueError, match="no variance"):
            pca_fit(rows)

    def test_input_validation(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            pca_fit(rng.normal(size=(1, 3)))
        with pytest.raises(ValueError):
            pca_fit(rng.normal(size=(10, 3)), variance_threshold=0.0)
        with pytest.raises(ValueError):
            pca_fit(rng.normal(size=(10, 3)), variance_threshold=1.5)


class TestPcaTransform:
    def test_mean_maps_to_zero(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(60, 5))
        model = pca_fit(rows)
        assert np.abs(pca_transform(model, model.mean)).max() < 1e-12

    def test_full_dimension_reconstructs_exactly(self):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(50, 4))
        model = pca_fit(rows, variance_threshold=1.0)
        assert model.retained_k == 4
        scores = pca_transform(model, rows)
        recon = scores @ model.components + model.mean
        assert np.abs(recon - rows).max() < 1e-8

    def test_reconstruction_error_non_increasing_in_k(self):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(120, 6)) * np.array([4, 3, 2, 1, 0.5, 0.1])
        model = pca_fit(rows)
        centered = rows - model.mean
        errors = []
        for k in range(1, 7):
            c = model.components[:k]
            residual = centered - (centered @ c.T) @ c
            errors.append(np.linalg.norm(residual))
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_score_variance_equals_eigenvalue(self):
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(200, 5)) * np.array([3, 2, 1, 0.5, 0.2])
        model = pca_fit(rows, variance_threshold=1.0)
        scores = pca_transform(model, rows)
        assert np.abs(scores.var(axis=0, ddof=1) - model.eigenvalues).max() < 1e-6

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(11)
        model = pca_fit(rng.normal(size=(30, 4)))
        with pytest.raises(ValueError, match="dimension"):
            pca_transform(model, rng.normal(size=(5, 3)))


class TestSelectionIdempotence:
    def test_curated_decaying_spectrum(self):
        # spectrum chosen so the retained tail stays below the threshold
        # after renormalization; idempotence then holds exactly
        rng = np.random.default_rng(12)
        basis = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        rows = rng.normal(size=(5000, 4)) * np.sqrt([0.60, 0.30, 0.06, 0.04]) @ basis.T
        model = pca_fit(rows, 0.95)
        assert model.retained_k == 3
        refit = pca_fit(pca_transform(model, rows), 0.95)
        assert refit.retained_k == 3

    def test_isotropic_keeps_everything(self):
        rng = np.random.default_rng(13)
        rows = rng.normal(size=(500, 4))
        model = pca_fit(rows, 0.95)
        assert model.retained_k == 4
        refit = pca_fit(pca_transform(model, rows), 0.95)
        assert refit.retained_k == 4

    def test_refit_never_grows(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            rows = rng.normal(size=(100, 6)) * rng.uniform(0.1, 3.0, size=6)
            model = pca_fit(rows, 0.9)
            refit = pca_fit(pca_transform(model, rows), 0.9)
            assert refit.retained_k <= model.retained_k


class TestSerialization:
    def test_json_round_trip(self):
        rng = np.random.default_rng(15)
        rows = rng.normal(size=(40, 5))
        model = pca_fit(rows)
        again = PcaModel.from_json_dict(model.to_json_dict())
        assert np.array_equal(again.mean, model.mean)
        assert np.array_equal(again.components, model.components)
        assert np.array_equal(again.eigenvalues, model.eigenvalues)
        assert again.retained_k == model.retained_k

    @pytest.mark.parametrize("field, value, message", [
        ("retained_k", 99, "retained_k must be an integer in 1..4, got 99"),
        ("retained_k", "2", "retained_k must be an integer in 1..4, got '2'"),
        ("retained_k", 2.9, "retained_k must be an integer in 1..4, got 2.9"),
        ("retained_k", True, "retained_k must be an integer in 1..4, got True"),
        ("components", [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
         "components must have shape (4, 4) for a mean of 4, got (2, 4)"),
        ("eigenvalues", [1.0, 0.5], "eigenvalues must have shape (4,) for a mean of 4"),
        ("mean", [], "mean must be a non-empty list"),
        ("mean", ["0", "0", "0", "0"], "mean must hold finite numbers only"),
        ("mean", [0.0, 0.0, None, 0.0], "mean must hold finite numbers only"),
        ("components", [[1.0, 0.0], [0.0]], "components must hold finite numbers only"),
        ("variance_threshold", 1.5, "variance_threshold must be a number in (0, 1]"),
        ("variance_threshold", "0.9", "variance_threshold must be a number in (0, 1]"),
        ("mean", None, "missing field 'mean'"),
    ])
    def test_a_malformed_field_is_named(self, field, value, message):
        d = pca_fit(np.random.default_rng(16).normal(size=(30, 4))).to_json_dict()
        if value is None:
            del d[field]
        else:
            d[field] = value
        with pytest.raises(ValueError) as info:
            PcaModel.from_json_dict(d)
        assert str(info.value).startswith(f"pca model: {message}")

"""Generators, standardization, splitting, and CSV ingestion."""

import json

import numpy as np
import pytest

from sparsebnn import (
    Dataset,
    SyntheticSpec,
    gen_sparse_regression,
    gen_two_feature,
    load_csv,
    load_manifest,
    nonlinear_link,
    relevance_I,
    split,
    standardize_fit_apply,
)
from sparsebnn.datasets import kfold_indices


class TestTwoFeatureGenerator:
    def test_inactive_feature_has_no_ols_weight(self):
        ds = gen_two_feature(0.0, 4000, seed=1)
        A = np.c_[ds.X, np.ones(ds.n)]
        coef, _, _, _ = np.linalg.lstsq(A, ds.y, rcond=None)
        resid = ds.y - A @ coef
        cov = np.linalg.inv(A.T @ A) * resid.var(ddof=3)
        se = np.sqrt(np.diag(cov))
        assert abs(coef[1]) < 3.0 * se[1]       # x2 coefficient ~ 0
        assert abs(coef[0] - 1.0) < 3.0 * se[0]  # x1 coefficient ~ 1

    def test_symmetric_case_at_full_mix(self):
        ds = gen_two_feature(1.0, 4000, seed=2)
        A = np.c_[ds.X, np.ones(ds.n)]
        coef, *_ = np.linalg.lstsq(A, ds.y, rcond=None)
        resid = ds.y - A @ coef
        cov = np.linalg.inv(A.T @ A) * resid.var(ddof=3)
        se = np.sqrt(np.diag(cov))
        assert abs(coef[0]) < 3.0 * se[0]
        assert abs(coef[1] - 1.0) < 3.0 * se[1]

    def test_response_variance_matches_analytic_value(self):
        alpha = 0.3
        n = 20_000
        ds = gen_two_feature(alpha, n, seed=3)
        analytic = (1 - alpha) ** 2 + alpha**2 + 1.0
        sample = ds.y.var()
        # sampling error of a variance estimate ~ var * sqrt(2/n)
        assert abs(sample - analytic) < 4.0 * analytic * np.sqrt(2.0 / n)

    def test_deterministic_in_seed(self):
        a = gen_two_feature(0.4, 100, seed=9)
        b = gen_two_feature(0.4, 100, seed=9)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


class TestRelevanceMeasure:
    def test_zero_contribution_gives_zero(self):
        ds = gen_two_feature(0.0, 500, seed=4)
        assert relevance_I(ds.y, 0.0 * ds.X[:, 1]) == 0.0

    def test_pure_contribution_gives_one(self):
        rng = np.random.default_rng(5)
        x2 = rng.standard_normal(300)
        y = 0.8 * x2
        assert relevance_I(y, 0.8 * x2) == pytest.approx(1.0)

    def test_monotone_in_mixing_weight_for_shared_noise(self):
        # same X and eps across the grid isolates the alpha effect; the
        # first step is noise-dominated (signal ~ alpha^2), so a small
        # finite-sample wobble is allowed there
        rng = np.random.default_rng(6)
        X = rng.standard_normal((2000, 2))
        eps = rng.standard_normal(2000)
        values = []
        for alpha in np.linspace(0, 1, 21):
            y = (1 - alpha) * X[:, 0] + alpha * X[:, 1] + eps
            values.append(relevance_I(y, alpha * X[:, 1]))
        diffs = np.diff(values)
        assert values[0] == 0.0
        assert np.all(diffs[1:] > 0)
        assert diffs[0] > -0.005
        assert values[-1] > 0.4

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            relevance_I(np.zeros(3), np.zeros(4))


class TestSparseRegressionGenerator:
    def test_all_inactive_yields_unit_noise(self):
        spec = SyntheticSpec(n=20_000, n_features=5, alpha=1.0,
                             pi_active=0.0, seed=7)
        ds = gen_sparse_regression(spec)
        assert not ds.z.any()
        assert abs(ds.y.var() - 1.0) < 4.0 * np.sqrt(2.0 / ds.n)

    def test_linear_fully_active_recovers_coefficients(self):
        spec = SyntheticSpec(n=2000, n_features=6, alpha=3.0,
                             pi_active=1.0, link="linear", seed=8)
        ds = gen_sparse_regression(spec)
        assert ds.z.all()
        A = np.c_[ds.X, np.ones(ds.n)]
        coef, *_ = np.linalg.lstsq(A, ds.y, rcond=None)
        resid = ds.y - A @ coef
        cov = np.linalg.inv(A.T @ A) * resid.var(ddof=7)
        se = np.sqrt(np.diag(cov))
        np.testing.assert_array_less(
            np.abs(coef[:6] - ds.beta), 4.0 * se[:6]
        )

    def test_nonlinear_link_at_zero(self):
        assert nonlinear_link(0.0) == pytest.approx(1.0)

    def test_effect_sizes_scale_inversely_with_alpha(self):
        spec = SyntheticSpec(n=10, n_features=4, alpha=2.0, pi_active=0.5,
                             seed=1)
        ds = gen_sparse_regression(spec)
        np.testing.assert_allclose(ds.beta, [0.5, 1.0, 1.5, 2.0])

    def test_deterministic_in_spec(self):
        spec = SyntheticSpec(n=50, n_features=3, alpha=1.0, pi_active=0.5,
                             link="nonlinear", seed=11)
        a = gen_sparse_regression(spec)
        b = gen_sparse_regression(spec)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.z, b.z)

    def test_linear_population_r2_matches_empirical_fit(self):
        spec = SyntheticSpec(n=2000, n_features=8, alpha=4.0,
                             pi_active=0.5, link="linear", seed=13)
        ds = gen_sparse_regression(spec)
        signal = float(np.sum((ds.beta * ds.z) ** 2))
        implied_r2 = signal / (signal + 1.0)
        A = np.c_[ds.X, np.ones(ds.n)]
        coef, *_ = np.linalg.lstsq(A, ds.y, rcond=None)
        resid = ds.y - A @ coef
        empirical_r2 = 1.0 - resid.var() / ds.y.var()
        assert abs(empirical_r2 - implied_r2) < 0.05


class TestStandardizer:
    def test_train_split_reaches_zero_mean_unit_variance(self):
        rng = np.random.default_rng(14)
        ds = Dataset(rng.normal(3, 5, (200, 3)), rng.normal(-2, 9, 200),
                     ["a", "b", "c"])
        out, _, _ = standardize_fit_apply(ds)
        np.testing.assert_allclose(out.X.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.X.std(axis=0), 1.0, rtol=1e-12)
        assert abs(out.y.mean()) < 1e-12
        assert out.y.std() == pytest.approx(1.0)

    def test_response_round_trip_is_identity(self):
        rng = np.random.default_rng(15)
        ds = Dataset(rng.normal(size=(50, 2)), rng.normal(2, 7, 50),
                     ["a", "b"])
        std, _, scaler = standardize_fit_apply(ds)
        np.testing.assert_allclose(scaler.inverse_y(std.y), ds.y, atol=1e-12)

    def test_test_split_uses_training_statistics_only(self):
        rng = np.random.default_rng(16)
        tr = Dataset(rng.normal(0, 1, (100, 2)), rng.normal(size=100),
                     ["a", "b"])
        te = Dataset(rng.normal(5, 3, (40, 2)), rng.normal(size=40),
                     ["a", "b"])
        _, te_std, scaler = standardize_fit_apply(tr, te)
        np.testing.assert_allclose(
            te_std.X, (te.X - scaler.x_mean) / scaler.x_std
        )
        assert abs(te_std.X.mean()) > 0.5  # far from 0: not refit on test

    def test_constant_feature_passes_through_unchanged(self):
        X = np.c_[np.full(30, 7.0), np.arange(30, dtype=float)]
        ds = Dataset(X, np.arange(30, dtype=float), ["flat", "ramp"])
        with pytest.warns(UserWarning, match="zero-variance"):
            std, _, _ = standardize_fit_apply(ds)
        np.testing.assert_array_equal(std.X[:, 0], X[:, 0])

    def test_rmse_in_original_units_matches_inverse_transformed(self):
        rng = np.random.default_rng(17)
        ds = Dataset(rng.normal(size=(80, 2)), rng.normal(10, 4, 80),
                     ["a", "b"])
        std, _, scaler = standardize_fit_apply(ds)
        pred_std = std.y + rng.normal(0, 0.1, 80)
        rmse_direct = np.sqrt(np.mean(
            (scaler.inverse_y(pred_std) - ds.y) ** 2
        ))
        rmse_scaled = np.sqrt(np.mean((pred_std - std.y) ** 2)) * scaler.y_std
        assert rmse_direct == pytest.approx(rmse_scaled)


class TestDataset:
    def test_targets_are_float64_and_must_be_finite(self):
        ds = Dataset(np.zeros((3, 1)), np.arange(3), ["a"])
        assert ds.y.dtype == np.float64
        with pytest.raises(ValueError, match="y contains non-finite"):
            Dataset(np.zeros((2, 1)), [1.0, np.nan], ["a"])


class TestSplit:
    def test_ninety_ten_on_ten_rows(self):
        ds = Dataset(np.arange(20).reshape(10, 2).astype(float),
                     np.arange(10).astype(float), ["a", "b"])
        tr, te = split(ds, 0.9, seed=0)
        assert tr.n == 9 and te.n == 1

    def test_same_seed_same_split(self):
        rng = np.random.default_rng(19)
        ds = Dataset(rng.normal(size=(30, 2)), rng.normal(size=30),
                     ["a", "b"])
        tr1, te1 = split(ds, 0.8, seed=5)
        tr2, te2 = split(ds, 0.8, seed=5)
        assert np.array_equal(tr1.X, tr2.X) and np.array_equal(te1.X, te2.X)

    def test_disjoint_and_exhaustive(self):
        ds = Dataset(np.arange(26)[:, None].astype(float),
                     np.arange(26).astype(float), ["a"])
        tr, te = split(ds, 0.7, seed=3)
        together = np.sort(np.concatenate([tr.y, te.y]))
        assert np.array_equal(together, np.arange(26))

    def test_bad_fraction_rejected(self):
        ds = Dataset(np.zeros((5, 1)), np.zeros(5), ["a"])
        with pytest.raises(ValueError, match="train_fraction"):
            split(ds, 1.0)

    def test_negative_seed_named(self):
        ds = Dataset(np.zeros((5, 1)), np.zeros(5), ["a"])
        with pytest.raises(ValueError, match="split seed must be >= 0, got -1"):
            split(ds, 0.8, seed=-1)
        with pytest.raises(ValueError, match="fold seed must be >= 0, got -2"):
            list(kfold_indices(5, 2, seed=-2))


class TestCsvLoader:
    def test_header_plus_rows(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("a,b,target\n1,2,3\n4,5,6\n")
        ds = load_csv(path, "target")
        assert ds.n == 2 and ds.n_features == 2
        np.testing.assert_array_equal(ds.X, [[1, 2], [4, 5]])
        np.testing.assert_array_equal(ds.y, [3, 6])
        assert ds.feature_names == ["a", "b"]

    def test_target_by_index(self, tmp_path):
        path = tmp_path / "idx.csv"
        path.write_text("a,b,c\n1,2,3\n")
        ds = load_csv(path, 0)
        np.testing.assert_array_equal(ds.y, [1])
        assert ds.feature_names == ["b", "c"]

    def test_missing_target_column_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="target"):
            load_csv(path, "y")

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="ragged.csv:3"):
            load_csv(path, "b")

    def test_non_numeric_cell_reports_line_number(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match=r"text.csv:3.*oops"):
            load_csv(path, "b")

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e999"])
    def test_non_finite_cell_reports_line_number(self, tmp_path, cell):
        path = tmp_path / "wild.csv"
        path.write_text(f"a,b\n1,2\n3,{cell}\n")
        with pytest.raises(ValueError,
                           match=f"wild.csv:3: non-finite cell '{cell}'"):
            load_csv(path, "b")

    def test_expected_shape_enforced(self, tmp_path):
        path = tmp_path / "shape.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(ValueError, match="expected 506x13"):
            load_csv(path, "b", expected_shape=(506, 13))
        ds = load_csv(path, "b", expected_shape=(2, 1))
        assert ds.n == 2

    def test_manifest_round_trip(self, tmp_path):
        csv_path = tmp_path / "toy.csv"
        csv_path.write_text("a,b,t\n1,2,3\n4,5,6\n7,8,9\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            '{"datasets": [{"name": "toy", "path": "toy.csv", '
            '"target": "t", "n": 3, "p": 2}]}'
        )
        entries = load_manifest(manifest)
        assert entries[0]["name"] == "toy"
        ds = load_csv(entries[0]["path"], entries[0]["target"],
                      expected_shape=entries[0]["expected_shape"])
        assert ds.n == 3 and ds.n_features == 2

    @pytest.mark.parametrize("key", ["name", "path", "target"])
    def test_manifest_entry_without_key_names_file_and_index(self, tmp_path,
                                                             key):
        entry = {"name": "toy", "path": "toy.csv", "target": "t"}
        del entry[key]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"datasets": [
            {"name": "ok", "path": "ok.csv", "target": "t"}, entry]}))
        with pytest.raises(ValueError, match=rf"manifest\.json: dataset "
                                             rf"entry 1: KeyError\('{key}'\)"):
            load_manifest(manifest)

    @pytest.mark.parametrize("doc", [{"datasets": []}, {}, [], 7])
    def test_manifest_without_datasets_rejected(self, tmp_path, doc):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="manifest.json: lists no datasets"):
            load_manifest(manifest)


class TestDatasetInvariants:
    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row counts"):
            Dataset(np.zeros((3, 2)), np.zeros(4), ["a", "b"])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.array([[np.nan, 1.0]]), np.zeros(1), ["a", "b"])

    def test_feature_mask_zeroes_columns(self):
        ds = Dataset(np.ones((4, 3)), np.zeros(4), ["a", "b", "c"])
        masked = ds.with_feature_mask([True, False, True])
        np.testing.assert_array_equal(masked.X[:, 1], 0.0)
        np.testing.assert_array_equal(masked.X[:, 0], 1.0)

    def test_feature_mask_of_another_length_rejected(self):
        ds = Dataset(np.ones((4, 3)), np.zeros(4), ["a", "b", "c"])
        with pytest.raises(ValueError, match=r"feature mask length \(2,\) != 3"):
            ds.with_feature_mask([True, False])

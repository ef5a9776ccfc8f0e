"""Pruning rules, feature importance, selection, and CV thresholding."""

import numpy as np
import pytest

from helpers import moderate_prior
from sparsebnn import (
    Dataset,
    NetworkTopology,
    SpikeSlabPrior,
    SyntheticSpec,
    TrainConfig,
    VariationalParams,
    cv_threshold,
    feature_importance_phi,
    feature_importance_psi,
    gen_sparse_regression,
    importance_report,
    optimal_p,
    predict,
    prune,
    rank_score,
    selection_accuracy,
    sparsity,
    standardize_fit_apply,
    variable_selection,
)
from sparsebnn.network import forward


def _state(m, rho, p, active=None):
    return VariationalParams(
        np.asarray(m, float), np.asarray(rho, float), np.asarray(p, float),
        active=active,
    )


class TestRankScore:
    def test_inclusion_rule_returns_p(self):
        vp = _state([1.0, 2.0], [0.0, 0.0], [0.9, 0.1])
        np.testing.assert_array_equal(
            rank_score(vp, "inclusion_p"), [0.9, 0.1]
        )

    def test_low_inclusion_is_pruned_first(self):
        vp = _state([1.0, 1.0], [0.0, 0.0], [0.9, 0.1])
        mask, _ = prune(vp, "inclusion_p", 0.5)
        assert mask.keep.tolist() == [True, False]

    def test_inclusion_and_second_moment_rank_identically(self):
        # the closed-form p is monotone in the second moment, so both
        # rules must induce the same ordering under any fixed prior
        rng = np.random.default_rng(33)
        for _ in range(25):
            prior = moderate_prior(rng)
            m = rng.normal(0, 0.8, 40)
            rho = rng.uniform(-3, 0.5, 40)
            vp = _state(m, rho, 0.5 * np.ones(40))
            vp.p = optimal_p(vp.m, vp.sigma, prior)
            by_p = np.argsort(rank_score(vp, "inclusion_p"), kind="stable")
            by_s = np.argsort(rank_score(vp, "second_moment"), kind="stable")
            np.testing.assert_array_equal(by_p, by_s)

    def test_snr_and_second_moment_can_disagree(self):
        # (m, sigma) = (1, 1) vs (0.5, 2): snr prefers the first,
        # the second moment prefers the second
        sigma = np.array([1.0, 2.0])
        rho = np.log(np.expm1(sigma))
        vp = _state([1.0, 0.5], rho, [0.5, 0.5])
        snr = rank_score(vp, "snr")
        sm = rank_score(vp, "second_moment")
        assert snr[0] > snr[1]
        assert sm[1] > sm[0]

    def test_unknown_rule_rejected(self):
        vp = _state([0.0], [0.0], [0.5])
        with pytest.raises(ValueError, match="rule"):
            rank_score(vp, "magnitude")


class TestPrune:
    def test_zero_droprate_is_identity(self):
        rng = np.random.default_rng(1)
        vp = _state(rng.normal(size=6), rng.normal(size=6), rng.random(6))
        mask, out = prune(vp, "inclusion_p", 0.0)
        assert mask.keep.all()
        assert np.array_equal(out.m, vp.m)
        assert np.array_equal(out.p, vp.p)
        assert sparsity(mask) == 0.0

    def test_half_droprate_zeroes_exactly_the_two_weakest_of_four(self):
        vp = _state([1.0, 2.0, 3.0, 4.0], np.zeros(4),
                    [0.4, 0.1, 0.9, 0.2])
        mask, out = prune(vp, "inclusion_p", 0.5)
        assert mask.keep.tolist() == [True, False, True, False]
        assert out.m.tolist() == [1.0, 0.0, 3.0, 0.0]
        assert out.p.tolist() == [0.4, 0.0, 0.9, 0.0]
        # sigma stays frozen on pruned entries
        assert np.array_equal(out.rho, vp.rho)

    def test_ties_break_by_canonical_index(self):
        vp = _state(np.ones(4), np.zeros(4), [0.5, 0.5, 0.5, 0.5])
        mask, _ = prune(vp, "inclusion_p", 0.5)
        assert mask.keep.tolist() == [False, False, True, True]

    def test_mean_prediction_matches_manually_zeroed_forward(self):
        rng = np.random.default_rng(3)
        topo = NetworkTopology((3, 4, 1), hidden_activation="tanh")
        vp = _state(
            rng.normal(0, 0.7, topo.n_params),
            rng.uniform(-2, 0, topo.n_params),
            rng.random(topo.n_params),
        )
        mask, pruned = prune(vp, "second_moment", 0.4)
        x = rng.standard_normal((6, 3))
        via_predict = predict(topo, pruned, x)
        w = np.where(mask.keep, vp.m, 0.0)
        direct, _ = forward(topo, w, x)
        np.testing.assert_array_equal(via_predict, direct)

    def test_sparsity_matches_droprate_within_one_over_m(self):
        rng = np.random.default_rng(4)
        vp = _state(rng.normal(size=97), rng.normal(size=97), rng.random(97))
        for rate in (0.1, 0.33, 0.5, 0.9):
            mask, _ = prune(vp, "inclusion_p", rate)
            assert abs(sparsity(mask) - rate) <= 1.0 / 97

    def test_single_survivor_of_hundred(self):
        rng = np.random.default_rng(5)
        vp = _state(rng.normal(size=100), rng.normal(size=100),
                    rng.random(100))
        mask, _ = prune(vp, "inclusion_p", 0.99)
        assert sparsity(mask) == pytest.approx(0.99)


class TestFeatureImportance:
    def test_single_path_product(self):
        topo = NetworkTopology((1, 1, 1))
        # canonical order: w1, b1, w2, b2; only weights enter psi
        vp = _state([0.0] * 4, [0.0] * 4, [0.7, 0.5, 0.4, 0.9])
        psi = feature_importance_psi(topo, vp)
        assert psi == pytest.approx([0.7 * 0.4])

    def test_full_inclusion_gives_unit_importance(self):
        topo = NetworkTopology((3, 5, 1))
        vp = _state(
            np.zeros(topo.n_params), np.zeros(topo.n_params),
            np.ones(topo.n_params),
        )
        np.testing.assert_allclose(
            feature_importance_psi(topo, vp), np.ones(3), rtol=1e-15
        )

    def test_matches_explicit_path_enumeration(self):
        rng = np.random.default_rng(17)
        topo = NetworkTopology((3, 4, 2, 1))
        vp = _state(
            np.zeros(topo.n_params), np.zeros(topo.n_params),
            rng.random(topo.n_params),
        )
        from sparsebnn.network import layer_slices

        mats = [
            vp.p[w_sl].reshape(shape)  # (fan_in, fan_out)
            for w_sl, shape, _ in layer_slices(topo)
        ]
        n1, n2 = 4, 2
        expected = np.zeros(3)
        for j in range(3):
            acc = 0.0
            for h1 in range(n1):
                for h2 in range(n2):
                    acc += mats[0][j, h1] * mats[1][h1, h2] * mats[2][h2, 0]
            expected[j] = acc / (n1 * n2)
        np.testing.assert_allclose(
            feature_importance_psi(topo, vp), expected, atol=1e-12
        )

    def test_importance_is_bounded_by_unit_interval(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            topo = NetworkTopology(
                (int(rng.integers(1, 5)), int(rng.integers(1, 6)),
                 int(rng.integers(1, 6)), 1)
            )
            vp = _state(
                np.zeros(topo.n_params), np.zeros(topo.n_params),
                rng.random(topo.n_params),
            )
            psi = feature_importance_psi(topo, vp)
            assert np.all(psi >= 0.0) and np.all(psi <= 1.0)

    def test_multi_output_head_rejected(self):
        topo = NetworkTopology((2, 3, 4))
        vp = _state(
            np.zeros(topo.n_params), np.zeros(topo.n_params),
            np.ones(topo.n_params),
        )
        with pytest.raises(ValueError, match="single-output"):
            feature_importance_psi(topo, vp)

    def test_phi_endpoints(self):
        np.testing.assert_allclose(
            feature_importance_phi([0.2, 0.6]), [0.0, 1.0]
        )
        np.testing.assert_allclose(
            feature_importance_phi([1.0, 2.0, 3.0]), [0.0, 0.5, 1.0]
        )

    def test_phi_invariant_under_affine_rescaling(self):
        rng = np.random.default_rng(19)
        psi = rng.random(12)
        np.testing.assert_allclose(
            feature_importance_phi(3.7 * psi + 0.2),
            feature_importance_phi(psi),
            atol=1e-12,
        )

    def test_constant_psi_warns_and_returns_zeros(self):
        with pytest.warns(UserWarning, match="constant"):
            phi = feature_importance_phi([0.3, 0.3, 0.3])
        np.testing.assert_array_equal(phi, np.zeros(3))


class TestSelectionAccuracy:
    def test_identical_vectors(self):
        z = np.array([True, False, True])
        assert selection_accuracy(z, z) == 1.0

    def test_complements(self):
        z = np.array([True, False, True])
        assert selection_accuracy(z, ~z) == 0.0

    def test_half_agreement(self):
        assert selection_accuracy([True, True], [True, False]) == 0.5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            selection_accuracy([True], [True, False])


class TestVariableSelection:
    def test_increasing_phi_keeps_top_two_of_ten(self):
        # a (10, 1, 1) net: psi_j = p(x_j -> h) * p(h -> out)
        topo = NetworkTopology((10, 1, 1))
        p = np.zeros(topo.n_params)
        p[:10] = np.linspace(0.1, 0.95, 10)  # first-layer weights
        p[10] = 1.0   # hidden bias (ignored by psi)
        p[11] = 1.0   # output weight
        p[12] = 1.0   # output bias
        vp = _state(np.zeros(topo.n_params), np.zeros(topo.n_params), p)
        report = importance_report(topo, vp, keep_quantile=0.8)
        assert report.selected.sum() == 2
        assert report.selected[8] and report.selected[9]

    def test_vanishing_quantile_keeps_every_feature(self):
        # phi's minimum is exactly 0 by construction, so the q -> 0 limit
        # of "keep everything" is realized at q = 0 (threshold = min)
        topo = NetworkTopology((6, 2, 1))
        rng = np.random.default_rng(23)
        vp = _state(
            np.zeros(topo.n_params), np.zeros(topo.n_params),
            rng.random(topo.n_params),
        )
        report = importance_report(topo, vp, keep_quantile=0.0)
        assert report.selected.all()
        assert report.threshold == 0.0

    def test_select_then_refit_returns_accuracy_and_report(self):
        spec = SyntheticSpec(n=400, n_features=12, alpha=2.0, pi_active=0.3,
                             link="linear", seed=8)
        ds = gen_sparse_regression(spec)
        ds_std, _, _ = standardize_fit_apply(ds)
        topo = NetworkTopology((12, 8, 1))
        prior = SpikeSlabPrior(0.5, 1.0, 0.1)
        config = TrainConfig(epochs=60, batch_size=128, seed=3)
        first = __import__("sparsebnn").train(topo, prior, ds_std, config)
        outcome = variable_selection(
            topo, first.params, ds_std, 0.8, config, prior
        )
        assert outcome.accuracy is not None
        assert 0.0 <= outcome.accuracy <= 1.0
        assert outcome.selected.sum() >= 1
        assert outcome.estimated_active_proportion == pytest.approx(
            outcome.selected.mean()
        )
        # only the refit's parameters are read: it skips the diagnostics
        assert (outcome.refit.objective, outcome.refit.train_loss) == (
            None, None)


class TestCvThreshold:
    def _data(self, pi_active, seed=4):
        spec = SyntheticSpec(n=300, n_features=10, alpha=2.0,
                             pi_active=pi_active, link="linear", seed=seed)
        ds, _, _ = standardize_fit_apply(gen_sparse_regression(spec))
        return ds

    def test_grid_of_one_returns_that_value(self):
        ds = self._data(0.5)
        prop = cv_threshold(
            NetworkTopology((10, 8, 1)), SpikeSlabPrior(0.5, 1.0, 0.1), ds,
            TrainConfig(epochs=20, batch_size=64, seed=0),
            folds=2, candidate_proportions=[0.4], seed=1,
        )
        assert prop == 0.4

    def test_pure_noise_selects_smallest_proportion(self):
        ds = self._data(0.0)
        prop = cv_threshold(
            NetworkTopology((10, 8, 1)), SpikeSlabPrior(0.5, 1.0, 0.1), ds,
            TrainConfig(epochs=30, batch_size=64, seed=0),
            folds=3, candidate_proportions=[0.1, 0.5, 1.0], seed=1,
        )
        assert prop == 0.1

    def test_dataset_smaller_than_folds_rejected(self):
        ds = self._data(0.5).subset(np.arange(5))
        with pytest.raises(ValueError, match="folds"):
            cv_threshold(
                NetworkTopology((10, 8, 1)), SpikeSlabPrior(0.5, 1.0, 0.1),
                ds, TrainConfig(epochs=1), folds=10,
            )

    def test_single_fold_rejected(self):
        ds = self._data(0.5)
        with pytest.raises(ValueError, match="folds must be >= 2"):
            cv_threshold(
                NetworkTopology((10, 8, 1)), SpikeSlabPrior(0.5, 1.0, 0.1),
                ds, TrainConfig(epochs=1), folds=1,
            )

    def test_bad_grid_rejected(self):
        ds = self._data(0.5)
        with pytest.raises(ValueError, match="proportions"):
            cv_threshold(
                NetworkTopology((10, 8, 1)), SpikeSlabPrior(0.5, 1.0, 0.1),
                ds, TrainConfig(epochs=1), folds=2,
                candidate_proportions=[0.0, 0.5],
            )

"""Sampled prior-gradient estimators against quadrature references."""

import math

import numpy as np
import pytest

from sparsebnn import (
    SpikeSlabPrior,
    bbb_grad_m,
    bbb_grad_sigma2,
    variance_comparison,
)
from sparsebnn.cli import _write_table
from sparsebnn.gradcheck import (
    log_responsibilities,
    reference_grad_m,
    reference_grad_sigma2,
)
from sparsebnn.svi import grad_penalty, optimal_p


class TestResponsibilities:
    def test_sum_to_one(self):
        prior = SpikeSlabPrior(0.3, 2.0, 0.05)
        w = np.linspace(-5, 5, 101)
        r1, r0 = log_responsibilities(w, prior)
        np.testing.assert_allclose(r1 + r0, 1.0, atol=1e-12)

    def test_stable_for_extreme_scale_ratios(self):
        # |log tau| gaps up to 20 must not produce NaN or Inf
        prior = SpikeSlabPrior(0.5, math.exp(10.0), math.exp(-10.0))
        w = np.array([-50.0, -1.0, 0.0, 1e-8, 1.0, 50.0])
        r1, r0 = log_responsibilities(w, prior)
        assert np.all(np.isfinite(r1)) and np.all(np.isfinite(r0))
        assert np.all((r1 >= 0) & (r1 <= 1))

    def test_slab_wins_far_from_origin(self):
        prior = SpikeSlabPrior(0.5, 2.0, 0.1)
        r1, _ = log_responsibilities(5.0, prior)
        assert r1 > 1.0 - 1e-10


class TestGradMeanEstimator:
    def test_zero_mean_is_odd(self):
        prior = SpikeSlabPrior(0.5, 1.0, 0.2)
        rep = bbb_grad_m(0.0, 0.7, prior, draws=100_000, seed=3)
        assert abs(rep.mean) < 4.0 * rep.std_error

    def test_near_degenerate_prior_collapses_to_single_gaussian(self):
        # tau0 -> tau1 makes the estimator W / tau1^2, whose mean is m/tau1^2
        tau = 1.3
        prior = SpikeSlabPrior(0.5, tau, tau * (1.0 - 1e-9))
        m, sigma = 0.8, 0.5
        rep = bbb_grad_m(m, sigma, prior, draws=50_000, seed=5)
        assert rep.mean == pytest.approx(m / tau**2, abs=4.0 * rep.std_error)

    def test_matches_quadrature_reference(self):
        rng = np.random.default_rng(60)
        for k in range(6):
            prior = SpikeSlabPrior(
                float(rng.uniform(0.3, 0.7)),
                float(rng.uniform(1.0, 2.0)),
                float(rng.uniform(0.2, 0.5)),
            )
            m = float(rng.normal(0, 1))
            sigma = float(rng.uniform(0.3, 1.0))
            rep = bbb_grad_m(m, sigma, prior, draws=100_000, seed=70 + k)
            assert abs(rep.mean - rep.reference) < 4.0 * rep.std_error

    def test_standard_error_definition(self):
        prior = SpikeSlabPrior(0.5, 1.0, 0.2)
        rep = bbb_grad_m(0.4, 0.6, prior, draws=5000, seed=9)
        assert rep.draws == 5000
        assert rep.std_error > 0


class TestGradVarianceEstimator:
    def test_auxiliary_identities(self):
        # E[(m/sigma) eps + eps^2] = 1 and E[(eps^2 - 1) + (m/sigma) eps] = 0
        prior = SpikeSlabPrior(0.5, 1.0, 0.2)
        rep = bbb_grad_sigma2(0.7, 0.5, prior, draws=100_000, seed=1)
        x = rep.extras
        assert abs(x["identity_lead_mean"] - 1.0) < 4.0 * x["identity_lead_se"]
        assert abs(x["identity_tail_mean"]) < 4.0 * x["identity_tail_se"]

    def test_matches_quadrature_reference(self):
        rng = np.random.default_rng(61)
        for k in range(4):
            prior = SpikeSlabPrior(
                float(rng.uniform(0.3, 0.7)),
                float(rng.uniform(1.0, 2.0)),
                float(rng.uniform(0.2, 0.5)),
            )
            m = float(rng.normal(0, 1))
            sigma = float(rng.uniform(0.3, 1.0))
            rep = bbb_grad_sigma2(m, sigma, prior, draws=100_000, seed=80 + k)
            assert abs(rep.mean - rep.reference) < 4.0 * rep.std_error

    def test_closed_form_covered_when_responsibilities_saturate(self):
        # with the draw distribution well inside the slab, the sampled
        # conditional expectations are ~constant and the two gradient
        # families agree; coverage calibrated in that regime
        rng = np.random.default_rng(50)
        hits_m = hits_s2 = 0
        n = 40
        for k in range(n):
            m = float(rng.choice([-1, 1]) * rng.uniform(1.5, 3.0))
            sigma = float(rng.uniform(0.15, 0.35))
            prior = SpikeSlabPrior(
                float(rng.uniform(0.3, 0.7)),
                float(rng.uniform(1.5, 3.0)),
                float(rng.uniform(0.05, 0.15)),
            )
            p = optimal_p(m, sigma, prior)
            closed_m, closed_s2 = grad_penalty(m, sigma, p, prior)
            rep_m = bbb_grad_m(m, sigma, prior, draws=10_000, seed=100 + k)
            rep_s2 = bbb_grad_sigma2(m, sigma, prior, draws=10_000,
                                     seed=200 + k)
            hits_m += abs(rep_m.mean - closed_m) <= 4.0 * rep_m.std_error
            hits_s2 += abs(rep_s2.mean - closed_s2) <= 4.0 * rep_s2.std_error
        assert hits_m / n >= 0.8
        assert hits_s2 / n >= 0.8

    def test_generic_settings_show_a_real_discrepancy(self):
        # away from saturation the two families are analogous, not equal:
        # the gap is systematic, so it is reported rather than asserted
        prior = SpikeSlabPrior(0.5, 1.5, 0.4)
        m, sigma = 0.4, 0.8
        p = optimal_p(m, sigma, prior)
        _, closed_s2 = grad_penalty(m, sigma, p, prior)
        rep = bbb_grad_sigma2(m, sigma, prior, draws=200_000, seed=31)
        assert abs(rep.mean - closed_s2) > 4.0 * rep.std_error

    def test_sampled_estimator_has_positive_variance(self):
        prior = SpikeSlabPrior(0.5, 1.0, 0.2)
        rep = bbb_grad_sigma2(0.5, 0.5, prior, draws=1000, seed=2)
        assert rep.std_error > 0.0


class TestQuadratureReferences:
    def test_grad_m_reference_equals_analytic_mixture_mean(self):
        # for the degenerate-ish case the integral is analytic
        tau = 1.1
        prior = SpikeSlabPrior(0.5, tau, tau * (1 - 1e-12))
        assert reference_grad_m(0.6, 0.4, prior) == pytest.approx(
            0.6 / tau**2, rel=1e-9
        )

    def test_grad_sigma2_reference_is_finite_difference_consistent(self):
        # d/d sigma^2 of E[-log prior(W) + log q(W)] via quadrature of the
        # objective itself, compared against the estimator's expectation
        from scipy.integrate import quad

        prior = SpikeSlabPrior(0.4, 1.6, 0.3)
        m = 0.5

        def objective(sigma2):
            sigma = math.sqrt(sigma2)

            def integrand(w):
                r1 = prior.pi * math.exp(
                    -0.5 * w * w / prior.tau1**2
                ) / (prior.tau1 * math.sqrt(2 * math.pi))
                r0 = (1 - prior.pi) * math.exp(
                    -0.5 * w * w / prior.tau0**2
                ) / (prior.tau0 * math.sqrt(2 * math.pi))
                q = math.exp(-0.5 * ((w - m) / sigma) ** 2) / (
                    sigma * math.sqrt(2 * math.pi)
                )
                return q * (-math.log(r1 + r0) + math.log(q))

            val, _ = quad(integrand, m - 12 * sigma, m + 12 * sigma,
                          limit=200)
            return val

        s2 = 0.36
        h = 1e-5
        fd = (objective(s2 + h) - objective(s2 - h)) / (2 * h)
        ref = reference_grad_sigma2(m, math.sqrt(s2), prior)
        assert ref == pytest.approx(fd, rel=1e-5)


class TestVarianceComparison:
    def test_single_setting_gives_single_row(self):
        rows = variance_comparison([(0.5, 0.4, 0.5, 1.0, 0.2)], draws=2000)
        assert len(rows) == 1
        assert rows[0]["closed_form_variance_m"] == 0.0
        assert rows[0]["closed_form_variance_sigma2"] == 0.0
        assert rows[0]["mc_variance_m"] > 0.0

    def test_doubling_draws_halves_squared_standard_error(self):
        setting = [(0.8, 0.5, 0.5, 1.2, 0.2)]
        small = variance_comparison(setting, draws=20_000, seed=4)[0]
        big = variance_comparison(setting, draws=40_000, seed=4)[0]
        ratio = small["mc_std_error_m"] ** 2 / big["mc_std_error_m"] ** 2
        assert 1.5 < ratio < 2.7

    def test_csv_output(self, tmp_path):
        # the rows as the gradcheck command writes them
        path = tmp_path / "cmp.csv"
        rows = variance_comparison(
            [(0.5, 0.4, 0.5, 1.0, 0.2), (1.0, 0.3, 0.4, 1.5, 0.1)],
            draws=1000,
        )
        _write_table(path, rows[0], [row.values() for row in rows])
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(rows) + 1
        assert "schema_version" in lines[0]
        assert "mc_variance_sigma2" in lines[0]

    def test_bridge_columns_reported_side_by_side(self):
        # average slab responsibility and the closed-form p are both
        # reported; they coincide only at self-consistent optima
        row = variance_comparison([(2.0, 0.2, 0.5, 2.0, 0.1)],
                                  draws=5000)[0]
        assert 0.0 <= row["mean_slab_responsibility"] <= 1.0
        assert 0.0 <= row["closed_form_p"] <= 1.0


class TestQuadratureWindow:
    # the reference integrates over m +/- 12 sigma; a window under 2**30
    # float steps of m collapses and is refused
    PRIOR = (0.5, 1.0, 0.1)

    @pytest.mark.parametrize("m", [0.5, -2.0, 7.0])
    def test_window_bound_accepts_above_and_rejects_below(self, m):
        bound = 2.0**30 * np.spacing(abs(m)) / 24.0
        row = variance_comparison([(m, 1.01 * bound, *self.PRIOR)],
                                  draws=2)[0]
        for which in ("m", "sigma2"):
            assert row[f"quadrature_reference_{which}"] == pytest.approx(
                row[f"closed_form_{which}"], rel=1e-7)
        settings = [(m, 0.3, *self.PRIOR), (m, 0.99 * bound, *self.PRIOR)]
        with pytest.raises(ValueError, match=f"setting 1: sigma = .* is too "
                                             f"small for m = {m}"):
            variance_comparison(settings, draws=2)

    def test_zero_mean_never_rejected(self):
        row = variance_comparison([(0.0, 1e-20, *self.PRIOR)], draws=2)[0]
        assert row["quadrature_reference_m"] == row["closed_form_m"] == 0.0

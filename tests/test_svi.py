"""Penalty, closed-form inclusion update, and pathwise gradients."""

import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import expit, xlogy

from helpers import assert_grad_close, moderate_prior
from sparsebnn import (
    NetworkTopology,
    NoiseDraw,
    ShapeMismatch,
    SpikeSlabPrior,
    VariationalParams,
    grad_penalty,
    objective_estimate,
    optimal_p,
    penalty_R,
    penalty_total,
    sample_weights,
    sigma_of_rho,
    step_gradients,
)
from sparsebnn.network import forward, nll
from sparsebnn.svi import _BLOCK, _expit, _pcg_seeds, _xlogx, dsigma_drho


class TestPrior:
    def test_rejects_inverted_scales(self):
        with pytest.raises(ValueError, match="0 < tau0 < tau1"):
            SpikeSlabPrior(pi=0.5, tau1=0.1, tau0=1.0)

    def test_rejects_pi_outside_unit_interval(self):
        with pytest.raises(ValueError, match="pi"):
            SpikeSlabPrior(pi=1.0, tau1=1.0, tau0=0.1)

    def test_rejects_infinite_slab_scale(self):
        with pytest.raises(ValueError, match="tau1 must be finite, got inf"):
            SpikeSlabPrior(pi=0.5, tau1=math.inf, tau0=0.1)


class TestSigmaOfRho:
    def test_at_zero(self):
        assert sigma_of_rho(0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_deep_negative_no_underflow(self):
        # asymptotically log(1 + e^rho) = e^rho - e^(2 rho)/2 + ...
        val = sigma_of_rho(-40.0)
        assert val > 0.0
        assert val == pytest.approx(math.exp(-40.0), rel=1e-12)

    def test_deep_positive_no_overflow(self):
        # asymptotically log(1 + e^rho) = rho + e^-rho - ...
        val = sigma_of_rho(40.0)
        assert np.isfinite(val)
        assert val == pytest.approx(40.0 + math.exp(-40.0), rel=1e-15)

    def test_monotone(self):
        grid = np.linspace(-30, 30, 500)
        assert np.all(np.diff(sigma_of_rho(grid)) > 0)


class TestNoiseDraw:
    def test_reproducible_from_seed_and_index(self):
        a = NoiseDraw.draw(16, seed=5, index=3)
        b = NoiseDraw.draw(16, seed=5, index=3)
        assert np.array_equal(a, b)
        c = NoiseDraw.draw(16, seed=5, index=4)
        assert not np.array_equal(a, c)

    def test_stream_is_default_rng_of_seed_and_index(self):
        words = (0, 5, 8, 99999, 123456, 2**32 - 1)
        pairs = [(s, i) for s in words for i in words] + [(2**32, 3), (2**40 + 7, 0)]
        for seed, index in pairs:
            want = np.random.default_rng([seed, index]).standard_normal(8)
            assert np.array_equal(NoiseDraw.draw(8, seed, index), want)

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            NoiseDraw.draw(4, seed=-1)

    def test_consecutive_indices_across_block_edges(self):
        # one seed's stream as train reads it: index after index, through
        # the seeds of several blocks
        edges = [0, _BLOCK, 2 * _BLOCK, 2**32 - _BLOCK]
        for seed in (0, 7, 2**32 - 1):
            for index in [i for edge in edges for i in range(edge - 2, edge + 2)
                          if 0 <= i < 2**32] + [2**32 - 1]:
                want = np.random.default_rng([seed, index]).standard_normal(5)
                got = NoiseDraw.draw(5, seed, index)
                assert got.tobytes() == want.tobytes(), (seed, index)

    def test_only_a_block_read_past_its_first_index_is_mixed(self):
        _pcg_seeds.cache_clear()
        for seed in range(7000, 7020):   # one draw per seed, as callers do
            NoiseDraw.draw(3, seed, 0)
        assert _pcg_seeds.cache_info().misses == 0
        for index in range(2 * _BLOCK):   # one seed's stream, as train reads
            NoiseDraw.draw(3, 11, index)
        assert _pcg_seeds.cache_info().misses == 2

    def test_two_threads_draw_their_own_streams(self):
        # numpy fills a large draw without the GIL, so the other thread
        # seeds its draw meanwhile: on a Generator shared by the threads,
        # that seeding would show in this one's array
        size = 20_000
        indices = range(_BLOCK - 20, _BLOCK + 20)   # across a block edge
        barrier = threading.Barrier(2, timeout=60)
        got, errors = {}, []

        def stream(seed):
            try:
                out, rows = np.empty(size), []
                for index in indices:
                    barrier.wait()
                    rows.append(NoiseDraw.draw(size, seed, index, out=out)
                                .tobytes())
                got[seed] = rows
            except Exception as exc:   # reported below
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=stream, args=(seed,))
                   for seed in (11, 12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == [] and sorted(got) == [11, 12]
        for seed, rows in got.items():
            for index, row in zip(indices, rows):
                want = np.random.default_rng([seed, index]).standard_normal(
                    size)
                assert row == want.tobytes(), (seed, index)


_WORDS = st.integers(0, 2**32 - 1)
# a seed at either end of the 32-bit range or anywhere in it
_SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1]), _WORDS)
# an index at either end, on either side of a block edge, or anywhere
_INDICES = st.one_of(
    st.sampled_from([0, 2**32 - 1]),
    st.integers(1, 2**32 // _BLOCK - 1).flatmap(
        lambda k: st.sampled_from([k * _BLOCK - 1, k * _BLOCK])),
    _WORDS)


@settings(max_examples=200, deadline=None)
@given(size=st.integers(0, 40), a=_SEEDS, b=_SEEDS, i=_INDICES, j=_INDICES,
       k=_INDICES)
def test_noise_draw_is_default_rng_byte_for_byte(size, a, b, i, j, k):
    # seeds interleaved A, B, A, each draw fresh and into one reused out=
    out = np.empty(size)
    for seed, index in ((a, i), (b, j), (a, k), (a, min(k + 1, 2**32 - 1))):
        want = np.random.default_rng([seed, index]).standard_normal(size)
        assert NoiseDraw.draw(size, seed, index).tobytes() == want.tobytes()
        assert NoiseDraw.draw(size, seed, index, out=out) is out
        assert out.tobytes() == want.tobytes()


def _ulps(got, want):
    """|got - want| in units of the spacing at ``want``."""
    return np.abs(got - want) / np.spacing(np.abs(want))


class TestNumpyKernels:
    """The logistic, x*log x and softplus built from numpy's exp/log/log1p
    against scipy.special and np.logaddexp."""

    X = np.concatenate([
        np.linspace(-745.0, 745.0, 100_001),
        np.random.default_rng(0).uniform(-40.0, 40.0, 50_000),
    ])
    P = np.concatenate([
        np.logspace(-300.0, 0.0, 50_001),
        np.random.default_rng(1).uniform(0.0, 1.0, 50_000),
    ])
    SPECIAL = np.array([np.inf, -np.inf, 1000.0, -1000.0, 0.0, np.nan])

    def test_within_8_ulp_of_the_reference(self):
        assert _ulps(_expit(self.X), expit(self.X)).max() <= 8
        assert _ulps(sigma_of_rho(self.X), np.logaddexp(0.0, self.X)).max() <= 8
        assert _ulps(_xlogx(self.P), xlogy(self.P, self.P)).max() <= 8

    def test_exact_at_infinities_zero_and_nan(self):
        x = self.SPECIAL
        np.testing.assert_array_equal(_expit(x), expit(x))
        with np.errstate(invalid="ignore"):  # logaddexp(0, inf) warns
            softplus = np.logaddexp(0.0, x)
        np.testing.assert_array_equal(sigma_of_rho(x), softplus)
        p = np.array([0.0, 1.0, np.nan])
        np.testing.assert_array_equal(_xlogx(p), xlogy(p, p))
        assert _xlogx(0.0) == 0.0 and _expit(0.0) == 0.5

    def test_no_warning_anywhere(self):
        x = np.concatenate([self.X, self.SPECIAL])
        p = np.concatenate([self.P, [0.0, 1.0, np.nan]])
        prior = SpikeSlabPrior(pi=0.5, tau1=1.0, tau0=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _expit(x), sigma_of_rho(x), dsigma_drho(x), _xlogx(p)
            optimal_p(x, sigma_of_rho(x), prior)
            penalty_R(np.zeros_like(p), np.ones_like(p), p, prior)

    def test_out_forms_give_the_allocating_bits(self):
        # the buffered closed forms training calls, on the full range and
        # the special values, equal their allocating calls byte for byte,
        # and the three that never warn do not warn buffered either
        x = np.concatenate([self.X, self.SPECIAL])
        sigma = sigma_of_rho(x)
        p = np.resize(np.concatenate([self.P, [0.0, 1.0, np.nan]]), x.size)
        prior = SpikeSlabPrior(pi=0.3, tau1=1.0, tau0=0.1)
        a, b = np.empty_like(x), np.empty_like(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sigma_of_rho(x, out=a, work=b).tobytes() == sigma.tobytes()
            assert (dsigma_drho(x, out=a).tobytes()
                    == dsigma_drho(x).tobytes())
            assert (optimal_p(x, sigma, prior, out=a, work=b).tobytes()
                    == optimal_p(x, sigma, prior).tobytes())
        with np.errstate(all="ignore"):   # sigma = 0 and inf, as unbuffered
            got = grad_penalty(x, sigma, p, prior, out=(a, b))
            want = grad_penalty(x, sigma, p, prior)
        assert got[0] is a and got[1] is b
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


class TestSampleWeights:
    def test_zero_noise_returns_means(self):
        vp = VariationalParams(
            np.array([1.0, -2.0]), np.array([0.0, 1.0]), np.array([0.5, 0.5])
        )
        assert np.array_equal(sample_weights(vp, np.zeros(2)), vp.m)

    def test_unit_noise_at_rho_zero(self):
        vp = VariationalParams(np.zeros(3), np.zeros(3), np.full(3, 0.5))
        w = sample_weights(vp, np.ones(3))
        np.testing.assert_allclose(w, math.log(2.0), rtol=1e-15)

    def test_monte_carlo_mean_within_four_standard_errors(self):
        rng = np.random.default_rng(8)
        vp = VariationalParams(
            np.array([0.3, -1.2, 2.0]),
            np.array([-1.0, 0.0, 0.5]),
            np.full(3, 0.5),
        )
        n = 100_000
        draws = np.array(
            [sample_weights(vp, rng.standard_normal(3)) for _ in range(n)]
        )
        se = vp.sigma / math.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - vp.m) < 4.0 * se)

    def test_pruned_entries_sample_to_zero(self):
        vp = VariationalParams(
            np.array([1.0, 2.0]), np.zeros(2), np.array([0.9, 0.9]),
            active=np.array([True, False]),
        )
        w = sample_weights(vp, np.ones(2))
        assert w[1] == 0.0 and w[0] != 0.0


class TestPenalty:
    def test_slab_only_branch_at_p_one(self):
        prior = SpikeSlabPrior(0.3, 1.5, 0.2)
        m, sigma = 0.4, 0.8
        expected = (m**2 + sigma**2) / (2 * prior.tau1**2) + math.log(
            prior.tau1 / (sigma * prior.pi)
        )
        assert penalty_R(m, sigma, 1.0, prior) == pytest.approx(
            expected, rel=1e-12
        )

    def test_spike_only_branch_at_p_zero(self):
        prior = SpikeSlabPrior(0.3, 1.5, 0.2)
        m, sigma = 0.4, 0.8
        expected = (m**2 + sigma**2) / (2 * prior.tau0**2) + math.log(
            prior.tau0 / (sigma * (1 - prior.pi))
        )
        assert penalty_R(m, sigma, 0.0, prior) == pytest.approx(
            expected, rel=1e-12
        )

    def test_matches_direct_substitution(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            prior = moderate_prior(rng)
            m = float(rng.normal(0, 1))
            sigma = float(rng.uniform(0.1, 2.0))
            p = float(rng.uniform(0.01, 0.99))
            direct = p * (
                (m**2 + sigma**2) / (2 * prior.tau1**2)
                + math.log(prior.tau1 * p / (sigma * prior.pi))
            ) + (1 - p) * (
                (m**2 + sigma**2) / (2 * prior.tau0**2)
                + math.log(prior.tau0 * (1 - p) / (sigma * (1 - prior.pi)))
            )
            assert penalty_R(m, sigma, p, prior) == pytest.approx(
                direct, rel=1e-12
            )

    def test_grid_minimum_sits_at_closed_form_p(self):
        rng = np.random.default_rng(14)
        grid = np.linspace(1e-5, 1 - 1e-5, 100_000)
        for _ in range(5):
            prior = moderate_prior(rng)
            m = float(rng.normal(0, 0.8))
            sigma = float(rng.uniform(0.2, 1.5))
            values = penalty_R(m, sigma, grid, prior)
            best = grid[int(np.argmin(values))]
            p_star = optimal_p(m, sigma, prior)
            assert abs(best - p_star) <= grid[1] - grid[0]


class TestPenaltyTotal:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
    def test_buffered_sum_equals_the_allocating_sum(self, seed, masked):
        # the sum in three work arrays, whatever they held, and the one
        # that allocates them have the bits of sum(penalty_R) over the
        # active entries, with p exactly 0 and 1 among them
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 5000))
        prior = moderate_prior(rng)
        m = rng.normal(0.0, 1.0, size)
        rho = rng.uniform(-8.0, 3.0, size)
        sigma = sigma_of_rho(rho)
        p = optimal_p(m, sigma, prior)
        p[rng.random(size) < 0.1] = 0.0
        p[rng.random(size) < 0.1] = 1.0
        active = rng.random(size) < 0.5 if masked else None
        vp = VariationalParams(m, rho, p, active)
        keep = np.arange(size) if active is None else np.flatnonzero(active)
        want = float(penalty_R(m[keep], sigma[keep], p[keep], prior).sum())
        work = tuple(np.full(size, np.nan) for _ in range(3))
        got = penalty_total(vp, prior, sigma=sigma, work=work)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert (np.float64(penalty_total(vp, prior)).tobytes()
                == np.float64(want).tobytes())

    def test_buffered_x_log_x_equals_the_allocating_one(self):
        p = np.array([0.0, -0.0, 1.0, 0.5, 1e-300, np.nan, np.inf])
        out = np.full(p.size, 7.0)
        assert _xlogx(p, out=out) is out
        assert out.tobytes() == _xlogx(p).tobytes()


class TestOptimalP:
    def test_balanced_second_moment_gives_half(self):
        # solve A = B for m^2 + sigma^2 with pi=1/2, tau1=1, tau0=1/2
        prior = SpikeSlabPrior(0.5, 1.0, 0.5)
        s = 2.0 * math.log(0.5) / (1.0 / prior.tau1**2 - 1.0 / prior.tau0**2)
        assert s == pytest.approx(0.46210, abs=5e-6)
        assert optimal_p(0.0, math.sqrt(s), prior) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_wide_scale_gap_saturates_to_one(self):
        prior = SpikeSlabPrior(0.5, math.exp(1.0), math.exp(-6.0))
        assert optimal_p(0.0, 0.1, prior) == 1.0

    def test_extreme_gap_saturates_to_zero_without_nan(self):
        prior = SpikeSlabPrior(0.5, 1e6, 0.999999e6)
        val = optimal_p(5.0, 1.0, prior)
        assert np.isfinite(val)

    def test_strictly_increasing_in_second_moment(self):
        prior = SpikeSlabPrior(0.4, 1.2, 0.3)
        s = np.linspace(0.01, 4.0, 100)
        p = optimal_p(np.sqrt(s), 1e-9, prior)
        assert np.all(np.diff(p) > 0)

    def test_depends_only_on_second_moment_and_is_even_in_m(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            prior = moderate_prior(rng)
            m = float(rng.normal(0, 1))
            sigma = float(rng.uniform(0.1, 1.5))
            s = m * m + sigma * sigma
            direct = optimal_p(m, sigma, prior)
            assert optimal_p(-m, sigma, prior) == direct
            sigma2 = float(rng.uniform(0.05, math.sqrt(s) * 0.99))
            m2 = math.sqrt(s - sigma2 * sigma2)
            assert optimal_p(m2, sigma2, prior) == pytest.approx(
                direct, rel=1e-12
            )

    def test_p_returns_to_prior_as_scales_merge(self):
        # tau1/tau0 -> 1 drives p back to the prior weight
        m, sigma, pi = 0.5, 0.4, 0.3
        deltas = [0.1, 0.01, 0.001, 1e-5]
        errors = []
        for d in deltas:
            prior = SpikeSlabPrior(pi, 1.0, 1.0 - d)
            errors.append(abs(optimal_p(m, sigma, prior) - pi))
        assert all(a > b for a, b in zip(errors, errors[1:]))
        prior = SpikeSlabPrior(pi, 1.0, 1.0 - 1e-7)
        assert abs(optimal_p(m, sigma, prior) - pi) < 1e-6

    def test_growing_slab_scale_drives_p_to_zero(self):
        # the -log(tau1^2/tau0^2) term eventually dominates any fixed
        # second moment, however large
        m, sigma = 1.0, 0.5
        taus = [2.0, 10.0, 1e3, 1e6, 1e10]
        ps = [
            optimal_p(m, sigma, SpikeSlabPrior(0.5, t, 0.2)) for t in taus
        ]
        assert all(a > b for a, b in zip(ps, ps[1:]))
        assert ps[-1] < 1e-3


class TestGradPenalty:
    def test_odd_symmetry_at_zero_mean(self):
        prior = SpikeSlabPrior(0.5, 1.0, 0.2)
        d_m, _ = grad_penalty(0.0, 0.7, 0.4, prior)
        assert d_m == 0.0

    def test_stationary_scale(self):
        prior = SpikeSlabPrior(0.5, 1.3, 0.25)
        p = 0.6
        s2 = 1.0 / (p / prior.tau1**2 + (1 - p) / prior.tau0**2)
        _, d_s2 = grad_penalty(0.3, math.sqrt(s2), p, prior)
        assert d_s2 == pytest.approx(0.0, abs=1e-14)

    def test_matches_finite_differences_of_penalty(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            prior = moderate_prior(rng)
            m = float(rng.normal(0, 1))
            sigma = float(rng.uniform(0.2, 1.5))
            p = float(rng.uniform(0.05, 0.95))
            d_m, d_s2 = grad_penalty(m, sigma, p, prior)
            fd_m = (
                penalty_R(m + 1e-6, sigma, p, prior)
                - penalty_R(m - 1e-6, sigma, p, prior)
            ) / 2e-6
            s2 = sigma * sigma
            h = 1e-7 * max(1.0, s2)
            fd_s2 = (
                penalty_R(m, math.sqrt(s2 + h), p, prior)
                - penalty_R(m, math.sqrt(s2 - h), p, prior)
            ) / (2 * h)
            assert d_m == pytest.approx(fd_m, rel=1e-7, abs=1e-9)
            assert d_s2 == pytest.approx(fd_s2, rel=1e-6, abs=1e-8)


def _tiny_problem(seed=0, n=6):
    rng = np.random.default_rng(seed)
    topo = NetworkTopology((2, 3, 1), hidden_activation="tanh")
    x = rng.standard_normal((n, 2))
    y = rng.standard_normal(n)
    m = rng.normal(0, 0.5, topo.n_params)
    rho = rng.uniform(-2.5, 0.0, topo.n_params)
    prior = SpikeSlabPrior(0.4, 1.5, 0.3)
    p = optimal_p(m, sigma_of_rho(rho), prior)
    return topo, VariationalParams(m, rho, p), prior, x, y


class TestObjectiveEstimate:
    def test_rejects_zero_kl_weight(self):
        topo, vp, prior, x, y = _tiny_problem()
        noise = [NoiseDraw.draw(len(vp), 0)]
        with pytest.raises(ValueError, match="kl_weight"):
            objective_estimate(topo, vp, prior, x, y, noise, kl_weight=0.0)

    def test_rejects_an_empty_draw_list(self):
        topo, vp, prior, x, y = _tiny_problem()
        with pytest.raises(ValueError, match="noise holds no draws"):
            objective_estimate(topo, vp, prior, x, y, noise=[])

    def test_rejects_empty_batch(self):
        topo, vp, prior, x, y = _tiny_problem()
        noise = [NoiseDraw.draw(len(vp), 0)]
        with pytest.raises(ValueError, match="empty"):
            objective_estimate(topo, vp, prior, x[:0], y[:0], noise)

    def test_full_batch_unit_weight_matches_manual_composition(self):
        topo, vp, prior, x, y = _tiny_problem()
        draws = [NoiseDraw.draw(len(vp), 5, l) for l in range(3)]
        value = objective_estimate(topo, vp, prior, x, y, noise=draws)
        manual = 0.0
        for d in draws:
            out, _ = forward(topo, sample_weights(vp, d), x)
            manual += nll(out, y)
        manual /= 3
        manual += float(
            np.sum(penalty_R(vp.m, vp.sigma, vp.p, prior))
        )
        assert value == pytest.approx(manual, rel=1e-12)

    def test_same_seed_same_value(self):
        topo, vp, prior, x, y = _tiny_problem()
        a = objective_estimate(
            topo, vp, prior, x, y, [NoiseDraw.draw(len(vp), 9, l)
                                    for l in range(4)])
        b = objective_estimate(
            topo, vp, prior, x, y, [NoiseDraw.draw(len(vp), 9, l)
                                    for l in range(4)])
        assert a == b

    def test_converges_to_quadrature_on_one_random_parameter(self):
        # freeze every coordinate but one (sigma ~ e^-30), leaving a 1-D
        # expectation that adaptive quadrature can evaluate exactly
        topo, vp, prior, x, y = _tiny_problem(seed=3)
        vp.rho[:] = -30.0
        vp.rho[0] = 0.2
        vp.p = optimal_p(vp.m, vp.sigma, prior)
        sigma0 = vp.sigma[0]

        def nll_at(w0):
            w = vp.m.copy()
            w[0] = w0
            out, _ = forward(topo, w, x)
            return nll(out, y)

        target, _ = quad(
            lambda w0: nll_at(w0)
            * math.exp(-0.5 * ((w0 - vp.m[0]) / sigma0) ** 2)
            / (sigma0 * math.sqrt(2 * math.pi)),
            vp.m[0] - 10 * sigma0,
            vp.m[0] + 10 * sigma0,
        )
        penalty = float(np.sum(penalty_R(vp.m, vp.sigma, vp.p, prior)))
        target += penalty

        errors = []
        for L in (200, 20_000):
            est = objective_estimate(
                topo, vp, prior, x, y,
                [NoiseDraw.draw(len(vp), 1, l) for l in range(L)],
            )
            errors.append(abs(est - target))
        assert errors[1] < errors[0]
        # O(1/sqrt(L)) scale: per-draw nll std estimated from fresh draws
        samples = np.array(
            [
                nll_at(vp.m[0] + sigma0 * z)
                for z in np.random.default_rng(2).standard_normal(4000)
            ]
        )
        se = samples.std() / math.sqrt(20_000)
        assert errors[1] < 6.0 * se


class TestStepGradients:
    def test_zero_at_joint_stationary_point(self):
        topo = NetworkTopology((1, 1, 1), hidden_activation="identity")
        prior = SpikeSlabPrior(0.5, 1.0, 0.2)
        p = 0.35
        s2 = 1.0 / (p / prior.tau1**2 + (1 - p) / prior.tau0**2)
        sigma = math.sqrt(s2)
        rho = math.log(math.expm1(sigma))
        vp = VariationalParams(
            np.zeros(4), np.full(4, rho), np.full(4, p)
        )
        x = np.array([[0.5], [-1.0]])
        y = np.zeros(2)  # outputs at W=0 are 0, so residuals vanish
        eps = np.zeros(4)
        g_m, g_rho = step_gradients(topo, vp, prior, x, y, eps)
        np.testing.assert_allclose(g_m, 0.0, atol=1e-14)
        np.testing.assert_allclose(g_rho, 0.0, atol=1e-14)

    def test_matches_frozen_noise_finite_differences(self):
        topo, vp, prior, x, y = _tiny_problem(seed=7)
        eps = NoiseDraw.draw(len(vp), 42, 0)
        kl = 0.37
        g_m, g_rho = step_gradients(topo, vp, prior, x, y, eps, kl_weight=kl)

        def obj_at(m=None, rho=None):
            probe = VariationalParams(
                vp.m if m is None else m,
                vp.rho if rho is None else rho,
                vp.p,
            )
            return objective_estimate(
                topo, probe, prior, x, y, noise=[eps], kl_weight=kl
            )

        fd_m = np.zeros(len(vp))
        fd_rho = np.zeros(len(vp))
        for i in range(len(vp)):
            for arr, out in ((vp.m, fd_m), (vp.rho, fd_rho)):
                h = 1e-5 * max(1.0, abs(arr[i]))
                up = arr.copy()
                up[i] += h
                dn = arr.copy()
                dn[i] -= h
                if arr is vp.m:
                    out[i] = (obj_at(m=up) - obj_at(m=dn)) / (2 * h)
                else:
                    out[i] = (obj_at(rho=up) - obj_at(rho=dn)) / (2 * h)
        assert_grad_close(g_m, fd_m)
        assert_grad_close(g_rho, fd_rho)

    def test_multi_draw_averaging_reduces_variance_by_draw_count(self):
        topo, vp, prior, x, y = _tiny_problem(seed=11)
        singles = np.array(
            [
                step_gradients(
                    topo, vp, prior, x, y, NoiseDraw.draw(len(vp), 1, i)
                )[0][0]
                for i in range(10_000)
            ]
        )
        var_single = singles.var()
        group_means = singles.reshape(10, 1000).mean(axis=1)
        ratio = var_single / group_means.var(ddof=1)
        assert 300.0 < ratio < 3000.0

    def test_noise_of_another_length_rejected(self):
        topo, vp, prior, x, y = _tiny_problem(seed=13)
        with pytest.raises(ShapeMismatch, match="noise draw"):
            step_gradients(topo, vp, prior, x, y, np.zeros(len(vp) - 1))

    def test_pruned_coordinates_get_zero_gradients(self):
        topo, vp, prior, x, y = _tiny_problem(seed=13)
        vp.active = np.ones(len(vp), dtype=bool)
        vp.active[2] = False
        g_m, g_rho = step_gradients(
            topo, vp, prior, x, y, NoiseDraw.draw(len(vp), 3, 0)
        )
        assert g_m[2] == 0.0 and g_rho[2] == 0.0


class TestDistributionalIdentities:
    """Sampled checks of the penalty's derivation-level identities."""

    def test_gaussian_log_ratio_identity(self):
        # E_q log N(w; 0, tau^2)/N(w; m, sigma^2)
        #   = log(sigma/tau) - (m^2 + sigma^2)/(2 tau^2) + 1/2
        rng = np.random.default_rng(41)
        for _ in range(5):
            m = float(rng.normal(0, 1))
            sigma = float(rng.uniform(0.3, 1.5))
            tau = float(rng.uniform(0.5, 2.0))
            n = 200_000
            w = m + sigma * rng.standard_normal(n)
            vals = (
                -0.5 * np.log(2 * np.pi * tau**2)
                - 0.5 * w**2 / tau**2
                + 0.5 * np.log(2 * np.pi * sigma**2)
                + 0.5 * ((w - m) / sigma) ** 2
            )
            closed = (
                math.log(sigma / tau) - (m**2 + sigma**2) / (2 * tau**2) + 0.5
            )
            se = vals.std() / math.sqrt(n)
            assert abs(vals.mean() - closed) < 4.0 * se

    def test_penalty_equals_neg_elbo_term_up_to_half(self):
        # -E log [prior(W,Z) / (q(W) q(Z))] = R(theta, p) - 1/2,
        # so the sampled difference must be constant across settings
        rng = np.random.default_rng(43)
        n = 200_000
        for _ in range(6):
            prior = moderate_prior(rng)
            m = float(rng.normal(0, 0.8))
            sigma = float(rng.uniform(0.3, 1.2))
            p = float(rng.uniform(0.1, 0.9))
            w = m + sigma * rng.standard_normal(n)
            z = rng.random(n) < p
            log_prior = np.where(
                z,
                np.log(prior.pi)
                - 0.5 * np.log(2 * np.pi * prior.tau1**2)
                - 0.5 * w**2 / prior.tau1**2,
                np.log(1 - prior.pi)
                - 0.5 * np.log(2 * np.pi * prior.tau0**2)
                - 0.5 * w**2 / prior.tau0**2,
            )
            log_q_w = (
                -0.5 * np.log(2 * np.pi * sigma**2)
                - 0.5 * ((w - m) / sigma) ** 2
            )
            log_q_z = np.where(z, math.log(p), math.log(1 - p))
            vals = -(log_prior - log_q_w - log_q_z)
            diff = vals.mean() - penalty_R(m, sigma, p, prior)
            se = vals.std() / math.sqrt(n)
            assert abs(diff - (-0.5)) < 4.0 * se

    def test_dsigma_drho_is_logistic(self):
        grid = np.linspace(-5, 5, 11)
        fd = (sigma_of_rho(grid + 1e-6) - sigma_of_rho(grid - 1e-6)) / 2e-6
        np.testing.assert_allclose(dsigma_drho(grid), fd, rtol=1e-8)

"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (visible under ``pytest -s`` or
``-rA``) in addition to its assertion, so a run of this module doubles as
the release checklist.  Criteria that train networks use frozen seeds;
reference-data checks (criterion 10) skip with instructions when the CSV
files are not present.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import sparsebnn as sb
from helpers import pre_activations
from sparsebnn import (
    NetworkTopology,
    NoiseDraw,
    SpikeSlabPrior,
    TrainConfig,
    VariationalParams,
)


def _report(num, name, ok, detail=""):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
          f"{' | ' + detail if detail else ''}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _interior_setting(rng, max_gap=6.0):
    """Random (m, sigma, prior) whose optimal p stays clear of 0/1."""
    while True:
        prior = SpikeSlabPrior(
            float(rng.uniform(0.2, 0.8)),
            float(rng.uniform(1.0, 2.5)),
            float(rng.uniform(0.2, 0.6)),
        )
        m = float(rng.normal(0.0, 0.6))
        sigma = float(rng.uniform(0.2, 1.2))
        s = m * m + sigma * sigma
        gap = (
            0.5 * s * (1 / prior.tau0**2 - 1 / prior.tau1**2)
            + math.log(prior.tau0 / prior.tau1)
            + math.log(prior.pi / (1 - prior.pi))
        )
        if abs(gap) <= max_gap:
            return m, sigma, prior


def test_criterion_01_closed_form_optimality():
    """Grid minimization of the penalty over p lands on the closed form."""
    rng = np.random.default_rng(1001)
    spacing = 1e-4
    grid = np.arange(spacing, 1.0, spacing)
    worst_arg = 0.0
    worst_slope = 0.0
    for _ in range(1000):
        m, sigma, prior = _interior_setting(rng)
        values = sb.penalty_R(m, sigma, grid, prior)
        best = grid[int(np.argmin(values))]
        p_star = sb.optimal_p(m, sigma, prior)
        worst_arg = max(worst_arg, abs(best - p_star))
        # dR/dp = (A - B) + logit(p); at p* = logistic(B - A) it vanishes
        s = m * m + sigma * sigma
        a_minus_b = (
            0.5 * s * (1 / prior.tau1**2 - 1 / prior.tau0**2)
            + math.log(prior.tau1 / prior.pi)
            - math.log(prior.tau0 / (1 - prior.pi))
        )
        slope = a_minus_b + math.log(p_star / (1.0 - p_star))
        worst_slope = max(worst_slope, abs(slope))
    ok = worst_arg <= spacing and worst_slope <= 1e-8
    _report(1, "closed-form p optimality",
            ok, f"max |argmin-p*|={worst_arg:.2e}, max |dR/dp|={worst_slope:.2e}")


def test_criterion_02_constant_offset_identity():
    """Sampled KL-form expectation minus the penalty is setting-independent."""
    rng = np.random.default_rng(1002)
    n = 1_000_000
    diffs = []
    ses = []
    for _ in range(20):
        m, sigma, prior = _interior_setting(rng)
        p = float(rng.uniform(0.1, 0.9))
        w = m + sigma * rng.standard_normal(n)
        z = rng.random(n) < p
        log_prior = np.where(
            z,
            np.log(prior.pi) - 0.5 * np.log(2 * np.pi * prior.tau1**2)
            - 0.5 * w * w / prior.tau1**2,
            np.log(1 - prior.pi) - 0.5 * np.log(2 * np.pi * prior.tau0**2)
            - 0.5 * w * w / prior.tau0**2,
        )
        log_q = (
            -0.5 * np.log(2 * np.pi * sigma**2)
            - 0.5 * ((w - m) / sigma) ** 2
            + np.where(z, math.log(p), math.log(1 - p))
        )
        vals = -(log_prior - log_q)
        diffs.append(vals.mean() - sb.penalty_R(m, sigma, p, prior))
        ses.append(vals.std() / math.sqrt(n))
    diffs = np.array(diffs)
    ses = np.array(ses)
    center = diffs.mean()
    spread = np.abs(diffs - center)
    ok = bool(np.all(spread <= 4.0 * ses))
    _report(2, "constant-offset identity", ok,
            f"offset={center:.6f}, max |dev|/se="
            f"{float((spread / ses).max()):.2f}")


def test_criterion_03_gradient_suite():
    """Pathwise and penalty gradients match frozen-noise finite differences."""
    rng = np.random.default_rng(1003)
    worst = 0.0
    for k in range(50):
        act = ("tanh", "identity", "relu")[k % 3]
        depth = int(rng.integers(1, 3))
        sizes = [int(rng.integers(2, 7)) for _ in range(depth)]
        topo = NetworkTopology((int(rng.integers(1, 5)), *sizes, 1),
                               hidden_activation=act)
        prior = SpikeSlabPrior(
            float(rng.uniform(0.3, 0.7)), float(rng.uniform(1.0, 2.0)),
            float(rng.uniform(0.2, 0.5)),
        )
        m = rng.normal(0, 0.5, topo.n_params)
        rho = rng.uniform(-2.5, 0.0, topo.n_params)
        vp = VariationalParams(m, rho, np.zeros(topo.n_params))
        vp.p = sb.optimal_p(vp.m, vp.sigma, prior)
        eps = NoiseDraw.draw(topo.n_params, 7000 + k, 0)
        for attempt in range(60):
            x = rng.standard_normal((4, topo.n_inputs))
            if act != "relu":
                break
            w = sb.sample_weights(vp, eps)
            if min(np.abs(z).min()
                   for z in pre_activations(topo, w, x)) > 1e-3:
                break
        y = rng.standard_normal(4)
        kl = float(rng.uniform(0.2, 1.0))
        g_m, g_rho = sb.step_gradients(topo, vp, prior, x, y, eps,
                                       kl_weight=kl)

        def objective(m_vec, rho_vec):
            probe = VariationalParams(m_vec, rho_vec, vp.p)
            return sb.objective_estimate(
                topo, probe, prior, x, y, noise=[eps], kl_weight=kl
            )

        for arr, grad in ((vp.m, g_m), (vp.rho, g_rho)):
            for i in range(topo.n_params):
                h = 1e-5 * max(1.0, abs(arr[i]))
                up = arr.copy()
                up[i] += h
                dn = arr.copy()
                dn[i] -= h
                if arr is vp.m:
                    fd = (objective(up, vp.rho) - objective(dn, vp.rho)) / (2 * h)
                else:
                    fd = (objective(vp.m, up) - objective(vp.m, dn)) / (2 * h)
                scale = max(abs(grad[i]), abs(fd), 1e-2)
                worst = max(worst, abs(grad[i] - fd) / scale)
        # closed-form penalty gradients against their own finite differences
        i = int(rng.integers(0, topo.n_params))
        sig_i = float(vp.sigma[i])
        d_m, d_s2 = sb.grad_penalty(vp.m[i], sig_i, vp.p[i], prior)
        h = 1e-6
        fd_m = (
            sb.penalty_R(vp.m[i] + h, sig_i, vp.p[i], prior)
            - sb.penalty_R(vp.m[i] - h, sig_i, vp.p[i], prior)
        ) / (2 * h)
        s2 = sig_i**2
        fd_s2 = (
            sb.penalty_R(vp.m[i], math.sqrt(s2 + h), vp.p[i], prior)
            - sb.penalty_R(vp.m[i], math.sqrt(s2 - h), vp.p[i], prior)
        ) / (2 * h)
        worst = max(worst, abs(d_m - fd_m) / max(abs(fd_m), 1e-2))
        worst = max(worst, abs(d_s2 - fd_s2) / max(abs(fd_s2), 1e-2))
    ok = worst <= 1e-5
    _report(3, "gradient suite vs finite differences", ok,
            f"worst relative error={worst:.2e} over 50 networks")


def test_criterion_04_inclusion_probability_monotonics():
    """Monotone response of p to the second moment and the scale ratio."""
    # (a) p increasing in m^2 + sigma^2
    prior = SpikeSlabPrior(0.4, 1.5, 0.3)
    s = np.linspace(0.01, 3.0, 200)
    p = sb.optimal_p(np.sqrt(s), 1e-9, prior)
    inc = bool(np.all(np.diff(p) > 0))
    # (b) p -> pi as tau1/tau0 -> 1
    gap_ok = True
    for pi in (0.2, 0.5, 0.8):
        near = SpikeSlabPrior(pi, 1.0, 1.0 - 1e-8)
        p = sb.optimal_p(0.6, 0.4, near)
        # 2 * (logit p - logit pi), the gap of p's logit from the prior's
        gap = 2.0 * (math.log(p / (1.0 - p)) - math.log(pi / (1.0 - pi)))
        gap_ok &= abs(gap) < 1e-6
        gap_ok &= abs(p - pi) < 1e-6
    # (c) p decreasing in tau1 with all else fixed; the decay is only
    # logarithmic in tau1, so the limit check needs a very wide grid
    taus = np.exp(np.linspace(math.log(2.0), math.log(1e13), 40))
    ps = np.array([
        sb.optimal_p(1.0, 0.5, SpikeSlabPrior(0.5, t, 0.2)) for t in taus
    ])
    dec = bool(np.all(np.diff(ps) < 0)) and ps[-1] < 1e-6
    ok = inc and gap_ok and dec
    _report(4, "inclusion-probability monotonics", ok,
            f"increasing={inc}, prior-limit={gap_ok}, slab-limit={dec}")


def test_criterion_05_two_feature_relevance_tracking():
    """Feature scores track the ground-truth relevance across the mix grid."""
    alphas = np.round(np.arange(0.0, 1.0001, 0.05), 2)
    topo = NetworkTopology((2, 20, 10, 1))
    prior = SpikeSlabPrior(0.5, 1.0, 0.1)
    I_vals, psi1, psi2 = [], [], []
    for a in alphas:
        ds = sb.gen_two_feature(float(a), 2000, seed=100)
        ds_std, _, _ = sb.standardize_fit_apply(ds)
        psis = []
        for s in range(4):
            report = sb.train(
                topo, prior, ds_std,
                TrainConfig(epochs=400, batch_size=500,
                            learning_rate=0.005, seed=s),
            )
            psis.append(sb.feature_importance_psi(topo, report.params))
        psi = np.mean(psis, axis=0)
        I_vals.append(sb.relevance_I(ds.y, float(a) * ds.X[:, 1]))
        psi1.append(psi[0])
        psi2.append(psi[1])
    c2 = float(np.corrcoef(I_vals, psi2)[0, 1])
    c1 = float(np.corrcoef(I_vals, psi1)[0, 1])
    ok = c2 >= 0.9 and c1 <= -0.9
    _report(5, "two-feature relevance tracking", ok,
            f"corr(I, psi2)={c2:.3f} (need >= 0.9), "
            f"corr(I, psi1)={c1:.3f} (need <= -0.9)")


def test_criterion_06_many_feature_importance_correlation():
    """phi correlates with the true effect sizes across signal levels."""
    topo = NetworkTopology((20, 40, 20, 1))
    prior = SpikeSlabPrior(0.5, 1.0, 0.05)
    passing = 0
    cors = []
    for a in range(1, 11):
        spec = sb.SyntheticSpec(n=2000, n_features=20, alpha=float(a),
                                pi_active=1.0, link="linear", seed=200 + a)
        ds = sb.gen_sparse_regression(spec)
        ds_std, _, _ = sb.standardize_fit_apply(ds)
        psis = []
        for s in (1, 2, 3):
            report = sb.train(
                topo, prior, ds_std,
                TrainConfig(epochs=300, batch_size=256,
                            learning_rate=0.01, seed=s),
            )
            psis.append(sb.feature_importance_psi(topo, report.params))
        phi = sb.feature_importance_phi(np.mean(psis, axis=0))
        c = float(np.corrcoef(phi, ds.beta)[0, 1])
        cors.append(round(c, 3))
        passing += c >= 0.85
    ok = passing >= 8
    _report(6, "effect-size correlation across signal levels", ok,
            f"{passing}/10 settings with corr >= 0.85: {cors}")


def test_criterion_07_selection_accuracy_and_refit_gain():
    """Fixed-quantile selection recovers the active set and refits better."""
    spec = sb.SyntheticSpec(n=2000, n_features=100, alpha=2.0,
                            pi_active=0.2, link="nonlinear", seed=300)
    full = sb.gen_sparse_regression(spec)
    train_ds, test_ds = sb.split(full, 0.8, seed=0)
    train_std, test_std, _ = sb.standardize_fit_apply(train_ds, test_ds)
    topo = NetworkTopology((100, 20, 10, 1))
    prior = SpikeSlabPrior(0.5, 1.0, 0.1)
    config = TrainConfig(epochs=300, batch_size=256, learning_rate=0.01,
                         seed=1)
    base = sb.train(topo, prior, train_std, config)
    outcome = sb.variable_selection(topo, base.params, train_std, 0.8,
                                    config, prior)
    pred_full = sb.predict(topo, base.params, test_std.X)[:, 0]
    mse_full = float(np.mean((pred_full - test_std.y) ** 2))
    masked_test = test_std.with_feature_mask(outcome.selected)
    pred_sel = sb.predict(topo, outcome.refit.params, masked_test.X)[:, 0]
    mse_sel = float(np.mean((pred_sel - test_std.y) ** 2))
    ok = outcome.accuracy >= 0.80 and mse_sel < mse_full
    _report(7, "selection accuracy and refit gain", ok,
            f"accuracy={outcome.accuracy:.3f} (need >= 0.80), "
            f"refit mse={mse_sel:.4f} vs unrestricted {mse_full:.4f}")


def test_criterion_08_cv_threshold_recovery():
    """Cross-validated keep proportions land near the true active fractions.

    Recovery is judged against the realized active fraction of each draw,
    which is stricter than the nominal generator probability.
    """
    topo = NetworkTopology((50, 20, 10, 1))
    prior = SpikeSlabPrior(0.5, 1.0, 0.1)
    grid = np.round(np.arange(0.1, 1.0001, 0.1), 2)
    config = TrainConfig(epochs=300, batch_size=256, learning_rate=0.01,
                         seed=1)
    details = []
    ok = True
    for pi_active in (0.1, 0.3, 0.5):
        spec = sb.SyntheticSpec(n=2000, n_features=50, alpha=2.0,
                                pi_active=pi_active, link="nonlinear",
                                seed=400)
        full = sb.gen_sparse_regression(spec)
        ds_std, _, _ = sb.standardize_fit_apply(full)
        prop = sb.cv_threshold(topo, prior, ds_std, config, folds=10,
                               candidate_proportions=grid, seed=2)
        base = sb.train(topo, prior, ds_std, config)
        outcome = sb.variable_selection(topo, base.params, ds_std,
                                        1.0 - prop, config, prior)
        true_prop = float(full.z.mean())
        within = abs(prop - true_prop) <= 0.15
        accurate = outcome.accuracy >= 0.80
        ok = ok and within and accurate
        details.append(
            f"pi={pi_active}: true={true_prop:.2f} est={prop:.2f} "
            f"acc={outcome.accuracy:.2f}"
        )
    _report(8, "cross-validated threshold recovery", ok, "; ".join(details))


def test_criterion_09_pruning_curves_by_sparsity_level():
    """Half the weights can go when few features are active, not when most are."""
    topo = NetworkTopology((20, 20, 10, 1))
    prior = SpikeSlabPrior(0.5, 1.0, 0.1)
    rel50 = {0.2: [], 0.9: []}
    for pi_active in (0.2, 0.9):
        for r in range(10):
            spec = sb.SyntheticSpec(n=2000, n_features=20, alpha=2.0,
                                    pi_active=pi_active, link="linear",
                                    seed=500 + r)
            full = sb.gen_sparse_regression(spec)
            train_ds, test_ds = sb.split(full, 0.8, seed=r)
            train_std, test_std, _ = sb.standardize_fit_apply(
                train_ds, test_ds
            )
            report = sb.train(
                topo, prior, train_std,
                TrainConfig(epochs=300, batch_size=256,
                            learning_rate=0.01, seed=1 + r),
            )
            mses = []
            for rate in (0.0, 0.5):
                _, pruned = sb.prune(report.params, "inclusion_p", rate)
                pred = sb.predict(topo, pruned, test_std.X)[:, 0]
                mses.append(float(np.mean((pred - test_std.y) ** 2)))
            rel50[pi_active].append(mses[1] / mses[0])
    sparse_rel = float(np.mean(rel50[0.2]))
    dense_rel = float(np.mean(rel50[0.9]))
    ok = abs(sparse_rel - 1.0) <= 0.10 and dense_rel > sparse_rel
    _report(9, "pruning tolerance tracks active fraction", ok,
            f"mean rel mse@50%: pi=0.2 -> {sparse_rel:.3f} (within 10%), "
            f"pi=0.9 -> {dense_rel:.3f} (must exceed)")


UCI_BOUNDS = {
    # dataset: (rmse bound at droprate 0, expected shape)
    "boston": (3.7, (506, 13)),
    "wine": (0.70, (1599, 11)),
    "yacht": (1.5, (308, 6)),
    "energy": (1.2, (768, 8)),
}


def _uci_dir():
    env = os.environ.get("SPARSEBNN_UCI_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data" / "uci"


def test_criterion_10_uci_spot_checks():
    """Reference-dataset RMSE bounds and droprate-50 stability.

    Requires the four UCI regression CSVs (numeric, header row, target in
    the last column) under data/uci/ or $SPARSEBNN_UCI_DIR:
    boston.csv (506x13+1), wine.csv (1599x11+1), yacht.csv (308x6+1),
    energy.csv (768x8+1).  The files are not redistributable with this
    repository and no network access is assumed, so the criterion skips
    when they are absent instead of asserting on fabricated data.
    """
    root = _uci_dir()
    present = {
        name: root / f"{name}.csv"
        for name in UCI_BOUNDS
        if (root / f"{name}.csv").exists()
    }
    if not present:
        pytest.skip(
            f"UCI CSVs not found under {root}; supply boston/wine/yacht/"
            "energy CSVs (or set SPARSEBNN_UCI_DIR) to run criterion 10"
        )
    prior = SpikeSlabPrior(0.5, math.exp(1.0), math.exp(-6.0))
    details = []
    ok = True
    for name, path in sorted(present.items()):
        bound, shape = UCI_BOUNDS[name]
        ds = sb.load_csv(path, -1, expected_shape=shape)
        topo = NetworkTopology((ds.n_features, 50, 1))
        rmse0, rmse50 = [], []
        for seed in range(5):
            train_ds, test_ds = sb.split(ds, 0.9, seed=seed)
            train_std, test_std, scaler = sb.standardize_fit_apply(
                train_ds, test_ds
            )
            report = sb.train(
                topo, prior, train_std,
                TrainConfig(epochs=300, batch_size=128,
                            learning_rate=0.01, seed=seed),
            )
            for rate, store in ((0.0, rmse0), (0.5, rmse50)):
                _, pruned = sb.prune(report.params, "inclusion_p", rate)
                pred = scaler.inverse_y(
                    sb.predict(topo, pruned, test_std.X)[:, 0]
                )
                truth = scaler.inverse_y(test_std.y)
                store.append(float(np.sqrt(np.mean((pred - truth) ** 2))))
        mean0 = float(np.mean(rmse0))
        mean50 = float(np.mean(rmse50))
        good = mean0 <= bound and abs(mean50 - mean0) <= 0.05 * mean0
        ok = ok and good
        details.append(
            f"{name}: rmse0={mean0:.3f} (bound {bound}), rmse50={mean50:.3f}"
        )
    if len(present) < len(UCI_BOUNDS):
        missing = sorted(set(UCI_BOUNDS) - set(present))
        details.append(f"missing files skipped: {missing}")
    _report(10, "reference-dataset spot checks", ok, "; ".join(details))


def test_criterion_11_estimator_identities_and_bias():
    """Sampled-gradient identities hold and the mean estimator is unbiased."""
    prior = SpikeSlabPrior(0.5, 1.0, 0.2)
    rep = sb.bbb_grad_sigma2(0.7, 0.5, prior, draws=100_000, seed=11)
    x = rep.extras
    lead_ok = abs(x["identity_lead_mean"] - 1.0) <= 4.0 * x["identity_lead_se"]
    tail_ok = abs(x["identity_tail_mean"]) <= 4.0 * x["identity_tail_se"]
    rng = np.random.default_rng(1011)
    bias_ok = True
    worst_z = 0.0
    for k in range(20):
        m, sigma, setting_prior = _interior_setting(rng, max_gap=10.0)
        r = sb.bbb_grad_m(m, sigma, setting_prior, draws=100_000,
                          seed=3000 + k)
        z = abs(r.mean - r.reference) / r.std_error
        worst_z = max(worst_z, z)
        bias_ok = bias_ok and z <= 4.0
    ok = lead_ok and tail_ok and bias_ok
    _report(11, "sampled-gradient identities and unbiasedness", ok,
            f"lead={x['identity_lead_mean']:.4f}, "
            f"tail={x['identity_tail_mean']:.4f}, worst |z|={worst_z:.2f}")


def test_criterion_12_ranking_equivalence():
    """Inclusion-probability and second-moment pruning masks coincide."""
    rng = np.random.default_rng(1012)
    ok = True
    for k in range(100):
        prior = SpikeSlabPrior(
            float(rng.uniform(0.2, 0.8)),
            float(rng.uniform(1.2, 2.5)),
            float(rng.uniform(0.3, 0.6)),
        )
        M = int(rng.integers(20, 200))
        m = rng.normal(0, 0.8, M)
        rho = rng.uniform(-3.0, 0.5, M)
        vp = VariationalParams(m, rho, np.zeros(M))
        vp.p = sb.optimal_p(vp.m, vp.sigma, prior)
        rate = float(rng.uniform(0.05, 0.95))
        mask_p, _ = sb.prune(vp, "inclusion_p", rate)
        mask_s, _ = sb.prune(vp, "second_moment", rate)
        ok = ok and bool(np.array_equal(mask_p.keep, mask_s.keep))
    _report(12, "ranking-rule equivalence", ok,
            "100 random states, droprates in [0.05, 0.95]")

"""Monte Carlo gradient estimators for the prior term, with references.

For a single weight with variational factor N(m, sigma^2) under the
two-component mixture prior, the penalty gradients have closed forms
(see :mod:`sparsebnn.svi`).  The sampling-based alternative differentiates
f(W) = -log prior(W) + log q(W) at a pathwise draw W = m + sigma * eps:

    grad_m estimate:      (W/tau1^2) r1(W) + (W/tau0^2) r0(W)
    grad_sigma^2 estimate: 0.5 ((m/sigma) eps + eps^2)
                              * (r1(W)/tau1^2 + r0(W)/tau0^2 - 1/sigma^2)
                           + ((eps^2 - 1) + (m/sigma) eps) / (2 sigma^2)

where r1, r0 are the mixture responsibilities, computed in log space so
extreme scale ratios cannot underflow.  Reference values come from
adaptive 1-D quadrature of the exact expectations, which keeps the bias
checks free of Monte-Carlo-versus-Monte-Carlo ambiguity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .svi import SpikeSlabPrior, grad_penalty, optimal_p

_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


@dataclass
class EstimatorReport:
    """Summary of one Monte Carlo estimator against its reference value."""

    mean: float
    std_error: float
    draws: int
    reference: float
    extras: dict = field(default_factory=dict)


def log_responsibilities(w, prior: SpikeSlabPrior):
    """(r1, r0): posterior weight of slab/spike at w, via log-sum-exp."""
    w = np.asarray(w, dtype=float)
    log1 = (
        np.log(prior.pi)
        - 0.5 * np.log(2.0 * np.pi * prior.tau1**2)
        - 0.5 * w * w / prior.tau1**2
    )
    log0 = (
        np.log(1.0 - prior.pi)
        - 0.5 * np.log(2.0 * np.pi * prior.tau0**2)
        - 0.5 * w * w / prior.tau0**2
    )
    top = np.maximum(log1, log0)
    denom = top + np.log(np.exp(log1 - top) + np.exp(log0 - top))
    return np.exp(log1 - denom), np.exp(log0 - denom)


def _grad_m_at(w, prior):
    r1, r0 = log_responsibilities(w, prior)
    return w / prior.tau1**2 * r1 + w / prior.tau0**2 * r0


def _grad_sigma2_at(eps, m, sigma, prior):
    w = m + sigma * eps
    r1, r0 = log_responsibilities(w, prior)
    mid = r1 / prior.tau1**2 + r0 / prior.tau0**2 - 1.0 / sigma**2
    lead = 0.5 * (m / sigma * eps + eps * eps)
    tail = (eps * eps - 1.0 + m / sigma * eps) / (2.0 * sigma**2)
    return lead * mid + tail


def _gauss_pdf(w, m, sigma):
    return np.exp(-0.5 * ((w - m) / sigma) ** 2) / (
        sigma * np.sqrt(2.0 * np.pi)
    )


def _quad_reference(fn, m, sigma):
    # deferred: scipy.integrate costs every importer about 0.2 s
    from scipy.integrate import quad

    lo = m - 12.0 * sigma
    hi = m + 12.0 * sigma
    val, _ = quad(fn, lo, hi, limit=200)
    return val


def reference_grad_m(m, sigma, prior: SpikeSlabPrior) -> float:
    """Exact E[grad_m estimator] by adaptive quadrature over the draw."""
    return _quad_reference(
        lambda w: _gauss_pdf(w, m, sigma) * _grad_m_at(w, prior), m, sigma
    )


def reference_grad_sigma2(m, sigma, prior: SpikeSlabPrior) -> float:
    """Exact E[grad_sigma^2 estimator] by adaptive quadrature over the draw."""
    return _quad_reference(
        lambda w: _gauss_pdf(w, m, sigma)
        * _grad_sigma2_at((w - m) / sigma, m, sigma, prior),
        m, sigma,
    )


def _report(values, reference, extras):
    values = np.asarray(values, dtype=float)
    return EstimatorReport(
        mean=float(values.mean()),
        std_error=float(values.std(ddof=1) / np.sqrt(values.size)),
        draws=values.size, reference=float(reference), extras=extras,
    )


def bbb_grad_m(m, sigma, prior: SpikeSlabPrior, draws: int,
               seed: int = 0) -> EstimatorReport:
    """Monte Carlo statistics of the sampled mean-gradient estimator.

    Also records the average slab responsibility across draws next to the
    closed-form inclusion probability; the two coincide only at
    self-consistent optima, so they are reported, not asserted equal.
    """
    if draws < 2:  # the standard error (ddof=1) needs two draws
        raise ValueError(f"draws must be >= 2, got {draws}")
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(draws)
    w = m + sigma * eps
    values = _grad_m_at(w, prior)
    r1, _ = log_responsibilities(w, prior)
    extras = {
        "mean_slab_responsibility": float(r1.mean()),
        "closed_form_p": float(optimal_p(m, sigma, prior)),
    }
    return _report(values, reference_grad_m(m, sigma, prior), extras)


def bbb_grad_sigma2(m, sigma, prior: SpikeSlabPrior, draws: int,
                    seed: int = 0) -> EstimatorReport:
    """Monte Carlo statistics of the sampled variance-gradient estimator.

    The extras record the empirical means of (m/sigma) eps + eps^2 and of
    (eps^2 - 1) + (m/sigma) eps, whose exact expectations are 1 and 0.
    """
    if draws < 2:
        raise ValueError(f"draws must be >= 2, got {draws}")
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(draws)
    values = _grad_sigma2_at(eps, m, sigma, prior)
    lead = m / sigma * eps + eps * eps
    tail = (eps * eps - 1.0) + m / sigma * eps
    extras = {
        "identity_lead_mean": float(lead.mean()),
        "identity_lead_se": float(lead.std(ddof=1) / np.sqrt(draws)),
        "identity_tail_mean": float(tail.mean()),
        "identity_tail_se": float(tail.std(ddof=1) / np.sqrt(draws)),
    }
    return _report(values, reference_grad_sigma2(m, sigma, prior), extras)


def _comparison_row(m, sigma, prior, draws, seed):
    p_star = optimal_p(m, sigma, prior)
    closed_m, closed_s2 = grad_penalty(m, sigma, p_star, prior)
    rep_m = bbb_grad_m(m, sigma, prior, draws, seed)
    rep_s2 = bbb_grad_sigma2(m, sigma, prior, draws, seed + 1)
    row = {
        "m": m,
        "sigma": sigma,
        "pi": prior.pi,
        "tau1": prior.tau1,
        "tau0": prior.tau0,
        "draws": draws,
        "mean_slab_responsibility": rep_m.extras["mean_slab_responsibility"],
        "closed_form_p": rep_m.extras["closed_form_p"],
    }
    for which, closed, rep in (("m", closed_m, rep_m),
                               ("sigma2", closed_s2, rep_s2)):
        row.update({
            f"closed_form_{which}": float(closed),
            f"closed_form_variance_{which}": 0.0,
            f"mc_mean_{which}": rep.mean,
            f"mc_std_error_{which}": rep.std_error,
            f"mc_variance_{which}": rep.std_error**2 * rep.draws,
            f"quadrature_reference_{which}": rep.reference,
        })
    return row


def variance_comparison(settings, draws: int = 100_000, seed: int = 0):
    """Closed-form vs sampled gradients as rows (dicts); writes no file.

    ``settings`` is an iterable of (m, sigma, pi, tau1, tau0) tuples.  One
    row per setting, carrying both gradients; the closed-form estimator is
    deterministic, so its variance columns are identically zero.  p is set
    to its closed-form optimum.  A setting whose m is not finite, whose
    sigma is not > 0 with sigma^2 a finite, normal float (the estimators
    divide by it), or whose quadrature window m +/- 12 sigma spans fewer
    than 2**30 float steps of m (so the reference would collapse) raises
    ValueError naming the setting's index.  So does a setting whose
    estimators overflow or compute an invalid value (the variance of a
    tiny sigma's 1 / sigma^2 terms can overflow, for one), or whose row
    holds a value that is not finite, and so does a ``draws`` too large
    to allocate, naming ``draws``.
    """
    rows = []
    for k, (m, sigma, pi, tau1, tau0) in enumerate(settings):
        if not np.isfinite(m):
            raise ValueError(f"gradcheck setting {k}: m = {m!r} is not finite")
        if not (sigma > 0 and _TINY <= sigma * sigma <= _HUGE):
            raise ValueError(f"gradcheck setting {k}: sigma = {sigma!r} must "
                             "be > 0, and sigma^2 must neither underflow nor "
                             "overflow")
        if 24.0 * sigma < 2.0**30 * np.spacing(abs(m)):
            raise ValueError(f"gradcheck setting {k}: sigma = {sigma!r} is "
                             f"too small for m = {m!r}: the quadrature "
                             "window m +/- 12 sigma must span 2**30 float "
                             "steps of m")
        prior = SpikeSlabPrior(pi, tau1, tau0)
        where = f"gradcheck setting {k}: at m = {m!r}, sigma = {sigma!r},"
        try:
            with np.errstate(over="raise", invalid="raise"):
                row = _comparison_row(m, sigma, prior, draws, seed + 2 * k)
        except FloatingPointError as exc:
            raise ValueError(f"{where} the estimators fail: {exc}") from None
        except MemoryError as exc:
            raise ValueError(f"draws = {draws}: {exc}") from None
        bad = [key for key, value in row.items() if not np.isfinite(value)]
        if bad:
            raise ValueError(f"{where} {bad[0]} is not finite")
        rows.append(row)
    return rows

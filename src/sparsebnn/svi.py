"""Spike-and-slab variational core.

Each network parameter i carries a Gaussian variational factor
N(m_i, sigma_i^2) with sigma = softplus(rho), plus a Bernoulli inclusion
probability p_i for the latent spike/slab indicator.  The prior-matching
penalty per parameter is

    R(m, sigma, p) = p  * [ (m^2 + sigma^2) / (2 tau1^2) + log(tau1 p / (sigma pi)) ]
              + (1-p) * [ (m^2 + sigma^2) / (2 tau0^2) + log(tau0 (1-p) / (sigma (1-pi))) ]

with the 0*log 0 = 0 convention at the endpoints.  Given (m, sigma) the
optimal p has the closed form  p* = logistic(B - A)  where

    A = (m^2 + sigma^2) / (2 tau1^2) + log(tau1 / pi),
    B = (m^2 + sigma^2) / (2 tau0^2) + log(tau0 / (1 - pi)).

The training objective for a batch is  mean-over-draws NLL  plus
kl_weight * sum_i R_i, and its gradients flow through the pathwise
parameterization  W = m + softplus(rho) * eps.

expit, x*log x and softplus are built from numpy's vectorized exp, log
and log1p, so training loads no scipy; of the package, only the gradient
check does (``scipy.integrate``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .network import (
    ShapeMismatch, _check_inputs, _check_params, _forward, _nll_and_grad,
    backward, forward, nll,
)

# SeedSequence splits an int past this into several 32-bit words
_WORD_LIMIT = 2**32


@dataclass(frozen=True)
class SpikeSlabPrior:
    """Mixture-of-Gaussians prior: slab N(0, tau1^2), spike N(0, tau0^2)."""

    pi: float
    tau1: float
    tau0: float

    def __post_init__(self):
        if not 0.0 < self.pi < 1.0:
            raise ValueError(f"pi must lie in (0, 1), got {self.pi}")
        if not 0.0 < self.tau0 < self.tau1:
            raise ValueError(
                "prior scales must satisfy 0 < tau0 < tau1, got "
                f"tau0={self.tau0}, tau1={self.tau1}"
            )


class VariationalParams:
    """Per-parameter (m, rho, p) triples, plus an optional keep mask.

    ``active`` marks parameters that are still free; pruned parameters are
    structurally zero (mean, sample and gradient all zero).  ``active`` is
    None for an unpruned model.
    """

    __slots__ = ("m", "rho", "p", "active")

    def __init__(self, m, rho, p, active: Optional[np.ndarray] = None):
        self.m = np.asarray(m, dtype=float)
        self.rho = np.asarray(rho, dtype=float)
        self.p = np.asarray(p, dtype=float)
        if not (self.m.shape == self.rho.shape == self.p.shape) or self.m.ndim != 1:
            raise ValueError(
                "m, rho, p must be 1-D vectors of equal length, got shapes "
                f"{self.m.shape}, {self.rho.shape}, {self.p.shape}"
            )
        if active is not None:
            active = np.asarray(active, dtype=bool)
            if active.shape != self.m.shape:
                raise ValueError(
                    f"active mask shape {active.shape} != {self.m.shape}"
                )
        self.active = active

    def __len__(self) -> int:
        return self.m.shape[0]

    @property
    def sigma(self) -> np.ndarray:
        return sigma_of_rho(self.rho)

    def active_mask(self) -> np.ndarray:
        if self.active is None:
            return np.ones(len(self), dtype=bool)
        return self.active

    def copy(self) -> "VariationalParams":
        return VariationalParams(
            self.m.copy(), self.rho.copy(), self.p.copy(),
            None if self.active is None else self.active.copy(),
        )


@dataclass(frozen=True)
class NoiseDraw:
    """A standard-normal vector reproducible from (seed, index)."""

    eps: np.ndarray
    seed: int
    index: int

    @classmethod
    def draw(cls, size: int, seed: int, index: int = 0) -> "NoiseDraw":
        key = [int(seed), int(index)]
        if 0 <= key[0] < _WORD_LIMIT and 0 <= key[1] < _WORD_LIMIT:
            # the same SeedSequence words as the list, coerced faster
            key = np.array(key, dtype=np.uint32)
        rng = np.random.default_rng(key)
        return cls(eps=rng.standard_normal(size), seed=seed, index=index)

    @classmethod
    def zeros(cls, size: int) -> "NoiseDraw":
        return cls(eps=np.zeros(size), seed=-1, index=-1)


def _expit(x):
    """Logistic 1 / (1 + e^-x); saturates to 0 or 1 without a warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(np.negative(x)))


def _xlogx(x):
    """x * log(x), with 0 * log 0 = 0."""
    return x * np.log(np.where(x == 0.0, 1.0, x))


def sigma_of_rho(rho):
    """softplus(rho) = log(1 + e^rho), safe against over/underflow."""
    return np.maximum(rho, 0.0) + np.log1p(np.exp(-np.abs(rho)))


def dsigma_drho(rho):
    """d softplus / d rho = 1 / (1 + e^-rho)."""
    return _expit(rho)


def sample_weights(vp: VariationalParams, eps) -> np.ndarray:
    """Pathwise sample W = m + softplus(rho) * eps; pruned entries stay 0."""
    e = eps.eps if isinstance(eps, NoiseDraw) else np.asarray(eps, dtype=float)
    if e.shape != vp.m.shape:
        raise ShapeMismatch("noise draw", vp.m.shape, e.shape)
    w = vp.m + vp.sigma * e
    if vp.active is not None:
        w = np.where(vp.active, w, 0.0)
    return w


def penalty_R(m, sigma, p, prior: SpikeSlabPrior):
    """Per-parameter prior-matching penalty (vectorized over the inputs)."""
    m = np.asarray(m, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    p = np.asarray(p, dtype=float)
    s = m * m + sigma * sigma
    slab = s / (2.0 * prior.tau1**2) + np.log(prior.tau1 / prior.pi)
    spike = s / (2.0 * prior.tau0**2) + np.log(prior.tau0 / (1.0 - prior.pi))
    q = 1.0 - p
    entropy = _xlogx(p) + _xlogx(q)
    out = p * slab + q * spike - np.log(sigma) + entropy
    return out if out.ndim else float(out)


def optimal_p(m, sigma, prior: SpikeSlabPrior):
    """Closed-form minimizer of the penalty over p: logistic(B - A).

    Computed as a logistic of B - A so extreme gaps saturate cleanly to
    0 or 1 instead of producing NaN.
    """
    m = np.asarray(m, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    s = m * m + sigma * sigma
    gap = (
        0.5 * s * (1.0 / prior.tau0**2 - 1.0 / prior.tau1**2)
        + np.log(prior.tau0 / prior.tau1)
        + np.log(prior.pi / (1.0 - prior.pi))
    )
    out = _expit(gap)
    return out if out.ndim else float(out)


def logit_gap(m, sigma, prior: SpikeSlabPrior):
    """2*(logit p* - logit pi) as an explicit function of (m, sigma, prior)."""
    m = np.asarray(m, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    s = m * m + sigma * sigma
    out = s * (1.0 / prior.tau0**2 - 1.0 / prior.tau1**2) - np.log(
        prior.tau1**2 / prior.tau0**2
    )
    return out if out.ndim else float(out)


def grad_penalty(m, sigma, p, prior: SpikeSlabPrior):
    """Closed-form (dR/dm, dR/d sigma^2) holding p fixed."""
    m = np.asarray(m, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    p = np.asarray(p, dtype=float)
    mix = p / prior.tau1**2 + (1.0 - p) / prior.tau0**2
    d_m = m * mix
    d_s2 = 0.5 * (mix - 1.0 / (sigma * sigma))
    if d_m.ndim:
        return d_m, d_s2
    return float(d_m), float(d_s2)


def penalty_total(vp: VariationalParams, prior: SpikeSlabPrior, *,
                  sigma=None) -> float:
    """Sum of R over active parameters; ``sigma`` is softplus(vp.rho), if
    the caller already has it."""
    if sigma is None:
        sigma = vp.sigma
    if vp.active is None:
        return float(penalty_R(vp.m, sigma, vp.p, prior).sum())
    act = vp.active
    if not act.any():
        return 0.0
    return float(penalty_R(vp.m[act], sigma[act], vp.p[act], prior).sum())


def _resolve_draws(n_params, mc_samples, noise, seed):
    if noise is not None:
        draws = [noise] if isinstance(noise, NoiseDraw) else list(noise)
        if len(draws) != mc_samples:
            raise ValueError(
                f"expected {mc_samples} noise draws, got {len(draws)}"
            )
        return draws
    return [NoiseDraw.draw(n_params, seed, l) for l in range(mc_samples)]


def objective_estimate(
    topology,
    vp: VariationalParams,
    prior: SpikeSlabPrior,
    x,
    y,
    mc_samples: int = 1,
    kl_weight: float = 1.0,
    noise: Optional[Sequence[NoiseDraw]] = None,
    seed: int = 0,
    noise_variance: float = 1.0,
) -> float:
    """Monte Carlo estimate of the batch objective.

    Averages the NLL over ``mc_samples`` pathwise draws and adds
    ``kl_weight * sum_i R_i``; ``kl_weight`` carries the minibatch share
    of the penalty and must lie in (0, 1].
    """
    if mc_samples < 1:
        raise ValueError(f"mc_samples must be >= 1, got {mc_samples}")
    if not 0.0 < kl_weight <= 1.0:
        raise ValueError(f"kl_weight must lie in (0, 1], got {kl_weight}")
    x = np.asarray(x, dtype=float)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    draws = _resolve_draws(len(vp), mc_samples, noise, seed)
    nll_sum = 0.0
    for draw in draws:
        w = sample_weights(vp, draw)
        outputs, _ = forward(topology, w, x)
        nll_sum += nll(topology.output_head, outputs, y, noise_variance)
    return nll_sum / len(draws) + kl_weight * penalty_total(vp, prior)


def _penalty_terms(vp: VariationalParams, prior, sigma, kl_weight):
    """(dsigma/drho, kl_weight * dR/dm, kl_weight * dR/drho): the part of a
    step's gradient no draw changes; ``sigma`` is softplus(vp.rho)."""
    d_m, d_s2 = grad_penalty(vp.m, sigma, vp.p, prior)
    sp = dsigma_drho(vp.rho)
    return sp, kl_weight * d_m, kl_weight * d_s2 * 2.0 * sigma * sp


def _draw_step(topology, vp: VariationalParams, sigma, terms, x, y, e,
               noise_variance):
    """One pathwise draw: (grad_m, grad_rho, NLL) of the batch objective.

    ``sigma`` and ``terms`` (from :func:`_penalty_terms`) are shared by
    every draw of a step; ``e`` is the draw's standard-normal vector.  The
    caller has checked the shapes, so the forward loop runs without
    :func:`forward`'s checks or copy; its trace holds ``w`` and lives only
    inside this call.
    """
    w = vp.m + sigma * e
    if vp.active is not None:
        w = np.where(vp.active, w, 0.0)
    outputs, trace = _forward(topology, w, x)
    data_nll, g_out = _nll_and_grad(topology.output_head, outputs, y,
                                    noise_variance)
    g_w = backward(trace, w, g_out)
    sp, pen_m, pen_rho = terms
    grad_m = g_w + pen_m
    grad_rho = g_w * e * sp + pen_rho
    if vp.active is not None:
        grad_m = np.where(vp.active, grad_m, 0.0)
        grad_rho = np.where(vp.active, grad_rho, 0.0)
    return grad_m, grad_rho, data_nll


def step_gradients(
    topology,
    vp: VariationalParams,
    prior: SpikeSlabPrior,
    x,
    y,
    eps: NoiseDraw,
    kl_weight: float = 1.0,
    noise_variance: float = 1.0,
):
    """One-draw pathwise gradients (grad_m, grad_rho) of the batch objective.

    Chain rule through W = m + softplus(rho) * eps: the likelihood gradient
    from ``backward`` enters grad_m directly and grad_rho via
    eps / (1 + e^-rho); the penalty contributes its closed-form gradients,
    with dR/d rho = dR/d sigma^2 * 2 sigma * dsigma/drho.
    """
    if not 0.0 < kl_weight <= 1.0:
        raise ValueError(f"kl_weight must lie in (0, 1], got {kl_weight}")
    _check_params(topology, vp.m)
    x = _check_inputs(topology, x)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    e = eps.eps if isinstance(eps, NoiseDraw) else np.asarray(eps, dtype=float)
    if e.shape != vp.m.shape:
        raise ShapeMismatch("noise draw", vp.m.shape, e.shape)
    sigma = vp.sigma
    terms = _penalty_terms(vp, prior, sigma, kl_weight)
    grad_m, grad_rho, _ = _draw_step(topology, vp, sigma, terms, x, y, e,
                                     noise_variance)
    return grad_m, grad_rho

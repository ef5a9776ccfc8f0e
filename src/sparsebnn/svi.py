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

scipy.special is imported inside the three functions that call it, so
importing the package, pruning and scoring features load no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .network import ShapeMismatch, backward, forward, nll, nll_grad


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
        rng = np.random.default_rng([int(seed), int(index)])
        return cls(eps=rng.standard_normal(size), seed=seed, index=index)

    @classmethod
    def zeros(cls, size: int) -> "NoiseDraw":
        return cls(eps=np.zeros(size), seed=-1, index=-1)


def sigma_of_rho(rho):
    """softplus(rho) = log(1 + e^rho), safe against over/underflow."""
    return np.logaddexp(0.0, rho)


def dsigma_drho(rho):
    """d softplus / d rho = 1 / (1 + e^-rho)."""
    from scipy.special import expit

    return expit(rho)


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
    from scipy.special import xlogy

    m = np.asarray(m, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    p = np.asarray(p, dtype=float)
    s = m * m + sigma * sigma
    slab = s / (2.0 * prior.tau1**2) + np.log(prior.tau1 / prior.pi)
    spike = s / (2.0 * prior.tau0**2) + np.log(prior.tau0 / (1.0 - prior.pi))
    entropy = xlogy(p, p) + xlogy(1.0 - p, 1.0 - p)
    out = p * slab + (1.0 - p) * spike - np.log(sigma) + entropy
    return out if out.ndim else float(out)


def optimal_p(m, sigma, prior: SpikeSlabPrior):
    """Closed-form minimizer of the penalty over p: logistic(B - A).

    Computed as a logistic of B - A so extreme gaps saturate cleanly to
    0 or 1 instead of producing NaN.
    """
    from scipy.special import expit

    m = np.asarray(m, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    s = m * m + sigma * sigma
    gap = (
        0.5 * s * (1.0 / prior.tau0**2 - 1.0 / prior.tau1**2)
        + np.log(prior.tau0 / prior.tau1)
        + np.log(prior.pi / (1.0 - prior.pi))
    )
    out = expit(gap)
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


def penalty_total(vp: VariationalParams, prior: SpikeSlabPrior) -> float:
    """Sum of R over active parameters."""
    act = vp.active_mask()
    if not act.any():
        return 0.0
    return float(
        np.sum(penalty_R(vp.m[act], vp.sigma[act], vp.p[act], prior))
    )


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


def _grads_and_objective(topology, vp, prior, x, y, eps, kl_weight, noise_variance):
    """Single-draw gradients of the batch objective w.r.t. (m, rho)."""
    w = sample_weights(vp, eps)
    outputs, trace = forward(topology, w, x)
    data_nll = nll(topology.output_head, outputs, y, noise_variance)
    g_out = nll_grad(topology.output_head, outputs, y, noise_variance)
    g_w = backward(trace, w, g_out)

    sigma = vp.sigma
    d_m, d_s2 = grad_penalty(vp.m, sigma, vp.p, prior)
    sp = dsigma_drho(vp.rho)
    e = eps.eps if isinstance(eps, NoiseDraw) else np.asarray(eps, dtype=float)

    grad_m = g_w + kl_weight * d_m
    grad_rho = g_w * e * sp + kl_weight * d_s2 * 2.0 * sigma * sp
    if vp.active is not None:
        grad_m = np.where(vp.active, grad_m, 0.0)
        grad_rho = np.where(vp.active, grad_rho, 0.0)
    objective = data_nll + kl_weight * penalty_total(vp, prior)
    return grad_m, grad_rho, objective


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
    x = np.asarray(x, dtype=float)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    grad_m, grad_rho, _ = _grads_and_objective(
        topology, vp, prior, x, y, eps, kl_weight, noise_variance
    )
    return grad_m, grad_rho

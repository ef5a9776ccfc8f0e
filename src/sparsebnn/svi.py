"""Spike-and-slab variational family and its closed forms.

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

Here are the prior, the variational parameters (m, rho, p), reproducible
noise draws, the pathwise sample  W = m + softplus(rho) * eps, R with its
gradient and sum, and p*.  The training step that joins them to the
network, the batch objective  mean-over-draws NLL  plus
kl_weight * sum_i R_i  and its pathwise gradients, is in ``training``.

expit, x*log x and softplus are built from numpy's vectorized exp, log
and log1p, so training loads no scipy; of the package, only the gradient
check does (``scipy.integrate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# forward is not called here, but sparsebnn.svi.forward stays importable
from .network import ShapeMismatch, forward

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
        if not math.isfinite(self.tau1):
            raise ValueError(f"tau1 must be finite, got {self.tau1}")


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
    def draw(cls, size: int, seed: int, index: int = 0, *,
             out=None) -> "NoiseDraw":
        """The draw of (seed, index); ``out``, if given, receives its
        ``size`` values, which are the same bits as a fresh array's."""
        key = [int(seed), int(index)]
        if 0 <= key[0] < _WORD_LIMIT and 0 <= key[1] < _WORD_LIMIT:
            # the same SeedSequence words as the list, coerced faster
            key = np.array(key, dtype=np.uint32)
        rng = np.random.default_rng(key)
        return cls(eps=rng.standard_normal(size, out=out), seed=seed,
                   index=index)


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


def _noise(vp: VariationalParams, eps) -> np.ndarray:
    """The checked standard-normal vector of a NoiseDraw or an array."""
    e = eps.eps if isinstance(eps, NoiseDraw) else np.asarray(eps, dtype=float)
    if e.shape != vp.m.shape:
        raise ShapeMismatch("noise draw", vp.m.shape, e.shape)
    return e


def sample_weights(vp: VariationalParams, eps, *, sigma=None,
                   out=None) -> np.ndarray:
    """Pathwise sample W = m + softplus(rho) * eps; pruned entries stay 0.
    ``sigma`` is softplus(vp.rho), if the caller already has it; ``out``,
    if given, receives W.  The pruned entries are zeroed through their
    indices, not the boolean mask: numpy writes a scattered subset by
    index several times faster than through a mask."""
    w = np.multiply(vp.sigma if sigma is None else sigma, _noise(vp, eps),
                    out=out)
    np.add(vp.m, w, out=w)
    if vp.active is not None:
        w[np.flatnonzero(~vp.active)] = 0.0
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
    act = np.flatnonzero(vp.active)
    return float(penalty_R(vp.m.take(act), sigma.take(act), vp.p.take(act),
                           prior).sum())

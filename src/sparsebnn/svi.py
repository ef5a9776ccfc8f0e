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

# forward is not called here, but sparsebnn.svi.forward stays importable
from .network import (
    ShapeMismatch, _backward_work, _check_inputs, _check_params, _forward,
    _nll_and_grad, backward, forward,
)

# SeedSequence splits an int past this into several 32-bit words
_WORD_LIMIT = 2**32
# below this, sum(m^2 + sigma^2) / (2 tau0^2) leaves every term of sum R finite
_SCREEN_LIMIT = 1e300


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


def sample_weights(vp: VariationalParams, eps, *, sigma=None, out=None,
                   pruned=None) -> np.ndarray:
    """Pathwise sample W = m + softplus(rho) * eps; pruned entries stay 0.
    ``sigma`` is softplus(vp.rho) and ``pruned`` the indices of the pruned
    entries, if the caller already has them; ``out``, if given, receives
    W."""
    w = np.multiply(vp.sigma if sigma is None else sigma, _noise(vp, eps),
                    out=out)
    np.add(vp.m, w, out=w)
    if vp.active is not None:
        w[_pruned(vp) if pruned is None else pruned] = 0.0
    return w


def _pruned(vp: VariationalParams) -> np.ndarray:
    """Indices of the pruned entries.  An index array, not the boolean
    mask: numpy reads and writes a scattered subset by index several times
    faster than through a mask."""
    return np.flatnonzero(~vp.active)


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
    if not act.size:
        return 0.0
    return float(penalty_R(vp.m.take(act), sigma.take(act), vp.p.take(act),
                           prior).sum())


def _penalty_screened(vp: VariationalParams, sigma, prior) -> bool:
    """A cheap screen that sum R is finite: m @ m + sigma @ sigma, the sum
    of every s = m^2 + sigma^2, over 2 tau0^2 stays below ``_SCREEN_LIMIT``.
    Then every s / (2 tau^2) term is finite, and so are -log sigma (at most
    745 for a positive sigma) and the entropy terms.  False means sum R may
    overflow, not that it does."""
    with np.errstate(over="ignore"):   # an overflow only trips the screen
        s = vp.m @ vp.m + sigma @ sigma
        return bool(s / (2.0 * prior.tau0**2) < _SCREEN_LIMIT)


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
    """Monte Carlo estimate of the batch objective, the mean over
    ``mc_samples`` pathwise draws of NLL + ``kl_weight * sum_i R_i``, where
    ``kl_weight`` in (0, 1] is the minibatch share of the penalty.  It is
    :func:`_batch_step`'s value, so at the same parameters, rows and draws
    it is bit for bit the batch objective ``training.train`` logs."""
    if mc_samples < 1:
        raise ValueError(f"mc_samples must be >= 1, got {mc_samples}")
    x = _checked_step(topology, vp, x, kl_weight)
    draws = _resolve_draws(len(vp), mc_samples, noise, seed)
    return _batch_step(topology, vp, prior, vp.sigma, kl_weight, x, y,
                       [_noise(vp, d) for d in draws], noise_variance,
                       np.empty(2 * len(vp)), True,
                       _DrawBuffers(topology, x.shape[0], vp))


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
    """One-draw pathwise gradients (grad_m, grad_rho) of the batch objective,
    computed by :func:`_batch_step` with the one draw ``eps``: the gradient
    of a ``training.train`` step is the mean of these over its draws.
    """
    x = _checked_step(topology, vp, x, kl_weight)
    size = len(vp)
    grad = np.empty(2 * size)
    _batch_step(topology, vp, prior, vp.sigma, kl_weight, x, y,
                [_noise(vp, eps)], noise_variance, grad, False,
                _DrawBuffers(topology, x.shape[0], vp))
    return grad[:size], grad[size:]


def _checked_step(topology, vp: VariationalParams, x, kl_weight):
    """Check ``kl_weight``, the parameters and the non-empty input batch;
    return the checked x."""
    if not 0.0 < kl_weight <= 1.0:
        raise ValueError(f"kl_weight must lie in (0, 1], got {kl_weight}")
    _check_params(topology, vp.m)
    x = _check_inputs(topology, x)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    return x


class _DrawBuffers:
    """Every array a pathwise draw writes, allocated once for batches of up
    to ``rows`` rows, so the draw loop allocates no batch- or
    parameter-sized array: the noise ``eps``, the sampled weights ``w``, a
    parameter-sized ``scratch``, one (rows, width) activation buffer per
    affine layer (``acts``) and ``backward``'s ``work`` (the draw's gradient
    plus one delta and one gate buffer per hidden layer).  ``pruned`` holds
    the indices of the pruned entries, found once, or None for an unpruned
    model."""

    __slots__ = ("eps", "w", "scratch", "acts", "work", "pruned")

    def __init__(self, topology, rows: int, vp: VariationalParams):
        size = topology.n_params
        self.eps = np.empty(size)
        self.w = np.empty(size)
        self.scratch = np.empty(size)
        self.acts = [np.empty((rows, width))
                     for width in topology.layer_sizes[1:]]
        self.work = _backward_work(topology, rows)
        self.pruned = None if vp.active is None else _pruned(vp)


def _batch_step(topology, vp: VariationalParams, prior, sigma, kl, x, y,
                noises, noise_variance, grad, with_penalty, buf):
    """One minibatch step: fill ``grad`` = [grad_m | grad_rho] with the
    gradient averaged over the draws ``noises`` (standard-normal vectors,
    read one at a time) and return the mean over draws of NLL + kl * R.

    ``sigma`` is softplus(vp.rho), ``kl`` the batch's penalty share and
    ``buf`` the :class:`_DrawBuffers` every draw writes into.  The
    draw-free terms come first: dsigma/drho, kl * dR/dm and kl * dR/drho =
    kl * dR/dsigma^2 * 2 sigma * dsigma/drho.  Then per draw one
    :func:`_draw_step`, which adds its gradient to ``grad``, and, if
    ``with_penalty``, one :func:`penalty_total`; without it the objective
    is the mean NLL, with the same gradient bits.
    """
    d_m, d_s2 = grad_penalty(vp.m, sigma, vp.p, prior)
    sp = dsigma_drho(vp.rho)
    terms = sp, kl * d_m, kl * d_s2 * 2.0 * sigma * sp
    grad.fill(0.0)
    obj = 0.0
    for draws, e in enumerate(noises, 1):
        data_nll = _draw_step(topology, vp, sigma, terms, x, y, e,
                              noise_variance, buf, grad)
        # one sum with or without the penalty: data_nll + 0.0 is data_nll
        pen = (kl * penalty_total(vp, prior, sigma=sigma)
               if with_penalty else 0.0)
        obj += data_nll + pen
    grad /= draws
    return obj / draws


def _draw_step(topology, vp: VariationalParams, sigma, terms, x, y, e,
               noise_variance, buf, grad):
    """One pathwise draw: add its (grad_m, grad_rho) of the batch objective
    to the halves of ``grad`` and return its NLL.

    The likelihood gradient from ``backward`` enters grad_m directly and
    grad_rho via eps * dsigma/drho.  ``terms`` is (dsigma/drho,
    kl * dR/dm, kl * dR/drho), shared by every draw of a step; ``e`` is
    the draw's standard-normal vector.  The caller has checked the
    shapes, so the forward loop runs without :func:`forward`'s checks or
    copy.  W, the activations, the deltas, the gates and both gradients
    are written into ``buf``: the forward trace holds the in-place
    activations, from which ``backward`` takes each gate.
    """
    w = sample_weights(vp, e, sigma=sigma, out=buf.w, pruned=buf.pruned)
    outputs, trace = _forward(topology, w, x, out=buf.acts)
    data_nll, g_out = _nll_and_grad(outputs, y, noise_variance)
    g_w = backward(trace, w, g_out, work=buf.work)
    sp, pen_m, pen_rho = terms
    size = len(vp)
    grad_m = np.add(g_w, pen_m, out=buf.scratch)
    grad_rho = g_w                 # g_w * e * sp + pen_rho, in g_w's buffer
    grad_rho *= e
    grad_rho *= sp
    grad_rho += pen_rho
    for part, half in ((grad_m, grad[:size]), (grad_rho, grad[size:])):
        if buf.pruned is not None:
            part[buf.pruned] = 0.0
        half += part
    return data_nll

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
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

# forward is not called here, but sparsebnn.svi.forward stays importable
from .network import ShapeMismatch, forward

# SeedSequence splits an int past this into several 32-bit words
_WORD_LIMIT = 2**32
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_BLOCK = 256   # indices of one seed whose PCG64 seeds are mixed at once


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

    # the closed forms' constants, each computed once per prior
    @cached_property
    def _tau_sq(self):
        """(tau1^2, tau0^2), for :func:`grad_penalty`."""
        return self.tau1**2, self.tau0**2

    @cached_property
    def _gap_terms(self):
        """(1/tau0^2 - 1/tau1^2, log(tau0/tau1), log(pi/(1-pi))), for
        :func:`optimal_p`."""
        tau1_sq, tau0_sq = self._tau_sq
        return (1.0 / tau0_sq - 1.0 / tau1_sq, np.log(self.tau0 / self.tau1),
                np.log(self.pi / (1.0 - self.pi)))

    @cached_property
    def _penalty_terms(self):
        """The slab's and the spike's 2 tau^2 and log term, for
        :func:`_penalty`."""
        tau1_sq, tau0_sq = self._tau_sq
        return (2.0 * tau1_sq, np.log(self.tau1 / self.pi),
                2.0 * tau0_sq, np.log(self.tau0 / (1.0 - self.pi)))


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


def _hash(value, h, mult):
    """One SeedSequence hash of the uint32 words ``value`` under the hash
    constant ``h``: (the hashed words, the next constant)."""
    value = value ^ h
    h = h * mult & 0xFFFFFFFF
    value *= h                  # uint32 arithmetic wraps as numpy's C does
    return value ^ (value >> 16), h


@lru_cache(maxsize=16)
def _pcg_seeds(seed, start):
    """``SeedSequence([seed, i]).generate_state(4, np.uint64)`` for the
    ``_BLOCK`` indices i from ``start``, one row of a read-only (_BLOCK, 4)
    uint64 array each: numpy's pool mix of the entropy words (seed, i) and
    its state generation, on uint32 arrays over the block.  The 16 blocks
    used last are cached: a run reads its seed's blocks in order."""
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    pool = [np.full(_BLOCK, seed, np.uint32),
            np.arange(start, start + _BLOCK, dtype=np.uint32),
            np.zeros(_BLOCK, np.uint32), np.zeros(_BLOCK, np.uint32)]
    h = _INIT_A
    for i in range(4):
        pool[i], h = _hash(pool[i], h, _MULT_A)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed, h = _hash(pool[src], h, _MULT_A)
                mixed = pool[dst] * _MIX_L - hashed * _MIX_R
                pool[dst] = mixed ^ (mixed >> 16)
    h, words = _INIT_B, np.empty((_BLOCK, 8), np.uint64)
    for i in range(8):
        words[:, i], h = _hash(pool[i % 4], h, _MULT_B)
    # little-endian pairs of 32-bit words make each 64-bit word
    seeds = words[:, ::2] | words[:, 1::2] << 32
    seeds.flags.writeable = False
    return seeds


class _SeedWords:
    """A pair's four ``_pcg_seeds`` words as the seed sequence PCG64 reads:
    a virtual ``numpy.random.bit_generator.ISeedSequence``, registered
    (again a no-op) when :func:`_pcg_seeds` mixes a block, so importing
    this module loads no ``numpy.random``."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


class NoiseDraw:
    """Standard-normal vectors reproducible from (seed, index)."""

    @classmethod
    def draw(cls, size: int, seed: int, index: int = 0, *,
             out=None) -> np.ndarray:
        """The ``size`` standard-normal values of (seed, index), that is
        ``np.random.default_rng([seed, index]).standard_normal(size)``,
        written into and returned as ``out`` if given, with the same bits
        as a fresh array's.

        Below 2**32, a pair whose index is not the first of its block of
        ``_BLOCK`` builds no SeedSequence: :func:`_pcg_seeds` mixes the
        seeds of the whole block at once, and numpy seeds a fresh PCG64
        from the pair's four words.  So a one-off (seed, 0) mixes none."""
        seed, index = int(seed), int(index)
        start = index - index % _BLOCK
        if index == start or not (
                0 <= seed < _WORD_LIMIT and 0 <= index < _WORD_LIMIT):
            return np.random.default_rng([seed, index]).standard_normal(
                size, out=out)
        words = _SeedWords(_pcg_seeds(seed, start)[index - start])
        return np.random.Generator(np.random.PCG64(words)).standard_normal(
            size, out=out)


def _expit(x, out=None):
    """Logistic 1 / (1 + e^-x); saturates to 0 or 1 without a warning."""
    with np.errstate(over="ignore"):
        t = np.exp(np.negative(x, out=out), out=out)
        return np.divide(1.0, np.add(1.0, t, out=out), out=out)


def _xlogx(x, out=None):
    """x * log(x), with 0 * log 0 = 0; ``out``, if given and not ``x``,
    receives it.  log(1) = 0 stands in at x = 0, where(x == 0, 1, x)
    built as (x == 0) + x, so that ``out`` can hold it."""
    where = np.add(np.equal(x, 0.0, out=out), x, out=out)
    return np.multiply(x, np.log(where, out=out), out=out)


def sigma_of_rho(rho, *, out=None, work=None):
    """softplus(rho) = log(1 + e^rho), safe against over/underflow.

    ``out``, if given, receives the result, and ``work``, a second array
    of rho's shape, the log1p term; the bits are a fresh array's."""
    t = np.exp(np.negative(np.abs(rho, out=work), out=work), out=work)
    return np.add(np.maximum(rho, 0.0, out=out), np.log1p(t, out=work),
                  out=out)


def dsigma_drho(rho, *, out=None):
    """d softplus / d rho = 1 / (1 + e^-rho); ``out``, if given, receives
    it, with a fresh array's bits."""
    return _expit(rho, out=out)


def _noise(vp: VariationalParams, eps) -> np.ndarray:
    """``eps`` as a float array, checked to have one entry per parameter."""
    e = np.asarray(eps, dtype=float)
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


def _penalty(m, sigma, p, prior, a=None, b=None, c=None):
    """R's one body: ``a``, ``b`` and ``c``, if given, are three arrays of
    the inputs' shape that it overwrites, R ending in ``b``; without them
    each operation allocates, with the same bits."""
    slab_scale, slab_log, spike_scale, spike_log = prior._penalty_terms
    s = np.add(np.multiply(m, m, out=a), np.multiply(sigma, sigma, out=b),
               out=a)
    slab = np.add(np.divide(s, slab_scale, out=b), slab_log, out=b)
    spike = np.add(np.divide(s, spike_scale, out=a), spike_log, out=a)
    q = np.subtract(1.0, p, out=c)
    r = np.add(np.multiply(p, slab, out=b), np.multiply(q, spike, out=a),
               out=b)
    xlogx_q = _xlogx(q, out=a)
    entropy = np.add(_xlogx(p, out=c), xlogx_q, out=c)
    r = np.subtract(r, np.log(sigma, out=a), out=b)
    return np.add(r, entropy, out=b)


def penalty_R(m, sigma, p, prior: SpikeSlabPrior):
    """Per-parameter prior-matching penalty (vectorized over the inputs)."""
    out = _penalty(np.asarray(m, dtype=float), np.asarray(sigma, dtype=float),
                   np.asarray(p, dtype=float), prior)
    return out if out.ndim else float(out)


def optimal_p(m, sigma, prior: SpikeSlabPrior, *, out=None, work=None):
    """Closed-form minimizer of the penalty over p: logistic(B - A).

    Computed as a logistic of B - A so extreme gaps saturate cleanly to
    0 or 1 instead of producing NaN.  ``out``, if given, receives p, and
    ``work``, a second array of its shape, sigma^2; the bits are a fresh
    array's.
    """
    if out is None:
        m = np.asarray(m, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
    scale, log_tau, log_odds = prior._gap_terms
    # 0.5 * s * scale + log_tau + log_odds, s = m^2 + sigma^2
    s = np.add(np.multiply(m, m, out=out),
               np.multiply(sigma, sigma, out=work), out=out)
    gap = np.multiply(np.multiply(0.5, s, out=out), scale, out=out)
    gap = np.add(np.add(gap, log_tau, out=out), log_odds, out=out)
    p = _expit(gap, out=out)
    return p if p.ndim else float(p)


def grad_penalty(m, sigma, p, prior: SpikeSlabPrior, *, out=None):
    """Closed-form (dR/dm, dR/d sigma^2) holding p fixed.  ``out``, if
    given, is the pair of arrays that receive them, with a fresh pair's
    bits: the mix p / tau1^2 + (1 - p) / tau0^2 is built in the first
    and d sigma^2 from it before dR/dm overwrites it."""
    if out is None:
        m = np.asarray(m, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        p = np.asarray(p, dtype=float)
        out = (None, None)
    tau1_sq, tau0_sq = prior._tau_sq
    d_m, d_s2 = out
    mix = np.add(np.divide(p, tau1_sq, out=d_m),
                 np.divide(np.subtract(1.0, p, out=d_s2), tau0_sq, out=d_s2),
                 out=d_m)
    # 0.5 * (mix - 1 / sigma^2)
    inv = np.divide(1.0, np.multiply(sigma, sigma, out=d_s2), out=d_s2)
    d_s2 = np.multiply(0.5, np.subtract(mix, inv, out=d_s2), out=d_s2)
    d_m = np.multiply(m, mix, out=d_m)
    if d_m.ndim:
        return d_m, d_s2
    return float(d_m), float(d_s2)


def penalty_total(vp: VariationalParams, prior: SpikeSlabPrior, *,
                  sigma=None, work=None) -> float:
    """Sum of R over active parameters; ``sigma`` is softplus(vp.rho), if
    the caller already has it, and ``work``, if given, three arrays of
    vp's length that the sum overwrites.  The bits are those of summing
    :func:`penalty_R` over the active entries: R's one body runs in place
    at every entry, and a masked vp's active entries are gathered in
    order before the sum."""
    if sigma is None:
        sigma = vp.sigma
    a, b, c = (work if work is not None
               else (np.empty(len(vp)) for _ in range(3)))
    r = _penalty(vp.m, sigma, vp.p, prior, a, b, c)
    if vp.active is not None:
        kept = np.flatnonzero(vp.active)
        r = r.take(kept, out=a[:kept.size], mode="clip")
    return float(r.sum())

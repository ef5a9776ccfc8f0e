"""Coordinate-descent training loop for the spike-and-slab network.

Each optimizer step draws pathwise noise, takes a gradient step on
(m, rho) for one minibatch with that batch's share of the penalty, then
refreshes every inclusion probability from its closed form.  The penalty
share is either uniform (1/M per batch) or the geometric schedule
r_i = 2^(M-i) / (2^M - 1).

A step is one ``svi._batch_step`` call, whose docstring states the
per-draw work, then the optimizer step on the one buffer ``[m | rho]``
that ``vp.m`` and ``vp.rho`` view, then sigma and p refreshed.  Sigma is
computed once per step: the draws, the penalty and the epoch's
mean-weight loss reuse it or need none.  Only masked runs apply the keep
mask: the draws zero the pruned entries of W and of the gradient, so the
update's step there is 0 and leaves them unchanged, and their p are kept.
A fixed seed gives bit-identical results, pinned by
``tests/test_golden.py``.

The logged objective and the epoch's full-data ``train_loss`` are
diagnostics that no parameter depends on.  ``diagnostics=False`` skips
the per-draw ``penalty_total`` and the per-epoch loss pass, with the same
parameter bits; callers that read only the trained parameters use it.

Each ``train`` call allocates its workspace once: the ``[m | rho]`` and
gradient buffers, the optimizer's moment and scratch vectors; one batch
buffer for x and one for y, which each step gathers its rows into; the
draw buffers (``svi._DrawBuffers``: the noise, W, the draw's gradient, a
scratch vector, one activation buffer per layer and one delta and one
gate buffer per hidden layer, all sized to the largest batch); and, with
diagnostics on, one (n, width) buffer per layer for the epoch's full-data
loss.  Network's forward loop fills the activation buffers and activates
in place, and ``backward`` writes its deltas and gates into theirs.  So
the draw loop and the epoch make no batch- or (n, width)-sized temporary
and the optimizer no parameter-sized one, and every expression keeps the
order, hence the bits, of its allocating form.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .datasets import Dataset
from .network import NetworkTopology, ShapeMismatch, _forward, forward
from .svi import (
    NoiseDraw,
    SpikeSlabPrior,
    VariationalParams,
    _batch_step,
    _DrawBuffers,
    _penalty_screened,
    _resolve_draws,
    optimal_p,
    penalty_total,
    sample_weights,
    sigma_of_rho,
)

KL_SCHEDULES = ("uniform", "blundell")
OPTIMIZERS = ("sgd", "adam")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
INIT_M_STD = 0.1  # initial means ~ N(0, INIT_M_STD^2)
INIT_RHO = -3.0  # initial sigma = softplus(INIT_RHO)


class NumericalAbort(RuntimeError):
    """Training hit a non-finite quantity; names the step and the culprit."""

    def __init__(self, step: int, quantity: str):
        self.step = step
        self.quantity = quantity
        super().__init__(
            f"non-finite {quantity} at optimizer step {step}; aborting"
        )


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 128
    learning_rate: float = 0.01
    optimizer: str = "adam"
    mc_samples: int = 1
    kl_schedule: str = "uniform"
    seed: int = 0
    noise_variance: float = 1.0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.mc_samples < 1:
            raise ValueError("epochs, batch_size, mc_samples must be positive")
        if self.learning_rate <= 0:
            raise ValueError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if self.kl_schedule not in KL_SCHEDULES:
            raise ValueError(f"kl_schedule must be one of {KL_SCHEDULES}")
        if self.noise_variance <= 0:
            raise ValueError("noise_variance must be positive")


@dataclass
class TrainReport:
    """Loss trace and final state of one training run.

    All numeric state is bit-reproducible for a fixed seed; wall times are
    measured and therefore are not.  ``objective`` and ``train_loss`` are
    ``None`` for a run trained with ``diagnostics=False``.
    """

    objective: Optional[np.ndarray]
    train_loss: Optional[np.ndarray]
    wall_ms: np.ndarray
    params: VariationalParams
    draw_count: int = 0


def minibatch_weights(n_batches: int, schedule: str) -> np.ndarray:
    """Per-batch share of the penalty; entries sum to 1.

    uniform: 1/M each.  blundell: geometric r_i = 2^(M-i) / (2^M - 1),
    computed as 2^-i / (1 - 2^-M) so large M cannot overflow.
    """
    if n_batches < 1:
        raise ValueError(f"n_batches must be >= 1, got {n_batches}")
    if schedule == "uniform":
        return np.full(n_batches, 1.0 / n_batches)
    if schedule == "blundell":
        i = np.arange(1, n_batches + 1, dtype=float)
        return 2.0**-i / (1.0 - 2.0 ** -float(n_batches))
    raise ValueError(f"kl_schedule must be one of {KL_SCHEDULES}")


class _Sgd:
    def __init__(self, lr, size):
        self.lr = lr
        self.step = np.empty(size)

    def update(self, grad):
        """The step to subtract from the parameters, in a reused buffer."""
        return np.multiply(self.lr, grad, out=self.step)


class _Adam:
    def __init__(self, lr, size):
        self.lr = lr
        self.m1 = np.zeros(size)
        self.m2 = np.zeros(size)
        self.t = 0
        self.step = np.empty(size)
        self.scratch = np.empty(size)

    def update(self, grad):
        """The step to subtract from the parameters, in a reused buffer:
        lr * mhat / (sqrt(vhat) + eps), evaluated in that order."""
        self.t += 1
        step, scratch = self.step, self.scratch
        self.m1 *= ADAM_BETA1
        self.m1 += np.multiply(1.0 - ADAM_BETA1, grad, out=step)
        self.m2 *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, grad, out=step)
        self.m2 += np.multiply(step, grad, out=step)
        np.divide(self.m1, 1.0 - ADAM_BETA1**self.t, out=step)    # mhat
        np.divide(self.m2, 1.0 - ADAM_BETA2**self.t, out=scratch)  # vhat
        np.multiply(self.lr, step, out=step)
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        return np.divide(step, scratch, out=step)


def init_params(
    topology: NetworkTopology, prior: SpikeSlabPrior, config: TrainConfig,
    rng: np.random.Generator,
) -> VariationalParams:
    """Fresh variational state: means ~ N(0, INIT_M_STD^2), rho = INIT_RHO,
    closed-form p.  ``config`` is not read; existing callers pass it."""
    m = rng.normal(0.0, INIT_M_STD, topology.n_params)
    rho = np.full(topology.n_params, INIT_RHO)
    vp = VariationalParams(m, rho, np.zeros(topology.n_params))
    vp.p = optimal_p(vp.m, vp.sigma, prior)
    return vp


class _Workspace:
    """Every array one ``train`` run writes, allocated once (the module
    docstring lists them).  Building it makes ``vp.m`` and ``vp.rho`` views
    of ``theta`` = [m | rho].  ``batches`` holds, per minibatch, its
    (start, stop) in the epoch's permutation and its x and y buffers: views,
    sliced once per run, of one batch buffer with the largest batch's rows
    (np.array_split gives at most two batch sizes)."""

    def __init__(self, topology, vp: VariationalParams, config, dataset,
                 diagnostics):
        size = len(vp)
        self.theta = np.concatenate([vp.m, vp.rho])
        vp.m, vp.rho = self.theta[:size], self.theta[size:]
        self.grad = np.empty(2 * size)
        optimizer = _Adam if config.optimizer == "adam" else _Sgd
        self.opt = optimizer(config.learning_rate, 2 * size)
        self.loss_out = None
        if diagnostics:
            # one buffer per layer for the epoch's full-data loss pass
            self.loss_out = [np.empty((dataset.n, width))
                             for width in topology.layer_sizes[1:]]
        n_batches = -(-dataset.n // config.batch_size)
        # the cut points of np.array_split(perm, n_batches)
        small, extra = divmod(dataset.n, n_batches)
        bounds = [b * small + min(b, extra) for b in range(n_batches + 1)]
        rows = small + (extra > 0)
        self.draws = _DrawBuffers(topology, rows, vp)
        x_buf = np.empty((rows, dataset.n_features))
        y_buf = np.empty((rows,) + dataset.y.shape[1:])
        views = {r: (x_buf[:r], y_buf[:r]) for r in {small, rows}}
        self.batches = [(lo, hi) + views[hi - lo]
                        for lo, hi in zip(bounds, bounds[1:])]


def _mean_weights(vp: VariationalParams) -> np.ndarray:
    """The weights at the posterior mean, W = m; pruned entries are 0."""
    return vp.m if vp.active is None else np.where(vp.active, vp.m, 0.0)


def _train_loss(topology, vp, x, y, out):
    """Full-data mean squared error at the posterior mean.  ``out`` holds
    one (n, width) buffer per affine layer; the pass writes into them and
    allocates no (n, width) array."""
    outputs, _ = _forward(topology, _mean_weights(vp), x, out=out)
    t = np.asarray(y, dtype=float)
    if t.ndim == 1 and outputs.shape[1] == 1:
        t = t[:, None]
    np.subtract(outputs, t, out=outputs)
    return float(np.mean(np.square(outputs, out=outputs)))


def train(
    topology: NetworkTopology,
    prior: SpikeSlabPrior,
    dataset: Dataset,
    config: TrainConfig,
    init: Optional[VariationalParams] = None,
    *,
    diagnostics: bool = True,
) -> TrainReport:
    """Run the full optimization loop and return the final state with traces.

    Per epoch the rows are reshuffled and partitioned into ceil(n / batch)
    minibatches; each step draws fresh noise, updates (m, rho), then resets
    p to its closed-form optimum.  A non-finite objective or gradient
    raises :class:`NumericalAbort` naming the offending quantity.

    With ``diagnostics=False`` the per-draw penalty value and the
    per-epoch full-data loss are not computed and the report's
    ``objective`` and ``train_loss`` are ``None``; the parameters and
    draws are bit for bit those of a run with diagnostics on.  The abort
    still checks the mean data NLL (as "objective") and the gradient at
    every step; when the gradient is non-finite it computes the penalty
    value, so the abort names the quantity a run with diagnostics names.
    The penalty value alone may overflow too (some m^2 + sigma^2
    overflows, yet its weights touch only all-zero inputs), so each step
    also screens m @ m + sigma @ sigma (``svi._penalty_screened``); only
    when the screen trips does it compute the penalty value, and a
    non-finite one aborts on "objective", as with diagnostics on.
    """
    if dataset.n == 0:
        raise ValueError("dataset is empty")
    if dataset.n_features != topology.n_inputs:
        raise ValueError(
            f"dataset has {dataset.n_features} features but the topology "
            f"expects {topology.n_inputs}"
        )
    if init is not None and len(init) != topology.n_params:
        raise ShapeMismatch("init parameters", (topology.n_params,),
                            (len(init),))
    x_all = dataset.X
    y_all = dataset.y
    master = np.random.default_rng(config.seed)
    vp = init.copy() if init is not None else init_params(
        topology, prior, config, master
    )
    size = len(vp)
    ws = _Workspace(topology, vp, config, dataset, diagnostics)
    theta, grad, buf = ws.theta, ws.grad, ws.draws
    pruned = buf.pruned
    kl_weights = minibatch_weights(len(ws.batches), config.kl_schedule)
    objective = np.zeros(config.epochs)
    train_loss = np.zeros(config.epochs)
    wall_ms = np.zeros(config.epochs)
    sigma = sigma_of_rho(vp.rho)

    draw_index = 0
    step = 0
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        perm = master.permutation(dataset.n)
        epoch_obj = 0.0
        for b, (lo, hi, xb, yb) in enumerate(ws.batches):
            # mode="clip" gathers straight into the buffer, where "raise"
            # would fill a temporary first; a permutation's slice never clips
            idx = perm[lo:hi]
            x_all.take(idx, axis=0, out=xb, mode="clip")
            y_all.take(idx, axis=0, out=yb, mode="clip")
            kl = kl_weights[b]
            noises = (NoiseDraw.draw(size, config.seed, i, out=buf.eps).eps
                      for i in range(draw_index,
                                     draw_index + config.mc_samples))
            draw_index += config.mc_samples
            obj = _batch_step(topology, vp, prior, sigma, kl, xb, yb, noises,
                              config.noise_variance, grad, diagnostics, buf)
            grad_ok = np.isfinite(grad).all()
            if not (diagnostics
                    or (grad_ok and _penalty_screened(vp, sigma, prior))):
                # the penalty value, as a run with diagnostics has it, so
                # the abort names the same culprit
                obj += kl * penalty_total(vp, prior, sigma=sigma)
            if not math.isfinite(obj):
                raise NumericalAbort(step, "objective")
            if not grad_ok:
                bad_m = not np.isfinite(grad[:size]).all()
                raise NumericalAbort(step, "grad_m" if bad_m else "grad_rho")
            np.subtract(theta, ws.opt.update(grad), out=theta)
            sigma = sigma_of_rho(vp.rho)
            p = optimal_p(vp.m, sigma, prior)
            if pruned is not None:
                p[pruned] = vp.p[pruned]
            vp.p = p
            epoch_obj += obj
            step += 1
        objective[epoch] = epoch_obj
        if diagnostics:
            train_loss[epoch] = _train_loss(topology, vp, x_all, y_all,
                                            ws.loss_out)
        wall_ms[epoch] = (time.perf_counter() - t0) * 1e3
    return TrainReport(
        objective=objective if diagnostics else None,
        train_loss=train_loss if diagnostics else None, wall_ms=wall_ms,
        params=vp, draw_count=draw_index,
    )


def predict(
    topology: NetworkTopology,
    vp: VariationalParams,
    x,
    mode: str = "mean",
    samples: int = 1,
    seed: int = 0,
    noise=None,
):
    """Network outputs at the posterior mean or averaged over weight samples.

    mode "mean" evaluates at W = m (pruned entries zero); mode "mc"
    averages the forward outputs of ``samples`` pathwise draws, which
    ``noise``, if given, must hold.
    """
    if mode == "mean":
        out, _ = forward(topology, _mean_weights(vp), x)
        return out
    if mode == "mc":
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        draws = _resolve_draws(len(vp), samples, noise, seed)
        acc = None
        for draw in draws:
            out, _ = forward(topology, sample_weights(vp, draw), x)
            acc = out if acc is None else acc + out
        return acc / len(draws)
    raise ValueError(f"mode must be 'mean' or 'mc', got {mode!r}")

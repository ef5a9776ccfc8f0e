"""Coordinate-descent training loop for the spike-and-slab network.

Each optimizer step draws pathwise noise, takes a gradient step on
(m, rho) for one minibatch with that batch's share of the penalty, then
refreshes every inclusion probability from its closed form.  The penalty
share is either uniform (1/M per batch) or the geometric schedule
r_i = 2^(M-i) / (2^M - 1).

A step is one call of the run's :class:`_Step`, whose docstring states
the per-draw work, then the optimizer step on the one buffer ``[m | rho]``
that ``vp.m`` and ``vp.rho`` view, then sigma and p refreshed in place
(:meth:`_Step.refresh`).  Sigma is computed once per step: the draws,
the penalty and the epoch's mean-weight loss reuse it or need none.
Only masked runs apply the keep mask: the draws zero the pruned entries
of W and the step zeroes them in the gradient, so the update's step
there is 0 and leaves them unchanged, and their p are kept.
:func:`objective_estimate` and :func:`step_gradients` are one call of a
:class:`_Step` too.  A fixed seed gives bit-identical results, pinned by
``tests/test_golden.py``.

The logged objective and the epoch's full-data ``train_loss`` are
diagnostics that no parameter depends on.  ``diagnostics=False`` skips
the per-draw ``penalty_total`` and the per-epoch loss pass, with the same
parameter bits; callers that read only the trained parameters use it.

Each ``train`` call allocates every array it writes once, before its
first step:

- parameter-sized: ``[m | rho]``, which ``vp.m`` and ``vp.rho`` view, and
  ``vp.p``, refreshed in place; adam's two moments and its step vector
  (sgd has none); and in its :class:`_Step` the gradient
  ``[grad_m | grad_rho]`` and its two halves, the noise, the sampled
  weights, the draw's gradient, sigma, and the penalty gradient's d_m,
  d_s2 and dsigma/drho;
- the pruned entries' indices and their kept p (None for an unpruned
  model);
- the arena: one row buffer per affine layer with max(2 * batch, n) rows,
  n only with diagnostics on;
- one x and one y batch buffer with the largest batch's rows, which each
  step gathers its rows into.

np.array_split gives at most two batch sizes, so :meth:`_Step.bind`
builds, once per run for each, the batch's forward trace (with each
layer's (W, b, W.T) views of the sampled weights), backward's work (the
draw's gradient with the same views), the checked target column, the
NLL constant and the rows of the squared residual; the epoch's loss pass
gets its trace over all n rows once too.  A draw's activations use the
arena's first batch rows, a hidden layer's backward delta and the
squared residual the next batch rows, and its residual and output
gradient overwrite the outputs.
``backward`` takes the hidden activations as its gate buffers too: it
overwrites a layer's activation with its gate only after that layer's
weight gradient has read it, and nothing reads it afterwards.  Buffers
whose uses do not overlap are shared: the sampled weights take the
gradient's grad_m term once backward has read them, the optimizer writes
its step over the gradient once its moments have read it, the penalty
value sums in the sample, draw-gradient and noise buffers once the
draw's gradient is in grad, the refresh uses d_m and d_s2 as the closed
forms' work, and the epoch's loss pass writes the mean weights into the
sample buffer and its activations into the arena's first n rows, since
it never runs during a step.  So a step makes no parameter-, batch- or
(n, width)-sized float temporary, with diagnostics on or off (the
gradient's finiteness check makes a boolean one, and a masked draw's
``sample_weights`` finds the pruned indices anew and its penalty value
the kept ones, each less than one parameter vector), and every
expression keeps the operands and order, hence the bits, of its
allocating form in ``tests/reference.py``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .datasets import Dataset
from .network import (
    NetworkTopology, _check_inputs, _check_params, _forward, _layers,
    _nll_and_grad, _nll_constant, _targets, _trace, backward, forward,
)
from .svi import (
    NoiseDraw, SpikeSlabPrior, VariationalParams, _noise, dsigma_drho,
    grad_penalty, optimal_p, penalty_total, sample_weights, sigma_of_rho,
)

KL_SCHEDULES = ("uniform", "blundell")
OPTIMIZERS = ("sgd", "adam")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
INIT_M_STD = 0.1  # initial means ~ N(0, INIT_M_STD^2)
INIT_RHO = -3.0  # initial sigma = softplus(INIT_RHO)
# below this, sum(m^2 + sigma^2) / (2 tau0^2) leaves every term of sum R finite
_SCREEN_LIMIT = 1e300


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
        for name in ("epochs", "batch_size", "mc_samples"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive, "
                             f"got {self.learning_rate}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if self.kl_schedule not in KL_SCHEDULES:
            raise ValueError(f"kl_schedule must be one of {KL_SCHEDULES}")
        if not (math.isfinite(self.noise_variance)
                and self.noise_variance > 0):
            raise ValueError("noise_variance must be finite and positive, "
                             f"got {self.noise_variance}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
    def __init__(self, lr):
        self.lr = lr

    def update(self, grad):
        """The step to subtract from the parameters, lr * grad, written
        over ``grad``."""
        return np.multiply(self.lr, grad, out=grad)


class _Adam:
    def __init__(self, lr, size):
        self.lr = lr
        self.m1 = np.zeros(size)
        self.m2 = np.zeros(size)
        self.t = 0
        self.step = np.empty(size)

    def update(self, grad):
        """The step to subtract from the parameters, written over ``grad``
        once the moments have read it: lr * mhat / (sqrt(vhat) + eps),
        evaluated in that order."""
        self.t += 1
        step = self.step
        self.m1 *= ADAM_BETA1
        self.m1 += np.multiply(1.0 - ADAM_BETA1, grad, out=step)
        self.m2 *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, grad, out=step)
        self.m2 += np.multiply(step, grad, out=step)
        np.divide(self.m1, 1.0 - ADAM_BETA1**self.t, out=grad)   # mhat
        np.divide(self.m2, 1.0 - ADAM_BETA2**self.t, out=step)   # vhat
        np.multiply(self.lr, grad, out=grad)
        np.sqrt(step, out=step)
        step += ADAM_EPS
        return np.divide(grad, step, out=grad)


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


class _Step:
    """The minibatch step of ``vp``'s pathwise objective, with every array
    a step writes allocated once for batches of up to ``rows`` rows (the
    module docstring lists them); :meth:`bind` builds a batch's views
    into them.  A caller that runs a full-data pass between steps, as
    ``train``'s epoch loss does, passes its row count as ``loss_rows``
    and writes into the arena's first rows."""

    __slots__ = ("topology", "vp", "prior", "noise_variance", "rows",
                 "grad", "grad_m", "grad_rho", "eps", "w", "g", "sigma",
                 "d_m", "d_s2", "sp", "spent", "arena", "pruned", "kept_p")

    def __init__(self, topology, vp: VariationalParams, prior,
                 noise_variance, rows: int, loss_rows: int = 0):
        size = len(vp)
        self.topology, self.vp, self.prior = topology, vp, prior
        self.noise_variance, self.rows = noise_variance, rows
        self.grad = np.empty(2 * size)
        self.grad_m, self.grad_rho = self.grad[:size], self.grad[size:]
        self.eps = np.empty(size)
        self.w = np.empty(size)
        self.g = np.empty(size)
        self.sigma = sigma_of_rho(vp.rho)
        self.d_m, self.d_s2, self.sp = (np.empty(size) for _ in range(3))
        # free once a draw's gradient is in grad: the penalty value's work
        self.spent = (self.w, self.g, self.eps)
        self.arena = [np.empty((max(2 * rows, loss_rows), width))
                      for width in topology.layer_sizes[1:]]
        # indices, not the boolean mask: numpy reads and writes a scattered
        # subset by index several times faster than through a mask
        self.pruned = (None if vp.active is None
                       else np.flatnonzero(~vp.active))
        self.kept_p = None if self.pruned is None else vp.p[self.pruned]

    def bind(self, x, y):
        """What every step on the batch arrays ``x`` (checked by the
        caller) and ``y`` reads and writes: the trace of the sample buffer
        on x's rows of the arena, backward's work (the draw's gradient and
        its views, the arena's next rows as deltas, the hidden activations
        as gates), the checked targets, the NLL constant and the rows that
        receive the squared residual.  The caller may refill x and y
        between steps."""
        rows = x.shape[0]
        trace = _trace(self.topology, self.w, x, self.arena)
        spare = [buf[self.rows:self.rows + rows] for buf in self.arena]
        outputs = trace.acts[-1]
        return (trace, (self.g, _layers(self.topology, self.g), spare[:-1],
                        trace.acts[1:-1]),
                _targets(outputs, y, self.noise_variance),
                _nll_constant(outputs.size, self.noise_variance), spare[-1])

    def __call__(self, kl, batch, noises, with_penalty) -> float:
        """Fill ``grad`` with the gradient averaged over the draws
        ``noises`` (standard-normal vectors, read one at a time) on the
        :meth:`bind` views ``batch`` and return the mean over draws of
        NLL + kl * R.

        ``kl`` is the batch's penalty share, and ``sigma`` holds
        softplus(vp.rho).  The draw-free terms come first, into their
        buffers: dsigma/drho, kl * dR/dm and kl * dR/drho = kl *
        dR/dsigma^2 * 2 sigma * dsigma/drho.  Then per draw: W sampled into ``w``, the forward loop
        on the batch's trace, the NLL and its output gradient from one
        residual, ``backward`` into the batch's work (it overwrites each
        hidden activation with its gate), and the draw's gradient added to
        ``grad``: the likelihood gradient enters grad_m directly and
        grad_rho via eps * dsigma/drho.  If ``with_penalty``, each draw
        also makes one :func:`penalty_total` call, in the buffers the draw
        has spent; without it the objective is the mean NLL, with the same
        gradient bits.  After the draws the pruned entries of ``grad`` are
        zeroed.
        """
        vp, prior, grad, sigma = self.vp, self.prior, self.grad, self.sigma
        trace, work, t, constant, square = batch
        d_m, d_s2 = grad_penalty(vp.m, sigma, vp.p, prior,
                                 out=(self.d_m, self.d_s2))
        sp = dsigma_drho(vp.rho, out=self.sp)
        # kl * d_m and (((kl * d_s2) * 2.0) * sigma) * sp, in their buffers
        pen_m = np.multiply(kl, d_m, out=d_m)
        pen_rho = np.multiply(kl, d_s2, out=d_s2)
        pen_rho *= 2.0
        pen_rho *= sigma
        pen_rho *= sp
        grad_m, grad_rho = self.grad_m, self.grad_rho
        grad.fill(0.0)
        obj = 0.0
        for draws, e in enumerate(noises, 1):
            sample_weights(vp, e, sigma=sigma, out=self.w)
            data_nll, g_out = _nll_and_grad(_forward(trace), t,
                                            self.noise_variance, constant,
                                            square)
            g_w = backward(trace, g_out, work=work)
            # the sample is spent once backward has read it
            grad_m += np.add(g_w, pen_m, out=self.w)
            g_w *= e                 # g_w * e * sp + pen_rho, in g_w's buffer
            g_w *= sp
            g_w += pen_rho
            grad_rho += g_w
            # one sum with or without the penalty: data_nll + 0.0 is data_nll
            pen = (kl * penalty_total(vp, prior, sigma=sigma,
                                      work=self.spent)
                   if with_penalty else 0.0)
            obj += data_nll + pen
        if self.pruned is not None:
            grad_m[self.pruned] = 0.0
            grad_rho[self.pruned] = 0.0
        if draws > 1:   # x / 1 is x
            grad /= draws
        return obj / draws

    def refresh(self):
        """sigma and p at the updated (m, rho), into ``sigma`` and
        ``vp.p``; pruned entries keep their p.  It runs after the draws, so
        the penalty gradient's buffers serve as the closed forms' work."""
        vp = self.vp
        sigma_of_rho(vp.rho, out=self.sigma, work=self.d_m)
        optimal_p(vp.m, self.sigma, self.prior, out=vp.p, work=self.d_s2)
        if self.pruned is not None:
            vp.p[self.pruned] = self.kept_p


def _mean_weights(vp: VariationalParams) -> np.ndarray:
    """The weights at the posterior mean, W = m; pruned entries are 0."""
    return vp.m if vp.active is None else np.where(vp.active, vp.m, 0.0)


def _train_loss(vp, trace, t, pruned):
    """Full-data mean squared error at the posterior mean against ``t``:
    W = m, with the ``pruned`` entries 0, is written into
    ``trace.params`` and the pass into the trace's rows, so it allocates
    no (n, width) array."""
    w = trace.params
    np.copyto(w, vp.m)
    if pruned is not None:
        w[pruned] = 0.0
    outputs = _forward(trace)
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
    raises :class:`NumericalAbort` naming the offending quantity.  A run
    whose arrays cannot be allocated raises ValueError naming
    ``layer_sizes`` or ``epochs``.

    With ``diagnostics=False`` the per-draw penalty value and the
    per-epoch full-data loss are not computed and the report's
    ``objective`` and ``train_loss`` are ``None``; the parameters and
    draws are bit for bit those of a run with diagnostics on.  The abort
    still checks the mean data NLL (as "objective") and the gradient at
    every step; when the gradient is non-finite it computes the penalty
    value, so the abort names the quantity a run with diagnostics names.
    The penalty value alone may overflow too (some m^2 + sigma^2
    overflows, yet its weights touch only all-zero inputs), so each step
    also screens m @ m + sigma @ sigma (:func:`_penalty_screened`); only
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
    if init is not None:
        _check_params(topology, init.m)
    x_all = dataset.X
    y_all = dataset.y
    master = np.random.default_rng(config.seed)
    n_batches = -(-dataset.n // config.batch_size)
    # the cut points of np.array_split(perm, n_batches)
    small, extra = divmod(dataset.n, n_batches)
    bounds = [b * small + min(b, extra) for b in range(n_batches + 1)]
    rows = small + (extra > 0)
    try:
        vp = init.copy() if init is not None else init_params(
            topology, prior, config, master
        )
        size = len(vp)
        theta = np.concatenate([vp.m, vp.rho])
        vp.m, vp.rho = theta[:size], theta[size:]
        opt = (_Adam(config.learning_rate, 2 * size)
               if config.optimizer == "adam" else _Sgd(config.learning_rate))
        batch_step = _Step(topology, vp, prior, config.noise_variance, rows,
                           dataset.n if diagnostics else 0)
        x_buf = np.empty((rows, dataset.n_features))
        y_buf = np.empty((rows,) + dataset.y.shape[1:])
    except (MemoryError, ValueError) as exc:
        # numpy raises ValueError, not MemoryError, past its size limit
        raise ValueError(
            f"layer_sizes = {topology.layer_sizes}: {exc}") from None
    grad, pruned = batch_step.grad, batch_step.pruned
    views = {r: (x_buf[:r], y_buf[:r], batch_step.bind(x_buf[:r], y_buf[:r]))
             for r in {small, rows}}
    kl_weights = minibatch_weights(n_batches, config.kl_schedule)
    batches = [(lo, hi, kl) + views[hi - lo]
               for lo, hi, kl in zip(bounds, bounds[1:], kl_weights)]
    if diagnostics:
        loss_trace = _trace(topology, batch_step.w, x_all, batch_step.arena)
        loss_t = _targets(loss_trace.acts[-1], y_all, config.noise_variance)
    try:
        objective = np.zeros(config.epochs)
        train_loss = np.zeros(config.epochs)
        wall_ms = np.zeros(config.epochs)
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"epochs = {config.epochs}: {exc}") from None
    sigma = batch_step.sigma

    draw_index = 0
    step = 0
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        perm = master.permutation(dataset.n)
        epoch_obj = 0.0
        for lo, hi, kl, xb, yb, batch in batches:
            # mode="clip" gathers straight into the buffer, where "raise"
            # would fill a temporary first; a permutation's slice never clips
            idx = perm[lo:hi]
            x_all.take(idx, axis=0, out=xb, mode="clip")
            y_all.take(idx, axis=0, out=yb, mode="clip")
            noises = (NoiseDraw.draw(size, config.seed, i, out=batch_step.eps)
                      for i in range(draw_index,
                                     draw_index + config.mc_samples))
            draw_index += config.mc_samples
            obj = batch_step(kl, batch, noises, diagnostics)
            grad_ok = np.isfinite(grad).all()
            if not (diagnostics
                    or (grad_ok and _penalty_screened(vp, sigma, prior))):
                # the penalty value, as a run with diagnostics has it, so
                # the abort names the same culprit
                obj += kl * penalty_total(vp, prior, sigma=sigma,
                                          work=batch_step.spent)
            if not math.isfinite(obj):
                raise NumericalAbort(step, "objective")
            if not grad_ok:
                bad_m = not np.isfinite(grad[:size]).all()
                raise NumericalAbort(step, "grad_m" if bad_m else "grad_rho")
            np.subtract(theta, opt.update(grad), out=theta)
            batch_step.refresh()
            epoch_obj += obj
            step += 1
        objective[epoch] = epoch_obj
        if diagnostics:
            train_loss[epoch] = _train_loss(vp, loss_trace, loss_t, pruned)
        wall_ms[epoch] = (time.perf_counter() - t0) * 1e3
    return TrainReport(
        objective=objective if diagnostics else None,
        train_loss=train_loss if diagnostics else None, wall_ms=wall_ms,
        params=vp,
    )


def _penalty_screened(vp: VariationalParams, sigma, prior) -> bool:
    """A cheap screen that sum R is finite: m @ m + sigma @ sigma, the sum
    of every s = m^2 + sigma^2, over 2 tau0^2 stays below ``_SCREEN_LIMIT``.
    Then every s / (2 tau^2) term is finite, and so are -log sigma (at most
    745 for a positive sigma) and the entropy terms.  False means sum R may
    overflow, not that it does."""
    with np.errstate(over="ignore"):   # an overflow only trips the screen
        s = vp.m @ vp.m + sigma @ sigma
        return bool(s / (2.0 * prior.tau0**2) < _SCREEN_LIMIT)


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


def objective_estimate(
    topology,
    vp: VariationalParams,
    prior: SpikeSlabPrior,
    x,
    y,
    noise: Sequence[np.ndarray],
    kl_weight: float = 1.0,
    noise_variance: float = 1.0,
) -> float:
    """Monte Carlo estimate of the batch objective, the mean over the
    pathwise draws ``noise`` of NLL + ``kl_weight * sum_i R_i``, where
    ``kl_weight`` in (0, 1] is the minibatch share of the penalty.  It is
    a :class:`_Step`'s value, so at the same parameters, rows and draws it
    is bit for bit the batch objective :func:`train` logs."""
    x = _checked_step(topology, vp, x, kl_weight)
    draws = [_noise(vp, d) for d in noise]
    if not draws:
        raise ValueError("noise holds no draws; the objective needs >= 1")
    step = _Step(topology, vp, prior, noise_variance, x.shape[0])
    return step(kl_weight, step.bind(x, y), draws, True)


def step_gradients(
    topology,
    vp: VariationalParams,
    prior: SpikeSlabPrior,
    x,
    y,
    eps: np.ndarray,
    kl_weight: float = 1.0,
    noise_variance: float = 1.0,
):
    """One-draw pathwise gradients (grad_m, grad_rho) of the batch objective,
    computed by a :class:`_Step` with the one draw ``eps``: the gradient of
    a :func:`train` step is the mean of these over its draws.
    """
    x = _checked_step(topology, vp, x, kl_weight)
    step = _Step(topology, vp, prior, noise_variance, x.shape[0])
    step(kl_weight, step.bind(x, y), [_noise(vp, eps)], False)
    return step.grad_m, step.grad_rho


def predict(topology: NetworkTopology, vp: VariationalParams, x):
    """Network outputs at the posterior mean, W = m (pruned entries zero)."""
    out, _ = forward(topology, _mean_weights(vp), x)
    return out

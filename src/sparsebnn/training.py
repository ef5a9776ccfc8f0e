"""Coordinate-descent training loop for the spike-and-slab network.

Each optimizer step draws pathwise noise, takes a gradient step on
(m, rho) for one minibatch with that batch's share of the penalty, then
refreshes every inclusion probability from its closed form.  The penalty
share is either uniform (1/M per batch) or the geometric schedule
r_i = 2^(M-i) / (2^M - 1).

A step, in order: the penalty-gradient terms, from the sigma carried
over from the last p refresh; per draw one ``NoiseDraw.draw``, one
``svi._draw_step`` (sample, forward, NLL, one ``network.backward``; the
forward trace dies with it) and one ``svi.penalty_total`` for the logged
objective, the three calls per draw that the benchmark's tracer counts;
the optimizer step on the one buffer ``[m | rho]`` that ``vp.m`` and
``vp.rho`` view; then sigma and p refreshed.  Sigma is computed once per
step: the draws, the penalty and the epoch's mean-weight loss reuse it
or need none.  Only masked runs apply the keep mask.  A fixed seed gives
bit-identical results, pinned by ``tests/test_golden.py``.

Each ``train`` call allocates its workspace once: the ``[m | rho]`` and
gradient buffers, the optimizer's moment and scratch vectors, and one
(n, width) buffer per layer for the epoch's full-data loss, which
network's forward loop fills and activates in place.  So the epoch makes
no (n, width) temporary and the optimizer no parameter-sized one, and
every expression keeps the order, hence the bits, of its allocating form.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .datasets import Dataset
from .network import (
    NetworkTopology, ShapeMismatch, _forward, apply_head, forward,
)
from .svi import (
    NoiseDraw,
    SpikeSlabPrior,
    VariationalParams,
    _draw_step,
    _penalty_terms,
    optimal_p,
    penalty_total,
    sample_weights,
    sigma_of_rho,
)

KL_SCHEDULES = ("uniform", "blundell")
OPTIMIZERS = ("sgd", "adam")


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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    mc_samples: int = 1
    kl_schedule: str = "uniform"
    seed: int = 0
    init_m_std: float = 0.1
    init_rho: float = -3.0
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
    measured and therefore are not.
    """

    objective: np.ndarray
    train_loss: np.ndarray
    wall_ms: np.ndarray
    params: VariationalParams
    seed: int
    config: TrainConfig = None
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
    def __init__(self, lr, beta1, beta2, eps, size):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
        self.m1 *= self.beta1
        self.m1 += np.multiply(1.0 - self.beta1, grad, out=step)
        self.m2 *= self.beta2
        np.multiply(1.0 - self.beta2, grad, out=step)
        self.m2 += np.multiply(step, grad, out=step)
        np.divide(self.m1, 1.0 - self.beta1**self.t, out=step)    # mhat
        np.divide(self.m2, 1.0 - self.beta2**self.t, out=scratch)  # vhat
        np.multiply(self.lr, step, out=step)
        np.sqrt(scratch, out=scratch)
        scratch += self.eps
        return np.divide(step, scratch, out=step)


def init_params(
    topology: NetworkTopology, prior: SpikeSlabPrior, config: TrainConfig,
    rng: np.random.Generator,
) -> VariationalParams:
    """Fresh variational state: small random means, constant rho, closed-form p."""
    m = rng.normal(0.0, config.init_m_std, topology.n_params)
    rho = np.full(topology.n_params, config.init_rho)
    vp = VariationalParams(m, rho, np.zeros(topology.n_params))
    vp.p = optimal_p(vp.m, vp.sigma, prior)
    return vp


def _mean_weights(vp: VariationalParams) -> np.ndarray:
    """The weights at the posterior mean, W = m; pruned entries are 0."""
    return vp.m if vp.active is None else np.where(vp.active, vp.m, 0.0)


def _train_loss(topology, vp, x, y, out):
    """Full-data loss at the posterior mean: the mean squared error for the
    identity head, the error rate for softmax.  ``out`` holds one (n, width)
    buffer per affine layer; the pass writes into them and allocates no
    (n, width) array."""
    outputs, _ = _forward(topology, _mean_weights(vp), x, out=out)
    if topology.output_head == "identity":
        t = np.asarray(y, dtype=float)
        if t.ndim == 1 and outputs.shape[1] == 1:
            t = t[:, None]
        np.subtract(outputs, t, out=outputs)
        return float(np.mean(np.square(outputs, out=outputs)))
    return float(np.mean(outputs.argmax(axis=1) != np.asarray(y)))


def train(
    topology: NetworkTopology,
    prior: SpikeSlabPrior,
    dataset: Dataset,
    config: TrainConfig,
    init: Optional[VariationalParams] = None,
) -> TrainReport:
    """Run the full optimization loop and return the final state with traces.

    Per epoch the rows are reshuffled and partitioned into ceil(n / batch)
    minibatches; each step draws fresh noise, updates (m, rho), then resets
    p to its closed-form optimum.  A non-finite objective or gradient
    raises :class:`NumericalAbort` naming the offending quantity.
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
    theta = np.concatenate([vp.m, vp.rho])
    vp.m, vp.rho = theta[:size], theta[size:]
    grad = np.empty(2 * size)
    active = vp.active
    # entries of [m | rho] the update writes: all, or the unpruned ones
    keep = True if active is None else np.concatenate([active, active])
    if config.optimizer == "adam":
        opt = _Adam(config.learning_rate, config.adam_beta1,
                    config.adam_beta2, config.adam_eps, 2 * size)
    else:
        opt = _Sgd(config.learning_rate, 2 * size)
    # one buffer per layer for the epoch's full-data loss pass
    loss_out = [np.empty((dataset.n, width))
                for width in topology.layer_sizes[1:]]

    n_batches = -(-dataset.n // config.batch_size)
    kl_weights = minibatch_weights(n_batches, config.kl_schedule)
    # the cut points of np.array_split(perm, n_batches)
    small, extra = divmod(dataset.n, n_batches)
    bounds = [b * small + min(b, extra) for b in range(n_batches + 1)]
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
        for b in range(n_batches):
            idx = perm[bounds[b]:bounds[b + 1]]
            xb, yb = x_all.take(idx, axis=0), y_all.take(idx, axis=0)
            kl = kl_weights[b]
            terms = _penalty_terms(vp, prior, sigma, kl)
            grad.fill(0.0)
            obj = 0.0
            for _ in range(config.mc_samples):
                eps = NoiseDraw.draw(size, config.seed, draw_index)
                draw_index += 1
                gm, gr, data_nll = _draw_step(
                    topology, vp, sigma, terms, xb, yb, eps.eps,
                    config.noise_variance,
                )
                grad[:size] += gm
                grad[size:] += gr
                obj += data_nll + kl * penalty_total(vp, prior, sigma=sigma)
            grad /= config.mc_samples
            obj /= config.mc_samples
            if not math.isfinite(obj):
                raise NumericalAbort(step, "objective")
            if not np.isfinite(grad).all():
                bad_m = not np.isfinite(grad[:size]).all()
                raise NumericalAbort(step, "grad_m" if bad_m else "grad_rho")
            np.subtract(theta, opt.update(grad), out=theta, where=keep)
            sigma = sigma_of_rho(vp.rho)
            p = optimal_p(vp.m, sigma, prior)
            vp.p = p if active is None else np.where(active, p, vp.p)
            epoch_obj += obj
            step += 1
        objective[epoch] = epoch_obj
        train_loss[epoch] = _train_loss(topology, vp, x_all, y_all, loss_out)
        wall_ms[epoch] = (time.perf_counter() - t0) * 1e3
    return TrainReport(
        objective=objective, train_loss=train_loss, wall_ms=wall_ms,
        params=vp, seed=config.seed, config=config, draw_count=draw_index,
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
    averages the forward outputs of ``samples`` pathwise draws.
    """
    if mode == "mean":
        out, _ = forward(topology, _mean_weights(vp), x)
        return out
    if mode == "mc":
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        draws = noise
        if draws is None:
            draws = [NoiseDraw.draw(len(vp), seed, s) for s in range(samples)]
        elif isinstance(draws, NoiseDraw):
            draws = [draws]
        acc = None
        for draw in draws:
            out, _ = forward(topology, sample_weights(vp, draw), x)
            acc = out if acc is None else acc + out
        return acc / len(draws)
    raise ValueError(f"mode must be 'mean' or 'mc', got {mode!r}")


def predict_proba(topology, vp, x, **kwargs):
    """Class probabilities for a softmax-head network."""
    return apply_head("softmax", predict(topology, vp, x, **kwargs))

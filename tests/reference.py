"""A reference trainer: ``train`` written out as the module docstrings
state the algorithm, allocating freely.

It has no workspace, no shared row buffers, no penalty screen and no
in-place arithmetic, and it imports no private name of the library: only
the ``svi`` closed forms, ``minibatch_weights`` and the optimizer and
init constants.  It draws its noise as the stream is defined,
``np.random.default_rng([seed, index])``, and sums its own transcription
of the penalty R over the active entries, so the library's block-seeded
draws and its one R body are checked, not shared.
Every expression keeps the operands and order of the library's, so a
fixed seed must give the library's bits; ``tests/test_reference.py``
requires that on random configurations.
"""

import numpy as np

from sparsebnn.svi import (
    VariationalParams, dsigma_drho, grad_penalty, optimal_p, sigma_of_rho,
)
from sparsebnn.training import (
    ADAM_BETA1, ADAM_BETA2, ADAM_EPS, INIT_M_STD, INIT_RHO, minibatch_weights,
)


def layers(topology, w):
    """(W, b) per affine layer from the canonical flat layout."""
    out, offset = [], 0
    for fi, fo in zip(topology.layer_sizes[:-1], topology.layer_sizes[1:]):
        W = w[offset:offset + fi * fo].reshape(fi, fo)
        offset += fi * fo
        out.append((W, w[offset:offset + fo]))
        offset += fo
    return out


def activate(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    return z


def net_forward(topology, w, x):
    """(outputs, inputs of every affine layer): a_0 = x, a_1 .. a_L."""
    acts, a = [], x
    params = layers(topology, w)
    for l, (W, b) in enumerate(params):
        acts.append(a)
        z = a @ W + b
        a = activate(topology.hidden_activation, z) if l < len(params) - 1 else z
    return a, acts


def net_backward(topology, w, acts, g_out):
    """Flat gradient of the loss whose output gradient is ``g_out``."""
    params = layers(topology, w)
    grads = [None] * len(params)
    delta = g_out
    for l in range(len(params) - 1, -1, -1):
        W, _ = params[l]
        grads[l] = ((acts[l].T @ delta).ravel(), delta.sum(axis=0))
        if l > 0:
            delta = delta @ W.T
            if topology.hidden_activation == "relu":
                delta = delta * (acts[l] > 0.0)
            elif topology.hidden_activation == "tanh":
                delta = delta * (1.0 - acts[l] * acts[l])
    return np.concatenate([g for pair in grads for g in pair])


def column(outputs, y):
    t = np.asarray(y, dtype=float)
    return t[:, None] if t.ndim == 1 and outputs.shape[1] == 1 else t


def batch_step(topology, vp, prior, x, y, noises, kl, noise_variance,
               with_penalty):
    """(objective, grad_m, grad_rho) of one batch averaged over ``noises``:
    per draw W = m + sigma * eps, the Gaussian NLL and its gradient, the
    penalty gradient added, and with ``with_penalty`` kl * sum R added to
    the objective; pruned entries' gradients are zero."""
    sigma = sigma_of_rho(vp.rho)
    d_m, d_s2 = grad_penalty(vp.m, sigma, vp.p, prior)
    sp = dsigma_drho(vp.rho)
    pen_m = kl * d_m
    pen_rho = kl * d_s2 * 2.0 * sigma * sp
    grad_m = np.zeros(len(vp))
    grad_rho = np.zeros(len(vp))
    obj = 0.0
    for e in noises:
        w = vp.m + sigma * e
        if vp.active is not None:
            w = np.where(vp.active, w, 0.0)
        outputs, acts = net_forward(topology, w, x)
        resid = outputs - column(outputs, y)
        data_nll = float(0.5 * (resid * resid).sum() / noise_variance
                         + 0.5 * resid.size
                         * np.log(2.0 * np.pi * noise_variance))
        g_w = net_backward(topology, w, acts, resid / noise_variance)
        grad_m = grad_m + (g_w + pen_m)
        grad_rho = grad_rho + (g_w * e * sp + pen_rho)
        pen = kl * penalty_sum(vp, sigma, prior) if with_penalty else 0.0
        obj = obj + (data_nll + pen)
    if vp.active is not None:
        grad_m = np.where(vp.active, grad_m, 0.0)
        grad_rho = np.where(vp.active, grad_rho, 0.0)
    return obj / len(noises), grad_m / len(noises), grad_rho / len(noises)


def xlogx(x):
    """x log x, with 0 log 0 = 0."""
    return x * np.log(np.where(x == 0.0, 1.0, x))


def penalty_sum(vp, sigma, prior):
    """sum_i R_i over the active entries, as allocating arrays: R as the
    ``svi`` module docstring states it, each bracket's log(tau p / (sigma
    pi)) split into log(tau / pi), x log x and -log sigma, whose two
    shares add up to one -log sigma."""
    m, p = vp.m, vp.p
    if vp.active is not None:
        act = np.flatnonzero(vp.active)
        m, sigma, p = m.take(act), sigma.take(act), p.take(act)
    s = m * m + sigma * sigma
    slab = s / (2.0 * prior.tau1**2) + np.log(prior.tau1 / prior.pi)
    spike = s / (2.0 * prior.tau0**2) + np.log(prior.tau0 / (1.0 - prior.pi))
    q = 1.0 - p
    entropy = xlogx(p) + xlogx(q)
    return float((p * slab + q * spike - np.log(sigma) + entropy).sum())


def reference_train(topology, prior, dataset, config, init=None,
                    diagnostics=True):
    """(m, rho, p, objective, train_loss) of ``train``'s run; the two
    traces are None with ``diagnostics`` off."""
    n, size = dataset.n, topology.n_params
    master = np.random.default_rng(config.seed)
    if init is None:
        m = master.normal(0.0, INIT_M_STD, size)
        rho = np.full(size, INIT_RHO)
        init = VariationalParams(m, rho, optimal_p(m, sigma_of_rho(rho), prior))
    vp = init.copy()
    n_batches = -(-n // config.batch_size)
    kl_weights = minibatch_weights(n_batches, config.kl_schedule)
    m1 = m2 = np.zeros(2 * size)
    objective, train_loss = np.zeros(config.epochs), np.zeros(config.epochs)
    t = draw_index = 0
    for epoch in range(config.epochs):
        perm = master.permutation(n)
        for b, idx in enumerate(np.array_split(perm, n_batches)):
            noises = [np.random.default_rng([config.seed, i]).standard_normal(size)
                      for i in range(draw_index, draw_index + config.mc_samples)]
            draw_index += config.mc_samples
            obj, g_m, g_rho = batch_step(
                topology, vp, prior, dataset.X[idx], dataset.y[idx], noises,
                kl_weights[b], config.noise_variance, diagnostics)
            grad = np.concatenate([g_m, g_rho])
            if config.optimizer == "adam":
                t += 1
                m1 = m1 * ADAM_BETA1 + (1.0 - ADAM_BETA1) * grad
                m2 = m2 * ADAM_BETA2 + (1.0 - ADAM_BETA2) * grad * grad
                mhat = m1 / (1.0 - ADAM_BETA1**t)
                vhat = m2 / (1.0 - ADAM_BETA2**t)
                update = config.learning_rate * mhat / (np.sqrt(vhat) + ADAM_EPS)
            else:
                update = config.learning_rate * grad
            theta = np.concatenate([vp.m, vp.rho]) - update
            p = optimal_p(theta[:size], sigma_of_rho(theta[size:]), prior)
            if vp.active is not None:
                p = np.where(vp.active, p, vp.p)
            vp = VariationalParams(theta[:size], theta[size:], p, vp.active)
            objective[epoch] += obj
        if diagnostics:
            w = vp.m if vp.active is None else np.where(vp.active, vp.m, 0.0)
            outputs, _ = net_forward(topology, w, dataset.X)
            train_loss[epoch] = float(
                np.mean((outputs - column(outputs, dataset.y)) ** 2))
    if not diagnostics:
        objective = train_loss = None
    return vp.m, vp.rho, vp.p, objective, train_loss

"""``train``, ``objective_estimate`` and ``step_gradients`` equal the
reference trainer of ``tests/reference.py`` bit for bit.

The goldens pin five configurations by hash, and those hashes hold only
on the SIMD target they were recorded on.  These tests draw random small
configurations instead and compare with an allocating transcription of
the algorithm, so a rewrite of the step that keeps every expression's
operands and order passes them on any CPU.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebnn import (
    Dataset, NetworkTopology, SpikeSlabPrior, TrainConfig,
    VariationalParams, objective_estimate, optimal_p, sigma_of_rho,
    step_gradients, train,
)
from reference import batch_step, reference_train

# together about 2 s; 300 examples of each held when this was written
TRAIN_CASES = settings(max_examples=150, deadline=None)
STEP_CASES = settings(max_examples=100, deadline=None)

topologies = st.builds(
    lambda n_in, widths, act: NetworkTopology((n_in, *widths, 1), act),
    st.integers(1, 4), st.lists(st.integers(1, 8), min_size=1, max_size=2),
    st.sampled_from(["relu", "tanh", "identity"]))
priors = st.builds(SpikeSlabPrior, st.floats(0.2, 0.8), st.floats(1.0, 2.5),
                   st.floats(0.05, 0.5))
seeds = st.integers(0, 2**32 - 1)


def _state(topology, prior, rng, pruned):
    """A random (m, rho, p); with ``pruned`` about half the entries are
    pruned the way ``prune`` leaves them: m = 0, p = 0, rho frozen."""
    size = topology.n_params
    m = rng.normal(0.0, 0.5, size)
    rho = rng.uniform(-3.0, 0.0, size)
    p = optimal_p(m, sigma_of_rho(rho), prior)
    if not pruned:
        return VariationalParams(m, rho, p)
    keep = rng.random(size) < 0.5
    return VariationalParams(np.where(keep, m, 0.0), rho,
                             np.where(keep, p, 0.0), keep)


def _batch(topology, rng, rows):
    return (rng.standard_normal((rows, topology.n_inputs)),
            rng.standard_normal(rows))


def _same(a, b):
    return a.tobytes() == b.tobytes()


@TRAIN_CASES
@given(topology=topologies, prior=priors, seed=seeds,
       n=st.integers(5, 120), batch=st.integers(1, 50),
       epochs=st.integers(1, 3), draws=st.integers(1, 3),
       optimizer=st.sampled_from(["sgd", "adam"]),
       schedule=st.sampled_from(["uniform", "blundell"]),
       noise_variance=st.sampled_from([1.0, 0.5]),
       pruned=st.integers(0, 4).map(lambda k: k < 2),   # about 40%
       diagnostics=st.booleans())
def test_train_equals_the_reference_trainer(
        topology, prior, seed, n, batch, epochs, draws, optimizer, schedule,
        noise_variance, pruned, diagnostics):
    rng = np.random.default_rng(seed)
    x, y = _batch(topology, rng, n)
    ds = Dataset(x, y, [f"x{j}" for j in range(topology.n_inputs)])
    init = _state(topology, prior, rng, True) if pruned else None
    config = TrainConfig(
        epochs=epochs, batch_size=batch, optimizer=optimizer,
        learning_rate=0.002 if optimizer == "sgd" else 0.01,
        mc_samples=draws, kl_schedule=schedule, seed=seed % 1000,
        noise_variance=noise_variance)
    report = train(topology, prior, ds, config, init=init,
                   diagnostics=diagnostics)
    m, rho, p, objective, train_loss = reference_train(
        topology, prior, ds, config, init=init, diagnostics=diagnostics)
    got = report.params
    assert _same(got.m, m) and _same(got.rho, rho) and _same(got.p, p)
    if diagnostics:
        assert _same(report.objective, objective)
        assert _same(report.train_loss, train_loss)
    else:
        assert report.objective is None and report.train_loss is None


@STEP_CASES
@given(topology=topologies, prior=priors, seed=seeds,
       rows=st.integers(1, 50), draws=st.integers(1, 3),
       kl=st.floats(0.01, 1.0), noise_variance=st.sampled_from([1.0, 0.5]),
       pruned=st.booleans())
def test_one_batch_functions_equal_the_reference_step(
        topology, prior, seed, rows, draws, kl, noise_variance, pruned):
    rng = np.random.default_rng(seed)
    vp = _state(topology, prior, rng, pruned)
    x, y = _batch(topology, rng, rows)
    noise = [np.random.default_rng([seed, i]).standard_normal(topology.n_params)
             for i in range(draws)]
    obj = objective_estimate(topology, vp, prior, x, y, noise, kl_weight=kl,
                             noise_variance=noise_variance)
    want, _, _ = batch_step(topology, vp, prior, x, y, noise, kl,
                            noise_variance, True)
    assert obj == want
    g_m, g_rho = step_gradients(topology, vp, prior, x, y, noise[0],
                                kl_weight=kl, noise_variance=noise_variance)
    _, want_m, want_rho = batch_step(topology, vp, prior, x, y, [noise[0]],
                                     kl, noise_variance, False)
    assert _same(g_m, want_m) and _same(g_rho, want_rho)

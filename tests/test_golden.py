"""Golden numerics: short fixed-seed trainings pinned by SHA-256.

Each run hashes its final ``(m, rho, p)`` and its per-epoch ``objective``
and ``train_loss`` as little-endian float64 bytes.  A refactor that keeps
the arithmetic keeps every hash; one that reorders floating-point work
changes them and must say so.  The hashes were recorded with numpy 2.4.6
and scipy 1.17.1 on x86-64 (OpenBLAS); another numpy, BLAS or CPU may
round differently.
"""

import hashlib

import numpy as np
import pytest

from sparsebnn import (
    NetworkTopology,
    SpikeSlabPrior,
    SyntheticSpec,
    TrainConfig,
    gen_sparse_regression,
    init_params,
    prune,
    standardize_fit_apply,
    train,
)

PRIOR = SpikeSlabPrior(pi=0.5, tau1=1.0, tau0=0.1)


def _data(seed):
    spec = SyntheticSpec(n=200, n_features=6, alpha=2.0, pi_active=0.5,
                         link="linear", seed=seed)
    ds, _, _ = standardize_fit_apply(gen_sparse_regression(spec))
    return ds


def _adam_uniform_relu():
    return train(NetworkTopology((6, 8, 4, 1)), PRIOR, _data(0),
                 TrainConfig(epochs=6, batch_size=48, seed=3))


def _sgd_blundell_tanh():
    return train(NetworkTopology((6, 8, 1), hidden_activation="tanh"), PRIOR,
                 _data(1),
                 TrainConfig(epochs=5, batch_size=64, learning_rate=1e-3,
                             optimizer="sgd", kl_schedule="blundell",
                             mc_samples=3, seed=4))


def _pruned_init():
    topology = NetworkTopology((6, 8, 4, 1))
    config = TrainConfig(epochs=5, batch_size=40, seed=5)
    start = init_params(topology, PRIOR, config, np.random.default_rng(6))
    _, pruned = prune(start, "inclusion_p", 0.5)
    return train(topology, PRIOR, _data(2), config, init=pruned)


def digests(report) -> dict:
    def sha(*arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        return h.hexdigest()

    vp = report.params
    return {
        "params": sha(vp.m, vp.rho, vp.p),
        "objective": sha(report.objective),
        "train_loss": sha(report.train_loss),
    }


RUNS = {
    "adam_uniform_relu": _adam_uniform_relu,
    "sgd_blundell_tanh_3draws": _sgd_blundell_tanh,
    "pruned_init": _pruned_init,
}

GOLDEN = {
    "adam_uniform_relu": {
        "params": "7e6fb2d12cfeb8422e1ee6ffd6e8d47d90e7bd313eb620c0f523429298df133d",
        "objective": "c92e323ce31bd640d0a6c5ab8000666fb4798a7c4bbbd37e852edc18a44ae7c5",
        "train_loss": "127dbc0dd00d413f30920d3de191bf18101f92f62e9f1775e889e58557579b48",
    },
    "sgd_blundell_tanh_3draws": {
        "params": "fcbf21322c3787e792261807059d443f53183e1fd5357c89939e77db8ba2e404",
        "objective": "d3e5ecfa89e77da27346e8de6cb85ff91e8c7d589272d38bbb72a16a27e99621",
        "train_loss": "85c571fd7f2feba82d1e281d5fba41d8b692bde20498345811a10629c1cde0f3",
    },
    "pruned_init": {
        "params": "b3cc51d836da9b03ca5125887b51b836f6d8bde12ecb112c4e16ea2ce1c43dc4",
        "objective": "1a9a844657c75a88a07c9adc7cb159ea82f176275b4e121ad936c7ad8faf576d",
        "train_loss": "3f024631373e2ae170bf38662a0d146ec50f2b61ec8ae5bdf5479aa08a697c96",
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_fixed_seed_run_matches_golden_hashes(name):
    assert digests(RUNS[name]()) == GOLDEN[name]

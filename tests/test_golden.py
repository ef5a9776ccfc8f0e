"""Golden numerics: short fixed-seed trainings pinned by SHA-256.

Each run hashes its final ``(m, rho, p)`` and its per-epoch ``objective``
and ``train_loss`` as little-endian float64 bytes; the same run with
``diagnostics=False`` must give the same ``(m, rho, p)``.  A refactor that
keeps the arithmetic keeps every hash; one that reorders floating-point
work changes them and must say so.  Beside each hash, the final objective,
``sum(p)`` and ``m[:3]`` are pinned as values at a relative tolerance of
1e-12, so a change that moves bits shows how far the numbers moved.  The
pins were recorded with numpy 2.4.6 on x86-64 (OpenBLAS, AVX-512); another
numpy, BLAS or CPU may round differently.  In particular the hashes depend
on the SIMD ``exp``/``log``/``log1p`` kernels numpy dispatches to on the
CPU at hand, since softplus, the logistic and x*log x are built from them,
so a failed hash assertion names numpy's dispatch target on this CPU.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import sparsebnn.compression
import sparsebnn.svi
import sparsebnn.training
from sparsebnn import (
    NetworkTopology,
    SpikeSlabPrior,
    SyntheticSpec,
    TrainConfig,
    cv_threshold,
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


def _adam_uniform_relu(**kw):
    return train(NetworkTopology((6, 8, 4, 1)), PRIOR, _data(0),
                 TrainConfig(epochs=6, batch_size=48, seed=3), **kw)


def _sgd_blundell_tanh(**kw):
    return train(NetworkTopology((6, 8, 1), hidden_activation="tanh"), PRIOR,
                 _data(1),
                 TrainConfig(epochs=5, batch_size=64, learning_rate=1e-3,
                             optimizer="sgd", kl_schedule="blundell",
                             mc_samples=3, seed=4), **kw)


def _pruned_init(**kw):
    topology = NetworkTopology((6, 8, 4, 1))
    config = TrainConfig(epochs=5, batch_size=40, seed=5)
    start = init_params(topology, PRIOR, config, np.random.default_rng(6))
    _, pruned = prune(start, "inclusion_p", 0.5)
    return train(topology, PRIOR, _data(2), config, init=pruned, **kw)


def _pruned_sgd_blundell_tanh(**kw):
    topology = NetworkTopology((6, 8, 4, 1), hidden_activation="tanh")
    config = TrainConfig(epochs=5, batch_size=64, learning_rate=1e-3,
                         optimizer="sgd", kl_schedule="blundell",
                         mc_samples=3, seed=8)
    start = init_params(topology, PRIOR, config, np.random.default_rng(9))
    _, pruned = prune(start, "inclusion_p", 0.5)
    return train(topology, PRIOR, _data(3), config, init=pruned, **kw)


def _adam_blundell_identity_2draws(**kw):
    return train(NetworkTopology((6, 8, 4, 1), hidden_activation="identity"),
                 PRIOR, _data(4),
                 TrainConfig(epochs=5, batch_size=50, kl_schedule="blundell",
                             mc_samples=2, seed=10), **kw)


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _params_sha(report):
    vp = report.params
    return _sha(vp.m, vp.rho, vp.p)


def _pin_note() -> str:
    """What a failed hash pin says: the CPU the pins were recorded on and
    the target numpy dispatches to here (its highest active one)."""
    active = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    here = active[-1] if active else "baseline only"
    return (f"hash pins were recorded with numpy 2.4.6 on an AVX-512 CPU; "
            f"numpy dispatches to {here} here")


def digests(report) -> dict:
    return {
        "params": _params_sha(report),
        "objective": _sha(report.objective),
        "train_loss": _sha(report.train_loss),
    }


RUNS = {
    "adam_uniform_relu": _adam_uniform_relu,
    "sgd_blundell_tanh_3draws": _sgd_blundell_tanh,
    "pruned_init": _pruned_init,
    "pruned_sgd_blundell_tanh_3draws": _pruned_sgd_blundell_tanh,
    "adam_blundell_identity_2draws": _adam_blundell_identity_2draws,
}

GOLDEN = {
    "adam_uniform_relu": {
        "params": "a2bb34b509d4d3c52e7ca25c3c930e3c5ab491436d3bace014510bcf25d79a36",
        "objective": "c92e323ce31bd640d0a6c5ab8000666fb4798a7c4bbbd37e852edc18a44ae7c5",
        "train_loss": "127dbc0dd00d413f30920d3de191bf18101f92f62e9f1775e889e58557579b48",
    },
    "sgd_blundell_tanh_3draws": {
        "params": "15965d52a11a7dfb829b70e571da48b8516b20ca74e1215fb433fa223fff0b18",
        "objective": "d3e5ecfa89e77da27346e8de6cb85ff91e8c7d589272d38bbb72a16a27e99621",
        "train_loss": "85c571fd7f2feba82d1e281d5fba41d8b692bde20498345811a10629c1cde0f3",
    },
    "pruned_init": {
        "params": "a1272dbdb8fa435fb44c677b141fa5fe362a4c4c443b8f3fa23049dec8f21f9c",
        "objective": "1a9a844657c75a88a07c9adc7cb159ea82f176275b4e121ad936c7ad8faf576d",
        "train_loss": "3f024631373e2ae170bf38662a0d146ec50f2b61ec8ae5bdf5479aa08a697c96",
    },
    "pruned_sgd_blundell_tanh_3draws": {
        "params": "007939a29b7343adba8ea75a569754b00edb97301db876aa423947ac2f5e37cc",
        "objective": "f70fb0c0d4d060c345007bc232e516ce03fea3e26be9a59a54ebca055e3c5187",
        "train_loss": "301c2b3b963b32f0d00eb9d18f81b7bf33006805743371e074ffc8e5055a5e85",
    },
    "adam_blundell_identity_2draws": {
        "params": "12c311bf5515196d34ed4f0963bb005a47cc84dcb87e326026109ccefaceafa7",
        "objective": "e9c468c075fc355c5eb762d9d3ef5bf06fa10a5473daba05769358ec2cdd1f19",
        "train_loss": "83baa394baff7f188e810a06f43d1a93f0604aeae0c5e1e218ff3ae5276f7e5d",
    },
}

# (final objective, sum(p), m[:3]); a pruned entry of m is exactly 0.0
GOLDEN_VALUES = {
    "adam_uniform_relu": (
        404.73115302340716, 10.696329367344575,
        [-0.026716499289926435, 0.014048985237064118, -0.0047375615455934085],
    ),
    "sgd_blundell_tanh_3draws": (
        385.58476837481805, 8.294631103894478,
        [-0.039151116153746196, -0.013839764056112338, 0.11402429229502956],
    ),
    "pruned_init": (
        346.3513981425703, 5.27035100964242,
        [-0.0203550121997344, -0.0218266588681099, -0.01371542146761291],
    ),
    "pruned_sgd_blundell_tanh_3draws": (
        371.3426195931735, 7.39295047882106,
        [-0.051359215484915864, 0.0, -0.11200961185387949],
    ),
    "adam_blundell_identity_2draws": (
        415.2779618629702, 10.298672036137534,
        [0.014555750382085729, 0.017994550738146205, 0.018933995675655332],
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_fixed_seed_run_matches_golden_hashes(name):
    report = RUNS[name]()
    objective, sum_p, m3 = GOLDEN_VALUES[name]
    close = dict(rtol=1e-12, atol=0)
    np.testing.assert_allclose(report.objective[-1], objective, **close)
    np.testing.assert_allclose(np.sum(report.params.p), sum_p, **close)
    np.testing.assert_allclose(report.params.m[:3], m3, **close)
    assert digests(report) == GOLDEN[name], _pin_note()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_diagnostics_off_keeps_the_golden_params(name, monkeypatch):
    # the step, the abort path and the epoch loss run in training; the svi
    # spy catches a penalty computed through svi's own name
    calls = Counter()
    for module, attr in ((sparsebnn.svi, "penalty_total"),
                         (sparsebnn.training, "penalty_total"),
                         (sparsebnn.training, "_train_loss")):
        real = getattr(module, attr)

        def counted(*args, _real=real, _attr=attr, **kwargs):
            calls[_attr] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    report = RUNS[name](diagnostics=False)
    assert (report.objective, report.train_loss) == (None, None)
    assert calls == Counter()
    assert _params_sha(report) == GOLDEN[name]["params"], _pin_note()
    # the counters see the diagnostics when they are on
    RUNS[name]()
    assert calls["penalty_total"] > 0 and calls["_train_loss"] > 0


# every train and predict call inside one small cv_threshold, in order:
# (SHA-256 of each train's X, y and final (m, rho, p) and each predict's
# input and output, calls made, chosen proportion).  The runs' objective
# is not hashed: cv_threshold trains with diagnostics off, so it has none.
CV_GOLDEN = (
    "b6c36ccb68225e34fe0f9de098ed5dc1215566cc6eed3ddb3e752bd318547923", 27, 0.1,
)


def test_cv_threshold_matches_golden_call_stream(monkeypatch):
    h = hashlib.sha256()
    calls = []
    real_train = sparsebnn.compression.train
    real_predict = sparsebnn.compression.predict

    def put(name, *arrays):
        calls.append(name)
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())

    def spy_train(topology, prior, dataset, config, **kwargs):
        report = real_train(topology, prior, dataset, config, **kwargs)
        vp = report.params
        put("train", dataset.X, dataset.y, vp.m, vp.rho, vp.p)
        return report

    def spy_predict(topology, vp, X):
        out = real_predict(topology, vp, X)
        put("predict", X, out)
        return out

    monkeypatch.setattr(sparsebnn.compression, "train", spy_train)
    monkeypatch.setattr(sparsebnn.compression, "predict", spy_predict)
    spec = SyntheticSpec(n=300, n_features=12, alpha=2.0, pi_active=0.3,
                         link="linear", seed=11)
    ds, _, _ = standardize_fit_apply(gen_sparse_regression(spec))
    proportion = cv_threshold(
        NetworkTopology((12, 8, 4, 1)), PRIOR, ds,
        TrainConfig(epochs=8, batch_size=64, seed=2),
        folds=3, candidate_proportions=(0.1, 0.25, 0.5, 1.0), seed=7,
    )
    assert calls.count("train") == 3 * (1 + 4)
    assert (h.hexdigest(), len(calls), proportion) == CV_GOLDEN, _pin_note()

"""Optimization loop, prediction modes, and checkpoint round trips."""

import math

import numpy as np
import pytest

from sparsebnn import (
    Dataset,
    NetworkTopology,
    NoiseDraw,
    NumericalAbort,
    ShapeMismatch,
    SpikeSlabPrior,
    TrainConfig,
    VariationalParams,
    gen_two_feature,
    load_checkpoint,
    minibatch_weights,
    objective_estimate,
    optimal_p,
    predict,
    save_checkpoint,
    split,
    standardize_fit_apply,
    train,
)
from sparsebnn.training import predict_proba


class TestMinibatchWeights:
    def test_uniform_four_batches(self):
        np.testing.assert_allclose(
            minibatch_weights(4, "uniform"), [0.25] * 4, rtol=0
        )

    def test_geometric_two_batches(self):
        w = minibatch_weights(2, "blundell")
        np.testing.assert_allclose(w, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-15)

    @pytest.mark.parametrize("n_batches", [1, 3, 10, 100, 1000])
    def test_geometric_decreasing_and_normalized(self, n_batches):
        w = minibatch_weights(n_batches, "blundell")
        assert np.all(np.diff(w) < 0) or n_batches == 1
        assert abs(w.sum() - 1.0) < 1e-12

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="kl_schedule"):
            minibatch_weights(4, "linear")


def _linear_dataset(n=400, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = 2.0 * x + rng.standard_normal(n)
    return Dataset(x[:, None], y, ["x"])


class TestTrain:
    def test_beats_least_squares_on_linear_data(self):
        ds = _linear_dataset()
        A = np.c_[ds.X[:, 0], np.ones(ds.n)]
        coef, *_ = np.linalg.lstsq(A, ds.y, rcond=None)
        ols_mse = float(np.mean((A @ coef - ds.y) ** 2))
        topo = NetworkTopology((1, 1, 1), hidden_activation="identity")
        prior = SpikeSlabPrior(0.5, 2.0, 0.2)
        report = train(
            topo, prior, ds,
            TrainConfig(epochs=150, batch_size=64, learning_rate=0.02, seed=1),
        )
        assert report.train_loss[-1] <= 1.2 * ols_mse
        assert report.train_loss[-1] < report.train_loss[0]

    def test_pure_noise_with_sparse_prior_suppresses_p(self):
        rng = np.random.default_rng(5)
        ds = Dataset(
            rng.standard_normal((500, 10)), rng.standard_normal(500),
            [f"x{i}" for i in range(10)],
        )
        topo = NetworkTopology((10, 8, 1))
        prior = SpikeSlabPrior(0.1, 1.0, 0.1)
        report = train(
            topo, prior, ds,
            TrainConfig(epochs=120, batch_size=128, learning_rate=0.01,
                        seed=2),
        )
        assert np.median(report.params.p) < 0.5

    def test_same_seed_reproduces_every_numeric_field(self):
        ds = _linear_dataset(n=100, seed=3)
        topo = NetworkTopology((1, 2, 1), hidden_activation="tanh")
        prior = SpikeSlabPrior(0.5, 1.0, 0.2)
        config = TrainConfig(epochs=10, batch_size=32, seed=7)
        a = train(topo, prior, ds, config)
        b = train(topo, prior, ds, config)
        assert np.array_equal(a.objective, b.objective)
        assert np.array_equal(a.train_loss, b.train_loss)
        assert np.array_equal(a.params.m, b.params.m)
        assert np.array_equal(a.params.rho, b.params.rho)
        assert np.array_equal(a.params.p, b.params.p)

    def test_inclusion_probabilities_track_closed_form_after_training(self):
        ds = _linear_dataset(n=200, seed=9)
        topo = NetworkTopology((1, 3, 1))
        prior = SpikeSlabPrior(0.4, 1.2, 0.15)
        report = train(
            topo, prior, ds, TrainConfig(epochs=20, batch_size=64, seed=4)
        )
        vp = report.params
        np.testing.assert_allclose(
            vp.p, optimal_p(vp.m, vp.sigma, prior), atol=1e-12, rtol=0
        )

    def test_divergence_raises_numerical_abort_with_diagnostics(self):
        ds = _linear_dataset(n=64, seed=1)
        topo = NetworkTopology((1, 1, 1), hidden_activation="identity")
        prior = SpikeSlabPrior(0.5, 2.0, 0.2)
        config = TrainConfig(
            epochs=5, batch_size=64, learning_rate=1e200, optimizer="sgd",
            seed=1,
        )
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalAbort) as err:
                train(topo, prior, ds, config)
        assert err.value.step >= 0
        assert err.value.quantity in ("objective", "grad_m", "grad_rho")
        assert str(err.value.step) in str(err.value)

    def test_feature_count_mismatch_rejected(self):
        ds = _linear_dataset(n=50)
        topo = NetworkTopology((3, 2, 1))
        with pytest.raises(ValueError, match="features"):
            train(topo, SpikeSlabPrior(0.5, 1.0, 0.1), ds, TrainConfig(epochs=1))

    def test_epoch_count_and_step_count_recorded(self):
        ds = _linear_dataset(n=100)
        topo = NetworkTopology((1, 2, 1))
        config = TrainConfig(epochs=7, batch_size=30, seed=0)
        report = train(topo, SpikeSlabPrior(0.5, 1.0, 0.1), ds, config)
        assert report.objective.shape == (7,)
        # ceil(100/30) = 4 batches per epoch, one draw per step
        assert report.draw_count == 7 * 4

    def test_smoothed_objective_descends(self):
        ds = gen_two_feature(0.5, 2000, seed=1)
        tr, te = split(ds, 0.9, seed=0)
        tr_s, _, _ = standardize_fit_apply(tr, te)
        topo = NetworkTopology((2, 20, 10, 1))
        prior = SpikeSlabPrior(0.5, 1.0, 0.1)
        report = train(
            topo, prior, tr_s,
            TrainConfig(epochs=100, batch_size=256, learning_rate=0.01,
                        seed=3),
        )
        smooth = np.convolve(report.objective, np.ones(10) / 10, mode="valid")
        # plateau wiggle is allowed; sustained increases are not
        assert np.all(np.diff(smooth) <= 1e-3 * np.abs(smooth[:-1]))
        assert smooth[-1] < smooth[0]

    def test_batch_objectives_decompose_the_full_objective(self):
        # with a frozen draw and the uniform schedule, summing the batch
        # objectives over a fixed partition reproduces the full-batch value
        rng = np.random.default_rng(15)
        ds = Dataset(
            rng.standard_normal((90, 2)), rng.standard_normal(90), ["a", "b"]
        )
        topo = NetworkTopology((2, 4, 1), hidden_activation="tanh")
        prior = SpikeSlabPrior(0.5, 1.0, 0.2)
        m = rng.normal(0, 0.3, topo.n_params)
        rho = np.full(topo.n_params, -1.5)
        vp = VariationalParams(
            m, rho, optimal_p(m, np.logaddexp(0, rho), prior)
        )
        eps = NoiseDraw.draw(topo.n_params, 99, 0)
        n_batches = 3
        weights = minibatch_weights(n_batches, "uniform")
        parts = np.array_split(np.arange(90), n_batches)
        total = sum(
            objective_estimate(
                topo, vp, prior, ds.X[idx], ds.y[idx],
                noise=[eps], kl_weight=weights[i],
            )
            for i, idx in enumerate(parts)
        )
        full = objective_estimate(
            topo, vp, prior, ds.X, ds.y, noise=[eps], kl_weight=1.0
        )
        assert total == pytest.approx(full, rel=1e-10)


class TestPredict:
    def _state(self, seed=7):
        rng = np.random.default_rng(seed)
        topo = NetworkTopology((1, 2, 1), hidden_activation="identity")
        m = rng.normal(0, 0.5, topo.n_params)
        vp = VariationalParams(
            m, np.full(topo.n_params, -1.0), np.full(topo.n_params, 0.5)
        )
        return topo, vp, rng.standard_normal((5, 1))

    def test_single_sample_with_zero_noise_equals_mean_mode(self):
        topo, vp, x = self._state()
        mc = predict(
            topo, vp, x, mode="mc", samples=1,
            noise=NoiseDraw.zeros(len(vp)),
        )
        assert np.array_equal(mc, predict(topo, vp, x, mode="mean"))

    def test_mc_average_converges_to_mean_mode_for_linear_net(self):
        # coordinates are independent, so the expectation of a product of
        # distinct weights factorizes and matches the mean-mode output
        topo, vp, x = self._state()
        mc = predict(topo, vp, x, mode="mc", samples=10_000, seed=11)
        mean = predict(topo, vp, x, mode="mean")
        assert np.abs(mc - mean).max() < 0.02  # ~4 standard errors

    def test_zero_parameters_give_zero_mean_prediction(self):
        topo, _, x = self._state()
        vp = VariationalParams(
            np.zeros(topo.n_params), np.zeros(topo.n_params),
            np.zeros(topo.n_params),
        )
        assert np.array_equal(
            predict(topo, vp, x, mode="mean"), np.zeros((5, 1))
        )

    def test_unknown_mode_rejected(self):
        topo, vp, x = self._state()
        with pytest.raises(ValueError, match="mode"):
            predict(topo, vp, x, mode="map")


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        topo = NetworkTopology((3, 4, 1), hidden_activation="tanh")
        prior = SpikeSlabPrior(0.37, 1.234567890123, 0.123456789012)
        vp = VariationalParams(
            rng.standard_normal(topo.n_params),
            rng.standard_normal(topo.n_params),
            rng.random(topo.n_params),
        )
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, topo, prior, vp)
        topo2, prior2, vp2 = load_checkpoint(path)
        assert topo2 == topo
        assert prior2 == prior
        assert np.array_equal(vp2.m, vp.m)
        assert np.array_equal(vp2.rho, vp.rho)
        assert np.array_equal(vp2.p, vp.p)
        assert vp2.active is None

    def test_round_trip_preserves_mask(self, tmp_path):
        rng = np.random.default_rng(22)
        topo = NetworkTopology((2, 2, 1))
        vp = VariationalParams(
            rng.standard_normal(topo.n_params),
            rng.standard_normal(topo.n_params),
            rng.random(topo.n_params),
            active=rng.random(topo.n_params) < 0.5,
        )
        path = tmp_path / "pruned.ckpt"
        save_checkpoint(path, topo, SpikeSlabPrior(0.5, 1.0, 0.1), vp)
        _, _, vp2 = load_checkpoint(path)
        assert np.array_equal(vp2.active, vp.active)

    def test_save_twice_produces_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(23)
        topo = NetworkTopology((2, 3, 1))
        prior = SpikeSlabPrior(0.5, 1.0, 0.1)
        vp = VariationalParams(
            rng.standard_normal(topo.n_params),
            rng.standard_normal(topo.n_params),
            rng.random(topo.n_params),
        )
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        save_checkpoint(a, topo, prior, vp)
        save_checkpoint(b, topo, prior, vp)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_wall_time_is_excluded_from_determinism(self):
        # wall_ms is measured, not derived; everything else must agree
        ds = _linear_dataset(n=60, seed=2)
        topo = NetworkTopology((1, 2, 1))
        prior = SpikeSlabPrior(0.5, 1.0, 0.1)
        config = TrainConfig(epochs=3, batch_size=20, seed=5)
        a = train(topo, prior, ds, config)
        assert a.wall_ms.shape == (3,)
        assert np.all(a.wall_ms >= 0)


def test_fixed_noise_variance_scales_likelihood():
    # doubling the noise variance halves the quadratic part of the nll
    ds = _linear_dataset(n=40, seed=6)
    topo = NetworkTopology((1, 1, 1), hidden_activation="identity")
    prior = SpikeSlabPrior(0.5, 1.0, 0.1)
    rng = np.random.default_rng(0)
    m = rng.normal(0, 0.3, topo.n_params)
    vp = VariationalParams(
        m, np.full(topo.n_params, -2.0), np.full(topo.n_params, 0.5)
    )
    vp.p = optimal_p(vp.m, vp.sigma, prior)
    eps = NoiseDraw.zeros(topo.n_params)
    o1 = objective_estimate(topo, vp, prior, ds.X, ds.y, noise=[eps],
                            noise_variance=1.0)
    o2 = objective_estimate(topo, vp, prior, ds.X, ds.y, noise=[eps],
                            noise_variance=2.0)
    from sparsebnn import penalty_total, sample_weights
    from sparsebnn.network import forward

    out, _ = forward(topo, sample_weights(vp, eps), ds.X)
    quad = 0.5 * np.sum((out[:, 0] - ds.y) ** 2)
    pen = penalty_total(vp, prior)
    assert o1 - pen - 0.5 * 40 * math.log(2 * math.pi) == pytest.approx(quad)
    assert o2 - pen - 0.5 * 40 * math.log(4 * math.pi) == pytest.approx(
        quad / 2.0
    )


def test_nan_weight_aborts_on_objective_not_stale_trace():
    ds = _linear_dataset(n=64, seed=2)
    topo = NetworkTopology((1, 2, 1))
    prior = SpikeSlabPrior(0.5, 1.0, 0.1)
    config = TrainConfig(epochs=2, batch_size=64, seed=3)
    start = VariationalParams(np.zeros(topo.n_params),
                              np.full(topo.n_params, -3.0),
                              np.full(topo.n_params, 0.5))
    start.m[0] = np.nan
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalAbort) as err:
            train(topo, prior, ds, config, init=start)
    assert (err.value.step, err.value.quantity) == (0, "objective")


def test_softmax_head_learns_integer_labels():
    # three classes cut from a noisy linear score; the largest holds 39%
    rng = np.random.default_rng(11)
    x = rng.standard_normal((300, 2))
    score = x[:, 0] + 0.5 * x[:, 1] + 0.3 * rng.standard_normal(300)
    labels = np.digitize(score, [-0.6, 0.4])
    ds = Dataset(x, labels, ["a", "b"])
    topo = NetworkTopology((2, 8, 3), output_head="softmax")
    report = train(topo, SpikeSlabPrior(0.5, 1.0, 0.1), ds,
                   TrainConfig(epochs=60, batch_size=32, seed=5))
    proba = predict_proba(topo, report.params, ds.X)
    assert proba.shape == (300, 3)
    np.testing.assert_allclose(proba.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    error = np.mean(proba.argmax(axis=1) != labels)
    majority = 1.0 - np.bincount(labels).max() / len(labels)
    assert error < majority
    assert report.train_loss[-1] == error


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_epoch_loss_pass_equals_public_predict_bit_for_bit(activation):
    # the loss pass writes into the run's buffers and activates in place;
    # its float must be the one the allocating public path gives
    ds = gen_two_feature(0.5, n=300, seed=4)
    topo = NetworkTopology((2, 7, 5, 1), hidden_activation=activation)
    report = train(topo, SpikeSlabPrior(0.5, 1.0, 0.1), ds,
                   TrainConfig(epochs=3, batch_size=64, seed=6))
    pred = predict(topo, report.params, ds.X)
    assert report.train_loss[-1] == float(np.mean((pred - ds.y[:, None]) ** 2))


def test_softmax_epoch_loss_is_predict_argmax_error_rate():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((200, 3))
    labels = (x[:, 0] > 0).astype(int) + (x[:, 1] > 0.5)
    ds = Dataset(x, labels, ["a", "b", "c"])
    topo = NetworkTopology((3, 6, 3), output_head="softmax")
    report = train(topo, SpikeSlabPrior(0.5, 1.0, 0.1), ds,
                   TrainConfig(epochs=3, batch_size=50, seed=2))
    outputs = predict(topo, report.params, ds.X)
    assert report.train_loss[-1] == float(
        np.mean(outputs.argmax(axis=1) != labels))


@pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
def test_init_of_wrong_length_rejected_before_any_step(monkeypatch, delta):
    ds = _linear_dataset(n=64, seed=2)
    topo = NetworkTopology((1, 3, 1))
    n = topo.n_params + delta
    start = VariationalParams(np.zeros(n), np.full(n, -3.0), np.full(n, 0.5))

    def no_draw(*args, **kwargs):
        raise AssertionError("train drew noise before checking init")

    monkeypatch.setattr(NoiseDraw, "draw", no_draw)
    with pytest.raises(ShapeMismatch) as err:
        train(topo, SpikeSlabPrior(0.5, 1.0, 0.1), ds,
              TrainConfig(epochs=1, batch_size=64, seed=3), init=start)
    assert (err.value.expected, err.value.actual) == ((topo.n_params,), (n,))
    assert str(topo.n_params) in str(err.value) and str(n) in str(err.value)

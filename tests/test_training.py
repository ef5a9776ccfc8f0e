"""Optimization loop, prediction, and checkpoint round trips."""

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
    init_params,
    load_checkpoint,
    minibatch_weights,
    objective_estimate,
    optimal_p,
    predict,
    prune,
    save_checkpoint,
    split,
    standardize_fit_apply,
    step_gradients,
    train,
)
from helpers import traced_peak


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


@pytest.mark.parametrize("field, value", [
    ("learning_rate", math.nan), ("learning_rate", math.inf),
    ("learning_rate", 0.0), ("noise_variance", math.nan),
    ("noise_variance", math.inf), ("noise_variance", -1.0), ("seed", -1),
])
def test_config_rejects_non_finite_or_negative_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be .*got {value}$"):
        TrainConfig(**{field: value})


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

    def test_epoch_count_and_step_count_recorded(self, monkeypatch):
        ds = _linear_dataset(n=100)
        topo = NetworkTopology((1, 2, 1))
        config = TrainConfig(epochs=7, batch_size=30, mc_samples=2, seed=0)
        draw, indices = NoiseDraw.draw, []

        def spy(size, seed, index=0, **kwargs):
            indices.append(index)
            return draw(size, seed, index, **kwargs)

        monkeypatch.setattr(NoiseDraw, "draw", spy)
        report = train(topo, SpikeSlabPrior(0.5, 1.0, 0.1), ds, config)
        assert report.objective.shape == (7,)
        # ceil(100/30) = 4 batches per epoch, two draws per step, each
        # with the next index
        assert indices == list(range(7 * 4 * 2))

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

    def test_zero_parameters_give_zero_mean_prediction(self):
        topo, _, x = self._state()
        vp = VariationalParams(
            np.zeros(topo.n_params), np.zeros(topo.n_params),
            np.zeros(topo.n_params),
        )
        assert np.array_equal(
            predict(topo, vp, x), np.zeros((5, 1))
        )


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
    eps = np.zeros(topo.n_params)
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


def test_nan_weight_aborts_on_objective_with_diagnostics_off():
    ds = _linear_dataset(n=64, seed=2)
    topo = NetworkTopology((1, 2, 1))
    start = VariationalParams(np.zeros(topo.n_params),
                              np.full(topo.n_params, -3.0),
                              np.full(topo.n_params, 0.5))
    start.m[0] = np.nan
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalAbort) as err:
            train(topo, SpikeSlabPrior(0.5, 1.0, 0.1), ds,
                  TrainConfig(epochs=2, batch_size=64, seed=3), init=start,
                  diagnostics=False)
    assert (err.value.step, err.value.quantity) == (0, "objective")


@pytest.mark.parametrize("diagnostics", [True, False],
                         ids=["diagnostics", "bare"])
def test_underflowing_sigma_aborts_on_grad_rho(diagnostics):
    # softplus(-400) squared underflows to 0, so dR/dsigma^2 is infinite
    # while R itself, through -log sigma = 400, stays finite
    ds = _linear_dataset(n=64, seed=2)
    topo = NetworkTopology((1, 2, 1))
    n = topo.n_params
    start = VariationalParams(np.zeros(n), np.full(n, -3.0),
                              np.full(n, 0.5))
    start.rho[0] = -400.0
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalAbort) as err:
            train(topo, SpikeSlabPrior(0.5, 1.0, 0.1), ds,
                  TrainConfig(epochs=2, batch_size=64, seed=3), init=start,
                  diagnostics=diagnostics)
    assert (err.value.step, err.value.quantity) == (0, "grad_rho")


@pytest.mark.parametrize("diagnostics", [True, False],
                         ids=["diagnostics", "bare"])
def test_overflowing_likelihood_gradient_aborts_on_grad_m(diagnostics):
    # the hidden unit's 1e300 activation times an output weight of 1e-300
    # (rho = -700 keeps its sample there) gives outputs near 1 and a finite
    # objective, but the output weight's likelihood gradient, activation
    # times residual (1e307) summed over 64 rows, overflows
    ds = Dataset(np.full((64, 1), 1e150), np.full(64, -1e7), ["x"])
    start = VariationalParams([1e150, 0.0, 1e-300, 0.0],
                              [-30.0, -30.0, -700.0, -30.0], np.full(4, 0.5))
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalAbort) as err:
            train(NetworkTopology((1, 1, 1)), SpikeSlabPrior(0.5, 1.0, 0.1),
                  ds, TrainConfig(epochs=2, batch_size=64, seed=3),
                  init=start, diagnostics=diagnostics)
    assert (err.value.step, err.value.quantity) == (0, "grad_m")


@pytest.mark.parametrize("diagnostics", [True, False],
                         ids=["diagnostics", "bare"])
def test_penalty_overflow_aborts_on_objective_without_diagnostics_too(
        diagnostics):
    # the weight from an all-zero input column leaves the data NLL and the
    # gradient finite, but its m^2 overflows sum R; the diagnostics-off
    # screen on m @ m + sigma @ sigma catches what the penalty value shows
    rng = np.random.default_rng(9)
    x = rng.standard_normal((64, 3))
    x[:, 1] = 0.0
    ds = Dataset(x, rng.standard_normal(64), ["a", "b", "c"])
    topo = NetworkTopology((3, 4, 1))
    n = topo.n_params
    start = VariationalParams(np.zeros(n), np.full(n, -3.0),
                              np.full(n, 0.5))
    start.m[1 * 4 + 2] = 1e155          # input 1 -> hidden unit 2
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalAbort) as err:
            train(topo, SpikeSlabPrior(0.5, 1.0, 0.1), ds,
                  TrainConfig(epochs=2, batch_size=32, seed=3), init=start,
                  diagnostics=diagnostics)
    assert (err.value.step, err.value.quantity) == (0, "objective")


@pytest.mark.parametrize("diagnostics", [True, False],
                         ids=["diagnostics", "bare"])
def test_more_draws_per_step_take_no_more_memory(diagnostics):
    # every draw writes into the run's buffers, so no draw's arrays outlive
    # it: a step of four draws peaks within one parameter vector of a step
    # of one.  The second call of each is measured, past one-off caches.
    rng = np.random.default_rng(8)
    ds = Dataset(rng.standard_normal((600, 30)), rng.standard_normal(600),
                 [f"x{j}" for j in range(30)])
    topo = NetworkTopology((30, 60, 30, 1), hidden_activation="tanh")
    prior = SpikeSlabPrior(0.5, 1.0, 0.1)
    peaks = []
    for draws in (1, 4):
        config = TrainConfig(epochs=2, batch_size=200, mc_samples=draws,
                             seed=5)
        train(topo, prior, ds, config, diagnostics=diagnostics)
        peaks.append(traced_peak(
            lambda: train(topo, prior, ds, config, diagnostics=diagnostics)))
    assert peaks[1] - peaks[0] < 8 * topo.n_params, peaks


@pytest.mark.parametrize("diagnostics", [True, False],
                         ids=["diagnostics", "bare"])
def test_row_buffers_share_one_buffer_per_layer(diagnostics):
    # a shape whose row buffers dwarf the parameter vectors: one run holds
    # one buffer per layer of max(2 * batch, n) rows (n only with
    # diagnostics on), shared by the activations, the deltas, the gates
    # and the epoch loss pass, plus a small fixed slack
    rng = np.random.default_rng(12)
    n, batch = 4000, 2000
    ds = Dataset(rng.standard_normal((n, 2)), rng.standard_normal(n),
                 ["a", "b"])
    topo = NetworkTopology((2, 256, 1), hidden_activation="tanh")
    prior = SpikeSlabPrior(0.5, 1.0, 0.1)
    config = TrainConfig(epochs=2, batch_size=batch, seed=4)
    rows = max(2 * batch, n if diagnostics else 0)
    bound = rows * sum(topo.layer_sizes[1:]) * 8 + 512 * 1024
    train(topo, prior, ds, config, diagnostics=diagnostics)
    peak = traced_peak(
        lambda: train(topo, prior, ds, config, diagnostics=diagnostics))
    assert peak < bound, (peak, bound)


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_a_step_allocates_less_than_one_parameter_vector(optimizer):
    # a masked two-draw shape where parameter vectors dwarf the row
    # buffers: a run peaks within the buffers the training module docstring
    # lists plus one parameter vector, which holds the draws' transient
    # pruned-entry indices and, with diagnostics, the penalty value's
    # transient kept-entry indices
    rng = np.random.default_rng(21)
    n, batch, epochs = 40, 20, 2
    ds = Dataset(rng.standard_normal((n, 60)), rng.standard_normal(n),
                 [f"x{j}" for j in range(60)])
    topo = NetworkTopology((60, 120, 60, 1))
    prior = SpikeSlabPrior(0.5, 1.0, 0.1)
    _, init = prune(init_params(topo, prior, None, rng), "inclusion_p", 0.5)
    config = TrainConfig(epochs=epochs, batch_size=batch, optimizer=optimizer,
                         mc_samples=2, seed=3)
    size = topo.n_params
    # [m | rho], p, grad, the step's eps, w, g, sigma, d_m, d_s2 and sp,
    # and adam's two moments and its step
    vectors = 2 + 1 + 2 + 7 + (6 if optimizer == "adam" else 0)
    pruned = int((~init.active).sum())
    listed = (8 * size * vectors + size + 16 * pruned
              + 8 * 2 * batch * sum(topo.layer_sizes[1:])
              + 8 * batch * (topo.n_inputs + 1) + 8 * (3 * epochs + n))
    for diagnostics in (False, True):
        train(topo, prior, ds, config, init=init, diagnostics=diagnostics)
        peak = traced_peak(lambda: train(topo, prior, ds, config, init=init,
                                         diagnostics=diagnostics))
        assert peak < listed + 8 * size, (diagnostics, peak, listed)


# divergent runs; in all but the last the gradient and the penalty value
# turn non-finite at one step, and diagnostics off must still name the
# objective, as a run with diagnostics does
@pytest.mark.parametrize("optimizer, lr, mc_samples, activation", [
    ("sgd", 1e3, 1, "relu"),
    ("sgd", 1e8, 3, "tanh"),
    ("adam", 1e3, 1, "relu"),
    ("adam", 1e50, 3, "identity"),
    ("adam", 1e3, 3, "tanh"),
    ("sgd", 1e200, 1, "relu"),
])
def test_divergence_aborts_alike_with_diagnostics_off(
        optimizer, lr, mc_samples, activation):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((96, 3))
    ds = Dataset(x, x @ np.array([1.0, -2.0, 0.5]), ["a", "b", "c"])
    config = TrainConfig(epochs=5, batch_size=32, learning_rate=lr,
                         optimizer=optimizer, mc_samples=mc_samples, seed=1)
    aborts = []
    for diagnostics in (True, False):
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalAbort) as err:
                train(NetworkTopology((3, 5, 1), hidden_activation=activation),
                      SpikeSlabPrior(0.5, 1.0, 0.1), ds, config,
                      diagnostics=diagnostics)
        aborts.append((err.value.step, err.value.quantity))
    assert aborts[0] == aborts[1]


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


@pytest.mark.parametrize("pruned", [False, True], ids=["unmasked", "pruned"])
@pytest.mark.parametrize("draws", [1, 2, 4])
def test_one_step_is_objective_estimate_and_step_gradients(draws, pruned):
    # one batch, one epoch: train's logged objective and its sgd update
    # are those of the public one-batch functions at the same rows and
    # draws, bit for bit; eight seeds, since a sum in another order
    # matches in the last bit for some of them
    rng = np.random.default_rng(23)
    ds = Dataset(rng.standard_normal((40, 3)), rng.standard_normal(40),
                 ["a", "b", "c"])
    topo = NetworkTopology((3, 4, 3, 1), hidden_activation="tanh")
    prior = SpikeSlabPrior(0.5, 1.0, 0.1)
    m = rng.normal(0.0, 0.5, topo.n_params)
    rho = rng.normal(-2.0, 0.5, topo.n_params)
    start = VariationalParams(m, rho,
                              optimal_p(m, np.logaddexp(0, rho), prior))
    if pruned:
        _, start = prune(start, "inclusion_p", 0.5)
    size = topo.n_params
    for seed in range(8):
        config = TrainConfig(epochs=1, batch_size=64, learning_rate=0.05,
                             optimizer="sgd", mc_samples=draws, seed=seed)
        report = train(topo, prior, ds, config, init=start)
        rows = np.random.default_rng(seed).permutation(ds.n)
        x, y = ds.X.take(rows, axis=0), ds.y.take(rows, axis=0)
        noise = [NoiseDraw.draw(size, seed, i) for i in range(draws)]
        assert report.objective[0] == objective_estimate(
            topo, start, prior, x, y, noise), seed
        grad = np.zeros(2 * size)
        for eps in noise:
            g_m, g_rho = step_gradients(topo, start, prior, x, y, eps)
            grad[:size] += g_m
            grad[size:] += g_rho
        grad /= draws
        theta = (np.concatenate([start.m, start.rho])
                 - config.learning_rate * grad)
        assert np.array_equal(report.params.m, theta[:size]), seed
        assert np.array_equal(report.params.rho, theta[size:]), seed


@pytest.mark.parametrize("diagnostics", [True, False], ids=["diag", "nodiag"])
@pytest.mark.parametrize("draws", [1, 3])
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_pruned_entries_stay_frozen_through_training(optimizer, draws,
                                                     diagnostics):
    # the step zeroes the gradient's pruned entries once, after its draws:
    # every update then leaves their m at +0.0 and their rho and p as the
    # init has them, bit for bit
    rng = np.random.default_rng(31)
    ds = Dataset(rng.standard_normal((90, 3)), rng.standard_normal(90),
                 ["a", "b", "c"])
    topo = NetworkTopology((3, 6, 4, 1), hidden_activation="tanh")
    prior = SpikeSlabPrior(0.5, 1.0, 0.1)
    m = rng.normal(0.0, 0.5, topo.n_params)
    rho = rng.normal(-2.0, 0.5, topo.n_params)
    _, start = prune(VariationalParams(
        m, rho, optimal_p(m, np.logaddexp(0, rho), prior)), "inclusion_p", 0.5)
    gone = np.flatnonzero(~start.active)
    assert gone.size == -(-topo.n_params // 2)     # half, rounded up
    config = TrainConfig(epochs=3, batch_size=32, optimizer=optimizer,
                         mc_samples=draws, seed=5)
    vp = train(topo, prior, ds, config, init=start,
               diagnostics=diagnostics).params
    assert np.all(vp.m[gone] == 0.0) and not np.signbit(vp.m[gone]).any()
    assert vp.rho[gone].tobytes() == start.rho[gone].tobytes()
    assert vp.p[gone].tobytes() == start.p[gone].tobytes()
    kept = start.active
    assert not np.array_equal(vp.m[kept], start.m[kept])
    for i in range(draws):
        eps = NoiseDraw.draw(topo.n_params, 9, i)
        for g in step_gradients(topo, vp, prior, ds.X, ds.y, eps,
                                kl_weight=0.5):
            assert np.all(g[gone] == 0.0) and not np.signbit(g[gone]).any()
            assert np.any(g[kept] != 0.0)

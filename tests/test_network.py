"""Forward evaluation, likelihoods, and exact backpropagation."""

import math

import numpy as np
import pytest

from helpers import (
    assert_grad_close,
    central_difference,
    pre_activations,
    random_topology,
    straight_line_forward,
)
from sparsebnn import (
    NetworkTopology,
    ShapeMismatch,
    StaleTrace,
    backward,
    forward,
    nll,
    nll_grad,
)
from sparsebnn.network import _backward_work, _forward, layer_slices


def _pack(layers):
    """Concatenate per-layer (W, b) pairs in the canonical layout."""
    return np.concatenate([a.ravel() for W, b in layers for a in (W, b)])


class TestTopology:
    def test_param_count(self):
        topo = NetworkTopology((3, 5, 1))
        assert topo.n_params == 3 * 5 + 5 + 5 * 1 + 1

    def test_requires_hidden_layer(self):
        with pytest.raises(ValueError, match="hidden"):
            NetworkTopology((3, 1))

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError, match=">= 1"):
            NetworkTopology((3, 0, 1))

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError, match="hidden_activation"):
            NetworkTopology((3, 2, 1), hidden_activation="selu")

    def test_layer_slices_tile_the_vector_in_canonical_order(self):
        topo = NetworkTopology((4, 3, 2, 1))
        slices = layer_slices(topo)
        assert len(slices) == topo.n_affine_layers
        offset = 0
        for (w_sl, shape, b_sl), fan_in, fan_out in zip(
                slices, topo.layer_sizes[:-1], topo.layer_sizes[1:]):
            assert shape == (fan_in, fan_out)
            assert (w_sl.start, w_sl.stop) == (offset, offset + fan_in * fan_out)
            assert (b_sl.start, b_sl.stop) == (w_sl.stop, w_sl.stop + fan_out)
            offset = b_sl.stop
        assert offset == topo.n_params


class TestForward:
    def test_zero_network_gives_zero_outputs(self):
        topo = NetworkTopology((2, 3, 1))
        out, _ = forward(topo, np.zeros(topo.n_params), np.ones((5, 2)))
        assert np.array_equal(out, np.zeros((5, 1)))

    def test_relu_gate_1_1_1(self):
        topo = NetworkTopology((1, 1, 1), hidden_activation="relu")
        w = np.array([1.0, 0.0, 1.0, 0.0])  # w1, b1, w2, b2
        out, _ = forward(topo, w, np.array([[2.0], [-2.0]]))
        assert out[0, 0] == 2.0
        assert out[1, 0] == 0.0

    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    def test_random_net_matches_straight_line_oracle(self, activation):
        rng = np.random.default_rng(11)
        topo = NetworkTopology((3, 5, 1), hidden_activation=activation)
        w = rng.standard_normal(topo.n_params)
        x = rng.standard_normal((6, 3))
        out, _ = forward(topo, w, x)
        oracle = straight_line_forward(topo, w, x)
        np.testing.assert_allclose(out, oracle, atol=1e-12, rtol=0)

    def test_input_width_mismatch_names_shapes(self):
        topo = NetworkTopology((3, 2, 1))
        with pytest.raises(ShapeMismatch) as err:
            forward(topo, np.zeros(topo.n_params), np.zeros((4, 2)))
        assert err.value.actual == (4, 2)

    def test_param_length_mismatch_names_shapes(self):
        topo = NetworkTopology((3, 2, 1))
        with pytest.raises(ShapeMismatch) as err:
            forward(topo, np.zeros(5), np.zeros((4, 3)))
        assert err.value.expected == (topo.n_params,)

    def test_determinism_within_process(self):
        rng = np.random.default_rng(5)
        topo = NetworkTopology((4, 6, 3, 1))
        w = rng.standard_normal(topo.n_params)
        x = rng.standard_normal((8, 4))
        out1, _ = forward(topo, w, x)
        out2, _ = forward(topo, w, x)
        assert np.array_equal(out1, out2)

    def test_relu_first_layer_homogeneity(self):
        # doubling the first affine layer doubles outputs when the rest of
        # the network is linear (second-layer bias zero)
        rng = np.random.default_rng(9)
        topo = NetworkTopology((2, 5, 1), hidden_activation="relu")
        layers = [
            (rng.standard_normal((2, 5)), rng.standard_normal(5)),
            (rng.standard_normal((5, 1)), np.zeros(1)),
        ]
        w = _pack(layers)
        doubled = _pack([(2.0 * layers[0][0], 2.0 * layers[0][1]), layers[1]])
        x = rng.standard_normal((7, 2))
        out, _ = forward(topo, w, x)
        out2, _ = forward(topo, doubled, x)
        np.testing.assert_allclose(out2, 2.0 * out, rtol=1e-12)


class TestNll:
    def test_zero_residual_regression(self):
        value = nll(np.array([[1.5]]), np.array([1.5]), 1.0)
        assert value == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-15)

    def test_regression_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(21)
        outputs = rng.standard_normal((50, 2))
        targets = rng.standard_normal((50, 2))
        v = 0.7
        terms = [
            0.5 * (o - t) ** 2 / v + 0.5 * math.log(2 * math.pi * v)
            for o, t in zip(outputs.ravel(), targets.ravel())
        ]
        oracle = math.fsum(terms)
        assert nll(outputs, targets, v) == pytest.approx(
            oracle, rel=1e-10
        )

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError, match="noise_variance"):
            nll(np.zeros((2, 1)), np.zeros(2), 0.0)

    def test_nll_grad_matches_finite_differences(self):
        rng = np.random.default_rng(30)
        outputs = rng.standard_normal((6, 3))
        targets = rng.standard_normal((6, 3))
        v = 0.7

        def f(flat):
            return nll(flat.reshape(6, 3), targets, v)

        grad = nll_grad(outputs, targets, v)
        assert_grad_close(grad.ravel(), central_difference(f, outputs.ravel()))


class TestBackward:
    def test_zero_output_gradient_gives_zero_parameter_gradient(self):
        rng = np.random.default_rng(2)
        topo = NetworkTopology((3, 4, 2))
        w = rng.standard_normal(topo.n_params)
        out, trace = forward(topo, w, rng.standard_normal((5, 3)))
        grad = backward(trace, w, np.zeros_like(out))
        assert np.array_equal(grad, np.zeros(topo.n_params))

    def test_1_1_1_identity_net_matches_hand_expansion(self):
        # squared loss L = 0.5 (out - t)^2 on one observation
        topo = NetworkTopology((1, 1, 1), hidden_activation="identity")
        w1, b1, w2, b2 = 0.7, -0.2, 1.3, 0.4
        x, t = 0.9, 2.0
        w = np.array([w1, b1, w2, b2])
        out, trace = forward(topo, w, np.array([[x]]))
        r = out[0, 0] - t
        grad = backward(trace, w, np.array([[r]]))
        a1 = x * w1 + b1
        expected = np.array([r * w2 * x, r * w2, r * a1, r])
        np.testing.assert_allclose(grad, expected, rtol=1e-12)

    def test_matches_finite_differences_on_random_small_nets(self):
        rng = np.random.default_rng(13)
        for _ in range(12):
            topo = random_topology(rng)
            w = rng.normal(0.0, 0.8, topo.n_params)
            x = rng.standard_normal((4, topo.n_inputs))
            t = rng.standard_normal((4, topo.n_outputs))

            def loss(wv):
                out, _ = forward(topo, wv, x)
                return 0.5 * np.sum((out - t) ** 2)

            out, trace = forward(topo, w, x)
            grad = backward(trace, w, out - t)
            assert_grad_close(grad, central_difference(loss, w))

    def test_relu_net_matches_finite_differences_away_from_kinks(self):
        rng = np.random.default_rng(17)
        topo = NetworkTopology((3, 6, 4, 1), hidden_activation="relu")
        # resample until every pre-activation clears the kink by a margin
        for attempt in range(50):
            w = rng.normal(0.0, 0.8, topo.n_params)
            x = rng.standard_normal((4, 3))
            margin = min(np.abs(z).min()
                         for z in pre_activations(topo, w, x))
            if margin > 1e-3:
                break
        t = rng.standard_normal((4, 1))

        def loss(wv):
            out, _ = forward(topo, wv, x)
            return 0.5 * np.sum((out - t) ** 2)

        out, trace = forward(topo, w, x)
        grad = backward(trace, w, out - t)
        assert_grad_close(grad, central_difference(loss, w, h=1e-6))

    def test_stale_trace_rejected(self):
        rng = np.random.default_rng(4)
        topo = NetworkTopology((2, 3, 1))
        w = rng.standard_normal(topo.n_params)
        out, trace = forward(topo, w, rng.standard_normal((3, 2)))
        other = w.copy()
        other[0] += 1.0
        with pytest.raises(StaleTrace):
            backward(trace, other, np.zeros_like(out))

    def test_output_gradient_shape_checked(self):
        rng = np.random.default_rng(6)
        topo = NetworkTopology((2, 3, 1))
        w = rng.standard_normal(topo.n_params)
        out, trace = forward(topo, w, rng.standard_normal((3, 2)))
        with pytest.raises(ShapeMismatch):
            backward(trace, w, np.zeros((2, 1)))


@pytest.mark.parametrize("masked", [False, True], ids=["dense", "masked"])
@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_backward_into_work_buffers_is_bit_equal(activation, masked):
    # work buffers with more rows than the batch, and a forward that keeps
    # only the in-place activations, give the allocating path's bits; the
    # masked W has units whose z is exactly 0, relu's kink
    rng = np.random.default_rng(31)
    topo = NetworkTopology((4, 6, 5, 2), hidden_activation=activation)
    w = rng.standard_normal(topo.n_params)
    if masked:
        w[rng.random(topo.n_params) < 0.6] = 0.0
    x = rng.standard_normal((7, 4))
    g_out = rng.standard_normal((7, 2))
    out, trace = forward(topo, w, x)
    want = backward(trace, w, g_out).tobytes()
    rows = 10
    work = _backward_work(topo, rows)
    assert backward(trace, w, g_out, work=work) is work[0]
    assert work[0].tobytes() == want
    acts = [np.empty((rows, width)) for width in topo.layer_sizes[1:]]
    out_in_place, in_place = _forward(topo, w, x, out=acts)
    assert out_in_place.tobytes() == out.tobytes()
    grad = backward(in_place, w, g_out, work=_backward_work(topo, rows))
    assert grad.tobytes() == want
    # training's aliasing: each hidden activation is its own gate buffer,
    # overwritten only after its layer's weight gradient has read it
    grad, deltas, _ = _backward_work(topo, rows)
    assert backward(in_place, w, g_out,
                    work=(grad, deltas, acts[:-1])).tobytes() == want

"""Dense feed-forward networks with explicit forward and backward passes.

All parameters of a network live in one flat float64 vector so that
per-parameter posterior state (means, scales, inclusion probabilities,
keep masks) can be stored and ranked without layer bookkeeping.  The
canonical layout, fixed for every consumer of a flat vector (checkpoints,
keep masks, ranking rules), is

    for affine layer l = 1 .. L+1:
        weight matrix of shape (fan_in, fan_out), row-major (C order),
        then bias vector of shape (fan_out,).

The network is a regression model: the final affine layer is returned
raw by ``forward`` and scored by a Gaussian likelihood.  Checkpoints still
record this as ``output_head = "identity"``, and the loader rejects any
other value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

HIDDEN_ACTIVATIONS = ("relu", "tanh", "identity")

CANONICAL_ORDER = "layer-major/weights-row-major/bias-after/v1"


class ShapeMismatch(ValueError):
    """An array does not have the shape an operation requires."""

    def __init__(self, what: str, expected, actual):
        self.expected = tuple(expected)
        self.actual = tuple(actual)
        super().__init__(
            f"{what}: expected shape {self.expected}, got {self.actual}"
        )


@dataclass(frozen=True)
class NetworkTopology:
    """Layer sizes and activation choices of a dense network.

    ``layer_sizes`` runs input -> hidden layers -> output, so it always has
    at least three entries.
    """

    layer_sizes: tuple[int, ...]
    hidden_activation: str = "relu"

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 3:
            raise ValueError(
                f"need at least one hidden layer: got layer_sizes={sizes}"
            )
        if any(s < 1 for s in sizes):
            raise ValueError(f"all layer sizes must be >= 1: got {sizes}")
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(
                f"hidden_activation must be one of {HIDDEN_ACTIVATIONS}, "
                f"got {self.hidden_activation!r}"
            )

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]

    @property
    def n_affine_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @cached_property
    def n_params(self) -> int:
        return sum(
            fi * fo + fo
            for fi, fo in zip(self.layer_sizes[:-1], self.layer_sizes[1:])
        )


@lru_cache(maxsize=None)
def layer_slices(topology: NetworkTopology):
    """Canonical (weight_slice, weight_shape, bias_slice) per affine layer."""
    out = []
    offset = 0
    for fi, fo in zip(topology.layer_sizes[:-1], topology.layer_sizes[1:]):
        w_sl = slice(offset, offset + fi * fo)
        offset += fi * fo
        b_sl = slice(offset, offset + fo)
        offset += fo
        out.append((w_sl, (fi, fo), b_sl))
    return tuple(out)


def _check_params(topology, w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (topology.n_params,):
        raise ShapeMismatch("parameter vector", (topology.n_params,), w.shape)
    return w


def _check_inputs(topology, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != topology.n_inputs:
        raise ShapeMismatch(
            "input batch", (x.shape[0] if x.ndim else 0, topology.n_inputs),
            x.shape,
        )
    return x


def _activate(name, z):
    """Apply the hidden activation to ``z`` in place and return it."""
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "tanh":
        return np.tanh(z, out=z)
    return z


def _gate(name, a, delta, gate):
    """Multiply ``delta`` in place by d act / dz, computed into ``gate`` from
    the activation a = act(z) alone: relu's a > 0 is z > 0 (NaN and +-0
    included; the subgradient at 0 is 0), tanh's is 1 - a^2, and identity's
    is 1, so it needs no multiply."""
    if name == "relu":
        np.greater(a, 0.0, out=gate)
    elif name == "tanh":
        np.multiply(a, a, out=gate)
        np.subtract(1.0, gate, out=gate)
    else:
        return
    np.multiply(delta, gate, out=delta)


def _layers(topology, w):
    """(W, b, W.T) views of the flat vector ``w``, per affine layer."""
    out = []
    for w_sl, shape, b_sl in layer_slices(topology):
        W = w[w_sl].reshape(shape)
        out.append((W, w[b_sl], W.T))
    return out


def _backward_work(topology, rows):
    """Fresh work for :func:`backward` on a batch of ``rows`` rows: the
    flat gradient vector, its :func:`_layers` views, then per hidden layer
    one (rows, width) delta buffer and one gate buffer."""
    widths = topology.layer_sizes[1:-1]
    grad = np.empty(topology.n_params)
    return (grad, _layers(topology, grad),
            [np.empty((rows, width)) for width in widths],
            [np.empty((rows, width)) for width in widths])


@dataclass
class ForwardTrace:
    """One batch's pass: the weights, their per-layer views, and the rows
    :func:`_forward` writes and :func:`backward` reads."""

    topology: NetworkTopology
    params: np.ndarray    # the flat vector used
    layers: list          # (W, b, W.T) views of params, per affine layer
    acts: list            # x = a_0, a_1 .. a_L, then the outputs z_{L+1}


def _trace(topology, w, x, out):
    """A :class:`ForwardTrace` of ``w`` on ``x`` whose activations are the
    first x.shape[0] rows of ``out``, one buffer per affine layer."""
    rows = x.shape[0]
    return ForwardTrace(topology, w, _layers(topology, w),
                        [x] + [buf[:rows] for buf in out])


def forward(topology: NetworkTopology, w, x):
    """Evaluate the network on a batch.

    Checks the shapes of ``w`` and ``x``, then runs :func:`_forward` on a
    copy of ``w``, so the trace keeps the weights :func:`backward` uses
    when the caller changes ``w`` later, and on one new (n, width) buffer
    per affine layer.

    Parameters
    ----------
    w : flat parameter vector in canonical order, length ``n_params``.
    x : input matrix of shape (n, n_inputs).

    Returns
    -------
    (outputs, trace) : final-layer affine values of shape (n, n_outputs)
        and a :class:`ForwardTrace` sufficient for :func:`backward`: the
        input and each hidden layer's activation.
    """
    w = _check_params(topology, w)
    x = _check_inputs(topology, x)
    out = [np.empty((x.shape[0], width)) for width in topology.layer_sizes[1:]]
    trace = _trace(topology, w.copy(), x, out)
    return _forward(trace), trace


def _forward(trace):
    """The one forward loop, on a trace whose inputs the caller has
    checked; returns the outputs.

    Each layer's z = a @ W + b is written into its row buffer in
    ``trace.acts`` and a hidden layer's activated in place, so the trace
    holds the activations alone (:func:`backward` takes each gate from the
    activation).
    """
    acts, name = trace.acts, trace.topology.hidden_activation
    last = len(trace.layers) - 1
    for l, (W, b, _) in enumerate(trace.layers):
        z = np.matmul(acts[l], W, out=acts[l + 1])
        z += b
        if l < last:
            _activate(name, z)
    return z


def backward(trace: ForwardTrace, loss_grad_at_outputs, *,
             work=None) -> np.ndarray:
    """Exact reverse-mode gradient of a scalar loss w.r.t. every parameter,
    at the weights ``trace.params`` the forward pass ran on.

    ``loss_grad_at_outputs`` is d(loss)/d(outputs) for the batch the trace
    was built on; the return value is the flat gradient vector [n_params].
    After its shape check, each layer's weight and bias gradients are written
    straight into that vector, each delta @ W.T into its layer's delta
    buffer, and the gate, computed from the layer's activation alone,
    multiplies it in place.  ``work`` is (gradient vector, its per-layer
    views, delta buffers, gate buffers), one of each buffer per hidden layer
    with the batch's rows, as :func:`_backward_work` builds them; without it
    backward allocates its own.  Both ways compute the same bits.
    """
    g_out = np.asarray(loss_grad_at_outputs, dtype=float)
    if g_out.shape != trace.acts[-1].shape:
        raise ShapeMismatch("output gradient", trace.acts[-1].shape,
                            g_out.shape)

    grad, grads, deltas, gates = work or _backward_work(trace.topology,
                                                        g_out.shape[0])
    acts, layers = trace.acts, trace.layers
    name = trace.topology.hidden_activation
    delta = g_out
    for l in range(len(layers) - 1, -1, -1):
        g_W, g_b, _ = grads[l]
        a_prev = acts[l]
        np.matmul(a_prev.T, delta, out=g_W)
        delta.sum(axis=0, out=g_b)
        if l:
            delta = np.matmul(delta, layers[l][2], out=deltas[l - 1])
            _gate(name, a_prev, delta, gates[l - 1])
    return grad


def _targets(outputs, targets, noise_variance):
    """``targets`` as a float array of ``outputs``' shape, a vector taken
    as the column of a one-output batch, after checking the variance."""
    if noise_variance <= 0:
        raise ValueError(
            f"noise_variance must be positive, got {noise_variance}"
        )
    t = np.asarray(targets, dtype=float)
    if t.ndim == 1 and outputs.ndim == 2 and outputs.shape[1] == 1:
        t = t[:, None]
    if t.shape != outputs.shape:
        raise ShapeMismatch("targets", outputs.shape, t.shape)
    return t


def nll(outputs, targets, noise_variance: float = 1.0) -> float:
    """Negative log-likelihood of a batch, summed over observations:
    Gaussian with fixed ``noise_variance``, constant term included."""
    return _checked_nll_and_grad(outputs, targets, noise_variance)[0]


def nll_grad(outputs, targets, noise_variance: float = 1.0):
    """Gradient of :func:`nll` with respect to ``outputs``."""
    return _checked_nll_and_grad(outputs, targets, noise_variance)[1]


def _checked_nll_and_grad(outputs, targets, noise_variance):
    """(:func:`nll`, :func:`nll_grad`), on a copy of ``outputs``."""
    outputs = np.array(outputs, dtype=float)
    t = _targets(outputs, targets, noise_variance)
    return _nll_and_grad(outputs, t, noise_variance,
                         _nll_constant(outputs.size, noise_variance))


def _nll_constant(size, noise_variance):
    """The NLL's constant term for a batch of ``size`` outputs."""
    return 0.5 * size * np.log(2.0 * np.pi * noise_variance)


def _nll_and_grad(outputs, t, noise_variance, constant, square=None):
    """(:func:`nll`, :func:`nll_grad`) of one batch from one residual, on
    targets ``t`` already of ``outputs``' shape and the batch's
    :func:`_nll_constant`.  The residual overwrites ``outputs`` and then
    becomes the gradient there; ``square``, an array of their shape if
    given, receives the squared residual."""
    resid = np.subtract(outputs, t, out=outputs)
    value = (0.5 * np.multiply(resid, resid, out=square).sum()
             / noise_variance + constant)
    return float(value), np.divide(resid, noise_variance, out=resid)

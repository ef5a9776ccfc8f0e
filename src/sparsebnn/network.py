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

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

HIDDEN_ACTIVATIONS = ("relu", "tanh", "identity")

CANONICAL_ORDER = "layer-major/weights-row-major/bias-after/v1"


class ShapeMismatch(ValueError):
    """An array does not have the shape an operation requires."""

    def __init__(self, what: str, expected, actual):
        self.what = what
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


def _backward_work(topology, rows):
    """Fresh work for :func:`backward`: the flat gradient vector, then per
    hidden layer one (rows, width) delta buffer and one gate buffer."""
    widths = topology.layer_sizes[1:-1]
    return (np.empty(topology.n_params),
            [np.empty((rows, width)) for width in widths],
            [np.empty((rows, width)) for width in widths])


@dataclass
class ForwardTrace:
    """Per-layer activations cached for one batch."""

    topology: NetworkTopology
    hidden: list = field(default_factory=list)    # a_0=x, a_1 .. a_L
    params: np.ndarray = None                     # the flat vector used
    outputs: np.ndarray = None                    # z_{L+1}


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
    return _forward(topology, w.copy(), x, out)


def _forward(topology, w, x, out):
    """The one forward loop, on inputs the caller has checked; returns
    (outputs, trace), and the trace holds ``w`` itself.

    ``out`` is one buffer per affine layer with at least x's rows: each
    layer's z = a @ W + b is written into its buffer's first rows and
    activated in place, so the trace's ``hidden`` holds the activations
    alone (:func:`backward` takes each gate from the activation).
    """
    trace = ForwardTrace(topology, params=w)
    rows = x.shape[0]
    a = x
    last = topology.n_affine_layers - 1
    for l, (w_sl, shape, b_sl) in enumerate(layer_slices(topology)):
        z = np.matmul(a, w[w_sl].reshape(shape), out=out[l][:rows])
        z += w[b_sl]
        trace.hidden.append(a)
        if l < last:
            a = _activate(topology.hidden_activation, z)
    trace.outputs = z
    return z, trace


def backward(trace: ForwardTrace, loss_grad_at_outputs, *,
             work=None) -> np.ndarray:
    """Exact reverse-mode gradient of a scalar loss w.r.t. every parameter,
    at the weights ``trace.params`` the forward pass ran on.

    ``loss_grad_at_outputs`` is d(loss)/d(outputs) for the batch the trace
    was built on; the return value is the flat gradient vector [n_params].
    After its shape check, each layer's weight and bias gradients are written
    straight into that vector, each delta @ W.T into its layer's delta
    buffer, and the gate, computed from the layer's activation alone,
    multiplies it in place.  ``work`` is (gradient vector, delta buffers,
    gate buffers), one of each buffer per hidden layer with at least the
    batch's rows, as :func:`_backward_work` builds them; without it backward
    allocates its own.  Both ways compute the same bits.
    """
    topology, w = trace.topology, trace.params
    g_out = np.asarray(loss_grad_at_outputs, dtype=float)
    if g_out.shape != trace.outputs.shape:
        raise ShapeMismatch("output gradient", trace.outputs.shape, g_out.shape)

    rows = g_out.shape[0]
    grad, deltas, gates = work or _backward_work(topology, rows)
    slices = layer_slices(topology)
    delta = g_out
    for l in range(topology.n_affine_layers, 0, -1):
        w_sl, shape, b_sl = slices[l - 1]
        a_prev = trace.hidden[l - 1]
        np.matmul(a_prev.T, delta, out=grad[w_sl].reshape(shape))
        delta.sum(axis=0, out=grad[b_sl])
        if l > 1:
            delta = np.matmul(delta, w[w_sl].reshape(shape).T,
                              out=deltas[l - 2][:rows])
            _gate(topology.hidden_activation, a_prev, delta,
                  gates[l - 2][:rows])
    return grad


def _residual(outputs, targets, noise_variance):
    if noise_variance <= 0:
        raise ValueError(
            f"noise_variance must be positive, got {noise_variance}"
        )
    t = np.asarray(targets, dtype=float)
    if t.ndim == 1 and outputs.ndim == 2 and outputs.shape[1] == 1:
        t = t[:, None]
    if t.shape != outputs.shape:
        raise ShapeMismatch("targets", outputs.shape, t.shape)
    return outputs - t


def nll(outputs, targets, noise_variance: float = 1.0) -> float:
    """Negative log-likelihood of a batch, summed over observations:
    Gaussian with fixed ``noise_variance``, constant term included."""
    outputs = np.asarray(outputs, dtype=float)
    return _nll_and_grad(outputs, targets, noise_variance)[0]


def nll_grad(outputs, targets, noise_variance: float = 1.0):
    """Gradient of :func:`nll` with respect to ``outputs``."""
    outputs = np.asarray(outputs, dtype=float)
    return _nll_and_grad(outputs, targets, noise_variance)[1]


def _nll_and_grad(outputs, targets, noise_variance: float):
    """(:func:`nll`, :func:`nll_grad`) of one batch from one residual."""
    resid = _residual(outputs, targets, noise_variance)
    value = (0.5 * (resid * resid).sum() / noise_variance
             + 0.5 * resid.size * np.log(2.0 * np.pi * noise_variance))
    return float(value), resid / noise_variance

"""Dense feed-forward networks with explicit forward and backward passes.

All parameters of a network live in one flat float64 vector so that
per-parameter posterior state (means, scales, inclusion probabilities,
keep masks) can be stored and ranked without layer bookkeeping.  The
canonical layout, fixed for every consumer of a flat vector (checkpoints,
mask files, ranking rules), is

    for affine layer l = 1 .. L+1:
        weight matrix of shape (fan_in, fan_out), row-major (C order),
        then bias vector of shape (fan_out,).

The final affine layer is returned raw by ``forward``: for the softmax
head the normalization is fused into ``nll``/``nll_grad``/``apply_head``
so that log-sum-exp stays numerically stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

HIDDEN_ACTIVATIONS = ("relu", "tanh", "identity")
OUTPUT_HEADS = ("identity", "softmax")

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


class StaleTrace(ValueError):
    """A forward trace is replayed against parameters it was not built from."""


@dataclass(frozen=True)
class NetworkTopology:
    """Layer sizes and activation choices of a dense network.

    ``layer_sizes`` runs input -> hidden layers -> output, so it always has
    at least three entries.
    """

    layer_sizes: tuple[int, ...]
    hidden_activation: str = "relu"
    output_head: str = "identity"

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
        if self.output_head not in OUTPUT_HEADS:
            raise ValueError(
                f"output_head must be one of {OUTPUT_HEADS}, "
                f"got {self.output_head!r}"
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


def unflatten(topology: NetworkTopology, w: np.ndarray):
    """Views (W_l, b_l) into the flat parameter vector, layer 1..L+1."""
    w = _check_params(topology, w)
    return [
        (w[w_sl].reshape(shape), w[b_sl])
        for w_sl, shape, b_sl in layer_slices(topology)
    ]


def flatten(topology: NetworkTopology, layers) -> np.ndarray:
    """Inverse of :func:`unflatten`; packs per-layer arrays canonically."""
    flat = np.empty(topology.n_params)
    for (w_sl, shape, b_sl), (W, b) in zip(layer_slices(topology), layers):
        if W.shape != shape:
            raise ShapeMismatch("weight matrix", shape, W.shape)
        flat[w_sl] = np.ravel(W, order="C")
        flat[b_sl] = b
    return flat


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


def _activate(name, z, out=None):
    if name == "relu":
        return np.maximum(z, 0.0, out=out)
    if name == "tanh":
        return np.tanh(z, out=out)
    return z


def _activation_grad(name, z, a):
    # Subgradient of relu at 0 is taken as 0.
    if name == "relu":
        return (z > 0.0).astype(float)
    if name == "tanh":
        return 1.0 - a * a
    return np.ones_like(z)


@dataclass
class ForwardTrace:
    """Per-layer pre-activations and activations cached for one batch."""

    topology: NetworkTopology
    x: np.ndarray
    pre: list = field(default_factory=list)       # z_1 .. z_{L+1}
    hidden: list = field(default_factory=list)    # a_0=x, a_1 .. a_L
    params: np.ndarray = None                     # the flat vector used

    @property
    def outputs(self) -> np.ndarray:
        return self.pre[-1]

    def replay(self) -> np.ndarray:
        """Recompute the forward output from the cached inputs."""
        out, _ = forward(self.topology, self.params, self.x)
        return out


def forward(topology: NetworkTopology, w, x):
    """Evaluate the network on a batch.

    Checks the shapes of ``w`` and ``x``, then runs :func:`_forward` on a
    copy of ``w``, so :func:`backward` can tell when ``w`` changed since.

    Parameters
    ----------
    w : flat parameter vector in canonical order, length ``n_params``.
    x : input matrix of shape (n, n_inputs).

    Returns
    -------
    (outputs, trace) : final-layer affine values of shape (n, n_outputs)
        and a :class:`ForwardTrace` sufficient for :func:`backward`.
    """
    w = _check_params(topology, w)
    return _forward(topology, w.copy(), _check_inputs(topology, x))


def _forward(topology, w, x, out=None):
    """The one forward loop, on inputs the caller has checked.

    Without ``out`` it returns (outputs, trace), and the trace holds ``w``
    itself.  ``out`` is one (n, width) buffer per affine layer: each layer
    is written into its buffer and activated in place, no trace is kept,
    and the outputs are the last buffer.  Both ways compute the same bits.
    """
    trace = None if out is not None else ForwardTrace(topology, x, params=w)
    a = x
    last = topology.n_affine_layers - 1
    for l, (w_sl, shape, b_sl) in enumerate(layer_slices(topology)):
        z = np.matmul(a, w[w_sl].reshape(shape),
                      out=None if out is None else out[l])
        z += w[b_sl]
        if trace is not None:
            trace.hidden.append(a)
            trace.pre.append(z)
        if l < last:
            a = _activate(topology.hidden_activation, z,
                          out=None if out is None else z)
    return z, trace


def backward(trace: ForwardTrace, w, loss_grad_at_outputs) -> np.ndarray:
    """Exact reverse-mode gradient of a scalar loss w.r.t. every parameter.

    ``loss_grad_at_outputs`` is d(loss)/d(outputs) for the batch the trace
    was built on; the return value is the flat gradient vector [n_params].
    After its checks, each layer's weight and bias gradients are written
    straight into that vector.
    """
    topology = trace.topology
    w = _check_params(topology, w)
    # NaN != NaN, so a NaN weight retries with equal_nan instead of raising
    # StaleTrace; the caller's finiteness check then reports it.
    if not (trace.params is w or np.array_equal(trace.params, w)
            or np.array_equal(trace.params, w, equal_nan=True)):
        raise StaleTrace(
            "trace was built from a different parameter vector; "
            "rerun forward before backward"
        )
    g_out = np.asarray(loss_grad_at_outputs, dtype=float)
    if g_out.shape != trace.outputs.shape:
        raise ShapeMismatch("output gradient", trace.outputs.shape, g_out.shape)

    grad = np.empty(topology.n_params)
    slices = layer_slices(topology)
    delta = g_out
    for l in range(topology.n_affine_layers, 0, -1):
        w_sl, shape, b_sl = slices[l - 1]
        a_prev = trace.hidden[l - 1]
        np.matmul(a_prev.T, delta, out=grad[w_sl].reshape(shape))
        delta.sum(axis=0, out=grad[b_sl])
        if l > 1:
            gate = _activation_grad(
                topology.hidden_activation, trace.pre[l - 2], trace.hidden[l - 1]
            )
            delta = (delta @ w[w_sl].reshape(shape).T) * gate
    return grad


def _regression_targets(outputs, targets):
    t = np.asarray(targets, dtype=float)
    if t.ndim == 1 and outputs.ndim == 2 and outputs.shape[1] == 1:
        t = t[:, None]
    if t.shape != outputs.shape:
        raise ShapeMismatch("targets", outputs.shape, t.shape)
    return t


def _class_targets(outputs, targets):
    t = np.asarray(targets)
    if t.shape != (outputs.shape[0],):
        raise ShapeMismatch("class targets", (outputs.shape[0],), t.shape)
    if not np.issubdtype(t.dtype, np.integer):
        raise ValueError("softmax targets must be integer class indices")
    if t.min() < 0 or t.max() >= outputs.shape[1]:
        raise ValueError(
            f"class index out of range [0, {outputs.shape[1]}): "
            f"min={t.min()}, max={t.max()}"
        )
    return t


def _residual(outputs, targets, noise_variance):
    if noise_variance <= 0:
        raise ValueError(
            f"noise_variance must be positive, got {noise_variance}"
        )
    return outputs - _regression_targets(outputs, targets)


def _gaussian_nll(resid, noise_variance) -> float:
    return float(
        0.5 * (resid * resid).sum() / noise_variance
        + 0.5 * resid.size * np.log(2.0 * np.pi * noise_variance)
    )


def nll(head: str, outputs, targets, noise_variance: float = 1.0) -> float:
    """Negative log-likelihood of a batch, summed over observations.

    identity head: Gaussian likelihood with fixed ``noise_variance``
    (constant term included).  softmax head: cross-entropy on raw
    final-layer values via a stabilized log-sum-exp.
    """
    outputs = np.asarray(outputs, dtype=float)
    if head == "identity":
        return _gaussian_nll(_residual(outputs, targets, noise_variance),
                             noise_variance)
    if head == "softmax":
        t = _class_targets(outputs, targets)
        zmax = outputs.max(axis=1, keepdims=True)
        lse = zmax[:, 0] + np.log(np.exp(outputs - zmax).sum(axis=1))
        return float(np.sum(lse - outputs[np.arange(len(t)), t]))
    raise ValueError(f"unknown output head {head!r}")


def nll_grad(head: str, outputs, targets, noise_variance: float = 1.0):
    """Gradient of :func:`nll` with respect to ``outputs``."""
    outputs = np.asarray(outputs, dtype=float)
    if head == "identity":
        return _residual(outputs, targets, noise_variance) / noise_variance
    if head == "softmax":
        t = _class_targets(outputs, targets)
        probs = apply_head("softmax", outputs)
        probs[np.arange(len(t)), t] -= 1.0
        return probs
    raise ValueError(f"unknown output head {head!r}")


def _nll_and_grad(head: str, outputs, targets, noise_variance: float):
    """(:func:`nll`, :func:`nll_grad`) of one batch; the identity head
    computes its residual once for both."""
    if head == "identity":
        resid = _residual(outputs, targets, noise_variance)
        return _gaussian_nll(resid, noise_variance), resid / noise_variance
    return (nll(head, outputs, targets, noise_variance),
            nll_grad(head, outputs, targets, noise_variance))


def apply_head(head: str, outputs):
    """Map raw final-layer values through the output head."""
    outputs = np.asarray(outputs, dtype=float)
    if head == "identity":
        return outputs
    if head == "softmax":
        zmax = outputs.max(axis=1, keepdims=True)
        e = np.exp(outputs - zmax)
        return e / e.sum(axis=1, keepdims=True)
    raise ValueError(f"unknown output head {head!r}")

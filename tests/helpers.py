"""Shared oracles and builders for the test suite."""

import json
import struct
import tracemalloc

import numpy as np

from sparsebnn import NetworkTopology, SpikeSlabPrior, VariationalParams
from reference import activate, layers


def central_difference(f, x, h=1e-5):
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = h * max(1.0, abs(x[i]))
        up = x.copy()
        up[i] += step
        dn = x.copy()
        dn[i] -= step
        grad[i] = (f(up) - f(dn)) / (2.0 * step)
    return grad


def assert_grad_close(analytic, numeric, rtol=1e-5, atol=1e-7):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    bad = np.abs(analytic - numeric) > np.maximum(rtol * scale, atol)
    assert not bad.any(), (
        f"{bad.sum()} gradient coordinates disagree; worst "
        f"analytic={analytic[bad][0]}, numeric={numeric[bad][0]}"
    )


def random_topology(rng, activation=None, max_width=10, n_outputs=1):
    """A random small topology (at most 3 hidden layers, narrow)."""
    depth = int(rng.integers(1, 4))
    sizes = [int(rng.integers(1, max_width + 1)) for _ in range(depth)]
    n_in = int(rng.integers(1, 6))
    if activation is None:
        activation = ("tanh", "identity")[int(rng.integers(2))]
    return NetworkTopology(
        (n_in, *sizes, n_outputs), hidden_activation=activation
    )


def random_state(topology, rng, m_scale=0.5):
    """A moderate variational state for the given topology."""
    M = topology.n_params
    m = rng.normal(0.0, m_scale, M)
    rho = rng.uniform(-3.0, 0.5, M)
    from sparsebnn import optimal_p, sigma_of_rho

    prior = moderate_prior(rng)
    p = optimal_p(m, sigma_of_rho(rho), prior)
    return VariationalParams(m, rho, p), prior


def moderate_prior(rng):
    """Priors whose scale gap keeps inclusion probabilities interior."""
    tau0 = float(rng.uniform(0.2, 0.6))
    tau1 = float(rng.uniform(1.0, 2.5))
    pi = float(rng.uniform(0.2, 0.8))
    return SpikeSlabPrior(pi, tau1, tau0)


def straight_line_forward(topology, w, x):
    """Loop-based re-evaluation of the network, independent of the library.

    Walks the canonical layout with explicit offsets, row by row.
    """
    outs = []
    for row in np.asarray(x, dtype=float):
        a = list(row)
        offset = 0
        for l in range(1, len(topology.layer_sizes)):
            fan_in = topology.layer_sizes[l - 1]
            fan_out = topology.layer_sizes[l]
            z = []
            for j in range(fan_out):
                acc = 0.0
                for i in range(fan_in):
                    # row-major: weight (i, j) sits at offset + i*fan_out + j
                    acc += a[i] * w[offset + i * fan_out + j]
                acc += w[offset + fan_in * fan_out + j]
                z.append(acc)
            offset += fan_in * fan_out + fan_out
            if l < len(topology.layer_sizes) - 1:
                if topology.hidden_activation == "relu":
                    a = [max(v, 0.0) for v in z]
                elif topology.hidden_activation == "tanh":
                    a = [np.tanh(v) for v in z]
                else:
                    a = z
            else:
                a = z
        outs.append(a)
    return np.asarray(outs)


def pre_activations(topology, w, x):
    """Every affine layer's z = a @ W + b, z_1 .. z_{L+1}, with a the
    previous layer's activation, as new arrays: the values a network's
    kinks are measured from."""
    out, a = [], np.asarray(x, dtype=float)
    for W, b in layers(topology, np.asarray(w, dtype=float)):
        out.append(a @ W + b)
        a = activate(topology.hidden_activation, out[-1])
    return out


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of one call of ``fn``: the most
    memory its allocations held at once."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reframe(raw: bytes, edit=None, *, header=None) -> bytes:
    """Rewrite a checkpoint file after ``edit`` mutates its header, or
    with ``header``, any JSON value, in place of its header.

    Parses the documented frame (8-byte magic, uint32 header length, JSON
    header) by hand, so a test can hand the loader a header the library's
    writer would never produce.
    """
    (hlen,) = struct.unpack("<I", raw[8:12])
    if header is None:
        header = json.loads(raw[12:12 + hlen])
        edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen:]

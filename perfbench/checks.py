"""Reference computations and output checks, written apart from sparsebnn.

Nothing here imports sparsebnn.  Each check recomputes what the library
should have produced from the documented formulas and file layouts, or
tests a property the method must have, and never compares against a
stored copy of earlier output.  Every check returns a :class:`Check`; the
benchmark's own tests feed each one a deliberately wrong output to show
that it rejects it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Tolerances for quantities the benchmark recomputes in floating point.
# The reference follows the same formulas in a different order, so agreement
# is expected to the last few bits; these bounds leave room for that and
# nothing more.
RTOL = 1e-9
ATOL = 1e-12

CV_RECOVERY_BOUND = 0.15       # |chosen proportion - realized active fraction|
SELECTION_ACCURACY_MIN = 0.80  # fraction of features decided as the generator's z


@dataclass(frozen=True)
class Check:
    """One named pass/fail verdict.

    ``statistical`` marks checks that only hold once a run is long enough
    (recovery, loss decrease); the small smoke size reports them without
    requiring them.
    """

    name: str
    ok: bool
    detail: str = ""
    statistical: bool = False


def param_digest(*arrays) -> str:
    """SHA-256 of float64 little-endian bytes of the arrays, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------- references


def softplus(rho):
    rho = np.asarray(rho, dtype=float)
    return np.where(rho > 30.0, rho, np.log1p(np.exp(np.minimum(rho, 30.0))))


def unpack(layer_sizes, w):
    """Split a flat vector by the canonical layout: per affine layer the
    (fan_in, fan_out) weight matrix row-major, then the bias vector."""
    w = np.asarray(w, dtype=float)
    layers, off = [], 0
    for fi, fo in zip(layer_sizes[:-1], layer_sizes[1:]):
        W = w[off:off + fi * fo].reshape(fi, fo)
        off += fi * fo
        b = w[off:off + fo]
        off += fo
        layers.append((W, b))
    if off != w.size:
        raise ValueError(f"vector of {w.size} entries does not fit {layer_sizes}")
    return layers


def n_params(layer_sizes) -> int:
    return sum(fi * fo + fo for fi, fo in zip(layer_sizes[:-1], layer_sizes[1:]))


def ref_forward(layer_sizes, activation, w, x):
    """Raw final-layer outputs of the dense network at weights ``w``."""
    act = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh,
           "identity": lambda z: z}[activation]
    layers = unpack(layer_sizes, w)
    a = np.asarray(x, dtype=float)
    for i, (W, b) in enumerate(layers):
        z = np.einsum("nf,fo->no", a, W) + b
        a = act(z) if i < len(layers) - 1 else z
    return a


def ref_inclusion_p(m, rho, prior):
    """p* = logistic(B - A) with A, B the slab and spike terms of the penalty."""
    pi, tau1, tau0 = prior
    s = np.asarray(m, dtype=float) ** 2 + softplus(rho) ** 2
    a = s / (2.0 * tau1 ** 2) + math.log(tau1 / pi)
    b = s / (2.0 * tau0 ** 2) + math.log(tau0 / (1.0 - pi))
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(a - b))


def ref_psi(layer_sizes, p):
    """Average over every input->output path of the product of the weight
    inclusion probabilities along it (single output, biases excluded)."""
    weights = [W for W, _ in unpack(layer_sizes, p)]
    hidden = layer_sizes[1:-1]
    total = np.zeros(layer_sizes[0])
    for path in itertools.product(*(range(h) for h in hidden)):
        prod = weights[0][:, path[0]].copy()
        for k in range(1, len(path)):
            prod *= weights[k][path[k - 1], path[k]]
        prod *= weights[-1][path[-1], 0]
        total += prod
    return total / math.prod(hidden)


def n_dropped(droprate: float, m: int) -> int:
    """round(droprate * M), halves rounding up."""
    return int(math.floor(droprate * m + 0.5))


def read_checkpoint(path):
    """Header and (m, rho, p, active) from the documented checkpoint layout."""
    raw = Path(path).read_bytes()
    if raw[:8] != b"SSBNNCK1":
        raise ValueError(f"{path}: bad magic")
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    M = header["n_params"]
    off = 12 + hlen
    arrays = [np.frombuffer(raw, "<f8", M, off + 8 * M * k) for k in range(3)]
    off += 24 * M
    active = None
    if header["has_mask"]:
        active = np.frombuffer(raw, np.uint8, M, off).astype(bool)
        off += M
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} unexpected trailing bytes")
    return header, arrays[0], arrays[1], arrays[2], active


# -------------------------------------------------------------------- checks


def _close(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False, f"shape {a.shape} != {b.shape}"
    err = np.abs(a - b)
    ok = bool(np.all(err <= ATOL + RTOL * np.abs(b)))
    return ok, f"max abs error {float(err.max(initial=0.0)):.3g}"


def check_predict(name, layer_sizes, activation, m, active, x, pred):
    """Prediction at the posterior mean equals the reference forward pass."""
    w = np.asarray(m, dtype=float)
    if active is not None:
        w = np.where(active, w, 0.0)
    ok, detail = _close(pred, ref_forward(layer_sizes, activation, w, x))
    return Check(name, ok, detail)


def check_inclusion_p(name, m, rho, p, active, prior):
    """Every active p equals the closed form logistic(B - A)."""
    act = np.ones(len(m), bool) if active is None else np.asarray(active, bool)
    ok, detail = _close(np.asarray(p)[act], ref_inclusion_p(m, rho, prior)[act])
    return Check(name, ok, f"{int(act.sum())} active; {detail}")


def check_psi(name, layer_sizes, p, psi):
    ok, detail = _close(psi, ref_psi(layer_sizes, p))
    return Check(name, ok, detail)


def check_prune(name, droprate, keep_p, keep_m2, p):
    """The p rule drops exactly round(droprate*M), and its mask equals the
    second-moment rule's mask, except among parameters tied in p (p is a
    strictly increasing function of m^2 + sigma^2 until it rounds to 1.0)."""
    keep_p = np.asarray(keep_p, bool)
    keep_m2 = np.asarray(keep_m2, bool)
    M = keep_p.size
    want = n_dropped(droprate, M)
    dropped = (int((~keep_p).sum()), int((~keep_m2).sum()))
    if dropped != (want, want):
        return Check(name, False, f"dropped {dropped}, expected {want} each")
    differ = keep_p != keep_m2
    tied = np.unique(np.asarray(p)[differ])
    ok = tied.size <= 1
    return Check(name, ok, f"dropped {want}/{M}; {int(differ.sum())} differ, "
                           f"{tied.size} distinct p among them")


def check_roundtrip(name, saved, loaded):
    """Every saved array comes back bit for bit (None must stay None)."""
    for key, a in saved.items():
        b = loaded.get(key)
        if (a is None) != (b is None):
            return Check(name, False, f"{key}: presence differs")
        if a is not None and (np.asarray(a).tobytes() != np.asarray(b).tobytes()
                              or np.shape(a) != np.shape(b)):
            return Check(name, False, f"{key}: bytes differ")
    return Check(name, True, f"{len(saved)} fields")


def check_beats_mean(name, pred, y_test, y_train):
    mse = float(np.mean((np.asarray(pred) - y_test) ** 2))
    base = float(np.mean((y_test - np.mean(y_train)) ** 2))
    return Check(name, mse < base, f"test MSE {mse:.4g} vs mean predictor {base:.4g}",
                 statistical=True)


def check_cv_recovery(name, proportion, z):
    true = float(np.mean(z))
    ok = abs(proportion - true) <= CV_RECOVERY_BOUND
    return Check(name, ok, f"chose {proportion:.2f}, realized {true:.2f}",
                 statistical=True)


def check_selection_accuracy(name, z, selected):
    acc = float(np.mean(np.asarray(z, bool) == np.asarray(selected, bool)))
    return Check(name, acc >= SELECTION_ACCURACY_MIN, f"accuracy {acc:.2f}",
                 statistical=True)


def check_pruned_frozen(name, keep, m, p, rho, rho_init):
    """Pruned entries keep m = 0, p = 0 and their initial rho bit for bit."""
    drop = ~np.asarray(keep, bool)
    ok = (np.all(np.asarray(m)[drop] == 0.0) and np.all(np.asarray(p)[drop] == 0.0)
          and np.asarray(rho)[drop].tobytes() == np.asarray(rho_init)[drop].tobytes())
    return Check(name, bool(ok), f"{int(drop.sum())} pruned entries")


def check_finite(name, **arrays):
    bad = [k for k, a in arrays.items() if not np.all(np.isfinite(a))]
    return Check(name, not bad, f"non-finite: {bad}" if bad else f"{len(arrays)} arrays")


def check_loss_decreased(name, train_loss):
    first, last = float(train_loss[0]), float(train_loss[-1])
    return Check(name, last < first, f"first {first:.4g}, last {last:.4g}",
                 statistical=True)


def check_prune_table(name, rows, droprates, m):
    """prune.csv has one row per droprate with sparsity round(r*M)/M."""
    got = [float(r["droprate"]) for r in rows]
    if got != sorted(droprates):
        return Check(name, False, f"droprates {got}")
    for r in rows:
        want = n_dropped(float(r["droprate"]), m) / m
        if abs(float(r["sparsity"]) - want) > 1e-12:
            return Check(name, False, f"droprate {r['droprate']}: sparsity "
                                      f"{r['sparsity']} != {want}")
    return Check(name, True, f"{len(rows)} rows")


def check_select_report(name, report, n_features):
    sel = report["selected"]
    ok = (len(sel) == n_features and set(sel) <= {0, 1}
          and report["n_selected"] == sum(sel))
    return Check(name, ok, f"n_selected {report['n_selected']}, sum {sum(sel)}")


def check_same(name, values):
    """All values equal: digests of repeated or traced rounds, or a library
    figure against the benchmark's own."""
    distinct = sorted(set(values), key=repr)
    shown = distinct if len(distinct) <= 3 else f"{len(distinct)} distinct"
    return Check(name, len(distinct) == 1, f"{len(values)} values: {shown}")

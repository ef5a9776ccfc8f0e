"""The versioned framed-binary checkpoint file.

The frame (integers and floats little-endian): bytes 0..7 the magic
b"SSBNNCK1"; bytes 8..11 the uint32 header length H; bytes 12..12+H a
UTF-8 JSON header with sorted keys; then the arrays back to back, each of
n_params entries in canonical order.  The header holds format_version
(int, currently 1), canonical_order (string id of the flat-vector layout),
n_params (int), layer_sizes, hidden_activation, output_head (always
"identity": the networks are regression models), prior {pi, tau1, tau0}
and has_mask (bool).  The arrays are float64 m, rho, p, then uint8 active
(1 = free) if has_mask.

Floats are raw IEEE-754 doubles, so save -> load round-trips bit-exactly.
The loader raises ValueError naming the file and what it expected when the
file is under 12 bytes or has another magic; when the header is truncated,
not a JSON object, or lacks a key or holds one of the wrong type; when
format_version or canonical_order differ from this library's; when the
file has more or fewer bytes than the header implies; when a p lies
outside [0, 1] or an active flag is not 0 or 1; when output_head is not
"identity"; or when n_params, layer sizes, activation or prior are
inconsistent.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .network import CANONICAL_ORDER, NetworkTopology, _check_params
from .svi import SpikeSlabPrior, VariationalParams

MAGIC = b"SSBNNCK1"
FORMAT_VERSION = 1

_HEADER_KEYS = {"format_version": int, "canonical_order": str, "n_params": int,
                "layer_sizes": list, "hidden_activation": str,
                "output_head": str, "prior": dict, "has_mask": bool}


def _check_bounds(path, name, values, bounds) -> None:
    # NaN fails both comparisons, so it is rejected too
    if bounds and not np.all((values >= bounds[0]) & (values <= bounds[1])):
        raise ValueError(f"{path}: {name} entries must lie in "
                         f"[{bounds[0]}, {bounds[1]}]")


def _layout(header):
    """(name, dtype, bounds) of each array after the header; bounds is an
    inclusive (lo, hi) range every entry must lie in, or None."""
    flags = [("active", "u1", (0, 1))] if header["has_mask"] else []
    return [("m", "<f8", None), ("rho", "<f8", None),
            ("p", "<f8", (0, 1))] + flags


def _read_framed(path):
    """Validate the frame and header of a checkpoint; (header, arrays)."""
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise ValueError(f"{path}: {len(raw)} bytes, expected at least 12")
    if raw[:8] != MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:8]!r}, expected {MAGIC!r}")
    (hlen,) = struct.unpack("<I", raw[8:12])
    try:
        header = json.loads(raw[12:12 + hlen].decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: header is not UTF-8 JSON ({exc})") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    for key, kind in _HEADER_KEYS.items():
        if key not in header:
            raise ValueError(f"{path}: header lacks key {key!r}")
        value = header[key]
        # JSON true/false load as bool, which is a subclass of int
        if not isinstance(value, kind) or (
                isinstance(value, bool) != (kind is bool)):
            raise ValueError(f"{path}: header key {key!r} has the wrong "
                             f"type: {value!r}")
    for key, expected in (("format_version", FORMAT_VERSION),
                          ("canonical_order", CANONICAL_ORDER)):
        if header[key] != expected:
            raise ValueError(f"{path}: {key} {header[key]!r}, "
                             f"expected {expected!r}")
    M, specs, off = header["n_params"], _layout(header), 12 + hlen
    size = off + M * sum(np.dtype(dtype).itemsize for _, dtype, _ in specs)
    if len(raw) != size:
        raise ValueError(f"{path}: {len(raw)} bytes, expected {size} for "
                         f"n_params={M}")
    arrays = []
    for name, dtype, bounds in specs:
        values = np.frombuffer(raw, dtype=dtype, count=M, offset=off).copy()
        off += values.nbytes
        _check_bounds(path, name, values, bounds)
        arrays.append(values)
    return header, arrays


def save_checkpoint(path, topology: NetworkTopology, prior: SpikeSlabPrior,
                    vp: VariationalParams) -> None:
    """Write the checkpoint file.  A state that does not fit ``topology``
    raises ShapeMismatch, and a p outside [0, 1] ValueError, before
    anything is written, so the writer makes no file its reader rejects."""
    _check_params(topology, vp.m)
    header = {
        "format_version": FORMAT_VERSION,
        "canonical_order": CANONICAL_ORDER,
        "n_params": len(vp),
        "layer_sizes": list(topology.layer_sizes),
        "hidden_activation": topology.hidden_activation,
        "output_head": "identity",
        "prior": {"pi": prior.pi, "tau1": prior.tau1, "tau0": prior.tau0},
        "has_mask": vp.active is not None,
    }
    # without a mask the layout lists three arrays, so active is not written
    specs = list(zip(_layout(header), (vp.m, vp.rho, vp.p, vp.active)))
    for (name, _, bounds), values in specs:
        _check_bounds(path, name, values, bounds)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for (_, dtype, _), values in specs:
            fh.write(np.ascontiguousarray(values, dtype=dtype).tobytes())


def load_checkpoint(path):
    """Returns (topology, prior, params) from a checkpoint file."""
    header, arrays = _read_framed(path)
    if header["output_head"] != "identity":
        raise ValueError(f"{path}: output_head {header['output_head']!r}, "
                         "expected 'identity'")
    try:
        topology = NetworkTopology(tuple(header["layer_sizes"]),
                                   header["hidden_activation"])
        prior = SpikeSlabPrior(**header["prior"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if header["n_params"] != topology.n_params:
        raise ValueError(f"{path}: n_params {header['n_params']}, expected "
                         f"{topology.n_params} for {topology.layer_sizes}")
    m, rho, p, *active = arrays
    return topology, prior, VariationalParams(
        m, rho, p, active=active[0].astype(bool) if active else None)

"""Fuzzing the checkpoint loader against damaged files.

Every damaged file must raise a ValueError that names the file; an intact
one must round-trip bit-exactly.  Each example rewrites one small file, so
the example counts stay low.
"""

import re
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import reframe
from sparsebnn import (
    NetworkTopology,
    ShapeMismatch,
    SpikeSlabPrior,
    VariationalParams,
    load_checkpoint,
    save_checkpoint,
)

FUZZ = settings(max_examples=50, deadline=None)

TOPOLOGY = NetworkTopology((1, 1, 1))
PRIOR = SpikeSlabPrior(0.5, 1.0, 0.1)
CHECKPOINT_KEYS = (
    "format_version", "canonical_order", "n_params", "layer_sizes",
    "hidden_activation", "output_head", "prior", "has_mask",
)
WRONG_VALUES = (None, True, False, -1, 1.5, "x", [], {})

floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
unit = st.floats(0.0, 1.0)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("formats")


def _state(active=None):
    return VariationalParams([0.5, -1.0, 2.0, 0.0], [-1.0, 0.0, 1.0, -2.0],
                             [0.2, 0.9, 0.0, 1.0], active=active)


@pytest.fixture(scope="module")
def intact(folder):
    """Bytes of an unmasked checkpoint and a masked one."""
    save_checkpoint(folder / "plain.ckpt", TOPOLOGY, PRIOR, _state())
    save_checkpoint(folder / "masked.ckpt", TOPOLOGY, PRIOR,
                    _state([True, True, False, True]))
    return {name: (folder / name).read_bytes()
            for name in ("plain.ckpt", "masked.ckpt")}


def _assert_rejected(folder, name, raw):
    path = folder / name
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_checkpoint(path)


_DROP = object()


def _replace(key, value):
    def edit(header):
        if value is _DROP:
            del header[key]
        else:
            header[key] = value
    return edit


@FUZZ
@given(sizes=st.lists(st.integers(1, 3), min_size=3, max_size=4),
       data=st.data(), masked=st.booleans())
def test_checkpoint_round_trip(folder, sizes, data, masked):
    topology = NetworkTopology(tuple(sizes), hidden_activation="tanh")
    M = topology.n_params
    vectors = st.lists(floats, min_size=M, max_size=M)
    active = data.draw(st.lists(st.booleans(), min_size=M, max_size=M))
    vp = VariationalParams(
        data.draw(vectors), data.draw(vectors),
        data.draw(st.lists(unit, min_size=M, max_size=M)),
        active=active if masked else None,
    )
    prior = SpikeSlabPrior(data.draw(st.floats(0.01, 0.99)), 2.0,
                           data.draw(st.floats(0.01, 1.99)))
    path = folder / "round.ckpt"
    save_checkpoint(path, topology, prior, vp)
    topology2, prior2, vp2 = load_checkpoint(path)
    assert (topology2, prior2) == (topology, prior)
    for a, b in ((vp2.m, vp.m), (vp2.rho, vp.rho), (vp2.p, vp.p)):
        assert a.tobytes() == b.tobytes()
    if masked:
        assert np.array_equal(vp2.active, vp.active)
    else:
        assert vp2.active is None


@FUZZ
@given(masked=st.booleans(), data=st.data())
def test_truncated_checkpoint_rejected(folder, intact, masked, data):
    raw = intact["masked.ckpt" if masked else "plain.ckpt"]
    cut = data.draw(st.integers(0, len(raw) - 1))
    _assert_rejected(folder, "cut.ckpt", raw[:cut])


@FUZZ
@given(key=st.sampled_from(CHECKPOINT_KEYS),
       value=st.sampled_from((_DROP, *WRONG_VALUES)))
def test_checkpoint_header_key_dropped_or_mistyped(folder, intact, key,
                                                   value):
    raw = intact["plain.ckpt"]
    edited = reframe(raw, _replace(key, value))
    assume(edited != raw)
    _assert_rejected(folder, "key.ckpt", edited)


@FUZZ
@given(extra=st.binary(min_size=1, max_size=16), masked=st.booleans())
def test_trailing_bytes_rejected(folder, intact, extra, masked):
    raw = intact["masked.ckpt" if masked else "plain.ckpt"]
    _assert_rejected(folder, "long.ckpt", raw + extra)


@FUZZ
@given(bad=st.one_of(st.floats(max_value=-1e-300),
                     st.floats(min_value=1.0000000000000002),
                     st.just(float("nan"))),
       index=st.integers(0, 3))
def test_p_outside_unit_interval_rejected(folder, intact, bad, index):
    # p is the last of an unmasked checkpoint's three float64 arrays
    raw = bytearray(intact["plain.ckpt"])
    at = len(raw) - 8 * (len(_state()) - index)
    raw[at:at + 8] = struct.pack("<d", bad)
    _assert_rejected(folder, "p.ckpt", bytes(raw))


@FUZZ
@given(bad=st.one_of(st.floats(max_value=-1e-300),
                     st.floats(min_value=1.0000000000000002),
                     st.just(float("nan"))),
       index=st.integers(0, 3), masked=st.booleans())
def test_save_rejects_p_outside_unit_interval(folder, bad, index, masked):
    vp = _state([True, True, False, True] if masked else None)
    vp.p[index] = bad
    path = folder / "unwritten.ckpt"
    path.unlink(missing_ok=True)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        save_checkpoint(path, TOPOLOGY, PRIOR, vp)
    assert not path.exists()


def test_save_rejects_a_state_of_another_topology(folder):
    vp = VariationalParams(np.zeros(5), np.zeros(5), np.full(5, 0.5))
    path = folder / "mismatched.ckpt"
    with pytest.raises(ShapeMismatch) as err:
        save_checkpoint(path, TOPOLOGY, PRIOR, vp)
    assert (err.value.expected, err.value.actual) == ((4,), (5,))
    assert not path.exists()


@FUZZ
@given(byte=st.integers(2, 255), index=st.integers(1, 4))
def test_flag_byte_other_than_0_or_1_rejected(folder, intact, byte, index):
    # the active flags are a masked checkpoint's last four bytes
    raw = bytearray(intact["masked.ckpt"])
    raw[-index] = byte
    _assert_rejected(folder, "flag.ckpt", bytes(raw))


@pytest.mark.parametrize("masked", [True, False])
def test_canonical_order_mismatch_rejected(folder, intact, masked):
    raw = intact["masked.ckpt" if masked else "plain.ckpt"]
    edited = reframe(raw, _replace("canonical_order", "column-major/v0"))
    _assert_rejected(folder, "order.ckpt", edited)


def test_output_head_other_than_identity_rejected(folder, intact):
    # the library is regression-only; its writer always says "identity"
    edited = reframe(intact["plain.ckpt"], _replace("output_head", "softmax"))
    _assert_rejected(folder, "head.ckpt", edited)


def test_header_that_is_not_an_object_rejected(folder, intact):
    edited = reframe(intact["plain.ckpt"], header=[1, 2])
    path = folder / "array.ckpt"
    path.write_bytes(edited)
    with pytest.raises(ValueError, match="header is not a JSON object"):
        load_checkpoint(path)


def test_n_params_that_disagrees_with_layer_sizes_rejected(folder, intact):
    # n_params still matches the file's length; (1, 2, 1) has 7 parameters
    edited = reframe(intact["plain.ckpt"], _replace("layer_sizes", [1, 2, 1]))
    path = folder / "sizes.ckpt"
    path.write_bytes(edited)
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: n_params 4, expected 7 for (1, 2, 1)")):
        load_checkpoint(path)

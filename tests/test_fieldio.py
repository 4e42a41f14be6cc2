import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sbphodge.errors import BadDomain, CorruptFieldFile, GridTooSmall
from sbphodge.fieldio import (
    read_field_binary,
    read_field_csv,
    write_field_binary,
    write_field_csv,
)
from sbphodge.tensor import GridField, square_tensor_ops


@pytest.mark.parametrize("dim,kind", [(2, "scalar"), (2, "vector"),
                                      (3, "scalar"), (3, "vector")])
def test_binary_roundtrip(tmp_path, rng, dim, kind):
    ops = square_tensor_ops(2, 5, dim, -1.5, 2.0)
    shape = ops.shape if kind == "scalar" else (dim, *ops.shape)
    field = ops.field(rng.standard_normal(shape))
    path = tmp_path / "field.bin"
    write_field_binary(path, field)
    back = read_field_binary(path)
    assert back.kind == kind
    assert back.bounds == field.bounds
    assert np.array_equal(back.data, field.data)


@pytest.mark.parametrize("dim,kind", [(2, "scalar"), (2, "vector"),
                                      (3, "vector")])
def test_csv_roundtrip_bit_exact(tmp_path, rng, dim, kind):
    ops = square_tensor_ops(2, 4, dim, 0.0, 1.0)
    shape = ops.shape if kind == "scalar" else (dim, *ops.shape)
    field = ops.field(rng.standard_normal(shape))
    path = tmp_path / "field.csv"
    write_field_csv(path, field)
    back = read_field_csv(path)
    assert back.kind == kind
    assert back.bounds == field.bounds
    assert np.array_equal(back.data, field.data)


@pytest.mark.parametrize("writer", [write_field_binary, write_field_csv])
@pytest.mark.parametrize("shape,bounds,error", [
    ((3, 3), ((1.0, -1.0), (0.0, 1.0)), BadDomain),
    ((3, 3), ((0.0, 1.0), (0.0, np.nan)), BadDomain),
    ((3, 3), ((0.0, np.inf), (0.0, 1.0)), BadDomain),
    ((3, 1), ((0.0, 1.0), (0.0, 1.0)), GridTooSmall),
], ids=["reversed", "nan", "inf", "one-node"])
def test_writers_cannot_be_handed_a_bad_domain(tmp_path, writer, shape,
                                               bounds, error):
    """A field no reader would accept cannot be built, so it is never
    written."""
    path = tmp_path / "field"
    with pytest.raises(error):
        writer(path, GridField(np.zeros(shape), bounds))
    assert not path.exists()


def test_binary_rejects_wrong_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        read_field_binary(path)


def test_csv_requires_metadata(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("x1,value\n0.0,1.0\n")
    with pytest.raises(ValueError):
        read_field_csv(path)


# -- binary format: round trip and corruption ---------------------------------


@st.composite
def grid_fields(draw):
    d = draw(st.sampled_from([2, 3]))
    shape = tuple(draw(st.lists(st.integers(2, 5), min_size=d, max_size=d)))
    bounds = []
    for _ in range(d):
        lo = draw(st.floats(-1e6, 1e6))
        hi = lo + draw(st.floats(1e-3, 1e6))
        bounds.append((lo, hi))
    full = shape if draw(st.booleans()) else (d, *shape)
    data = draw(arrays(np.float64, full, elements=st.floats(allow_nan=False)))
    return GridField(data, tuple(bounds))


@settings(max_examples=40, deadline=None)
@given(field=grid_fields())
def test_binary_roundtrip_property(tmp_path_factory, field):
    path = tmp_path_factory.mktemp("rt") / "field.bin"
    write_field_binary(path, field)
    back = read_field_binary(path)
    assert back.kind == field.kind
    assert back.bounds == field.bounds
    assert np.array_equal(back.data, field.data)


@settings(max_examples=40, deadline=None)
@given(field=grid_fields(), data=st.data())
def test_binary_rejects_truncation_and_trailing_bytes(tmp_path_factory, field,
                                                       data):
    path = tmp_path_factory.mktemp("cut") / "field.bin"
    write_field_binary(path, field)
    blob = path.read_bytes()
    cut = data.draw(st.integers(0, len(blob) - 1))
    path.write_bytes(blob[:cut])
    with pytest.raises(CorruptFieldFile):
        read_field_binary(path)
    extra = data.draw(st.binary(min_size=1, max_size=16))
    path.write_bytes(blob + extra)
    with pytest.raises(CorruptFieldFile):
        read_field_binary(path)


def _valid_blob(tmp_path):
    ops = square_tensor_ops(2, 4, 2)
    path = tmp_path / "field.bin"
    write_field_binary(path, ops.field(np.ones((2, 4, 4))))
    return path, bytearray(path.read_bytes())


@pytest.mark.parametrize("offset,value", [(4, 2), (5, 1), (5, 4), (6, 7)],
                         ids=["version", "dim1", "dim4", "kind7"])
def test_binary_rejects_bad_header_bytes(tmp_path, offset, value):
    path, blob = _valid_blob(tmp_path)
    blob[offset] = value
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptFieldFile):
        read_field_binary(path)


@pytest.mark.parametrize("shape,bounds", [
    ((1, 4), (-1.0, 1.0)),
    ((4, 4), (1.0, -1.0)),
    ((4, 4), (float("nan"), 1.0)),
    ((2**31, 2**31), (-1.0, 1.0)),
], ids=["one-node", "empty-interval", "nan-bound", "huge-shape"])
def test_binary_rejects_bad_grid_header(tmp_path, shape, bounds):
    path, blob = _valid_blob(tmp_path)
    blob[7:15] = struct.pack("<2I", *shape)
    blob[15:31] = struct.pack("<2d", *bounds)
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptFieldFile):
        read_field_binary(path)


def test_binary_truncated_payload_is_typed(tmp_path):
    path, blob = _valid_blob(tmp_path)
    path.write_bytes(bytes(blob[:-9]))
    with pytest.raises(CorruptFieldFile, match="payload"):
        read_field_binary(path)


# -- CSV format: corruption -------------------------------------------------------


_CSV_META = "# field dim=2 kind=scalar shape=2x2 bounds=0.0:1.0,0.0:1.0\n"
_CSV_BODY = "x1,x2,value\n0,0,1\n0,1,2\n1,0,3\n1,1,4\n"


@pytest.mark.parametrize("text", [
    "# field dim=2 shape=2x2 bounds=0.0:1.0,0.0:1.0\n" + _CSV_BODY,
    "# field dim=2 kind=scalar shape=2x2 bounds=0.0:1.0,0.0:1.0 n=4\n"
    + _CSV_BODY,
    "# field dim=2 kind=scalar shape=2x2 bounds\n" + _CSV_BODY,
    _CSV_META.replace("dim=2", "dim=two") + _CSV_BODY,
    _CSV_META.replace("dim=2", "dim=4") + _CSV_BODY,
    _CSV_META.replace("dim=2", "dim=3") + _CSV_BODY,
    _CSV_META.replace("shape=2x2", "shape=2x2x2") + _CSV_BODY,
    _CSV_META.replace("kind=scalar", "kind=tensor") + _CSV_BODY,
    _CSV_META.replace("shape=2x2", "shape=1x4") + _CSV_BODY,
    _CSV_META.replace("0.0:1.0,", "1.0:1.0,") + _CSV_BODY,
    _CSV_META.replace("0.0:1.0,", "nan:1.0,") + _CSV_BODY,
    _CSV_META.replace("0.0:1.0,", "0.0:1.0:2.0,") + _CSV_BODY,
    _CSV_META + _CSV_BODY + "2,2,5\n",
    _CSV_META + _CSV_BODY.rsplit("1,1,4\n", 1)[0],
    _CSV_META + _CSV_BODY.replace("1,1,4", "1,1"),
    _CSV_META + _CSV_BODY.replace("1,1,4", "1,1,four"),
    _CSV_META.replace("shape=2x2", "shape=65536x65536") + _CSV_BODY,
    _CSV_META + "x1,x2,value\n1,1,4\n1,0,3\n0,1,2\n0,0,1\n",
    _CSV_META + "x1,x2,value\n0,0,1\n1,0,3\n0,1,2\n1,1,4\n",
    _CSV_META + _CSV_BODY.replace("1,1,4", "1,nan,4"),
], ids=["no-kind", "unknown-key", "no-equals", "dim-text", "dim4",
        "dim-vs-shape", "shape-vs-dim", "kind", "one-node", "empty-bounds",
        "nan-bound", "bound-triple", "extra-row", "missing-row", "short-row",
        "non-numeric", "huge-shape", "reversed-rows", "swapped-rows",
        "nan-coordinate"])
def test_csv_rejects_corruption(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(CorruptFieldFile):
        read_field_csv(path)


def test_csv_rejects_binary_file(tmp_path):
    path, _ = _valid_blob(tmp_path)
    with pytest.raises(CorruptFieldFile):
        read_field_csv(path)


@settings(max_examples=40, deadline=None)
@given(field=grid_fields(), data=st.data())
def test_csv_rejects_truncation(tmp_path_factory, field, data):
    path = tmp_path_factory.mktemp("cut") / "field.csv"
    write_field_csv(path, field)
    text = path.read_text()
    # a cut inside the last value leaves a well-formed file of other data,
    # so cut anywhere up to the start of that value
    cut = data.draw(st.integers(0, text.rindex(",") + 1))
    path.write_text(text[:cut])
    with pytest.raises(CorruptFieldFile):
        read_field_csv(path)

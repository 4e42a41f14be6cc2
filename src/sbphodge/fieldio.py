"""Field (de)serialization: CSV and a compact binary format.

Binary layout (little endian):
    magic  b"SBPH"
    u8     format version (1)
    u8     dim (2 or 3)
    u8     kind (0 scalar, 1 vector)
    u32*d  shape
    f64*2d bounds (lo, hi per axis)
    f64*   payload, C order, component axis outermost for vector fields

CSV files carry one metadata comment line, a header row, and one row per node
with the node coordinates followed by the component values.  Floats are
written with ``repr`` so a read-back reproduces the payload bit for bit.
"""

from __future__ import annotations

import csv
import io
import math
import struct

import numpy as np

from .errors import BadDomain, CorruptFieldFile, GridTooSmall
from .grid import Grid1D
from .tensor import GridField

_MAGIC = b"SBPH"
_VERSION = 1


def write_field_binary(path, field: GridField) -> None:
    d = field.dim
    kind = 0 if field.kind == "scalar" else 1
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<BBB", _VERSION, d, kind))
        fh.write(struct.pack(f"<{d}I", *field.shape))
        flat_bounds = [x for pair in field.bounds for x in pair]
        fh.write(struct.pack(f"<{2 * d}d", *flat_bounds))
        fh.write(np.ascontiguousarray(field.data, dtype="<f8").tobytes())


def read_field_binary(path) -> GridField:
    """Read a field written by ``write_field_binary``.

    Raises CorruptFieldFile when the magic, version, dim or kind byte is
    wrong, when the header is truncated or holds a grid no operator can have
    (fewer than 2 nodes on an axis, empty or non-finite bounds), and when the
    payload is not exactly the size the header announces.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise CorruptFieldFile(f"not a field file (magic {blob[:4]!r})")
    if len(blob) < 7:
        raise CorruptFieldFile("truncated header")
    version, d, kind = struct.unpack_from("<BBB", blob, 4)
    if version != _VERSION:
        raise CorruptFieldFile(f"unsupported format version {version}")
    if d not in (2, 3) or kind not in (0, 1):
        raise CorruptFieldFile(f"bad header: dim {d}, kind {kind}")
    start = 7 + 20 * d
    if len(blob) < start:
        raise CorruptFieldFile("truncated header")
    shape = struct.unpack_from(f"<{d}I", blob, 7)
    flat = struct.unpack_from(f"<{2 * d}d", blob, 7 + 4 * d)
    bounds = tuple((flat[2 * i], flat[2 * i + 1]) for i in range(d))
    _header_grids(shape, bounds)
    count = math.prod(shape) * (d if kind else 1)
    if len(blob) - start != 8 * count:
        raise CorruptFieldFile(
            f"header announces {8 * count} payload bytes, file holds "
            f"{len(blob) - start}"
        )
    data = np.frombuffer(blob, dtype="<f8", offset=start).astype(np.float64)
    full_shape = (d, *shape) if kind else shape
    return GridField(data.reshape(full_shape), bounds)


def _header_grids(shape, bounds) -> tuple:
    """The axis grids of a header, or CorruptFieldFile if one is bad."""
    try:
        return tuple(Grid1D(lo, hi, n) for (lo, hi), n in zip(bounds, shape))
    except (GridTooSmall, BadDomain) as exc:
        raise CorruptFieldFile(f"bad grid in header: {exc}") from None


def dump_field_csv(stream, field: GridField) -> None:
    d = field.dim
    comps = field.data[None] if field.kind == "scalar" else field.data
    names = ["value"] if field.kind == "scalar" else [f"c{i + 1}" for i in range(d)]
    coords = np.meshgrid(*(g.nodes() for g in field.grids), indexing="ij")
    meta = {
        "dim": d,
        "kind": field.kind,
        "shape": "x".join(str(n) for n in field.shape),
        "bounds": ",".join(f"{repr(lo)}:{repr(hi)}" for lo, hi in field.bounds),
    }
    stream.write("# field " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
    writer = csv.writer(stream)
    writer.writerow([f"x{i + 1}" for i in range(d)] + names)
    for row in zip(*(c.ravel() for c in coords), *(c.ravel() for c in comps)):
        writer.writerow([repr(float(x)) for x in row])


def write_field_csv(path, field: GridField) -> None:
    with open(path, "w", newline="") as fh:
        dump_field_csv(fh, field)


def read_field_csv(path) -> GridField:
    """Read a field written by ``write_field_csv``.

    Raises CorruptFieldFile when the file is not text, when the metadata line
    is missing, lacks a key or has an unknown one, or announces a bad dim or
    kind or a grid the binary reader would reject, when the body does not
    hold exactly one full, numeric row per node, and when a row's coordinates
    are not those of its node (rows out of order) to within 1e-6 of a cell.
    """
    try:
        with open(path, "r", newline="") as fh:
            header, _, body = fh.read().partition("\n")
    except UnicodeDecodeError as exc:
        raise CorruptFieldFile(f"not a CSV field file: {exc}") from None
    if not header.startswith("# field "):
        raise CorruptFieldFile("missing field metadata line")
    try:
        items = header[len("# field ") :].split()
        meta = dict(item.split("=", 1) for item in items)
        if set(meta) != {"dim", "kind", "shape", "bounds"}:
            raise ValueError(f"keys {sorted(meta)}")
        d = int(meta["dim"])
        kind = meta["kind"]
        shape = tuple(int(s) for s in meta["shape"].split("x"))
        bounds = tuple(
            tuple(float(x) for x in pair.split(":"))
            for pair in meta["bounds"].split(",")
        )
    except ValueError as exc:
        raise CorruptFieldFile(f"bad field metadata: {exc}") from None
    if (d not in (2, 3) or kind not in ("scalar", "vector")
            or len(shape) != d or len(bounds) != d
            or any(len(pair) != 2 for pair in bounds)):
        raise CorruptFieldFile(f"bad field metadata line: {header.strip()}")
    grids = _header_grids(shape, bounds)
    rows = [row for row in csv.reader(io.StringIO(body)) if row][1:]
    width = d + (1 if kind == "scalar" else d)
    if len(rows) != math.prod(shape):
        raise CorruptFieldFile(
            f"header announces {math.prod(shape)} rows, file holds {len(rows)}"
        )
    if any(len(row) != width for row in rows):
        raise CorruptFieldFile(f"a row does not hold {width} cells")
    try:
        values = np.array([[float(x) for x in row] for row in rows])
    except ValueError as exc:
        raise CorruptFieldFile(f"non-numeric cell: {exc}") from None
    coords = np.stack([c.ravel() for c in np.meshgrid(
        *(g.nodes() for g in grids), indexing="ij")], 1)
    cell = np.array([g.dx for g in grids])
    if not np.all(np.abs(values[:, :d] - coords) <= 1e-6 * cell):
        raise CorruptFieldFile(
            "node coordinates do not match the grid of the metadata line"
        )
    full_shape = shape if kind == "scalar" else (d, *shape)
    return GridField(values[:, d:].T.reshape(full_shape), bounds)

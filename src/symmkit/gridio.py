"""File formats: GRD1 grids, polygon/contraction JSON, chord-region JSON.

GRD1 layout: an ASCII magic line ``GRD1``, one JSON header line
``{"dims": [...], "origin": [...], "spacing": h}``, then ``prod(dims)``
little-endian IEEE-754 doubles in row-major order.  Grid sets use the same
container with values restricted to {0.0, 1.0}.
"""

from __future__ import annotations

import json
import os
import stat

import numpy as np

from .contractions import PLContraction
from .geometry import Grid, GridFunction, set_from_indicator

MAGIC = b"GRD1"
STREAM_CHUNK = 1 << 20  # bytes per read of a payload that is not a regular file
HEADER_LIMIT = 1 << 16  # most bytes read for the magic line or the header line


def _is_number(x, integral=False):
    return not isinstance(x, bool) and isinstance(x, int if integral else (int, float))


def _is_vector(x, integral=False):
    return isinstance(x, list) and all(_is_number(c, integral) for c in x)


def _is_pairs(x):
    return isinstance(x, list) and all(_is_vector(p) and len(p) == 2 for p in x)


_GRD1_HEADER = {
    "dims": ("a list of integers", lambda x: _is_vector(x, integral=True)),
    "origin": ("a list of numbers", _is_vector),
    "spacing": ("a number", _is_number),
}
_POLYGON = {"vertices": ("a list of [x, y] pairs", _is_pairs)}
_CONTRACTION = {"breakpoints": ("a list of [t, y] pairs", _is_pairs)}
_REGION = {
    "u": ("a list of numbers", _is_vector),
    "gplus": ("a list of [x, y] pairs", _is_pairs),
    "gminus": ("a list of [x, y] pairs", _is_pairs),
}


def _fields(payload, what, spec):
    """The values of spec's keys in a JSON payload, each checked for its type.

    Raises ValueError naming the first key that is missing or ill-typed.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object")
    values = []
    for key, (kind, ok) in spec.items():
        if key not in payload:
            raise ValueError(f"{what} has no {key!r}")
        if not ok(payload[key]):
            raise ValueError(f"{what} {key!r} must be {kind}, got {payload[key]!r}")
        values.append(payload[key])
    return values


def _loads(text, what):
    """The JSON value in ``text``; ValueError if it is nested past the recursion limit."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply") from None


def _read_json_fields(path, what, spec):
    with open(path) as fh:
        return _fields(_loads(fh.read(), what), what, spec)


def write_grid_function(path, f):
    header = {"dims": list(f.grid.dims), "origin": list(f.grid.origin), "spacing": f.grid.spacing}
    with open(path, "wb") as fh:
        fh.write(MAGIC + b"\n")
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_grid_function(path):
    with open(path, "rb") as fh:
        magic = fh.readline(HEADER_LIMIT).strip()
        if magic != MAGIC:
            raise ValueError(f"not a GRD1 file: bad magic {magic!r}")
        line = fh.readline(HEADER_LIMIT)
        if not line.endswith(b"\n"):
            raise ValueError(f"GRD1 header line has no newline within {HEADER_LIMIT} bytes")
        header = _loads(line.decode(), "GRD1 header")
        dims, origin, spacing = _fields(header, "GRD1 header", _GRD1_HEADER)
        grid = Grid(tuple(dims), tuple(origin), float(spacing))
        size = 8 * grid.num_cells
        # a header claiming more cells than a regular file holds is refused
        # before the read allocates its payload; any other stream is read in
        # bounded chunks, so it runs dry before the claim is allocated
        st = os.fstat(fh.fileno())
        regular = stat.S_ISREG(st.st_mode)
        if regular and st.st_size - fh.tell() < size:
            raise ValueError("GRD1 payload truncated")
        chunks = []
        left = size
        while left > 0:
            chunk = fh.read(left if regular else min(left, STREAM_CHUNK))
            if not chunk:
                raise ValueError("GRD1 payload truncated")
            chunks.append(chunk)
            left -= len(chunk)
        raw = b"".join(chunks)
        if fh.read(1):
            raise ValueError("GRD1 payload has trailing bytes")
        values = np.frombuffer(raw, dtype="<f8").reshape(grid.dims)
    return GridFunction(grid, values)


def write_grid_set(path, a):
    write_grid_function(path, a.indicator())


def read_grid_set(path):
    return set_from_indicator(read_grid_function(path))


def write_polygon(path, poly):
    payload = {"vertices": [[float(x), float(y)] for x, y in poly.vertices]}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def read_polygon(path):
    from .polygons import ConvexPolygon

    (vertices,) = _read_json_fields(path, "polygon", _POLYGON)
    return ConvexPolygon(vertices)


def write_contraction(path, phi):
    payload = {"breakpoints": [[t, y] for t, y in phi.breakpoint_pairs()]}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def read_contraction(path):
    (pairs,) = _read_json_fields(path, "contraction", _CONTRACTION)
    return PLContraction.from_breakpoints(pairs)


def region_to_dict(region):
    return {
        "u": [float(c) for c in region.u],
        "omega": [float(region.xs[0]), float(region.xs[-1])],
        "gplus": [[float(x), float(y)] for x, y in zip(region.xs, region.upper)],
        "gminus": [[float(x), float(y)] for x, y in zip(region.xs, region.lower)],
    }


def write_region(path, region):
    with open(path, "w") as fh:
        json.dump(region_to_dict(region), fh, sort_keys=True)
        fh.write("\n")


def read_region(path):
    from .polygons import ChordMovedRegion

    u, gplus, gminus = _read_json_fields(path, "region", _REGION)
    gplus = np.asarray(gplus, dtype=float).reshape(-1, 2)
    gminus = np.asarray(gminus, dtype=float).reshape(-1, 2)
    if not (np.isfinite(gplus).all() and np.isfinite(gminus).all()):
        raise ValueError("region breakpoints must be finite")
    if not np.array_equal(gplus[:, 0], gminus[:, 0]):
        raise ValueError("gplus and gminus must share their breakpoint stations")
    return ChordMovedRegion(tuple(u), gplus[:, 0], gminus[:, 1], gplus[:, 1])

"""File formats: GRD1 grids, polygon/contraction JSON, chord-region JSON.

GRD1 layout: an ASCII magic line ``GRD1``, one JSON header line
``{"dims": [...], "origin": [...], "spacing": h}``, then ``prod(dims)``
little-endian IEEE-754 doubles in row-major order.  Grid sets use the same
container with values restricted to {0.0, 1.0}.
"""

from __future__ import annotations

import json

import numpy as np

from .chordmaps import ChordMovedRegion
from .contractions import PLContraction
from .geometry import Grid, GridFunction, set_from_indicator
from .polygons import ConvexPolygon

MAGIC = b"GRD1"


def write_grid_function(path, f):
    header = {"dims": list(f.grid.dims), "origin": list(f.grid.origin), "spacing": f.grid.spacing}
    with open(path, "wb") as fh:
        fh.write(MAGIC + b"\n")
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_grid_function(path):
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != MAGIC:
            raise ValueError(f"not a GRD1 file: bad magic {magic!r}")
        header = json.loads(fh.readline().decode())
        grid = Grid(tuple(header["dims"]), tuple(header["origin"]), float(header["spacing"]))
        raw = fh.read(8 * grid.num_cells)
        if len(raw) != 8 * grid.num_cells:
            raise ValueError("GRD1 payload truncated")
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
    with open(path) as fh:
        payload = json.load(fh)
    return ConvexPolygon(np.asarray(payload["vertices"], dtype=float))


def write_contraction(path, phi):
    payload = {"breakpoints": [[t, y] for t, y in phi.breakpoint_pairs()]}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def read_contraction(path):
    with open(path) as fh:
        payload = json.load(fh)
    return PLContraction.from_breakpoints(payload["breakpoints"])


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
    with open(path) as fh:
        payload = json.load(fh)
    gplus = np.asarray(payload["gplus"], dtype=float)
    gminus = np.asarray(payload["gminus"], dtype=float)
    if not np.array_equal(gplus[:, 0], gminus[:, 0]):
        raise ValueError("gplus and gminus must share their breakpoint stations")
    return ChordMovedRegion(tuple(payload["u"]), gplus[:, 0], gminus[:, 1], gplus[:, 1])

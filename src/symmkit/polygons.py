"""Exact planar convex polygons: construction, chords, rasters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import UNIT_TOL, GridSet, _frozen

CROSS_TOL = 1e-12
CLIP_EPS = 1e-12


def perp(u):
    """In-plane coordinate direction for the hyperplane orthogonal to u.

    Chosen so that for u = e2 the chord coordinate is the plain x1 axis.
    """
    u = np.asarray(u, dtype=float)
    return np.array([u[1], -u[0]])


def signed_area(vertices):
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex polygon given by counter-clockwise vertices."""

    vertices: np.ndarray

    def __post_init__(self):
        v = _frozen(self.vertices)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise ValueError("need at least three planar vertices")
        if not np.all(np.isfinite(v)):
            raise ValueError("polygon vertices must be finite")
        e = np.roll(v, -1, axis=0) - v
        cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        if np.any(cross <= CROSS_TOL):
            raise ValueError("vertices must be counter-clockwise and strictly convex")
        object.__setattr__(self, "vertices", v)

    def area(self):
        return signed_area(self.vertices)

    def perimeter(self):
        e = np.roll(self.vertices, -1, axis=0) - self.vertices
        return float(np.sum(np.hypot(e[:, 0], e[:, 1])))

    def translate(self, vec):
        return ConvexPolygon(self.vertices + np.asarray(vec, dtype=float))

    def reflect_across(self, u):
        """Reflection in the line through the origin orthogonal to u."""
        u = np.asarray(u, dtype=float)
        v = self.vertices - 2.0 * np.outer(self.vertices @ u, u)
        return ConvexPolygon(v[::-1])  # reflection reverses orientation

    def scale_about_centroid(self, factor):
        c = self.vertices.mean(axis=0)
        return ConvexPolygon(c + factor * (self.vertices - c))

    def contains(self, point):
        p = np.asarray(point, dtype=float)
        v = self.vertices
        e = np.roll(v, -1, axis=0) - v
        w = p - v
        cross = e[:, 0] * w[:, 1] - e[:, 1] * w[:, 0]
        return bool(np.all(cross >= -CROSS_TOL))

    def edge_constraints(self):
        """Half-plane form a.p >= b with inward normals, one per edge."""
        v = self.vertices
        e = np.roll(v, -1, axis=0) - v
        normals = np.stack([-e[:, 1], e[:, 0]], axis=1)  # inward for ccw
        rhs = np.sum(normals * v, axis=1)
        return normals, rhs


def convex_hull(points):
    """Counter-clockwise hull via the monotone chain, strict turns only."""
    pts = sorted({(float(x), float(y)) for x, y in np.asarray(points, dtype=float)})
    if len(pts) < 3:
        return np.asarray(pts, dtype=float)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= CROSS_TOL:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= CROSS_TOL:
            upper.pop()
        upper.append(p)
    return np.asarray(lower[:-1] + upper[:-1], dtype=float)


def _chord_direction(u):
    """``u`` as a float array; ValueError unless it is a finite unit 2-vector."""
    u = np.asarray(u, dtype=float)
    if u.shape != (2,) or not np.all(np.isfinite(u)) or abs(float(np.linalg.norm(u)) - 1.0) > UNIT_TOL:
        raise ValueError(f"chord direction u must be a finite unit 2-vector, got {u.tolist()}")
    return u


def chords_at(poly, u, xs):
    """Extents along u of the intersections of ``poly`` with the lines {x*perp(u) + t*u}.

    Reads the polygon's half-planes from :meth:`ConvexPolygon.edge_constraints`;
    returns (lo, hi, nonempty) with lo/hi meaningful only where ``nonempty`` is True.
    """
    u = np.asarray(u, dtype=float)
    w = perp(u)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    normals, rhs = poly.edge_constraints()
    # constraint: (a.u) t >= b - (a.w) x  for each edge a.p >= b
    au = normals @ u
    aw = normals @ w
    free = rhs[:, None] - np.outer(aw, xs)  # (edges, nx)
    lo = np.full(xs.shape, -np.inf)
    hi = np.full(xs.shape, np.inf)
    ok = np.ones(xs.shape, dtype=bool)
    scale = max(1.0, float(np.abs(poly.vertices).max()))
    # free / au carries a rounding error of about eps * scale * |a| / |au|, so
    # an edge nearly parallel to u bounds its chords only loosely; the
    # emptiness test widens by that factor for the edges that bound a chord
    norm = np.hypot(normals[:, 0], normals[:, 1]) * np.linalg.norm(u)
    widen = np.maximum(1.0, norm / np.maximum(np.abs(au), CLIP_EPS))
    lo_widen = np.ones(xs.shape)
    hi_widen = np.ones(xs.shape)
    for j in range(len(rhs)):
        if au[j] > CLIP_EPS:
            t = free[j] / au[j]
            lo_widen = np.where(t > lo, widen[j], lo_widen)
            lo = np.maximum(lo, t)
        elif au[j] < -CLIP_EPS:
            t = free[j] / au[j]
            hi_widen = np.where(t < hi, widen[j], hi_widen)
            hi = np.minimum(hi, t)
        else:
            ok &= free[j] <= CLIP_EPS * scale
    ok &= lo <= hi + CLIP_EPS * scale * np.maximum(lo_widen, hi_widen)
    return lo, hi, ok


def chord(poly, u, x):
    """Single chord query on a ConvexPolygon; None when the line misses it.

    Returns (lo, hi); degenerate touching chords are kept with lo == hi.
    ValueError unless ``u`` is a finite unit 2-vector.
    """
    lo, hi, ok = chords_at(poly, _chord_direction(u), [float(x)])
    if not ok[0]:
        return None
    lo_v, hi_v = float(lo[0]), float(hi[0])
    if hi_v < lo_v:  # touching within tolerance
        lo_v = hi_v = (lo_v + hi_v) / 2.0
    return lo_v, hi_v


def polygon_raster(grid, poly):
    """Cells of a 2D grid whose centers lie in the polygon."""
    if grid.n != 2:
        raise ValueError("polygon rasters need a 2D grid")
    centers = grid.centers()
    normals, rhs = poly.edge_constraints()
    inside = np.all(centers @ normals.T >= rhs - 1e-12, axis=1)
    return GridSet(grid, inside.reshape(grid.dims))

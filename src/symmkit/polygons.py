"""Exact planar convex polygons and the regions between two graphs over H: construction, chords, rasters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import UNIT_TOL, GridSet, _breakpoints, _frozen

CROSS_TOL = 1e-12


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


@dataclass(frozen=True)
class ChordMovedRegion:
    """Region between two piecewise-linear graphs over an interval of H.

    ``xs`` are the shared breakpoint stations along the hyperplane direction;
    ``lower``/``upper`` are the graph values along u.  A polygon read along u
    (:func:`boundary_graphs`) is one, and so is its chord-moved image.
    """

    u: tuple
    xs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        xs, lower, upper = _breakpoints("region breakpoints", self.xs, self.lower, self.upper)
        span = max(1.0, float(np.abs(upper).max()), float(np.abs(lower).max()))
        if np.any(upper - lower < -1e-9 * span):
            raise ValueError("upper graph must dominate the lower graph")
        object.__setattr__(self, "u", tuple(float(c) for c in self.u))
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def omega(self):
        return float(self.xs[0]), float(self.xs[-1])

    def at(self, x):
        """(lower, upper) at stations ``x``, linear between breakpoints: the graphs' one evaluator."""
        return np.interp(x, self.xs, self.lower), np.interp(x, self.xs, self.upper)

    def chord(self, x):
        """Chord extents (lo, hi) at station ``x``, equal through a lone extreme vertex; None off :attr:`omega`."""
        if not self.xs[0] <= x <= self.xs[-1]:
            return None
        lo, hi = self.at(x)
        return float(lo), float(hi)

    def area(self):
        gaps = self.upper - self.lower
        return float(np.sum((gaps[1:] + gaps[:-1]) / 2.0 * np.diff(self.xs)))


def _chord_direction(u):
    """``u`` as a float array; ValueError unless it is a finite unit 2-vector."""
    u = np.asarray(u, dtype=float)
    if u.shape != (2,) or not np.all(np.isfinite(u)) or abs(float(np.linalg.norm(u)) - 1.0) > UNIT_TOL:
        raise ValueError(f"chord direction u must be a finite unit 2-vector, got {u.tolist()}")
    return u


def boundary_graphs(poly, u):
    """``poly`` read along the unit ``u``: the :class:`ChordMovedRegion` between its boundary chains.

    Its ``xs`` are the distinct vertex stations perp(u).v, increasing, and
    ``lower``/``upper`` the boundary chains' heights u.p over them; every
    chord is read off these graphs.  The frame (perp(u), u) is right-handed,
    so in counter-clockwise order the lower chain runs from the bottom-left
    vertex to the bottom-right one and the upper chain from the top-right
    vertex to the top-left one.  ValueError unless ``u`` is a finite unit
    2-vector.
    """
    u = _chord_direction(u)
    x, t = poly.vertices @ perp(u), poly.vertices @ u
    n = len(x)
    # off the axes, the stations along an edge almost parallel to u can tie
    # or swap by an ulp, so the corners come from the computed stations and
    # each chain's stations are kept non-decreasing for np.interp
    order = np.lexsort((t, x))
    bottom_left, top_right = order[0], order[-1]
    top_left, bottom_right = np.lexsort((-t, x))[[0, -1]]
    lower = (bottom_left + np.arange((bottom_right - bottom_left) % n + 1)) % n
    upper = (top_left - np.arange((top_left - top_right) % n + 1)) % n
    # np.unique's sort-and-mask, without its lazy import of numpy.ma
    xs = x[order]
    xs = xs[np.concatenate([[True], xs[1:] != xs[:-1]])]
    return ChordMovedRegion(
        u, xs, *(np.interp(xs, np.maximum.accumulate(x[chain]), t[chain]) for chain in (lower, upper))
    )


def polygon_raster(grid, poly):
    """Cells of a 2D grid whose centers lie in the polygon."""
    if grid.n != 2:
        raise ValueError("polygon rasters need a 2D grid")
    x, y = grid.open_centers()
    normals, rhs = poly.edge_constraints()
    inside = np.all(x[..., None] * normals[:, 0] + y[..., None] * normals[:, 1] >= rhs - 1e-12, axis=-1)
    return GridSet(grid, inside)

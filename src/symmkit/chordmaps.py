"""Chord-movement set maps driven by a 1-Lipschitz contraction.

Exact piecewise-linear form on convex polygons: every chord orthogonal to
the hyperplane H = u_perp keeps its length and has its midpoint t moved to
phi(t).  On grids the same map acts per column with nearest-cell rounding.
Also houses the named set maps: :func:`canonical_set_map` reads the function
of one row of :data:`~symmkit.rearrange.CANONICAL_MAPS` on indicators, and
the counterexample maps (Blaschke-style shaking composite, center-of-gravity
reflection, near-hyperplane swap) sit beside it with the perimeter helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contractions import PLContraction, canonical_contraction
from .errors import DegenerateBody, EmptySet, MisalignedHyperplane, NonConvexColumn, OffGrid, UnknownName
from .geometry import GridSet, induced_set_map, reflect_grid_set
from .polygons import chords_at, perp
from .rearrange import CANONICAL_MAPS, polarize_set

BREAK_TOL = 1e-12
ORACLE_STATIONS = 64  # interior stations sampled by union_of_translates
CONVEX_TOL = 1e-9  # slack on the second differences of region_is_convex
NEAR_SWAP_WIDTH = 1.0  # near_swap swaps the cells this close to the hyperplane


@dataclass(frozen=True)
class ChordMovedRegion:
    """Region between two piecewise-linear graphs over an interval of H.

    ``xs`` are the shared breakpoint stations along the hyperplane direction;
    ``lower``/``upper`` are the graph values along u.  Chord lengths
    ``upper - lower`` agree with the source body's chord lengths.
    """

    u: tuple
    xs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if not (xs.shape == lower.shape == upper.shape) or xs.ndim != 1 or len(xs) < 2:
            raise ValueError("need matching 1D breakpoint arrays")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("region breakpoints must be finite")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("breakpoint stations must be strictly increasing")
        span = max(1.0, float(np.abs(upper).max()), float(np.abs(lower).max()))
        if np.any(upper - lower < -1e-9 * span):
            raise ValueError("upper graph must dominate the lower graph")
        for arr in (xs, lower, upper):
            arr.setflags(write=False)
        object.__setattr__(self, "u", tuple(float(c) for c in self.u))
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def omega(self):
        return float(self.xs[0]), float(self.xs[-1])

    def chord(self, x):
        """Chord extents at an interior station (linear interpolation)."""
        return (
            float(np.interp(x, self.xs, self.lower)),
            float(np.interp(x, self.xs, self.upper)),
        )

    def area(self):
        gaps = self.upper - self.lower
        return float(np.sum((gaps[1:] + gaps[:-1]) / 2.0 * np.diff(self.xs)))


def _polyline_length(xs, ys):
    return float(np.sum(np.hypot(np.diff(xs), np.diff(ys))))


def graph_lengths(region):
    """(upper, lower) graph arc lengths, end chords excluded."""
    return (
        _polyline_length(region.xs, region.upper),
        _polyline_length(region.xs, region.lower),
    )


def perimeter_region(region):
    """Total boundary length: both graphs plus the two vertical end chords."""
    up, lo = graph_lengths(region)
    ends = (region.upper[0] - region.lower[0]) + (region.upper[-1] - region.lower[-1])
    return up + lo + float(ends)


def region_is_convex(region):
    """Upper graph concave and lower graph convex, by second differences."""
    xs, up, lo = region.xs, region.upper, region.lower
    slopes_up = np.diff(up) / np.diff(xs)
    slopes_lo = np.diff(lo) / np.diff(xs)
    return bool(np.all(np.diff(slopes_up) <= CONVEX_TOL) and np.all(np.diff(slopes_lo) >= -CONVEX_TOL))


def _pullback_stations(xs, ts, phi):
    """Stations where the chord-midpoint line crosses a contraction breakpoint."""
    extra = []
    bs = phi.ts
    for i in range(len(xs) - 1):
        x0, x1 = xs[i], xs[i + 1]
        t0, t1 = ts[i], ts[i + 1]
        if t0 == t1:
            continue
        lo, hi = (t0, t1) if t0 < t1 else (t1, t0)
        inside = bs[(bs > lo) & (bs < hi)]
        for b in inside:
            extra.append(x0 + (b - t0) * (x1 - x0) / (t1 - t0))
    return extra


def _vertex_stations(poly, w):
    """Sorted distinct projections of the vertices on w.

    The sort-and-mask that numpy's unique runs, without its lazy import of
    numpy.ma.
    """
    x = np.sort(poly.vertices @ w)
    return x[np.concatenate([[True], x[1:] != x[:-1]])]


def chord_move_polygon(poly, phi, u):
    """Move every chord of the polygon orthogonal to u_perp by phi on midpoints.

    The output graphs are exactly piecewise linear; breakpoints are the
    vertex projections together with the contraction breakpoints pulled back
    through the (piecewise-linear) chord-midpoint function.
    """
    if poly.area() <= 0.0:
        raise DegenerateBody("cannot move chords of a degenerate polygon")
    u = np.asarray(u, dtype=float)
    w = perp(u)
    stations = _vertex_stations(poly, w)
    lo, hi, ok = chords_at(poly.vertices, u, stations)
    if not np.all(ok):
        raise DegenerateBody("vertex stations must carry nonempty chords")
    mids = (lo + hi) / 2.0
    extra = _pullback_stations(stations, mids, phi)
    if extra:
        span = stations[-1] - stations[0]
        # exact duplicates have a zero gap, so the gap filter drops them too
        xs = np.sort(np.concatenate([stations, np.asarray(extra)]))
        keep = np.concatenate([[True], np.diff(xs) > BREAK_TOL * max(span, 1.0)])
        xs = xs[keep]
    else:
        xs = stations
    lo, hi, ok = chords_at(poly.vertices, u, xs)
    lo = np.where(ok, lo, 0.0)
    hi = np.where(ok, hi, 0.0)
    mids = (lo + hi) / 2.0
    shift = phi(mids) - mids
    return ChordMovedRegion(tuple(u), xs, lo + shift, hi + shift)


def union_of_translates(poly, phi, u, samples):
    """Brute-force union of the symmetric cores translated by the contraction.

    For a uniform sample of midpoint positions t, the H-symmetric core
    (poly - t u) intersect (poly_reflected + t u) is translated by phi(t) u
    and accumulated chordwise at interior stations.  On each line orthogonal
    to H the core's chord is the intersection of the two translated chords,
    so no polygon is clipped.  Serves as a sampling oracle for
    :func:`chord_move_polygon`.
    """
    if samples < 2:
        raise ValueError("need at least two midpoint samples")
    u = np.asarray(u, dtype=float)
    w = perp(u)
    vstations = _vertex_stations(poly, w)
    edges = np.linspace(vstations[0], vstations[-1], ORACLE_STATIONS + 1)
    xs = (edges[:-1] + edges[1:]) / 2.0
    lo_v, hi_v, _ = chords_at(poly.vertices, u, vstations)
    mids = (lo_v + hi_v) / 2.0
    ts = np.linspace(float(mids.min()), float(mids.max()), samples)
    lo, hi, ok = chords_at(poly.vertices, u, xs)
    lo_r, hi_r, ok_r = chords_at(poly.reflect_across(u).vertices, u, xs)
    # (samples, stations): chord of (poly - t u) meets chord of (reflected + t u)
    t = ts[:, None]
    core_lo = np.maximum(lo - t, lo_r + t)
    core_hi = np.minimum(hi - t, hi_r + t)
    sel = ok & ok_r & (core_hi >= core_lo)
    offset = np.asarray(phi(ts), dtype=float)[:, None]
    lower = np.where(sel, core_lo + offset, np.inf).min(axis=0)
    upper = np.where(sel, core_hi + offset, -np.inf).max(axis=0)
    touched = sel.any(axis=0)
    return ChordMovedRegion(tuple(u), xs[touched], lower[touched], upper[touched])


def chordwise_distance(region_a, region_b):
    """Largest graph deviation of region_a from region_b at region_a's stations."""
    lo_b = np.interp(region_a.xs, region_b.xs, region_b.lower)
    hi_b = np.interp(region_a.xs, region_b.xs, region_b.upper)
    return float(
        max(np.abs(region_a.lower - lo_b).max(), np.abs(region_a.upper - hi_b).max())
    )


# ---------------------------------------------------------------------------
# Grid-set maps
# ---------------------------------------------------------------------------


def _column_runs(mask, axis):
    """Start/stop/length of the run in every column; rejects broken columns."""
    moved = np.moveaxis(mask, axis, -1)
    flat = moved.reshape(-1, moved.shape[-1])
    counts = flat.sum(axis=1)
    first = np.where(counts > 0, np.argmax(flat, axis=1), 0)
    last = np.where(counts > 0, flat.shape[1] - 1 - np.argmax(flat[:, ::-1], axis=1), -1)
    contiguous = (last - first + 1 == counts) | (counts == 0)
    if not np.all(contiguous):
        raise NonConvexColumn("every column must be a single contiguous run of cells")
    return flat, counts, first, last


def chord_move_gridset(a, phi, axis):
    """Per-column chord movement on a grid set, nearest-cell rounding.

    Columns run along ``axis`` with the hyperplane fixed at coordinate 0;
    each run keeps its cell count and has its midpoint t moved to phi(t).
    Half-cell ties round toward the positive axis direction.  Raises OffGrid
    when a run would be pushed past the edge of the grid.
    """
    a.grid.require_axis(axis)
    h = a.grid.spacing
    coords = a.grid.axis_centers(axis)
    flat, counts, first, last = _column_runs(np.asarray(a.mask), axis)
    m = flat.shape[1]
    out = np.zeros_like(flat)
    nonempty = np.where(counts > 0)[0]
    mid = (coords[first[nonempty]] + coords[last[nonempty]]) / 2.0
    shift = phi(mid) - mid
    steps = np.floor(shift / h + 0.5).astype(np.int64)
    new_first = first[nonempty] + steps
    new_last = last[nonempty] + steps
    if np.any(new_first < 0) or np.any(new_last >= m):
        raise OffGrid("chord movement pushes a run past the edge of the grid")
    cols = np.arange(m)
    sel = (cols[None, :] >= new_first[:, None]) & (cols[None, :] <= new_last[:, None])
    out[nonempty] = sel
    moved = out.reshape(np.moveaxis(np.asarray(a.mask), axis, -1).shape)
    return GridSet(a.grid, np.moveaxis(moved, -1, axis))


def _require_axis_plane(plane):
    normal = np.asarray(plane.normal)
    axes = np.nonzero(np.abs(normal) > 1e-12)[0]
    if len(axes) != 1 or abs(abs(normal[axes[0]]) - 1.0) > 1e-12:
        raise MisalignedHyperplane("this map needs an axis-aligned hyperplane")
    return int(axes[0]), float(np.sign(normal[axes[0]]))


def shake_set(a, plane):
    """Slide every column's negative-side cells into a run abutting the hyperplane.

    Cells on the positive side stay put; the cell count of each column's
    negative part is preserved.
    """
    a.grid.require_plane(plane)
    axis, direction = _require_axis_plane(plane)
    coords = a.grid.axis_centers(axis)
    signed = (coords * direction - plane.offset) * plane.positive
    neg = signed < 0.0
    moved = np.moveaxis(np.asarray(a.mask), axis, -1)
    keep = moved & ~neg
    neg_counts = (moved & neg).sum(axis=-1)
    # rank negative-side cells by distance to the hyperplane
    rank = np.full(len(coords), len(coords), dtype=np.int64)
    neg_idx = np.nonzero(neg)[0]
    order = neg_idx[np.argsort(np.abs(signed[neg_idx]), kind="stable")]
    rank[order] = np.arange(len(order))
    filled = rank < neg_counts[..., None]
    return GridSet(a.grid, np.moveaxis(keep | filled, -1, axis))


def cog_reflect(a, u_axis):
    """Reflect a set in the hyperplane through its center of gravity.

    ``u_axis`` is the index of the coordinate axis normal to the hyperplane;
    reflected cell centers are rounded to the nearest cell, which is exact
    whenever the center of gravity sits on the half-cell lattice.  Raises
    OffGrid when a cell would be reflected past the edge of the grid.
    """
    a.grid.require_axis(u_axis)
    if a.cell_count == 0:
        raise EmptySet("center of gravity of an empty set is undefined")
    h = a.grid.spacing
    coords = a.grid.axis_centers(u_axis)
    moved = np.moveaxis(np.asarray(a.mask), u_axis, -1)
    weights = moved.sum(axis=tuple(range(moved.ndim - 1)))
    c = float((coords * weights).sum() / weights.sum())
    # target index of cell i under reflection about c; half-cell ties round up,
    # which keeps the index map injective
    target = np.floor((2.0 * c - coords - a.grid.origin[u_axis]) / h).astype(np.int64)
    inside = (target >= 0) & (target < len(coords))
    if moved[..., ~inside].any():
        raise OffGrid("reflection through the center of gravity pushes cells past the edge of the grid")
    out = np.zeros_like(moved)
    out[..., target[inside]] = moved[..., inside]
    return GridSet(a.grid, np.moveaxis(out, -1, u_axis))


def near_swap(a, plane):
    """Swap cells within NEAR_SWAP_WIDTH of the hyperplane with their mirror images."""
    mirrored = reflect_grid_set(a, plane)
    dist = np.abs(plane.signed(a.grid.centers())).reshape(a.grid.dims)
    near = dist <= NEAR_SWAP_WIDTH
    return GridSet(a.grid, np.where(near, mirrored.mask, a.mask))


def grid_perimeter(a):
    """Exposed-face count times the spacing: the raster boundary length."""
    mask = np.asarray(a.mask)
    h = a.grid.spacing
    exposed = 0
    for axis in range(mask.ndim):
        moved = np.moveaxis(mask, axis, -1)
        exposed += int(moved[..., 0].sum()) + int(moved[..., -1].sum())
        exposed += int(np.count_nonzero(np.diff(moved, axis=-1)))
    return exposed * h ** (a.grid.n - 1)


# ---------------------------------------------------------------------------
# Named set-map catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SetMap:
    """Named grid-set transformation with optional chord-movement backing.

    ``domain`` declares which inputs the map accepts, and so which sets the
    harness draws: "all", "convex" (contiguous columns) or "core" (sets in
    the central box, an eighth of the grid's extent from its center).  When the
    map's action on convex bodies is that of a contraction-driven chord
    movement, ``contraction`` carries the contraction for polygon-exact
    perimeter checks.
    """

    name: str
    apply: callable
    plane: object = None
    axis: int = None
    contraction: PLContraction = None
    domain: str = "all"

    def __call__(self, a):
        return self.apply(a)


def canonical_set_map(label, plane):
    """The function of the :data:`~symmkit.rearrange.CANONICAL_MAPS` row ``label``
    read on indicators across an axis-aligned plane, backed by the row's contraction."""
    if label not in CANONICAL_MAPS:
        raise UnknownName(f"unknown canonical map {label!r}; expected one of {tuple(CANONICAL_MAPS)}")
    row = CANONICAL_MAPS[label]
    axis, _ = _require_axis_plane(plane)
    apply = induced_set_map(lambda f: row.function(f, plane))
    return SetMap(row.set_name, apply, plane=plane, axis=axis, contraction=canonical_contraction(row.contraction))


def chord_movement_set_map(phi, axis, plane, name=None):
    """Grid chord movement along ``axis`` by the contraction ``phi``."""
    return SetMap(
        name or "chord_movement",
        lambda a: chord_move_gridset(a, phi, axis),
        plane=plane,
        axis=axis,
        contraction=phi,
        domain="convex",
    )


def blaschke_composite_set_map(plane):
    """Shake after polarization; agrees with polarization on convex rasters.

    The comparison on convex rasters justifies the two-point contraction backing;
    on unions of mirror-image pairs of disjoint blobs the two maps differ.
    """
    axis, _ = _require_axis_plane(plane)
    return SetMap(
        "shake_after_polarization",
        lambda a: shake_set(polarize_set(a, plane), plane),
        plane=plane,
        axis=axis,
        contraction=canonical_contraction(CANONICAL_MAPS["two_point"].contraction),
        domain="convex",
    )


def cog_reflection_set_map(u_axis):
    """Reflection through the center of gravity; sets in the central box stay in the grid."""
    return SetMap("cog_reflection", lambda a: cog_reflect(a, u_axis), axis=u_axis, domain="core")


def near_swap_set_map(plane):
    axis, _ = _require_axis_plane(plane)
    return SetMap(
        "near_swap",
        lambda a: near_swap(a, plane),
        plane=plane,
        axis=axis,
    )

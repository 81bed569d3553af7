"""Chord-movement set maps driven by a 1-Lipschitz contraction.

Exact piecewise-linear form on convex polygons: every chord orthogonal to
the hyperplane H = u_perp keeps its length and has its midpoint t moved to
phi(t).  On grids the same map acts per column with nearest-cell rounding.
Also houses the named set maps: :func:`canonical_set_map` reads one row of
:data:`~symmkit.rearrange.CANONICAL_MAPS` on indicators, and
the counterexample maps (Blaschke-style shaking composite, center-of-gravity
reflection, near-hyperplane swap) sit beside it with the perimeter helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contractions import PLContraction, canonical_contraction
from .errors import EmptySet, MisalignedHyperplane, NonConvexColumn, OffGrid, UnknownName
from .geometry import GridSet, axis_plane, induced_set_map, reflect_grid_set
from .polygons import ChordMovedRegion, boundary_graphs
from .rearrange import CANONICAL_MAPS, polarize_set

BREAK_TOL = 1e-12
ORACLE_STATIONS = 64  # interior stations sampled by union_of_translates
CONVEX_TOL = 1e-9  # slack on the second differences of region_is_convex
NEAR_SWAP_WIDTH = 1.0  # near_swap swaps the cells this close to the hyperplane
SET_MAP_DOMAINS = ("all", "convex", "core")


def graph_lengths(region):
    """(upper, lower) graph arc lengths, end chords excluded."""
    dx = np.diff(region.xs)
    return tuple(float(np.sum(np.hypot(dx, np.diff(ys)))) for ys in (region.upper, region.lower))


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
    """Stations where the chord-midpoint line, ``ts`` over ``xs``, crosses a contraction breakpoint."""
    x0, x1, t0, t1 = xs[:-1, None], xs[1:, None], ts[:-1, None], ts[1:, None]
    bs = phi.ts
    crossed = (bs > np.minimum(t0, t1)) & (bs < np.maximum(t0, t1))
    # a flat segment crosses no breakpoint; its divisor is replaced, not divided by
    dt = np.where(t0 == t1, 1.0, t1 - t0)
    return (x0 + (bs - t0) * (x1 - x0) / dt)[crossed]


def chord_move_polygon(poly, phi, u):
    """Move every chord of the polygon orthogonal to u_perp by phi on midpoints.

    The output graphs are exactly piecewise linear; breakpoints are the
    vertex projections together with the contraction breakpoints pulled back
    through the (piecewise-linear) chord-midpoint function.
    """
    graphs = boundary_graphs(poly, u)
    stations = graphs.xs
    extra = np.sort(_pullback_stations(stations, (graphs.lower + graphs.upper) / 2.0, phi))
    tol = BREAK_TOL * max(stations[-1] - stations[0], 1.0)
    # a pulled-back station within tol of a vertex station or of the previous
    # one is dropped; the vertex stations all stay, since off the axes two of
    # them can be an ulp apart across an edge parallel to u
    i = np.searchsorted(stations, extra).clip(1, len(stations) - 1)
    gap = np.minimum(extra - stations[i - 1], stations[i] - extra)
    extra = extra[(gap > tol) & (np.diff(extra, prepend=-np.inf) > tol)]
    xs = np.sort(np.concatenate([stations, extra]))
    lo, hi = graphs.at(xs)
    mids = (lo + hi) / 2.0
    shift = phi(mids) - mids
    return ChordMovedRegion(graphs.u, xs, lo + shift, hi + shift)


def union_of_translates(poly, phi, u, samples):
    """Brute-force union of the symmetric cores translated by the contraction.

    For a uniform sample of midpoint positions t, the H-symmetric core
    (poly - t u) intersect (poly_reflected + t u) is translated by phi(t) u
    and accumulated chordwise at interior stations.  On each line orthogonal
    to H the core's chord is the intersection of the two translated chords,
    and the mirror's chord over [lo, hi] is [-hi, -lo], so no polygon is
    clipped or reflected.  Serves as a sampling oracle for
    :func:`chord_move_polygon`.
    """
    if samples < 2:
        raise ValueError("need at least two midpoint samples")
    graphs = boundary_graphs(poly, u)
    edges = np.linspace(*graphs.omega, ORACLE_STATIONS + 1)
    xs = (edges[:-1] + edges[1:]) / 2.0
    mids = (graphs.lower + graphs.upper) / 2.0
    ts = np.linspace(float(mids.min()), float(mids.max()), samples)
    lo, hi = graphs.at(xs)
    # (samples, stations): chord of (poly - t u) meets chord of (reflected + t u)
    t = ts[:, None]
    core_lo = np.maximum(lo - t, t - hi)
    core_hi = np.minimum(hi - t, t - lo)
    sel = core_hi >= core_lo
    offset = np.asarray(phi(ts), dtype=float)[:, None]
    lower = np.where(sel, core_lo + offset, np.inf).min(axis=0)
    upper = np.where(sel, core_hi + offset, -np.inf).max(axis=0)
    touched = sel.any(axis=0)
    return ChordMovedRegion(graphs.u, xs[touched], lower[touched], upper[touched])


def chordwise_distance(region_a, region_b):
    """Largest graph deviation of region_a from region_b at region_a's stations."""
    lo_b, hi_b = region_b.at(region_a.xs)
    return float(max(np.abs(region_a.lower - lo_b).max(), np.abs(region_a.upper - hi_b).max()))


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
    A half-cell tie follows the float shift: it goes toward the positive axis
    direction on dyadic spacings, and by the last bit on others.  Raises
    OffGrid when a run would be pushed past the edge of the grid.
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
    """The plane's :attr:`~symmkit.geometry.OrientedHyperplane.axis`; MisalignedHyperplane when it has none."""
    if plane.axis is None:
        raise MisalignedHyperplane("this map needs an axis-aligned hyperplane")
    return plane.axis


def shake_set(a, plane):
    """Slide every column's negative-side cells into a run abutting the hyperplane.

    Cells on the positive side stay put; the cell count of each column's
    negative part is preserved.  Sides are read off the plan's ``j``, so the
    plane must be an axis plane on the half-lattice.
    """
    axis = _require_axis_plane(plane)
    # a plane past an edge of the grid is read at that edge, which leaves every side and H- rank as it is
    j = min(max(plane.reflection(a.grid).j, 0), 2 * a.grid.dims[axis])
    # cell i lies d half-cells from that j, on H- when d < 0, and is its ((-d - 1) // 2)-th nearest H- cell
    d = (2 * np.arange(a.grid.dims[axis]) + 1 - j) * (plane.positive if plane.normal[axis] > 0 else -plane.positive)
    moved = np.moveaxis(np.asarray(a.mask), axis, -1)
    neg_counts = (moved & (d < 0)).sum(axis=-1)
    filled = (d < 0) & ((-d - 1) // 2 < neg_counts[..., None])
    return GridSet(a.grid, np.moveaxis(moved & (d >= 0) | filled, -1, axis))


def _snapped_center(mask):
    """Per axis, the half-lattice index nearest the center of gravity of ``mask``'s w cells, a tie going
    up: it sits s/w half-cells from the origin, s summing 2i+1 over the cells, so (2s + w) // (2w) is exact."""
    cells = np.nonzero(mask)
    w = len(cells[0])
    return np.array([(2 * int((2 * i + 1).sum()) + w) // (2 * w) for i in cells])


def cog_reflect(a, u_axis):
    """Reflect a set in the half-lattice plane nearest its center of gravity.

    ``u_axis`` is the index of the coordinate axis normal to the plane.  The
    planes orthogonal to it that map the cell-center lattice to itself sit at
    ``origin + j*h/2``; the set is read through the plan of the one nearest
    the center of gravity, so every cell is kept, and a center of gravity
    midway between two of them goes to the upper one.  Raises OffGrid when a
    cell would be reflected past the edge of the grid.
    """
    grid = a.grid
    grid.require_axis(u_axis)
    if a.cell_count == 0:
        raise EmptySet("center of gravity of an empty set is undefined")
    plane = axis_plane(u_axis, grid.n, grid.origin[u_axis] + int(_snapped_center(a.mask)[u_axis]) * grid.spacing / 2.0)
    if (a.mask.ravel() & ~plane.reflection(grid).inside).any():
        raise OffGrid("reflection through the center of gravity pushes cells past the edge of the grid")
    return reflect_grid_set(a, plane)


def near_swap(a, plane):
    """Swap cells within NEAR_SWAP_WIDTH of the hyperplane with their mirror images."""
    mirrored = reflect_grid_set(a, plane)
    # the distance to the plane, its per-axis terms summed in axis order
    proj = sum(x * c for x, c in zip(a.grid.open_centers(), plane.normal))
    near = np.abs(proj - plane.offset) <= NEAR_SWAP_WIDTH
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
    the central box, an eighth of the grid's extent from its center); any
    other domain is a ValueError.  When the map's action on convex bodies is
    that of a contraction-driven chord movement, ``contraction`` carries the
    contraction for polygon-exact perimeter checks.
    """

    name: str
    apply: callable
    plane: object = None
    contraction: PLContraction = None
    domain: str = "all"

    def __post_init__(self):
        if self.domain not in SET_MAP_DOMAINS:
            raise ValueError(f"set-map domain must be one of {SET_MAP_DOMAINS}, got {self.domain!r}")

    def __call__(self, a):
        return self.apply(a)


def canonical_set_map(label, plane):
    """The transformer of the :data:`~symmkit.rearrange.CANONICAL_MAPS` row ``label``
    read on indicators across an axis-aligned plane, backed by the row's contraction."""
    if label not in CANONICAL_MAPS:
        raise UnknownName(f"unknown canonical map {label!r}; expected one of {tuple(CANONICAL_MAPS)}")
    row = CANONICAL_MAPS[label]
    _require_axis_plane(plane)
    apply = induced_set_map(row.transformer(plane))
    return SetMap(row.set_name, apply, plane=plane, contraction=canonical_contraction(row.contraction))


def chord_movement_set_map(phi, plane, name=None):
    """Grid chord movement by the contraction ``phi`` along the axis normal to ``plane``, which
    must be axis-aligned with offset 0, as the columns fix H there; MisalignedHyperplane otherwise."""
    axis = _require_axis_plane(plane)
    if plane.offset != 0.0:
        raise MisalignedHyperplane(f"chord movement fixes H at coordinate 0, but the plane's offset is {plane.offset}")
    return SetMap(
        name or "chord_movement",
        lambda a: chord_move_gridset(a, phi, axis),
        plane=plane,
        contraction=phi,
        domain="convex",
    )


def blaschke_composite_set_map(plane):
    """Shake after polarization; agrees with polarization on convex rasters.

    The comparison on convex rasters justifies the two-point contraction backing;
    on unions of mirror-image pairs of disjoint blobs the two maps differ.
    """
    _require_axis_plane(plane)
    return SetMap(
        "shake_after_polarization",
        lambda a: shake_set(polarize_set(a, plane), plane),
        plane=plane,
        contraction=canonical_contraction(CANONICAL_MAPS["two_point"].contraction),
        domain="convex",
    )


def cog_reflection_set_map(u_axis):
    """Reflection through the center of gravity; sets in the central box stay in the grid."""
    return SetMap("cog_reflection", lambda a: cog_reflect(a, u_axis), domain="core")


def near_swap_set_map(plane):
    _require_axis_plane(plane)
    return SetMap("near_swap", lambda a: near_swap(a, plane), plane=plane)

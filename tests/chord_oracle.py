"""Independent constructions for the tests: clip one half-plane per edge,
pull contraction breakpoints back one segment at a time, reflect a set
through its center of gravity cell by cell, and shake a set by float
distances to the plane.

The library reads chords off a polygon's two boundary graphs; this oracle
builds each chord from the polygon's edges alone, so the tests that compare
the two compare different constructions.  The pullback loop is the form the
library's broadcast replaced, the per-cell center-of-gravity reflection the
form its plan read replaced, and the float shake the form its integer
half-lattice test replaced, all kept to compare against with ``==``.
"""

import numpy as np

CLIP_EPS = 1e-12


def chords_at(poly, u, xs):
    """Extents along u of the intersections of ``poly`` with the lines {x*perp(u) + t*u}.

    Returns (lo, hi, nonempty) with lo/hi meaningful only where ``nonempty`` is True.
    """
    u = np.asarray(u, dtype=float)
    w = np.array([u[1], -u[0]])
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    normals = np.stack([-e[:, 1], e[:, 0]], axis=1)  # inward for ccw
    rhs = np.sum(normals * v, axis=1)
    # constraint: (a.u) t >= b - (a.w) x  for each edge a.p >= b
    au = normals @ u
    aw = normals @ w
    free = rhs[:, None] - np.outer(aw, xs)  # (edges, nx)
    lo = np.full(xs.shape, -np.inf)
    hi = np.full(xs.shape, np.inf)
    ok = np.ones(xs.shape, dtype=bool)
    scale = max(1.0, float(np.abs(v).max()))
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


def amplification(poly, u):
    """The largest factor |a| / |a.u| >= 1 by which :func:`chords_at` scales the
    rounding error of an edge a.p >= b that bounds chords.

    An edge nearly parallel to u bounds its chords only loosely, so a chord
    compared with the oracle is good to about eps * scale * amplification.
    """
    u = np.asarray(u, dtype=float)
    e = np.roll(poly.vertices, -1, axis=0) - poly.vertices
    au = np.abs(e[:, 0] * u[1] - e[:, 1] * u[0])  # |a.u| for the inward normal a = (-e1, e0)
    bounding = au > CLIP_EPS
    return float(max(1.0, np.max(np.hypot(e[bounding, 0], e[bounding, 1]) / au[bounding])))


def pullback_stations(xs, ts, phi):
    """Stations where the chord-midpoint line, ``ts`` over ``xs``, crosses a
    breakpoint of ``phi``: one segment and one breakpoint at a time."""
    extra = []
    bs = phi.ts
    for i in range(len(xs) - 1):
        x0, x1 = xs[i], xs[i + 1]
        t0, t1 = ts[i], ts[i + 1]
        if t0 == t1:
            continue
        lo, hi = (t0, t1) if t0 < t1 else (t1, t0)
        for b in bs[(bs > lo) & (bs < hi)]:
            extra.append(x0 + (b - t0) * (x1 - x0) / (t1 - t0))
    return extra


def cog_reflect_mask(a, u_axis):
    """The mask of ``a`` reflected through its center of gravity, each cell's
    target index floored on its own: the per-cell form the library's plan read
    replaced.  Where the floors of two cells disagree, both land on one target
    and a cell is lost, so it is an oracle only where they agree; None when a
    cell lands off the grid."""
    h = a.grid.spacing
    coords = a.grid.axis_centers(u_axis)
    moved = np.moveaxis(np.asarray(a.mask), u_axis, -1)
    weights = moved.sum(axis=tuple(range(moved.ndim - 1)))
    c = float((coords * weights).sum() / weights.sum())
    target = np.floor((2.0 * c - coords - a.grid.origin[u_axis]) / h).astype(np.int64)
    inside = (target >= 0) & (target < len(coords))
    if moved[..., ~inside].any():
        return None
    out = np.zeros_like(moved)
    out[..., target[inside]] = moved[..., inside]
    return np.moveaxis(out, -1, u_axis)


def shake_mask(a, plane):
    """The mask of ``shake_set(a, plane)`` as it was written in floats: each
    cell's side from its signed distance to the plane, and the negative-side
    cells ranked by an argsort of that distance."""
    axis = plane.axis
    coords = a.grid.axis_centers(axis)
    signed = (coords * np.sign(plane.normal[axis]) - plane.offset) * plane.positive
    neg = signed < 0.0
    moved = np.moveaxis(np.asarray(a.mask), axis, -1)
    neg_counts = (moved & neg).sum(axis=-1)
    rank = np.full(len(coords), len(coords), dtype=np.int64)
    neg_idx = np.nonzero(neg)[0]
    order = neg_idx[np.argsort(np.abs(signed[neg_idx]), kind="stable")]
    rank[order] = np.arange(len(order))
    return np.moveaxis(moved & ~neg | (rank < neg_counts[..., None]), -1, axis)

"""Function-level rearrangement operators on grids.

The two-point operator replaces f by max(f, f_mirror) on the positive side
of an oriented hyperplane and by min(f, f_mirror) on the negative side; the
other operators here either read it on indicators (set version), generalize it
(pointwise maps built from a pair of associated functions), or rebuild a
transformer from the images of super-level sets (layer-cake reconstruction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contractions import terminal_slope_eval
from .errors import NonMonotoneMap
from .geometry import (
    GridFunction,
    GridSet,
    OrientedHyperplane,
    Reflection,
    induced_set_map,
    reflect_grid_function,
)


def polarize(f, plane):
    """Two-point rearrangement of a grid function across an oriented hyperplane."""
    out = Reflection(f.grid, plane).two_point(f.values, f.essinf, np.maximum, np.minimum)
    return GridFunction(f.grid, out)


def polarize_set(a, plane):
    """Set version: :func:`polarize` read on the indicator."""
    return induced_set_map(lambda f: polarize(f, plane))(a)


def _polarize_reflected(f, plane):
    """reflect_grid_function(polarize(f, plane), plane) through one reflection plan."""
    plan = Reflection(f.grid, plane)
    out = plan.two_point(f.values, f.essinf, np.maximum, np.minimum)
    return GridFunction(f.grid, plan.mirror(out, out.min()))


@dataclass(frozen=True)
class CanonicalMap:
    """One canonical rearrangement: ``function(f, plane)``, read on indicators
    for its set map, the name of the contraction that moves its chord
    midpoints (see :func:`~symmkit.contractions.canonical_contraction`), and
    the name of its set map."""

    function: callable
    contraction: str
    set_name: str


# the four canonical maps, one row each; the lambdas look the operators up
# at call time, so wrappers installed on the module functions (the
# benchmark's tracer) see these calls too, and name their second parameter
# ``plane`` because ``verify`` passes it by keyword.  The composite reads
# through a single plan, so no polarize call shows inside it.
CANONICAL_MAPS = {
    "two_point": CanonicalMap(lambda f, plane: polarize(f, plane), "abs", "polarization"),
    "reflection": CanonicalMap(lambda f, plane: reflect_grid_function(f, plane), "neg", "reflection"),
    "identity": CanonicalMap(lambda f, plane: f, "id", "identity"),
    "two_point_reflected": CanonicalMap(_polarize_reflected, "negabs", "polarization_dagger"),
}


def _center_out_order(m):
    """Cell order by distance from the column center, upper side first on ties."""
    mid = (m - 1) / 2.0
    return sorted(range(m), key=lambda p: (abs(p - mid), -p))


def steiner_symmetrize_function(f, axis):
    """Per-column symmetric-decreasing rearrangement about the grid's center plane.

    Column values are sorted descending and placed center-out, the upper
    (positive axis) side first on ties; every column keeps its value multiset.
    """
    f.grid.require_axis(axis)
    m = f.grid.dims[axis]
    order = _center_out_order(m)
    moved = np.moveaxis(np.asarray(f.values), axis, -1)
    ranked = np.sort(moved, axis=-1)[..., ::-1]
    out = np.empty_like(moved)
    out[..., order] = ranked
    return GridFunction(f.grid, np.moveaxis(out, -1, axis))


def steiner_symmetrize_set(a, axis):
    """Per-column recentring of each run count: the function rule read on the indicator."""
    return induced_set_map(lambda f: steiner_symmetrize_function(f, axis))(a)


def _fiber_fill_order(shape):
    """Cells of a 2D fiber ordered by distance from its center, then scan order."""
    m1, m2 = shape
    ii, jj = np.meshgrid(np.arange(m1), np.arange(m2), indexing="ij")
    d2 = (ii + 0.5 - m1 / 2.0) ** 2 + (jj + 0.5 - m2 / 2.0) ** 2
    flat_d2 = d2.ravel()
    return np.argsort(flat_d2, kind="stable")


def schwarz_symmetrize_set(a, axis):
    """Replace each planar fiber orthogonal to ``axis`` by a centered quasi-disk.

    Only defined for 3D grids.  Cell counts are preserved exactly: the disk
    is grown cell by cell in a fixed order (distance from the fiber center,
    ties broken by scan order).
    """
    if a.grid.n != 3:
        raise ValueError("planar-fiber symmetrization needs a 3D grid")
    a.grid.require_axis(axis)
    moved = np.moveaxis(np.asarray(a.mask), axis, 0)
    fiber_shape = moved.shape[1:]
    order = _fiber_fill_order(fiber_shape)
    rank = np.empty(order.shape, dtype=np.int64)
    rank[order] = np.arange(len(order))
    out = np.empty_like(moved)
    for i in range(moved.shape[0]):
        k = int(moved[i].sum())
        out[i] = (rank < k).reshape(fiber_shape)
    return GridSet(a.grid, np.moveaxis(out, 0, axis))


@dataclass(frozen=True)
class AssociatedFunctionPair:
    """Pair of two-argument functions that agree on the diagonal.

    ``fplus`` is applied on the positive side of the hyperplane, ``fminus``
    on the negative side; both receive (own value, mirrored value).
    """

    name: str
    fplus: callable
    fminus: callable


def _proj_first(r, s):
    return np.asarray(r, dtype=float) + 0.0 * np.asarray(s, dtype=float)


def _proj_second(r, s):
    return np.asarray(s, dtype=float) + 0.0 * np.asarray(r, dtype=float)


def _mean(r, s):
    return (np.asarray(r, dtype=float) + np.asarray(s, dtype=float)) / 2.0


ASSOCIATED_PAIRS = {
    "max_min": AssociatedFunctionPair("max_min", np.maximum, np.minimum),
    "min_max": AssociatedFunctionPair("min_max", np.minimum, np.maximum),
    "first": AssociatedFunctionPair("first", _proj_first, _proj_first),
    "second": AssociatedFunctionPair("second", _proj_second, _proj_second),
    "mean": AssociatedFunctionPair("mean", _mean, _mean),
}


@dataclass(frozen=True)
class PointwiseTransformer:
    """Grid transformer acting cellwise through an associated pair."""

    pair: AssociatedFunctionPair
    plane: OrientedHyperplane

    def __call__(self, f):
        plan = Reflection(f.grid, self.plane)
        return GridFunction(f.grid, plan.two_point(f.values, f.essinf, self.pair.fplus, self.pair.fminus))


def check_fvalues(pair, samples):
    """Whether {F+(r,s), F-(s,r)} equals {r,s} on every sampled pair.

    Returns (ok, first_violation); the violation records the pair and the
    two values actually produced.
    """
    for r, s in samples:
        r = float(r)
        s = float(s)
        p = float(pair.fplus(r, s))
        q = float(pair.fminus(s, r))
        if not (min(p, q) == min(r, s) and max(p, q) == max(r, s)):
            return False, {"pair": (r, s), "produced": (p, q)}
    return True, None


def layer_cake_rearrangement(set_map, f, strict=False):
    """Rebuild a function transformer from a set map acting on super-level sets.

    With ``strict=False`` cell x receives the largest value t of f with
    x in set_map({f >= t}), defaulting to min f; grid functions take finitely
    many values, so the supremum is a finite maximum.  ``strict=True`` uses
    the sets {f > t} instead, which assigns the next level up; for set maps
    induced by rearrangements both give the same answer.
    """
    levels = np.unique(f.values)
    bottom = float(levels[0])
    out = np.full(f.grid.dims, bottom)
    if strict:
        for i in range(len(levels) - 1):
            image = set_map(GridSet(f.grid, f.values > levels[i]))
            out[image.mask] = levels[i + 1]
    else:
        for t in levels[1:]:
            image = set_map(GridSet(f.grid, f.values >= t))
            out[image.mask] = t
    return GridFunction(f.grid, out)


@dataclass(frozen=True)
class MonotonePL:
    """Continuous piecewise-linear increasing map with terminal-slope extension."""

    ts: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if ts.ndim != 1 or ts.shape != ys.shape or len(ts) < 2:
            raise NonMonotoneMap("need at least two breakpoints")
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(ys))):
            raise NonMonotoneMap("breakpoints must be finite")
        if np.any(np.diff(ts) <= 0):
            raise NonMonotoneMap("breakpoint abscissae must be strictly increasing")
        if np.any(np.diff(ys) < 0):
            raise NonMonotoneMap("breakpoint values must be non-decreasing")
        ts.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "ys", ys)

    def __call__(self, t):
        return terminal_slope_eval(self.ts, self.ys, t)


@dataclass(frozen=True)
class MonotoneStep:
    """Right-continuous increasing step map: value jumps at each threshold."""

    thresholds: np.ndarray
    values: np.ndarray
    below: float

    def __post_init__(self):
        th = np.asarray(self.thresholds, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if th.ndim != 1 or th.shape != vals.shape or len(th) == 0:
            raise NonMonotoneMap("need matching thresholds and values")
        if np.any(np.diff(th) <= 0):
            raise NonMonotoneMap("thresholds must be strictly increasing")
        levels = np.concatenate([[float(self.below)], vals])
        if np.any(np.diff(levels) < 0):
            raise NonMonotoneMap("step values must be non-decreasing")
        th.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "thresholds", th)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "below", float(self.below))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.thresholds, t, side="right")
        table = np.concatenate([[self.below], self.values])
        return table[idx]


def compose_monotone(f, phi):
    """Pointwise composition phi(f) for an increasing right-continuous phi."""
    return GridFunction(f.grid, np.asarray(phi(f.values), dtype=float))

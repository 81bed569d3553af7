"""Function-level rearrangement operators on grids.

Every pointwise map is one kernel, :class:`PointwiseTransformer`: an associated
pair (F+, F-) applied to (f(x), f(x')), x' the mirror image of x, F+ on H+ and
F- on H-.  The four :data:`CANONICAL_MAPS` are the pairs (max, min), (min, max),
(first, first) and (second, second).  An off-grid x' reads the minimum of f, so
each is, at every admissible plane, the restriction of its map on f extended by
its minimum.  Set versions read these maps on indicators; Steiner and Schwarz
sort fibers; layer-cake reconstruction rebuilds a transformer from level sets.
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
    _breakpoints,
    induced_set_map,
)


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
    return r


def _proj_second(r, s):
    return s


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
    """Grid transformer acting cellwise through an associated pair; reads
    through the plane's kept plan, :meth:`OrientedHyperplane.reflection`."""

    pair: AssociatedFunctionPair
    plane: OrientedHyperplane

    def __call__(self, f):
        plan = self.plane.reflection(f.grid)
        return GridFunction(f.grid, plan.two_point(f.values, f.essinf, self.pair.fplus, self.pair.fminus))


def polarize(f, plane):
    """Two-point rearrangement of a grid function across an oriented hyperplane."""
    return PointwiseTransformer(ASSOCIATED_PAIRS["max_min"], plane)(f)


def polarize_set(a, plane):
    """Set version: :func:`polarize` read on the indicator."""
    return induced_set_map(lambda f: polarize(f, plane))(a)


@dataclass(frozen=True)
class CanonicalMap:
    """One canonical rearrangement: its associated pair, read on indicators
    for its set map, the name of the contraction that moves its chord
    midpoints (see :func:`~symmkit.contractions.canonical_contraction`), and
    the name of its set map."""

    pair: AssociatedFunctionPair
    contraction: str
    set_name: str

    def transformer(self, plane):
        """The map across ``plane``: the pair's :class:`PointwiseTransformer`."""
        return PointwiseTransformer(self.pair, plane)


CANONICAL_MAPS = {
    "two_point": CanonicalMap(ASSOCIATED_PAIRS["max_min"], "abs", "polarization"),
    "reflection": CanonicalMap(ASSOCIATED_PAIRS["second"], "neg", "reflection"),
    "identity": CanonicalMap(ASSOCIATED_PAIRS["first"], "id", "identity"),
    "two_point_reflected": CanonicalMap(ASSOCIATED_PAIRS["min_max"], "negabs", "polarization_dagger"),
}


def _fill_order(shape):
    """Flat (scan-order) cells of a fiber by squared distance from its center,
    ties to the later cell: on each axis the upper side first.  Distances are
    taken in half-cell units, integers, so every tie is exact."""
    d2 = sum((2 * i + 1 - m) ** 2 for i, m in zip(np.indices(shape), shape)).ravel()
    return np.lexsort((-np.arange(d2.size), d2))


def _symmetrize_fibers(f, axes):
    """Sort each fiber over ``axes`` descending into its :func:`_fill_order`."""
    fiber = tuple(range(-len(axes), 0))
    moved = np.moveaxis(np.asarray(f.values), axes, fiber)
    flat = moved.reshape(*moved.shape[: -len(axes)], -1)
    out = np.empty_like(flat)
    out[..., _fill_order(moved.shape[-len(axes) :])] = np.sort(flat, axis=-1)[..., ::-1]
    return GridFunction(f.grid, np.moveaxis(out.reshape(moved.shape), fiber, axes))


def steiner_symmetrize_function(f, axis):
    """Per-column symmetric-decreasing rearrangement about the grid's center plane.

    Column values are sorted descending and placed center-out, the upper
    (positive axis) side first on ties; every column keeps its value multiset.
    """
    f.grid.require_axis(axis)
    return _symmetrize_fibers(f, (axis,))


def steiner_symmetrize_set(a, axis):
    """Per-column recentring of each run count: the function rule read on the indicator."""
    return induced_set_map(lambda f: steiner_symmetrize_function(f, axis))(a)


def schwarz_symmetrize_function(f, axis):
    """Per-fiber rearrangement of the planes orthogonal to ``axis``, 3D grids only.

    Fiber values are sorted descending and placed by distance from the fiber
    center, the upper side of each axis first on ties; every fiber keeps its
    value multiset.
    """
    if f.grid.n != 3:
        raise ValueError("planar-fiber symmetrization needs a 3D grid")
    f.grid.require_axis(axis)
    return _symmetrize_fibers(f, tuple(k for k in range(3) if k != axis))


def schwarz_symmetrize_set(a, axis):
    """Centered quasi-disk of each planar fiber's cell count: the function rule read on the indicator."""
    return induced_set_map(lambda f: schwarz_symmetrize_function(f, axis))(a)


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
        ts, ys = _breakpoints(NonMonotoneMap, "breakpoints", self.ts, self.ys)
        if np.any(np.diff(ys) < 0):
            raise NonMonotoneMap("breakpoint values must be non-decreasing")
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
        th, vals = _breakpoints(NonMonotoneMap, "thresholds and values", self.thresholds, self.values, least=1)
        below = float(self.below)
        if not np.isfinite(below):
            raise NonMonotoneMap("the value below the first threshold must be finite")
        if np.any(np.diff(vals, prepend=below) < 0):
            raise NonMonotoneMap("step values must be non-decreasing")
        object.__setattr__(self, "thresholds", th)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "below", below)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.thresholds, t, side="right")
        table = np.concatenate([[self.below], self.values])
        return table[idx]


def compose_monotone(f, phi):
    """Pointwise composition phi(f) for an increasing right-continuous phi."""
    return GridFunction(f.grid, phi(f.values))

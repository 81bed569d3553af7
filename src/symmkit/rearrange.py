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

from .geometry import GridFunction, GridSet, OrientedHyperplane, induced_set_map


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
    return CANONICAL_MAPS["two_point"].transformer(plane)(f)


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
    "two_point": CanonicalMap(AssociatedFunctionPair("max_min", np.maximum, np.minimum), "abs", "polarization"),
    "reflection": CanonicalMap(AssociatedFunctionPair("second", _proj_second, _proj_second), "neg", "reflection"),
    "identity": CanonicalMap(AssociatedFunctionPair("first", _proj_first, _proj_first), "id", "identity"),
    "two_point_reflected": CanonicalMap(
        AssociatedFunctionPair("min_max", np.minimum, np.maximum), "negabs", "polarization_dagger"
    ),
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


def layer_cake_rearrangement(set_map, f):
    """Rebuild a function transformer from a set map acting on super-level sets.

    Cell x receives the largest value t of f with x in set_map({f >= t}),
    defaulting to min f; grid functions take finitely many values, so the
    supremum is a finite maximum.  The sets {f > t} would give the same map:
    each is {f >= t'}, t' the next level of f.
    """
    levels = np.unique(f.values)
    out = np.full(f.grid.dims, float(levels[0]))
    for t in levels[1:]:
        out[set_map(GridSet(f.grid, f.values >= t)).mask] = t
    return GridFunction(f.grid, out)

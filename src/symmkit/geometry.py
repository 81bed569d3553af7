"""Regular grids, grid functions/sets, oriented hyperplanes and level-set profiles.

Conventions used throughout the package:

* A grid covers the box ``[origin, origin + dims*spacing)`` with uniform
  spacing ``h``; the center of cell ``(i_1, ..., i_n)`` sits at
  ``origin[k] + (i_k + 0.5) * h``.
* Values are stored row-major with shape ``dims`` (numpy C order).
* A reflection is admissible for a grid when it maps the cell-center
  lattice to itself; queries that land outside the grid read the minimum
  sampled value.  Sets are read through their indicators, so off-grid reads
  are False, except that the full grid reads as all of space.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import MisalignedHyperplane

UNIT_TOL = 1e-12
LATTICE_TOL = 1e-9  # relative to the spacing


def _frozen(x, dtype=float):
    """``x`` as an owned, read-only, C-ordered array of ``dtype``: the caller's array is never aliased or frozen."""
    arr = np.array(x, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


def _breakpoints(what, ts, *ys):
    """:func:`_frozen` copies of ``ts, *ys``; ValueError naming ``what`` unless they are
    1-D of one length >= 2, all finite, and ``ts`` is strictly increasing."""
    arrays = tuple(_frozen(a) for a in (ts, *ys))
    ts = arrays[0]
    if ts.ndim != 1 or len(ts) < 2 or any(a.shape != ts.shape for a in arrays):
        raise ValueError(f"{what} need matching 1-D arrays of length >= 2")
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"{what} must be finite")
    if np.any(np.diff(ts) <= 0):
        raise ValueError(f"{what}: the abscissae must be strictly increasing")
    return arrays


@dataclass(frozen=True)
class Grid:
    """Axis-aligned regular grid in dimension 1, 2 or 3."""

    dims: tuple
    origin: tuple
    spacing: float

    def __post_init__(self):
        try:
            dims = tuple(operator.index(d) for d in self.dims)
        except TypeError:
            raise ValueError(f"dims must be integers, got {self.dims!r}") from None
        origin = tuple(float(c) for c in self.origin)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", float(self.spacing))
        if not 1 <= len(dims) <= 3:
            raise ValueError("grid dimension must be 1, 2 or 3")
        if len(origin) != len(dims):
            raise ValueError("origin and dims must have the same length")
        if any(d <= 0 for d in dims):
            raise ValueError("dims must be positive")
        if not np.all(np.isfinite(origin)):
            raise ValueError("origin must be finite")
        if not (np.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError("spacing must be positive and finite")
        try:
            finite = all(math.isfinite(c) for c in self.upper) and 0.0 < self.cell_volume < math.inf
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("the grid's far corner and cell volume must be finite and positive")

    @property
    def n(self):
        return len(self.dims)

    @property
    def num_cells(self):
        return math.prod(self.dims)

    @property
    def cell_volume(self):
        return self.spacing ** self.n

    @property
    def upper(self):
        return tuple(o + d * self.spacing for o, d in zip(self.origin, self.dims))

    @property
    def center(self):
        return tuple((o + u) / 2.0 for o, u in zip(self.origin, self.upper))

    def require_axis(self, axis):
        """Raise ValueError unless ``axis`` is a 0-based axis index of this grid."""
        if not 0 <= axis < self.n:
            raise ValueError(f"axis {axis} is outside 0..{self.n - 1} for a {self.n}D grid")

    def axis_centers(self, axis):
        """Cell-center coordinates along one axis."""
        o = self.origin[axis]
        return o + (np.arange(self.dims[axis]) + 0.5) * self.spacing

    def open_centers(self):
        """Per-axis cell-center vectors, axis k shaped to broadcast along axis k of ``dims``."""
        n = self.n
        return tuple(self.axis_centers(k).reshape((1,) * k + (-1,) + (1,) * (n - k - 1)) for k in range(n))

    def centers(self):
        """All cell centers as an ``(num_cells, n)`` array in row-major order."""
        out = np.empty(self.dims + (self.n,))
        for k, x in enumerate(self.open_centers()):
            out[..., k] = x
        return out.reshape(-1, self.n)


def centered_grid(dims, spacing):
    """Grid of the given shape placed symmetrically around the origin."""
    origin = tuple(-d * spacing / 2.0 for d in dims)
    return Grid(dims, origin, spacing)


@dataclass(frozen=True)
class GridFunction:
    """Real-valued function sampled at the cell centers of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = _frozen(self.values)
        if values.shape != self.grid.dims:
            raise ValueError(f"values have shape {values.shape}, grid has dims {self.grid.dims}")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def essinf(self):
        """On a finite grid the essential infimum is the minimum sample."""
        return float(self.values.min())

    def with_values(self, values):
        return GridFunction(self.grid, values)

    def __eq__(self, other):
        if not isinstance(other, GridFunction):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)


@dataclass(frozen=True)
class GridSet:
    """Boolean mask over the cells of a grid."""

    grid: Grid
    mask: np.ndarray

    def __post_init__(self):
        mask = _frozen(self.mask, bool)
        if mask.shape != self.grid.dims:
            raise ValueError(f"mask has shape {mask.shape}, grid has dims {self.grid.dims}")
        object.__setattr__(self, "mask", mask)

    @property
    def cell_count(self):
        return int(self.mask.sum())

    @property
    def measure(self):
        return self.cell_count * self.grid.cell_volume

    def indicator(self):
        return GridFunction(self.grid, self.mask.astype(float))

    def __eq__(self, other):
        if not isinstance(other, GridSet):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.mask, other.mask)


def set_from_indicator(f):
    """Inverse of :meth:`GridSet.indicator`; values must be exactly 0 or 1."""
    vals = f.values
    if not np.all((vals == 0.0) | (vals == 1.0)):
        raise ValueError("indicator function must take values in {0, 1}")
    return GridSet(f.grid, vals == 1.0)


def induced_set_map(transformer):
    """Set map A -> {x : T(1_A)(x) = 1} read off exactly."""
    return lambda a: GridSet(a.grid, transformer(a.indicator()).values == 1.0)


@dataclass(frozen=True)
class OrientedHyperplane:
    """Hyperplane {x : x.normal = offset} with a chosen positive side.

    ``positive=+1`` selects H+ = {x : x.normal >= offset}; ``positive=-1``
    selects the opposite closed half-space.  Both half-spaces contain the
    hyperplane itself.

    Every mirror read across the plane goes through :meth:`reflection`, which
    keeps the :class:`Reflection` of the last grid read, so all the maps that
    share one plane object on one grid share one plan.
    """

    normal: tuple
    offset: float = 0.0
    positive: int = 1
    _reflection: Reflection = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        normal = tuple(float(c) for c in self.normal)
        pos = self.positive
        if pos in ("+", "-"):
            pos = 1 if pos == "+" else -1
        try:
            pos = operator.index(pos)
        except TypeError:
            pos = None
        if pos not in (1, -1):
            raise ValueError(f"positive must be +1, -1, '+' or '-', got {self.positive!r}")
        if not np.all(np.isfinite(normal)) or abs(float(np.linalg.norm(normal)) - 1.0) > UNIT_TOL:
            raise ValueError("normal must be a finite unit vector")
        offset = float(self.offset)
        if not np.isfinite(offset):
            raise ValueError("offset must be finite")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "positive", pos)

    @property
    def n(self):
        return len(self.normal)

    @property
    def axis(self):
        """Index of the normal's one nonzero entry; None when it has more than one."""
        nonzero = [k for k, c in enumerate(self.normal) if c != 0.0]
        return nonzero[0] if len(nonzero) == 1 else None

    def signed(self, points):
        """Signed distance, positive on H+."""
        pts = np.asarray(points, dtype=float)
        return (pts @ np.asarray(self.normal) - self.offset) * self.positive

    def reflect(self, points):
        pts = np.asarray(points, dtype=float)
        nrm = np.asarray(self.normal)
        proj = pts @ nrm - self.offset
        return pts - 2.0 * np.multiply.outer(proj, nrm)

    def reflection(self, grid):
        """The :class:`Reflection` of ``grid`` in this plane; built only when the last grid read differs."""
        plan = self._reflection
        if plan is None or plan.grid != grid:
            plan = Reflection(grid, self)
            object.__setattr__(self, "_reflection", plan)
        return plan


def axis_plane(axis, n, offset=0.0, positive=1):
    """Hyperplane orthogonal to coordinate ``axis`` in dimension ``n``."""
    normal = tuple(1.0 if k == axis else 0.0 for k in range(n))
    return OrientedHyperplane(normal, offset, positive)


class Reflection:
    """Mirror read of one grid across one hyperplane, built axis by axis from ``open_centers()``.

    Holds its grid, the clipped flat gather of the reflected cell centers, the mask of
    cells whose mirror lies in the grid, and the H+ mask; for an axis plane, ``j`` puts it at
    ``origin + j*h/2`` on its axis, so index i mirrors to j - 1 - i (None off the axes).  The arrays are
    read-only, because every map across the plane shares them through
    :meth:`OrientedHyperplane.reflection`, the one place a plan is built.  The projection onto the
    normal sums the per-axis terms in axis order; each axis then gets its mirror
    index and its lattice test, so no ``(num_cells, n)`` centers array is built.
    Raises ValueError when the plane's dimension is not the grid's, and
    MisalignedHyperplane when the reflection does not map the cell-center lattice
    to itself, or sends a center so far that the lattice test cannot check it.
    """

    def __init__(self, grid, plane):
        if plane.n != grid.n:
            raise ValueError(f"a hyperplane in dimension {plane.n} cannot reflect a grid in dimension {grid.n}")
        h, dims = grid.spacing, grid.dims
        idx, inside = [], True
        # a plane far off the grid may overflow to inf or NaN; the magnitude test catches both
        with np.errstate(over="ignore", invalid="ignore"):
            axes = grid.open_centers()
            p = 0.0
            for x, c in zip(axes, plane.normal):
                p = p + x * c
            p = p - plane.offset
            two_p = 2.0 * p
            for x, c, o, d in zip(axes, plane.normal, grid.origin, dims):
                frac = (x - two_p * c - o) / h - 0.5
                # from 2**52 on every float is an integer, so the lattice test cannot fail
                if not np.abs(frac).max() < 2.0**52:
                    raise MisalignedHyperplane(
                        "reflection in the hyperplane sends cell centers past the range of the lattice test"
                    )
                i = np.rint(frac)
                if np.abs(frac - i).max() > LATTICE_TOL:
                    raise MisalignedHyperplane(
                        "reflection in the hyperplane does not preserve the cell-center lattice"
                    )
                i = i.astype(np.int64)
                inside = inside & (i >= 0) & (i < d)
                idx.append(i)
        self.grid = grid
        self.j = None if plane.axis is None else int(idx[plane.axis].flat[0]) + 1
        self.inside = inside.ravel()
        # off-grid mirrors clip to an edge cell, which `inside` masks in every read
        self.flat = np.ravel_multi_index(idx, dims, mode="clip").ravel()
        # every off-plane cell lies at least h/(2*sqrt(2)) from an admissible
        # plane, so the slack only keeps on-plane cells, rounded to -1 ulp, in H+
        self.hplus = p * plane.positive >= -LATTICE_TOL * h
        for arr in (self.inside, self.flat, self.hplus):
            arr.setflags(write=False)

    def mirror(self, values, fill):
        """``values`` read at each cell's mirror image; ``fill`` where it leaves the grid."""
        return np.where(self.inside, values.ravel()[self.flat], fill).reshape(self.grid.dims)

    def two_point(self, values, fill, fplus, fminus):
        """``fplus(v, mirror)`` on H+ and ``fminus(v, mirror)`` on H-, cell by cell."""
        mirrored = self.mirror(values, fill)
        return np.where(self.hplus, fplus(values, mirrored), fminus(values, mirrored))


def reflect_grid_function(f, plane):
    """Function x -> f(reflection of x); out-of-grid reads give the minimum value.

    Reads through the plane's kept plan, :meth:`OrientedHyperplane.reflection`.
    """
    return GridFunction(f.grid, plane.reflection(f.grid).mirror(f.values, f.essinf))


def reflect_grid_set(a, plane):
    """Mirror image of a grid set: :func:`reflect_grid_function` read on the indicator."""
    return induced_set_map(lambda f: reflect_grid_function(f, plane))(a)


@dataclass(frozen=True)
class DistributionProfile:
    """Measures of the strict super-level sets, one entry per distinct value.

    ``counts_above[i]`` is the exact number of cells with value greater
    than ``values[i]``; measures follow by scaling with the cell volume.
    """

    values: np.ndarray
    counts_above: np.ndarray
    total_cells: int
    cell_volume: float

    def __post_init__(self):
        values, counts = _frozen(self.values), _frozen(self.counts_above, np.int64)
        if values.ndim != 1 or counts.shape != values.shape:
            raise ValueError("a profile needs 1-D values and one count per value")
        if not (np.isfinite(values).all() and (np.diff(values) > 0).all()):
            raise ValueError("profile values must be finite and strictly increasing")
        # counts that never rise lie within 0..total_cells when their two ends do
        if (np.diff(counts) > 0).any() or counts.size and not 0 <= counts[-1] <= counts[0] <= self.total_cells:
            raise ValueError("profile counts must never rise and must lie within 0..total_cells")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counts_above", counts)

    def pairs(self):
        """List of (value, measure of {f > value})."""
        return [(float(t), int(c) * self.cell_volume) for t, c in zip(self.values, self.counts_above)]

    def cells_above(self, t):
        """Exact cell count of {f > t} for arbitrary real t."""
        pos = int(np.searchsorted(self.values, t, side="right"))
        if pos == 0:
            return self.total_cells
        return int(self.counts_above[pos - 1])

    def __eq__(self, other):
        if not isinstance(other, DistributionProfile):
            return NotImplemented
        return (
            self.total_cells == other.total_cells
            and self.cell_volume == other.cell_volume
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.counts_above, other.counts_above)
        )


def distribution(f):
    """Exact distribution profile of a grid function."""
    vals, counts = np.unique(f.values, return_counts=True)
    above = f.grid.num_cells - np.cumsum(counts)
    return DistributionProfile(vals, above, f.grid.num_cells, f.grid.cell_volume)


def ball_mask(axes, center, radius):
    """Closed-ball test on the per-axis center vectors of ``Grid.open_centers()``.

    The squared distance adds the per-axis squares in axis order, the order a
    row sum over ``Grid.centers()`` adds them in, so the mask is exact.
    """
    d2 = 0.0
    for x, c in zip(axes, np.asarray(center, dtype=float), strict=True):
        d2 = d2 + (x - c) ** 2
    return d2 <= radius * radius


def box_mask(axes, lo, hi):
    """Closed-box test on the per-axis center vectors, one interval per axis."""
    inside = True
    for x, a, b in zip(axes, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), strict=True):
        inside = inside & (x >= a) & (x <= b)
    return inside


def disk_raster(grid, center, radius):
    """Cells whose centers lie in the closed ball around ``center``."""
    return GridSet(grid, ball_mask(grid.open_centers(), center, radius))


def box_raster(grid, lo, hi):
    """Cells whose centers lie in the closed axis-aligned box [lo, hi]."""
    return GridSet(grid, box_mask(grid.open_centers(), lo, hi))

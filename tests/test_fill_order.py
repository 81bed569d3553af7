"""Steiner and Schwarz fill their fibers in one order, certified by polarizations.

``rearrange._fill_order(shape)`` orders the cells of a fiber by squared
distance from its center and gives ties to the later cell in scan order, so
the upper side of each axis fills first.  It is Steiner's column rule on a
one-axis fiber.  On a planar fiber the certificate has two parts:

- every toward-center admissible plane of the fiber fixes the Schwarz
  target: the axis planes at every interior half-lattice offset, and on
  square fibers the diagonals that meet the open fiber box, each oriented with the fiber center
  on its positive side (``positive=+1`` at the planes through the center,
  as ``draw_polarization_plane`` orients them);
- the fill order is a linear extension of the partial order that these
  reflections generate on the fiber's cells (x before its mirror for x in
  H+), while the scan-order tie rule that Schwarz once used is not.  The
  pairs the reflections leave incomparable are the inputs on which random
  polarizations can stop short of the target.
"""

import numpy as np
import pytest

import symmkit as sk
from symmkit.rearrange import _fill_order

SEEDS = range(4)


def fiber_planes(grid, axes, diagonals=True):
    """(plane, through the center) for every admissible plane that meets the
    open fiber box with its normal in the fiber ``axes``, positive side
    holding the fiber center."""
    o, h, n = grid.origin, grid.spacing, grid.n
    e, r = np.eye(n), np.sqrt(0.5)
    for a in axes:
        m = grid.dims[a]
        for j in range(1, 2 * m):  # x_a = o_a + j h / 2; the center has j = m
            yield sk.axis_plane(a, n, o[a] + j * h / 2, 1 if j <= m else -1), j == m
    a, b = axes
    m = grid.dims[a]
    if not diagonals or grid.dims[b] != m:
        return
    for d in range(1 - m, m):  # x_a - x_b = o_a - o_b + d h; the center has d = 0
        normal = tuple(r * (e[a] - e[b]))
        yield sk.OrientedHyperplane(normal, r * (o[a] - o[b] + d * h), 1 if d <= 0 else -1), d == 0
    for t in range(1, 2 * m):  # x_a + x_b = o_a + o_b + t h; the center has t = m
        normal = tuple(r * (e[a] + e[b]))
        yield sk.OrientedHyperplane(normal, r * (o[a] + o[b] + t * h), 1 if t <= m else -1), t == m


def fiber_axes(axis):
    return tuple(k for k in range(3) if k != axis)


def scan_order_ties(shape):
    """The fill order Schwarz once used: squared distance, ties in scan order."""
    d2 = sum((2 * i + 1 - m) ** 2 for i, m in zip(np.indices(shape), shape)).ravel()
    return np.argsort(d2, kind="stable")


def test_one_axis_order_is_steiners_column_rule():
    for m in range(1, 200):
        assert list(_fill_order((m,))) == sorted(range(m), key=lambda p: (abs(p - (m - 1) / 2.0), -p)), m


# ---------------------------------------------------------------------------
# (a) fixed points
# ---------------------------------------------------------------------------

CUBES = [(4, 4, 4), (5, 5, 5), (6, 6, 6)]
NON_SQUARE = [(4, 3, 5), (6, 4, 5), (2, 3, 6)]


def grids(dims):
    return [sk.centered_grid(dims, 0.25), sk.Grid(dims, (-1.3, 0.7, 2.1), 0.6)]


@pytest.mark.parametrize("dims", CUBES + NON_SQUARE, ids=str)
def test_fiber_planes_are_toward_center(dims):
    for grid in grids(dims):
        for axis in range(3):
            for plane, center in fiber_planes(grid, fiber_axes(axis)):
                plan = plane.reflection(grid)
                assert plan.inside[~plan.hplus.ravel()].all(), plane  # every H- cell has its mirror in the grid
                assert not center or plane.positive == 1, plane


@pytest.mark.parametrize("dims", CUBES + NON_SQUARE, ids=str)
def test_every_toward_center_fiber_plane_fixes_the_schwarz_target(dims):
    kinds = {}
    for grid in grids(dims):
        for seed in SEEDS:
            rng = np.random.default_rng((28, seed))
            values = rng.integers(0, 4, dims).astype(float) if seed % 2 == 0 else rng.normal(size=dims)
            f = sk.GridFunction(grid, values)
            for axis in range(3):
                target = sk.schwarz_symmetrize_function(f, axis)
                for plane, center in fiber_planes(grid, fiber_axes(axis)):
                    assert sk.polarize(target, plane) == target, (grid, seed, axis, plane)
                    kind = ("axis" if max(np.abs(plane.normal)) == 1.0 else "diagonal", center)
                    kinds[kind] = kinds.get(kind, 0) + 1
    # the center planes, where the tie order decides, are among those checked
    assert kinds[("axis", True)] > 0
    assert (kinds.get(("diagonal", True), 0) > 0) == (dims in CUBES)


# ---------------------------------------------------------------------------
# (b) linear extension of the order the reflections generate
# ---------------------------------------------------------------------------


def generated_order(shape, diagonals):
    """below[x, y]: the fiber's plane reflections force flat cell x to fill before cell y."""
    grid = sk.centered_grid(shape, 1.0)
    cells = np.arange(grid.num_cells)
    below = np.zeros((cells.size, cells.size), dtype=bool)
    for plane, _ in fiber_planes(grid, (0, 1), diagonals):
        plan = plane.reflection(grid)
        x = cells[plan.hplus.ravel() & plan.inside & (plan.flat != cells)]
        below[x, plan.flat[x]] = True
    for k in cells:  # transitive closure
        below |= below[:, [k]] & below[[k], :]
    return below


def extends(order, below):
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    x, y = np.nonzero(below)
    return bool(np.all(rank[x] < rank[y]))


# incomparable cell pairs of each fiber, out of C(cells, 2), with axis planes
# only and, on square fibers, with the diagonals too
INCOMPARABLE = {
    (4, 4): (36, 11),
    (5, 5): (100, 32),
    (6, 6): (225, 71),
    (3, 5): (30,),
    (4, 6): (90,),
}


@pytest.mark.parametrize("shape", list(INCOMPARABLE), ids=str)
def test_fill_order_extends_the_order_the_reflections_generate(shape):
    cells = shape[0] * shape[1]
    counts = []
    for diagonals in (False, True)[: len(INCOMPARABLE[shape])]:
        below = generated_order(shape, diagonals)
        assert not np.any(below & below.T)  # a partial order: no cycle
        assert extends(_fill_order(shape), below)
        assert not extends(scan_order_ties(shape), below)
        counts.append(cells * (cells - 1) // 2 - int(np.count_nonzero(below)))
    assert tuple(counts) == INCOMPARABLE[shape]

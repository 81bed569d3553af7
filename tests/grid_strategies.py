"""Hypothesis strategies, small grids and plane enumerations shared by the property tests."""

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import symmkit as sk


@st.composite
def grid_and_plane(draw):
    # axis planes through the grid center, either side positive: the
    # reflection maps the grid onto itself, so every cell has its mirror
    n = draw(st.integers(1, 3))
    dims = tuple(draw(st.lists(st.integers(1, {1: 32, 2: 16, 3: 8}[n]), min_size=n, max_size=n)))
    grid = sk.centered_grid(dims, 0.25)
    axis = draw(st.integers(0, n - 1))
    plane = sk.axis_plane(axis, n, grid.center[axis], draw(st.sampled_from([1, -1])))
    return grid, plane


@st.composite
def function_on(draw, grid):
    if draw(st.booleans()):
        elements = st.integers(-3, 3).map(float)  # many ties, between mirror cells too
    else:
        elements = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    return sk.GridFunction(grid, draw(hnp.arrays(float, grid.dims, elements=elements)))


def small_grid(rng, square):
    """A random 1D-3D grid with 1 to 5 cells per axis, equal on every axis if ``square``."""
    n = int(rng.integers(1, 4))
    dims = (int(rng.integers(1, 6)),) * n if square else tuple(int(d) for d in rng.integers(1, 6, n))
    return sk.Grid(dims, tuple(rng.uniform(-3.0, 3.0, n)), float(rng.uniform(0.05, 2.0)))


def admissible_planes(grid):
    """Every admissible plane of the grid, both orientations: axis planes at
    every half-lattice offset, edges included, and on square grids the
    diagonals x_a -+ x_b = const through the cell-center lattice."""
    o, h, n = grid.origin, grid.spacing, grid.n
    e, r = np.eye(n), np.sqrt(0.5)
    planes = [(e[k], o[k] + p * h / 2) for k in range(n) for p in range(2 * grid.dims[k] + 1)]
    if n > 1 and len(set(grid.dims)) == 1:
        m = grid.dims[0]
        for a in range(n):
            for b in range(a + 1, n):
                planes += [(r * (e[a] - e[b]), r * ((o[a] - o[b]) + d * h)) for d in range(-m, m + 1)]
                planes += [(r * (e[a] + e[b]), r * ((o[a] + o[b]) + t * h)) for t in range(2 * m + 1)]
    for normal, offset in planes:
        for positive in (1, -1):
            yield sk.OrientedHyperplane(tuple(normal), offset, positive)

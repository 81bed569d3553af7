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
    """Every admissible plane of a grid, both orientations, each with the
    mask of the cells on it worked out in integer index arithmetic: the axis
    planes at every half-lattice offset, edges included, and on a square
    grid the diagonals x_a -+ x_b = const through the cell-center lattice,
    those that touch the grid at a corner only included."""
    idx = np.indices(grid.dims)
    o, h, n, m = grid.origin, grid.spacing, grid.n, grid.dims[0]
    e, r = np.eye(n), np.sqrt(0.5)
    planes = []
    for k in range(n):
        for p in range(2 * grid.dims[k] + 1):  # x_k = o_k + p h / 2 on the cells 2 i_k + 1 = p
            planes.append((e[k], o[k] + p * h / 2, 2 * idx[k] + 1 == p))
    for a in range(n) if grid.dims == (m,) * n else ():  # diagonals on square grids only
        for b in range(a + 1, n):
            for d in range(-m, m + 1):  # x_a - x_b = (o_a - o_b) + d h on the cells i_a - i_b = d
                planes.append((r * (e[a] - e[b]), r * ((o[a] - o[b]) + d * h), idx[a] - idx[b] == d))
            for t in range(2 * m + 1):  # x_a + x_b = (o_a + o_b) + t h on the cells i_a + i_b + 1 = t
                planes.append((r * (e[a] + e[b]), r * ((o[a] + o[b]) + t * h), idx[a] + idx[b] + 1 == t))
    for normal, offset, on_plane in planes:
        for positive in (1, -1):
            yield sk.OrientedHyperplane(tuple(normal), offset, positive), on_plane

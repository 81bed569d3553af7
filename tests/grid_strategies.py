"""Hypothesis strategies shared by the property tests."""

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

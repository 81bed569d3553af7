"""Polarization laws on random 1D-3D grids with an axis plane through the center."""

import numpy as np
import pytest
from grid_strategies import function_on, grid_and_plane
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import symmkit as sk

LAWS = settings(derandomize=True, deadline=None, database=None, max_examples=100)


@st.composite
def plane_and_functions(draw, count):
    grid, plane = draw(grid_and_plane())
    return plane, [draw(function_on(grid)) for _ in range(count)]


@st.composite
def plane_and_set(draw):
    grid, plane = draw(grid_and_plane())
    return plane, sk.GridSet(grid, draw(hnp.arrays(bool, grid.dims)))


@LAWS
@given(plane_and_functions(1))
def test_polarize_keeps_distribution(case):
    plane, (f,) = case
    assert sk.distribution(sk.polarize(f, plane)) == sk.distribution(f)


@pytest.mark.parametrize("p", [1, 2, np.inf])
@LAWS
@given(plane_and_functions(2))
def test_polarize_is_an_lp_contraction(p, case):
    plane, (f, g) = case
    lhs = np.linalg.norm((sk.polarize(f, plane).values - sk.polarize(g, plane).values).ravel(), p)
    rhs = np.linalg.norm((f.values - g.values).ravel(), p)
    if p == np.inf:
        # on a mirror pair max(|a - d|, |b - c|) <= max(|a - c|, |b - d|) for
        # a >= b, c <= d, and monotone rounding keeps that order: no tolerance
        assert lhs <= rhs
    else:
        # the two sums round in different orders
        assert lhs <= rhs * (1 + 1e-12)


@LAWS
@given(plane_and_set())
def test_polarize_commutes_with_the_indicator(case):
    plane, a = case
    assert sk.polarize(a.indicator(), plane) == sk.polarize_set(a, plane).indicator()

"""One inward sweep of toward-center polarizations reaches the Steiner symmetral.

Along an axis of m cells, ``draw_polarization_plane`` draws one of the
2m - 1 interior half-lattice planes j = 1 .. 2m - 1, oriented toward the
central plane j = m.  Polarizing across each of them once, outermost first,
gives ``steiner_symmetrize_function`` exactly.  The target is fixed by each
of them, so once a ``converge`` run reaches the target it stays there.
"""

import itertools

import numpy as np
import pytest

import symmkit as sk
from symmkit.experiments import draw_polarization_plane

SEEDS = range(60)


class _Draw:
    """Stands in for the rng: its one draw is the half-lattice index j."""

    def __init__(self, j):
        self.j = j

    def integers(self, low, high):
        assert low <= self.j < high
        return self.j


def drawable_planes(grid, axis):
    """{j: the plane draw_polarization_plane draws at half-lattice index j}."""
    return {j: draw_polarization_plane(grid, axis, _Draw(j)) for j in range(1, 2 * grid.dims[axis])}


def inward_sweep(f, axis):
    m = f.grid.dims[axis]
    planes = drawable_planes(f.grid, axis)
    for j in sorted(planes, key=lambda j: -abs(j - m)):
        f = sk.polarize(f, planes[j])
    return f


def random_grid(rng):
    n = int(rng.integers(1, 4))
    dims = tuple(int(d) for d in rng.integers(1, {1: 10, 2: 7, 3: 5}[n], n))
    return sk.Grid(dims, tuple(rng.uniform(-3.0, 3.0, n)), float(rng.uniform(0.05, 2.0)))


@pytest.mark.parametrize("m", range(1, 6))
def test_sweep_reaches_steiner_on_every_small_1d_function(m):
    grid = sk.centered_grid((m,), 0.25)
    for values in itertools.product((0.0, 1.0, 2.0), repeat=m):
        f = sk.GridFunction(grid, np.array(values))
        assert inward_sweep(f, 0) == sk.steiner_symmetrize_function(f, 0), values


@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_reaches_steiner_on_random_grids(seed):
    rng = np.random.default_rng((29, seed))
    grid = random_grid(rng)
    if rng.random() < 0.5:
        values = rng.integers(0, 4, grid.dims).astype(float)  # ties, across mirror pairs too
    else:
        values = rng.uniform(-5.0, 5.0, grid.dims)
    f = sk.GridFunction(grid, values)
    for axis in range(grid.n):
        assert inward_sweep(f, axis) == sk.steiner_symmetrize_function(f, axis)


@pytest.mark.parametrize("seed", SEEDS)
def test_target_fixed_by_every_drawable_plane(seed):
    rng = np.random.default_rng((31, seed))
    grid = random_grid(rng)
    f = sk.GridFunction(grid, rng.integers(0, 4, grid.dims).astype(float))
    for axis in range(grid.n):
        target = sk.steiner_symmetrize_function(f, axis)
        for j, plane in drawable_planes(grid, axis).items():
            assert sk.polarize(target, plane) == target, (axis, j)

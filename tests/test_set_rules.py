"""Every set rule is its function rule read on the indicator.

Random 1D-3D grids are swept over every admissible plane: axis planes at
every half-lattice offset, edges included, and on square grids the
diagonals x_a -+ x_b = const through the cell-center lattice, both
orientations each.  The empty set, the full set and random sets go through
every set rule a caller can reach.
"""

import numpy as np
import pytest

import symmkit as sk
from symmkit.harness import trial_rng

SEEDS = range(24)


def random_grid(rng, square):
    n = int(rng.integers(1, 4))
    dims = (int(rng.integers(1, 6)),) * n if square else tuple(int(d) for d in rng.integers(1, 6, n))
    return sk.Grid(dims, tuple(rng.uniform(-3.0, 3.0, n)), float(rng.uniform(0.05, 2.0)))


def admissible_planes(grid):
    """Every admissible plane of the grid, both orientations."""
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


def set_rules(plane):
    """(name, set rule, function rule) of every set rule a caller can reach across ``plane``."""
    rules = [
        ("polarize_set", lambda a: sk.polarize_set(a, plane), lambda f: sk.polarize(f, plane)),
        ("reflect_grid_set", lambda a: sk.reflect_grid_set(a, plane), lambda f: sk.reflect_grid_function(f, plane)),
    ]
    if np.count_nonzero(plane.normal) == 1:  # canonical set maps take axis planes only
        for label, row in sk.CANONICAL_MAPS.items():
            rules.append((label, sk.canonical_set_map(label, plane), lambda f, fn=row.function: fn(f, plane)))
    return rules


def sample_sets(rng, grid):
    masks = [np.zeros(grid.dims, dtype=bool), np.ones(grid.dims, dtype=bool)]
    masks += [rng.random(grid.dims) < p for p in (0.3, 0.7)]
    return [sk.GridSet(grid, m) for m in masks]


@pytest.mark.parametrize("seed", SEEDS)
def test_every_set_rule_is_its_function_rule_on_the_indicator(seed):
    rng = trial_rng(653, seed)
    grid = random_grid(rng, square=seed % 2 == 0)
    sets = sample_sets(rng, grid)
    for plane in admissible_planes(grid):
        for name, set_rule, function_rule in set_rules(plane):
            for a in sets:
                assert set_rule(a).indicator() == function_rule(a.indicator()), (name, grid, plane, a.mask)
    for axis in range(grid.n):
        for a in sets:
            assert sk.steiner_symmetrize_set(a, axis).indicator() == sk.steiner_symmetrize_function(a.indicator(), axis)


def test_full_grid_stays_whole_at_an_off_center_plane():
    # the plane x = 1 sends cells 2 and 3 off the grid; the indicator of the
    # full grid reads its minimum, 1, there, so every set rule keeps them
    grid = sk.Grid((4,), (0.0,), 1.0)
    full = sk.GridSet(grid, np.ones(4, dtype=bool))
    plane = sk.axis_plane(0, 1, 1.0, -1)
    assert sk.polarize_set(full, plane) == full
    assert sk.reflect_grid_set(full, plane) == full
    for label in sk.CANONICAL_MAPS:
        assert sk.canonical_set_map(label, plane)(full) == full

"""Per-axis rasters and generators, and one-plan composite maps, against their old forms.

The rasters and the blob generator read per-axis cell-center vectors instead
of ``Grid.centers()``; the composite maps reflect after polarizing through a
single reflection plan.  Each is checked with ``==`` against the form it
replaced, on random 1D-3D grids and planes.
"""

import numpy as np
import pytest

import symmkit as sk
from symmkit.harness import random_blob_function, trial_rng

two_point_reflected = sk.CANONICAL_MAPS["two_point_reflected"].function

SEEDS = range(40)


def random_grid(rng, n=None):
    n = int(rng.integers(1, 4)) if n is None else n
    dims = tuple(int(d) for d in rng.integers(1, 10, n))  # 1-cell axes included
    origin = tuple(rng.uniform(-3.0, 3.0, n))
    return sk.Grid(dims, origin, float(rng.uniform(0.05, 2.0)))


def random_point(rng, grid):
    """A point in the grid box grown by its own extent, so often outside the box."""
    lo, hi = np.asarray(grid.origin), np.asarray(grid.upper)
    span = hi - lo
    if rng.random() < 0.3:  # exactly on a cell center
        return np.array([rng.choice(grid.axis_centers(k)) for k in range(grid.n)])
    return lo - span + 3.0 * span * rng.random(grid.n)


def squared_distances(grid, center):
    return np.sum((grid.centers() - np.asarray(center, dtype=float)) ** 2, axis=1)


def disk_oracle(grid, center, radius):
    return (squared_distances(grid, center) <= radius * radius).reshape(grid.dims)


def box_oracle(grid, lo, hi):
    centers = grid.centers()
    inside = np.all((centers >= np.asarray(lo, dtype=float)) & (centers <= np.asarray(hi, dtype=float)), axis=1)
    return inside.reshape(grid.dims)


def blob_oracle(rng, grid, max_blobs=5, max_level=8):
    """random_blob_function as it was written over ``grid.centers()``."""
    lo = np.asarray(grid.origin)
    span = np.asarray(grid.upper) - lo
    centers = grid.centers()
    values = np.zeros(grid.num_cells)
    for _ in range(int(rng.integers(1, max_blobs + 1))):
        level = float(rng.integers(0, max_level + 1))
        if rng.random() < 0.5:
            c = lo + rng.random(grid.n) * span
            r = (0.1 + 0.3 * rng.random()) * span.min()
            mask = np.sum((centers - c) ** 2, axis=1) <= r * r
        else:
            a = lo + rng.random(grid.n) * span
            b = lo + rng.random(grid.n) * span
            mask = np.all((centers >= np.minimum(a, b)) & (centers <= np.maximum(a, b)), axis=1)
        values += level * mask
    return sk.GridFunction(grid, values.reshape(grid.dims))


class TestPerAxisRasters:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_disk_raster_equals_centers_form(self, seed):
        rng = trial_rng(601, seed)
        grid = random_grid(rng)
        extent = max(u - o for o, u in zip(grid.origin, grid.upper))
        for _ in range(8):
            center = random_point(rng, grid)
            # zero, random, or through a cell center, where the order of the
            # per-axis sum decides the last bit
            for radius in (0.0, rng.uniform(0.0, 2.0) * extent, *np.sqrt(rng.choice(squared_distances(grid, center), 4))):
                assert np.array_equal(sk.disk_raster(grid, center, radius).mask, disk_oracle(grid, center, radius))

    def test_zero_radius_keeps_the_center_cell(self):
        grid = sk.Grid((5, 3), (-1.0, 0.5), 0.3)
        center = (grid.axis_centers(0)[2], grid.axis_centers(1)[1])
        a = sk.disk_raster(grid, center, 0.0)
        assert a.cell_count == 1 and a.mask[2, 1]
        assert np.array_equal(a.mask, disk_oracle(grid, center, 0.0))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_box_raster_equals_centers_form(self, seed):
        rng = trial_rng(607, seed)
        grid = random_grid(rng)
        for _ in range(8):
            lo, hi = random_point(rng, grid), random_point(rng, grid)
            if rng.random() < 0.7:  # otherwise keep lo > hi on some axis: an empty box
                lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
            assert np.array_equal(sk.box_raster(grid, lo, hi).mask, box_oracle(grid, lo, hi))

    def test_empty_box(self):
        grid = sk.centered_grid((4, 4, 4), 0.5)
        assert sk.box_raster(grid, (0.5, -1.0, -1.0), (-0.5, 1.0, 1.0)).cell_count == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_blob_function_equals_centers_form(self, seed):
        grid = random_grid(trial_rng(613, seed))
        for i in range(4):
            assert random_blob_function(trial_rng(seed, i), grid) == blob_oracle(trial_rng(seed, i), grid)

    def test_default_grid_blobs_equal_centers_form(self):
        for i in range(50):
            assert random_blob_function(trial_rng(617, i)) == blob_oracle(trial_rng(617, i), sk.centered_grid((32, 32), 0.125))

    def test_no_centers_pass(self, monkeypatch):
        def refuse(self):
            raise AssertionError("centers() called")

        grid = sk.centered_grid((6, 5, 4), 0.25)
        monkeypatch.setattr(sk.Grid, "centers", refuse)
        sk.disk_raster(grid, grid.center, 0.5)
        sk.box_raster(grid, (-0.5,) * 3, (0.5,) * 3)
        random_blob_function(trial_rng(619, 0), grid)


def axis_planes(rng, grid, count):
    """Axis planes at random half-lattice offsets, edges included, either side positive."""
    for _ in range(count):
        k = int(rng.integers(0, grid.n))
        j = int(rng.integers(0, 2 * grid.dims[k] + 1))
        offset = grid.origin[k] + j * grid.spacing / 2.0
        yield sk.axis_plane(k, grid.n, offset, int(rng.choice([1, -1])))


def diagonal_planes(rng, grid, count):
    """Diagonal planes of a square 2D grid with equal origin coordinates, off-center ones included."""
    o, h, m = grid.origin[0], grid.spacing, grid.dims[0]
    for _ in range(count):
        if rng.random() < 0.5:  # x - y = k h: maps (x, y) to (y + k h, x - k h)
            normal, offset = (1.0, -1.0), int(rng.integers(-m, m + 1)) * h
        else:  # x + y = 2 o + j h: maps (x, y) to (2 o + j h - y, 2 o + j h - x)
            normal, offset = (1.0, 1.0), 2.0 * o + int(rng.integers(0, 2 * m + 1)) * h
        sign = int(rng.choice([1, -1]))
        yield sk.OrientedHyperplane(tuple(sign * c / np.sqrt(2.0) for c in normal), sign * offset / np.sqrt(2.0))


def random_values(rng, grid):
    return rng.integers(-3, 4, grid.dims).astype(float)  # ties, between mirror cells too


class TestOnePlanComposites:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_two_point_reflected_on_axis_planes(self, seed):
        rng = trial_rng(631, seed)
        grid = random_grid(rng)
        f = sk.GridFunction(grid, random_values(rng, grid))
        for plane in axis_planes(rng, grid, 6):
            expect = sk.reflect_grid_function(sk.polarize(f, plane), plane)
            assert two_point_reflected(f, plane) == expect

    @pytest.mark.parametrize("seed", SEEDS)
    def test_two_point_reflected_on_diagonal_planes(self, seed):
        rng = trial_rng(641, seed)
        m = int(rng.integers(1, 9))
        o = float(rng.uniform(-2.0, 2.0))
        grid = sk.Grid((m, m), (o, o), float(rng.uniform(0.1, 1.0)))
        f = sk.GridFunction(grid, random_values(rng, grid))
        for plane in diagonal_planes(rng, grid, 6):
            expect = sk.reflect_grid_function(sk.polarize(f, plane), plane)
            assert two_point_reflected(f, plane) == expect

    @pytest.mark.parametrize("seed", SEEDS)
    def test_polarization_dagger_on_axis_planes(self, seed):
        rng = trial_rng(643, seed)
        grid = random_grid(rng)
        a = sk.GridSet(grid, rng.random(grid.dims) < 0.4)
        for plane in axis_planes(rng, grid, 6):
            expect = sk.reflect_grid_set(sk.polarize_set(a, plane), plane)
            assert sk.canonical_set_map("two_point_reflected", plane)(a) == expect

    def test_off_center_fill_reads_the_polarized_minimum(self):
        # the plane x = 1 sends cells 3 and up off the grid; the reflection
        # after polarizing fills them with the minimum value
        grid = sk.Grid((4,), (0.0,), 1.0)
        f = sk.GridFunction(grid, [5.0, 1.0, 2.0, 3.0])
        plane = sk.axis_plane(0, 1, 1.0, -1)
        out = two_point_reflected(f, plane)
        assert out == sk.reflect_grid_function(sk.polarize(f, plane), plane)
        assert np.array_equal(out.values, [1.0, 5.0, 1.0, 1.0])

    def test_one_plan_per_call(self, monkeypatch):
        built = []
        init = sk.Reflection.__init__

        def counted(self, grid, plane):
            built.append(plane)
            init(self, grid, plane)

        monkeypatch.setattr(sk.Reflection, "__init__", counted)
        grid = sk.centered_grid((6, 6), 0.25)
        plane = sk.axis_plane(1, 2, 0.25, -1)
        two_point_reflected(random_blob_function(trial_rng(647, 0), grid), plane)
        assert len(built) == 1
        sk.canonical_set_map("two_point_reflected", plane)(sk.disk_raster(grid, (0.0, 0.5), 0.5))
        assert len(built) == 2

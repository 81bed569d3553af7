"""Per-axis rasters and generators, and the canonical maps at every plane, against reference forms.

The rasters, the generators, ``near_swap`` and the ``maps_balls_to_balls``
law read per-axis cell-center vectors instead of ``Grid.centers()``; each is
checked with ``==`` against the ``centers()`` form it replaced.  Each canonical map, function and set map, is checked at
every admissible plane, off-center ones included, against the same map
applied to f extended by its minimum and restricted to f's grid; at center
planes, where no mirror leaves the grid, the reflected two-point map is also
reflection after polarization.  All on random 1D-3D grids.
"""

import numpy as np
import pytest
from grid_strategies import admissible_planes, small_grid

import symmkit as sk
from symmkit.chordmaps import NEAR_SWAP_WIDTH
from symmkit.harness import (
    _Draw,
    _maps_balls_to_balls,
    _nearest_plane_point,
    _shortest_side,
    centered_cylinder_raster,
    quantized_cone,
    random_blob_function,
    random_blob_set,
    random_convex_polygon,
    trial_rng,
)


def two_point_reflected(f, plane):
    return sk.CANONICAL_MAPS["two_point_reflected"].transformer(plane)(f)


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


def polygon_raster_oracle(grid, poly):
    normals, rhs = poly.edge_constraints()
    return np.all(grid.centers() @ normals.T >= rhs - 1e-12, axis=1).reshape(grid.dims)


def cylinder_oracle(rng, plane, grid):
    """centered_cylinder_raster as it was written over ``grid.centers()``."""
    centers = grid.centers()
    normal = np.asarray(plane.normal)
    along = centers @ normal - plane.offset
    in_h = centers - np.outer(centers @ normal, normal)
    mid = np.asarray(grid.center)
    mid_h = mid - (mid @ normal) * normal
    span = 0.4 * _shortest_side(grid)
    r = (0.2 + 0.8 * rng.random()) * span
    s = (0.2 + 0.8 * rng.random()) * span
    radial = np.linalg.norm(in_h - mid_h, axis=1) if grid.n > 1 else np.zeros(len(centers))
    return ((radial <= r) & (np.abs(along) <= s)).reshape(grid.dims)


def cone_oracle(grid, center, radius, levels):
    d = np.linalg.norm(grid.centers() - np.asarray(center, dtype=float), axis=1)
    return np.floor(np.clip(levels * (1.0 - d / radius), 0.0, levels)).reshape(grid.dims)


def near_swap_oracle(a, plane):
    near = np.abs(plane.signed(a.grid.centers())).reshape(a.grid.dims) <= NEAR_SWAP_WIDTH
    return np.where(near, sk.reflect_grid_set(a, plane).mask, a.mask)


def maps_balls_to_balls_oracle(dmap, plane, draw):
    """The maps_balls_to_balls law as it was written over ``grid.centers()``."""
    grid = draw.grid
    h = grid.spacing
    u = np.asarray(plane.normal, dtype=float)
    t, r = draw("ball", lambda rng: (float(rng.integers(-6, 7)) * h, (4.0 + rng.random()) * h))
    a = sk.disk_raster(grid, _nearest_plane_point(grid, plane) + t * u, r)
    image = dmap(a)
    if image.cell_count != a.cell_count:
        return {"t": t, "reason": "cell count changed"}
    if image.cell_count == 0:
        return None
    com = grid.centers()[image.mask.ravel()].mean(axis=0)
    snapped = np.asarray(grid.origin) + np.rint((com - np.asarray(grid.origin)) / (h / 2.0)) * (h / 2.0)
    if image != sk.disk_raster(grid, snapped, r):
        return {"t": t, "reason": "image is not a ball raster"}
    return None


def random_plane(rng, grid):
    """A plane through a random point of the grown grid box, along an axis or a random direction."""
    normal = rng.normal(size=grid.n)
    if rng.random() < 0.5:
        normal = np.eye(grid.n)[rng.integers(grid.n)]
    normal = normal / np.linalg.norm(normal)
    return sk.OrientedHyperplane(tuple(normal), float(random_point(rng, grid) @ normal), int(rng.choice([1, -1])))


def lattice_polygon(rng, grid):
    """A convex polygon whose vertices are cell centers, so its edges run through cell centers."""
    while True:
        ij = np.stack([rng.integers(0, d, 6) for d in grid.dims], axis=1)
        points = np.asarray(grid.origin) + (ij + 0.5) * grid.spacing
        try:
            return sk.ConvexPolygon(sk.convex_hull(points))
        except ValueError:  # fewer than three hull points
            continue


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

    @pytest.mark.parametrize("seed", SEEDS)
    def test_polygon_raster_equals_centers_form(self, seed):
        rng = trial_rng(631, seed)
        grid = random_grid(rng, n=2)
        grid = sk.Grid(tuple(d + 2 for d in grid.dims), grid.origin, grid.spacing)  # room for a lattice triangle
        lo, span = np.asarray(grid.origin), np.asarray(grid.upper) - np.asarray(grid.origin)
        for _ in range(4):
            # a polygon across the grid box, and one with edges through cell centers
            poly = random_convex_polygon(rng, box=1.0, min_area=0.1)
            poly = sk.ConvexPolygon(lo + (poly.vertices + 1.0) / 2.0 * span)
            for body in (poly, lattice_polygon(rng, grid)):
                assert np.array_equal(sk.polygon_raster(grid, body).mask, polygon_raster_oracle(grid, body))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cylinder_raster_equals_centers_form(self, seed):
        rng = trial_rng(641, seed)
        grid = random_grid(rng)
        for i in range(8):
            plane = random_plane(rng, grid)
            got = centered_cylinder_raster(trial_rng(seed, i), plane, grid)
            assert np.array_equal(got.mask, cylinder_oracle(trial_rng(seed, i), plane, grid))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_quantized_cone_equals_centers_form(self, seed):
        rng = trial_rng(643, seed)
        grid = random_grid(rng)
        extent = max(u - o for o, u in zip(grid.origin, grid.upper))
        for _ in range(8):
            center, radius, levels = random_point(rng, grid), rng.uniform(0.1, 1.5) * extent, int(rng.integers(1, 8))
            got = quantized_cone(grid, center, radius, levels)
            assert np.array_equal(got.values, cone_oracle(grid, center, radius, levels))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_near_swap_equals_centers_form(self, seed):
        rng = trial_rng(647, seed)
        grid = small_grid(rng, square=bool(seed % 2))
        a = sk.GridSet(grid, rng.random(grid.dims) < 0.5)
        for plane, _ in admissible_planes(grid):
            assert np.array_equal(sk.near_swap(a, plane).mask, near_swap_oracle(a, plane))

    @pytest.mark.parametrize("seed", range(20))
    def test_maps_balls_to_balls_equals_centers_form(self, seed):
        grid = random_grid(trial_rng(653, seed), n=2 + seed % 2)
        grid = sk.Grid(tuple(d + 8 for d in grid.dims), grid.origin, grid.spacing)
        for k in range(grid.n):
            plane = sk.axis_plane(k, grid.n, grid.center[k])
            maps = [sk.canonical_set_map(label, plane) for label in sk.CANONICAL_MAPS]
            maps.append(sk.near_swap_set_map(plane))
            for i, dmap in enumerate(maps):
                got = _maps_balls_to_balls(dmap, plane, _Draw(trial_rng(seed, i), grid))
                assert got == maps_balls_to_balls_oracle(dmap, plane, _Draw(trial_rng(seed, i), grid))

    def test_no_centers_pass(self, monkeypatch):
        def refuse(self):
            raise AssertionError("centers() called")

        grid = sk.centered_grid((6, 5, 4), 0.25)
        monkeypatch.setattr(sk.Grid, "centers", refuse)
        sk.disk_raster(grid, grid.center, 0.5)
        sk.box_raster(grid, (-0.5,) * 3, (0.5,) * 3)
        random_blob_function(trial_rng(619, 0), grid)
        sk.Reflection(grid, sk.axis_plane(2, 3, grid.center[2]))
        square = sk.centered_grid((6, 6), 0.25)
        sk.Reflection(square, next(center_diagonal_planes(square)))
        plane = sk.axis_plane(1, 3, grid.center[1])
        centered_cylinder_raster(trial_rng(619, 1), plane, grid)
        quantized_cone(grid, grid.center, 0.75)
        sk.near_swap(random_blob_set(trial_rng(619, 2), grid), plane)
        _maps_balls_to_balls(sk.near_swap_set_map(plane), plane, _Draw(trial_rng(619, 3), grid))
        sk.polygon_raster(square, sk.ConvexPolygon([[-0.5, -0.5], [0.5, -0.5], [0.0, 0.5]]))


def center_axis_planes(grid):
    """Axis planes through the grid center, either side positive: every mirror stays on the grid."""
    for k in range(grid.n):
        for positive in (1, -1):
            yield sk.axis_plane(k, grid.n, grid.center[k], positive)


def center_diagonal_planes(grid):
    """The two diagonals through the center of a square 2D grid, either side positive."""
    r = np.sqrt(0.5)
    c = grid.center[0] + grid.center[1]
    for positive in (1, -1):
        yield sk.OrientedHyperplane((r, -r), r * (grid.origin[0] - grid.origin[1]), positive)
        yield sk.OrientedHyperplane((r, r), r * c, positive)


def random_values(rng, grid):
    return rng.integers(-3, 4, grid.dims).astype(float)  # ties, between mirror cells too


def min_extension_images(f, plane):
    """Each canonical map applied to f extended by its minimum, restricted to f's grid, by row label.

    The extension lives on a grid three times as wide on every axis, which
    holds the mirror image of every cell of f's grid; the reflected two-point
    map is read literally, as the reflection of the polarization.
    """
    grid, h = f.grid, f.grid.spacing
    wide = sk.Grid(tuple(3 * d for d in grid.dims), tuple(o - d * h for o, d in zip(grid.origin, grid.dims)), h)
    inner = tuple(slice(d, 2 * d) for d in grid.dims)
    values = np.full(wide.dims, f.essinf)
    values[inner] = f.values
    ext = sk.GridFunction(wide, values)
    mirror = sk.reflect_grid_function(ext, plane)
    # on-plane cells are their own mirror, so either side gives them their own value
    plus = plane.signed(wide.centers()).reshape(wide.dims) > 0
    polarized = ext.with_values(np.where(plus, np.maximum(values, mirror.values), np.minimum(values, mirror.values)))
    images = {
        "two_point": polarized,
        "reflection": mirror,
        "identity": ext,
        "two_point_reflected": sk.reflect_grid_function(polarized, plane),
    }
    return {label: sk.GridFunction(grid, image.values[inner]) for label, image in images.items()}


class TestCanonicalMapsAtEveryPlane:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_each_row_is_the_restriction_of_its_map_on_the_extension(self, seed):
        rng = trial_rng(659, seed)
        grid = small_grid(rng, square=seed % 2 == 0)
        f = sk.GridFunction(grid, random_values(rng, grid))
        a = sk.GridSet(grid, rng.random(grid.dims) < 0.4)
        for plane, _ in admissible_planes(grid):
            expect = min_extension_images(f, plane)
            for label, row in sk.CANONICAL_MAPS.items():
                assert row.transformer(plane)(f) == expect[label], (label, grid, plane)
            if np.count_nonzero(plane.normal) == 1:  # canonical set maps take axis planes only
                expect = min_extension_images(a.indicator(), plane)
                for label in sk.CANONICAL_MAPS:
                    image = sk.canonical_set_map(label, plane)(a).indicator()
                    assert image == expect[label], (label, grid, plane, a.mask)

    def test_off_center_dagger_is_the_restriction(self):
        # the plane x = 1 sends cells 2 and 3 off the grid; their mirrors
        # read the minimum of f, as in f's extension by its minimum
        grid = sk.Grid((4,), (0.0,), 1.0)
        f = sk.GridFunction(grid, [5.0, 1.0, 2.0, 3.0])
        plane = sk.axis_plane(0, 1, 1.0, -1)
        out = two_point_reflected(f, plane)
        assert np.array_equal(out.values, [1.0, 5.0, 2.0, 3.0])
        assert out == min_extension_images(f, plane)["two_point_reflected"]
        assert sk.distribution(out) == sk.distribution(f)


class TestOnePlanComposites:
    """At center planes the reflected two-point map is reflection after polarization."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_two_point_reflected_on_axis_planes(self, seed):
        rng = trial_rng(631, seed)
        grid = random_grid(rng)
        f = sk.GridFunction(grid, random_values(rng, grid))
        for plane in center_axis_planes(grid):
            expect = sk.reflect_grid_function(sk.polarize(f, plane), plane)
            assert two_point_reflected(f, plane) == expect

    @pytest.mark.parametrize("seed", SEEDS)
    def test_two_point_reflected_on_diagonal_planes(self, seed):
        rng = trial_rng(641, seed)
        m = int(rng.integers(1, 9))
        o = float(rng.uniform(-2.0, 2.0))
        grid = sk.Grid((m, m), (o, o), float(rng.uniform(0.1, 1.0)))
        f = sk.GridFunction(grid, random_values(rng, grid))
        for plane in center_diagonal_planes(grid):
            expect = sk.reflect_grid_function(sk.polarize(f, plane), plane)
            assert two_point_reflected(f, plane) == expect

    @pytest.mark.parametrize("seed", SEEDS)
    def test_polarization_dagger_on_axis_planes(self, seed):
        rng = trial_rng(643, seed)
        grid = random_grid(rng)
        a = sk.GridSet(grid, rng.random(grid.dims) < 0.4)
        for plane in center_axis_planes(grid):
            expect = sk.reflect_grid_set(sk.polarize_set(a, plane), plane)
            assert sk.canonical_set_map("two_point_reflected", plane)(a) == expect

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
        assert len(built) == 1  # the set map reads the same plane on the same grid

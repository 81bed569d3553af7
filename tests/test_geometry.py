import numpy as np
import pytest
from grid_strategies import admissible_planes

import symmkit as sk
from symmkit.errors import MisalignedHyperplane
from symmkit.geometry import LATTICE_TOL


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def stacked_meshgrid_centers(grid):
    """Cell centers built apart from ``Grid``: the per-axis coordinates put
    on an ``ij`` meshgrid, each raveled and stacked as one column."""
    axes = [o + (np.arange(d) + 0.5) * grid.spacing for o, d in zip(grid.origin, grid.dims)]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


class TestGrid:
    def test_cell_enumeration(self):
        g = sk.Grid((3, 4), (0.0, 0.0), 0.5)
        assert g.num_cells == 12
        assert g.centers().shape == (12, 2)
        assert g.cell_volume == 0.25

    def test_centers_row_major(self):
        g = sk.Grid((2, 2), (0.0, 0.0), 1.0)
        expected = np.array([[0.5, 0.5], [0.5, 1.5], [1.5, 0.5], [1.5, 1.5]])
        assert np.array_equal(g.centers(), expected)

    @pytest.mark.parametrize("seed", range(20))
    def test_centers_equal_the_stacked_meshgrid(self, seed):
        # random 1D-3D grids with random origins and spacings, 1-cell axes included
        rng = np.random.default_rng([59, seed])
        n = int(rng.integers(1, 4))
        dims = tuple(int(d) if rng.random() < 0.8 else 1 for d in rng.integers(1, {1: 40, 2: 12, 3: 7}[n], n))
        g = sk.Grid(dims, tuple(rng.uniform(-5.0, 5.0, n)), float(rng.uniform(0.01, 3.0)))
        got, expect = g.centers(), stacked_meshgrid_centers(g)
        assert got.shape == expect.shape == (g.num_cells, n)
        assert got.dtype == expect.dtype == np.float64
        assert got.flags.c_contiguous
        assert np.array_equal(got, expect), g

    def test_centered_grid_symmetric(self):
        g = sk.centered_grid((8, 8), 0.25)
        assert g.center == (0.0, 0.0)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            sk.Grid((0, 4), (0.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            sk.Grid((2, 2, 2, 2), (0.0,) * 4, 1.0)

    @pytest.mark.parametrize("dims", [(2.5,), (4.0, 4), (np.float64(3.0),)])
    def test_rejects_non_integral_dims(self, dims):
        with pytest.raises(ValueError):
            sk.Grid(dims, (0.0,) * len(dims), 1.0)
        with pytest.raises(ValueError):
            sk.centered_grid(dims, 1.0)

    def test_num_cells_is_exact_beyond_int64(self):
        assert sk.Grid((2**32, 2**32), (0.0, 0.0), 1.0).num_cells == 2**64
        assert sk.Grid((3037000500,) * 2, (0.0, 0.0), 1.0).num_cells == 3037000500**2
        assert sk.Grid((np.int64(3), 4), (0.0, 0.0), 1.0).dims == (3, 4)

    @pytest.mark.parametrize(
        "dims, origin, spacing",
        [
            ((10,), (0.0,), 1e308),  # far corner past the float range
            ((2,), (1.7e308,), 1e307),  # finite spacing, origin near the top of the range
            ((10**400,), (0.0,), 1.0),  # more cells than a float can count
            ((4, 4), (0.0, 0.0), 1e200),  # cell volume 1e400
            ((2, 2, 2), (0.0,) * 3, 1e-120),  # cell volume underflows to 0
        ],
    )
    def test_rejects_box_or_cell_volume_past_floats(self, dims, origin, spacing):
        with pytest.raises(ValueError, match="far corner and cell volume"):
            sk.Grid(dims, origin, spacing)

    def test_accepts_box_and_cell_volume_near_the_float_range(self):
        g = sk.Grid((4, 4), (0.0, 0.0), 2.0**500)
        assert g.upper == (2.0**502, 2.0**502) and g.cell_volume == 2.0**1000


class TestGridFunction:
    def test_rejects_nonfinite(self):
        g = sk.Grid((2,), (0.0,), 1.0)
        with pytest.raises(ValueError):
            sk.GridFunction(g, [np.nan, 1.0])

    def test_essinf_is_minimum(self):
        g = sk.Grid((4,), (0.0,), 1.0)
        f = sk.GridFunction(g, [3.0, -1.0, 2.0, 7.0])
        assert f.essinf == -1.0

    def test_indicator_roundtrip(self):
        g = sk.Grid((3,), (0.0,), 1.0)
        a = sk.GridSet(g, [True, False, True])
        assert sk.set_from_indicator(a.indicator()) == a
        assert a.measure == 2.0


NONFINITE_INPUTS = {
    "grid_origin_nan": (lambda: sk.Grid((2, 2), (np.nan, 0.0), 1.0), ValueError),
    "grid_spacing_nan": (lambda: sk.Grid((2, 2), (0.0, 0.0), np.nan), ValueError),
    "grid_spacing_inf": (lambda: sk.Grid((2, 2), (0.0, 0.0), np.inf), ValueError),
    "plane_normal_nan": (lambda: sk.OrientedHyperplane((np.nan, 1.0)), ValueError),
    "plane_offset_nan": (lambda: sk.OrientedHyperplane((0.0, 1.0), np.nan), ValueError),
    "plane_offset_inf": (lambda: sk.OrientedHyperplane((0.0, 1.0), np.inf), ValueError),
    "contraction_t_nan": (lambda: sk.PLContraction([0.0, np.nan], [0.0, 0.0]), ValueError),
    "contraction_y_nan": (lambda: sk.PLContraction([0.0, 1.0], [0.0, np.nan]), ValueError),
}


@pytest.mark.parametrize("name", sorted(NONFINITE_INPUTS))
def test_rejects_nonfinite_inputs(name):
    build, error = NONFINITE_INPUTS[name]
    with pytest.raises(error):
        build()


SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
# each value type built from a caller's writable array, and the attribute that holds its copy
OWNED_ARRAYS = {
    "grid_function": (lambda a: sk.GridFunction(sk.Grid((3,), (0.0,), 1.0), a), [1.0, 2.0, 3.0], "values"),
    "grid_set": (lambda a: sk.GridSet(sk.Grid((3,), (0.0,), 1.0), a), [True, False, True], "mask"),
    "distribution_profile": (lambda a: sk.DistributionProfile(a, [2, 0], 3, 1.0), [1.0, 2.0], "values"),
    "pl_contraction": (lambda a: sk.PLContraction(a, [0.0, 0.5]), [0.0, 1.0], "ts"),
    "chord_moved_region": (lambda a: sk.ChordMovedRegion((0.0, 1.0), a, [0.0, 0.0], [1.0, 1.0]), [0.0, 1.0], "xs"),
    "convex_polygon": (sk.ConvexPolygon, SQUARE, "vertices"),
}


@pytest.mark.parametrize("name", sorted(OWNED_ARRAYS))
def test_value_types_hold_a_read_only_copy_of_the_callers_array(name):
    build, data, attr = OWNED_ARRAYS[name]
    caller = np.array(data)
    value = build(caller)
    held = getattr(value, attr)
    assert caller.flags.writeable and not held.flags.writeable
    before = held.copy()
    caller[0] = caller[1]
    assert np.array_equal(getattr(value, attr), before)


# (values, counts_above, total_cells) that no grid function has as its profile
BAD_PROFILES = {
    "unsorted_and_nan": ([3.0, 1.0, np.nan], [0, 5, 2], 4),
    "nan_value": ([1.0, np.nan], [1, 0], 2),
    "inf_value": ([1.0, np.inf], [1, 0], 2),
    "repeated_value": ([1.0, 1.0], [1, 0], 2),
    "decreasing_values": ([2.0, 1.0], [1, 0], 2),
    "two_dimensional": ([[1.0, 2.0]], [[1, 0]], 2),
    "counts_too_short": ([1.0, 2.0], [1], 2),
    "counts_rise": ([1.0, 2.0, 3.0], [0, 1, 0], 2),
    "count_above_total": ([1.0, 2.0], [5, 0], 4),
    "negative_count": ([1.0, 2.0], [0, -1], 2),
}


@pytest.mark.parametrize("name", sorted(BAD_PROFILES))
def test_distribution_profile_rejects_what_no_function_has(name):
    values, counts, total = BAD_PROFILES[name]
    with pytest.raises(ValueError, match="profile"):
        sk.DistributionProfile(values, counts, total, 1.0)


def test_distribution_builds_a_valid_profile():
    f = sk.GridFunction(sk.Grid((5,), (0.0,), 1.0), [2.0, -1.0, 2.0, 0.5, -1.0])
    profile = sk.distribution(f)
    again = sk.DistributionProfile(profile.values, profile.counts_above, profile.total_cells, profile.cell_volume)
    assert again == profile
    assert profile.pairs() == [(-1.0, 3.0), (0.5, 2.0), (2.0, 0.0)]
    assert [profile.cells_above(t) for t in (-2.0, -1.0, 1.0, 2.0)] == [5, 3, 2, 0]


class TestShapes:
    def test_grid_function_rejects_transposed_values(self):
        g = sk.Grid((2, 3), (0.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            sk.GridFunction(g, np.zeros((3, 2)))

    def test_grid_set_rejects_flat_mask(self):
        g = sk.Grid((2, 3), (0.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            sk.GridSet(g, np.zeros(6, dtype=bool))


class TestReflectPoint:
    def test_axis_reflection(self):
        plane = sk.OrientedHyperplane((1.0, 0.0), 0.0)
        assert np.allclose(plane.reflect([1.0, 0.0]), [-1.0, 0.0])

    def test_fixed_points_on_plane(self):
        plane = sk.OrientedHyperplane(unit([1.0, 1.0]), 0.0)
        x = np.array([1.0, -1.0])
        assert np.allclose(plane.reflect(x), x)

    def test_affine_offset(self):
        plane = sk.OrientedHyperplane((0.0, 1.0), 1.0)
        assert np.allclose(plane.reflect([3.0, 2.0]), [3.0, 0.0])

    def test_involution(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = unit(rng.normal(size=2))
            plane = sk.OrientedHyperplane(n, float(rng.normal()))
            x = rng.normal(size=2)
            assert np.abs(plane.reflect(plane.reflect(x)) - x).max() < 1e-12

    def test_isometry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            plane = sk.OrientedHyperplane(unit(rng.normal(size=3)), float(rng.normal()))
            x, y = rng.normal(size=3), rng.normal(size=3)
            dx = np.linalg.norm(plane.reflect(x) - plane.reflect(y))
            assert abs(dx - np.linalg.norm(x - y)) < 1e-12

    def test_rejects_non_unit_normal(self):
        with pytest.raises(ValueError):
            sk.OrientedHyperplane((1.0, 1.0), 0.0)

    @pytest.mark.parametrize(
        "positive", [1.5, -1.9, 1.0, -1.0, np.float64(1.0), 0, 2, -2, "1", "+1", None, [1]], ids=repr
    )
    def test_rejects_positive_other_than_a_sign(self, positive):
        with pytest.raises(ValueError, match="positive must be"):
            sk.OrientedHyperplane((1.0, 0.0), 0.0, positive)

    @pytest.mark.parametrize(
        "positive, sign", [(1, 1), (-1, -1), ("+", 1), ("-", -1), (np.int64(-1), -1)]
    )
    def test_positive_accepts_signs_and_integral_units(self, positive, sign):
        plane = sk.OrientedHyperplane((1.0, 0.0), 0.0, positive)
        assert plane.positive == sign and type(plane.positive) is int


class TestHalfSpaces:
    def test_half_spaces_cover_and_meet_on_plane(self):
        g = sk.centered_grid((8, 8), 0.5)
        plane = sk.axis_plane(0, 2, 0.0, 1)
        plus = sk.Reflection(g, plane).hplus
        minus = sk.Reflection(g, sk.axis_plane(0, 2, 0.0, -1)).hplus
        assert np.all(plus | minus)
        on_plane = np.abs(plane.signed(g.centers())).reshape(g.dims) == 0.0
        assert np.array_equal(plus & minus, on_plane)

    def test_reflection_plan_hplus_matches_signed_distance(self):
        # off the plane H+ is the sign of the signed distance; the cells on it
        # are in both half-spaces, though a diagonal plane's signed distance
        # leaves some of them at -1 ulp
        rng = np.random.default_rng(20)
        grids = [sk.centered_grid((6, 6), 0.5), sk.centered_grid((8, 8), 0.5), sk.centered_grid((32, 32), 0.125)]
        for _ in range(12):
            n = int(rng.integers(2, 4))
            dims = (int(rng.integers(2, {2: 13, 3: 7}[n])),) * n
            grids.append(sk.Grid(dims, rng.uniform(-2.0, 2.0, n), float(rng.choice([0.1, 0.125, 0.3, 0.5, 1.0]))))
        for g in grids:
            for plane, on_plane in admissible_planes(g):
                expect = (plane.signed(g.centers()) > 0.0).reshape(g.dims) | on_plane
                assert np.array_equal(sk.Reflection(g, plane).hplus, expect), (g, plane)


def plan_oracle(grid, plane):
    """``Reflection``'s (inside, flat, hplus) as built before its bounds test
    ANDed the index columns, its gather clipped inside the ravel and its
    centers filled per axis: with ``np.all`` over the column axis, a separate
    ``np.clip`` and the stacked-meshgrid centers."""
    centers = stacked_meshgrid_centers(grid)
    idx = np.rint((plane.reflect(centers) - np.asarray(grid.origin)) / grid.spacing - 0.5).astype(np.int64)
    dims = np.asarray(grid.dims)
    inside = np.all((idx >= 0) & (idx < dims), axis=1)
    flat = np.ravel_multi_index(tuple(np.clip(idx, 0, dims - 1).T), grid.dims)
    hplus = (plane.signed(centers) >= -LATTICE_TOL * grid.spacing).reshape(grid.dims)
    return inside, flat, hplus


def oracle_grid(rng):
    """A random 1D-3D grid, square half of the time so that it gets diagonal planes."""
    n = int(rng.integers(1, 4))
    m = rng.integers(1, {1: 12, 2: 9, 3: 6}[n], n)
    dims = (int(m[0]),) * n if rng.random() < 0.5 else tuple(int(d) for d in m)
    return sk.Grid(dims, tuple(rng.uniform(-3.0, 3.0, n)), float(rng.uniform(0.05, 2.0)))


class TestReflectionPlanOracle:
    @pytest.mark.parametrize("seed", range(30))
    def test_plan_and_its_reads_equal_the_oracle(self, seed):
        # every axis plane, the edge ones included, whose mirrors all leave
        # the grid, and off-center ones, whose mirrors leave it in part
        rng = np.random.default_rng([53, seed])
        grid = oracle_grid(rng)
        dims = grid.dims
        values = rng.integers(-3, 4, dims).astype(float)  # ties, between mirror cells too
        fill = float(values.min())
        for plane, _ in admissible_planes(grid):
            plan = sk.Reflection(grid, plane)
            inside, flat, hplus = plan_oracle(grid, plane)
            assert np.array_equal(plan.inside, inside), (grid, plane)
            assert np.array_equal(plan.flat, flat), (grid, plane)
            assert np.array_equal(plan.hplus, hplus), (grid, plane)
            mirrored = np.where(inside, values.ravel()[flat], fill).reshape(dims)
            assert np.array_equal(plan.mirror(values, fill), mirrored), (grid, plane)
            for fplus, fminus in ((np.maximum, np.minimum), (np.minimum, np.maximum)):
                expect = np.where(hplus, fplus(values, mirrored), fminus(values, mirrored))
                assert np.array_equal(plan.two_point(values, fill, fplus, fminus), expect), (grid, plane)

    @pytest.mark.parametrize("seed", range(30))
    def test_misaligned_planes_raise(self, seed):
        # the lattice test runs axis by axis, so each axis gets a plane a
        # quarter cell off the half-lattice; the oblique plane through the
        # grid's corner moves the center of cell 0 by 0.84 and 1.12 cells
        grid = oracle_grid(np.random.default_rng([53, seed]))
        o, h, n = grid.origin, grid.spacing, grid.n
        planes = [sk.axis_plane(k, n, o[k] + (grid.dims[k] // 2 + 0.25) * h, s) for k in range(n) for s in (1, -1)]
        if n > 1:
            normal = (0.6, 0.8, 0.0)[:n]
            planes += [sk.OrientedHyperplane(normal, 0.6 * o[0] + 0.8 * o[1], s) for s in (1, -1)]
        for plane in planes:
            with pytest.raises(MisalignedHyperplane, match="does not preserve"):
                sk.Reflection(grid, plane)


class TestPlaneKeepsItsPlan:
    def test_plan_arrays_are_read_only(self):
        # every map across a plane shares its plan, so no reader may write it
        plan = sk.axis_plane(0, 2, 0.25, -1).reflection(sk.centered_grid((6, 4), 0.25))
        for arr in (plan.inside, plan.flat, plan.hplus):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]

    def test_a_plan_per_grid_switch(self, monkeypatch):
        # the plane keeps the last grid's plan: reading A, B, then A again
        # builds three, and a plan already handed out stays that of its grid
        built = []
        init = sk.Reflection.__init__

        def counted(self, grid, plane):
            built.append(grid)
            init(self, grid, plane)

        grid_a = sk.centered_grid((6, 6), 0.25)
        grid_b = sk.Grid((6, 6), (-0.75, -0.5), 0.25)
        plane = sk.axis_plane(0, 2, 0.0, 1)
        fresh = {g: sk.Reflection(g, plane) for g in (grid_a, grid_b)}
        monkeypatch.setattr(sk.Reflection, "__init__", counted)
        plans = []
        for grid, builds in ((grid_a, 1), (grid_a, 1), (grid_b, 2), (grid_a, 3)):
            plans.append(plane.reflection(grid))
            assert len(built) == builds
        for plan, grid in zip(plans, (grid_a, grid_a, grid_b, grid_a)):
            assert plan.grid == grid
            for name in ("inside", "flat", "hplus"):
                assert np.array_equal(getattr(plan, name), getattr(fresh[grid], name)), (grid, name)

    def test_plan_is_not_part_of_the_plane_value(self):
        plane = sk.axis_plane(1, 2, 0.0, 1)
        plane.reflection(sk.centered_grid((4, 4), 0.5))
        assert plane == sk.axis_plane(1, 2, 0.0, 1)
        assert hash(plane) == hash(sk.axis_plane(1, 2, 0.0, 1))
        assert repr(plane) == repr(sk.axis_plane(1, 2, 0.0, 1))


class TestReflectGridFunction:
    def test_symmetric_fixed_point(self):
        g = sk.centered_grid((8,), 0.25)
        vals = np.array([1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0])
        f = sk.GridFunction(g, vals)
        plane = sk.axis_plane(0, 1, 0.0, 1)
        assert sk.reflect_grid_function(f, plane) == f

    def test_constant_invariant(self):
        g = sk.centered_grid((6, 6), 0.5)
        f = sk.GridFunction(g, np.full((6, 6), 3.0))
        assert sk.reflect_grid_function(f, sk.axis_plane(1, 2, 0.0, 1)) == f

    def test_pointwise_evaluation(self):
        # block on [-1,-0.5] maps to [0.5,1]
        g = sk.Grid((8,), (-1.0,), 0.25)
        f = sk.GridFunction(g, (np.arange(8) < 2).astype(float))
        out = sk.reflect_grid_function(f, sk.axis_plane(0, 1, 0.0, 1))
        assert np.array_equal(out.values, (np.arange(8) >= 6).astype(float))

    def test_misaligned_offset_raises(self):
        g = sk.Grid((8,), (-1.0,), 0.25)
        f = sk.GridFunction(g, np.arange(8.0))
        with pytest.raises(MisalignedHyperplane):
            sk.reflect_grid_function(f, sk.axis_plane(0, 1, 0.1, 1))

    @pytest.mark.parametrize("offset", [1e300, 1e308])
    @pytest.mark.parametrize("dims", [(4,), (4, 3)])
    def test_far_plane_raises_without_a_warning(self, dims, offset):
        # from 1e300 on the mirror index is a float past 2**52, an integer
        # whatever it is, or at 1e308 inf and, times a zero normal entry, NaN
        g = sk.centered_grid(dims, 0.25)
        f = sk.GridFunction(g, np.arange(float(g.num_cells)).reshape(dims))
        with pytest.raises(MisalignedHyperplane, match="range of the lattice test"):
            sk.reflect_grid_function(f, sk.axis_plane(0, len(dims), offset, 1))

    @pytest.mark.parametrize("grid_n, plane_n", [(g, p) for g in (1, 2, 3) for p in (1, 2, 3) if g != p])
    def test_plane_of_another_dimension_raises(self, grid_n, plane_n):
        g = sk.centered_grid((4,) * grid_n, 0.5)
        f = sk.GridFunction(g, np.arange(float(g.num_cells)).reshape(g.dims))
        a = sk.GridSet(g, f.values > 3.0)
        plane = sk.axis_plane(0, plane_n)
        calls = (
            lambda: sk.Reflection(g, plane),
            lambda: sk.reflect_grid_function(f, plane),
            lambda: sk.reflect_grid_set(a, plane),
            lambda: sk.polarize(f, plane),
            lambda: sk.polarize_set(a, plane),
        )
        for call in calls:
            with pytest.raises(ValueError, match=f"dimension {plane_n} .*dimension {grid_n}"):
                call()

    def test_half_lattice_offsets_are_admissible(self):
        g = sk.Grid((8,), (-1.0,), 0.25)
        f = sk.GridFunction(g, np.arange(8.0))
        for j in range(1, 16):
            plane = sk.axis_plane(0, 1, -1.0 + j * 0.125, 1)
            sk.reflect_grid_function(f, plane)  # must not raise

    def test_diagonal_reflection_on_square_grid(self):
        g = sk.centered_grid((6, 6), 0.5)
        plane = sk.OrientedHyperplane(unit([1.0, -1.0]), 0.0)
        f = sk.GridFunction(g, np.arange(36.0).reshape(6, 6))
        out = sk.reflect_grid_function(f, plane)
        # this reflection swaps the two coordinates
        assert np.array_equal(out.values, f.values.T)

    def test_out_of_grid_reads_essinf(self):
        g = sk.Grid((4,), (0.0,), 1.0)
        f = sk.GridFunction(g, [5.0, 1.0, 2.0, 3.0])
        # reflection about x = 1: cells 3+ reflect outside
        out = sk.reflect_grid_function(f, sk.axis_plane(0, 1, 1.0, 1))
        assert np.array_equal(out.values, [1.0, 5.0, 1.0, 1.0])


class TestDistribution:
    def test_constant(self):
        g = sk.Grid((5,), (0.0,), 1.0)
        d = sk.distribution(sk.GridFunction(g, np.full(5, 2.5)))
        assert d.pairs() == [(2.5, 0.0)]

    def test_indicator_levels(self):
        g = sk.Grid((10,), (0.0,), 1.0)
        a = sk.GridSet(g, np.arange(10) < 3)
        d = sk.distribution(a.indicator())
        assert d.pairs() == [(0.0, 3.0), (1.0, 0.0)]

    def test_three_levels_brute_force(self):
        g = sk.Grid((10,), (0.0,), 1.0)
        vals = np.array([0.0] * 6 + [1.0] * 3 + [2.0])
        d = sk.distribution(sk.GridFunction(g, vals))
        assert d.pairs() == [(0.0, 4.0), (1.0, 1.0), (2.0, 0.0)]
        # brute-force cross-check at arbitrary thresholds
        for t in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
            assert d.cells_above(t) == int(np.sum(vals > t))

    def test_measures_non_increasing(self):
        rng = np.random.default_rng(2)
        g = sk.centered_grid((16, 16), 0.25)
        f = sk.GridFunction(g, rng.integers(0, 6, g.dims).astype(float))
        d = sk.distribution(f)
        assert np.all(np.diff(d.counts_above) <= 0)
        assert d.cells_above(f.values.min() - 1.0) == g.num_cells

    def test_invariant_under_reflection(self):
        rng = np.random.default_rng(3)
        g = sk.centered_grid((12, 12), 0.25)
        plane = sk.axis_plane(1, 2, 0.0, 1)
        for _ in range(20):
            f = sk.GridFunction(g, rng.integers(0, 8, g.dims).astype(float))
            assert sk.distribution(f) == sk.distribution(sk.reflect_grid_function(f, plane))


class TestRasters:
    def test_disk_raster_count_symmetry(self):
        g = sk.centered_grid((16, 16), 0.25)
        a = sk.disk_raster(g, (0.0, 0.0), 1.0)
        assert a.cell_count > 0
        assert np.array_equal(a.mask, a.mask[::-1, :])
        assert np.array_equal(a.mask, a.mask[:, ::-1])

    def test_box_raster(self):
        g = sk.Grid((4, 4), (0.0, 0.0), 1.0)
        a = sk.box_raster(g, (0.0, 0.0), (2.0, 2.0))
        assert a.cell_count == 4

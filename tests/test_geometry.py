import numpy as np
import pytest

import symmkit as sk
from symmkit.errors import MisalignedHyperplane, NonMonotoneMap


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


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
    "monotone_t_nan": (lambda: sk.MonotonePL([0.0, np.nan], [0.0, 0.0]), NonMonotoneMap),
    "monotone_y_nan": (lambda: sk.MonotonePL([0.0, 1.0], [0.0, np.nan]), NonMonotoneMap),
}


@pytest.mark.parametrize("name", sorted(NONFINITE_INPUTS))
def test_rejects_nonfinite_inputs(name):
    build, error = NONFINITE_INPUTS[name]
    with pytest.raises(error):
        build()


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


class TestHalfSpaces:
    def test_half_spaces_cover_and_meet_on_plane(self):
        g = sk.centered_grid((8, 8), 0.5)
        plane = sk.axis_plane(0, 2, 0.0, 1)
        plus = sk.plus_mask(g, plane)
        minus = sk.plus_mask(g, sk.axis_plane(0, 2, 0.0, -1))
        assert np.all(plus | minus)
        on_plane = np.abs(plane.signed(g.centers())).reshape(g.dims) == 0.0
        assert np.array_equal(plus & minus, on_plane)

    def test_reflection_plan_hplus_matches_plus_mask(self):
        g = sk.centered_grid((6, 6), 0.5)
        planes = [sk.axis_plane(k, 2, j * 0.25, s) for k in (0, 1) for j in (-3, 0, 2) for s in (1, -1)]
        planes.append(sk.OrientedHyperplane(unit([1.0, -1.0]), 0.0, -1))
        for plane in planes:
            assert np.array_equal(sk.Reflection(g, plane).hplus, sk.plus_mask(g, plane))


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

import math
from fractions import Fraction

import numpy as np
import pytest
from chord_oracle import chords_at, cog_reflect_mask

import symmkit as sk
from symmkit.errors import EmptySet, NonConvexColumn, OffGrid
from symmkit.harness import (
    _hull_polygon,
    _nested_pair,
    _sample,
    random_convex_polygon,
    random_convex_raster,
    random_symmetric_polygon,
    trial_rng,
    two_disk_symmetric_set,
)

U = np.array([0.0, 1.0])
GRID = sk.centered_grid((32, 32), 0.125)
PLANE = sk.axis_plane(1, 2, 0.0, 1)


def wedge(t0=2.0, r0=0.5):
    return sk.ConvexPolygon(
        [[t0 - r0, 0.0], [t0 + r0, 0.0], [t0 + r0, 2 * (t0 + r0)], [t0 - r0, 2 * (t0 - r0)]]
    )


def random_unit_slope_contraction(rng, half_width=8.0):
    ts = np.sort(rng.uniform(-half_width, half_width, 5))
    ts = np.concatenate([[-half_width - 1], ts, [half_width + 1]])
    ts = ts[np.concatenate([[True], np.diff(ts) > 1e-6])]
    slopes = rng.choice([-1.0, 1.0], size=len(ts) - 1)
    ys = np.concatenate([[0.0], np.cumsum(slopes * np.diff(ts))])
    return sk.PLContraction(ts, ys)


def random_contraction(rng, half_width=8.0):
    ts = np.sort(rng.uniform(-half_width, half_width, 6))
    ts = np.concatenate([[-half_width - 1], ts, [half_width + 1]])
    ts = ts[np.concatenate([[True], np.diff(ts) > 1e-6])]
    slopes = rng.uniform(-1.0, 1.0, size=len(ts) - 1)
    ys = np.concatenate([[0.0], np.cumsum(slopes * np.diff(ts))])
    return sk.PLContraction(ts, ys)


class TestChordMovePolygon:
    def test_identity_keeps_polygon(self):
        rng = trial_rng(51, 0)
        for _ in range(10):
            poly = random_convex_polygon(rng)
            region = sk.chord_move_polygon(poly, sk.canonical_contraction("id"), U)
            lo, hi, ok = chords_at(poly, U, region.xs)
            assert ok.all()
            assert np.abs(region.lower - lo).max() < 1e-12
            assert np.abs(region.upper - hi).max() < 1e-12

    def test_translate_law_symmetric_bodies(self):
        rng = trial_rng(53, 0)
        phi = sk.sawtooth_contraction(1.0, 16.0)
        for i in range(10):
            poly = random_symmetric_polygon(rng, U, box=2.0, min_area=0.4)
            for t in np.linspace(-2.0, 2.0, 9):
                region = sk.chord_move_polygon(poly.translate(t * U), phi, U)
                lo, hi, ok = chords_at(poly, U, region.xs)
                shift = phi(t)
                assert np.abs(region.lower - (lo + shift)).max() < 1e-9
                assert np.abs(region.upper - (hi + shift)).max() < 1e-9

    def test_wedge_positive_midpoints_fixed_by_abs(self):
        region_id = sk.chord_move_polygon(wedge(), sk.canonical_contraction("id", 8.0), U)
        region_abs = sk.chord_move_polygon(wedge(), sk.canonical_contraction("abs", 8.0), U)
        assert np.array_equal(region_id.lower, region_abs.lower)
        assert np.array_equal(region_id.upper, region_abs.upper)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            sk.ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-15]])

    def test_area_preserved(self):
        rng = trial_rng(59, 0)
        for i in range(50):
            poly = random_convex_polygon(rng)
            phi = random_contraction(rng)
            region = sk.chord_move_polygon(poly, phi, U)
            assert abs(region.area() - poly.area()) < 1e-12 * max(1.0, poly.area())

    def test_respects_cylinder_footprint(self):
        rng = trial_rng(61, 0)
        for i in range(20):
            poly = random_convex_polygon(rng)
            phi = random_contraction(rng)
            region = sk.chord_move_polygon(poly, phi, U)
            w = np.array([1.0, 0.0])
            xs_v = poly.vertices @ w
            assert region.omega == (float(xs_v.min()), float(xs_v.max()))

    def test_chord_lengths_preserved(self):
        rng = trial_rng(67, 0)
        for i in range(20):
            poly = random_convex_polygon(rng)
            phi = random_contraction(rng)
            region = sk.chord_move_polygon(poly, phi, U)
            lo, hi, ok = chords_at(poly, U, region.xs)
            assert np.abs((region.upper - region.lower) - (hi - lo)).max() < 1e-12


class TestChordQuery:
    @pytest.mark.parametrize(
        "vertices, off",
        [([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], 5.0), ([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]], 2.5)],
        ids=["square", "triangle"],
    )
    def test_region_and_polygon_queries_share_one_contract(self, vertices, off):
        # None off [xs[0], xs[-1]], for the moved region as for the polygon
        poly = sk.ConvexPolygon(vertices)
        region = sk.chord_move_polygon(poly, sk.canonical_contraction("id"), U)
        assert region.chord(off) is None
        assert sk.boundary_graphs(poly, U).chord(off) is None
        for x in [-off, *np.linspace(-0.5, 2.5, 13), np.nan]:
            moved, read = region.chord(x), sk.boundary_graphs(poly, U).chord(x)
            assert (moved is None) == (read is None) == (not region.omega[0] <= x <= region.omega[1])
            if read is not None:
                assert np.allclose(moved, read, rtol=0.0, atol=1e-12)


# the triangle's area is 1.5; u = (0, 0.5) used to give a region of area
# 0.75, and the others failed deep inside with unrelated messages
TRIANGLE = sk.ConvexPolygon([[0.0, 0.0], [2.0, 0.0], [1.0, 1.5]])
NOT_UNIT = [(0.0, 0.5), (0.0, 2.0), (0.0, 1.000000001), (np.nan, 1.0), (np.inf, 0.0), (0.0, 1.0, 0.0), (1.0,)]


class TestChordDirection:
    @pytest.mark.parametrize("u", NOT_UNIT, ids=str)
    def test_chord_move_polygon_rejects_a_non_unit_direction(self, u):
        with pytest.raises(ValueError, match="chord direction"):
            sk.chord_move_polygon(TRIANGLE, sk.canonical_contraction("abs", 8.0), u)

    @pytest.mark.parametrize("u", NOT_UNIT, ids=str)
    def test_union_of_translates_rejects_a_non_unit_direction(self, u):
        with pytest.raises(ValueError, match="chord direction"):
            sk.union_of_translates(TRIANGLE, sk.canonical_contraction("abs", 8.0), u, samples=10)

    @pytest.mark.parametrize("u", [(0.0, 1.0 + 1e-13), (np.sqrt(0.5), np.sqrt(0.5)), [-1, 0]], ids=str)
    def test_unit_direction_within_tolerance_accepted(self, u):
        region = sk.chord_move_polygon(TRIANGLE, sk.canonical_contraction("abs", 8.0), u)
        assert abs(region.area() - TRIANGLE.area()) < 1e-12


class TestCanonicalCorrespondence:
    def expected(self, poly, name, xs):
        lo, hi, _ = chords_at(poly, U, xs)
        t = (lo + hi) / 2.0
        keep = t >= 0
        if name == "id":
            return lo, hi
        if name == "neg":
            return -hi, -lo
        if name == "abs":
            return np.where(keep, lo, -hi), np.where(keep, hi, -lo)
        return np.where(keep, -hi, lo), np.where(keep, -lo, hi)

    @pytest.mark.parametrize("name", ["id", "neg", "abs", "negabs"])
    def test_matches_named_map(self, name):
        rng = trial_rng(71, 0)
        for i in range(50):
            poly = random_convex_polygon(rng)
            region = sk.chord_move_polygon(poly, sk.canonical_contraction(name, 8.0), U)
            elo, ehi = self.expected(poly, name, region.xs)
            assert np.abs(region.lower - elo).max() < 1e-9
            assert np.abs(region.upper - ehi).max() < 1e-9

    def test_sawtooth_differs_from_all_four(self):
        # ball-like symmetric body centered at 0.75 u: the four named maps
        # send the center to +-0.75, the sawtooth to 0.25
        rng = trial_rng(73, 0)
        poly = random_symmetric_polygon(rng, U, box=2.0, min_area=0.4).translate(0.75 * U)
        saw = sk.chord_move_polygon(poly, sk.sawtooth_contraction(1.0, 8.0), U)
        for name in ("id", "neg", "abs", "negabs"):
            named = sk.chord_move_polygon(poly, sk.canonical_contraction(name, 8.0), U)
            assert sk.chordwise_distance(saw, named) > 0.4
        mid = (saw.lower + saw.upper) / 2.0
        assert np.abs(mid - 0.25).max() < 1e-9


class TestPerimeter:
    def test_unit_square(self):
        region = sk.ChordMovedRegion((0.0, 1.0), [0.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        assert sk.perimeter_region(region) == 4.0

    def test_wedge_exact(self):
        t0, r0 = 2.0, 0.5
        region = sk.chord_move_polygon(wedge(t0, r0), sk.canonical_contraction("id"), U)
        expect = np.sqrt(5.0) * 2 * r0 + 2 * r0 + 2 * (t0 - r0) + 2 * (t0 + r0)
        assert abs(sk.perimeter_region(region) - expect) < 1e-12

    def test_wedge_half_slope_graph_lengths(self):
        t0, r0 = 2.0, 0.5
        half = sk.PLContraction([-8.0, 8.0], [-4.0, 4.0])
        region = sk.chord_move_polygon(wedge(t0, r0), half, U)
        up, lo = sk.graph_lengths(region)
        expect = (np.sqrt(3.25) + np.sqrt(1.25)) * 2 * r0
        assert abs((up + lo) - expect) < 1e-9
        region_id = sk.chord_move_polygon(wedge(t0, r0), sk.canonical_contraction("id"), U)
        up0, lo0 = sk.graph_lengths(region_id)
        assert abs((up0 + lo0) - (np.sqrt(5.0) + 1.0) * 2 * r0) < 1e-9

    def test_polygon_perimeter_recovered(self):
        rng = trial_rng(79, 0)
        for i in range(20):
            poly = random_convex_polygon(rng)
            region = sk.chord_move_polygon(poly, sk.canonical_contraction("id"), U)
            assert abs(sk.perimeter_region(region) - poly.perimeter()) < 1e-12

    def test_eikonal_preserves_perimeter(self):
        rng = trial_rng(83, 0)
        for i in range(50):
            poly = random_convex_polygon(rng)
            phi = random_unit_slope_contraction(rng)
            region = sk.chord_move_polygon(poly, phi, U)
            assert abs(sk.perimeter_region(region) - poly.perimeter()) < 1e-9

    def test_sub_unit_slope_shrinks_graphs(self):
        rng = trial_rng(89, 0)
        for i in range(20):
            poly = random_convex_polygon(rng)
            slope = rng.uniform(0.0, 0.95)
            phi = sk.PLContraction([-16.0, 16.0], [-16.0 * slope, 16.0 * slope])
            region = sk.chord_move_polygon(poly, phi, U)
            base = sk.chord_move_polygon(poly, sk.canonical_contraction("id"), U)
            up, lo = sk.graph_lengths(region)
            up0, lo0 = sk.graph_lengths(base)
            assert up + lo < up0 + lo0 + 1e-12


class TestConvexityAffine:
    def test_affine_preserves_convexity(self):
        rng = trial_rng(97, 0)
        for i in range(10):
            poly = random_convex_polygon(rng)
            alpha = rng.uniform(-1.0, 1.0)
            beta = rng.uniform(-1.0, 1.0)
            phi = sk.PLContraction([-16.0, 16.0], [beta - 16 * alpha, beta + 16 * alpha])
            region = sk.chord_move_polygon(poly, phi, U)
            assert sk.region_is_convex(region)

    def test_kinked_contraction_breaks_convexity(self):
        # fixture whose midpoint line crosses the abs kink with full range
        poly = sk.ConvexPolygon([[-2.0, -2.5], [2.0, 1.5], [2.0, 2.5], [-2.0, -1.5]])
        region = sk.chord_move_polygon(poly, sk.canonical_contraction("abs", 8.0), U)
        assert not sk.region_is_convex(region)


class TestUnionOracle:
    @pytest.mark.parametrize("phi_name", ["abs", "sawtooth"])
    def test_matches_chord_move(self, phi_name):
        rng = trial_rng(101, 0)
        phi = (
            sk.canonical_contraction("abs", 8.0)
            if phi_name == "abs"
            else sk.sawtooth_contraction(1.0, 8.0)
        )
        for i in range(3):
            poly = _hull_polygon(lambda: rng.uniform(-2.0, 2.0, size=(3, 2)), 0.5)
            region = sk.chord_move_polygon(poly, phi, U)
            approx = sk.union_of_translates(poly, phi, U, samples=4000)
            lo, hi, _ = chords_at(poly, U, np.unique(poly.vertices @ np.array([1.0, 0.0])))
            mids = (lo + hi) / 2.0
            bound = 2.0 * float(mids.max() - mids.min()) / 4000
            assert sk.chordwise_distance(approx, region) <= bound

    def test_identity_union_inside_polygon(self):
        rng = trial_rng(103, 0)
        poly = random_convex_polygon(rng)
        approx = sk.union_of_translates(poly, sk.canonical_contraction("id", 8.0), U, samples=800)
        lo, hi, ok = chords_at(poly, U, approx.xs)
        assert ok.all()
        assert np.all(approx.lower >= lo - 1e-9)
        assert np.all(approx.upper <= hi + 1e-9)


class TestGridChordMove:
    def grid_with_integer_centers(self, m=24, h=0.5):
        return sk.Grid((m,), (-h / 2 - (m // 2 - 1) * h,), h)

    def test_identity(self):
        rng = trial_rng(107, 0)
        raster, _ = random_convex_raster(rng, GRID)
        assert sk.chord_move_gridset(raster, sk.canonical_contraction("id", 8.0), 1) == raster

    def test_neg_is_columnwise_reflection(self):
        rng = trial_rng(109, 0)
        raster, _ = random_convex_raster(rng, GRID)
        out = sk.chord_move_gridset(raster, sk.canonical_contraction("neg", 8.0), 1)
        assert out == sk.reflect_grid_set(raster, PLANE)

    def test_run_arithmetic_oracle(self):
        g = self.grid_with_integer_centers()
        h = g.spacing
        base = 11  # index of the cell centered at 0
        assert g.axis_centers(0)[base] == 0.0
        phi = sk.canonical_contraction("abs", 20.0)
        mask = np.zeros(24, dtype=bool)
        mask[base + 4 : base + 10] = True  # run at 4h..9h, midpoint 6.5h
        a = sk.GridSet(g, mask)
        assert sk.chord_move_gridset(a, phi, 0) == a
        mask2 = np.zeros(24, dtype=bool)
        mask2[base - 9 : base - 3] = True  # run at -9h..-4h
        out = sk.chord_move_gridset(sk.GridSet(g, mask2), phi, 0)
        assert out == a

    def test_nonconvex_column_rejected(self):
        mask = np.zeros(GRID.dims, dtype=bool)
        mask[4, [3, 7]] = True
        with pytest.raises(NonConvexColumn):
            sk.chord_move_gridset(sk.GridSet(GRID, mask), sk.canonical_contraction("id"), 1)

    def test_run_pushed_past_edge_raises(self):
        g = sk.Grid((1, 16), (0.0, 0.0), 1.0)
        mask = np.zeros(g.dims, dtype=bool)
        mask[0, 4:16] = True  # a 12-cell run touching the upper edge
        a = sk.GridSet(g, mask)
        shift = lambda d: sk.PLContraction([0.0, 1.0], [d, 1.0 + d])
        with pytest.raises(OffGrid):
            sk.chord_move_gridset(a, shift(3.0), 1)
        down = sk.chord_move_gridset(a, shift(-4.0), 1)  # lands exactly on the lower edge
        assert np.array_equal(down.mask[0], np.arange(16) < 12)

    def test_empty_set_passes_through(self):
        empty = sk.GridSet(GRID, np.zeros(GRID.dims, dtype=bool))
        assert sk.chord_move_gridset(empty, sk.canonical_contraction("abs"), 1) == empty

    def test_run_lengths_preserved(self):
        rng = trial_rng(113, 0)
        phi = random_contraction(rng, half_width=1.0)
        raster, _ = random_convex_raster(rng, GRID)
        out = sk.chord_move_gridset(raster, phi, 1)
        assert np.array_equal(out.mask.sum(axis=1), raster.mask.sum(axis=1))


class TestShake:
    def test_positive_side_untouched(self):
        a = sk.disk_raster(GRID, (0.0, 1.0), 0.6)
        assert sk.shake_set(a, PLANE) == a

    def test_column_count_oracle(self):
        g = self.grid = sk.Grid((24,), (-0.25 - 11 * 0.5,), 0.5)
        c = g.axis_centers(0)
        base = 11
        mask = np.zeros(24, dtype=bool)
        mask[base - 5] = True
        mask[base - 2] = True
        out = sk.shake_set(sk.GridSet(g, mask), sk.axis_plane(0, 1, 0.0, 1))
        assert sorted(c[out.mask].tolist()) == [-1.0, -0.5]

    def test_plane_of_another_dimension_rejected(self):
        a = sk.disk_raster(GRID, (0.0, 1.0), 0.6)
        with pytest.raises(ValueError, match="dimension 3 cannot reflect a grid in dimension 2"):
            sk.shake_set(a, sk.axis_plane(2, 3))

    def test_composite_equals_two_point_on_convex(self):
        comp = sk.blaschke_composite_set_map(PLANE)
        for i in range(20):
            raster, _ = random_convex_raster(trial_rng(127, i), GRID)
            assert comp(raster) == sk.polarize_set(raster, PLANE)

    def test_composite_differs_on_two_disk_union(self):
        comp = sk.blaschke_composite_set_map(PLANE)
        union = two_disk_symmetric_set(GRID, PLANE, 0.75, 0.35)
        assert sk.polarize_set(union, PLANE) == union
        assert comp(union) != union


class TestCogReflect:
    def test_symmetric_set_fixed(self):
        a = sk.disk_raster(GRID, (0.25, 0.75), 0.6)
        assert sk.cog_reflect(a, 1) == a  # disks are symmetric about their own center

    def test_single_run_fixed(self):
        g = sk.Grid((12,), (0.0,), 1.0)
        mask = np.zeros(12, dtype=bool)
        mask[3:7] = True
        a = sk.GridSet(g, mask)
        assert sk.cog_reflect(a, 0) == a

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            sk.cog_reflect(sk.GridSet(GRID, np.zeros(GRID.dims, dtype=bool)), 1)

    @pytest.mark.parametrize("u_axis", [2, 5, -1])
    def test_axis_outside_grid_rejected(self, u_axis):
        # -1 would otherwise reflect along the last axis without a word
        a = sk.disk_raster(GRID, (0.25, 0.75), 0.6)
        with pytest.raises(ValueError, match=f"axis {u_axis} is outside 0..1"):
            sk.cog_reflect(a, u_axis)

    def test_cell_reflected_past_edge_raises(self):
        # a 4x4 block at the top edge plus one far cell: the far cell's mirror
        # in the plane through the center of gravity lies past the edge
        mask = np.zeros(GRID.dims, dtype=bool)
        mask[10:14, 28:32] = True
        mask[12, 0] = True
        with pytest.raises(OffGrid):
            sk.cog_reflect(sk.GridSet(GRID, mask), 1)

    @pytest.mark.parametrize("grid", [sk.Grid((11,), (0.3,), 0.1), sk.centered_grid((11,), 0.1)])
    def test_every_subset_reflects_in_the_nearest_half_lattice_plane(self, grid):
        # on a grid with non-dyadic coordinates: the plane at origin + j*h/2, with
        # j the exact center of gravity in half cells rounded half up, sends cell i
        # to j - 1 - i, and OffGrid is raised exactly when that leaves the grid;
        # per-cell floors used to lose a cell, as {1, 2, 3, 5} on the first grid
        # went to {3, 5}
        n = grid.dims[0]
        for bits in range(1, 2**n):
            cells = np.nonzero((bits >> np.arange(n)) & 1)[0]
            a = sk.GridSet(grid, np.isin(np.arange(n), cells))
            j = math.floor(Fraction(int(np.sum(2 * cells + 1)), len(cells)) + Fraction(1, 2))
            image = j - 1 - cells
            if image.min() < 0 or image.max() >= n:
                with pytest.raises(OffGrid):
                    sk.cog_reflect(a, 0)
                continue
            out = sk.cog_reflect(a, 0)
            assert out.cell_count == len(cells)
            assert np.array_equal(np.nonzero(out.mask)[0], np.sort(image))

    def test_equals_the_per_cell_floor_on_a_dyadic_grid(self):
        # with dyadic coordinates the per-cell floors agree on every subset of
        # this grid, so the old form is an oracle for the plan read
        grid = sk.centered_grid((12,), 0.125)
        for bits in range(1, 2**12):
            a = sk.GridSet(grid, (bits >> np.arange(12)) & 1 == 1)
            self.assert_equals_the_oracle(a, 0)

    @pytest.mark.parametrize("seed", [7, 41])
    def test_equals_the_per_cell_floor_on_core_draws(self, seed):
        # the "core" sets the harness draws on the default grid, at both axes;
        # seed 7's first 15 trials are the gallery's
        for i in range(60):
            small, big = _nested_pair("core", trial_rng(seed, i), GRID)
            for a in (_sample("core", trial_rng(seed, i), GRID), small, big):
                for u_axis in (0, 1):
                    self.assert_equals_the_oracle(a, u_axis)

    @staticmethod
    def assert_equals_the_oracle(a, u_axis):
        want = cog_reflect_mask(a, u_axis)
        if want is None:
            with pytest.raises(OffGrid):
                sk.cog_reflect(a, u_axis)
        else:
            assert np.array_equal(sk.cog_reflect(a, u_axis).mask, want)

    def test_cone_double_cone_monotonicity_violation(self):
        cone = sk.polygon_raster(GRID, sk.ConvexPolygon([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        double = sk.polygon_raster(
            GRID, sk.ConvexPolygon([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        )
        assert np.all(~cone.mask | double.mask)  # nested inputs
        img_cone = sk.cog_reflect(cone, 1)
        img_double = sk.cog_reflect(double, 1)
        assert np.any(img_cone.mask & ~img_double.mask)  # containment broken


class TestNearSwap:
    def test_symmetric_fixed(self):
        union = two_disk_symmetric_set(GRID, PLANE, 0.75, 0.35)
        assert sk.near_swap(union, PLANE) == union

    def test_far_set_fixed(self):
        a = sk.disk_raster(GRID, (0.0, 1.5), 0.3)
        assert sk.near_swap(a, PLANE) == a

    def test_straddling_square_perimeter_changes(self):
        square = sk.box_raster(GRID, (0.0, 0.5), (1.0, 1.5))
        before = sk.grid_perimeter(square)
        after = sk.grid_perimeter(sk.near_swap(square, PLANE))
        assert abs(before - 4.0) < 1e-12
        assert after != before

    def test_measure_preserved(self):
        for i in range(20):
            rng = trial_rng(131, i)
            a = sk.GridSet(GRID, rng.random(GRID.dims) < 0.4)
            assert sk.near_swap(a, PLANE).cell_count == a.cell_count


class TestGridPerimeter:
    def test_single_cell(self):
        g = sk.Grid((4, 4), (0.0, 0.0), 0.5)
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 1] = True
        assert sk.grid_perimeter(sk.GridSet(g, mask)) == 4 * 0.5

    def test_square_block(self):
        g = sk.Grid((8, 8), (0.0, 0.0), 1.0)
        mask = np.zeros((8, 8), dtype=bool)
        mask[2:6, 2:6] = True
        assert sk.grid_perimeter(sk.GridSet(g, mask)) == 16.0

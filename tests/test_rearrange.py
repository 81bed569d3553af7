import numpy as np
import pytest
from map_helpers import MEAN, check_fvalues, compose

import symmkit as sk
from symmkit.harness import random_blob_function, trial_rng

GRID = sk.centered_grid((16, 16), 0.25)
PLANE = sk.axis_plane(1, 2, 0.0, 1)
# the four canonical pairs by name, and one that is not a rearrangement
PAIRS = {**{row.pair.name: row.pair for row in sk.CANONICAL_MAPS.values()}, "mean": MEAN}


def rand_fn(i, grid=GRID):
    return random_blob_function(trial_rng(11, i), grid)


class TestPolarize:
    def test_symmetric_fixed_point(self):
        vals = np.arange(16.0)[:, None] * np.ones(16)
        f = sk.GridFunction(GRID, vals)  # constant along the axis-1 columns? no: symmetric
        f = sk.GridFunction(GRID, np.abs(np.arange(16.0) - 7.5)[None, :] * np.ones((16, 1)))
        assert sk.polarize(f, PLANE) == f

    def test_constant(self):
        f = sk.GridFunction(GRID, np.full(GRID.dims, 4.0))
        assert sk.polarize(f, PLANE) == f

    def test_pointwise_oracle_1d(self):
        g = sk.Grid((8,), (-1.0,), 0.25)
        f = sk.GridFunction(g, (np.arange(8) < 2).astype(float))
        out = sk.polarize(f, sk.axis_plane(0, 1, 0.0, 1))
        assert np.array_equal(out.values, (np.arange(8) >= 6).astype(float))

    def test_pointwise_oracle_random(self):
        # brute-force per-cell evaluation of the defining formula
        for i in range(20):
            f = rand_fn(i)
            mirrored = sk.reflect_grid_function(f, PLANE)
            hplus = (PLANE.signed(GRID.centers()) >= 0.0).reshape(GRID.dims)
            expect = np.where(
                hplus,
                np.maximum(f.values, mirrored.values),
                np.minimum(f.values, mirrored.values),
            )
            assert np.array_equal(sk.polarize(f, PLANE).values, expect)

    def test_equimeasurable_exact(self):
        for i in range(200):
            f = rand_fn(i)
            assert sk.distribution(sk.polarize(f, PLANE)) == sk.distribution(f)

    def test_monotone(self):
        for i in range(50):
            f = rand_fn(i)
            g = sk.GridFunction(GRID, f.values + rand_fn(1000 + i).values)
            assert np.all(sk.polarize(f, PLANE).values <= sk.polarize(g, PLANE).values)

    def test_idempotent(self):
        for i in range(50):
            once = sk.polarize(rand_fn(i), PLANE)
            assert sk.polarize(once, PLANE) == once

    def test_lp_contraction(self):
        vol = GRID.cell_volume
        for i in range(200):
            f, g = rand_fn(i), rand_fn(5000 + i)
            pf, pg = sk.polarize(f, PLANE), sk.polarize(g, PLANE)
            d0 = f.values - g.values
            d1 = pf.values - pg.values
            for p in (1.0, 2.0):
                lhs = (np.sum(np.abs(d1) ** p) * vol) ** (1 / p)
                rhs = (np.sum(np.abs(d0) ** p) * vol) ** (1 / p)
                assert lhs <= rhs + 1e-12
            assert np.abs(d1).max() <= np.abs(d0).max() + 1e-12

    def test_modulus_reduction(self):
        small = sk.centered_grid((10, 10), 0.4)
        plane = sk.axis_plane(1, 2, 0.0, 1)
        for i in range(20):
            f = random_blob_function(trial_rng(13, i), small)
            ds, before = sk.modulus_profile(f)
            _, after = sk.modulus_profile(sk.polarize(f, plane))
            assert np.all(after <= before + 1e-12)

    def test_offset_plane_with_small_support(self):
        # support kept away from the edges so reflected reads stay in-grid
        g = sk.centered_grid((16,), 0.25)
        vals = np.zeros(16)
        vals[6:10] = [1.0, 3.0, 2.0, 1.0]
        f = sk.GridFunction(g, vals)
        plane = sk.axis_plane(0, 1, 0.5, 1)
        assert sk.distribution(sk.polarize(f, plane)) == sk.distribution(f)


class TestPolarizeSet:
    def test_symmetric_invariant(self):
        a = sk.disk_raster(GRID, (0.0, 0.0), 1.0)
        assert sk.polarize_set(a, PLANE) == a

    def test_subset_of_positive_side_fixed(self):
        a = sk.disk_raster(GRID, (0.0, 1.0), 0.6)
        assert sk.polarize_set(a, PLANE) == a

    def test_negative_disk_reflected(self):
        a = sk.disk_raster(GRID, (0.5, -1.0), 0.6)
        expect = sk.disk_raster(GRID, (0.5, 1.0), 0.6)
        assert sk.polarize_set(a, PLANE) == expect

    def test_indicator_identity(self):
        for i in range(50):
            rng = trial_rng(17, i)
            mask = rng.random(GRID.dims) < 0.4
            a = sk.GridSet(GRID, mask)
            lhs = sk.polarize_set(a, PLANE).indicator()
            rhs = sk.polarize(a.indicator(), PLANE)
            assert lhs == rhs


class TestSteiner:
    @pytest.mark.parametrize("axis", [2, -1])
    def test_axis_out_of_range_rejected(self, axis):
        a = sk.box_raster(GRID, (-1.0, -1.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            sk.steiner_symmetrize_set(a, axis)
        with pytest.raises(ValueError):
            sk.steiner_symmetrize_function(a.indicator(), axis)

    def test_set_centered_square_fixed(self):
        a = sk.box_raster(GRID, (-1.0, -1.0), (1.0, 1.0))
        assert sk.steiner_symmetrize_set(a, 1) == a

    def test_set_single_column_centered(self):
        g = sk.Grid((1, 8), (0.0, 0.0), 1.0)
        mask = np.zeros((1, 8), dtype=bool)
        mask[0, [0, 3, 7]] = True
        out = sk.steiner_symmetrize_set(sk.GridSet(g, mask), 1)
        expect = np.zeros((1, 8), dtype=bool)
        expect[0, [3, 4, 5]] = True  # three cells, extra on the upper side
        assert np.array_equal(out.mask, expect)

    def test_set_box_recentered(self):
        g = sk.centered_grid((16, 16), 0.125)
        a = sk.box_raster(g, (0.0, 0.0), (1.0, 1.0))
        out = sk.steiner_symmetrize_set(a, 1)
        expect = sk.box_raster(g, (0.0, -0.5), (1.0, 0.5))
        assert out == expect

    def test_function_constant_columns_fixed(self):
        vals = np.arange(16.0)[:, None] * np.ones((1, 16))
        f = sk.GridFunction(GRID, vals)
        assert sk.steiner_symmetrize_function(f, 1) == f

    def test_function_column_placement_convention(self):
        g = sk.Grid((4,), (-1.0,), 0.5)
        f = sk.GridFunction(g, [0.0, 3.0, 1.0, 2.0])
        out = sk.steiner_symmetrize_function(f, 0)
        assert np.array_equal(out.values, [0.0, 2.0, 3.0, 1.0])
        # brute force: unique symmetric-decreasing arrangement under the tie rule
        order = sorted(range(4), key=lambda p: (abs(p - 1.5), -p))
        expect = np.empty(4)
        expect[order] = sorted([0.0, 3.0, 1.0, 2.0], reverse=True)
        assert np.array_equal(out.values, expect)

    def test_function_consistent_with_set(self):
        for i in range(20):
            rng = trial_rng(19, i)
            a = sk.GridSet(GRID, rng.random(GRID.dims) < 0.3)
            lhs = sk.steiner_symmetrize_function(a.indicator(), 1)
            rhs = sk.steiner_symmetrize_set(a, 1).indicator()
            assert lhs == rhs

    def test_set_matches_run_centering_oracle(self):
        # the set rule is the function rule read on the indicator; this
        # oracle centers each column's cell count directly
        def oracle(mask, axis):
            m = mask.shape[axis]
            order = sorted(range(m), key=lambda p: (abs(p - (m - 1) / 2.0), -p))
            rank = np.empty(m, dtype=np.int64)
            rank[order] = np.arange(m)
            counts = np.moveaxis(mask, axis, -1).sum(axis=-1)
            return np.moveaxis(rank < counts[..., None], -1, axis)

        rng = trial_rng(23, 0)
        for _ in range(150):
            dims = tuple(int(d) for d in rng.integers(1, 7, size=int(rng.integers(1, 4))))
            mask = rng.random(dims) < rng.random()
            for axis in range(len(dims)):
                out = sk.steiner_symmetrize_set(sk.GridSet(sk.centered_grid(dims, 0.5), mask), axis)
                assert np.array_equal(out.mask, oracle(mask, axis))

    def test_function_equimeasurable_per_column(self):
        for i in range(20):
            f = rand_fn(i)
            out = sk.steiner_symmetrize_function(f, 1)
            assert np.array_equal(np.sort(out.values, axis=1), np.sort(f.values, axis=1))

    def test_columns_symmetric_decreasing(self):
        for i in range(20):
            out = sk.steiner_symmetrize_function(rand_fn(i), 1).values
            m = out.shape[1]
            order = sorted(range(m), key=lambda p: (abs(p - (m - 1) / 2), -p))
            ranked = out[:, order]
            assert np.all(np.diff(ranked, axis=1) <= 0)


class TestSchwarz:
    GRID3 = sk.centered_grid((6, 10, 10), 0.5)

    def test_empty_fiber(self):
        a = sk.GridSet(self.GRID3, np.zeros(self.GRID3.dims, dtype=bool))
        assert sk.schwarz_symmetrize_set(a, 0) == a

    def test_full_slab_fixed(self):
        mask = np.zeros(self.GRID3.dims, dtype=bool)
        mask[2] = True
        a = sk.GridSet(self.GRID3, mask)
        assert sk.schwarz_symmetrize_set(a, 0) == a

    def test_count_preserved_and_centered(self):
        rng = trial_rng(23, 0)
        mask = rng.random(self.GRID3.dims) < 0.2
        a = sk.GridSet(self.GRID3, mask)
        out = sk.schwarz_symmetrize_set(a, 0)
        assert np.array_equal(out.mask.sum(axis=(1, 2)), mask.sum(axis=(1, 2)))
        # each fiber is a quasi-disk: radii of chosen cells dominate the rest
        ii, jj = np.meshgrid(np.arange(10), np.arange(10), indexing="ij")
        d2 = (ii - 4.5) ** 2 + (jj - 4.5) ** 2
        for k in range(6):
            fib = out.mask[k]
            if fib.any() and not fib.all():
                assert d2[fib].max() <= d2[~fib].min() + 1.0 + 1e-9

    def test_needs_3d(self):
        with pytest.raises(ValueError):
            a = sk.GridSet(GRID, np.zeros(GRID.dims, dtype=bool))
            sk.schwarz_symmetrize_set(a, 0)

    def test_scattered_fiber_count(self):
        mask = np.zeros(self.GRID3.dims, dtype=bool)
        rng = trial_rng(29, 1)
        idx = rng.choice(100, size=21, replace=False)
        mask[3].flat[idx] = True
        out = sk.schwarz_symmetrize_set(sk.GridSet(self.GRID3, mask), 0)
        assert out.mask[3].sum() == 21


class TestPointwiseMaps:
    def test_max_min_is_polarization(self):
        T = sk.PointwiseTransformer(sk.CANONICAL_MAPS["two_point"].pair, PLANE)
        for i in range(20):
            f = rand_fn(i)
            assert T(f) == sk.polarize(f, PLANE)

    def test_first_projection_is_identity(self):
        T = sk.PointwiseTransformer(sk.CANONICAL_MAPS["identity"].pair, PLANE)
        for i in range(10):
            f = rand_fn(i)
            assert T(f) == f

    def test_second_projection_is_reflection(self):
        T = sk.PointwiseTransformer(sk.CANONICAL_MAPS["reflection"].pair, PLANE)
        for i in range(10):
            f = rand_fn(i)
            assert T(f) == sk.reflect_grid_function(f, PLANE)

    @pytest.mark.parametrize("label", ["identity", "reflection"])
    def test_projection_rows_keep_negative_zeros(self, label):
        # the projections select values: a -0.0 cell is read back as -0.0
        rng = trial_rng(43, 0)
        f = sk.GridFunction(GRID, np.where(rng.random(GRID.dims) < 0.5, -0.0, 2.0))
        expect = f if label == "identity" else sk.reflect_grid_function(f, PLANE)
        out = sk.CANONICAL_MAPS[label].transformer(PLANE)(f)
        assert np.signbit(expect.values).any()
        assert np.array_equal(np.signbit(out.values), np.signbit(expect.values))

    def test_one_plan_for_the_last_grid_read(self, monkeypatch):
        # equal dims, different origins: x = 2 is the first grid's center
        # plane and sends two cells of the second grid off it
        built = []
        init = sk.Reflection.__init__

        def counted(self, grid, plane):
            built.append(grid)
            init(self, grid, plane)

        monkeypatch.setattr(sk.Reflection, "__init__", counted)
        T = sk.PointwiseTransformer(sk.CANONICAL_MAPS["two_point"].pair, sk.axis_plane(0, 1, 2.0, 1))
        fa = sk.GridFunction(sk.Grid((4,), (0.0,), 1.0), [5.0, 1.0, 2.0, 3.0])
        fb = sk.GridFunction(sk.Grid((4,), (1.0,), 1.0), [5.0, 1.0, 2.0, 3.0])
        expect = {fa.grid: [3.0, 1.0, 2.0, 5.0], fb.grid: [1.0, 5.0, 2.0, 3.0]}
        for f, builds in ((fa, 1), (fa, 1), (fb, 2), (fa, 3)):
            assert np.array_equal(T(f).values, expect[f.grid])
            assert len(built) == builds

    def test_diagonal_coincidence(self):
        for pair in PAIRS.values():
            for s in (-2.0, 0.0, 0.5, 3.0):
                assert float(pair.fplus(s, s)) == float(pair.fminus(s, s))

    def test_max_min_pair_contracts_in_every_lp(self):
        # the planar map (r,s) -> (max(r,s), min(s,r)) shrinks l^p distances,
        # which is what makes the induced transformer L^p-contracting
        rng = trial_rng(32, 0)
        a = rng.normal(size=(5000, 2))
        b = rng.normal(size=(5000, 2))
        fa = np.stack([np.maximum(a[:, 0], a[:, 1]), np.minimum(a[:, 1], a[:, 0])], axis=1)
        fb = np.stack([np.maximum(b[:, 0], b[:, 1]), np.minimum(b[:, 1], b[:, 0])], axis=1)
        for p in (1.0, 2.0, 3.5):
            lhs = np.sum(np.abs(fa - fb) ** p, axis=1)
            rhs = np.sum(np.abs(a - b) ** p, axis=1)
            assert np.all(lhs <= rhs + 1e-12)
        assert np.all(
            np.abs(fa - fb).max(axis=1) <= np.abs(a - b).max(axis=1) + 1e-12
        )


class TestFvalues:
    def test_max_min_passes(self):
        rng = trial_rng(31, 0)
        samples = list(zip(rng.normal(size=50), rng.normal(size=50)))
        ok, violation = check_fvalues(sk.CANONICAL_MAPS["two_point"].pair, samples)
        assert ok and violation is None

    def test_first_projection_passes(self):
        ok, _ = check_fvalues(sk.CANONICAL_MAPS["identity"].pair, [(1.0, 0.0), (0.0, 1.0), (2.0, 3.0)])
        assert ok

    @pytest.mark.parametrize("label", list(sk.CANONICAL_MAPS))
    def test_every_canonical_row_passes(self, label):
        rng = trial_rng(41, 0)
        samples = list(zip(*rng.integers(-3, 4, (2, 60)).astype(float)))  # ties included
        ok, violation = check_fvalues(sk.CANONICAL_MAPS[label].pair, samples)
        assert ok and violation is None

    def test_mean_pair_fails_with_witness(self):
        ok, violation = check_fvalues(MEAN, [(0.0, 2.0)])
        assert not ok
        assert violation["pair"] == (0.0, 2.0)
        assert violation["produced"] == (1.0, 1.0)

    def test_fvalues_iff_equimeasurable(self):
        # for every cataloged pair: the sampled value identity holds exactly
        # when the induced pointwise transformer preserves distributions
        for name, pair in PAIRS.items():
            fns = [rand_fn(i) for i in range(50)]
            samples = []
            for f in fns:
                mirrored = sk.reflect_grid_function(f, PLANE)
                samples.extend(
                    zip(f.values.ravel()[::37], mirrored.values.ravel()[::37])
                )
            ok, _ = check_fvalues(pair, samples)
            T = sk.PointwiseTransformer(pair, PLANE)
            equi = all(sk.distribution(T(f)) == sk.distribution(f) for f in fns)
            assert ok == equi, name


class TestInducedSetMap:
    def test_identity(self):
        dmap = sk.induced_set_map(lambda f: f)
        for i in range(10):
            rng = trial_rng(37, i)
            a = sk.GridSet(GRID, rng.random(GRID.dims) < 0.4)
            assert dmap(a) == a

    def test_polarize_matches_polarize_set(self):
        T = lambda f: sk.polarize(f, PLANE)
        dmap = sk.induced_set_map(T)
        for i in range(20):
            rng = trial_rng(41, i)
            a = sk.GridSet(GRID, rng.random(GRID.dims) < 0.4)
            assert dmap(a) == sk.polarize_set(a, PLANE)

    def test_reflection(self):
        T = lambda f: sk.reflect_grid_function(f, PLANE)
        dmap = sk.induced_set_map(T)
        a = sk.disk_raster(GRID, (0.5, -1.0), 0.7)
        assert dmap(a) == sk.reflect_grid_set(a, PLANE)


class TestLayerCake:
    def setmaps(self):
        return {
            "identity": lambda a: a,
            "reflection": lambda a: sk.reflect_grid_set(a, PLANE),
            "two_point": lambda a: sk.polarize_set(a, PLANE),
        }

    def expected(self, name, f):
        if name == "identity":
            return f
        if name == "reflection":
            return sk.reflect_grid_function(f, PLANE)
        return sk.polarize(f, PLANE)

    def test_reconstruction_exact(self):
        for i in range(30):
            f = rand_fn(i)
            for name, dmap in self.setmaps().items():
                assert sk.layer_cake_rearrangement(dmap, f) == self.expected(name, f)

    def test_superlevel_identity(self):
        # {Tf >= t} equals the image of {f >= t} for every level
        for i in range(10):
            f = rand_fn(i)
            out = sk.polarize(f, PLANE)
            for t in np.unique(f.values)[1:]:
                lhs = sk.GridSet(GRID, out.values >= t)
                rhs = sk.polarize_set(sk.GridSet(GRID, f.values >= t), PLANE)
                assert lhs == rhs

    def test_brute_force_levels(self):
        # direct evaluation of the reconstruction formula, cell by cell
        f = rand_fn(3)
        dmap = self.setmaps()["two_point"]
        out = sk.layer_cake_rearrangement(dmap, f)
        levels = np.unique(f.values)
        for cell in [(0, 0), (3, 11), (8, 8), (15, 2)]:
            best = levels[0]
            for t in levels[1:]:
                if dmap(sk.GridSet(GRID, f.values >= t)).mask[cell]:
                    best = max(best, t)
            assert out.values[cell] == best


class TestComposeMonotone:
    """``map_helpers.compose``, then the commutation law it serves."""

    def test_identity(self):
        f = rand_fn(0)
        assert compose(f, ("pl", [0.0, 1.0], [0.0, 1.0])) == f

    def test_affine(self):
        f = rand_fn(1)
        out = compose(f, ("pl", [0.0, 1.0], [2.0, 3.5]))  # 1.5 t + 2
        assert np.allclose(out.values, 1.5 * f.values + 2.0, atol=0)

    def test_step(self):
        f = sk.GridFunction(sk.Grid((3,), (0.0,), 1.0), [0.0, 1.0, 2.0])
        out = compose(f, ("step", [0.5], [1.0], 0.0))
        assert np.array_equal(out.values, [0.0, 1.0, 1.0])

    def test_right_continuity_at_threshold(self):
        f = sk.GridFunction(sk.Grid((2,), (0.0,), 1.0), [0.5, 0.4999999])
        assert np.array_equal(compose(f, ("step", [0.5], [1.0], 0.0)).values, [1.0, 0.0])

    def test_commutation_with_polarization(self):
        rng = trial_rng(43, 0)
        for i in range(20):
            f = rand_fn(i)
            if i % 2 == 0:
                ts = np.sort(rng.uniform(-1, 9, 4))
                ts = ts[np.concatenate([[True], np.diff(ts) > 1e-9])]
                ys = np.sort(rng.uniform(-2, 10, len(ts)))
                phi = ("pl", ts, ys)
            else:
                th = np.sort(rng.uniform(0, 8, 3))
                th = th[np.concatenate([[True], np.diff(th) > 1e-9])]
                vals = np.sort(rng.uniform(0, 5, len(th)))
                phi = ("step", th, vals, -1.0)
            lhs = compose(sk.polarize(f, PLANE), phi)
            rhs = sk.polarize(compose(f, phi), PLANE)
            assert lhs == rhs

"""Cross-cutting structural identities between the operator families."""

import numpy as np
import pytest
from map_helpers import MEAN, check_fvalues

import symmkit as sk
from symmkit.chordmaps import chord_movement_set_map
from symmkit.errors import NotARearrangement
from symmkit.harness import random_blob_function, trial_rng

GRID = sk.centered_grid((32, 32), 0.125)
PLANE = sk.axis_plane(1, 2, 0.0, 1)


def ball_displacement(dmap, grid, plane, t, radius):
    """Center position of the image of a ball raster displaced by t."""
    u = np.asarray(plane.normal, dtype=float) * plane.positive
    mid = np.asarray(grid.center)
    base = mid - ((mid @ np.asarray(plane.normal)) - plane.offset) * np.asarray(plane.normal)
    image = dmap(sk.disk_raster(grid, base + t * u, radius))
    com = grid.centers()[image.mask.ravel()].mean(axis=0)
    return float((com - base) @ u)


class TestBallDisplacementLaw:
    """Every chord-movement map sends the ball at t u to the ball at phi(t) u."""

    @pytest.mark.parametrize("name", ["id", "neg", "abs", "negabs"])
    def test_canonical_maps(self, name):
        phi = sk.canonical_contraction(name, 8.0)
        dmap = chord_movement_set_map(phi, axis=1, plane=PLANE)
        for t in (-0.75, -0.5, -0.25, 0.25, 0.5, 0.75):
            got = ball_displacement(dmap, GRID, PLANE, t, 4.8 * GRID.spacing)
            assert got == pytest.approx(float(phi(t)), abs=1e-12)

    def test_sawtooth(self):
        phi = sk.sawtooth_contraction(1.0, 8.0)
        dmap = chord_movement_set_map(phi, axis=1, plane=PLANE)
        for t in (-1.25, -0.75, -0.5, 0.5, 0.75, 1.25):
            got = ball_displacement(dmap, GRID, PLANE, t, 4.8 * GRID.spacing)
            assert got == pytest.approx(float(phi(t)), abs=1e-12)

    def test_recovered_map_is_a_contraction(self):
        rng = trial_rng(211, 0)
        ts = np.sort(rng.uniform(-1.0, 1.0, 4))
        ts = np.concatenate([[-9.0], ts, [9.0]])
        ts = ts[np.concatenate([[True], np.diff(ts) > 1e-6])]
        slopes = rng.uniform(-1.0, 1.0, len(ts) - 1)
        ys = np.concatenate([[0.0], np.cumsum(slopes * np.diff(ts))])
        ys = ys - np.interp(0.0, ts, ys)  # anchor so images stay on the grid
        phi = sk.PLContraction(ts, ys)
        dmap = chord_movement_set_map(phi, axis=1, plane=PLANE)
        samples = [k * GRID.spacing for k in range(-8, 9, 2)]
        values = [ball_displacement(dmap, GRID, PLANE, t, 4.3 * GRID.spacing) for t in samples]
        for (s, ps), (t, pt) in zip(zip(samples, values), list(zip(samples, values))[1:]):
            # rounding to cells costs at most half a spacing per endpoint
            assert abs(ps - pt) <= abs(s - t) + GRID.spacing


# each associated pair with the canonical map it is; "mean" is not a rearrangement
POINTWISE_LABELS = {
    "max_min": "two_point",
    "min_max": "two_point_reflected",
    "first": "identity",
    "second": "reflection",
    "mean": None,
}


class TestInducedMapsOfPointwiseTransformers:
    """The F-value test, the transformer laws and the classifier agree on every
    associated pair, and each rearrangement induces its canonical set map."""

    SMALL = sk.centered_grid((12, 12), 1.0 / 3.0)

    @pytest.mark.parametrize("name", list(POINTWISE_LABELS))
    def test_characterization(self, name):
        label = POINTWISE_LABELS[name]
        pair = sk.CANONICAL_MAPS[label].pair if label else MEAN
        T = sk.PointwiseTransformer(pair, PLANE)
        samples = [(float(r), float(s)) for r in range(-2, 3) for s in range(-2, 3)]
        assert check_fvalues(pair, samples)[0] == (label is not None)

        reports = sk.check_laws(sk.TRANSFORMER_LAWS, {name: T}, 40, seed=11, grid=self.SMALL)[name]
        verdicts = {law: r.verdict for law, r in reports.items()}
        holds = dict.fromkeys(sk.TRANSFORMER_LAWS, "holds")
        assert verdicts == (holds if label is not None else {**holds, "equimeasurable": "fails"})

        if label is None:
            with pytest.raises(NotARearrangement):
                sk.classify_rearrangement(T, GRID, PLANE, seed=0)
            return
        assert sk.classify_rearrangement(T, GRID, PLANE, seed=0) == (label, None)
        dmap = sk.induced_set_map(T)
        expected = sk.canonical_set_map(label, PLANE)
        for i in range(15):
            a = sk.GridSet(GRID, trial_rng(223, i).random(GRID.dims) < 0.4)
            assert set(np.unique(T(a.indicator()).values)) <= {0.0, 1.0}
            assert dmap(a) == expected(a)

    def test_mean_pair_breaks_indicators(self):
        T = sk.PointwiseTransformer(MEAN, PLANE)
        a = sk.disk_raster(GRID, (0.0, -0.75), 0.5)
        image = T(a.indicator())
        assert not set(np.unique(image.values)) <= {0.0, 1.0}


class TestThreeDimensions:
    GRID3 = sk.centered_grid((12, 12, 12), 1.0 / 3.0)
    PLANE3 = sk.axis_plane(2, 3, 0.0, 1)

    def test_polarize_equimeasurable_3d(self):
        for i in range(20):
            f = random_blob_function(trial_rng(227, i), self.GRID3)
            pf = sk.polarize(f, self.PLANE3)
            assert sk.distribution(pf) == sk.distribution(f)
            assert sk.polarize(pf, self.PLANE3) == pf

    def test_polarize_set_matches_indicator_identity_3d(self):
        rng = trial_rng(229, 0)
        a = sk.GridSet(self.GRID3, rng.random(self.GRID3.dims) < 0.3)
        lhs = sk.polarize_set(a, self.PLANE3).indicator()
        assert lhs == sk.polarize(a.indicator(), self.PLANE3)

    def test_steiner_3d_columns(self):
        f = random_blob_function(trial_rng(231, 0), self.GRID3)
        out = sk.steiner_symmetrize_function(f, 2)
        assert np.array_equal(np.sort(out.values, axis=2), np.sort(f.values, axis=2))

    def test_layer_cake_3d(self):
        f = random_blob_function(trial_rng(233, 0), self.GRID3)
        dmap = lambda a: sk.polarize_set(a, self.PLANE3)
        assert sk.layer_cake_rearrangement(dmap, f) == sk.polarize(f, self.PLANE3)

    def test_one_dimension(self):
        g = sk.centered_grid((16,), 0.25)
        plane = sk.axis_plane(0, 1, 0.0, 1)
        for i in range(10):
            f = random_blob_function(trial_rng(239, i), g)
            assert sk.distribution(sk.polarize(f, plane)) == sk.distribution(f)


class TestCliErrorPaths:
    def test_chordmap_grid_mode_needs_axis(self, tmp_path):
        from symmkit import gridio
        from symmkit.cli import cli_dispatch

        a = sk.disk_raster(GRID, (0.0, 0.0), 0.5)
        apath = tmp_path / "a.grd"
        gridio.write_grid_set(apath, a)
        cpath = tmp_path / "phi.json"
        gridio.write_contraction(cpath, sk.canonical_contraction("id"))
        status = cli_dispatch(
            ["chordmap", "--in", str(apath), "--contraction", str(cpath),
             "--out", str(tmp_path / "b.grd")]
        )
        assert status == 2

    def test_chordmap_polygon_mode_needs_normal(self, tmp_path):
        from symmkit import gridio
        from symmkit.cli import cli_dispatch

        ppath = tmp_path / "k.json"
        gridio.write_polygon(ppath, sk.ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        cpath = tmp_path / "phi.json"
        gridio.write_contraction(cpath, sk.canonical_contraction("id"))
        status = cli_dispatch(
            ["chordmap", "--in", str(ppath), "--contraction", str(cpath),
             "--out", str(tmp_path / "r.json")]
        )
        assert status == 2

    def test_schwarz_rejects_a_2d_grid(self, tmp_path):
        from symmkit import gridio
        from symmkit.cli import cli_dispatch

        g = sk.centered_grid((4, 4), 0.5)
        f = sk.GridFunction(g, np.full(g.dims, 0.5))
        path = tmp_path / "f.grd"
        gridio.write_grid_function(path, f)
        status = cli_dispatch(
            ["schwarz", "--in", str(path), "--axis", "0", "--out", str(tmp_path / "o.grd")]
        )
        assert status == 2

import numpy as np
import pytest

import symmkit as sk
from symmkit.chordmaps import chord_movement_set_map
from symmkit.errors import NotARearrangement, UnknownName
from symmkit.harness import (
    DEFAULT_GRID,
    LAW_TOL,
    PropertyReport,
    _lp_norm,
    random_blob_function,
    random_blob_set,
    trial_rng,
)
from symmkit.rearrange import ASSOCIATED_PAIRS, layer_cake_rearrangement

GRID = DEFAULT_GRID
PLANE = sk.axis_plane(1, 2, 0.0, 1)

polar = lambda f: sk.polarize(f, PLANE)
mirror = lambda f: sk.reflect_grid_function(f, PLANE)
shift = lambda f: f.with_values(f.values + 1.0)


def scramble(f):
    """A fixed permutation of the cells: equimeasurable, monotone and an L^p
    isometry, but it breaks the modulus of continuity."""
    flat = f.values.ravel().copy()
    np.random.default_rng(0).shuffle(flat)
    return sk.GridFunction(f.grid, flat.reshape(f.grid.dims))


class TestEquimeasurable:
    def test_polarization_holds(self):
        assert sk.check_transformer(polar, trials=100, seed=3)["equimeasurable"].holds

    def test_shift_fails(self):
        report = sk.check_transformer(shift, trials=10, seed=3)["equimeasurable"]
        assert not report.holds
        assert report.counterexample["trial"] == 0

    def test_mean_pair_fails(self):
        T = sk.PointwiseTransformer(ASSOCIATED_PAIRS["mean"], PLANE)
        assert not sk.check_transformer(T, trials=50, seed=3)["equimeasurable"].holds


class TestMonotonic:
    def test_polarization_holds(self):
        assert sk.check_transformer(polar, trials=100, seed=5)["monotonic"].holds

    def test_identity_holds(self):
        assert sk.check_transformer(lambda f: f, trials=20, seed=5)["monotonic"].holds

    def test_cog_reflection_lifted_fails_on_cone_pair(self):
        dmap = sk.cog_reflection_set_map(u_axis=1)
        cone = sk.polygon_raster(GRID, sk.ConvexPolygon([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        double = sk.polygon_raster(
            GRID, sk.ConvexPolygon([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        )

        def lifted(f):
            return dmap(sk.set_from_indicator(f)).indicator()

        # the cone lies inside the double cone, but its lifted image does not
        assert not np.any(cone.indicator().values > double.indicator().values)
        assert np.any(lifted(cone.indicator()).values > lifted(double.indicator()).values)


def lp_name(p):
    return f"lp_contracting[p={p}]"


def lp_reports(transformer, trials, seed, grid=DEFAULT_GRID):
    """The L^p reports of :func:`check_transformer`, keyed by exponent."""
    reports = sk.check_transformer(transformer, trials=trials, seed=seed, grid=grid)
    return {p: reports[lp_name(p)] for p in sk.LP_EXPONENTS}


def lp_report_one_exponent(transformer, p, trials, seed, grid):
    """The L^p check for one exponent as a loop of its own: the reference for
    :func:`check_transformer`, which shares each trial's draws across exponents."""
    name = lp_name(p)
    for i in range(trials):
        rng = trial_rng(seed, i)
        f = random_blob_function(rng, grid)
        g = random_blob_function(rng, grid)
        lhs = _lp_norm(transformer(f).values - transformer(g).values, p, grid.cell_volume)
        rhs = _lp_norm(f.values - g.values, p, grid.cell_volume)
        if lhs > rhs + LAW_TOL:
            payload = {"p": str(p), "lhs": lhs, "rhs": rhs, "trial": i, "seed": seed}
            return PropertyReport(name, False, trials, seed, payload)
    return PropertyReport(name, True, trials, seed)


def weighted(grid, seed):
    """f -> w * f for a fixed random weight w of grid's shape, mostly below 1:
    it expands some differences, and whether a pair fails depends on p."""
    w = np.random.default_rng(seed).uniform(0.8, 1.1, grid.dims)
    return lambda f: f.with_values(w * f.values)


class TestLpContracting:
    @pytest.mark.parametrize("p", [1, 2, np.inf])
    def test_polarization_holds(self, p):
        assert sk.check_transformer(polar, trials=100, seed=7)[lp_name(p)].holds

    def test_one_report_per_exponent(self):
        reports = sk.check_transformer(polar, trials=5, seed=7)
        assert sk.LP_EXPONENTS == (1, 2, np.inf)
        assert [name for name in reports if name.startswith("lp_contracting")] == [
            f"lp_contracting[p={p}]" for p in (1, 2, np.inf)
        ]

    def test_doubling_fails(self):
        reports = lp_reports(lambda f: f.with_values(2.0 * f.values), trials=20, seed=7)
        assert not reports[2].holds

    def test_reflection_isometry_holds(self):
        reports = lp_reports(mirror, trials=50, seed=7)
        assert all(r.holds for r in reports.values())

    @pytest.mark.parametrize("dims", [(9,), (6, 6), (5, 8), (4, 3, 5)])
    def test_reports_equal_one_exponent_runs(self, dims):
        grid = sk.centered_grid(dims, 0.5)
        mixed = 0
        for seed in range(6):
            T = weighted(grid, seed)
            shared = lp_reports(T, trials=12, seed=seed, grid=grid)
            for p in sk.LP_EXPONENTS:
                assert shared[p] == lp_report_one_exponent(T, p, 12, seed, grid)
            first_failures = {(r.counterexample or {}).get("trial") for r in shared.values()}
            mixed += len(first_failures) > 1
        # some runs had exponents that hold, or first fail, where others do not
        assert mixed >= 2


class TestModulusReducing:
    SMALL = sk.centered_grid((12, 12), 1.0 / 3.0)

    def test_polarization_holds(self):
        assert sk.check_transformer(polar, trials=20, seed=9, grid=self.SMALL)["modulus_reducing"].holds

    def test_scrambler_fails(self):
        report = sk.check_transformer(scramble, trials=10, seed=9, grid=self.SMALL)["modulus_reducing"]
        assert not report.holds

    def test_constant_map_reduces_modulus_but_not_equimeasurable(self):
        squash = lambda f: sk.GridFunction(f.grid, np.zeros(f.grid.dims))
        reports = sk.check_transformer(squash, trials=5, seed=9, grid=self.SMALL)
        assert reports["modulus_reducing"].holds
        assert not reports["equimeasurable"].holds


def one_law_reports(transformer, trials, seed, grid):
    """Every transformer law as a loop of its own, each trial redrawing its
    inputs from trial_rng(seed, i), the modulus law at most 20 trials: the
    reference for :func:`check_transformer`, which draws once for every law."""

    def first_failure(name, n, one):
        for i in range(n):
            payload = one(trial_rng(seed, i))
            if payload is not None:
                return PropertyReport(name, False, n, seed, {**payload, "trial": i, "seed": seed})
        return PropertyReport(name, True, n, seed)

    def equimeasurable(rng):
        f = random_blob_function(rng, grid)
        before, after = sk.distribution(f), sk.distribution(transformer(f))
        if before != after:
            return {"before": before.pairs()[:8], "after": after.pairs()[:8]}
        return None

    def monotonic(rng):
        f = random_blob_function(rng, grid)
        bump = random_blob_function(rng, grid, max_blobs=2)
        tf, tg = transformer(f), transformer(sk.GridFunction(grid, f.values + bump.values))
        bad = tf.values > tg.values
        if bad.any():
            cell = tuple(int(c) for c in np.argwhere(bad)[0])
            return {"cell": cell, "tf": float(tf.values[bad][0]), "tg": float(tg.values[bad][0])}
        return None

    def modulus_reducing(rng):
        f = random_blob_function(rng, grid)
        ds, before = sk.modulus_profile(f)
        _, after = sk.modulus_profile(transformer(f))
        bad = after > before + LAW_TOL
        if bad.any():
            j = int(np.argmax(bad))
            return {"distance": float(ds[j]), "before": float(before[j]), "after": float(after[j])}
        return None

    return {
        "equimeasurable": first_failure("equimeasurable", trials, equimeasurable),
        "monotonic": first_failure("monotonic", trials, monotonic),
        **{
            f"lp_contracting[p={p}]": lp_report_one_exponent(transformer, p, trials, seed, grid)
            for p in sk.LP_EXPONENTS
        },
        "modulus_reducing": first_failure("modulus_reducing", min(trials, 20), modulus_reducing),
    }


class TestTransformerCatalog:
    def test_report_order(self):
        reports = sk.check_transformer(polar, trials=2, seed=0)
        assert list(reports) == list(sk.TRANSFORMER_LAWS) == [
            "equimeasurable",
            "monotonic",
            "lp_contracting[p=1]",
            "lp_contracting[p=2]",
            "lp_contracting[p=inf]",
            "modulus_reducing",
        ]
        assert [r.name for r in reports.values()] == list(reports)

    @pytest.mark.parametrize("dims", [(9,), (6, 6), (4, 3, 5)])
    def test_reports_equal_one_law_runs(self, dims):
        grid = sk.centered_grid(dims, 0.5)
        mixed = 0
        for seed in range(3):
            for T in (shift, weighted(grid, seed), scramble):
                got = sk.check_transformer(T, trials=24, seed=seed, grid=grid)
                assert got == one_law_reports(T, 24, seed, grid)
                assert got["modulus_reducing"].trials == sk.MODULUS_MAX_TRIALS == 20
                mixed += len({r.holds for r in got.values()}) > 1
        # most runs had laws that hold beside laws that fail
        assert mixed >= 6

    @pytest.mark.parametrize(
        "name, trials, want",
        [
            ("polar", 1, 3),
            ("polar", 24, 3 * 24),
            # monotonic fails at trial 0, so later trials draw no bump
            ("negate", 7, 3 + 2 * 6),
        ],
    )
    def test_draws_only_what_live_laws_read(self, monkeypatch, name, trials, want):
        import symmkit.harness as harness

        small = sk.centered_grid((12, 12), 1.0 / 3.0)
        T = {"polar": polar, "negate": lambda f: f.with_values(-f.values)}[name]
        draws = []
        draw = harness.random_blob_function

        def counted(rng, grid=DEFAULT_GRID, max_blobs=5):
            draws.append(rng)
            return draw(rng, grid, max_blobs)

        monkeypatch.setattr(harness, "random_blob_function", counted)
        reports = sk.check_transformer(T, trials=trials, seed=3, grid=small)
        assert len(draws) == want
        if name == "polar":
            assert all(r.holds for r in reports.values())
        else:
            assert reports["monotonic"].counterexample["trial"] == 0


class TestSharedDraw:
    SMALL = sk.centered_grid((12, 12), 1.0 / 3.0)

    @pytest.mark.parametrize("dims", [(9,), (6, 6), (4, 3, 5)])
    def test_reports_equal_one_transformer_runs(self, dims):
        grid = sk.centered_grid(dims, 0.5)
        plane = sk.axis_plane(grid.n - 1, grid.n, 0.0, 1)
        mixed = 0
        for seed in range(3):
            transformers = {
                "polar": lambda f: sk.polarize(f, plane),
                "shift": shift,
                "weighted": weighted(grid, seed),
                "scramble": scramble,
                "identity": lambda f: f,
            }
            got = sk.check_transformers(transformers, trials=24, seed=seed, grid=grid)
            want = {name: sk.check_transformer(T, trials=24, seed=seed, grid=grid) for name, T in transformers.items()}
            assert got == want
            assert list(got) == list(transformers)
            assert all(list(reports) == list(sk.TRANSFORMER_LAWS) for reports in got.values())
            mixed += sum(len({r.holds for r in reports.values()}) > 1 for reports in got.values())
        # most runs had transformers with laws that hold beside laws that fail
        assert mixed >= 6

    @pytest.mark.parametrize(
        "names, trials, want",
        [
            # f, the bump and g once per trial, however many transformers read them
            (("polar", "identity"), 6, 3 * 6),
            # both monotonic laws fail at trial 0: no bump after it
            (("negate", "negate_shift"), 6, 3 + 2 * 5),
            # all six L^p laws fail at trial 0: no g after it
            (("double", "triple"), 6, 3 + 2 * 5),
            # negate still reads g and double the bump
            (("negate", "double"), 6, 3 * 6),
        ],
    )
    def test_draws_once_per_trial_only_what_live_pairs_read(self, monkeypatch, names, trials, want):
        import symmkit.harness as harness

        catalog = {
            "polar": polar,
            "identity": lambda f: f,
            "negate": lambda f: f.with_values(-f.values),
            "negate_shift": lambda f: f.with_values(1.0 - f.values),
            "double": lambda f: f.with_values(2.0 * f.values),
            "triple": lambda f: f.with_values(3.0 * f.values),
        }
        draws = []
        draw = harness.random_blob_function

        def counted(rng, grid=DEFAULT_GRID, max_blobs=5):
            draws.append(rng)
            return draw(rng, grid, max_blobs)

        monkeypatch.setattr(harness, "random_blob_function", counted)
        reports = sk.check_transformers({n: catalog[n] for n in names}, trials=trials, seed=3, grid=self.SMALL)
        assert len(draws) == want
        assert len({id(rng) for rng in draws}) == trials  # one rng, so one f, per trial
        for name in names:
            if name.startswith("negate"):
                assert reports[name]["monotonic"].counterexample["trial"] == 0
            if name in ("double", "triple"):
                assert {reports[name][law].counterexample["trial"] for law in harness._LP_NAMES.values()} == {0}

    def test_tf_equal_to_f_reuses_its_profile(self, monkeypatch):
        import symmkit.harness as harness

        calls = []
        profile = harness.modulus_profile
        monkeypatch.setattr(harness, "modulus_profile", lambda f: calls.append(f) or profile(f))
        transformers = {
            "identity": lambda f: f,
            "equal_values": lambda f: f.with_values(f.values.copy()),
            "shift": shift,
        }
        reports = sk.check_transformers(transformers, trials=5, seed=3, grid=self.SMALL)
        assert all(reports[name]["modulus_reducing"].holds for name in transformers)
        assert len(calls) == 5 + 5  # f's profile and shift's, per trial


class TestReplayability:
    def test_failed_trial_replays_bit_for_bit(self):
        report = sk.check_transformer(shift, trials=30, seed=21)["equimeasurable"]
        assert not report.holds
        payload = report.counterexample
        f = random_blob_function(trial_rng(payload["seed"], payload["trial"]), GRID)
        again = sk.distribution(shift(f)) != sk.distribution(f)
        assert again  # same violation reproduces from (seed, trial)


def random_grid_and_center_plane(rng):
    """A random 1D-3D grid with random origin and spacing, and an axis plane
    through its center in a random orientation."""
    n = int(rng.integers(1, 4))
    dims = tuple(int(d) for d in rng.integers(1, 9, n))
    grid = sk.Grid(dims, tuple(rng.uniform(-3.0, 3.0, n)), float(rng.uniform(0.05, 2.0)))
    k = int(rng.integers(0, n))
    return grid, sk.axis_plane(k, n, grid.center[k], int(rng.choice([1, -1])))


def set_name(label):
    return sk.CANONICAL_MAPS[label].set_name


class TestSetMapBundle:
    @pytest.mark.parametrize("label", ["two_point", "reflection", "two_point_reflected"], ids=set_name)
    def test_two_point_all_hold(self, label):
        bundle = sk.check_setmap_properties(sk.canonical_set_map(label, PLANE), trials=100, seed=1, grid=GRID)
        assert {r.verdict for r in bundle.values()} == {"holds"}

    @pytest.mark.parametrize("label", list(sk.CANONICAL_MAPS), ids=set_name)
    def test_agrees_with_catalog_entry(self, label):
        row = sk.CANONICAL_MAPS[label]
        for i in range(30):
            rng = trial_rng(17, i)
            grid, plane = random_grid_and_center_plane(rng)
            dmap = sk.canonical_set_map(label, plane)
            assert (dmap.name, dmap.plane, dmap.axis) == (row.set_name, plane, int(np.argmax(plane.normal)))
            induced = sk.induced_set_map(lambda f: row.function(f, plane))
            for _ in range(3):
                a = sk.GridSet(grid, rng.random(grid.dims) < 0.4)
                assert dmap(a) == induced(a)

    @pytest.mark.parametrize("label", list(sk.CANONICAL_MAPS))
    def test_carries_catalog_contraction(self, label):
        want = sk.canonical_contraction(sk.CANONICAL_MAPS[label].contraction)
        got = sk.canonical_set_map(label, PLANE).contraction
        assert got.breakpoint_pairs() == want.breakpoint_pairs()

    def test_unknown_label_names_the_catalog(self):
        # a set map's name is not a catalog label
        with pytest.raises(UnknownName, match="two_point_reflected"):
            sk.canonical_set_map("polarization", PLANE)

    def test_unknown_law_names_the_catalog(self):
        with pytest.raises(UnknownName, match="measure_preserving"):
            sk.check_setmap_law("measure_preservng", sk.canonical_set_map("identity", PLANE), trials=1)

    def test_identity_all_hold(self):
        bundle = sk.check_setmap_properties(sk.canonical_set_map("identity", PLANE), trials=100, seed=2, grid=GRID)
        assert {r.verdict for r in bundle.values()} == {"holds"}

    def test_sawtooth_all_hold(self):
        dmap = chord_movement_set_map(
            sk.sawtooth_contraction(1.0, 8.0), axis=1, plane=PLANE, name="sawtooth"
        )
        bundle = sk.check_setmap_properties(dmap, trials=60, seed=3, grid=GRID)
        assert {r.verdict for r in bundle.values()} == {"holds"}

    def test_shake_composite_holds_on_convex(self):
        bundle = sk.check_setmap_properties(
            sk.blaschke_composite_set_map(PLANE), trials=60, seed=4, grid=GRID
        )
        assert {r.verdict for r in bundle.values()} == {"holds"}

    def test_half_slope_contraction_fails_perimeter_only(self):
        phi = sk.PLContraction([-16.0, 16.0], [-8.0, 8.0])
        dmap = chord_movement_set_map(phi, axis=1, plane=PLANE, name="half")
        bundle = sk.check_setmap_properties(dmap, trials=40, seed=5, grid=GRID)
        assert bundle["perimeter_convex"].verdict == "fails"
        assert bundle["measure_preserving"].verdict == "holds"

    def test_core_domain_draws_nonempty_nested_sets_in_the_central_box(self):
        # the box reaches an eighth of the grid's 4-unit extent from the center
        core = sk.box_raster(GRID, (-0.5, -0.5), (0.5, 0.5)).mask
        seen = []

        def record(a):
            seen.append(a)
            return a

        dmap = sk.SetMap("record", record, domain="core")
        for law in ("monotonic", "measure_preserving"):
            assert sk.check_setmap_law(law, dmap, trials=60, seed=8, grid=GRID).verdict == "holds"
        assert len(seen) == 3 * 60
        assert all(a.cell_count > 0 and not np.any(a.mask & ~core) for a in seen)

    def test_cog_reflection_keeps_measure_on_its_core_domain(self):
        dmap = sk.cog_reflection_set_map(u_axis=1)
        report = sk.check_setmap_law("measure_preserving", dmap, trials=50, seed=4, grid=GRID)
        assert report.verdict == "holds"

    def test_plane_laws_skipped_without_a_plane(self):
        bundle = sk.check_setmap_properties(sk.cog_reflection_set_map(u_axis=1), trials=5, seed=0, grid=GRID)
        assert list(bundle) == list(sk.SETMAP_LAWS)
        assert {name for name, r in bundle.items() if r.verdict == "skipped"} == {
            "symmetric_invariant",
            "cylinder_invariant",
            "maps_balls_to_balls",
            "respects_cylinders",
            "perimeter_convex",
        }

    def test_translation_fails_symmetric_invariance(self):
        def shifted(a):
            rolled = np.roll(np.asarray(a.mask), 2, axis=1)
            return sk.GridSet(a.grid, rolled)

        dmap = sk.SetMap("shift", shifted, plane=PLANE, axis=1)
        bundle = sk.check_setmap_properties(dmap, trials=20, seed=6, grid=GRID)
        assert bundle["symmetric_invariant"].verdict == "fails"


class TestClassify:
    def test_four_canonicals(self):
        cases = {
            "identity": lambda f: f,
            "reflection": mirror,
            "two_point": polar,
            "two_point_reflected": lambda f: mirror(polar(f)),
        }
        for expected, T in cases.items():
            label, witness = sk.classify_rearrangement(T, GRID, PLANE, seed=0)
            assert label == expected
            assert witness is None

    def test_sawtooth_layer_cake_is_other(self):
        dmap = chord_movement_set_map(
            sk.sawtooth_contraction(1.0, 8.0), axis=1, plane=PLANE, name="sawtooth"
        )
        T = lambda f: layer_cake_rearrangement(dmap, f)
        label, witness = sk.classify_rearrangement(T, GRID, PLANE, seed=0)
        assert label == "other"
        assert witness["image_center"] == 0.25  # displaced ball raster witness

    def test_shake_composite_is_other_by_two_disk_test(self):
        comp = sk.blaschke_composite_set_map(PLANE)
        T = lambda f: layer_cake_rearrangement(comp, f)
        label, witness = sk.classify_rearrangement(T, GRID, PLANE, seed=0)
        assert label == "other"
        assert "two-disk" in witness["reason"]

    def test_non_rearrangement_rejected(self):
        with pytest.raises(NotARearrangement):
            sk.classify_rearrangement(
                lambda f: f.with_values(f.values + 1.0), GRID, PLANE, seed=0
            )

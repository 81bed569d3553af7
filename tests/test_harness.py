import itertools
from collections import Counter

import numpy as np
import pytest
from grid_strategies import admissible_planes
from map_helpers import MEAN

import symmkit as sk
from symmkit.chordmaps import chord_movement_set_map
from symmkit.errors import MisalignedHyperplane, NotARearrangement, UnknownName
from symmkit.harness import (
    CONE_PROBES,
    CORE_PROBES,
    DEFAULT_GRID,
    PAIR_RULES,
    Law,
    PropertyReport,
    _Draw,
    _lp_norm,
    _maps_balls_to_balls,
    _nearest_plane_point,
    _nested_pair,
    _sample,
    random_blob_function,
    random_blob_set,
    symmetric_raster,
    trial_rng,
)
from symmkit.rearrange import layer_cake_rearrangement

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
        reports = sk.check_laws(sk.TRANSFORMER_LAWS, {"polar": polar}, 100, seed=3, laws=["equimeasurable"])
        assert reports["polar"]["equimeasurable"].holds

    def test_shift_fails(self):
        report = sk.check_laws(sk.TRANSFORMER_LAWS, {"shift": shift}, 10, seed=3)["shift"]["equimeasurable"]
        assert not report.holds
        assert report.counterexample["trial"] == 0

    def test_mean_pair_fails(self):
        T = sk.PointwiseTransformer(MEAN, PLANE)
        reports = sk.check_laws(sk.TRANSFORMER_LAWS, {"mean": T}, 50, seed=3, laws=["equimeasurable"])
        assert not reports["mean"]["equimeasurable"].holds


class TestMonotonic:
    def test_polarization_holds(self):
        reports = sk.check_laws(sk.TRANSFORMER_LAWS, {"polar": polar}, 100, seed=5, laws=["monotonic"])
        assert reports["polar"]["monotonic"].holds

    def test_identity_holds(self):
        reports = sk.check_laws(sk.TRANSFORMER_LAWS, {"identity": lambda f: f}, 20, seed=5, laws=["monotonic"])
        assert reports["identity"]["monotonic"].holds

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
    """The L^p reports of one :func:`check_laws` run of the L^p laws, keyed by exponent."""
    laws = [lp_name(p) for p in sk.LP_EXPONENTS]
    reports = sk.check_laws(sk.TRANSFORMER_LAWS, {"T": transformer}, trials, seed, grid, laws=laws)["T"]
    return {p: reports[lp_name(p)] for p in sk.LP_EXPONENTS}


def lp_sum(values, p):
    """Sum of |v|^p (max |v| for p = inf): ordered as the L^p norm, with no volume or root to round."""
    return np.abs(values).max() if p == np.inf else np.sum(np.abs(values) ** p)


def lp_report_one_exponent(transformer, p, trials, seed, grid):
    """The L^p check for one exponent as a loop of its own: the reference for
    :func:`check_laws`, which shares each trial's draws across exponents."""
    name = lp_name(p)
    for i in range(trials):
        rng = trial_rng(seed, i)
        f = random_blob_function(rng, grid)
        g = random_blob_function(rng, grid)
        image_diff = transformer(f).values - transformer(g).values
        diff = f.values - g.values
        if lp_sum(image_diff, p) > lp_sum(diff, p):
            lhs = _lp_norm(image_diff, p, grid.cell_volume)
            rhs = _lp_norm(diff, p, grid.cell_volume)
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
        assert lp_reports(polar, trials=100, seed=7)[p].holds

    def test_one_report_per_exponent(self):
        reports = sk.check_laws(sk.TRANSFORMER_LAWS, {"polar": polar}, 5, seed=7)["polar"]
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
        reports = sk.check_laws(sk.TRANSFORMER_LAWS, {"polar": polar}, 20, 9, self.SMALL, laws=["modulus_reducing"])
        assert reports["polar"]["modulus_reducing"].holds

    def test_scrambler_fails(self):
        reports = sk.check_laws(sk.TRANSFORMER_LAWS, {"scramble": scramble}, 10, 9, self.SMALL)
        assert not reports["scramble"]["modulus_reducing"].holds

    def test_constant_map_reduces_modulus_but_not_equimeasurable(self):
        squash = lambda f: sk.GridFunction(f.grid, np.zeros(f.grid.dims))
        reports = sk.check_laws(sk.TRANSFORMER_LAWS, {"squash": squash}, 5, seed=9, grid=self.SMALL)["squash"]
        assert reports["modulus_reducing"].holds
        assert not reports["equimeasurable"].holds


def one_law_reports(transformer, trials, seed, grid):
    """Every transformer law as a loop of its own, each trial redrawing its
    inputs from trial_rng(seed, i), the modulus law at most 20 trials: the
    reference for :func:`check_laws`, which draws once for every law."""

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
        bad = after > before
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
        reports = sk.check_laws(sk.TRANSFORMER_LAWS, {"polar": polar}, 2, seed=0)["polar"]
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
                got = sk.check_laws(sk.TRANSFORMER_LAWS, {"T": T}, 24, seed, grid)["T"]
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
        reports = sk.check_laws(sk.TRANSFORMER_LAWS, {name: T}, trials, seed=3, grid=small)[name]
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
            got = sk.check_laws(sk.TRANSFORMER_LAWS, transformers, 24, seed, grid)
            # each transformer run alone
            want = {
                name: sk.check_laws(sk.TRANSFORMER_LAWS, {name: T}, 24, seed, grid)[name]
                for name, T in transformers.items()
            }
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
        reports = sk.check_laws(sk.TRANSFORMER_LAWS, {n: catalog[n] for n in names}, trials, seed=3, grid=self.SMALL)
        assert len(draws) == want
        assert len({id(rng) for rng in draws}) == trials  # one rng, so one f, per trial
        for name in names:
            if name.startswith("negate"):
                assert reports[name]["monotonic"].counterexample["trial"] == 0
            if name in ("double", "triple"):
                assert {reports[name][law].counterexample["trial"] for law in harness._LP_NAMES.values()} == {0}

    def test_unhashable_transformers_scored_apart(self):
        # derived values are kept per transformer object, never by hashing
        # it: these compare equal and cannot be hashed, yet each gets the
        # reports of the reference loops
        class Unhashable:
            __hash__ = None

            def __init__(self, transformer):
                self.transformer = transformer

            def __eq__(self, other):
                return True

            def __call__(self, f):
                return self.transformer(f)

        grid = sk.centered_grid((6, 6), 0.5)
        for seed in range(3):
            plain = {"polar": polar, "shift": shift, "scramble": scramble}
            got = sk.check_laws(sk.TRANSFORMER_LAWS, {n: Unhashable(T) for n, T in plain.items()}, 24, seed, grid)
            assert got == {n: one_law_reports(T, 24, seed, grid) for n, T in plain.items()}

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
        reports = sk.check_laws(sk.TRANSFORMER_LAWS, transformers, 5, seed=3, grid=self.SMALL)
        assert all(reports[name]["modulus_reducing"].holds for name in transformers)
        assert len(calls) == 5 + 5  # f's profile and shift's, per trial


class TestReplayability:
    def test_failed_trial_replays_bit_for_bit(self):
        report = sk.check_laws(sk.TRANSFORMER_LAWS, {"shift": shift}, 30, seed=21)["shift"]["equimeasurable"]
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
        bundle = sk.check_laws(sk.SETMAP_LAWS, {label: sk.canonical_set_map(label, PLANE)}, 100, seed=1, grid=GRID)
        assert {r.verdict for r in bundle[label].values()} == {"holds"}

    @pytest.mark.parametrize("label", list(sk.CANONICAL_MAPS), ids=set_name)
    def test_agrees_with_catalog_entry(self, label):
        row = sk.CANONICAL_MAPS[label]
        for i in range(30):
            rng = trial_rng(17, i)
            grid, plane = random_grid_and_center_plane(rng)
            dmap = sk.canonical_set_map(label, plane)
            assert (dmap.name, dmap.plane) == (row.set_name, plane)
            induced = sk.induced_set_map(row.transformer(plane))
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

    @pytest.mark.parametrize(
        "catalog, listed", [("SETMAP_LAWS", "measure_preserving"), ("TRANSFORMER_LAWS", "modulus_reducing")]
    )
    def test_any_unknown_law_names_the_catalog(self, catalog, listed):
        subjects = {"identity": sk.canonical_set_map("identity", PLANE)}
        with pytest.raises(UnknownName, match=listed):
            sk.check_laws(getattr(sk, catalog), subjects, 1, laws=["monotonic", "measure_preservng"])

    def test_identity_all_hold(self):
        bundle = sk.check_laws(sk.SETMAP_LAWS, {"identity": sk.canonical_set_map("identity", PLANE)}, 100, 2, GRID)
        assert {r.verdict for r in bundle["identity"].values()} == {"holds"}

    def test_sawtooth_all_hold(self):
        dmap = chord_movement_set_map(sk.sawtooth_contraction(1.0, 8.0), plane=PLANE, name="sawtooth")
        bundle = sk.check_laws(sk.SETMAP_LAWS, {"sawtooth": dmap}, 60, seed=3, grid=GRID)
        assert {r.verdict for r in bundle["sawtooth"].values()} == {"holds"}

    def test_shake_composite_holds_on_convex(self):
        bundle = sk.check_laws(sk.SETMAP_LAWS, {"shake": sk.blaschke_composite_set_map(PLANE)}, 60, seed=4, grid=GRID)
        assert {r.verdict for r in bundle["shake"].values()} == {"holds"}

    def test_half_slope_contraction_fails_perimeter_only(self):
        phi = sk.PLContraction([-16.0, 16.0], [-8.0, 8.0])
        dmap = chord_movement_set_map(phi, plane=PLANE, name="half")
        bundle = sk.check_laws(sk.SETMAP_LAWS, {"half": dmap}, 40, seed=5, grid=GRID)["half"]
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
            # one law per run, so each run draws its own sets
            reports = sk.check_laws(sk.SETMAP_LAWS, {"record": dmap}, 60, seed=8, grid=GRID, laws=[law])
            assert reports["record"][law].verdict == "holds"
        assert len(seen) == 3 * 60
        assert all(a.cell_count > 0 and not np.any(a.mask & ~core) for a in seen)

    def test_core_draws_are_varied_and_leave_the_box_unfilled(self):
        # cut from blob sets drawn on the whole grid, the pair was the 4-cell
        # fallback (4, 4) in 58 of these 200 draws, and 37 samples filled all
        # 64 cells of the box, which cog reflection leaves unchanged
        core = sk.box_raster(GRID, (-0.5, -0.5), (0.5, 0.5))
        counts = Counter()
        filled = 0
        for s in range(200):
            small, big = _nested_pair("core", trial_rng(s, 0), GRID)
            assert 0 < small.cell_count and not np.any(small.mask & ~big.mask) and not np.any(big.mask & ~core.mask)
            counts[small.cell_count, big.cell_count] += 1
            filled += _sample("core", trial_rng(s, 0), GRID) == core
        assert max(counts.values()) <= 10
        assert filled < 5

    @pytest.mark.parametrize("domain", ["convx", "All", "", None])
    def test_unknown_domain_rejected(self, domain):
        # a misspelt domain used to be scored on blob sets, as "all"
        with pytest.raises(ValueError, match="'all', 'convex', 'core'"):
            sk.SetMap("m", lambda a: a, domain=domain)

    @pytest.mark.parametrize("domain", ["convx", "All", "", None])
    def test_symmetric_raster_rejects_an_unknown_domain(self, domain):
        # a misspelt domain used to draw a blob set joined with its mirror, as "all"
        with pytest.raises(ValueError, match="'all', 'convex', 'core'"):
            symmetric_raster(trial_rng(0, 0), PLANE, GRID, domain)

    def test_cog_reflection_keeps_measure_on_its_core_domain(self):
        dmap = sk.cog_reflection_set_map(u_axis=1)
        reports = sk.check_laws(sk.SETMAP_LAWS, {"cog": dmap}, 50, seed=4, grid=GRID, laws=["measure_preserving"])
        assert reports["cog"]["measure_preserving"].verdict == "holds"

    def test_plane_laws_skipped_without_a_plane(self):
        dmap = sk.cog_reflection_set_map(u_axis=1)
        bundle = sk.check_laws(sk.SETMAP_LAWS, {"cog": dmap}, 5, seed=0, grid=GRID)["cog"]
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

        dmap = sk.SetMap("shift", shifted, plane=PLANE)
        bundle = sk.check_laws(sk.SETMAP_LAWS, {"shift": dmap}, 20, seed=6, grid=GRID)
        assert bundle["shift"]["symmetric_invariant"].verdict == "fails"

    @pytest.mark.parametrize("plane", [sk.OrientedHyperplane((0.6, 0.8)), sk.axis_plane(1, 2, 0.25)])
    def test_chord_movement_refuses_a_plane_its_columns_do_not_fix(self, plane):
        # the map moves columns about coordinate 0 of one axis, so the laws must read that plane and no other
        with pytest.raises(MisalignedHyperplane):
            chord_movement_set_map(sk.sawtooth_contraction(1.0, 8.0), plane)


class TestBallLawOnSmallGrids:
    """The ball law steps its center along the normal only as far as the grid leaves room for the ball."""

    @pytest.mark.parametrize("cells", range(10, 19))
    def test_identity_and_reflection_hold(self, cells):
        # a ball the grid cut used to fail even the identity below 20 cells
        grid = sk.centered_grid((cells, cells), 0.125)
        maps = {label: sk.canonical_set_map(label, PLANE) for label in ("identity", "reflection")}
        got = sk.check_laws(sk.SETMAP_LAWS, maps, 200, seed=0, grid=grid, laws=["maps_balls_to_balls"])
        assert {name: r["maps_balls_to_balls"].verdict for name, r in got.items()} == dict.fromkeys(maps, "holds")

    @pytest.mark.parametrize("seed", range(20))
    def test_drawn_balls_are_never_cut(self, seed):
        # rastered on the grid grown by 12 cells a side, every drawn ball lies in the grid
        rng = trial_rng(659, seed)
        n = 2 + seed % 2
        dims = tuple(int(d) for d in rng.integers(11, 21, n))
        grid = sk.Grid(dims, tuple(rng.uniform(-3.0, 3.0, n)), float(rng.uniform(0.05, 2.0)))
        h = grid.spacing
        grown = sk.Grid(tuple(d + 24 for d in dims), tuple(o - 12 * h for o in grid.origin), h)
        inner = tuple(slice(12, 12 + d) for d in dims)
        mid = np.asarray(grid.center)
        normal = rng.normal(size=n)
        normal /= np.linalg.norm(normal)
        identity = sk.SetMap("identity", lambda a: a)
        for plane in [sk.axis_plane(k, n, mid[k]) for k in range(n)]:
            for i in range(10):
                draw = _Draw(trial_rng(seed, i), grid)
                _maps_balls_to_balls(identity, plane, draw)
                k, r = draw(("ball", plane), None)  # the ball the trial drew
                center = _nearest_plane_point(grid, plane) + k * h * np.asarray(plane.normal)
                ball = sk.disk_raster(grown, center, r).mask
                assert ball[inner].sum() == ball.sum() > 0
        # the ball steps along the plane's axis, so a plane off the axes has none
        slanted = sk.OrientedHyperplane(tuple(normal), float(mid @ normal))
        with pytest.raises(MisalignedHyperplane):
            _maps_balls_to_balls(identity, slanted, _Draw(trial_rng(seed, 0), grid))


OTHER_PLANE = sk.axis_plane(0, 2, 0.25, -1)


def mixed_maps():
    """Maps of every domain, on two planes and none."""
    return [
        sk.canonical_set_map("two_point", PLANE),
        sk.canonical_set_map("identity", PLANE),
        sk.canonical_set_map("reflection", OTHER_PLANE),
        chord_movement_set_map(sk.sawtooth_contraction(1.0, 8.0), plane=PLANE, name="sawtooth"),
        sk.cog_reflection_set_map(u_axis=1),
        sk.near_swap_set_map(PLANE),
        sk.blaschke_composite_set_map(PLANE),
    ]


class TestSetMapDraw:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reports_equal_one_map_runs(self, seed):
        maps = {dmap.name: dmap for dmap in mixed_maps()}
        got = sk.check_laws(sk.SETMAP_LAWS, maps, 20, seed, GRID, PLANE)
        assert list(got) == list(maps)
        for name, dmap in maps.items():
            alone = sk.check_laws(sk.SETMAP_LAWS, {name: dmap}, 20, seed, GRID, PLANE)[name]
            # one law at a time draws every input afresh: no sharing at all
            apart = {
                law: sk.check_laws(sk.SETMAP_LAWS, {name: dmap}, 20, seed, GRID, PLANE, [law])[name][law]
                for law in sk.SETMAP_LAWS
            }
            assert got[name] == alone == apart
        # laws that hold beside laws that fail, at several trials, and laws skipped
        verdicts = {r.verdict for reports in got.values() for r in reports.values()}
        assert verdicts == {"holds", "fails", "skipped"}
        failed = {r.counterexample["trial"] for reports in got.values() for r in reports.values() if r.holds is False}
        assert len(failed) >= 2

    def test_reports_follow_the_order_of_laws(self):
        laws = ["perimeter_convex", "monotonic", "symmetric_invariant"]
        maps = {dmap.name: dmap for dmap in mixed_maps()[:2]}
        got = sk.check_laws(sk.SETMAP_LAWS, maps, 2, seed=0, grid=GRID, plane=PLANE, laws=laws)
        assert [list(reports) for reports in got.values()] == [laws, laws]

    def test_maps_of_one_domain_and_plane_draw_each_input_once(self, monkeypatch):
        import symmkit.harness as harness

        draws = []
        draw = harness.random_blob_function

        def counted(rng, grid=DEFAULT_GRID, max_blobs=5):
            draws.append(rng)
            return draw(rng, grid, max_blobs)

        monkeypatch.setattr(harness, "random_blob_function", counted)
        maps = {label: sk.canonical_set_map(label, PLANE) for label in ("two_point", "identity", "two_point_reflected")}
        sk.check_laws(sk.SETMAP_LAWS, maps, 4, seed=0, grid=GRID)
        # the nested pair, the sample and the symmetric set, per trial
        assert len(draws) == 3 * 4


def argmax_cylinders(dmap, plane, draw):
    """The cylinder law with its axis taken as the largest entry of the normal,
    as it was before the plane named it: the form its verdicts at axis planes keep."""
    axis = int(np.argmax(np.abs(plane.normal)))
    a = draw(("sample", dmap.domain), lambda rng: _sample(dmap.domain, rng, draw.grid))
    extra = np.asarray(dmap(a).mask).any(axis=axis) & ~np.asarray(a.mask).any(axis=axis)
    return {"columns": int(extra.sum())} if extra.any() else None


def rolled(axis):
    """A set map that rolls every set two cells along ``axis``."""
    return lambda a: sk.GridSet(a.grid, np.roll(np.asarray(a.mask), 2, axis=axis))


class TestRespectsCylinders:
    CATALOG = {"respects_cylinders": sk.SETMAP_LAWS["respects_cylinders"], "argmax": Law(argmax_cylinders, needs="plane")}

    def assert_verdicts_kept(self, maps, trials, seed, grid, plane):
        got = sk.check_laws(self.CATALOG, maps, trials, seed, grid, plane)
        for reports in got.values():
            new, old = reports["respects_cylinders"], reports["argmax"]
            assert (new.holds, new.trials, new.counterexample) == (old.holds, old.trials, old.counterexample)
        return {reports["argmax"].verdict for reports in got.values()}

    @pytest.mark.parametrize("plane", [PLANE, OTHER_PLANE, sk.axis_plane(0, 2, 0.0, 1), sk.axis_plane(1, 2, -0.5, -1)])
    def test_axis_plane_verdicts_unchanged(self, plane):
        maps = {dmap.name: dmap for dmap in mixed_maps()}
        maps |= {f"rolled{k}": sk.SetMap(f"rolled{k}", rolled(k), plane=plane) for k in (0, 1)}
        assert self.assert_verdicts_kept(maps, 10, 3, GRID, plane) == {"holds", "fails"}

    @pytest.mark.parametrize("seed", range(6))
    def test_axis_plane_verdicts_unchanged_on_random_grids(self, seed):
        grid, plane = random_grid_and_center_plane(trial_rng(seed, 0))
        maps = {label: sk.canonical_set_map(label, plane) for label in sk.CANONICAL_MAPS}
        maps |= {f"rolled{k}": sk.SetMap(f"rolled{k}", rolled(k), plane=plane) for k in range(grid.n)}
        self.assert_verdicts_kept(maps, 5, seed, grid, plane)

    def test_diagonal_plane_raises(self):
        # the columns of the largest normal entry are not the lines a polarization moves
        # cells along, so this map used to fail on them at trial 0
        grid = sk.centered_grid((16, 16), 0.25)
        d = sk.OrientedHyperplane((2**-0.5, 2**-0.5))
        dmap = sk.SetMap("d", sk.induced_set_map(sk.CANONICAL_MAPS["two_point"].transformer(d)), plane=d)
        with pytest.raises(MisalignedHyperplane):
            sk.check_laws(sk.SETMAP_LAWS, {"d": dmap}, 30, 0, grid, laws=["respects_cylinders"])


def layer_cake(dmap):
    return lambda f: layer_cake_rearrangement(dmap, f)


class TestClassify:
    def test_pair_rules_are_the_canonical_rows_read_on_indicators(self):
        assert PAIR_RULES == {
            0b1001: "identity", 0b0110: "reflection", 0b1010: "two_point", 0b0101: "two_point_reflected",
        }

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
        dmap = chord_movement_set_map(sk.sawtooth_contraction(1.0, 8.0), plane=PLANE, name="sawtooth")
        label, witness = sk.classify_rearrangement(layer_cake(dmap), GRID, PLANE, seed=0)
        assert label == "other"
        # the first pair already reads no rule: each half of the grid covers both of its cells
        assert witness == {
            "reason": "mirror pair moves by no canonical rule",
            "pair": ((0, 16), (0, 15)),
            "x_went_to": [(0, 16), (0, 15)],
            "mirror_went_to": [(0, 16), (0, 15)],
        }

    def test_near_swap_layer_cake_is_other_by_its_pairs(self):
        # pairs near the plane swap and the rest stay: pair-local, not uniform
        label, witness = sk.classify_rearrangement(layer_cake(sk.near_swap_set_map(PLANE)), GRID, PLANE, seed=0)
        assert label == "other"
        assert witness == {
            "reason": "mirror pairs move by different rules",
            "pair": ((0, 24), (0, 7)),
            "x_went_to": [(0, 24)],
            "mirror_went_to": [(0, 7)],
        }

    def test_shake_composite_is_other_by_two_disk_test(self):
        comp = sk.blaschke_composite_set_map(PLANE)
        label, witness = sk.classify_rearrangement(layer_cake(comp), GRID, PLANE, seed=0)
        assert label == "other"
        assert "two-disk" in witness["reason"]

    @pytest.mark.parametrize("seed", range(40))
    def test_cog_reflection_layer_cake_is_other(self, seed):
        # every mirror pair reads the identity and the cone probes are
        # symmetric along u, so only the "core" probes tell it apart; at 12
        # of these seeds a cone probe's level sets leave the grid under cog
        # reflection, and the gates pass over that probe instead of raising
        T = layer_cake(sk.cog_reflection_set_map(u_axis=1))
        assert sk.classify_rearrangement(T, GRID, PLANE, seed=seed) == (
            "other",
            {"reason": "probe disagrees with identity"},
        )

    def test_a_canonical_label_reads_each_probe_once(self):
        # each cone, each raised copy of the first four, the two pair-read
        # images, the two-disk union and each "core" probe: one call apiece
        row = sk.CANONICAL_MAPS["two_point"].transformer(PLANE)
        calls = []

        def T(f):
            calls.append(f)
            return row(f)

        assert sk.classify_rearrangement(T, GRID, PLANE, seed=0) == ("two_point", None)
        assert len(calls) == CONE_PROBES + 4 + 2 + 1 + CORE_PROBES == 19

    def test_non_rearrangement_rejected(self):
        with pytest.raises(NotARearrangement):
            sk.classify_rearrangement(
                lambda f: f.with_values(f.values + 1.0), GRID, PLANE, seed=0
            )

    @pytest.mark.parametrize("dims", [(9,), (6, 6), (5, 7), (4, 4, 4)], ids=str)
    def test_each_row_reads_its_own_label_or_raises_at_every_plane(self, dims):
        grid = sk.centered_grid(dims, 0.25)
        for plane, on_plane in admissible_planes(grid):
            mirrors = plane.reflect(grid.centers())
            inside = np.all((mirrors > grid.origin) & (mirrors < grid.upper), axis=1)
            paired = np.any(inside & ~on_plane.ravel())  # some cell off the plane has its mirror in the grid
            for label, row in sk.CANONICAL_MAPS.items():
                if not paired:  # some rows coincide there: identity and two-point at an edge plane
                    with pytest.raises(ValueError, match="pairs no cells"):
                        sk.classify_rearrangement(row.transformer(plane), grid, plane, seed=0)
                    continue
                try:
                    got = sk.classify_rearrangement(row.transformer(plane), grid, plane, seed=0)
                except NotARearrangement:
                    assert label != "identity", plane  # the identity is a rearrangement at every plane
                    continue
                assert got == (label, None), (label, plane)


# the images of {x} and {x'} under each rule, x in H+ and x' its mirror
RULE_IMAGES = {
    "identity": lambda sx, sm: (sx, sm),
    "reflection": lambda sx, sm: (sm, sx),
    "two_point": lambda sx, sm: (sx | sm, sx & sm),
    "two_point_reflected": lambda sx, sm: (sx & sm, sx | sm),
}


def center_plane_pairs(dims):
    """(x, x') flat indices of the mirror pairs across the center plane of the last axis, x in
    the upper half, in scan order of x; worked out in index arithmetic, i' = m - 1 - i.  On an
    odd axis the middle cell lies on the plane and pairs with nothing."""
    idx = np.indices(dims).reshape(len(dims), -1)
    m = dims[-1]
    upper = idx[-1] >= (m + 1) // 2
    mirror = idx.copy()
    mirror[-1] = m - 1 - idx[-1]
    return np.flatnonzero(upper), np.ravel_multi_index(mirror[:, upper], dims)


def pair_local_map(rules, x, xm):
    """The set map moving the pair (x[k], xm[k]) by the rule ``rules[k]``."""

    def apply(a):
        flat = a.mask.ravel()
        out = flat.copy()
        for rule, cx, cm in zip(rules, x, xm):
            out[cx], out[cm] = RULE_IMAGES[rule](flat[cx], flat[cm])
        return sk.GridSet(a.grid, out.reshape(a.grid.dims))

    return apply


class TestPairReadDecodesEveryPairLocalMap:
    """ROADMAP item 6: the 4^p pair-local maps, each rule a canonical one."""

    @pytest.mark.parametrize("dims", [(1, 6), (2, 4), (1, 5)], ids=str)
    def test_all_assignments(self, dims):
        grid = sk.centered_grid(dims, 0.25)
        plane = sk.axis_plane(1, 2, 0.0, 1)
        x, xm = center_plane_pairs(dims)
        index = lambda c: tuple(int(i) for i in np.unravel_index(c, dims))
        for rules in itertools.product(sk.CANONICAL_MAPS, repeat=len(x)):
            T = layer_cake(pair_local_map(rules, x, xm))
            label, witness = sk.classify_rearrangement(T, grid, plane, seed=0)
            if len(set(rules)) == 1:
                assert (label, witness) == (rules[0], None), rules
                continue
            k = next(k for k, rule in enumerate(rules) if rule != rules[0])
            went_x, went_m = RULE_IMAGES[rules[k]](True, False), RULE_IMAGES[rules[k]](False, True)
            assert label == "other", rules
            assert witness == {
                "reason": "mirror pairs move by different rules",
                "pair": (index(x[k]), index(xm[k])),
                "x_went_to": [index(c) for c, hit in zip((x[k], xm[k]), went_x) if hit],
                "mirror_went_to": [index(c) for c, hit in zip((x[k], xm[k]), went_m) if hit],
            }, rules

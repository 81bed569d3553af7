"""Acceptance criteria, one test per criterion.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all);
tolerances and runtime budgets are pinned in the assertions.
"""

import functools
import time

import numpy as np
import pytest
from chord_oracle import chords_at
from map_helpers import compose

import symmkit as sk
from symmkit.experiments import run_convergence
from symmkit.harness import (
    modulus_profile,
    random_blob_function,
    random_convex_polygon,
    random_symmetric_polygon,
    run_gallery,
    trial_rng,
)

GRID64 = sk.centered_grid((64, 64), 1.0 / 16.0)
GRID32 = sk.centered_grid((32, 32), 1.0 / 8.0)
PLANE64 = sk.axis_plane(1, 2, 0.0, 1)
U = np.array([0.0, 1.0])


def criterion(num, name, budget=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} ({name}): FAIL")
                raise
            elapsed = time.perf_counter() - start
            line = f"criterion {num:2d} ({name}): PASS [{elapsed:.2f}s]"
            print(line)
            if budget is not None:
                assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s budget"
        return wrapper

    return deco


def rand64(i):
    return random_blob_function(trial_rng(1001, i), GRID64)


@criterion(1, "equimeasurability", budget=5.0)
def test_criterion_01_equimeasurability():
    polar = lambda f: sk.polarize(f, PLANE64)
    for i in range(200):
        f = rand64(i)
        assert sk.distribution(polar(f)) == sk.distribution(f)
    # named fixtures
    g1 = sk.Grid((8,), (-1.0,), 0.25)
    fixtures = [
        sk.GridFunction(g1, (np.arange(8) < 2).astype(float)),
        sk.GridFunction(g1, np.full(8, 3.0)),
        sk.disk_raster(GRID64, (0.0, 0.0), 1.0).indicator(),
        sk.disk_raster(GRID64, (0.5, -1.0), 0.5).indicator(),
    ]
    for f in fixtures:
        plane = sk.axis_plane(f.grid.n - 1, f.grid.n, 0.0, 1)
        assert sk.distribution(sk.polarize(f, plane)) == sk.distribution(f)


@criterion(2, "lp contraction", budget=5.0)
def test_criterion_02_lp_contraction():
    vol = GRID64.cell_volume
    for i in range(200):
        f, g = rand64(i), rand64(10_000 + i)
        d0 = f.values - g.values
        d1 = sk.polarize(f, PLANE64).values - sk.polarize(g, PLANE64).values
        for p in (1.0, 2.0):
            lhs = (np.sum(np.abs(d1) ** p) * vol) ** (1.0 / p)
            rhs = (np.sum(np.abs(d0) ** p) * vol) ** (1.0 / p)
            assert lhs <= rhs + 1e-12
        assert np.abs(d1).max() <= np.abs(d0).max() + 1e-12


@criterion(3, "modulus reduction", budget=30.0)
def test_criterion_03_modulus_reduction():
    plane = sk.axis_plane(1, 2, 0.0, 1)
    for i in range(50):
        f = random_blob_function(trial_rng(1003, i), GRID32)
        ds, before = modulus_profile(f)
        ds2, after = modulus_profile(sk.polarize(f, plane))
        assert np.array_equal(ds, ds2)
        assert np.all(after <= before + 1e-12)


@criterion(4, "layer-cake identity")
def test_criterion_04_layer_cake():
    plane = sk.axis_plane(1, 2, 0.0, 1)
    maps = {
        "two_point": (lambda a: sk.polarize_set(a, plane), lambda f: sk.polarize(f, plane)),
        "identity": (lambda a: a, lambda f: f),
        "reflection": (
            lambda a: sk.reflect_grid_set(a, plane),
            lambda f: sk.reflect_grid_function(f, plane),
        ),
    }
    for i in range(100):
        f = random_blob_function(trial_rng(1004, i), GRID32)
        assert len(np.unique(f.values)) <= 32
        for dmap, expect in maps.values():
            assert sk.layer_cake_rearrangement(dmap, f) == expect(f)


@criterion(5, "monotone commutation")
def test_criterion_05_commutation():
    plane = sk.axis_plane(1, 2, 0.0, 1)
    rng = trial_rng(1005, 0)
    phis = []
    for j in range(20):
        if j % 2 == 0:
            ts = np.sort(rng.uniform(-1.0, 9.0, 5))
            ts = ts[np.concatenate([[True], np.diff(ts) > 1e-9])]
            phis.append(("pl", ts, np.sort(rng.uniform(-3.0, 12.0, len(ts)))))
        else:
            th = np.sort(rng.uniform(0.0, 8.0, 4))
            th = th[np.concatenate([[True], np.diff(th) > 1e-9])]
            phis.append(("step", th, np.sort(rng.uniform(0.0, 6.0, len(th))), -2.0))
    for i in range(20):
        f = random_blob_function(trial_rng(1015, i), GRID32)
        pf = sk.polarize(f, plane)
        for phi in phis:
            assert compose(pf, phi) == sk.polarize(compose(f, phi), plane)


@criterion(6, "canonical correspondence")
def test_criterion_06_canonical_correspondence():
    def expected(poly, name, xs):
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

    rng = trial_rng(1006, 0)
    for i in range(50):
        poly = random_convex_polygon(rng)
        for name in ("id", "neg", "abs", "negabs"):
            region = sk.chord_move_polygon(poly, sk.canonical_contraction(name, 8.0), U)
            elo, ehi = expected(poly, name, region.xs)
            assert np.abs(region.lower - elo).max() <= 1e-9
            assert np.abs(region.upper - ehi).max() <= 1e-9


@criterion(7, "eikonal perimeter")
def test_criterion_07_eikonal_perimeter():
    rng = trial_rng(1007, 0)
    saw = sk.sawtooth_contraction(1.0, 8.0)
    for i in range(50):
        poly = random_convex_polygon(rng)
        # random unit-slope contraction plus the sawtooth
        ts = np.sort(rng.uniform(-8.0, 8.0, 5))
        ts = np.concatenate([[-9.0], ts, [9.0]])
        ts = ts[np.concatenate([[True], np.diff(ts) > 1e-6])]
        slopes = rng.choice([-1.0, 1.0], size=len(ts) - 1)
        phi = sk.PLContraction(ts, np.concatenate([[0.0], np.cumsum(slopes * np.diff(ts))]))
        for contraction in (phi, saw):
            region = sk.chord_move_polygon(poly, contraction, U)
            assert abs(sk.perimeter_region(region) - poly.perimeter()) <= 1e-9
    # reverse direction on the wedge fixture with interior slope 1/2
    t0, r0 = 2.0, 0.5
    wedge = sk.ConvexPolygon(
        [[t0 - r0, 0.0], [t0 + r0, 0.0], [t0 + r0, 2 * (t0 + r0)], [t0 - r0, 2 * (t0 - r0)]]
    )
    half = sk.PLContraction([-8.0, 8.0], [-4.0, 4.0])
    up, lo = sk.graph_lengths(sk.chord_move_polygon(wedge, half, U))
    assert abs((up + lo) - (np.sqrt(3.25) + np.sqrt(1.25)) * 2 * r0) <= 1e-9
    up0, lo0 = sk.graph_lengths(sk.chord_move_polygon(wedge, sk.canonical_contraction("id"), U))
    assert abs((up0 + lo0) - (np.sqrt(5.0) + 1.0) * 2 * r0) <= 1e-9


@criterion(8, "symmetric translate law")
def test_criterion_08_translate_law():
    rng = trial_rng(1008, 0)
    saw = sk.sawtooth_contraction(1.0, 16.0)
    for i in range(50):
        poly = random_symmetric_polygon(rng, U)
        for t in np.linspace(-2.0, 2.0, 20):
            region = sk.chord_move_polygon(poly.translate(t * U), saw, U)
            lo, hi, ok = chords_at(poly, U, region.xs)
            assert ok.all()
            shift = saw(t)
            assert np.abs(region.lower - (lo + shift)).max() <= 1e-9
            assert np.abs(region.upper - (hi + shift)).max() <= 1e-9


@criterion(9, "sampling oracle agreement")
def test_criterion_09_union_oracle():
    rng = trial_rng(1009, 0)
    samples = 10_000
    for i in range(10):
        poly = random_convex_polygon(rng, points=3, min_area=0.5)
        phi = sk.canonical_contraction("abs", 8.0) if i % 2 else sk.sawtooth_contraction(1.0, 8.0)
        region = sk.chord_move_polygon(poly, phi, U)
        approx = sk.union_of_translates(poly, phi, U, samples=samples)
        stations = np.unique(poly.vertices @ np.array([1.0, 0.0]))
        lo, hi, _ = chords_at(poly, U, stations)
        mids = (lo + hi) / 2.0
        bound = 2.0 * float(mids.max() - mids.min()) / samples
        assert sk.chordwise_distance(approx, region) <= bound


@criterion(10, "counterexample gallery", budget=10.0)
def test_criterion_10_gallery():
    summary = run_gallery(seed=7, trials=20)
    assert summary["all_match"]


@criterion(11, "polarization convergence", budget=60.0)
def test_criterion_11_convergence():
    f0 = random_blob_function(np.random.default_rng(42), GRID64)
    trace = run_convergence(f0, 1, 2000, seed=42)  # checks equimeasurability per step
    assert trace.final_l1 <= 0.1 * trace.initial_l1
    # frozen observed value: this seeded run reaches the symmetral exactly
    assert trace.final_l1 == 0.0
    assert sk.distribution(trace.final) == sk.distribution(f0)

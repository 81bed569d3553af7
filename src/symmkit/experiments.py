"""Iterated two-point convergence experiment, verification battery, gallery."""

from __future__ import annotations

import csv
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .chordmaps import (
    blaschke_composite_set_map,
    chord_movement_set_map,
    cog_reflection_set_map,
    grid_perimeter,
    identity_set_map,
    near_swap_set_map,
    polarization_set_map,
)
from .contractions import sawtooth_contraction
from .errors import GalleryMismatch
from .geometry import (
    GridFunction,
    GridSet,
    axis_plane,
    box_raster,
    distribution,
)
from .harness import (
    DEFAULT_GRID,
    check_equimeasurable,
    check_lp_contracting,
    check_modulus_reducing,
    check_monotonic,
    check_setmap_properties,
    classify_rearrangement,
    random_blob_set,
    random_convex_raster,
    symmetric_raster,
    trial_rng,
    two_disk_symmetric_set,
)
from .polygons import ConvexPolygon, polygon_raster
from .rearrange import (
    CANONICAL_TRANSFORMERS,
    layer_cake_rearrangement,
    polarize,
    steiner_symmetrize_function,
)


def worker_count():
    """Thread count for fan-out sections; SYMMKIT_THREADS overrides, default 1."""
    raw = os.environ.get("SYMMKIT_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


@dataclass
class ConvergenceTrace:
    """Per-iteration distances to the target symmetral."""

    rows: list = field(default_factory=list)
    initial_l1: float = 0.0
    increased_steps: list = field(default_factory=list)
    final: GridFunction = None

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "l1", "linf", "normal", "offset"])
            for row in self.rows:
                writer.writerow(
                    [
                        row["k"],
                        repr(row["l1"]),
                        repr(row["linf"]),
                        ",".join(repr(c) for c in row["normal"]),
                        repr(row["offset"]),
                    ]
                )

    @property
    def final_l1(self):
        return self.rows[-1]["l1"] if self.rows else self.initial_l1


def _toward_center_plane(grid, axis, offset):
    center = grid.center[axis]
    positive = 1 if offset <= center else -1
    return axis_plane(axis, grid.n, offset, positive)


def draw_polarization_plane(grid, axis, rng):
    """Random admissible hyperplane parallel to the target, oriented toward it.

    Offsets live on the half-cell lattice strictly inside the grid box; the
    positive side is chosen to contain the central target plane.
    """
    m = grid.dims[axis]
    j = int(rng.integers(1, 2 * m))  # half-lattice position, interior only
    offset = grid.origin[axis] + j * grid.spacing / 2.0
    return _toward_center_plane(grid, axis, offset)


def run_convergence(f, axis, iterations, seed=0, planes=None):
    """Iterate two-point rearrangements toward the symmetric-decreasing target.

    Records L1/Linf distances (in grid measure) to the per-column
    symmetric-decreasing rearrangement after each step and verifies that
    every iterate keeps the exact distribution profile of the input.
    L1 monotonicity is measured, not assumed: steps that increase the
    distance are collected in ``increased_steps``.
    """
    if iterations < 1:
        raise ValueError("iteration count must be at least 1")
    grid = f.grid
    target = steiner_symmetrize_function(f, axis)
    profile = distribution(f)
    rng = np.random.default_rng(seed)
    vol = grid.cell_volume

    def distances(g):
        diff = g.values - target.values
        return float(np.abs(diff).sum() * vol), float(np.abs(diff).max())

    trace = ConvergenceTrace()
    trace.initial_l1 = distances(f)[0]
    current = f
    prev_l1 = trace.initial_l1
    for k in range(1, int(iterations) + 1):
        plane = planes[k - 1] if planes is not None else draw_polarization_plane(grid, axis, rng)
        current = polarize(current, plane)
        if distribution(current) != profile:
            raise AssertionError("iterate lost the distribution profile")
        l1, linf = distances(current)
        if l1 > prev_l1:
            trace.increased_steps.append(k)
        prev_l1 = l1
        trace.rows.append(
            {"k": k, "l1": l1, "linf": linf, "normal": plane.normal, "offset": plane.offset}
        )
    trace.final = current
    return trace


# ---------------------------------------------------------------------------
# Verification battery (the `verify` CLI subcommand)
# ---------------------------------------------------------------------------


def run_verify(trials=200, seed=7, grid=DEFAULT_GRID):
    """Property suites for the four canonical transformers and two set maps.

    Everything here is expected to hold; returns (report dict, all_hold).
    """
    if trials < 1:
        raise ValueError("trial count must be at least 1")
    plane = axis_plane(1, grid.n, 0.0, 1)
    transformers = {name: functools.partial(t, plane=plane) for name, t in CANONICAL_TRANSFORMERS.items()}
    report = {"transformers": {}, "set_maps": {}}
    all_hold = True

    def run_one(item):
        name, t = item
        out = {}
        out["equimeasurable"] = check_equimeasurable(t, trials, seed, grid)
        out["monotonic"] = check_monotonic(t, trials, seed, grid)
        for p in (1, 2, np.inf):
            out[f"lp_contracting[p={p}]"] = check_lp_contracting(t, p, trials, seed, grid)
        out["modulus_reducing"] = check_modulus_reducing(t, min(trials, 20), seed, grid)
        return name, out

    items = list(transformers.items())
    if worker_count() > 1:
        with ThreadPoolExecutor(max_workers=worker_count()) as pool:
            results = list(pool.map(run_one, items))
    else:
        results = [run_one(item) for item in items]
    for name, out in results:
        report["transformers"][name] = {k: r.as_dict() for k, r in out.items()}
        all_hold &= all(r.holds is not False for r in out.values())

    for dmap in (polarization_set_map(plane), identity_set_map()):
        bundle = check_setmap_properties(dmap, min(trials, 100), seed, grid, plane=plane)
        report["set_maps"][dmap.name] = {k: r.as_dict() for k, r in bundle.items()}
        all_hold &= all(r.holds is not False for r in bundle.values())

    report["all_hold"] = bool(all_hold)
    return report, bool(all_hold)


# ---------------------------------------------------------------------------
# Counterexample gallery
# ---------------------------------------------------------------------------


def _verdict(flag):
    if flag is None:
        return "not_representable"
    return "holds" if flag else "fails"


def _row_sawtooth(grid, plane, seed, trials):
    phi = sawtooth_contraction(1.0, half_width=8.0)
    dmap = chord_movement_set_map(phi, axis=1, plane=plane, name="sawtooth_chord_movement")
    bundle = check_setmap_properties(dmap, trials, seed, grid)
    checks = {name: r.verdict for name, r in bundle.items() if r.holds is not None}
    lift = lambda f: layer_cake_rearrangement(dmap, f)
    label, _ = classify_rearrangement(lift, grid, plane, seed)
    checks["canonical_four_match"] = "holds" if label != "other" else "fails"
    expected = {name: "holds" for name in checks}
    expected["canonical_four_match"] = "fails"
    return checks, expected


def _row_shake(grid, plane, seed, trials):
    composite = blaschke_composite_set_map(plane)
    two_point = polarization_set_map(plane)
    agree = True
    for i in range(trials):
        raster, _ = random_convex_raster(trial_rng(seed, i), grid)
        if composite(raster) != two_point(raster):
            agree = False
            break
    union = two_disk_symmetric_set(grid, plane, 0.75, 0.35)
    differs = composite(union) != two_point(union)
    checks = {
        "matches_two_point_on_convex": _verdict(agree),
        "two_disk_union_invariant": _verdict(composite(union) == union),
        "differs_on_two_disk_union": _verdict(differs),
    }
    expected = {
        "matches_two_point_on_convex": "holds",
        "two_disk_union_invariant": "fails",
        "differs_on_two_disk_union": "holds",
    }
    return checks, expected


def _cone_and_double_cone(grid):
    # apex-up cone inside the symmetric double cone, both rastered
    cone = ConvexPolygon(np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    double = ConvexPolygon(np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
    return polygon_raster(grid, cone), polygon_raster(grid, double)


def _row_cog(grid, plane, seed, trials):
    dmap = cog_reflection_set_map(u_axis=1)
    cone, double = _cone_and_double_cone(grid)
    nested_after = not np.any(dmap(cone).mask & ~dmap(double).mask)
    # keep fixtures in a central core: a set within [-W, W] of the center
    # reflects into [-3W, 3W], so W at an eighth of the extent stays in-grid
    span = 0.125 * min(up - o for o, up in zip(grid.origin, grid.upper))
    core = box_raster(grid, [c - span for c in grid.center], [c + span for c in grid.center])
    measure_ok = True
    for i in range(trials):
        a = random_blob_set(trial_rng(seed, i), grid)
        a = GridSet(grid, a.mask & core.mask)
        if a.cell_count == 0:
            continue
        if dmap(a).cell_count != a.cell_count:
            measure_ok = False
            break
    symmetric_ok = True
    for i in range(trials):
        a = symmetric_raster(trial_rng(seed, 1000 + i), plane, grid)
        if dmap(a) != a:
            symmetric_ok = False
            break
    checks = {
        "monotonic_on_cone_pair": _verdict(nested_after),
        "measure_preserving": _verdict(measure_ok),
        "symmetric_invariant": _verdict(symmetric_ok),
    }
    expected = {
        "monotonic_on_cone_pair": "fails",
        "measure_preserving": "holds",
        "symmetric_invariant": "holds",
    }
    return checks, expected


def _row_near_swap(grid, plane, seed, trials):
    dmap = near_swap_set_map(plane, width=1.0)
    mono_ok = True
    measure_ok = True
    for i in range(trials):
        rng = trial_rng(seed, i)
        big = random_blob_set(rng, grid)
        keep = rng.random(grid.dims) < 0.7
        small = GridSet(grid, big.mask & keep)
        if np.any(dmap(small).mask & ~dmap(big).mask):
            mono_ok = False
        if dmap(big).cell_count != big.cell_count:
            measure_ok = False
    symmetric_ok = True
    for i in range(trials):
        a = symmetric_raster(trial_rng(seed, 2000 + i), plane, grid)
        if dmap(a) != a:
            symmetric_ok = False
            break
    square = box_raster(grid, (0.0, 0.5), (1.0, 1.5))
    changed = abs(grid_perimeter(dmap(square)) - grid_perimeter(square)) > 1e-12
    checks = {
        "monotonic": _verdict(mono_ok),
        "measure_preserving": _verdict(measure_ok),
        "symmetric_invariant": _verdict(symmetric_ok),
        "perimeter_on_straddling_square": _verdict(not changed),
    }
    expected = {
        "monotonic": "holds",
        "measure_preserving": "holds",
        "symmetric_invariant": "holds",
        "perimeter_on_straddling_square": "fails",
    }
    return checks, expected


def _row_closure(grid, plane, seed, trials):
    # closure-of-interior acts as the identity at grid scale
    return {"grid_scale_effect": "not_representable"}, {"grid_scale_effect": "not_representable"}


def run_gallery(seed=7, trials=20, grid=DEFAULT_GRID, strict=True):
    """Reproduce the counterexample fixtures and compare verdict matrices.

    Returns a summary dict with one row per fixture; with ``strict`` a
    mismatch raises GalleryMismatch (the summary rides on the exception).
    """
    if trials < 1:
        raise ValueError("trial count must be at least 1")
    plane = axis_plane(1, grid.n, 0.0, 1)
    rows = (
        ("sawtooth_chord_movement", _row_sawtooth),
        ("shake_after_polarization", _row_shake),
        ("cog_reflection", _row_cog),
        ("near_boundary_swap", _row_near_swap),
        ("closure_of_interior", _row_closure),
    )

    def run_row(item):
        name, fn = item
        checks, expected = fn(grid, plane, seed, trials)
        return {
            "example": name,
            "checks": checks,
            "expected": expected,
            "match": checks == expected,
        }

    if worker_count() > 1:
        with ThreadPoolExecutor(max_workers=worker_count()) as pool:
            results = list(pool.map(run_row, rows))
    else:
        results = [run_row(item) for item in rows]

    summary = {"rows": results, "all_match": all(r["match"] for r in results), "seed": seed}
    if strict and not summary["all_match"]:
        bad = [r["example"] for r in results if not r["match"]]
        exc = GalleryMismatch(f"verdicts deviate from the expected matrix: {bad}")
        exc.summary = summary
        raise exc
    return summary

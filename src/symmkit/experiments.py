"""Iterated two-point convergence experiment, verification battery, gallery."""

from __future__ import annotations

import csv
import functools
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
from .geometry import GridFunction, axis_plane, box_raster, distribution
from .harness import (
    DEFAULT_GRID,
    SETMAP_LAWS,
    check_setmap_law,
    check_setmap_properties,
    check_transformers,
    classify_rearrangement,
    random_convex_raster,
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
    """Always 1: verify and gallery run serially; kept for the benchmark's traced runs."""
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


def draw_polarization_plane(grid, axis, rng):
    """Random admissible hyperplane parallel to the target, oriented toward it.

    Offsets live on the half-cell lattice strictly inside the grid box; the
    positive side is chosen to contain the central target plane.
    """
    m = grid.dims[axis]
    j = int(rng.integers(1, 2 * m))  # half-lattice position, interior only
    offset = grid.origin[axis] + j * grid.spacing / 2.0
    return axis_plane(axis, grid.n, offset, 1 if offset <= grid.center[axis] else -1)


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
    if planes is not None and len(planes) < iterations:
        raise ValueError(f"{iterations} iterations need {iterations} planes, got {len(planes)}")
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
    for name, out in check_transformers(transformers, trials, seed, grid).items():
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
    return "holds" if flag else "fails"


def _canonical_four_match(dmap, grid, plane, seed, trials):
    label, _ = classify_rearrangement(lambda f: layer_cake_rearrangement(dmap, f), grid, plane, seed)
    return {"canonical_four_match": _verdict(label != "other")}


def _shake_vs_two_point(dmap, grid, plane, seed, trials):
    two_point = polarization_set_map(plane)
    rasters = (random_convex_raster(trial_rng(seed, i), grid)[0] for i in range(trials))
    union = two_disk_symmetric_set(grid, plane, 0.75, 0.35)
    return {
        "matches_two_point_on_convex": _verdict(all(dmap(r) == two_point(r) for r in rasters)),
        "two_disk_union_invariant": _verdict(dmap(union) == union),
        "differs_on_two_disk_union": _verdict(dmap(union) != two_point(union)),
    }


def _cone_pair(dmap, grid, plane, seed, trials):
    # apex-up cone inside the symmetric double cone, both rastered
    cone = polygon_raster(grid, ConvexPolygon([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    double = polygon_raster(grid, ConvexPolygon([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
    return {"monotonic_on_cone_pair": _verdict(not np.any(dmap(cone).mask & ~dmap(double).mask))}


def _straddling_square(dmap, grid, plane, seed, trials):
    square = box_raster(grid, (0.0, 0.5), (1.0, 1.5))
    changed = abs(grid_perimeter(dmap(square)) - grid_perimeter(square)) > 1e-12
    return {"perimeter_on_straddling_square": _verdict(not changed)}


def _closure_of_interior(dmap, grid, plane, seed, trials):
    # closure-of-interior acts as the identity at grid scale
    return {"grid_scale_effect": "not_representable"}


# (example, set map of the plane, expected verdicts, fixture check); expected
# keys that name a law of harness.SETMAP_LAWS are checked by the harness, the
# rest by the fixture check (set map, grid, plane, seed, trials) -> verdicts
GALLERY_ROWS = (
    (
        "sawtooth_chord_movement",
        lambda plane: chord_movement_set_map(
            sawtooth_contraction(1.0, half_width=8.0), axis=1, plane=plane, name="sawtooth_chord_movement"
        ),
        {**dict.fromkeys(SETMAP_LAWS, "holds"), "canonical_four_match": "fails"},
        _canonical_four_match,
    ),
    (
        "shake_after_polarization",
        blaschke_composite_set_map,
        {
            "matches_two_point_on_convex": "holds",
            "two_disk_union_invariant": "fails",
            "differs_on_two_disk_union": "holds",
        },
        _shake_vs_two_point,
    ),
    (
        "cog_reflection",
        lambda plane: cog_reflection_set_map(u_axis=1),
        {"measure_preserving": "holds", "symmetric_invariant": "holds", "monotonic_on_cone_pair": "fails"},
        _cone_pair,
    ),
    (
        "near_boundary_swap",
        near_swap_set_map,
        {
            "monotonic": "holds",
            "measure_preserving": "holds",
            "symmetric_invariant": "holds",
            "perimeter_on_straddling_square": "fails",
        },
        _straddling_square,
    ),
    (
        "closure_of_interior",
        lambda plane: identity_set_map(),
        {"grid_scale_effect": "not_representable"},
        _closure_of_interior,
    ),
)


def run_gallery(seed=7, trials=20, grid=DEFAULT_GRID, strict=True):
    """Reproduce the counterexample fixtures and compare verdict matrices.

    Returns a summary dict with one row per fixture; with ``strict`` a
    mismatch raises GalleryMismatch (the summary rides on the exception).
    """
    if trials < 1:
        raise ValueError("trial count must be at least 1")
    plane = axis_plane(1, grid.n, 0.0, 1)
    results = []
    for example, set_map, expected, check in GALLERY_ROWS:
        dmap = set_map(plane)
        checks = {
            law: check_setmap_law(law, dmap, trials, seed, grid, plane).verdict
            for law in expected
            if law in SETMAP_LAWS
        }
        checks.update(check(dmap, grid, plane, seed, trials))
        match = checks == expected
        results.append({"example": example, "checks": checks, "expected": dict(expected), "match": match})

    summary = {"rows": results, "all_match": all(r["match"] for r in results), "seed": seed}
    if strict and not summary["all_match"]:
        bad = [r["example"] for r in results if not r["match"]]
        exc = GalleryMismatch(f"verdicts deviate from the expected matrix: {bad}")
        exc.summary = summary
        raise exc
    return summary

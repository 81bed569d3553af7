"""Seeded property suites for function transformers and set maps.

Every check runs a fixed number of independent trials; trial ``i`` of a run
with seed ``s`` draws from ``numpy.random.default_rng((s, i))``, so a failed
trial is replayable from the (seed, trial) pair alone.  Verdicts are exact:
grids have no null sets, so no measure-zero slack is granted anywhere.

One runner scores both law catalogs: :func:`check_laws` scores the laws of
:data:`TRANSFORMER_LAWS` or :data:`SETMAP_LAWS`, optionally cut to named
laws, on a dict of named transformers or set maps.  Reports are keyed by
(subject, law).  Every key scored on a trial reads one :class:`_Draw`,
which makes each input on first read and keeps it: f, its partners and
``distribution(f)`` once for all transformers, and each set-map input once
for all maps of one domain and plane.  Each key keeps its own first failing
trial, so every report equals that of its law run on its subject alone.

:func:`classify_rearrangement` names the canonical map a transformer is, or
returns a witness that it is none of them.

The two batteries of the CLI run here too: :func:`run_verify` (``symmkit
verify``, one :func:`check_laws` call per catalog) and :func:`run_gallery`
over :data:`GALLERY_ROWS` (``symmkit gallery``, one call per row).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .chordmaps import (
    SET_MAP_DOMAINS,
    blaschke_composite_set_map,
    canonical_set_map,
    chord_move_polygon,
    chord_movement_set_map,
    cog_reflection_set_map,
    grid_perimeter,
    near_swap_set_map,
    perimeter_region,
)
from .contractions import sawtooth_contraction
from .errors import GalleryMismatch, NotARearrangement, SymmkitError, UnknownName
from .geometry import (
    Grid,
    GridFunction,
    GridSet,
    axis_plane,
    ball_mask,
    box_mask,
    box_raster,
    centered_grid,
    disk_raster,
    distribution,
    induced_set_map,
    reflect_grid_set,
)
from .polygons import ConvexPolygon, convex_hull, polygon_raster
from .rearrange import CANONICAL_MAPS, layer_cake_rearrangement

DEFAULT_GRID = centered_grid((32, 32), 1.0 / 8.0)
MAX_BLOB_LEVEL = 8  # blob levels are integers in 0..MAX_BLOB_LEVEL
LP_EXPONENTS = (1, 2, np.inf)  # the exponents of the L^p contraction law


def trial_rng(seed, trial):
    return np.random.default_rng((int(seed), int(trial)))


@dataclass
class PropertyReport:
    """Outcome of one property suite.

    ``holds`` is True/False for a decided verdict and None when the check is
    not applicable to the map.  A False verdict always carries the (seed,
    trial) pair plus a payload describing the violation.
    """

    name: str
    holds: bool
    trials: int
    seed: int
    counterexample: dict = None
    detail: str = ""

    @property
    def verdict(self):
        if self.holds is None:
            return "skipped"
        return "holds" if self.holds else "fails"

    def as_dict(self):
        out = {
            "property": self.name,
            "verdict": self.verdict,
            "trials": self.trials,
            "seed": self.seed,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.detail:
            out["detail"] = self.detail
        return out


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def random_blob_function(rng, grid=DEFAULT_GRID, max_blobs=5):
    """Sum of 1..max_blobs rasterized indicator blobs with integer levels."""
    lo = np.asarray(grid.origin)
    hi = np.asarray(grid.upper)
    span = hi - lo
    axes = grid.open_centers()
    values = np.zeros(grid.dims)
    for _ in range(int(rng.integers(1, max_blobs + 1))):
        level = float(rng.integers(0, MAX_BLOB_LEVEL + 1))
        if rng.random() < 0.5:
            c = lo + rng.random(grid.n) * span
            r = (0.1 + 0.3 * rng.random()) * span.min()
            mask = ball_mask(axes, c, r)
        else:
            a = lo + rng.random(grid.n) * span
            b = lo + rng.random(grid.n) * span
            mask = box_mask(axes, np.minimum(a, b), np.maximum(a, b))
        values += level * mask
    return GridFunction(grid, values)


def random_blob_set(rng, grid=DEFAULT_GRID, max_blobs=4):
    f = random_blob_function(rng, grid, max_blobs=max_blobs)
    mask = f.values > 0
    if not mask.any():
        mask = disk_raster(grid, grid.center, 2.5 * grid.spacing).mask
    return GridSet(grid, mask)


def _hull_polygon(draw, min_area):
    """Hull of the points ``draw()`` returns, redrawn until it is a strictly
    convex polygon of area at least ``min_area``."""
    while True:
        hull = convex_hull(draw())
        try:
            poly = ConvexPolygon(hull)
        except ValueError:  # fewer than three hull points, or not strictly convex
            continue
        if poly.area() >= min_area:
            return poly


def random_convex_polygon(rng, box=2.0, min_area=0.4, points=10):
    """Strictly convex ccw polygon with vertices inside [-box, box]^2."""
    return _hull_polygon(lambda: rng.uniform(-box, box, size=(points, 2)), min_area)


def random_symmetric_polygon(rng, u, box=2.0, min_area=0.4):
    """Convex polygon symmetric under reflection in the line u_perp through 0."""
    u = np.asarray(u, dtype=float)

    def draw():
        pts = rng.uniform(-box, box, size=(8, 2))
        return np.vstack([pts, pts - 2.0 * np.outer(pts @ u, u)])

    return _hull_polygon(draw, min_area)


def _shortest_side(grid):
    """Length of the grid box's shortest side."""
    return min(up - o for o, up in zip(grid.origin, grid.upper))


def _redrawn_raster(grid, draw, min_cells):
    """(raster, polygon) of ``draw(box, min_area)``, redrawn until the raster
    has at least ``min_cells`` cells; the box keeps the polygon inside the grid."""
    box = 0.45 * _shortest_side(grid)
    while True:
        poly = draw(box, (3 * grid.spacing) ** 2)
        raster = polygon_raster(grid, poly)
        if raster.cell_count >= min_cells:
            return raster, poly


def random_convex_raster(rng, grid=DEFAULT_GRID, min_cells=12):
    return _redrawn_raster(
        grid, lambda box, min_area: random_convex_polygon(rng, box=box, min_area=min_area), min_cells
    )


def _core_box(grid):
    """(box, place): the central box as a grid of its own, and the function that
    places a mask drawn on it into ``grid`` as a GridSet.

    The box holds the cells within W of the center on every axis: W is an
    eighth of the grid's shortest side, so a set in the box reflects through
    its center of gravity into [-3W, 3W], in the grid; on grids narrower than
    eight spacings W is one spacing, so the box is never empty.
    """
    w = max(0.125 * _shortest_side(grid), grid.spacing)
    core = box_mask(grid.open_centers(), [c - w for c in grid.center], [c + w for c in grid.center])
    cut = tuple(slice(i.min(), i.max() + 1) for i in np.nonzero(core))
    origin = tuple(o + s.start * grid.spacing for o, s in zip(grid.origin, cut))
    box = Grid(tuple(s.stop - s.start for s in cut), origin, grid.spacing)

    def place(mask):
        out = np.zeros(grid.dims, dtype=bool)
        out[cut] = mask
        return GridSet(grid, out)

    return box, place


def _sample(domain, rng, grid):
    """One random set from a map's declared domain."""
    if domain == "convex":
        return random_convex_raster(rng, grid)[0]
    if domain == "core":
        box, place = _core_box(grid)
        return place(random_blob_set(rng, box).mask)
    return random_blob_set(rng, grid)


def _nested_pair(domain, rng, grid):
    """(small, big) nested sets from a map's declared domain; a "core" ``small`` is never empty."""
    if domain == "convex":
        big, poly = random_convex_raster(rng, grid)
        return polygon_raster(grid, poly.scale_about_centroid(0.3 + 0.5 * rng.random())), big
    box, place = _core_box(grid) if domain == "core" else (grid, lambda mask: GridSet(grid, mask))
    big = random_blob_set(rng, box).mask
    small = big & (rng.random(box.dims) < 0.7)
    if domain == "core" and not small.any():  # the center of gravity of an empty set is undefined
        small = big
    return place(small), place(big)


def symmetric_raster(rng, plane, grid=DEFAULT_GRID, domain="all"):
    """Raster symmetric about the hyperplane: a symmetric polygon for the "convex"
    domain, otherwise a set drawn from ``domain`` joined with its mirror image;
    ValueError for a domain not in SET_MAP_DOMAINS."""
    if domain not in SET_MAP_DOMAINS:
        raise ValueError(f"set-map domain must be one of {SET_MAP_DOMAINS}, got {domain!r}")
    if domain == "convex":
        u = np.asarray(plane.normal)

        def draw(box, min_area):
            poly = random_symmetric_polygon(rng, u, box=box, min_area=min_area)
            return poly.translate(plane.offset * u) if plane.offset != 0.0 else poly

        return _redrawn_raster(grid, draw, 8)[0]
    a = _sample(domain, rng, grid)
    mirrored = reflect_grid_set(a, plane)
    return GridSet(grid, a.mask | mirrored.mask)


def centered_cylinder_raster(rng, plane, grid=DEFAULT_GRID):
    """Raster of a product body symmetric about the hyperplane: radius r in H,
    half-height s along the normal."""
    axes = grid.open_centers()
    normal = np.asarray(plane.normal)
    # per-axis terms summed in axis order, as ball_mask sums them
    proj = sum(x * c for x, c in zip(axes, normal))
    mid = np.asarray(grid.center)
    mid_h = mid - (mid @ normal) * normal
    span = 0.4 * _shortest_side(grid)
    r = (0.2 + 0.8 * rng.random()) * span
    s = (0.2 + 0.8 * rng.random()) * span
    radial = np.sqrt(sum((x - proj * c - m) ** 2 for x, c, m in zip(axes, normal, mid_h)))
    return GridSet(grid, (radial <= r) & (np.abs(proj - plane.offset) <= s))


def quantized_cone(grid, center, radius, levels=6):
    """Concave bump with integer levels; every super-level set is a disk raster."""
    d = np.sqrt(sum((x - c) ** 2 for x, c in zip(grid.open_centers(), np.asarray(center, dtype=float))))
    return GridFunction(grid, np.floor(np.clip(levels * (1.0 - d / radius), 0.0, levels)))


def _nearest_plane_point(grid, plane):
    """The point of the hyperplane nearest the grid center."""
    u = np.asarray(plane.normal, dtype=float)
    mid = np.asarray(grid.center)
    return mid - ((mid @ u) - plane.offset) * u


def two_disk_symmetric_set(grid, plane, offset, radius):
    """Union of two mirror-image disjoint disk rasters straddling the hyperplane."""
    u = np.asarray(plane.normal, dtype=float)
    base = _nearest_plane_point(grid, plane)
    a = disk_raster(grid, base + offset * u, radius)
    b = disk_raster(grid, base - offset * u, radius)
    return GridSet(grid, a.mask | b.mask)


# ---------------------------------------------------------------------------
# Function-transformer checks
# ---------------------------------------------------------------------------


def _trial_count(trials):
    """``trials`` as an int of at least 1; ValueError otherwise, before any law runs."""
    try:
        trials = operator.index(trials)
    except TypeError:
        raise ValueError(f"trial count must be an integer, got {trials!r}") from None
    if trials < 1:
        raise ValueError(f"trial count must be at least 1, got {trials}")
    return trials


def _run_trials(caps, seed, score):
    """Score laws together on seeded trials; one report per key.

    ``caps`` maps each (subject, law) key to its trial count; the subject is
    a transformer's or set map's name and the report's property is the law
    name.  ``score(rng, live)`` draws one trial's inputs from ``rng`` once,
    shared by every key in ``live`` (those with trials left that have not
    failed yet), and returns ``{key: payload or None}`` for them.  A key
    keeps its first failing trial and is not scored again, so each report
    equals that of a run scoring its law on its subject alone; the run stops
    once no key is live.
    """
    failed = {}
    for i in range(max(caps.values(), default=0)):
        live = [key for key, n in caps.items() if i < n and key not in failed]
        if not live:
            break
        for key, payload in score(trial_rng(seed, i), live).items():
            if payload is not None:
                payload.setdefault("trial", i)
                payload.setdefault("seed", int(seed))
                failed[key] = payload
    return {key: PropertyReport(key[1], key not in failed, n, seed, failed.get(key)) for key, n in caps.items()}


def modulus_profile(f):
    """Distinct center distances with the max |f(x)-f(y)| over pairs within them.

    Returns (distances, omegas): omegas[i] is the modulus of continuity at
    d = distances[i], i.e. the sup over all pairs at distance <= distances[i].
    Distances are grouped exactly via integer index offsets (cell distances
    on a uniform grid are spacing * sqrt(integer)).  A one-cell grid has no
    pairs and gives two empty arrays.

    Walks one of each +-o pair of index offsets instead of every cell pair,
    so memory stays O(N * dims[-1]).  The last axis is vectorised: a
    NaN-padded copy of it holds every last-axis offset as one window, and
    np.fmax skips the reads that fall off the grid (values are finite).

    The leading-axis offsets are walked nearest first, and the walk stops
    once the running max provably equals the span f.max - f.min.  Rounding
    is monotone, so no computed |f(x)-f(y)| exceeds the computed span; once
    a peak equals it at some d2, omega is the span from d2 on.  After a
    pass, every d2 below the next leading offset's |o|^2 is complete, so the
    walk stops when that d2 is at most the next |o|^2.  The offsets not
    walked keep their d2 (geometry alone) and take the span as their peak,
    and the result is that of the full walk, bit for bit.
    """
    values = f.values
    *lead, m = values.shape
    padded = np.full((*lead, 3 * m - 2), np.nan)
    padded[..., m - 1 : 2 * m - 1] = values
    # windows[..., s, i] reads the cell i + s - (m - 1) of the same row
    windows = np.lib.stride_tricks.sliding_window_view(padded, m, axis=-1)
    r2 = (np.arange(2 * m - 1) - (m - 1)) ** 2
    zero = (0,) * len(lead)
    # the mirror offset -o covers the pairs of every o < zero
    offsets = (o for o in itertools.product(*(range(1 - k, k) for k in lead)) if o >= zero)
    walk = sorted((sum(k * k for k in o), o) for o in offsets)  # nearest first
    span = values.max() - values.min()
    hit = np.inf  # the smallest d2 whose computed peak equals the span
    d2s, peaks = [], []
    walked = len(walk)
    for i, (o2, o) in enumerate(walk):
        if hit <= o2:
            walked = i
            break
        near = tuple(slice(max(0, -k), n - max(0, k)) for k, n in zip(o, lead))
        far = tuple(slice(max(0, k), n - max(0, -k)) for k, n in zip(o, lead))
        diff = windows[far] - values[near][..., None, :]
        np.abs(diff, out=diff)
        peak = np.fmax.reduce(diff, axis=tuple(range(len(lead))) + (len(lead) + 1,))
        first = m if o == zero else 0  # at o = 0 keep the positive last-axis offsets
        d2s.append(o2 + r2[first:])
        peaks.append(peak[first:])
        at_span = peaks[-1] == span
        if at_span.any():
            hit = min(hit, d2s[-1][at_span].min())
    # offsets never walked are nonzero; their d2 is geometry alone
    rest = np.array([o2 for o2, _ in walk[walked:]], dtype=r2.dtype)
    rest = (rest[:, None] + r2).ravel()
    d2s.append(rest)
    peaks.append(np.full(rest.size, span))
    d2 = np.concatenate(d2s)
    if d2.size == 0:
        return np.empty(0), np.empty(0)
    order = np.argsort(d2)  # a max per group does not depend on the order within it
    d2 = d2[order]
    starts = np.flatnonzero(np.concatenate([[True], np.diff(d2) > 0]))
    omegas = np.maximum.accumulate(np.maximum.reduceat(np.concatenate(peaks)[order], starts))
    return f.grid.spacing * np.sqrt(d2[starts].astype(float)), omegas


# ---------------------------------------------------------------------------
# Transformer law catalog
# ---------------------------------------------------------------------------

MODULUS_MAX_TRIALS = 20  # two modulus profiles per trial make it the dearest law


class _Draw:
    """One trial's inputs, shared by every (subject, law) scored on it.

    ``draw(key, make)`` runs ``make(rng)`` on the first read of ``key`` and
    keeps the result.  It runs from the trial's fresh rng state or, with
    ``after``, from the state just after that earlier input, so each input
    is the one a law drawing it alone gets; an input no live law reads is
    never made.  Values derived from inputs, like Tf, are kept the same way.
    """

    def __init__(self, rng, grid):
        self.rng = rng
        self.grid = grid
        self._fresh = rng.bit_generator.state
        self._kept = {}

    def __call__(self, key, make, after=None):
        if key not in self._kept:
            self.rng.bit_generator.state = self._fresh if after is None else self._kept[after][1]
            value = make(self.rng)
            self._kept[key] = value, self.rng.bit_generator.state
        return self._kept[key][0]


def _f(draw):
    """The trial's blob function, drawn first."""
    return draw("f", lambda rng: random_blob_function(rng, draw.grid))


def _tf(transformer, draw):
    """Tf, computed once per transformer; keyed by ``id`` so an unhashable transformer works."""
    f = _f(draw)
    return draw(("tf", id(transformer)), lambda rng: transformer(f))


def _keeps_distribution(transformer, plane, draw):
    """Exact (value, cell-count) profile comparison."""
    f = _f(draw)
    before = draw("distribution", lambda rng: distribution(f))
    after = distribution(_tf(transformer, draw))
    if before != after:
        return {"before": before.pairs()[:8], "after": after.pairs()[:8]}
    return None


def _keeps_order(transformer, plane, draw):
    """f <= g pointwise must imply Tf <= Tg pointwise, exactly; g is f plus a random nonnegative bump."""
    f = _f(draw)
    bump = draw("bump", lambda rng: random_blob_function(rng, draw.grid, max_blobs=2), after="f")
    tf, tg = _tf(transformer, draw).values, transformer(GridFunction(draw.grid, f.values + bump.values)).values
    bad = tf > tg
    if bad.any():
        cell = tuple(int(c) for c in np.argwhere(bad)[0])
        return {"cell": cell, "tf": float(tf[bad][0]), "tg": float(tg[bad][0])}
    return None


def _lp_sum(values, p):
    """Sum of |v|^p (max |v| for p = inf): ordered as the L^p norm, with no volume or root to round."""
    return np.abs(values).max() if p == np.inf else np.sum(np.abs(values) ** p)


def _lp_norm(values, p, cell_volume):
    total = _lp_sum(values, p)
    return float(total if p == np.inf else (total * cell_volume) ** (1.0 / p))


def _lp_diffs(transformer, draw):
    """(Tf - Tg, f - g) for the trial's independent partner g, once per transformer."""
    f, tf = _f(draw), _tf(transformer, draw)
    g = draw("g", lambda rng: random_blob_function(rng, draw.grid), after="f")
    return draw(("lp", id(transformer)), lambda rng: (tf.values - transformer(g).values, f.values - g.values))


def _contracts_lp(p):
    """||Tf - Tg||_p <= ||f - g||_p, exactly."""

    def score(transformer, plane, draw):
        image_diff, diff = _lp_diffs(transformer, draw)
        if _lp_sum(image_diff, p) <= _lp_sum(diff, p):
            return None
        lhs, rhs = (_lp_norm(d, p, draw.grid.cell_volume) for d in (image_diff, diff))
        return {"p": str(p), "lhs": lhs, "rhs": rhs}

    return score


def _reduces_modulus(transformer, plane, draw):
    """omega_d(Tf) <= omega_d(f) for every grid distance d, exactly."""
    f, tf = _f(draw), _tf(transformer, draw)
    ds, before = draw("profile", lambda rng: modulus_profile(f))
    # a profile is a function of the values alone: f's is Tf's when Tf equals f
    _, after = (ds, before) if np.array_equal(tf.values, f.values) else modulus_profile(tf)
    bad = after > before
    if bad.any():
        j = int(np.argmax(bad))
        return {"distance": float(ds[j]), "before": float(before[j]), "after": float(after[j])}
    return None


@dataclass(frozen=True)
class Law:
    """One law of a catalog: ``trial`` scores one trial and returns None or a counterexample.

    ``trial`` takes (subject, plane, draw): the transformer or set map, its
    own plane or else the reference plane (transformer laws ignore it), and
    the trial's :class:`_Draw`.  ``max_trials`` caps the trial count.  A law
    that ``needs`` the "plane" or the subject's "contraction" is skipped
    without it.
    """

    trial: callable
    needs: str = None
    max_trials: int = None


_LP_NAMES = {p: f"lp_contracting[p={p}]" for p in LP_EXPONENTS}

# every law a transformer is checked against, in report order; ``verify``
# scores them all, for all four canonical transformers, on one shared draw
# per trial
TRANSFORMER_LAWS = {
    "equimeasurable": Law(_keeps_distribution),
    "monotonic": Law(_keeps_order),
    **{name: Law(_contracts_lp(p)) for p, name in _LP_NAMES.items()},
    "modulus_reducing": Law(_reduces_modulus, max_trials=MODULUS_MAX_TRIALS),
}


# ---------------------------------------------------------------------------
# Set-map law catalog
# ---------------------------------------------------------------------------


def _monotonic(dmap, plane, draw):
    small, big = draw(("nested", dmap.domain), lambda rng: _nested_pair(dmap.domain, rng, draw.grid))
    isub = dmap(small).mask & ~dmap(big).mask
    if isub.any():
        return {"cell": tuple(int(c) for c in np.argwhere(isub)[0])}
    return None


def _sampled(dmap, draw):
    """One set from the map's domain, read by two laws."""
    return draw(("sample", dmap.domain), lambda rng: _sample(dmap.domain, rng, draw.grid))


def _measure_preserving(dmap, plane, draw):
    a = _sampled(dmap, draw)
    image = dmap(a)
    if image.cell_count != a.cell_count:
        return {"cells_before": a.cell_count, "cells_after": image.cell_count}
    return None


def _unless_fixed(dmap, a):
    return None if dmap(a) == a else {"cells": a.cell_count}


def _symmetric_invariant(dmap, plane, draw):
    key = ("symmetric", dmap.domain, plane)
    return _unless_fixed(dmap, draw(key, lambda rng: symmetric_raster(rng, plane, draw.grid, dmap.domain)))


def _cylinder_invariant(dmap, plane, draw):
    return _unless_fixed(dmap, draw(("cylinder", plane), lambda rng: centered_cylinder_raster(rng, plane, draw.grid)))


def _maps_balls_to_balls(dmap, plane, draw):
    grid = draw.grid
    h = grid.spacing
    u = np.asarray(plane.normal, dtype=float)
    t, r = draw("ball", lambda rng: (float(rng.integers(-6, 7)) * h, (4.0 + rng.random()) * h))
    a = disk_raster(grid, _nearest_plane_point(grid, plane) + t * u, r)
    image = dmap(a)
    if image.cell_count != a.cell_count:
        return {"t": t, "reason": "cell count changed"}
    if image.cell_count == 0:
        return None
    # the image's cell centers averaged as rows: at a half-lattice tie the order of the sum decides the snap
    com = np.stack([np.broadcast_to(x, grid.dims)[image.mask] for x in grid.open_centers()], axis=1).mean(axis=0)
    # admissible ball centers live on the half-cell lattice
    snapped = np.asarray(grid.origin) + np.rint((com - np.asarray(grid.origin)) / (h / 2.0)) * (h / 2.0)
    if image != disk_raster(grid, snapped, r):
        return {"t": t, "reason": "image is not a ball raster"}
    return None


def _respects_cylinders(dmap, plane, draw):
    axis = int(np.argmax(np.abs(plane.normal)))
    a = _sampled(dmap, draw)
    extra = np.asarray(dmap(a).mask).any(axis=axis) & ~np.asarray(a.mask).any(axis=axis)
    if extra.any():
        return {"columns": int(extra.sum())}
    return None


def _perimeter_convex(dmap, plane, draw):
    # exact polygons, moved by the map's contraction backing
    poly = draw("polygon", lambda rng: random_convex_polygon(rng, box=2.0))
    region = chord_move_polygon(poly, dmap.contraction, np.array([0.0, 1.0]))
    before = poly.perimeter()
    after = perimeter_region(region)
    if abs(after - before) > 1e-9 * max(1.0, before):
        return {"before": before, "after": after}
    return None


# every law a set map is checked against, in report order; ``verify`` runs
# them all and each gallery row the ones its expected verdicts name
SETMAP_LAWS = {
    "monotonic": Law(_monotonic),
    "measure_preserving": Law(_measure_preserving),
    "symmetric_invariant": Law(_symmetric_invariant, needs="plane"),
    "cylinder_invariant": Law(_cylinder_invariant, needs="plane"),
    "maps_balls_to_balls": Law(_maps_balls_to_balls, needs="plane"),
    "respects_cylinders": Law(_respects_cylinders, needs="plane"),
    "perimeter_convex": Law(_perimeter_convex, needs="contraction", max_trials=25),
}


# ---------------------------------------------------------------------------
# Law runner
# ---------------------------------------------------------------------------


def check_laws(catalog, subjects, trials, seed=0, grid=DEFAULT_GRID, plane=None, laws=None):
    """The laws of ``catalog`` on each of a dict of subjects, as {subject name: {law name: report}}.

    ``catalog`` is :data:`TRANSFORMER_LAWS` or :data:`SETMAP_LAWS`, and
    ``subjects`` maps each name to a transformer or a set map.  ``laws``
    names the laws to score, in report order; by default, every law of the
    catalog.  ``plane`` is the reference hyperplane for subjects not tied to
    one (the identity, say).  A law runs at most its ``max_trials`` trials,
    and is skipped on a subject that lacks what it ``needs``.

    Each trial makes one :class:`_Draw`, shared by every live (subject, law)
    pair: each input is keyed by what it depends on (f for the transformers;
    a map's domain and plane for the set maps), so subjects and laws that
    read one input share it.  Each subject keeps its own first failing
    trial, so its reports equal those of each law run on it alone.  A trial
    count below 1 raises ValueError and a law not in the catalog
    UnknownName, before any law runs.
    """
    trials = _trial_count(trials)
    laws = list(catalog if laws is None else laws)
    for name in laws:
        if name not in catalog:
            raise UnknownName(f"unknown law {name!r}; expected one of {tuple(catalog)}")
    reports, caps, planes = {}, {}, {}
    for s, subject in subjects.items():
        own = getattr(subject, "plane", None)
        planes[s] = plane if own is None else own
        missing = {"plane": planes[s] is None, "contraction": getattr(subject, "contraction", None) is None}
        for name in laws:
            law = catalog[name]
            if missing.get(law.needs):
                detail = "no reference hyperplane" if law.needs == "plane" else "no contraction backing"
                reports[s, name] = PropertyReport(name, None, 0, seed, detail=detail)
            else:
                caps[s, name] = min(trials, law.max_trials or trials)

    def score(rng, live):
        draw = _Draw(rng, grid)
        return {(s, name): catalog[name].trial(subjects[s], planes[s], draw) for s, name in live}

    reports.update(_run_trials(caps, seed, score))
    return {s: {name: reports[s, name] for name in laws} for s in subjects}


# ---------------------------------------------------------------------------
# Rearrangement classifier
# ---------------------------------------------------------------------------

CONE_PROBES = 8  # concave-bump probe functions per classification
CORE_PROBES = 4  # two-level probes from nested "core" pairs, asymmetric along the normal
TWO_DISK = (0.75, 0.35)  # offset and radius of the two-disk union the classifier and the gallery read

# where each canonical map sends a mirror pair (x in H+, x' its mirror), as the
# bits (x in T(A), x' in T(A), x in T(B), x' in T(B)), A and B holding x and x':
# its pair (F+, F-) read on the indicators, 1_A = (1, 0) and 1_B = (0, 1) at (x, x')
PAIR_RULES = {
    int(8 * row.pair.fplus(1, 0) + 4 * row.pair.fminus(0, 1) + 2 * row.pair.fplus(0, 1) + row.pair.fminus(1, 0)): label
    for label, row in CANONICAL_MAPS.items()
}


def _probes(grid, plane, seed):
    """(cones, cores): concave bumps centered on the normal through the grid
    center, and two-level functions 1_small + 1_big of nested "core" pairs."""
    rng = trial_rng(seed, 987)
    u = np.asarray(plane.normal, dtype=float)
    base = _nearest_plane_point(grid, plane)
    span = 0.5 * _shortest_side(grid)
    cones = []
    for _ in range(CONE_PROBES):
        t = float(rng.integers(-8, 9)) * grid.spacing
        radius = (0.3 + 0.5 * rng.random()) * span
        levels = int(rng.integers(2, 7))
        cones.append(quantized_cone(grid, base + t * u, radius, levels))
    rng = trial_rng(seed, 988)
    pairs = (_nested_pair("core", rng, grid) for _ in range(CORE_PROBES))
    return cones, [GridFunction(grid, small.mask.astype(float) + big.mask) for small, big in pairs]


def _image(apply, probe):
    """``apply(probe)``, or None for a probe it cannot take (a SymmkitError): such a probe is not decisive."""
    try:
        return apply(probe)
    except SymmkitError:
        return None


def classify_rearrangement(transformer, grid, plane, seed=0):
    """Match an equimeasurable monotone transformer against the four canonical maps.

    A canonical map moves every mirror pair (x, x'), x in H+ and x' != x its
    mirror in the grid, by one rule of :data:`PAIR_RULES`.  The pair read
    decodes each pair's rule exactly from the set-map images T(A) and T(B),
    A and B the x and the x' of every pair; unless all pairs read one rule
    the label is "other", and the witness is the first pair that disagrees
    (grid index tuples) with its cells in T(A) and in T(B).  The rule's map
    is then confirmed exactly: T must fix the two-disk union cut to A and B,
    so mirror-symmetric at every plane, and agree with the map on the cone
    and "core" probes, each cone probe read once for the gates and the
    confirmation.  A probe T cannot take (a SymmkitError) is not decisive,
    here and in the gates.

    Returns (label, witness), the witness None for a canonical label.  Raises
    ValueError when the plane pairs no cells, and NotARearrangement when T is
    not equimeasurable and monotone on the cone probes it can take.
    """
    plan = plane.reflection(grid)
    cells = np.arange(grid.num_cells)
    x = cells[plan.hplus.ravel() & plan.inside & (plan.flat != cells)]
    if x.size == 0:
        raise ValueError("the plane pairs no cells of the grid, so the canonical maps cannot be told apart")
    xm = plan.flat[x]
    cones, cores = _probes(grid, plane, seed)
    images = [_image(transformer, f) for f in cones]
    for f, tf in zip(cones, images):
        if tf is not None and distribution(tf) != distribution(f):
            raise NotARearrangement("transformer is not equimeasurable on probe functions")
    for f, tf in zip(cones[:4], images):
        tg = _image(transformer, GridFunction(grid, f.values + 1.0))
        if tf is not None and tg is not None and np.any(tf.values > tg.values):
            raise NotARearrangement("transformer is not monotonic on probe functions")

    dmap = induced_set_map(transformer)
    a, b = (np.isin(cells, c).reshape(grid.dims) for c in (x, xm))
    ta, tb = (dmap(GridSet(grid, m)).mask.ravel() for m in (a, b))
    codes = 8 * ta[x] + 4 * ta[xm] + 2 * tb[x] + tb[xm]
    label = PAIR_RULES.get(int(codes[0]))
    off = (codes != codes[0]) | (label is None)
    if off.any():
        j = int(np.argmax(off))
        pair = {c: tuple(int(i) for i in np.unravel_index(c, grid.dims)) for c in (x[j], xm[j])}
        reason = "mirror pairs move by different rules" if label else "mirror pair moves by no canonical rule"
        went = {key: [pair[c] for c in pair if image[c]] for key, image in (("x_went_to", ta), ("mirror_went_to", tb))}
        return "other", {"reason": reason, "pair": tuple(pair.values()), **went}
    union = GridSet(grid, two_disk_symmetric_set(grid, plane, *TWO_DISK).mask & (a | b))
    image = _image(dmap, union)
    if image is not None and image != union:
        return "other", {"reason": "not invariant on mirror-image two-disk unions"}
    candidate = CANONICAL_MAPS[label].transformer(plane)
    images += [_image(transformer, f) for f in cores]
    for f, tf in zip(cones + cores, images):
        if tf is not None and tf != candidate(f):
            return "other", {"reason": f"probe disagrees with {label}"}
    return label, None


# ---------------------------------------------------------------------------
# Verification battery (the `verify` CLI subcommand)
# ---------------------------------------------------------------------------


def run_verify(trials=200, seed=7):
    """Property suites for the four canonical transformers and two set maps on
    :data:`DEFAULT_GRID`.

    Everything here is expected to hold; returns (report dict, all_hold).
    """
    grid = DEFAULT_GRID
    plane = axis_plane(1, grid.n, 0.0, 1)
    transformers = {name: row.transformer(plane) for name, row in CANONICAL_MAPS.items()}
    set_maps = {m.name: m for m in (canonical_set_map("two_point", plane), canonical_set_map("identity", plane))}
    suites = {
        "transformers": check_laws(TRANSFORMER_LAWS, transformers, trials, seed, grid),
        "set_maps": check_laws(SETMAP_LAWS, set_maps, min(trials, 100), seed, grid, plane),
    }
    report, all_hold = {}, True
    for kind, suite in suites.items():
        report[kind] = {name: {k: r.as_dict() for k, r in out.items()} for name, out in suite.items()}
        all_hold &= all(r.holds is not False for out in suite.values() for r in out.values())
    report["all_hold"] = all_hold
    return report, all_hold


# ---------------------------------------------------------------------------
# Counterexample gallery
# ---------------------------------------------------------------------------


def _verdict(flag):
    return "holds" if flag else "fails"


def _canonical_four_match(dmap, grid, plane, seed, trials):
    label, _ = classify_rearrangement(lambda f: layer_cake_rearrangement(dmap, f), grid, plane, seed)
    return {"canonical_four_match": _verdict(label != "other")}


def _shake_vs_two_point(dmap, grid, plane, seed, trials):
    two_point = canonical_set_map("two_point", plane)
    rasters = (random_convex_raster(trial_rng(seed, i), grid)[0] for i in range(trials))
    union = two_disk_symmetric_set(grid, plane, *TWO_DISK)
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
    changed = grid_perimeter(dmap(square)) != grid_perimeter(square)
    return {"perimeter_on_straddling_square": _verdict(not changed)}


# (example, set map of the plane, expected verdicts, fixture check); expected
# keys that name a law of SETMAP_LAWS are checked by the harness, the
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
)


def run_gallery(seed=7, trials=20):
    """Reproduce the counterexample fixtures on :data:`DEFAULT_GRID` and compare verdict matrices.

    Returns a summary dict with one row per fixture; a mismatch raises
    GalleryMismatch (the summary rides on the exception).
    """
    trials = _trial_count(trials)
    grid = DEFAULT_GRID
    plane = axis_plane(1, grid.n, 0.0, 1)
    results = []
    for example, set_map, expected, check in GALLERY_ROWS:
        dmap = set_map(plane)
        laws = [law for law in expected if law in SETMAP_LAWS]
        reports = check_laws(SETMAP_LAWS, {example: dmap}, trials, seed, grid, plane, laws)[example]
        checks = {law: r.verdict for law, r in reports.items()}
        checks.update(check(dmap, grid, plane, seed, trials))
        match = checks == expected
        results.append({"example": example, "checks": checks, "expected": dict(expected), "match": match})

    summary = {"rows": results, "all_match": all(r["match"] for r in results), "seed": seed}
    if not summary["all_match"]:
        bad = [r["example"] for r in results if not r["match"]]
        exc = GalleryMismatch(f"verdicts deviate from the expected matrix: {bad}")
        exc.summary = summary
        raise exc
    return summary

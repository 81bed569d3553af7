"""Seeded property suites for function transformers and set maps.

Every check runs a fixed number of independent trials; trial ``i`` of a run
with seed ``s`` draws from ``numpy.random.default_rng((s, i))``, so a failed
trial is replayable from the (seed, trial) pair alone.  Verdicts are exact:
grids have no null sets, so no measure-zero slack is granted anywhere.

Each law catalog has one entry point: :func:`check_transformers` scores every
law of :data:`TRANSFORMER_LAWS` on a dict of transformers (callers index the
law they want), and :func:`check_setmap_law` one law of :data:`SETMAP_LAWS`.
Laws are keyed by (subject, law), the subject being a transformer's or a set
map's name.  The transformers of a run share one draw per trial: f, its
partners, ``distribution(f)`` and ``modulus_profile(f)`` are computed once
for all of them, and a transformer whose Tf equals f reuses f's modulus
profile.  Each (transformer, law) pair still keeps its own first failing
trial, so every report equals that of the law run on its transformer alone.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .chordmaps import chord_move_polygon, perimeter_region
from .contractions import canonical_contraction
from .errors import NotARearrangement, SymmkitError, UnknownName
from .geometry import (
    GridFunction,
    GridSet,
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
from .rearrange import CANONICAL_MAPS

DEFAULT_GRID = centered_grid((32, 32), 1.0 / 8.0)
MAX_BLOB_LEVEL = 8  # blob levels are integers in 0..MAX_BLOB_LEVEL
LAW_TOL = 1e-12  # slack of the L^p and modulus inequalities
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


def _center_of_mass(grid, a):
    """Mean of the cell centers of a nonempty set."""
    return grid.centers()[a.mask.ravel()].mean(axis=0)


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


def _core_cut(grid, small, big):
    """(small, big) cut to the central box, still nested, neither empty.

    The box reaches W, an eighth of the grid's extent, from its center; a set
    in it reflects through its center of gravity into [-3W, 3W], in the grid.
    If ``small`` misses the box, the cells within a spacing of the center
    stand in for it.
    """
    w = 0.125 * _shortest_side(grid)
    core = box_raster(grid, [c - w for c in grid.center], [c + w for c in grid.center]).mask
    inner = small.mask & core
    if not inner.any():
        inner = disk_raster(grid, grid.center, grid.spacing).mask & core
    return GridSet(grid, inner), GridSet(grid, (big.mask & core) | inner)


def _sample(domain, rng, grid):
    """One random set from a map's declared domain."""
    if domain == "convex":
        return random_convex_raster(rng, grid)[0]
    a = random_blob_set(rng, grid)
    return _core_cut(grid, a, a)[1] if domain == "core" else a


def _nested_pair(domain, rng, grid):
    """(small, big) nested sets from a map's declared domain."""
    if domain == "convex":
        big, poly = random_convex_raster(rng, grid)
        return polygon_raster(grid, poly.scale_about_centroid(0.3 + 0.5 * rng.random())), big
    big = random_blob_set(rng, grid)
    small = GridSet(grid, big.mask & (rng.random(grid.dims) < 0.7))
    return _core_cut(grid, small, big) if domain == "core" else (small, big)


def symmetric_raster(rng, plane, grid=DEFAULT_GRID, domain="all"):
    """Raster symmetric about the hyperplane: a symmetric polygon for the "convex"
    domain, otherwise a set drawn from ``domain`` joined with its mirror image."""
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
    centers = grid.centers()
    normal = np.asarray(plane.normal)
    along = centers @ normal - plane.offset
    in_h = centers - np.outer(centers @ normal, normal)
    mid = np.asarray(grid.center)
    mid_h = mid - (mid @ normal) * normal
    span = 0.4 * _shortest_side(grid)
    r = (0.2 + 0.8 * rng.random()) * span
    s = (0.2 + 0.8 * rng.random()) * span
    radial = np.linalg.norm(in_h - mid_h, axis=1) if grid.n > 1 else np.zeros(len(centers))
    mask = (radial <= r) & (np.abs(along) <= s)
    return GridSet(grid, mask.reshape(grid.dims))


def quantized_cone(grid, center, radius, levels=6):
    """Concave bump with integer levels; every super-level set is a disk raster."""
    centers = grid.centers()
    d = np.linalg.norm(centers - np.asarray(center, dtype=float), axis=1)
    vals = np.floor(np.clip(levels * (1.0 - d / radius), 0.0, levels))
    return GridFunction(grid, vals.reshape(grid.dims))


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


class _TrialDraw:
    """One trial's inputs, drawn once and shared by every transformer scored on it.

    f is drawn first.  The monotone bump and the L^p partner g are each
    drawn, on first read, from the rng state saved just after f, so each is
    the input a law drawing f and then its own partner gets, and a partner
    no live law reads is never drawn.  ``distribution(f)`` and
    ``modulus_profile(f)`` are likewise computed once, on first read.
    """

    def __init__(self, rng, grid):
        self.grid = grid
        self.rng = rng
        self.f = random_blob_function(rng, grid)
        self._after_f = rng.bit_generator.state

    def _draw_after_f(self, **kwargs):
        self.rng.bit_generator.state = self._after_f
        return random_blob_function(self.rng, self.grid, **kwargs)

    @functools.cached_property
    def bump(self):
        """A random nonnegative bump; f + bump is the monotone partner."""
        return self._draw_after_f(max_blobs=2)

    @functools.cached_property
    def g(self):
        """The independent L^p partner."""
        return self._draw_after_f()

    @functools.cached_property
    def distribution(self):
        return distribution(self.f)

    @functools.cached_property
    def profile(self):
        return modulus_profile(self.f)


class _TransformerTrial:
    """A transformer T's view of a shared draw: Tf, T(f + bump) and Tg, each
    computed on first read."""

    def __init__(self, transformer, draw):
        self.transformer = transformer
        self.draw = draw
        self.grid = draw.grid
        self.f = draw.f

    @functools.cached_property
    def tf(self):
        return self.transformer(self.f)

    @functools.cached_property
    def image_above(self):
        """Tg for g = f + the draw's bump."""
        return self.transformer(GridFunction(self.grid, self.f.values + self.draw.bump.values))

    @functools.cached_property
    def lp_diffs(self):
        """(Tf - Tg, f - g) for the draw's partner g."""
        g = self.draw.g
        return self.tf.values - self.transformer(g).values, self.f.values - g.values

    @functools.cached_property
    def tf_profile(self):
        """modulus_profile(Tf); f's own profile when Tf equals f (the profile
        is a function of the values alone, so the reuse is exact)."""
        if np.array_equal(self.tf.values, self.f.values):
            return self.draw.profile
        return modulus_profile(self.tf)


def _keeps_distribution(trial):
    """Exact (value, cell-count) profile comparison."""
    before = trial.draw.distribution
    after = distribution(trial.tf)
    if before != after:
        return {"before": before.pairs()[:8], "after": after.pairs()[:8]}
    return None


def _keeps_order(trial):
    """f <= g pointwise must imply Tf <= Tg pointwise, exactly."""
    tf, tg = trial.tf.values, trial.image_above.values
    bad = tf > tg
    if bad.any():
        cell = tuple(int(c) for c in np.argwhere(bad)[0])
        return {"cell": cell, "tf": float(tf[bad][0]), "tg": float(tg[bad][0])}
    return None


def _lp_norm(values, p, cell_volume):
    if p == np.inf:
        return float(np.abs(values).max())
    return float((np.sum(np.abs(values) ** p) * cell_volume) ** (1.0 / p))


def _contracts_lp(p):
    """||Tf - Tg||_p <= ||f - g||_p + LAW_TOL."""

    def score(trial):
        image_diff, diff = trial.lp_diffs
        lhs = _lp_norm(image_diff, p, trial.grid.cell_volume)
        rhs = _lp_norm(diff, p, trial.grid.cell_volume)
        return {"p": str(p), "lhs": lhs, "rhs": rhs} if lhs > rhs + LAW_TOL else None

    return score


def _reduces_modulus(trial):
    """omega_d(Tf) <= omega_d(f) + LAW_TOL for every grid distance d."""
    ds, before = trial.draw.profile
    _, after = trial.tf_profile
    bad = after > before + LAW_TOL
    if bad.any():
        j = int(np.argmax(bad))
        return {"distance": float(ds[j]), "before": float(before[j]), "after": float(after[j])}
    return None


@dataclass(frozen=True)
class Law:
    """One law of a catalog: ``trial`` scores one trial and returns None or a counterexample.

    ``max_trials`` caps the trial count.  A set-map law that ``needs`` the
    reference "plane" or the map's "contraction" is skipped without it.
    """

    trial: callable
    needs: str = None
    max_trials: int = None


_LP_NAMES = {p: f"lp_contracting[p={p}]" for p in LP_EXPONENTS}

# every law a transformer is checked against, in report order; each scores
# a _TransformerTrial, and ``verify`` scores them all, for all four canonical
# transformers, on one shared draw per trial
TRANSFORMER_LAWS = {
    "equimeasurable": Law(_keeps_distribution),
    "monotonic": Law(_keeps_order),
    **{name: Law(_contracts_lp(p)) for p, name in _LP_NAMES.items()},
    "modulus_reducing": Law(_reduces_modulus, max_trials=MODULUS_MAX_TRIALS),
}


def check_transformers(transformers, trials=200, seed=0, grid=DEFAULT_GRID):
    """Every law of :data:`TRANSFORMER_LAWS` on each of a dict of transformers,
    as {transformer name: {law name: report}}.

    Each trial makes one :class:`_TrialDraw`, shared by every live
    (transformer, law) pair, and one :class:`_TransformerTrial` per
    transformer with a live law.  Each transformer keeps its own first
    failing trial, so its reports equal those of :func:`check_transformer`
    on it alone.  The modulus law runs at most MODULUS_MAX_TRIALS trials.
    """
    laws = TRANSFORMER_LAWS.items()
    caps = {(t, name): min(trials, law.max_trials or trials) for t in transformers for name, law in laws}

    def score(rng, live):
        draw = _TrialDraw(rng, grid)
        views = {t: _TransformerTrial(transformers[t], draw) for t in dict.fromkeys(t for t, _ in live)}
        return {(t, name): TRANSFORMER_LAWS[name].trial(views[t]) for t, name in live}

    reports = _run_trials(caps, seed, score)
    return {t: {name: reports[t, name] for name in TRANSFORMER_LAWS} for t in transformers}


def check_transformer(transformer, trials=200, seed=0, grid=DEFAULT_GRID):
    """Every law of :data:`TRANSFORMER_LAWS` on one transformer, keyed by law name:
    the one-transformer case of :func:`check_transformers`."""
    return check_transformers({None: transformer}, trials, seed, grid)[None]


# ---------------------------------------------------------------------------
# Set-map law catalog
# ---------------------------------------------------------------------------


def _monotonic(dmap, plane, grid, rng):
    small, big = _nested_pair(dmap.domain, rng, grid)
    isub = dmap(small).mask & ~dmap(big).mask
    if isub.any():
        return {"cell": tuple(int(c) for c in np.argwhere(isub)[0])}
    return None


def _measure_preserving(dmap, plane, grid, rng):
    a = _sample(dmap.domain, rng, grid)
    image = dmap(a)
    if image.cell_count != a.cell_count:
        return {"cells_before": a.cell_count, "cells_after": image.cell_count}
    return None


def _unless_fixed(dmap, a):
    return None if dmap(a) == a else {"cells": a.cell_count}


def _symmetric_invariant(dmap, plane, grid, rng):
    return _unless_fixed(dmap, symmetric_raster(rng, plane, grid, dmap.domain))


def _cylinder_invariant(dmap, plane, grid, rng):
    return _unless_fixed(dmap, centered_cylinder_raster(rng, plane, grid))


def _maps_balls_to_balls(dmap, plane, grid, rng):
    h = grid.spacing
    u = np.asarray(plane.normal, dtype=float)
    t = float(rng.integers(-6, 7)) * h
    r = (4.0 + rng.random()) * h
    a = disk_raster(grid, _nearest_plane_point(grid, plane) + t * u, r)
    image = dmap(a)
    if image.cell_count != a.cell_count:
        return {"t": t, "reason": "cell count changed"}
    if image.cell_count == 0:
        return None
    com = _center_of_mass(grid, image)
    # admissible ball centers live on the half-cell lattice
    snapped = np.asarray(grid.origin) + np.rint((com - np.asarray(grid.origin)) / (h / 2.0)) * (h / 2.0)
    if image != disk_raster(grid, snapped, r):
        return {"t": t, "reason": "image is not a ball raster"}
    return None


def _respects_cylinders(dmap, plane, grid, rng):
    axis = dmap.axis if dmap.axis is not None else int(np.argmax(np.abs(plane.normal)))
    a = _sample(dmap.domain, rng, grid)
    extra = np.asarray(dmap(a).mask).any(axis=axis) & ~np.asarray(a.mask).any(axis=axis)
    if extra.any():
        return {"columns": int(extra.sum())}
    return None


def _perimeter_convex(dmap, plane, grid, rng):
    # exact polygons, moved by the map's contraction backing
    poly = random_convex_polygon(rng, box=2.0)
    region = chord_move_polygon(poly, dmap.contraction, np.array([0.0, 1.0]))
    before = poly.perimeter()
    after = perimeter_region(region)
    if abs(after - before) > 1e-9 * max(1.0, before):
        return {"before": before, "after": after}
    return None


# every law a set map is checked against, in report order; each takes
# (dmap, plane, grid, rng), ``verify`` runs them all and each gallery row
# the ones its expected verdicts name
SETMAP_LAWS = {
    "monotonic": Law(_monotonic),
    "measure_preserving": Law(_measure_preserving),
    "symmetric_invariant": Law(_symmetric_invariant, needs="plane"),
    "cylinder_invariant": Law(_cylinder_invariant, needs="plane"),
    "maps_balls_to_balls": Law(_maps_balls_to_balls, needs="plane"),
    "respects_cylinders": Law(_respects_cylinders, needs="plane"),
    "perimeter_convex": Law(_perimeter_convex, needs="contraction", max_trials=25),
}


def check_setmap_law(name, dmap, trials=100, seed=0, grid=DEFAULT_GRID, plane=None):
    """One law of :data:`SETMAP_LAWS` on a set map, drawing from the map's domain.

    ``plane`` is the reference hyperplane for maps not tied to one (the identity, say).
    """
    if name not in SETMAP_LAWS:
        raise UnknownName(f"unknown set-map law {name!r}; expected one of {tuple(SETMAP_LAWS)}")
    law = SETMAP_LAWS[name]
    plane = dmap.plane if dmap.plane is not None else plane
    if law.needs == "plane" and plane is None:
        return PropertyReport(name, None, 0, seed, detail="no reference hyperplane")
    if law.needs == "contraction" and dmap.contraction is None:
        return PropertyReport(name, None, 0, seed, detail="no contraction backing")
    key = (dmap.name, name)
    trials = min(trials, law.max_trials or trials)
    return _run_trials({key: trials}, seed, lambda rng, live: {key: law.trial(dmap, plane, grid, rng)})[key]


def check_setmap_properties(dmap, trials=100, seed=0, grid=DEFAULT_GRID, plane=None):
    """Every law of :data:`SETMAP_LAWS` on a set map, keyed by law name."""
    return {name: check_setmap_law(name, dmap, trials, seed, grid, plane) for name in SETMAP_LAWS}


# ---------------------------------------------------------------------------
# Rearrangement classifier
# ---------------------------------------------------------------------------

CONE_PROBES = 8  # concave-bump probe functions per classification
PROBE_OFFSET = 0.75  # displacement of the ball probes from the hyperplane
WITNESS_RADIUS_CELLS = 4.8  # ball probe radius in grid spacings


def _cone_probes(grid, plane, seed):
    rng = trial_rng(seed, 987)
    u = np.asarray(plane.normal, dtype=float)
    base = _nearest_plane_point(grid, plane)
    span = 0.5 * _shortest_side(grid)
    probes = []
    for _ in range(CONE_PROBES):
        t = float(rng.integers(-8, 9)) * grid.spacing
        radius = (0.3 + 0.5 * rng.random()) * span
        levels = int(rng.integers(2, 7))
        probes.append(quantized_cone(grid, base + t * u, radius, levels))
    return probes


def classify_rearrangement(transformer, grid, plane, seed=0):
    """Match an equimeasurable monotone transformer against the four canonical maps.

    Probes the induced set map with displaced ball rasters to read off the
    midpoint contraction, checks the invariance on mirror-image two-disk
    unions where the transformer admits them, and confirms a tentative match
    exactly on a battery of concave-bump probes.  Returns (label, witness);
    the witness is None for a canonical label and a payload describing the
    separating probe otherwise.
    """
    probes = _cone_probes(grid, plane, seed)
    for f in probes:
        if distribution(transformer(f)) != distribution(f):
            raise NotARearrangement("transformer is not equimeasurable on probe functions")
    for f in probes[:4]:
        g = GridFunction(grid, f.values + 1.0)
        if np.any(transformer(f).values > transformer(g).values):
            raise NotARearrangement("transformer is not monotonic on probe functions")

    dmap = induced_set_map(transformer)
    u = np.asarray(plane.normal, dtype=float) * plane.positive
    base = _nearest_plane_point(grid, plane)
    radius = WITNESS_RADIUS_CELLS * grid.spacing

    def displaced_center(t):
        image = dmap(disk_raster(grid, base + t * u, radius))
        if image.cell_count == 0:
            return None
        com = _center_of_mass(grid, image)
        return float((com - base) @ u)

    ts = [PROBE_OFFSET, PROBE_OFFSET * 2 / 3, -PROBE_OFFSET * 2 / 3, -PROBE_OFFSET]
    phi_hat = {}
    for t in ts:
        phi_hat[t] = displaced_center(t)
        if phi_hat[t] is None:
            return "other", {"probe_center": t, "reason": "ball image vanished"}

    slope_hi = (phi_hat[ts[0]] - phi_hat[ts[1]]) / (ts[0] - ts[1])
    slope_lo = (phi_hat[ts[3]] - phi_hat[ts[2]]) / (ts[3] - ts[2])
    eikonal_ok = abs(abs(slope_hi) - 1.0) <= 1e-6 and abs(abs(slope_lo) - 1.0) <= 1e-6

    two_disk = None
    try:
        union = two_disk_symmetric_set(grid, plane, PROBE_OFFSET, radius)
        two_disk = dmap(union) == union
    except SymmkitError:
        two_disk = None  # outside the transformer's domain; not decisive

    def matches(row):
        phi = canonical_contraction(row.contraction)
        return all(abs(phi_hat[t] - phi(t)) <= 1e-9 for t in (ts[0], ts[3]))

    label = next((label for label, row in CANONICAL_MAPS.items() if matches(row)), None)
    witness = {
        "probe_center": PROBE_OFFSET,
        "image_center": phi_hat[ts[0]],
        "phi_estimates": {str(t): phi_hat[t] for t in ts},
    }
    if label is None or not eikonal_ok:
        return "other", witness
    if two_disk is False:
        return "other", {"reason": "not invariant on mirror-image two-disk unions"}
    candidate = CANONICAL_MAPS[label].function
    for f in probes:
        if transformer(f) != candidate(f, plane):
            return "other", {"reason": f"probe disagrees with {label}"}
    return label, None

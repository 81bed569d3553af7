"""Small-scope characterization of polarization among set maps (ROADMAP item 6).

On a tiny grid every set map can be listed.  At the center plane of the
last axis, backtracking over the subsets of the grid lists every set map
that keeps the cell count, is monotone under inclusion and fixes each
mirror-symmetric set.  With p mirror pairs there are exactly 4^p of them
(1×2 to 1×6, 2×2, 2×3 and 3×2), and each is pair-local: it moves every pair (x, x') by one rule of
``harness.PAIR_RULES`` and fixes the cells on the plane.  The layer-cake
rearrangement of each is equimeasurable and monotone on every function
with values 0..2, checked up to five cells.  On 1×4 to 1×6, either
"intervals go to intervals" or "the boundary count never rises" leaves
exactly the four canonical maps.  The library supplies only the canonical
set maps, the pair codes, the boundary count and the layer cake.
"""

import itertools

import numpy as np
import pytest

import symmkit as sk
from symmkit.harness import PAIR_RULES

COUNTS = {(1, 2): 4, (1, 3): 4, (1, 4): 16, (1, 5): 16, (2, 2): 16}
WIDER = {(1, 6): 64, (2, 3): 16, (3, 2): 64}  # listed and read, but 3^6 inputs each is too many for the layer cake


def setting(dims):
    """(grid, plane, mirror): the center plane of the last axis and each flat cell's mirror."""
    grid = sk.centered_grid(dims, 0.25)
    plane = sk.axis_plane(1, 2, 0.0, 1)
    return grid, plane, plane.reflection(grid).flat


def bits(a):
    return sum(1 << int(c) for c in np.flatnonzero(a.mask))


def has(s, c):
    return s >> int(c) & 1


def as_set(grid, s):
    return sk.GridSet(grid, ((s >> np.arange(grid.num_cells)) & 1).astype(bool).reshape(grid.dims))


def listed_maps(mirror):
    """Every table T, T[s] the image of the subset bitmask s, that keeps the
    cell count, is monotone under inclusion and fixes each mirror-symmetric set."""
    n = len(mirror)
    size = [bin(s).count("1") for s in range(1 << n)]
    table = {s: s for s in range(1 << n) if sum(1 << int(mirror[c]) for c in range(n) if s >> c & 1) == s}
    free = sorted((s for s in range(1 << n) if s not in table), key=size.__getitem__)

    def fits(a, image):
        # b inside a needs T(b) inside T(a), and a inside b needs T(a) inside T(b)
        return all((b & ~a or not tb & ~image) and (a & ~b or not image & ~tb) for b, tb in table.items())

    def extend(i):
        if i == len(free):
            yield tuple(table[s] for s in range(1 << n))
            return
        for image in range(1 << n):
            if size[image] == size[free[i]] and fits(free[i], image):
                table[free[i]] = image
                yield from extend(i + 1)
                del table[free[i]]

    return list(extend(0))


def canonical_tables(grid, plane):
    """{row label: the table of its set map}."""
    subsets = [as_set(grid, s) for s in range(1 << grid.num_cells)]
    return {label: tuple(bits(sk.canonical_set_map(label, plane)(a)) for a in subsets) for label in sk.CANONICAL_MAPS}


@pytest.mark.parametrize("dims", list(COUNTS) + list(WIDER), ids=str)
def test_listed_maps_are_the_pair_local_maps(dims):
    grid, plane, mirror = setting(dims)
    cells = np.arange(grid.num_cells)
    x = cells[plane.reflection(grid).hplus.ravel() & (mirror != cells)]
    xm = mirror[x]
    maps = listed_maps(mirror)
    assert len(maps) == {**COUNTS, **WIDER}[dims] == 4 ** len(x)
    canonical = canonical_tables(grid, plane)
    a, b = sum(1 << int(c) for c in x), sum(1 << int(c) for c in xm)
    on_plane = sum(1 << int(c) for c in cells[mirror == cells])
    seen = set()
    for T in maps:
        codes = [8 * has(T[a], c) + 4 * has(T[a], cm) + 2 * has(T[b], c) + has(T[b], cm) for c, cm in zip(x, xm)]
        assert all(code in PAIR_RULES for code in codes), (T, codes)
        rules = tuple(PAIR_RULES[code] for code in codes)
        for s in range(1 << grid.num_cells):
            pairwise = s & on_plane
            for rule, c, cm in zip(rules, x, xm):
                pairwise |= canonical[rule][s] & (1 << int(c) | 1 << int(cm))
            assert T[s] == pairwise, (rules, s)
        seen.add(rules)
    assert seen == set(itertools.product(PAIR_RULES.values(), repeat=len(x)))


@pytest.mark.parametrize("dims", list(COUNTS), ids=str)
def test_layer_cake_of_each_listed_map_is_a_rearrangement(dims):
    grid, _, mirror = setting(dims)
    inputs = list(itertools.product((0.0, 1.0, 2.0), repeat=grid.num_cells))
    for T in listed_maps(mirror):
        out = {}
        for values in inputs:
            f = sk.GridFunction(grid, np.reshape(values, grid.dims))
            out[values] = sk.layer_cake_rearrangement(lambda a: as_set(grid, T[bits(a)]), f)
            assert sk.distribution(out[values]) == sk.distribution(f), (T, values)
        # f <= g is a chain of single-cell raises, so checking those suffices
        for values in inputs:
            for c, v in enumerate(values):
                if v < 2.0:
                    raised = values[:c] + (v + 1.0,) + values[c + 1 :]
                    assert np.all(out[values].values <= out[raised].values), (T, values, c)


def is_interval(s):
    low = s // (s & -s) if s else 0
    return low & (low + 1) == 0


@pytest.mark.parametrize("dims", [(1, 4), (1, 5), (1, 6)], ids=str)
def test_each_added_law_leaves_the_four_canonical_maps(dims):
    grid, plane, mirror = setting(dims)
    subsets = range(1 << grid.num_cells)
    boundary = [sk.grid_perimeter(as_set(grid, s)) for s in subsets]
    maps = listed_maps(mirror)
    keeps_intervals = {T for T in maps if all(is_interval(T[s]) for s in subsets if is_interval(s))}
    boundary_never_rises = {T for T in maps if all(boundary[T[s]] <= boundary[s] for s in subsets)}
    canonical = set(canonical_tables(grid, plane).values())
    assert len(canonical) == 4
    assert keeps_intervals == boundary_never_rises == canonical

"""Pinned chord moves: ``chord_move_polygon`` and ``union_of_translates`` return
the same regions, byte for byte, on seeded polygons, and the pulled-back
stations equal the per-segment loop of ``chord_oracle``.

Each digest hashes, for seeds 0-99, a polygon from ``random_convex_polygon``
moved along u = e2 or along a random unit u: the region's direction, stations
and both graphs.  The digests were computed before the polygon read along u
became a ``ChordMovedRegion`` with one evaluator.
"""

import hashlib

import numpy as np
import pytest
from chord_oracle import pullback_stations

import symmkit as sk
from symmkit.chordmaps import _pullback_stations
from symmkit.harness import random_convex_polygon, trial_rng

SEEDS = range(100)
CONTRACTIONS = {
    "id": sk.canonical_contraction("id", 8.0),
    "abs": sk.canonical_contraction("abs", 8.0),
    "sawtooth": sk.sawtooth_contraction(0.5, half_width=2.0),
}
MOVES = {
    "chord_move_polygon": sk.chord_move_polygon,
    "union_of_translates": lambda poly, phi, u: sk.union_of_translates(poly, phi, u, samples=16),
}


def polygon_and_direction(seed, turned):
    rng = trial_rng(seed, 1)
    poly = random_convex_polygon(rng)
    if not turned:
        return poly, np.array([0.0, 1.0])
    theta = rng.uniform(0.0, 2.0 * np.pi)
    return poly, np.array([np.cos(theta), np.sin(theta)])


def move_digest(move, phi, turned):
    h = hashlib.sha256()
    for seed in SEEDS:
        poly, u = polygon_and_direction(seed, turned)
        region = move(poly, phi, u)
        for part in (np.asarray(region.u), region.xs, region.lower, region.upper):
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
    return h.hexdigest()


DIGESTS = {
    "chord_move_polygon[abs, e2]": "c78d89bb38cfbb993cd16b26413e2a7beb356d02c68effdd5f4173253b593007",
    "chord_move_polygon[abs, turned]": "e830584941bd8a79e5e4ebe90d2a18d325e667453711f9cd2baa2008c1122d9e",
    "chord_move_polygon[id, e2]": "59cf0719e43dcca3bbcb06ec624ae4332d6c3ec46ef2e72bde970cff4a2c186e",
    "chord_move_polygon[id, turned]": "854d3b9a949784aef82278b179cdc89721d85f7b23eeaf08b7f72fe47e0d367f",
    "chord_move_polygon[sawtooth, e2]": "7698a3aee104c9049813d2e01c3b30649eb96c1a16c5b3d561f1bd02c14adac5",
    "chord_move_polygon[sawtooth, turned]": "5c89b60e48bf802c6bf951ec09d92aa4b5075d4f83276a6dd54b31275b04a61b",
    "union_of_translates[abs, e2]": "fbd226185d3d5de0696a73fcbeef7d93ce96648de0a59fd44a91b5a2a4d25685",
    "union_of_translates[abs, turned]": "bc0368d11be5d5356377cbffe8f2541cd9de399922ab5dded86b43f114fa2e51",
    "union_of_translates[id, e2]": "1b0210175d636238dba1e6c9137a21312adead92e9c5cd6d5f83be1a1129d70b",
    "union_of_translates[id, turned]": "44de2f8bdd2477deae7e6fbdff792a2d1cf6a1f99268b6f19456307d1602599f",
    "union_of_translates[sawtooth, e2]": "a880d863fa66830c90b712672eda1250ff65eab34c556cf1474ee05d5d27fc2f",
    "union_of_translates[sawtooth, turned]": "e58ff52fdaf1e4ffa3712b3e2573738621c0a5bf554a4b8b5e58482613cf13f5",
}


@pytest.mark.parametrize("turned", [False, True], ids=["e2", "turned"])
@pytest.mark.parametrize("contraction", sorted(CONTRACTIONS))
@pytest.mark.parametrize("move", sorted(MOVES))
def test_move_digest_pinned(move, contraction, turned):
    key = f"{move}[{contraction}, {'turned' if turned else 'e2'}]"
    assert move_digest(MOVES[move], CONTRACTIONS[contraction], turned) == DIGESTS[key]


@pytest.mark.parametrize("contraction", sorted(CONTRACTIONS))
def test_pullback_stations_equal_the_loop(contraction):
    phi = CONTRACTIONS[contraction]
    crossed = 0
    for seed in SEEDS:
        poly, u = polygon_and_direction(seed, seed % 2 == 1)
        graphs = sk.boundary_graphs(poly, u)
        mids = (graphs.lower + graphs.upper) / 2.0
        expected = pullback_stations(graphs.xs, mids, phi)
        got = _pullback_stations(graphs.xs, mids, phi)
        assert np.array_equal(got, np.asarray(expected, dtype=float).reshape(-1))
        crossed += len(expected)
    assert crossed > 0


def test_pullback_stations_on_a_flat_midpoint_line():
    # a rectangle's chord midpoints are all 1.0, on a breakpoint of the shifted
    # abs; no segment crosses it and no division by zero is attempted
    xs, ts = np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0])
    phi = sk.PLContraction([-8.0, 1.0, 8.0], [7.0, 0.0, 7.0])
    assert _pullback_stations(xs, ts, phi).size == 0 == len(pullback_stations(xs, ts, phi))

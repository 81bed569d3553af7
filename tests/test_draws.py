"""Pinned random draws: every harness generator returns the same body from the
same rng and leaves the rng in the same state.

Each digest hashes, for seeds 0-99, the drawn rasters' masks and polygons'
vertices plus one integer drawn from the rng afterwards, so a change that
consumes the rng differently shows up even when the body happens to match.
The digests were computed before the redraw loops were shared; the "core"
pair's was pinned again when its sets came to be drawn on the central box
as a grid of their own instead of cut down to it.
"""

import functools
import hashlib

import numpy as np
import pytest

import symmkit as sk
from symmkit.harness import (
    DEFAULT_GRID,
    _hull_polygon,
    _nested_pair,
    random_convex_polygon,
    random_convex_raster,
    random_symmetric_polygon,
    symmetric_raster,
    trial_rng,
)

SEEDS = range(100)
U = (0.0, 1.0)
PLANES = (
    sk.axis_plane(1, 2, 0.0, 1),
    sk.axis_plane(0, 2, 0.25, -1),
    sk.OrientedHyperplane((np.sqrt(0.5), -np.sqrt(0.5)), 0.0, 1),
)


def _body_bytes(body):
    if isinstance(body, sk.GridSet):
        return body.mask.tobytes()
    if isinstance(body, sk.ConvexPolygon):
        return np.asarray(body.vertices).tobytes()
    return b"".join(_body_bytes(part) for part in body)


def _draw_digest(draw):
    h = hashlib.sha256()
    for seed in SEEDS:
        rng = trial_rng(seed, 0)
        h.update(_body_bytes(draw(rng)))
        h.update(int(rng.integers(2**62)).to_bytes(8, "little"))
    return h.hexdigest()


DRAWS = {
    "random_convex_polygon": lambda rng: random_convex_polygon(rng),
    "random_convex_polygon[points=3]": lambda rng: _hull_polygon(lambda: rng.uniform(-2.0, 2.0, size=(3, 2)), 0.5),
    "random_symmetric_polygon": lambda rng: random_symmetric_polygon(rng, U, box=2.0, min_area=0.4),
    "random_convex_raster": lambda rng: random_convex_raster(rng, DEFAULT_GRID),
}
for i, plane in enumerate(PLANES):
    DRAWS[f"symmetric_raster[convex, plane {i}]"] = functools.partial(
        lambda plane, rng: symmetric_raster(rng, plane, DEFAULT_GRID, "convex"), plane
    )
for domain in ("all", "convex", "core"):
    DRAWS[f"_nested_pair[{domain}]"] = functools.partial(_nested_pair, domain, grid=DEFAULT_GRID)

DIGESTS = {
    "_nested_pair[all]": "abbb8d55658a425074b4a9cf9a5c20737cbe80e0809d2441f91f43e0ebee62ff",
    "_nested_pair[convex]": "80158680a38c9310302f22e5a6ad50d9f55e047aa6f07861d820b1173181129d",
    "_nested_pair[core]": "39bd1af3b333b0959c3d606f22bc735e38b7cb01195046cd194a851f9b03fe3b",
    "random_convex_polygon": "8ab56ca0e56a7845014d77b8c14cd51e0ac5ab8da32522fb211286f35663b136",
    "random_convex_polygon[points=3]": "03ce55596675b16570c51a680b34a7ea9fa7a427d81b8444cb01ae60667bb2bf",
    "random_convex_raster": "6add0ef74f8ead122afb3e700b4f83730cc97d560da68a325bafa281769da90c",
    "random_symmetric_polygon": "e476242d7cfd5f290be67107bd6190ee6250b49b3b7c897dbfaf0e7fa815ae9e",
    "symmetric_raster[convex, plane 0]": "8f6df34e159fdd75157036e5fd33ffa1ee51b4c8942ea9076443211971a14c7d",
    "symmetric_raster[convex, plane 1]": "6959366a77a22744b071aad15f91cc5a485334abf501cfec4ecbf615af8e26e5",
    "symmetric_raster[convex, plane 2]": "66c472995433312e98e54fba8f99c2d2580f90f76dc2c59b84f55b9f63b9f13f",
}


@pytest.mark.parametrize("name", sorted(DRAWS))
def test_draw_digest_pinned(name):
    assert _draw_digest(DRAWS[name]) == DIGESTS[name]

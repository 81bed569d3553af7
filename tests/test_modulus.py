"""modulus_profile against the pairwise reference, and the modulus law on random grids."""

import numpy as np
import pytest
from grid_strategies import function_on, grid_and_plane
from hypothesis import given, settings
from hypothesis import strategies as st

import symmkit as sk
from symmkit.harness import random_blob_function, trial_rng


def pairwise_modulus_profile(f):
    """Reference: every cell pair at once, O(N^2) memory."""
    idx = np.stack([m.ravel() for m in np.indices(f.grid.dims)], axis=-1).astype(np.int64)
    vals = f.values.ravel()
    n = len(vals)
    diff = np.abs(vals[:, None] - vals[None, :])
    d2 = np.sum((idx[:, None, :] - idx[None, :, :]) ** 2, axis=-1)
    iu = np.triu_indices(n, k=1)
    d2 = d2[iu]
    diff = diff[iu]
    order = np.argsort(d2, kind="stable")
    d2 = d2[order]
    running = np.maximum.accumulate(diff[order])
    last = np.nonzero(np.concatenate([np.diff(d2) > 0, [True]]))[0]
    return f.grid.spacing * np.sqrt(d2[last].astype(float)), running[last]


def assert_same_profile(f):
    ds, omegas = sk.modulus_profile(f)
    ref_ds, ref_omegas = pairwise_modulus_profile(f)
    assert ds.dtype == ref_ds.dtype and omegas.dtype == ref_omegas.dtype
    assert np.array_equal(ds, ref_ds)
    assert np.array_equal(omegas, ref_omegas)


@pytest.mark.parametrize("seed", range(20))
def test_matches_pairwise_on_verify_grid(seed):
    assert_same_profile(random_blob_function(trial_rng(seed, 0)))


@pytest.mark.parametrize(
    "dims",
    [(2,), (7,), (1, 5), (5, 1), (3, 8), (8, 3), (6, 6), (1, 1, 4), (4, 1, 3), (3, 5, 2), (4, 4, 4)],
)
def test_matches_pairwise_on_integer_grids(dims):
    rng = np.random.default_rng(sum(dims) * 31 + len(dims))
    grid = sk.centered_grid(dims, 0.3)
    for scale in (1.0, 0.1, 1e-3):
        values = rng.integers(-5, 6, size=dims) * scale
        assert_same_profile(sk.GridFunction(grid, values))


@pytest.mark.parametrize("dims", [(1,), (1, 1), (1, 1, 1)])
def test_one_cell_grid_has_no_pairs(dims):
    f = sk.GridFunction(sk.centered_grid(dims, 0.5), np.full(dims, 3.0))
    ds, omegas = sk.modulus_profile(f)
    assert ds.shape == (0,) and omegas.shape == (0,)


def _opposite_corners(dims):
    values = np.zeros(dims)
    values[(0,) * len(dims)] = 1.0
    values[tuple(n - 1 for n in dims)] = -1.0
    return values


# functions whose running max reaches the span late or only at the farthest
# offset, so the walk runs (nearly) to the end; a constant has span 0
SLOW_TO_SPAN = {
    "ramp": lambda dims: np.indices(dims).sum(axis=0),
    "negramp": lambda dims: -np.indices(dims).sum(axis=0),
    "cos": lambda dims: np.cos(np.indices(dims).sum(axis=0)),
    "constant": lambda dims: np.full(dims, 2.5),
    "corners": _opposite_corners,
}
SLOW_DIMS = [
    (2,), (9,), (1, 7), (6, 1), (3, 8), (8, 3), (7, 7), (1, 1, 5), (4, 1, 3), (3, 5, 2), (8, 8, 8)
]


@pytest.mark.parametrize("shape", sorted(SLOW_TO_SPAN))
@pytest.mark.parametrize("dims", SLOW_DIMS)
def test_matches_pairwise_when_the_span_comes_late(dims, shape):
    values = SLOW_TO_SPAN[shape](dims).astype(float)
    assert_same_profile(sk.GridFunction(sk.centered_grid(dims, 0.3), values))


@st.composite
def small_function(draw):
    n = draw(st.integers(1, 3))
    dims = draw(
        st.lists(st.integers(1, {1: 12, 2: 6, 3: 4}[n]), min_size=n, max_size=n)
        .map(tuple)
        .filter(lambda d: np.prod(d) > 1)  # one cell has no pairs; tested above
    )
    return draw(function_on(sk.centered_grid(dims, 0.5)))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(small_function())
def test_matches_pairwise_on_random_small_grids(f):
    assert_same_profile(f)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(grid_and_plane(), st.integers(0, 2**16))
def test_polarization_reduces_modulus_on_random_grids(grid_plane, seed):
    grid, plane = grid_plane
    polar = lambda f: sk.polarize(f, plane)
    reports = sk.check_laws(sk.TRANSFORMER_LAWS, {"polar": polar}, 4, seed, grid, laws=["modulus_reducing"])
    report = reports["polar"]["modulus_reducing"]
    assert report.holds, report.counterexample

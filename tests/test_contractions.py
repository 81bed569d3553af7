import numpy as np
import pytest

import symmkit as sk
from symmkit.contractions import CANONICAL_NAMES
from symmkit.errors import UnknownName


def test_rejects_expansive_slope():
    with pytest.raises(ValueError):
        sk.PLContraction(np.array([0.0, 1.0]), np.array([0.0, 1.5]))


def test_eval_and_terminal_extension():
    phi = sk.PLContraction(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.5]))
    assert phi(0.5) == 0.5
    assert phi(1.5) == 0.75
    assert phi(-2.0) == -2.0  # first slope 1 continues
    assert phi(3.0) == 0.0  # last slope -1/2 continues


def test_lipschitz_bound_random_pairs():
    rng = np.random.default_rng(6)
    for _ in range(5):
        ts = np.sort(rng.uniform(-4, 4, 6))
        ts = ts[np.concatenate([[True], np.diff(ts) > 1e-6])]
        slopes = rng.uniform(-1, 1, len(ts) - 1)
        ys = np.concatenate([[0.0], np.cumsum(slopes * np.diff(ts))])
        phi = sk.PLContraction(ts, ys)
        s = rng.uniform(-8, 8, 10_000)
        t = rng.uniform(-8, 8, 10_000)
        assert np.all(np.abs(phi(s) - phi(t)) <= np.abs(s - t) + 1e-12)


def test_canonical_values():
    assert sk.canonical_contraction("id")(3.0) == 3.0
    assert sk.canonical_contraction("abs")(-0.75) == 0.75
    assert sk.canonical_contraction("negabs")(2.0) == -2.0
    assert sk.canonical_contraction("neg")(2.0) == -2.0
    assert sk.canonical_contraction("neg")(-2.0) == 2.0


def test_canonical_unknown_name():
    with pytest.raises(UnknownName):
        sk.canonical_contraction("square")


def test_sawtooth_values():
    saw = sk.sawtooth_contraction(1.0)
    assert saw(0.75) == 0.25
    assert saw(3.0) == 0.0
    assert saw(0.5) == 0.5
    assert saw(-1.25) == 0.25
    # matches the direct minimum over lattice translates
    rng = np.random.default_rng(7)
    ts = rng.uniform(-6, 6, 200)
    ks = np.arange(-10, 11)
    direct = np.min(np.abs(ts[:, None] - ks[None, :]), axis=1)
    assert np.allclose(saw(ts), direct, atol=1e-12)


def test_sawtooth_period():
    saw = sk.sawtooth_contraction(0.5)
    assert saw(0.25) == 0.25
    assert saw(0.375) == 0.125


def test_sawtooth_slopes_unit():
    saw = sk.sawtooth_contraction(1.0)
    assert np.all(np.abs(np.abs(saw.slopes) - 1.0) < 1e-12)


def test_breakpoint_roundtrip():
    phi = sk.canonical_contraction("abs", 4.0)
    again = sk.PLContraction.from_breakpoints(phi.breakpoint_pairs())
    ts = np.linspace(-6, 6, 101)
    assert np.array_equal(phi(ts), again(ts))


@pytest.mark.parametrize("half_width", [0.0, -8.0, float("inf"), float("nan")])
def test_half_width_must_be_finite_and_positive(half_width):
    # -8 used to mirror the map: "abs" read -|t| and "negabs" read |t|
    for name in CANONICAL_NAMES:
        with pytest.raises(ValueError, match="half_width"):
            sk.canonical_contraction(name, half_width)
    with pytest.raises(ValueError, match="half_width"):
        sk.sawtooth_contraction(1.0, half_width=half_width)

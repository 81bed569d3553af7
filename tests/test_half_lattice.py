"""Axis planes read as lattice data: the normal's axis and the plan's integer j.

An axis plane's two lattice facts, which side of it a cell lies on and how
much room a ball has beside it, are decided in integers from
``OrientedHyperplane.axis`` and ``Reflection.j``.  Each reader is checked
with ``==`` against an exact or a float reference form at every half-lattice
position, both normal signs and both orientations, on non-dyadic spacings
with origins off the lattice.
"""

from fractions import Fraction
from math import floor

import numpy as np
import pytest
from chord_oracle import shake_mask
from grid_strategies import small_grid

import symmkit as sk
from symmkit.errors import MisalignedHyperplane
from symmkit.harness import _ball_steps, trial_rng

SPACINGS = (0.1, 0.3, 0.07)


def axis_planes(grid, rounded=True):
    """(plane, j, P) for every axis plane at every half-lattice position j of
    the grid and up to two cells past either edge, both normal signs and both
    orientations, with P = origin + j*h/2 the plane's exact position on its
    axis.  The offset is P rounded to the nearest float or, unless
    ``rounded``, origin + j*h/2 summed in floats, as the cell centers are."""
    for k in range(grid.n):
        for j in range(-4, 2 * grid.dims[k] + 5):
            at = Fraction(grid.origin[k]) + j * Fraction(grid.spacing) / 2
            offset = float(at) if rounded else grid.origin[k] + j * grid.spacing / 2
            for sign in (1.0, -1.0):
                normal = tuple(sign if i == k else 0.0 for i in range(grid.n))
                for positive in (1, -1):
                    yield sk.OrientedHyperplane(normal, sign * offset, positive), j, at


def off_lattice_grid(rng, spacing, cells):
    n = int(rng.integers(1, 4))
    dims = tuple(int(d) for d in rng.integers(*cells, n))
    return sk.Grid(dims, tuple(rng.uniform(-3.0, 3.0, n)), spacing)


def ball_steps_oracle(grid, plane, at):
    """K of ``_ball_steps`` in exact rationals: the plane point nearest the grid
    center, at ``at`` on the plane's axis, and the room per axis between it and
    the first lattice centers outside the grid, less the radius bound 5h."""
    h = Fraction(grid.spacing)
    room = []
    for k, (o, m) in enumerate(zip(grid.origin, grid.dims)):
        lo, hi = Fraction(o), Fraction(o) + m * h
        p = at if k == plane.axis else (lo + hi) / 2
        room.append(min(p - lo, hi - p) + h / 2 - 5 * h)
    if min(room) < 0:
        return None
    return min(6, floor(room[plane.axis] / h))


class TestAxisRecord:
    @pytest.mark.parametrize(
        "normal, axis",
        [((1.0, 0.0), 0), ((0.0, -1.0), 1), ((-0.0, 1.0), 1), ((1e-13, 1.0), None), ((0.6, 0.8), None)],
    )
    def test_axis_is_the_one_nonzero_entry(self, normal, axis):
        assert sk.OrientedHyperplane(normal).axis == axis

    @pytest.mark.parametrize("spacing", SPACINGS)
    def test_plan_holds_the_half_lattice_position(self, spacing):
        grid = off_lattice_grid(trial_rng(661, int(spacing * 100)), spacing, (1, 8))
        for plane, j, _ in axis_planes(grid):
            plan = plane.reflection(grid)
            assert plan.j == j
            # cell i mirrors to j - 1 - i, read as the fill where that leaves the grid
            shape = tuple(-1 if k == plane.axis else 1 for k in range(grid.n))
            i = np.arange(grid.dims[plane.axis]).reshape(shape)
            mirror = np.where((j - 1 - i >= 0) & (j - 1 - i < i.size), j - 1 - i, -1)
            got = plan.mirror(np.broadcast_to(i, grid.dims).astype(float), -1.0)
            assert np.array_equal(got, np.broadcast_to(mirror, grid.dims))

    def test_a_plane_off_the_axes_has_no_position(self):
        grid = sk.centered_grid((4, 4), 0.3)
        assert sk.OrientedHyperplane((np.sqrt(0.5), np.sqrt(0.5))).reflection(grid).j is None

    def test_maps_refuse_a_normal_with_two_nonzero_entries(self):
        # a 1e-13 entry still makes the plan (its lattice test has slack), but no axis
        grid = sk.centered_grid((6, 6), 0.25)
        a = sk.GridSet(grid, np.eye(6, dtype=bool))
        tilted = sk.OrientedHyperplane((1e-13, 1.0))
        for make in (lambda p: sk.canonical_set_map("two_point", p), lambda p: sk.shake_set(a, p)):
            with pytest.raises(MisalignedHyperplane):
                make(tilted)
            make(sk.OrientedHyperplane((0.0, -1.0)))


def random_set(seed):
    """A random set on a 1D-3D grid of 1 to 5 cells an axis, on a non-dyadic
    spacing of the ball-room audit for two seeds in three."""
    rng = trial_rng(667, seed)
    grid = small_grid(rng, square=False)
    if seed % 3:
        grid = sk.Grid(grid.dims, grid.origin, SPACINGS[seed % 3])
    return sk.GridSet(grid, rng.random(grid.dims) < 0.5)


class TestShakeSet:
    @pytest.mark.parametrize("seed", range(30))
    def test_equals_the_float_form_at_every_axis_plane(self, seed):
        # offsets summed as the cell centers are, so the float side test is exact on the plane
        a = random_set(seed)
        for plane, _, _ in axis_planes(a.grid, rounded=False):
            assert np.array_equal(sk.shake_set(a, plane).mask, shake_mask(a, plane))

    @pytest.mark.parametrize("seed", range(30))
    def test_reads_only_the_half_lattice_position(self, seed):
        # the float form put an on-plane cell in H- when the rounded offset sat an ulp past its center
        a = random_set(seed)
        pairs = zip(axis_planes(a.grid), axis_planes(a.grid, rounded=False))
        for (rounded, _, _), (summed, _, _) in pairs:
            assert sk.shake_set(a, rounded) == sk.shake_set(a, summed)

    def test_a_plane_past_the_edge_keeps_every_cell(self):
        # the nearest H- cell is rank 0 however far the plane sits from it
        grid = sk.Grid((4,), (0.0,), 1.0)
        a = sk.GridSet(grid, np.ones(4, bool))
        for offset, positive in ((-1.0, -1), (5.0, 1)):
            assert sk.shake_set(a, sk.axis_plane(0, 1, offset, positive)) == a

    def test_an_on_plane_cell_stays_on_the_positive_side(self):
        # cell 3 lies on the plane, an ulp from its rounded offset, so cell 4 already abuts it
        grid = sk.Grid((5,), (-0.5235494326020858,), 0.3)
        at = Fraction(grid.origin[0]) + 7 * Fraction(grid.spacing) / 2
        a = sk.GridSet(grid, np.array([0, 0, 1, 0, 1], bool))
        assert sk.shake_set(a, sk.OrientedHyperplane((1.0,), float(at), -1)) == a


class TestBallRoom:
    def test_room_for_one_step_on_a_non_dyadic_grid(self):
        # the ball about the center has 2 half-cells of room on an 11-cell axis: one step
        assert _ball_steps(sk.centered_grid((11, 11), 0.3), sk.axis_plane(1, 2, 0.0))[1] == 1

    def test_a_map_that_empties_every_set_fails_on_a_non_dyadic_grid(self):
        # a 9-cell axis leaves the ball about the center no room to step, but room to be drawn
        empty = sk.SetMap("empty", lambda a: sk.GridSet(a.grid, np.zeros(a.grid.dims, bool)), plane=sk.axis_plane(1, 2))
        grid = sk.centered_grid((9, 9), 0.3)
        got = sk.check_laws(sk.SETMAP_LAWS, {"empty": empty}, 5, grid=grid, laws=["maps_balls_to_balls"])
        assert got["empty"]["maps_balls_to_balls"].verdict == "fails"

    @pytest.mark.parametrize("spacing", SPACINGS)
    @pytest.mark.parametrize("seed", range(6))
    def test_steps_equal_the_exact_form(self, spacing, seed):
        grid = off_lattice_grid(trial_rng(673, seed), spacing, (8, 18))
        for plane, _, at in axis_planes(grid):
            assert _ball_steps(grid, plane)[1] == ball_steps_oracle(grid, plane, at)


class TestGridChordTies:
    """A half-cell tie in ``chord_move_gridset`` follows the float shift."""

    PHI = sk.PLContraction([-100.0, 100.0], [-50.0, 50.0])

    @pytest.mark.parametrize("spacing, cells", [(0.125, [10, 11]), (0.1, [9, 10])])
    def test_run_of_two_cells_lands_by_the_float_shift(self, spacing, cells):
        # the run's midpoint moves 9.5 cells: up on a dyadic spacing, by the last bit on 0.1
        grid = sk.centered_grid((40,), spacing)
        a = sk.GridSet(grid, np.arange(40) < 2)
        assert np.nonzero(sk.chord_move_gridset(a, self.PHI, 0).mask)[0].tolist() == cells

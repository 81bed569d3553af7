"""Iterated two-point convergence experiment."""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass, field

import numpy as np

from .geometry import GridFunction, axis_plane
from .rearrange import polarize, steiner_symmetrize_function


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
    target_step: int = None  # the first step whose iterate equals the target, or None

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
    positive side is chosen to contain the central target plane.  It is
    chosen by the lattice index, since the rounded offset of the central
    plane can fall an ulp past the rounded center.
    """
    m = grid.dims[axis]
    j = int(rng.integers(1, 2 * m))  # half-lattice position, interior only
    offset = grid.origin[axis] + j * grid.spacing / 2.0
    return axis_plane(axis, grid.n, offset, 1 if j <= m else -1)


def run_convergence(f, axis, iterations, seed=0):
    """Iterate two-point rearrangements toward the symmetric-decreasing target.

    Records L1/Linf distances (in grid measure) to the per-column
    symmetric-decreasing rearrangement after each step and verifies that
    every iterate keeps the exact distribution profile of the input: its
    sorted values must equal the input's, which on one grid is the same
    test as equal distribution profiles.
    L1 monotonicity is measured, not assumed: steps that increase the
    distance are collected in ``increased_steps``, and the first step whose
    iterate equals the target (cell for cell) in ``target_step``.
    """
    try:
        iterations = operator.index(iterations)
    except TypeError:
        raise ValueError(f"iteration count must be an integer, got {iterations!r}") from None
    if iterations < 1:
        raise ValueError("iteration count must be at least 1")
    grid = f.grid
    target = steiner_symmetrize_function(f, axis)
    sorted_values = np.sort(f.values, axis=None)
    rng = np.random.default_rng(seed)
    vol = grid.cell_volume

    def distances(g):
        diff = np.abs(g.values - target.values)
        return float(diff.sum() * vol), float(diff.max())

    trace = ConvergenceTrace()
    trace.initial_l1 = distances(f)[0]
    current = f
    prev_l1 = trace.initial_l1
    for k in range(1, iterations + 1):
        plane = draw_polarization_plane(grid, axis, rng)
        current = polarize(current, plane)
        if trace.target_step is None and np.array_equal(current.values, target.values):
            trace.target_step = k
        if not np.array_equal(np.sort(current.values, axis=None), sorted_values):
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

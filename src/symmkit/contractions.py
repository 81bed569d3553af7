"""Piecewise-linear 1-Lipschitz maps of the real line."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnknownName
from .geometry import _breakpoints

SLOPE_TOL = 1e-12


@dataclass(frozen=True)
class PLContraction:
    """Piecewise-linear real map with every slope in [-1, 1].

    Defined by its breakpoints ``(t_i, phi(t_i))``; beyond the first and last
    breakpoint the terminal segment's slope continues, which keeps the
    Lipschitz-1 bound global.
    """

    ts: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        ts, ys = _breakpoints("breakpoints", self.ts, self.ys)
        slopes = np.diff(ys) / np.diff(ts)
        if np.any(np.abs(slopes) > 1.0 + SLOPE_TOL):
            raise ValueError("every segment slope must satisfy |s| <= 1")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "ys", ys)

    @property
    def slopes(self):
        return np.diff(self.ys) / np.diff(self.ts)

    def __call__(self, t):
        """Linear interpolation through the breakpoints, continued past both ends at the terminal slopes."""
        ts, ys, slopes = self.ts, self.ys, self.slopes
        t = np.asarray(t, dtype=float)
        out = np.where(t < ts[0], ys[0] + slopes[0] * (t - ts[0]), np.interp(t, ts, ys))
        out = np.where(t > ts[-1], ys[-1] + slopes[-1] * (t - ts[-1]), out)
        return float(out) if out.ndim == 0 else out

    @classmethod
    def from_breakpoints(cls, pairs):
        pairs = sorted((float(t), float(y)) for t, y in pairs)
        return cls([t for t, _ in pairs], [y for _, y in pairs])

    def breakpoint_pairs(self):
        return [(float(t), float(y)) for t, y in zip(self.ts, self.ys)]


CANONICAL_NAMES = ("id", "neg", "abs", "negabs")


def _positive(name, value):
    """``value`` as a float; ValueError naming ``name`` unless it is finite and positive."""
    x = float(value)
    if not (np.isfinite(x) and x > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return x


def canonical_contraction(name, half_width=8.0):
    """One of the four maps t, -t, |t|, -|t| on [-half_width, half_width]."""
    T = _positive("half_width", half_width)
    tables = {
        "id": [(-T, -T), (0.0, 0.0), (T, T)],
        "neg": [(-T, T), (0.0, 0.0), (T, -T)],
        "abs": [(-T, T), (0.0, 0.0), (T, T)],
        "negabs": [(-T, -T), (0.0, 0.0), (T, -T)],
    }
    if name not in tables:
        raise UnknownName(f"unknown contraction {name!r}; expected one of {CANONICAL_NAMES}")
    return PLContraction.from_breakpoints(tables[name])


def sawtooth_contraction(period=1.0, half_width=8.0):
    """Distance to the nearest multiple of ``period``; all slopes are +-1."""
    p = _positive("period", period)
    half_width = _positive("half_width", half_width)
    k_lo = int(np.floor(-half_width / (p / 2.0))) - 1
    k_hi = int(np.ceil(half_width / (p / 2.0))) + 1
    ts = np.arange(k_lo, k_hi + 1) * (p / 2.0)
    ys = np.where(np.arange(k_lo, k_hi + 1) % 2 == 0, 0.0, p / 2.0)
    return PLContraction(ts, ys)

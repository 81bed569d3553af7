"""Pointwise-map helpers shared by the tests: the associated-pair value test,
a pair that is no rearrangement, and increasing maps of the line composed
with a grid function."""

import numpy as np

import symmkit as sk


def check_fvalues(pair, samples):
    """Whether {F+(r,s), F-(s,r)} equals {r,s} on every sampled pair.

    Returns (ok, first_violation); the violation records the pair and the
    two values actually produced.
    """
    for r, s in samples:
        r = float(r)
        s = float(s)
        p = float(pair.fplus(r, s))
        q = float(pair.fminus(s, r))
        if not (min(p, q) == min(r, s) and max(p, q) == max(r, s)):
            return False, {"pair": (r, s), "produced": (p, q)}
    return True, None


def _mean(r, s):
    return (np.asarray(r, dtype=float) + np.asarray(s, dtype=float)) / 2.0


# agrees on the diagonal but averages the two values, so it is not equimeasurable
MEAN = sk.AssociatedFunctionPair("mean", _mean, _mean)


def compose(f, phi):
    """phi(f) as a grid function, for an increasing map phi of the line given by its table:

    - ``("pl", ts, ys)``: continuous and piecewise linear through (ts, ys),
      continued past both ends at the terminal slopes;
    - ``("step", thresholds, values, below)``: right-continuous, ``below``
      under the first threshold and ``values[i]`` from ``thresholds[i]`` on.
    """
    kind, *table = phi
    t = f.values
    if kind == "pl":
        ts, ys = (np.asarray(a, dtype=float) for a in table)
        slopes = np.diff(ys) / np.diff(ts)
        out = np.where(t < ts[0], ys[0] + slopes[0] * (t - ts[0]), np.interp(t, ts, ys))
        out = np.where(t > ts[-1], ys[-1] + slopes[-1] * (t - ts[-1]), out)
    else:
        thresholds, values, below = table
        out = np.concatenate([[below], values])[np.searchsorted(thresholds, t, side="right")]
    return sk.GridFunction(f.grid, out)

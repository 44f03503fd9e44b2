"""Finite nonnegative Borel measures on [0, infinity).

Two representations are used throughout the package:

* :class:`AtomicMeasure` -- a finite collection of weighted atoms.  This is
  the natural container for the residual-work state of a finite-server
  simulation (one atom per customer in service).
* :class:`TailFunction` -- the map ``x -> measure of [x, inf)`` sampled on a
  grid with linear interpolation in between.  Fluid-scale states and initial
  conditions live here.

The Prohorov distance between two atomic measures is computed exactly (to a
bisection tolerance) by restricting the closed-set quantifier to finite
subsets of the supports, which attains the supremum for purely atomic
measures.  At each bisection midpoint a dynamic program over the sorted
atoms tests one side at a time, the side with fewer atoms first, and
stops at the first set whose excess passes the radius.  A test's outcome,
and so the bisection's path and result, are those of the full dynamic
program on both sides.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

PROHOROV_TOL = 1e-9


def _as_sorted_atoms(locations, weights):
    """Sort by location, merge exact ties, drop zero weights."""
    loc = np.asarray(locations, dtype=float).ravel()
    wgt = np.asarray(weights, dtype=float).ravel()
    if loc.shape != wgt.shape:
        raise ValueError("locations and weights must have equal length")
    if not np.all(np.isfinite(loc) & (loc >= 0.0)):
        raise ValueError("atom locations must be finite and >= 0")
    if not np.all(np.isfinite(wgt) & (wgt >= 0.0)):
        raise ValueError("atom weights must be finite and >= 0")
    keep = wgt > 0.0
    loc, wgt = loc[keep], wgt[keep]
    order = np.argsort(loc, kind="stable")
    loc, wgt = loc[order], wgt[order]
    if loc.size:
        uniq, inverse = np.unique(loc, return_inverse=True)
        if uniq.size != loc.size:
            merged = np.zeros_like(uniq)
            np.add.at(merged, inverse, wgt)
            loc, wgt = uniq, merged
    loc.flags.writeable = False
    wgt.flags.writeable = False
    return loc, wgt


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite measure sum_i w_i * delta_{x_i} with x_i >= 0, w_i > 0.

    Atoms are stored sorted by location with exact ties merged.  Instances
    are immutable and safe to share between threads.
    """

    locations: np.ndarray
    weights: np.ndarray

    def __init__(self, locations=(), weights=()):
        loc, wgt = _as_sorted_atoms(locations, weights)
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", wgt)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def __len__(self) -> int:
        return int(self.locations.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AtomicMeasure):
            return NotImplemented
        return (
            self.locations.shape == other.locations.shape
            and bool(np.all(self.locations == other.locations))
            and bool(np.all(self.weights == other.weights))
        )

    def __hash__(self):
        return hash((self.locations.tobytes(), self.weights.tobytes()))

    def scaled(self, factor: float) -> "AtomicMeasure":
        if factor < 0:
            raise ValueError("scale factor must be >= 0")
        return AtomicMeasure(self.locations, self.weights * factor)


def _excess_at_most(a: AtomicMeasure, b: AtomicMeasure, eps: float) -> bool:
    """Whether a(S) - b(S^eps) <= eps for every finite S within supp(a),
    with S^eps the open eps-enlargement.

    Adding points outside supp(a) to a closed test set only inflates the
    enlargement, so this maximum equals the one over all closed sets.  A
    left-to-right pass over the atoms of ``a`` suffices: the mass newly
    covered when a run of chosen atoms is extended depends only on the
    rightmost atom chosen so far.  ``best[j]`` is the largest excess of a
    set whose rightmost atom is ``j``, so the pass stops with ``False`` at
    the first ``best[j] > eps``.  The loop runs over Python floats.
    """
    n = len(a)
    if n == 0:
        return True
    loc = a.locations
    b_loc = b.locations
    b_cum = np.concatenate(([0.0], np.cumsum(b.weights)))

    # b-mass of the open interval (loc-eps, loc+eps), clipped to [0, inf)
    upper = b_cum[np.searchsorted(b_loc, loc + eps, side="left")]
    lower = b_cum[np.searchsorted(b_loc, loc - eps, side="right")]
    fresh_cost = (upper - lower).tolist()
    upper = upper.tolist()
    loc = loc.tolist()
    wgt = a.weights.tolist()

    best = [0.0] * n
    far_max = 0.0          # best over atoms left of the 2*eps overlap window
    far_ptr = 0
    window = deque()       # (index, best[i] + mass_lt(loc[i] + eps)), max at left
    for j in range(n):
        left_edge = loc[j] - 2.0 * eps
        while far_ptr < j and loc[far_ptr] <= left_edge:
            i = far_ptr
            if best[i] > far_max:
                far_max = best[i]
            while window and window[0][0] == i:
                window.popleft()
            far_ptr += 1
        cand = far_max - fresh_cost[j]
        if window:
            cand2 = window[0][1] - upper[j]
            if cand2 > cand:
                cand = cand2
        best[j] = wgt[j] + cand
        if best[j] > eps:
            return False
        g = best[j] + upper[j]  # mass_lt(loc[j] + eps) == upper[j]
        while window and window[-1][1] <= g:
            window.pop()
        window.append((j, g))
    return True


def _prohorov_ok(m1: AtomicMeasure, m2: AtomicMeasure, eps: float) -> bool:
    # the side with fewer atoms first: it is cheaper and often decides
    if len(m2) < len(m1):
        m1, m2 = m2, m1
    return _excess_at_most(m1, m2, eps) and _excess_at_most(m2, m1, eps)


def prohorov(m1: AtomicMeasure, m2: AtomicMeasure, tol: float = PROHOROV_TOL) -> float:
    """Prohorov distance between two finite atomic measures.

    Bisects on eps in the two-sided enlargement test; the returned value is
    an upper bound on the exact distance, within ``tol`` of it, or as close
    as float spacing allows when ``tol`` is finer than that; ``tol`` must
    be positive and finite.  Each test stops at the first set whose excess
    passes eps, and runs the side with fewer atoms first; neither changes
    a test's outcome, so the bisection takes the same midpoints, and
    returns the same float, as the full dynamic program on both sides.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be a positive finite number")
    if m1 == m2:
        return 0.0
    # eps = larger total mass always satisfies the test; pad past rounding
    hi = max(m1.total_mass, m2.total_mass) + tol
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _prohorov_ok(m1, m2, mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class TailFunction:
    """x -> measure of [x, inf) on a grid, linear in between, flat beyond.

    ``grid`` starts at 0 and increases strictly; ``values`` are
    nonincreasing and nonnegative.  Queries beyond the last grid point
    return the last value.
    """

    grid: np.ndarray
    values: np.ndarray

    def __init__(self, grid, values):
        g = np.asarray(grid, dtype=float).ravel()
        v = np.asarray(values, dtype=float).ravel()
        if g.size == 0 or g.size != v.size:
            raise ValueError("grid and values must be nonempty and equal length")
        if g[0] != 0.0:
            raise ValueError("tail grid must start at 0")
        if g.size > 1 and np.min(np.diff(g)) <= 0.0:
            raise ValueError("tail grid must be strictly increasing")
        if np.min(v) < 0.0:
            raise ValueError("tail values must be >= 0")
        if v.size > 1 and np.max(np.diff(v)) > 1e-12:
            raise ValueError("tail values must be nonincreasing")
        g.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    @classmethod
    def zero(cls) -> "TailFunction":
        return cls([0.0], [0.0])

    def __call__(self, x):
        return np.interp(x, self.grid, self.values)

    @property
    def total_mass(self) -> float:
        return float(self.values[0])

    @property
    def lipschitz(self) -> float:
        """Largest slope magnitude over the grid cells."""
        if self.grid.size < 2:
            return 0.0
        return float(np.max(np.abs(np.diff(self.values)) / np.diff(self.grid)))

    def inverse(self, level):
        """Largest x at which the tail still meets ``level``.

        Piecewise-linear inverse used for inverse-transform sampling of
        residual work; levels at or below the final value map to the last
        grid point.
        """
        v = self.values[::-1]
        g = self.grid[::-1]
        return np.interp(level, v, g)

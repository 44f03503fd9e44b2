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
measures.  At each bisection midpoint a dynamic program tests one side at
a time, the side with fewer atoms first, and stops at the first set whose
excess passes the radius.  It runs over runs of consecutive atoms that
cover the same atoms of the other side: an optimal set takes each such run
whole, since its other atoms add mass and no cover.  So the pass over a
side with any number of atoms against m atoms takes at most 2*m + 1
steps.  In exact arithmetic a test's outcome, and so the bisection's path
and result, are those of the full dynamic program over single atoms on
both sides; a run's weight is summed in one pass rather than atom by
atom, and the tests hold the two to the same bools and the same distance
float for float.
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
    if np.any(loc[1:] == loc[:-1]):  # merge ties, in index order; np.unique only then
        loc, inverse = np.unique(loc, return_inverse=True)
        wgt = np.bincount(inverse, weights=wgt)
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


def _cumulative(m: AtomicMeasure) -> np.ndarray:
    """0 followed by the running sums of m's weights, so that the mass of
    atoms lo .. hi-1 is cum[hi] - cum[lo]."""
    return np.concatenate(([0.0], np.cumsum(m.weights)))


def _excess_at_most(a: AtomicMeasure, b: AtomicMeasure, eps: float, b_cum: np.ndarray) -> bool:
    """Whether a(S) - b(S^eps) <= eps for every finite S within supp(a),
    with S^eps the open eps-enlargement.

    Adding points outside supp(a) to a closed test set only inflates the
    enlargement, so this maximum equals the one over all closed sets.
    Each atom x of ``a`` sees ``b`` only through the index pair of the
    open interval (x - eps, x + eps) in ``b``'s sorted atoms.  A run of
    consecutive atoms with the same pair covers the same ``b`` atoms (none
    when two of them lie 2*eps or more apart), so a set holding one atom
    of a run gains the rest at no extra ``b`` mass, and the largest excess
    is reached by a union of whole runs.  Against ``m`` atoms of ``b``
    there are at most 2*m + 1 runs, however many atoms ``a`` has.  They
    are found vectorized, and each keeps its summed weight, its cover and
    its first and last location.

    A left-to-right pass over the runs then suffices: the mass newly
    covered when a chosen run is added depends only on the rightmost run
    chosen so far, and is the run's whole cover when that run ends 2*eps
    or more before it starts.  ``best[j]`` is the largest excess of a set
    whose rightmost run is ``j``, so the pass stops with ``False`` at the
    first ``best[j] > eps``.  The loop runs over Python floats.  ``b_cum``
    is ``_cumulative(b)``.
    """
    if len(a) == 0:
        return True
    loc = a.locations
    b_loc = b.locations

    # atom x covers the b-atoms k of (x-eps, x+eps), lo <= k < hi; a run
    # starts wherever lo or hi changes
    hi = b_loc.searchsorted(loc + eps, side="left")
    lo = b_loc.searchsorted(loc - eps, side="right")
    starts = np.concatenate(([True], (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1]))).nonzero()[0]
    wgt = np.add.reduceat(a.weights, starts).tolist()
    upper = b_cum[hi[starts]]
    fresh_cost = (upper - b_cum[lo[starts]]).tolist()
    upper = upper.tolist()
    first = loc[starts].tolist()
    last = loc[starts[1:] - 1].tolist() + loc[-1:].tolist()

    best = [0.0] * len(wgt)
    far_max = 0.0          # best over runs ending 2*eps or more before this one
    far_ptr = 0
    window = deque()       # (index, best[i] + mass_lt(last[i] + eps)), max at left
    for j in range(len(wgt)):
        left_edge = first[j] - 2.0 * eps
        while far_ptr < j and last[far_ptr] <= left_edge:
            if best[far_ptr] > far_max:
                far_max = best[far_ptr]
            while window and window[0][0] == far_ptr:
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
        g = best[j] + upper[j]  # mass_lt(last[j] + eps) == upper[j]
        while window and window[-1][1] <= g:
            window.pop()
        window.append((j, g))
    return True


def prohorov(m1: AtomicMeasure, m2: AtomicMeasure, tol: float = PROHOROV_TOL) -> float:
    """Prohorov distance between two finite atomic measures.

    Bisects on eps in the two-sided enlargement test; the returned value is
    an upper bound on the exact distance, within ``tol`` of it, or as close
    as float spacing allows when ``tol`` is finer than that; ``tol`` must
    be positive and finite.  Each test merges the atoms of one side into
    runs with the same cover on the other side, stops at the first set
    whose excess passes eps, and runs the side with fewer atoms first.
    None of these changes a test's outcome: an optimal set is a union of
    whole runs, and one set with an excess above eps fails the test
    whatever follows.  So the bisection takes the same midpoints, and
    returns the same float, as the full dynamic program over single atoms
    on both sides.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be a positive finite number")
    if m1 == m2:
        return 0.0
    # eps = larger total mass always satisfies the test; pad past rounding
    hi = max(m1.total_mass, m2.total_mass) + tol
    lo = 0.0
    # the side with fewer atoms first: it is cheaper and often decides
    if len(m2) < len(m1):
        m1, m2 = m2, m1
    cum1, cum2 = _cumulative(m1), _cumulative(m2)  # fixed across the bisection
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _excess_at_most(m1, m2, mid, cum2) and _excess_at_most(m2, m1, mid, cum1):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class TailFunction:
    """x -> measure of [x, inf) on a grid, linear in between, flat beyond.

    ``grid`` starts at 0 and increases strictly; ``values`` are
    nonincreasing and nonnegative.  A tail of positive mass has two or
    more grid points: on one, ``inverse`` would map every level to 0.
    Queries beyond the last grid point return the last value.
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
        if g.size == 1 and v[0] > 0.0:
            raise ValueError("tail grid needs two or more points when its mass is positive")
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

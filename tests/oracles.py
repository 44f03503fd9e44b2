"""Independent oracles used to derive expected values.

Everything here deliberately avoids the package's own algorithms: the
Prohorov oracle enumerates subsets against the raw definition, the drain
ODE is integrated by a plain fixed-step RK4 loop, the right-hand side
of the count equation is summed by plain trapezoid loops over scalar calls
of the law callables, the tail surface is a plain-loop midpoint
Stieltjes sum over the time grid, and the reference simulator keeps every
residual explicitly and drains each one at every event.  ``tail`` and
``shift_tail`` read and translate atomic measures by their definitions.
``subset_excess_reference`` is the full subset-excess dynamic program over
numpy scalars, without an early exit, and ``prohorov_reference`` bisects
with it; the package's short-circuiting test must reach the same bool at
every eps, and so the same distance.  ``service_cdf``, ``service_pdf`` and
``rate_on_array`` state each service law and rate kind in a second, plain
numpy form: the lognormal takes its log of the positive elements only, and
each rate kind maps a whole array at once.  They use the same operations in
the same order as the package's one formula, so the two must agree bit for
bit.
"""

import itertools
import math
from collections import deque

import numpy as np
from scipy.special import ndtr

from fluidq.measures import AtomicMeasure


def tail(measure: AtomicMeasure, x: float) -> float:
    """Mass of the closed half line [x, inf); atoms at exactly x count."""
    idx = np.searchsorted(measure.locations, x, side="left")
    return float(measure.weights[idx:].sum())


def shift_tail(measure: AtomicMeasure, s: float) -> AtomicMeasure:
    """The measure C -> measure(C + s): translate every atom left by s.

    Atoms whose shifted location is <= 0 are dropped; residual-work
    measures carry no mass at the origin.
    """
    if s < 0:
        raise ValueError("shift must be >= 0")
    new_loc = measure.locations - s
    keep = new_loc > 0.0
    return AtomicMeasure(new_loc[keep], measure.weights[keep])


def service_cdf(law, x):
    """P(v <= x) of a service law, from its kind and params."""
    p = law.params
    if law.kind == "exponential":
        return -np.expm1(-p["rate"] * np.maximum(x, 0.0))
    if law.kind == "uniform":
        return np.clip((np.asarray(x, dtype=float) - p["a"]) / (p["b"] - p["a"]), 0.0, 1.0)
    if law.kind == "deterministic":
        return np.where(np.asarray(x, dtype=float) >= p["value"], 1.0, 0.0)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = ndtr((np.log(x[pos]) - p["mu"]) / p["sigma"])
    return out if out.ndim else float(out)


def service_pdf(law, x):
    """Density of a service law, from its kind and params."""
    p = law.params
    if law.kind == "exponential":
        return p["rate"] * np.exp(-p["rate"] * np.maximum(x, 0.0))
    x = np.asarray(x, dtype=float)
    if law.kind == "uniform":
        out = np.where((x >= p["a"]) & (x <= p["b"]), 1.0 / (p["b"] - p["a"]), 0.0)
        return out if out.ndim else float(out)
    mu, sigma = p["mu"], p["sigma"]
    out = np.zeros_like(x)
    pos = x > 0.0
    xp = x[pos]
    z = (np.log(xp) - mu) / sigma
    out[pos] = np.exp(-0.5 * z * z) / (xp * sigma * math.sqrt(2.0 * math.pi))
    return out if out.ndim else float(out)


def rate_on_array(rate, x) -> np.ndarray:
    """k(max(x, 0)) over a whole array, from the rate's kind and params."""
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    p = rate.params
    if rate.kind == "constant":
        return np.full_like(x, p["value"])
    if rate.kind == "capped_linear":
        return np.minimum(p["base"] + p["slope"] * x, p["cap"])
    return np.interp(x, p["xs"], p["ks"])


def brute_subset_excess(a: AtomicMeasure, b: AtomicMeasure, eps: float) -> float:
    """max over every subset of supp(a) of a(S) - b(S^eps), by enumeration."""
    best = 0.0
    n = len(a)
    for r in range(1, n + 1):
        for chosen in itertools.combinations(range(n), r):
            mass_a = float(sum(a.weights[i] for i in chosen))
            mass_b = 0.0
            for j in range(len(b)):
                if any(abs(b.locations[j] - a.locations[i]) < eps for i in chosen):
                    mass_b += float(b.weights[j])
            best = max(best, mass_a - mass_b)
    return best


def brute_prohorov(m1: AtomicMeasure, m2: AtomicMeasure, tol: float = 1e-9) -> float:
    """Bisection on the two-sided enlargement test with the exhaustive
    subset check; exponential in the atom count, fine for tiny measures."""
    if len(m1) == 0 and len(m2) == 0:
        return 0.0
    lo, hi = 0.0, max(m1.total_mass, m2.total_mass) + tol
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        ok = (
            brute_subset_excess(m1, m2, mid) <= mid
            and brute_subset_excess(m2, m1, mid) <= mid
        )
        if ok:
            hi = mid
        else:
            lo = mid
    return hi


def subset_excess_reference(a: AtomicMeasure, b: AtomicMeasure, eps: float) -> float:
    """max over finite S within supp(a) of  a(S) - b(S^eps),  S^eps open.

    Adding points outside supp(a) to a closed test set only inflates the
    enlargement, so this maximum equals the one over all closed sets.  A
    left-to-right pass over the atoms of ``a`` suffices: the mass newly
    covered when a run of chosen atoms is extended depends only on the
    rightmost atom chosen so far.
    """
    n = len(a)
    if n == 0:
        return 0.0
    loc = a.locations
    wgt = a.weights
    b_loc = b.locations
    b_cum = np.concatenate(([0.0], np.cumsum(b.weights)))

    # b-mass of the open interval (loc-eps, loc+eps), clipped to [0, inf)
    upper = b_cum[np.searchsorted(b_loc, loc + eps, side="left")]
    lower = b_cum[np.searchsorted(b_loc, loc - eps, side="right")]
    fresh_cost = upper - lower

    best = np.empty(n)
    far_max = 0.0          # best over atoms left of the 2*eps overlap window
    far_ptr = 0
    window = deque()       # (index, best[i] + mass_lt(loc[i] + eps)), max at left
    result = 0.0
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
        g = best[j] + upper[j]  # mass_lt(loc[j] + eps) == upper[j]
        while window and window[-1][1] <= g:
            window.pop()
        window.append((j, g))
        if best[j] > result:
            result = best[j]
    return float(result)


def prohorov_reference(m1: AtomicMeasure, m2: AtomicMeasure, tol: float = 1e-9) -> float:
    """Bisection on the two-sided enlargement test with the full dynamic
    program on both sides at every midpoint."""
    if m1 == m2:
        return 0.0
    hi = max(m1.total_mass, m2.total_mass) + tol
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (subset_excess_reference(m1, m2, mid) <= mid
                and subset_excess_reference(m2, m1, mid) <= mid):
            hi = mid
        else:
            lo = mid
    return hi


def rk4_drain_ode(arrival_rate: float, service_hazard: float, speed,
                  horizon: float, step: float) -> np.ndarray:
    """Fixed-step RK4 for x' = lam - hazard*speed(x)*min(x, 1), x(0) = 0.

    ``speed`` is a number or a callable of the count.  This is the exact
    reduction of the fluid equations for exponential service
    (memorylessness), so it serves as an independent check of the
    integral-equation solver.
    """
    n = int(round(horizon / step))
    speed_at = speed if callable(speed) else (lambda x: speed)

    def f(x):
        return arrival_rate - service_hazard * speed_at(x) * min(x, 1.0)

    x = 0.0
    out = np.empty(n + 1)
    out[0] = 0.0
    for i in range(n):
        k1 = f(x)
        k2 = f(x + 0.5 * step * k1)
        k3 = f(x + 0.5 * step * k2)
        k4 = f(x + step * k3)
        x += step / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i + 1] = x
    return out


def count_equation_rhs(count, dt: float, arrival_rate: float, initial_queue: float,
                       initial_tail, service_tail, service_pdf, rate) -> list:
    """Right-hand side of the fluid count equation along a grid path,

        F(K_i) + q0*Gc(K_i) + int_0^t_i [lam*Gc(K_i - K(s))
                                         + (X(s) - 1)^+ k(X(s)) g(K_i - K(s))] ds,

    with K the trapezoid integral of k(X) and every time integral a
    trapezoid sum over the grid intervals, each written as a loop over
    scalar calls of the callables."""
    k = [float(rate(x)) for x in count]
    drain = [0.0]
    for i in range(1, len(count)):
        drain.append(drain[-1] + 0.5 * dt * (k[i - 1] + k[i]))
    out = []
    for i, k_i in enumerate(drain):
        integrand = []
        for j in range(i + 1):
            y = max(k_i - drain[j], 0.0)
            integrand.append(
                arrival_rate * float(service_tail(y))
                + max(count[j] - 1.0, 0.0) * k[j] * float(service_pdf(y))
            )
        total = float(initial_tail(k_i)) + initial_queue * float(service_tail(k_i))
        for m in range(1, i + 1):
            total += 0.5 * dt * (integrand[m - 1] + integrand[m])
        out.append(total)
    return out


def tail_midpoint_sum(x_grid, drained, started, i: int, initial_tail, service_tail) -> list:
    """Residual tail z(t_i, x) at each x of ``x_grid``: F(x + K_i) plus the
    midpoint Stieltjes sum over the time-grid intervals,

        sum_j Gc(x + K_i - (K_j + K_{j+1})/2) * (B_{j+1} - B_j),  j < i,

    written as loops over scalar calls of the callables."""
    out = []
    for x in x_grid:
        z = float(initial_tail(x + drained[i]))
        for j in range(i):
            mid = 0.5 * (drained[j] + drained[j + 1])
            z += float(service_tail(x + drained[i] - mid)) * (started[j + 1] - started[j])
        out.append(z)
    return out


def reference_simulation(n: int, arrival_times, requirements, rate,
                         horizon: float, grid):
    """Naive O(m)-per-event simulation of the n-server FCFS queue in which
    everyone in service drains at k(X/n), from an empty start.

    Residual work is a dict kept per customer.  At every event the rate is
    evaluated afresh, every residual is drained by r*dt, customers with
    residual <= 1e-12 leave together (logged in index order) and free
    servers take waiting customers head first.  A departure wins a tie
    with an arrival.  Returns the event log as (time, kind, customer)
    tuples and, for every grid point at or below the horizon that lies
    before the next event, the row (t, count, queue, in_service, started,
    drained), where drained is the cumulative per-server work.
    """
    clock = drained = 0.0
    in_service = {}  # customer -> residual work
    waiting = []     # (customer, requirement), head first
    started = 0
    arrived = 0
    log, rows = [], []
    gi = 0
    while True:
        count = len(in_service) + len(waiting)
        r = float(rate(count / n))
        dep = math.inf
        if in_service and r > 0.0:
            dep = clock + min(in_service.values()) / r
        arr = arrival_times[arrived] if arrived < len(arrival_times) else math.inf
        t_next = min(dep, arr)
        while gi < len(grid) and grid[gi] <= horizon and grid[gi] < t_next:
            g = grid[gi]
            rows.append((g, count, len(waiting), len(in_service), started,
                         drained + r * (g - clock)))
            gi += 1
        if t_next > horizon:
            break
        for c in in_service:
            in_service[c] -= r * (t_next - clock)
        drained += r * (t_next - clock)
        clock = t_next
        if dep <= arr:
            for c in sorted(c for c, w in in_service.items() if w <= 1e-12):
                del in_service[c]
                log.append((clock, "departure", c))
            while waiting and len(in_service) < n:
                c, v = waiting.pop(0)
                in_service[c] = v
                started = c
                log.append((clock, "start_service", c))
        else:
            arrived += 1
            v = requirements[arrived - 1]
            log.append((clock, "arrival", arrived))
            if len(in_service) < n:
                in_service[arrived] = v
                started = arrived
                log.append((clock, "start_service", arrived))
            else:
                waiting.append((arrived, v))
    return log, rows


def underloaded_count(times: np.ndarray, arrival_rate: float) -> np.ndarray:
    """Closed form when the system never saturates: lam*(1 - e^{-t}) for
    unit-hazard exponential service at unit speed."""
    return arrival_rate * (1.0 - np.exp(-times))


def overloaded_count(times: np.ndarray, arrival_rate: float) -> np.ndarray:
    """Closed form for lam > 1, unit-hazard exponential service at unit
    speed: saturates at t* = ln(lam/(lam-1)) and grows linearly after."""
    t_star = math.log(arrival_rate / (arrival_rate - 1.0))
    return np.where(
        times <= t_star,
        arrival_rate * (1.0 - np.exp(-times)),
        1.0 + (arrival_rate - 1.0) * (times - t_star),
    )

"""Solver for the deterministic (fluid) limit of the many-server queue.

The scaled customer count X solves a scalar fixed-point equation: writing
K(t) for the cumulative per-server drain (the integral of the service rate
along the solution) and with ingredients built from the initial tail F, the
initial queue mass q0, the arrival rate and the service law (tail Gc,
density g),

    X(t) = F(K(t)) + q0*Gc(K(t))
           + lam * int_0^t Gc(K(t) - K(s)) ds
           + int_0^t (X(s) - 1)^+ k(X(s)) g(K(t) - K(s)) ds.

The solve marches in time windows and Picard-iterates each window to
convergence.  Under a constant rate k the drain is k*t whatever the
iterate, so the map on a window of length h contracts at g_sup*k*h; the
window is h = min(T/10, 1/(2*g_sup*k)), floored at one grid step, and
contracts at factor <= 1/2 whenever it is longer than one step.  Under a
state-dependent rate the unknown also enters through K, and every window
is one grid step.  Either way every solution is accepted only on its
measured fixed-point defect.
All time integrals use the trapezoid rule on a uniform grid, and one
function, _history, evaluates the trapezoid history sum for both the
solver and the defect.

The tail surface z(t, x) of the limiting residual-work measure is then a
midpoint Stieltjes sum against the increments of the cumulative
service-start path B(t) = lam*t - Q(t), which is robust to the kinks B
picks up when the queue empties or fills.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .laws import RateFunction, ServiceLaw
from .measures import TailFunction

CONSISTENCY_TOL = 1e-9
DEFECT_TOL_FACTOR = 1e-6   # accepted defect: factor * (1 + sup|X|)
PICARD_TOL_FACTOR = 1e-9   # window iteration stops at this * (1 + sup|X|)
MAX_PICARD_ITERATIONS = 80


class FluidSolverError(RuntimeError):
    """A window's Picard iteration did not reach a finite fixed point within
    MAX_PICARD_ITERATIONS, or the solution's defect is not within tolerance."""


class FluidAccuracyError(RuntimeError):
    """A solution identity failed beyond slack; a smaller dt should fix it."""


def check_initial_consistency(in_service_mass: float, queue_mass: float):
    """Time-zero identity: the queue must equal (X0 - 1)^+, so a positive
    queue requires in-service mass exactly 1."""
    x0 = in_service_mass + queue_mass
    if abs(queue_mass - max(x0 - 1.0, 0.0)) > CONSISTENCY_TOL:
        raise ValueError(
            "inconsistent initial state: queue must equal (X0 - 1)^+ "
            f"(in-service mass {in_service_mass}, queue {queue_mass})"
        )


@dataclass(frozen=True)
class FluidParams:
    """Inputs of one fluid solve.

    Consistency at time zero is enforced on construction: with z0 the total
    initial in-service mass, the initial queue must equal
    (z0 + initial_queue - 1)^+ within 1e-9, i.e. a positive queue requires
    a fully loaded initial tail.
    """

    arrival_rate: float
    service: ServiceLaw
    rate: RateFunction
    initial_tail: TailFunction
    initial_queue: float
    horizon: float
    dt: float

    def __post_init__(self):
        if self.arrival_rate < 0:
            raise ValueError("arrival rate must be >= 0")
        if self.initial_queue < 0:
            raise ValueError("initial queue must be >= 0")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if not (0 < self.dt <= self.horizon):
            raise ValueError("dt must lie in (0, horizon]")
        check_initial_consistency(self.initial_tail.total_mass, self.initial_queue)

    @property
    def steps(self) -> int:
        return max(1, int(round(self.horizon / self.dt)))

    @property
    def dt_effective(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    @property
    def initial_count(self) -> float:
        return self.initial_tail.total_mass + self.initial_queue


@dataclass
class SolveDiagnostics:
    window_steps: int
    windows: list = field(default_factory=list)  # (i0, i1, iterations, last_change)
    defect: float = math.nan

    @property
    def total_iterations(self) -> int:
        return sum(w[2] for w in self.windows)


@dataclass(frozen=True)
class FluidSolution:
    """Grid paths of one solve plus the residual-work tail surface.

    ``tail_surface[i, j]`` is the mass at or above ``x_grid[j]`` at time
    ``surface_times[i]``.
    """

    times: np.ndarray
    count: np.ndarray       # X
    queue: np.ndarray       # Q = (X - 1)^+
    started: np.ndarray     # B = lam*t - Q
    drained: np.ndarray     # K, cumulative per-server drain
    x_grid: np.ndarray
    surface_times: np.ndarray
    tail_surface: np.ndarray
    diagnostics: SolveDiagnostics


def _ingredients(params: FluidParams):
    tail_f = params.initial_tail
    svc = params.service
    lam = params.arrival_rate
    q0 = params.initial_queue

    def h1(y):
        return tail_f(y) + q0 * svc.tail(y)

    def h2(y):
        return lam * svc.tail(y)

    def drain_coeff(x):
        return np.maximum(x - 1.0, 0.0) * params.rate(x)

    return h1, h2, drain_coeff, svc.pdf


def window_length_steps(params: FluidParams) -> int:
    """Window length of the march in grid steps: one step under a
    state-dependent rate; under a constant rate k, h = min(T/10,
    1/(2*g_sup*k)) floored at one step, on which the map contracts at
    g_sup*k*h <= 1/2 unless the floor is hit."""
    if params.rate.lipschitz != 0.0:
        return 1
    h = params.horizon / 10.0
    contraction = params.service.density_bound * params.rate.bound
    if contraction > 0:
        h = min(h, 0.5 / contraction)
    return max(1, int(math.floor(h / params.dt_effective + 1e-12)))


def _cumtrapz(values: np.ndarray, dt: float) -> np.ndarray:
    out = np.empty_like(values)
    out[0] = 0.0
    np.cumsum(0.5 * dt * (values[1:] + values[:-1]), out=out[1:])
    return out


def cumulative_drain(count: np.ndarray, rate: RateFunction, dt: float) -> np.ndarray:
    """Trapezoid cumulative integral of the service rate along the path."""
    return _cumtrapz(np.asarray(rate(count), dtype=float), dt)


def queue_and_starts(count: np.ndarray, arrival_rate: float, times: np.ndarray):
    """Queue mass (X - 1)^+ and cumulative service starts lam*t - Q.

    The starts path must come out nondecreasing; a violation beyond 1e-9
    means the count path is not accurate enough at this dt.
    """
    queue = np.maximum(count - 1.0, 0.0)
    started = arrival_rate * times - queue
    if started.size > 1 and np.min(np.diff(started)) < -1e-9:
        raise FluidAccuracyError(
            "cumulative service starts decreased; refine dt"
        )
    return queue, started


def _trapezoid_weights(i0: int, i1: int, dt: float) -> np.ndarray:
    """Rows are grid indices i0+1..i1; column j carries the trapezoid
    weight of node j in the integral from 0 to t_i (zero beyond j = i)."""
    rows = np.arange(i0 + 1, i1 + 1)
    cols = np.arange(i1 + 1)
    w = np.where(cols[None, :] <= rows[:, None], dt, 0.0)
    w[:, 0] = 0.5 * dt
    w[np.arange(rows.size), rows] = 0.5 * dt
    return w


def _history(ingredients, drain: np.ndarray, i0: int, i1: int, dt: float):
    """Trapezoid history sum of the count equation on rows i0+1..i1.

    The right-hand side at those rows is ``fixed + gw @ coeff[: i1 + 1]``,
    with coeff the drain coefficient (X - 1)^+ k(X) along the path and,
    for K = ``drain`` and trapezoid weights w,

        fixed[i] = h1(K_i) + sum_j w_ij h2(K_i - K_j),
        gw[i, j] = g(K_i - K_j) w_ij.

    Both depend on the path only through K.  Returns (fixed, gw).
    """
    h1, h2, _, g = ingredients
    now = drain[i0 + 1 : i1 + 1]
    d = now[:, None] - drain[None, : i1 + 1]
    np.maximum(d, 0.0, out=d)
    w = _trapezoid_weights(i0, i1, dt)
    return h1(now) + (h2(d) * w).sum(axis=1), g(d) * w


def solve_count_path(params: FluidParams, start: str = "constant"):
    """March the fixed-point equation for the scaled count over windows.

    ``start`` selects the first Picard iterate on each window: "constant"
    continues the last solved value, "h1" seeds with the no-feedback
    response to the extrapolated drain.  Both must land on the same fixed
    point; the solver's uniqueness probe exploits that.

    Under a constant rate k the drain is k*t whatever the iterate, so the
    history kernels are built once per window; otherwise they are rebuilt
    on every Picard iteration from the iterate's drain.  Either way only
    one kernel is alive at a time.

    Returns (count path, SolveDiagnostics).
    """
    params.service.require_lipschitz_density()
    if start not in ("constant", "h1"):
        raise ValueError("start must be 'constant' or 'h1'")
    n_steps = params.steps
    dt = params.dt_effective
    times = params.times
    ingredients = _ingredients(params)
    h1, _, drain_coeff, _ = ingredients
    x = np.zeros(n_steps + 1)
    x[0] = params.initial_count

    win_steps = window_length_steps(params)
    diag = SolveDiagnostics(window_steps=win_steps)
    if params.arrival_rate == 0.0 and params.initial_tail.total_mass == 0.0:
        # nothing ever enters: the zero path solves the equation exactly
        return x, diag

    rate = params.rate
    constant_rate = rate.lipschitz == 0.0
    k_all = np.asarray(rate(x), dtype=float)  # rewritten as windows solve
    drain = np.zeros(n_steps + 1)
    if constant_rate:
        drain[:] = rate(x[:1])[0] * times
    coeff = drain_coeff(x)

    def follow(phi, i0, i1):
        """Drain (unless constant) and drain coefficient along phi on rows
        i0+1..i1."""
        if not constant_rate:
            k_all[i0 + 1 : i1 + 1] = rate(phi)
            drain[i0 + 1 : i1 + 1] = drain[i0] + _cumtrapz(k_all[i0 : i1 + 1], dt)[1:]
        coeff[i0 + 1 : i1 + 1] = drain_coeff(phi)

    for i0 in range(0, n_steps, win_steps):
        i1 = min(i0 + win_steps, n_steps)
        if start == "constant":
            phi = np.full(i1 - i0, x[i0])
        else:
            guess_drain = drain[i0] + float(rate(np.array([x[i0]]))[0]) * (
                times[i0 + 1 : i1 + 1] - times[i0]
            )
            phi = h1(guess_drain)
        gw = None
        for it in range(1, MAX_PICARD_ITERATIONS + 1):
            follow(phi, i0, i1)
            if gw is None or not constant_rate:
                gw = None  # release the old kernel before building the new one
                fixed, gw = _history(ingredients, drain, i0, i1, dt)
            rhs = fixed + gw @ coeff[: i1 + 1]
            change = float(np.max(np.abs(rhs - phi)))
            phi = rhs
            scale = 1.0 + float(np.max(np.abs(phi)))
            if math.isfinite(change) and change <= PICARD_TOL_FACTOR * scale:
                break
        else:
            raise FluidSolverError(
                f"no convergence on [{times[i0]:.6g}, {times[i1]:.6g}] in "
                f"{MAX_PICARD_ITERATIONS} Picard iterations (last change {change:.3g})"
            )
        x[i0 + 1 : i1 + 1] = phi
        follow(phi, i0, i1)
        diag.windows.append((i0, i1, it, change))
    return x, diag


def fixed_point_defect(params: FluidParams, count: np.ndarray) -> float:
    """Sup-norm defect of a grid path in the count equation, with the same
    trapezoid quadrature the solver uses.  The solver's own output must
    pass DEFECT_TOL_FACTOR * (1 + sup|X|); a visibly perturbed path must
    not."""
    count = np.asarray(count, dtype=float)
    n = count.size - 1
    if n != params.steps:
        raise ValueError("path length does not match the parameter grid")
    dt = params.dt_effective
    ingredients = _ingredients(params)
    h1, _, drain_coeff, _ = ingredients
    drain = cumulative_drain(count, params.rate, dt)
    coeff = drain_coeff(count)
    worst = abs(count[0] - float(h1(np.zeros(1))[0]))
    block = 256
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        fixed, gw = _history(ingredients, drain, i0, i1, dt)
        rhs = fixed + gw @ coeff[: i1 + 1]
        del gw  # release this block's kernel before the next one is built
        worst = max(worst, float(np.max(np.abs(count[i0 + 1 : i1 + 1] - rhs))))
    return worst


def defect_tolerance(count: np.ndarray) -> float:
    return DEFECT_TOL_FACTOR * (1.0 + float(np.max(np.abs(count))))


def tail_on_grid(
    params: FluidParams,
    count: np.ndarray,
    drained: np.ndarray,
    started: np.ndarray,
    t_index: int,
    x_grid: np.ndarray,
) -> np.ndarray:
    """Residual-mass tail z(t, x) over ``x_grid`` at grid time index
    ``t_index``: initial-tail carry-over plus a midpoint Stieltjes sum of
    the service-law tail against the increments of the starts path."""
    x_grid = np.asarray(x_grid, dtype=float)
    tail_f = params.initial_tail
    svc_tail = params.service.tail
    i = t_index
    z = np.asarray(tail_f(x_grid + drained[i]), dtype=float)
    if i > 0:
        db = np.diff(started[: i + 1])
        mid = 0.5 * (drained[:i] + drained[1 : i + 1])
        args = x_grid[None, :] + (drained[i] - mid)[:, None]
        z = z + svc_tail(args).T @ db
    return z


def _grid_index(times: np.ndarray, t: float) -> int:
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) > 1e-9:
        raise ValueError(f"time {t} is not on the solution grid")
    return i


def solve(
    params: FluidParams,
    x_grid=None,
    surface_times=None,
    start: str = "constant",
) -> FluidSolution:
    """Full solve: count path, queue/starts/drain paths, tail surface.

    ``surface_times`` defaults to roughly 100 evenly spaced grid times.
    The computed surface is validated: nonnegative within 1e-9,
    nonincreasing in x within 1e-9, and z(t, 0) within quadrature slack of
    min(count, 1).
    """
    if x_grid is None:
        x_grid = np.arange(0.0, 10.0 + 1e-12, 0.05)
    x_grid = np.asarray(x_grid, dtype=float)
    count, diag = solve_count_path(params, start=start)
    diag.defect = fixed_point_defect(params, count)
    if not diag.defect <= defect_tolerance(count):
        raise FluidSolverError(
            f"defect {diag.defect:.3g} above tolerance {defect_tolerance(count):.3g}"
        )
    times = params.times
    dt = params.dt_effective
    drained = cumulative_drain(count, params.rate, dt)
    queue, started = queue_and_starts(count, params.arrival_rate, times)

    if surface_times is None:
        stride = max(1, params.steps // 100)
        idx = np.arange(0, params.steps + 1, stride)
        if idx[-1] != params.steps:
            idx = np.append(idx, params.steps)
    else:
        idx = np.array([_grid_index(times, t) for t in surface_times], dtype=int)
    surface = np.empty((idx.size, x_grid.size))
    for row, i in enumerate(idx):
        surface[row] = tail_on_grid(params, count, drained, started, int(i), x_grid)

    # identity checks on the assembled solution
    if np.min(surface) < -1e-9:
        raise FluidAccuracyError("negative tail mass; refine dt")
    if surface.shape[1] > 1 and np.max(np.diff(surface, axis=1)) > 1e-9:
        raise FluidAccuracyError("tail surface increases in x; refine dt")
    z0_slack = max(
        1e-9,
        10.0 * dt * params.arrival_rate * params.service.density_bound,
    ) + 10.0 * dt * params.initial_tail.lipschitz * params.rate.bound
    in_service = np.minimum(count[idx], 1.0)
    if x_grid[0] == 0.0 and np.max(np.abs(surface[:, 0] - in_service)) > z0_slack:
        raise FluidAccuracyError("tail at 0 disagrees with min(count, 1); refine dt")

    return FluidSolution(
        times=times,
        count=count,
        queue=queue,
        started=started,
        drained=drained,
        x_grid=x_grid,
        surface_times=times[idx],
        tail_surface=surface,
        diagnostics=diag,
    )

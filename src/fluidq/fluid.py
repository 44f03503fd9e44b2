"""Solver for the deterministic (fluid) limit of the many-server queue.

The scaled customer count X solves a scalar fixed-point equation: writing
K(t) for the cumulative per-server drain (the integral of the service rate
along the solution) and with ingredients built from the initial tail F, the
initial queue mass q0, the arrival rate and the service law (tail Gc,
density g),

    X(t) = F(K(t)) + q0*Gc(K(t))
           + lam * int_0^t Gc(K(t) - K(s)) ds
           + int_0^t (X(s) - 1)^+ k(X(s)) g(K(t) - K(s)) ds.

Measured in drain time u = K(t), where du = k(X) dt, the kernels no longer
move with the unknown and the equation is a convolution:

    X(u) = h1(u) + int_0^u [lam/k(X(v)) Gc(u - v) + (X(v) - 1)^+ g(u - v)] dv,
    t(u) = int_0^u dv / k(X(v)),    h1 = F + q0*Gc.

When k has a positive floor k_min (and k_sup/k_min <= MAX_NODES_PER_STEP)
the solver marches this equation by the trapezoid rule on u_m = m*du with
du = k_min*dt, until t(u) reaches the horizon, and interpolates X back onto
the time grid; that takes up to (k_sup/k_min)*N nodes for N time steps.
Otherwise (k reaches 0, so K can stall) it marches the time-grid trapezoid
equation one step at a time.  Either way each node's unknown is one scalar
solved by fixed-point iteration.

The time-grid trapezoid defect is the judge of every solution: ``solve``
accepts a path only when fixed_point_defect is within DEFECT_TOL_FACTOR *
(1 + sup|X|).  The drain march solves another quadrature of the same
equation, O(dt^2) away; where that gap exceeds the tolerance, ``solve``
marches in time instead.  One function, _history, evaluates the
time-grid trapezoid right-hand side for both the time march and the
defect, with one law pass over each pair matrix K_i - K_j: Gc alone until
a queue forms ((X - 1)^+ k(X) != 0 on a column), then Gc and g together
(``ServiceLaw.tail_and_pdf``).  The defect needs O(N^2) such passes; it
takes the rows DEFECT_BLOCK_ROWS at a time, each block one ``run_jobs``
job, so every block runs whole and serially in some process and every
float is the serial one.  ``run_jobs`` spreads independent keyed jobs over
one forked worker per CPU; the harness and the CLI run their (n, seed)
simulations on it too.

The tail surface z(t, x) of the limiting residual-work measure is a
midpoint Stieltjes sum of Gc against the cumulative service-start path
B(t) = lam*t - Q(t), which is robust to the kinks B picks up when the
queue empties or fills.  With a positive floor it is taken on a drain
lattice, so one table of Gc serves every row.  ``tail_on_grid`` gives the
rows at indices of ``time_grid``, the one time grid, for ``solve``'s
stored rows and the harness's snapshot measures alike.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .laws import RateFunction, ServiceLaw
from .measures import TailFunction

CONSISTENCY_TOL = 1e-9
DEFECT_TOL_FACTOR = 1e-6   # accepted defect: factor * (1 + sup|X|)
PICARD_TOL_FACTOR = 1e-9   # a node's iteration stops at this * (1 + |X|)
MAX_PICARD_ITERATIONS = 80
MAX_NODES_PER_STEP = 16    # drain march only while k_sup/k_min is at most this
DEFECT_BLOCK_ROWS = 256    # rows of the pair matrix in one defect job
MAX_TABLE_ENTRIES = 10**7  # tail_on_grid's table or block: 80 MB, as the parser's time grid


def time_grid(horizon: float, dt: float) -> np.ndarray:
    """``round(T/dt)`` equal steps on [0, T], at least one; [0] if T = 0."""
    steps = max(1, int(round(horizon / dt))) if horizon > 0.0 else 0
    return np.linspace(0.0, horizon, steps + 1)


class FluidSolverError(RuntimeError):
    """A node's fixed-point iteration did not reach a finite fixed point
    within MAX_PICARD_ITERATIONS, or the solution's defect is not within
    tolerance."""


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
        return self.times.size - 1

    @property
    def dt_effective(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return time_grid(self.horizon, self.dt)

    @property
    def initial_count(self) -> float:
        return self.initial_tail.total_mass + self.initial_queue


@dataclass
class SolveDiagnostics:
    march: str                # "drain" or "time"
    du: float = math.nan      # drain-grid step of the drain march
    windows: list = field(default_factory=list)  # iterations of each node's scalar solve
    defect: float = math.nan

    @property
    def total_iterations(self) -> int:
        return sum(self.windows)


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


def _h1(params: FluidParams, y):
    """h1 = F + q0*Gc at drain ``y``."""
    return params.initial_tail(y) + params.initial_queue * params.service.tail(y)


def _drain_coeff(params: FluidParams, x):
    """The drain coefficient (X - 1)^+ k(X) at count ``x``."""
    return np.maximum(x - 1.0, 0.0) * params.rate(x)


def march_kind(rate: RateFunction) -> str:
    """"drain" when k has a positive floor and the drain march needs at
    most MAX_NODES_PER_STEP nodes per time step, "time" otherwise."""
    if rate.floor > 0.0 and rate.bound <= MAX_NODES_PER_STEP * rate.floor:
        return "drain"
    return "time"


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


def _weigh(a: np.ndarray, i0: int, last: np.ndarray, dt: float):
    """Multiply, in place, rows of the pair matrix over columns 0..i1 by
    the trapezoid weights of the integral from 0 to t_i: 0.5*dt at column
    0, dt up to column i0, and ``last`` on the square of columns
    i0+1..i1 (dt below the diagonal, 0.5*dt on it, 0 above)."""
    a[:, 0] *= 0.5 * dt
    a[:, 1 : i0 + 1] *= dt
    a[:, i0 + 1 :] *= last


def _history(params, drain: np.ndarray, coeff: np.ndarray, i0: int, i1: int, dt: float) -> np.ndarray:
    """Right-hand side of the count equation for ``params`` on rows
    i0+1..i1 by the time-grid trapezoid rule.  With K = ``drain``,
    trapezoid weights w and coeff the drain coefficient (X - 1)^+ k(X)
    along the path (``_drain_coeff``),

        rhs[i] = h1(K_i) + sum_j w_ij lam Gc(K_i - K_j)
                 + sum_j w_ij g(K_i - K_j) coeff_j,

    the last sum a matrix-vector product over the block, whose summation
    order follows the block's shape.  Gc and g come from one law pass over
    the pair matrix K_i - K_j; where coeff is 0 on columns 0..i1 (no queue
    yet), the last sum is exactly 0 and the pass takes Gc alone (a NaN
    coeff is not 0).
    """
    law = params.service
    queued = bool(np.any(coeff[: i1 + 1] != 0.0))
    now = drain[i0 + 1 : i1 + 1]
    q = np.arange(now.size)
    last = np.where(q[None, :] < q[:, None], dt, 0.0)
    np.fill_diagonal(last, 0.5 * dt)
    d = now[:, None] - drain[None, : i1 + 1]
    np.maximum(d, 0.0, out=d)
    h2, g = law.tail_and_pdf(d) if queued else (law.tail(d), None)
    del d
    h2 *= params.arrival_rate
    _weigh(h2, i0, last, dt)
    rhs = _h1(params, now) + h2.sum(axis=1)
    if not queued:
        return rhs
    _weigh(g, i0, last, dt)
    return rhs + g @ coeff[: i1 + 1]


def solve_count_path(params: FluidParams, march: str | None = None):
    """Solve the fixed-point equation for the scaled count on the time grid.

    ``march`` is "drain" or "time"; by default ``march_kind(params.rate)``
    picks it.  The drain march solves the drain-time equation on the grid
    u_m = m*du, du = k_min*dt, to the first node at or past the horizon,
    and interpolates X onto the time grid.  The time march solves the
    trapezoid equation on the time grid one step at a time.

    Each node's unknown is a scalar solved by fixed-point iteration from
    the last solved value.

    Returns (count path, SolveDiagnostics).
    """
    params.service.require_lipschitz_density()
    march = march or march_kind(params.rate)
    du = float(params.rate.floor * params.dt_effective) if march == "drain" else math.nan
    diag = SolveDiagnostics(march=march, du=du)
    x = np.zeros(params.steps + 1)
    x[0] = params.initial_count
    if params.arrival_rate == 0.0 and params.initial_tail.total_mass == 0.0:
        # nothing ever enters: the zero path solves the equation exactly
        return x, diag
    if march == "drain":
        return _drain_march(params, diag), diag
    _time_march(params, x, diag)
    return x, diag


def _fixed_point(update, guess, where: str):
    """Iterate the scalar map ``update`` from ``guess`` until a finite change
    within PICARD_TOL_FACTOR * (1 + |x|).  Returns (x, iterations)."""
    x = guess
    for it in range(1, MAX_PICARD_ITERATIONS + 1):
        new = update(x)
        change = abs(new - x)
        x = new
        if math.isfinite(change) and change <= PICARD_TOL_FACTOR * (1.0 + abs(x)):
            return x, it
    raise FluidSolverError(
        f"no convergence {where} in {MAX_PICARD_ITERATIONS} iterations "
        f"(last change {change:.3g})"
    )


def _drain_march(params: FluidParams, diag: SolveDiagnostics) -> np.ndarray:
    """March the drain-time equation

        X(u) = h1(u) + int_0^u [lam/k(X(v)) Gc(u - v) + (X(v) - 1)^+ g(u - v)] dv

    with t(u) = int_0^u dv/k(X(v)), by the trapezoid rule on u_m = m*du.
    The kernels are fixed, so the lagged part of node m is two dot
    products against reversed tables of Gc and g (the second skipped, as
    0, until a node has a queue), and the lag-0 part leaves a scalar
    equation.  t grows by at least du/k_sup per node, so at most
    k_sup/k_min nodes per time step are needed.  Returns X on the time
    grid, linearly interpolated in t."""
    rate = params.rate
    lam = params.arrival_rate
    du = diag.du
    nodes = int(math.ceil(params.steps * rate.bound / rate.floor)) + 2
    u = du * np.arange(nodes + 1)
    h1_u = _h1(params, u)
    gc_u, g_u = params.service.tail_and_pdf(u)
    gc_rev = np.ascontiguousarray(gc_u[::-1])  # gc_rev[nodes - p] = Gc(p du)
    g_rev = np.ascontiguousarray(g_u[::-1])
    lag0_arrivals = 0.5 * du * lam * gc_rev[nodes]
    lag0_drain = 0.5 * du * g_rev[nodes]
    x = np.empty(nodes + 1)
    t = np.empty(nodes + 1)
    arrivals = np.empty(nodes + 1)  # trapezoid weight * lam/k(X) per node
    excess = np.empty(nodes + 1)    # trapezoid weight * (X - 1)^+ per node
    x[0] = params.initial_count
    t[0] = 0.0
    inv_k = 1.0 / rate(x[0])
    arrivals[0] = 0.5 * lam * inv_k
    excess[0] = 0.5 * max(x[0] - 1.0, 0.0)
    queued = False  # some node so far has excess != 0
    m = 0
    while t[m] < params.horizon:
        m += 1
        if m > nodes:
            raise FluidSolverError(f"drain march passed its {nodes} nodes before the horizon")
        lag = slice(nodes - m, nodes)
        queued = queued or excess[m - 1] != 0.0
        lagged = h1_u[m] + du * (
            np.dot(arrivals[:m], gc_rev[lag]) + (np.dot(excess[:m], g_rev[lag]) if queued else 0.0)
        )
        x[m], it = _fixed_point(
            lambda v: lagged + lag0_arrivals / rate(v) + lag0_drain * max(v - 1.0, 0.0),
            x[m - 1],
            f"at drain {m * du:.6g}",
        )
        inv_next = 1.0 / rate(x[m])
        t[m] = t[m - 1] + 0.5 * du * (inv_k + inv_next)
        inv_k = inv_next
        arrivals[m] = lam * inv_k
        excess[m] = max(x[m] - 1.0, 0.0)
        diag.windows.append(it)
    return np.interp(params.times, t[: m + 1], x[: m + 1])


def _time_march(params: FluidParams, x: np.ndarray, diag: SolveDiagnostics):
    """One-step march of the trapezoid equation on the time grid, filling
    ``x``.  X_i enters its own history through K_i, so the kernels are
    rebuilt on every iteration; only one is alive at a time."""
    dt = params.dt_effective
    times = params.times
    rate = params.rate
    k_all = np.asarray(rate(x), dtype=float)  # rewritten as steps solve
    drain = np.zeros(x.size)
    coeff = _drain_coeff(params, x)

    def follow(v, i):
        """Rate, drain and drain coefficient at row i along X_i = v."""
        k_all[i] = rate(v)
        drain[i] = drain[i - 1] + 0.5 * dt * (k_all[i - 1] + k_all[i])
        coeff[i] = _drain_coeff(params, v)

    def update(v, i):
        follow(v, i)
        return float(_history(params, drain, coeff, i - 1, i, dt)[0])

    for i in range(1, x.size):
        x[i], it = _fixed_point(
            lambda v: update(v, i), x[i - 1], f"on [{times[i - 1]:.6g}, {times[i]:.6g}]"
        )
        follow(x[i], i)
        diag.windows.append(it)


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool_work = None  # (fn, keys) for the forked workers


def _pool_job(i: int):
    fn, keys = _pool_work
    return fn(keys[i])


def run_jobs(fn, keys) -> list:
    """``[fn(key) for key in keys]`` on one forked worker per CPU (in process
    for one CPU or one key).  The fork context starts every worker from
    the calling thread at the first ``submit``, so workers import nothing
    again, see the caller's modules, arrays and numpy error state, and get
    only a key's index.  A key's first entry sizes its job, so keys go out
    largest first: n for an (n, seed) simulation, i0 for a defect block (a
    later block has more columns).  Results are collected in key order, so
    the first failing key raises, as in a serial loop."""
    global _pool_work
    workers = min(_cpus(), len(keys))
    if workers <= 1:
        return [fn(key) for key in keys]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _pool_work = (fn, keys)
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        order = sorted(range(len(keys)), key=lambda i: -keys[i][0])
        futures = {i: pool.submit(_pool_job, i) for i in order}
        return [futures[i].result() for i in range(len(keys))]
    finally:
        pool.shutdown(cancel_futures=True)
        _pool_work = None


def fixed_point_defect(params: FluidParams, count: np.ndarray) -> float:
    """Sup-norm defect of a grid path in the count equation, with the
    time-grid trapezoid quadrature of the time march.  A solution must
    pass DEFECT_TOL_FACTOR * (1 + sup|X|); a visibly perturbed path must
    not.

    The rows are taken DEFECT_BLOCK_ROWS at a time, each block one
    ``run_jobs`` job with key (i0,) that returns its max |X - rhs| from
    one ``_history`` call (g only once a queue has formed by the block's
    last row).  The floats do not depend on the CPU count; each process
    holds at most one block's pair matrices, so the peak across processes
    is up to one block per worker.  A NaN in any row makes the defect NaN,
    which no tolerance accepts."""
    count = np.asarray(count, dtype=float)
    n = count.size - 1
    if n != params.steps:
        raise ValueError("path length does not match the parameter grid")
    dt = params.dt_effective
    drain = cumulative_drain(count, params.rate, dt)
    coeff = _drain_coeff(params, count)

    def block(key):
        i0 = key[0]
        i1 = min(i0 + DEFECT_BLOCK_ROWS, n)
        return np.max(np.abs(count[i0 + 1 : i1 + 1] - _history(params, drain, coeff, i0, i1, dt)))

    head = abs(count[0] - float(_h1(params, np.zeros(1))[0]))
    blocks = run_jobs(block, [(i0,) for i0 in range(0, n, DEFECT_BLOCK_ROWS)])
    return float(np.maximum.reduce([head, *blocks]))


def defect_tolerance(count: np.ndarray) -> float:
    return DEFECT_TOL_FACTOR * (1.0 + float(np.max(np.abs(count))))


def _drain_lattice(params: FluidParams, x_grid: np.ndarray, reach: float):
    """(du, r) when the tail surface can be summed on a drain lattice: the
    drain march applies to k and ``x_grid`` is 0, h, 2h, ...; du = h/r is
    the largest such step within k_min*dt.  None otherwise.  Raises
    ValueError when tail_on_grid's table over ``x_grid`` and a drain of
    ``reach`` could pass MAX_TABLE_ENTRIES."""
    if march_kind(params.rate) != "drain" or x_grid.size < 2 or x_grid[0] != 0.0:
        return None
    h = float(x_grid[1])
    if h <= 0.0 or np.max(np.abs(x_grid - h * np.arange(x_grid.size))) > 1e-12 * x_grid[-1]:
        return None
    x_max, dt = float(x_grid[-1]), params.dt_effective
    cells = h / (params.rate.floor * dt)
    if not (x_max + reach) / h * (cells + 2) <= MAX_TABLE_ENTRIES:
        raise ValueError(f"x_max {x_max!r} at x_step {h!r} and dt {dt!r} needs a tail table "
                         f"of more than {MAX_TABLE_ENTRIES} entries; lower x_max or raise dt")
    r = int(math.ceil(cells - 1e-9))
    return h / r, r


def tail_on_grid(
    params: FluidParams,
    drained: np.ndarray,
    started: np.ndarray,
    t_index,
    x_grid: np.ndarray,
) -> np.ndarray:
    """Residual-mass tail z(t, x) over ``x_grid`` at grid time index
    ``t_index``, or one row per index when it is a sequence: the initial
    tail carried over plus the Stieltjes integral of the service-law tail
    against the service starts B,

        z(t, x) = F(x + K(t)) + int_0^K(t) Gc(x + K(t) - v) dB(t(v)),

    as a midpoint sum.  On a drain lattice (see _drain_lattice) the nodes
    are K(t) - l*du, B there is interpolated linearly in K, and every
    midpoint argument is (p + 1/2)*du, so one table of Gc, built for the
    latest row, serves every row through a strided (Hankel) view of its
    prefix and each row's sum is one matrix-vector product.  Otherwise, as
    when k reaches 0 and K stalls while B grows, the intervals are those
    of the time grid, and a row's arguments are taken in blocks of whole
    x-columns, at most MAX_TABLE_ENTRIES of them unless one column has more."""
    x_grid = np.asarray(x_grid, dtype=float)
    svc_tail = params.service.tail
    rows = np.asarray(t_index, dtype=int)
    z = np.asarray(params.initial_tail(x_grid + drained[rows.ravel(), None]), dtype=float)
    lattice = _drain_lattice(params, x_grid, float(np.max(drained[rows], initial=0.0)))
    if lattice is not None:
        du, r = lattice
        steps = [int(math.ceil(drained[i] / du - 1e-9)) for i in rows.ravel()]
        table = svc_tail(du * (np.arange((x_grid.size - 1) * r + max(steps, default=0)) + 0.5))
    for row, i in enumerate(rows.ravel()):
        if i == 0:
            continue
        if lattice is None:
            db = np.diff(started[: i + 1])
            lag = drained[i] - 0.5 * (drained[:i] + drained[1 : i + 1])
            width = max(1, MAX_TABLE_ENTRIES // i)  # i x width arguments per block
            for c in range(0, x_grid.size, width):
                z[row, c : c + width] += svc_tail(x_grid[None, c : c + width] + lag[:, None]).T @ db
        else:
            nodes = drained[i] - du * np.arange(steps[row] + 1)
            nodes[-1] = 0.0  # the last interval ends where the drain starts
            b = np.interp(nodes, drained[: i + 1], started[: i + 1])
            hankel = as_strided(table, shape=(x_grid.size, steps[row]),
                                strides=(r * table.itemsize, table.itemsize), writeable=False)
            z[row] += hankel @ (b[:-1] - b[1:])
    return z.reshape(rows.shape + x_grid.shape)


def _grid_index(times: np.ndarray, t: float) -> int:
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) > 1e-9:
        raise ValueError(f"time {t} is not on the solution grid")
    return i


def solve(params: FluidParams, x_grid=None) -> FluidSolution:
    """Full solve: count path, queue/starts/drain paths, tail surface.

    The count path must pass the time-grid defect; a drain-march path that
    does not is replaced by the time march's.  The surface is stored at
    every (steps // 100)-th grid time and at the horizon.
    The computed surface is validated: nonnegative within 1e-9,
    nonincreasing in x within 1e-9, and z(t, 0) within quadrature slack of
    min(count, 1).
    """
    if x_grid is None:
        x_grid = np.arange(0.0, 10.0 + 1e-12, 0.05)
    x_grid = np.asarray(x_grid, dtype=float)
    dt = params.dt_effective
    count, diag = solve_count_path(params)
    # refuse an oversized tail table before paying for the defect
    _drain_lattice(params, x_grid, float(cumulative_drain(count, params.rate, dt)[-1]))
    diag.defect = fixed_point_defect(params, count)
    if diag.march == "drain" and not diag.defect <= defect_tolerance(count):
        # the drain path solves another quadrature of the same equation and
        # can sit O(dt^2) off the time grid's; solve the judged one instead
        count, diag = solve_count_path(params, march="time")
        diag.defect = fixed_point_defect(params, count)
    if not diag.defect <= defect_tolerance(count):
        raise FluidSolverError(
            f"defect {diag.defect:.3g} above tolerance {defect_tolerance(count):.3g}"
        )
    times = params.times
    drained = cumulative_drain(count, params.rate, dt)
    queue, started = queue_and_starts(count, params.arrival_rate, times)

    stride = max(1, params.steps // 100)
    idx = np.arange(0, params.steps + 1, stride)
    if idx[-1] != params.steps:
        idx = np.append(idx, params.steps)
    surface = tail_on_grid(params, drained, started, idx, x_grid)

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

"""Solver for the deterministic (fluid) limit of the many-server queue.

The scaled customer count X solves a scalar fixed-point equation: writing
K(t) for the cumulative per-server drain (the integral of the service rate
along the solution), F for the initial tail, q0 for the initial queue mass
and Gc, g for the service law's tail and density,

    X(t) = F(K(t)) + q0*Gc(K(t))
           + lam * int_0^t Gc(K(t) - K(s)) ds
           + int_0^t (X(s) - 1)^+ k(X(s)) g(K(t) - K(s)) ds.

Measured in drain time u = K(t), where du = k(X) dt, the kernels no longer
move with the unknown and the equation is a convolution:

    X(u) = h1(u) + int_0^u [lam/k(X(v)) Gc(u - v) + (X(v) - 1)^+ g(u - v)] dv,
    t(u) = int_0^u dv / k(X(v)),    h1 = F + q0*Gc.

When k has a positive floor k_min (and k_sup/k_min <= MAX_NODES_PER_STEP)
the solver marches this equation by the trapezoid rule on u_m = m*du with
du = k_min*dt until t(u) reaches the horizon, up to (k_sup/k_min)*N nodes
for N time steps, and interpolates X back onto the time grid.  Otherwise
(k reaches 0, so K can stall) it marches the time-grid trapezoid equation
one step at a time.  Either way each node's unknown is one scalar solved
by fixed-point iteration.

The time-grid trapezoid defect judges every solution: ``solve`` accepts a
path only when fixed_point_defect is within DEFECT_TOL_FACTOR *
(1 + sup|X|), and marches in time where the drain march's quadrature sits
further off.  One function, _history, evaluates the time-grid right-hand
side for the time march and the defect, with one law pass over each pair
matrix K_i - K_j: Gc alone until a queue forms, then Gc and g together.
``run_jobs`` spreads keyed jobs (the defect's row blocks, the tail
surface's rows, the harness's and the CLI's (n, seed) simulations) over
one bare fork per CPU, fed key indices and read back over pipes.  No sum
is split across CPUs or BLAS threads (BLAS_TERMS), so every float is the
serial, single-threaded one.

The tail surface z(t, x) of the limiting residual-work measure is a
midpoint Stieltjes sum of Gc against the service starts B = lam*t - Q,
robust to the kinks B picks up when the queue empties or fills.  Its
intervals lie on a drain lattice where the drain march applies, on the
time grid otherwise; a row is one einsum per block of x-columns, rows go
out 4 * CPUs to a job, and no surface row calls BLAS.  ``tail_on_grid``
gives the rows at indices of ``time_grid``; ``solve`` stores and checks
the rows its caller names, so the harness's snapshots are its own rows.
"""

from __future__ import annotations

import math
import os
import pickle
import select
import signal
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .laws import RateFunction, ServiceLaw
from .measures import TailFunction

CONSISTENCY_TOL = 1e-9
DEFECT_TOL_FACTOR = 1e-6   # accepted defect: factor * (1 + sup|X|)
PICARD_TOL_FACTOR = 1e-9   # a node's iteration stops at this * (1 + |X|)
MAX_PICARD_ITERATIONS = 80
MAX_NODES_PER_STEP = 16    # drain march only while k_sup/k_min is at most this
DEFECT_BLOCK_ROWS = 256    # rows of the pair matrix in one defect job
CHUNK_ROWS = 16            # rows of one law pass over the pair matrix
MAX_TABLE_ENTRIES = 10**7  # tail_on_grid's table or block: 80 MB, as the parser's time grid
BLAS_TERMS = 8192          # terms of one BLAS product; OpenBLAS threads a ddot of more than 10**4


def time_grid(horizon: float, dt: float) -> np.ndarray:
    """``round(T/dt)`` equal steps on [0, T], at least one; [0] if T = 0."""
    steps = max(1, int(round(horizon / dt))) if horizon > 0.0 else 0
    return np.linspace(0.0, horizon, steps + 1)


class FluidSolverError(RuntimeError):
    """A node's iteration found no finite fixed point within
    MAX_PICARD_ITERATIONS, or the solution's defect is above tolerance."""


class FluidAccuracyError(RuntimeError):
    """A solution identity failed beyond slack; a smaller dt should fix it."""


class WorkerDiedError(RuntimeError):
    """A ``run_jobs`` worker died before it sent a key's result."""


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
    """Inputs of one fluid solve.  On construction the initial queue must
    equal (z0 + initial_queue - 1)^+ within 1e-9, z0 the initial in-service
    mass: a positive queue requires a fully loaded initial tail."""

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
    """Grid paths of one solve plus the residual-work tail surface:
    ``tail_surface[i, j]`` is the mass at or above ``x_grid[j]`` at ``surface_times[i]``."""

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


def _drain_coeff(x, k):
    """The drain coefficient (X - 1)^+ k(X) at count ``x``, rate ``k``."""
    return np.maximum(x - 1.0, 0.0) * k


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
    """Queue mass (X - 1)^+ and cumulative service starts lam*t - Q, which
    must not decrease by more than 1e-9 (else the count path needs a finer dt)."""
    queue = np.maximum(count - 1.0, 0.0)
    started = arrival_rate * times - queue
    if started.size > 1 and np.min(np.diff(started)) < -1e-9:
        raise FluidAccuracyError("cumulative service starts decreased; refine dt")
    return queue, started


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The dot product of two vectors in pieces of at most BLAS_TERMS terms,
    summed on Python floats, so no piece is split across BLAS threads."""
    total = 0.0
    for s in range(0, a.size, BLAS_TERMS):
        total += float(a[s : s + BLAS_TERMS].dot(b[s : s + BLAS_TERMS]))
    return total


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

    each sum row-wise over columns 0..i1.  Gc and g come from one law pass
    over the pair matrix K_i - K_j, CHUNK_ROWS rows at a time, so a row's
    floats depend on i1 alone; where coeff is 0 on columns 0..i1 (no queue
    yet, a NaN coeff is not 0) the last sum is 0 and the passes take Gc alone.
    """
    law = params.service
    queued = bool(np.any(coeff[: i1 + 1] != 0.0))
    now = drain[i0 + 1 : i1 + 1]
    q = np.arange(now.size)
    last = np.where(q[None, :] < q[:, None], dt, 0.0)
    np.fill_diagonal(last, 0.5 * dt)
    rhs = _h1(params, now)
    for c in range(0, now.size, CHUNK_ROWS):
        rows = slice(c, c + CHUNK_ROWS)
        d = now[rows, None] - drain[None, : i1 + 1]
        np.maximum(d, 0.0, out=d)
        h2, g = law.tail_and_pdf(d) if queued else (law.tail(d), None)
        del d
        h2 *= params.arrival_rate
        _weigh(h2, i0, last[rows], dt)
        rhs[rows] += h2.sum(axis=1)
        if queued:
            _weigh(g, i0, last[rows], dt)
            g *= coeff[: i1 + 1]
            rhs[rows] += g.sum(axis=1)
    return rhs


def solve_count_path(params: FluidParams, march: str | None = None):
    """Solve the fixed-point equation for the scaled count on the time grid
    by the ``march`` "drain" or "time" (``march_kind(params.rate)`` by
    default): the drain-time equation on u_m = m*du, du = k_min*dt, to the
    first node at or past the horizon, X interpolated onto the time grid;
    or the trapezoid equation one time step at a time.  Each node's scalar
    unknown is iterated from the last solved value.

    Returns (count path, SolveDiagnostics)."""
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


def _fixed_point(update, guess, where):
    """Iterate the scalar map ``update`` from ``guess`` until a finite change
    within PICARD_TOL_FACTOR * (1 + |x|).  Returns (x, iterations); the
    error names the node by ``where()``."""
    x, isfinite, tol = guess, math.isfinite, PICARD_TOL_FACTOR
    for it in range(1, MAX_PICARD_ITERATIONS + 1):
        new = update(x)
        change = abs(new - x)
        x = new
        if isfinite(change) and change <= tol * (1.0 + abs(x)):
            return x, it
    raise FluidSolverError(
        f"no convergence {where()} in {MAX_PICARD_ITERATIONS} iterations "
        f"(last change {change:.3g})"
    )


def _drain_march(params: FluidParams, diag: SolveDiagnostics) -> np.ndarray:
    """March the drain-time equation (see the module docstring) by the
    trapezoid rule on u_m = m*du.  The kernels are fixed, so the lagged part
    of node m is two dot products (``_dot`` past BLAS_TERMS nodes) against
    reversed tables of Gc and g, the second 0 until a node has a queue.
    The lagged sum and the lag-0 scalar equation are taken on Python floats,
    with ``rate.scalar`` and the clips inline; a non-finite sum or iterate
    is redone on numpy scalars, so the caller's errstate sees it.  t grows
    by at least du/k_sup per node, so at most k_sup/k_min nodes per time
    step are needed.  Returns X on the time grid, linearly interpolated in t."""
    rate = params.rate
    k, whole_dot = rate.scalar, np.ndarray.dot  # k takes a count already clipped at 0
    lam = params.arrival_rate
    du = diag.du
    nodes = int(math.ceil(params.steps * rate.bound / rate.floor)) + 2
    u = du * np.arange(nodes + 1)
    h1_u = _h1(params, u)
    h1 = h1_u.tolist()
    gc_u, g_u = params.service.tail_and_pdf(u)
    gc_rev = np.ascontiguousarray(gc_u[::-1])  # gc_rev[nodes - p] = Gc(p du)
    g_rev = np.ascontiguousarray(g_u[::-1])
    lag0_arrivals = float(0.5 * du * lam * gc_rev[nodes])
    lag0_drain = float(0.5 * du * g_rev[nodes])
    x = [float(params.initial_count)]
    t = [0.0]
    arrivals = np.empty(nodes + 1)  # trapezoid weight * lam/k(X) per node
    excess = np.zeros(nodes + 1)    # trapezoid weight * (X - 1)^+ per node
    inv_k = 1.0 / rate(x[0])
    arrivals[0] = 0.5 * lam * inv_k
    excess[0] = 0.5 * max(x[0] - 1.0, 0.0)
    queued = excess[0] != 0.0  # some node so far has excess != 0

    def update(v, isfinite=math.isfinite):
        # k(v) and (v - 1)^+ clipped as rate(v) and max(v - 1.0, 0.0) clip them
        kv, over = k(0.0 if v <= 0.0 else float(v)), (0.0 if v < 1.0 else v - 1.0)
        new = lagged + lag0_arrivals / kv + lag0_drain * over
        if isfinite(new):
            return new
        f = np.float64
        return f(lagged) + f(lag0_arrivals) / kv + f(lag0_drain) * over

    m = 0
    where = lambda: f"at drain {m * du:.6g}"
    while t[m] < params.horizon:
        m += 1
        if m > nodes:
            raise FluidSolverError(f"drain march passed its {nodes} nodes before the horizon")
        lag = slice(nodes - m, nodes)
        dot = whole_dot if m <= BLAS_TERMS else _dot  # one call while one piece will do
        ga = dot(arrivals[:m], gc_rev[lag])
        ge = dot(excess[:m], g_rev[lag]) if queued else 0.0
        lagged = h1[m] + du * (float(ga) + float(ge))
        if not math.isfinite(lagged):
            lagged = float(h1_u[m] + du * (ga + ge))
        xm, it = _fixed_point(update, x[m - 1], where)
        inv_next = 1.0 / k(0.0 if xm <= 0.0 else xm)
        x.append(xm)
        t.append(t[m - 1] + 0.5 * du * (inv_k + inv_next))
        inv_k = inv_next
        arrivals[m] = lam * inv_k
        if xm > 1.0:
            excess[m], queued = xm - 1.0, True
        diag.windows.append(it)
    return np.interp(params.times, t, x)


def _time_march(params: FluidParams, x: np.ndarray, diag: SolveDiagnostics):
    """One-step march of the trapezoid equation on the time grid, filling
    ``x``.  X_i enters its own history through K_i, so the kernels are
    rebuilt on every iteration; only one is alive at a time."""
    dt = params.dt_effective
    times = params.times
    rate = params.rate
    k_all = np.asarray(rate(x), dtype=float)  # rewritten as steps solve
    drain = np.zeros(x.size)
    coeff = _drain_coeff(x, k_all)

    def follow(v, i):
        """Rate, drain and drain coefficient at row i along X_i = v."""
        k_all[i] = rate(v)
        drain[i] = drain[i - 1] + 0.5 * dt * (k_all[i - 1] + k_all[i])
        coeff[i] = _drain_coeff(v, k_all[i])

    def update(v, i):
        follow(v, i)
        return float(_history(params, drain, coeff, i - 1, i, dt)[0])

    for i in range(1, x.size):
        x[i], it = _fixed_point(
            lambda v: update(v, i), x[i - 1], lambda: f"on [{times[i - 1]:.6g}, {times[i]:.6g}]"
        )
        follow(x[i], i)
        diag.windows.append(it)


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_jobs(fn, keys) -> list:
    """``[fn(key) for key in keys]`` on one forked worker per CPU (in process
    for one CPU or one key).  A worker, a bare ``os.fork`` of the calling
    thread with the caller's arrays and numpy errstate, gets key indices on
    its own pipe as it comes free, largest first by a key's first entry (n
    of an (n, seed) run, i0 of a defect block), and sends each result back
    pickled on its own pipe, drained as data arrives.  As in a serial loop,
    results come in key order and the first failing key raises its own
    exception; a dead worker raises WorkerDiedError.  Workers leave by
    ``os._exit``, killed and reaped on the way out, also on an interrupt."""
    workers = min(_cpus(), len(keys))
    if workers <= 1:
        return [fn(key) for key in keys]
    order = iter(sorted(range(len(keys)), key=lambda i: -keys[i][0]))
    done, failed = {}, len(keys)  # index -> (ok, result or exception); the first failing index
    pid, task, busy, data = {}, {}, {}, {}  # by result pipe: worker, task pipe, index, bytes read
    poll = select.poll()

    def hand_out(fd):
        for i in order:
            if i < failed:
                busy[fd] = i
                return os.write(task[fd], i.to_bytes(8, "little"))
        poll.unregister(fd)  # idle until killed

    try:
        for _ in range(workers):
            (task_r, task_w), (result_r, result_w) = os.pipe(), os.pipe()
            task[result_r], data[result_r] = task_w, bytearray()
            pid[result_r] = os.fork()
            if pid[result_r] == 0:
                try:
                    for fd in (*task, *task.values()):
                        os.close(fd)
                    while index := os.read(task_r, 8):
                        try:
                            reply = pickle.dumps((True, fn(keys[int.from_bytes(index, "little")])), -1)
                        except Exception as exc:
                            reply = pickle.dumps((False, exc), -1)
                        with open(result_w, "wb", closefd=False) as out:  # writes it all
                            out.write(len(reply).to_bytes(8, "little") + reply)
                finally:  # never back into the caller's code
                    os._exit(1)
            os.close(task_r)
            os.close(result_w)
            poll.register(result_r, select.POLLIN)
            hand_out(result_r)
        while busy:
            for fd, _ in poll.poll():
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    dead = pid.pop(fd)
                    code = os.waitstatus_to_exitcode(os.waitpid(dead, 0)[1])
                    raise WorkerDiedError(f"run_jobs worker {dead} died on key {keys[busy[fd]]!r} "
                                          f"(exit code {code})")
                data[fd] += chunk
                if len(data[fd]) - 8 == int.from_bytes(data[fd][:8], "little"):
                    i, reply, data[fd] = busy.pop(fd), data[fd], bytearray()
                    done[i] = pickle.loads(memoryview(reply)[8:])
                    failed = failed if done[i][0] else min(failed, i)
                    hand_out(fd)
    finally:
        for worker in pid.values():
            os.kill(worker, signal.SIGKILL)
        for worker in pid.values():
            os.waitpid(worker, 0)
        for fd in (*task, *task.values()):
            os.close(fd)
    if failed < len(keys):
        raise done[failed][1]
    return [done[i][1] for i in range(len(keys))]


def fixed_point_defect(params: FluidParams, count: np.ndarray) -> float:
    """Sup-norm defect of a grid path in the count equation, with the
    time-grid trapezoid quadrature of the time march; a solution must pass
    DEFECT_TOL_FACTOR * (1 + sup|X|).  k is evaluated once along the path.
    The rows go DEFECT_BLOCK_ROWS at a time, each block one ``run_jobs``
    job with key (i0,) and one ``_history`` call, so a process holds one
    CHUNK_ROWS x N chunk of pair arrays at a time and the floats do not
    depend on the CPU count.  A NaN row makes the defect NaN."""
    count = np.asarray(count, dtype=float)
    n = count.size - 1
    if n != params.steps:
        raise ValueError("path length does not match the parameter grid")
    dt = params.dt_effective
    k = params.rate(count)  # one pass for the drain and the coefficient
    drain = _cumtrapz(k, dt)
    coeff = _drain_coeff(count, k)

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
    midpoint argument is (p + 1/2)*du, so one table of Gc serves every row:
    the parent lays it out as lag[p, j] = table[p + j*r], and a row's
    arguments are a prefix of it.  Otherwise, as when K stalls while B
    grows, the intervals are the time grid's and each row builds its own.
    Either way a row is one ``np.einsum`` per block of whole x-columns, a
    contiguous block of at most MAX_TABLE_ENTRIES arguments for the row
    with the most intervals (unless one column has more); on two columns or
    more it sums each column in order, and no row calls BLAS.  Each column
    block is one fan-out of ``run_jobs`` jobs of 4 * _cpus() rows, keyed by
    the block's last row."""
    x_grid = np.asarray(x_grid, dtype=float)
    svc_tail = params.service.tail
    rows = np.asarray(t_index, dtype=int)
    flat = rows.ravel()
    z = np.asarray(params.initial_tail(x_grid + drained[flat, None]), dtype=float)
    lattice = _drain_lattice(params, x_grid, float(np.max(drained[rows], initial=0.0)))
    intervals = flat.tolist()  # each row's; on the time grid, its index i
    if lattice is not None:
        du, r = lattice
        intervals = [int(math.ceil(drained[i] / du - 1e-9)) for i in flat]
        table = svc_tail(du * (np.arange((x_grid.size - 1) * r + max(intervals, default=0)) + 0.5))
    widest, size = max(intervals, default=0), 4 * _cpus()
    width = max(1, MAX_TABLE_ENTRIES // max(widest, 1))
    keys = [(flat[min(a + size, flat.size) - 1], a) for a in range(0, flat.size, size)]
    for cols in (slice(c, c + width) for c in range(0, x_grid.size, width)):
        if lattice is not None:
            lag = np.ascontiguousarray(sliding_window_view(table, widest)[::r][cols].T)

        def block(key):
            a = key[1]
            for row, i in enumerate(flat[a : a + size], start=a):
                if lattice is None:
                    mid = drained[i] - 0.5 * (drained[:i] + drained[1 : i + 1])
                    db, gc = np.diff(started[: i + 1]), svc_tail(x_grid[None, cols] + mid[:, None])
                else:
                    nodes = drained[i] - du * np.arange(intervals[row] + 1)
                    nodes[-1] = 0.0  # the last interval ends where the drain starts
                    b = np.interp(nodes, drained[: i + 1], started[: i + 1])
                    db, gc = b[:-1] - b[1:], lag[: intervals[row]]
                z[row, cols] += np.einsum("ij,i->j", gc, db)
            return z[a : a + size, cols]

        z[:, cols] = np.concatenate([z[:0, cols], *run_jobs(block, keys)])
    return z.reshape(rows.shape + x_grid.shape)


def _grid_index(times: np.ndarray, t: float) -> int:
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) > 1e-9:
        raise ValueError(f"time {t} is not on the solution grid")
    return i


def solve(params: FluidParams, x_grid, surface_times=None) -> FluidSolution:
    """Full solve: count path, queue/starts/drain paths, tail surface.

    The count path must pass the time-grid defect; a drain-march path that
    does not is replaced by the time march's.  k is evaluated once along
    the path for the drain, and once in the defect.  The surface is stored
    over ``x_grid`` at the grid times ``surface_times``, in their order
    (ValueError for one off the grid by more than 1e-9), by default at
    every (steps // 100)-th grid time and at the horizon.  Its stored rows
    must be nonnegative and nonincreasing in x within 1e-9, with z(t, 0)
    within quadrature slack of min(count, 1)."""
    x_grid = np.asarray(x_grid, dtype=float)
    times, dt = params.times, params.dt_effective
    if surface_times is None:
        idx = np.r_[0 : params.steps : max(1, params.steps // 100), params.steps]
    else:
        idx = np.array([_grid_index(times, t) for t in surface_times], dtype=int)
    count, diag = solve_count_path(params)
    drained = cumulative_drain(count, params.rate, dt)
    # refuse an oversized tail table before paying for the defect
    _drain_lattice(params, x_grid, float(drained[-1]))
    diag.defect = fixed_point_defect(params, count)
    if diag.march == "drain" and not diag.defect <= defect_tolerance(count):
        # the drain path solves another quadrature of the same equation and
        # can sit O(dt^2) off the time grid's; solve the judged one instead
        count, diag = solve_count_path(params, march="time")
        drained = cumulative_drain(count, params.rate, dt)
        diag.defect = fixed_point_defect(params, count)
    if not diag.defect <= defect_tolerance(count):
        raise FluidSolverError(
            f"defect {diag.defect:.3g} above tolerance {defect_tolerance(count):.3g}"
        )
    queue, started = queue_and_starts(count, params.arrival_rate, times)
    surface = tail_on_grid(params, drained, started, idx, x_grid)

    # identity checks on the stored rows
    if np.min(surface, initial=0.0) < -1e-9:
        raise FluidAccuracyError("negative tail mass; refine dt")
    if np.max(np.diff(surface, axis=1), initial=0.0) > 1e-9:
        raise FluidAccuracyError("tail surface increases in x; refine dt")
    z0_slack = max(
        1e-9,
        10.0 * dt * params.arrival_rate * params.service.density_bound,
    ) + 10.0 * dt * params.initial_tail.lipschitz * params.rate.bound
    in_service = np.minimum(count[idx], 1.0)
    if x_grid[0] == 0.0 and np.max(np.abs(surface[:, 0] - in_service), initial=0.0) > z0_slack:
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

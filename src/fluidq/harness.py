"""Experiment orchestration: scaled-simulation vs fluid-solution gaps and
empirical law-of-large-numbers checks for block empirical measures.

Both sides of a gap sit on the scenario's time grid.  The fluid measure at
a snapshot is the row of ``fluid.tail_on_grid`` at the snapshot's grid index,
differenced into cell-midpoint atoms by ``discretize_fluid_measure``.

All stochastic outputs are deterministic functions of the seeds handed in.
The (n, seed) runs are independent jobs that ``fluid.run_jobs``, the one
fan-out of the package, spreads over one forked worker per CPU and returns
in key order, so no row depends on the CPU count.  Artifact formatting
lives in the cli module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fluid as fluid_mod
from .fluid import run_jobs
from .laws import DensityRequiredError, ServiceLaw
from .measures import AtomicMeasure, prohorov
from .scenario import _MAX_CUSTOMERS
from .simulate import Simulator, init, sample_initial


@dataclass(frozen=True)
class GapRow:
    n: int
    seed: int
    count_gap: float
    queue_gap: float
    starts_gap: float
    measure_gaps: tuple  # ((snapshot time, prohorov distance), ...)


@dataclass
class ConvergenceReport:
    """Per-(n, seed) sup-norm gaps between scaled simulation paths and the
    fluid solution, plus Prohorov distances at snapshot times.

    ``simulation_only`` reports carry no gaps: the service law admits no
    fluid target, so each (n, seed) row holds nan gaps, one per snapshot
    time among them, and nothing is simulated.
    """

    scenario_name: str
    x_grid_step: float
    snapshot_times: tuple
    rows: list = field(default_factory=list)
    simulation_only: bool = False

    def per_n(self) -> dict:
        """n -> dict of mean/max aggregates over replications."""
        out = {}
        for n in sorted({r.n for r in self.rows}):
            rows = [r for r in self.rows if r.n == n]
            agg = {
                "mean_count_gap": float(np.mean([r.count_gap for r in rows])),
                "max_count_gap": float(np.max([r.count_gap for r in rows])),
            }
            per_t = {}
            for r in rows:
                for t, d in r.measure_gaps:
                    per_t.setdefault(t, []).append(d)
            agg["mean_measure_gap"] = {
                t: float(np.mean(v)) for t, v in sorted(per_t.items())
            }
            out[n] = agg
        return out


def discretize_fluid_measure(z, x_grid) -> AtomicMeasure:
    """Atomic stand-in for the fluid residual-work measure whose tail over
    ``x_grid`` is the row ``z`` (see fluid.tail_on_grid).

    Each grid cell contributes an atom at its midpoint with the cell's
    tail decrement as weight; mass beyond the last grid point sits in a
    final atom there, so the total equals the tail at the first grid
    point.  Cell masses below -1e-9 indicate an inaccurate solve.
    """
    z = np.asarray(z, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    cell_mass = z[:-1] - z[1:]
    if cell_mass.size and float(cell_mass.min()) < -1e-9:
        raise fluid_mod.FluidAccuracyError(
            "negative cell mass in tail discretization; refine dt"
        )
    cell_mass = np.clip(cell_mass, 0.0, None)
    locations = 0.5 * (x_grid[:-1] + x_grid[1:])
    if z[-1] > 0.0:
        locations = np.append(locations, x_grid[-1])
        cell_mass = np.append(cell_mass, z[-1])
    return AtomicMeasure(locations, cell_mass)


def run_scenario_once(scenario, n: int, seed: int, grid=None, snapshot_times=(), record=False):
    """One raw simulation run of the scenario at scale n.

    The initial condition is sampled from the scenario's initial tail and
    queue mass (an empty start draws nothing); arrival and service streams
    derive from ``seed`` alone so a fixed seed couples the draws across the
    n ladder.  The event log and customer records are kept only with
    ``record``.
    """
    service = scenario.build_service()
    state_rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
    residuals, reqs = sample_initial(scenario.build_initial_tail(), scenario.q0, n, service, state_rng)
    sim = Simulator(
        n,
        service,
        scenario.build_rate(),
        arrivals=scenario.build_arrivals(),
        state=init(n, residuals=residuals, queue_requirements=reqs),
        seed=seed,
    )
    return sim.run(scenario.horizon, grid=grid, snapshot_times=snapshot_times, record=record)


def convergence_experiment(
    scenario,
    n_list=None,
    seeds=None,
    solution: fluid_mod.FluidSolution | None = None,
) -> ConvergenceReport:
    """Run the scaled simulations and report sup-norm and Prohorov gaps
    against the fluid solution, one row per (n, seed).

    ``seeds`` defaults to the scenario's seed plus 0 .. replications - 1.
    Laws without a Lipschitz density have no fluid target; the report is
    then marked simulation-only and its rows hold nan gaps, built without
    running the simulations; otherwise each row is one ``run_jobs`` job.
    Deterministic for fixed seeds.
    """
    n_list = list(scenario.n_list if n_list is None else n_list)
    if seeds is None:
        seeds = [scenario.seed + r for r in range(scenario.replications)]
    snapshot_times = tuple(scenario.snapshot_times)

    params = scenario.fluid_params()
    if solution is None:
        try:
            solution = fluid_mod.solve(params, x_grid=scenario.x_grid())
        except DensityRequiredError:
            pass

    keys = sorted({(n, seed) for n in n_list for seed in seeds})
    report = ConvergenceReport(
        scenario_name=scenario.name,
        x_grid_step=float(scenario.x_step),
        snapshot_times=snapshot_times,
        simulation_only=solution is None,
    )
    if report.simulation_only:
        gaps = tuple((t, math.nan) for t in snapshot_times)
        report.rows = [GapRow(n, seed, math.nan, math.nan, math.nan, gaps) for n, seed in keys]
        return report

    grid = scenario.time_grid()
    x_grid = scenario.x_grid()
    idx = [fluid_mod._grid_index(solution.times, t) for t in snapshot_times]
    rows = fluid_mod.tail_on_grid(params, solution.drained, solution.started, idx, x_grid)
    fluid_measures = {t: discretize_fluid_measure(z, x_grid)
                      for t, z in zip(snapshot_times, rows)}

    def job(key):
        n, seed = key
        traj = run_scenario_once(scenario, n, seed, grid, snapshot_times)
        # fluid scaling: counts and measures divided by n
        inv = 1.0 / n
        count_gap = float(np.max(np.abs(traj.count * inv - solution.count)))
        queue_gap = float(np.max(np.abs(traj.queue * inv - solution.queue)))
        starts_gap = float(np.max(np.abs(traj.started * inv - solution.started)))
        mgaps = []
        for sn in traj.snapshots:
            d = prohorov(sn.measure.scaled(inv), fluid_measures[sn.time])
            mgaps.append((sn.time, d))
        return GapRow(n, seed, count_gap, queue_gap, starts_gap, tuple(mgaps))

    report.rows = run_jobs(job, keys)
    return report


def gc_block(n: int, window_mass: float, block_span: float):
    """``(m_half, max_len)`` of the gc-check block at n; refused when its
    ``2*m_half + max_len`` draws pass ``scenario._MAX_CUSTOMERS``."""
    if n * block_span < 1:
        raise ValueError("need n * block_span >= 1")
    m_half, max_len = int(round(n * window_mass)), int(math.floor(n * block_span))
    if 2 * m_half + max_len > _MAX_CUSTOMERS:
        raise ValueError(f"gc-check at n {n} draws {2 * m_half + max_len} service requirements, "
                         f"more than {_MAX_CUSTOMERS}")
    return m_half, max_len


def glivenko_cantelli_check(
    law: ServiceLaw,
    n: int,
    window_mass: float,
    block_span: float,
    x_grid,
    seed: int = 0,
    m_points: int = 16,
    ell_points: int = 17,
) -> float:
    """Worst deviation of block empirical measures from their mean.

    Draws one i.i.d. block of requirements indexed over
    (-n*window_mass, n*block_span + n*window_mass], forms the scaled
    empirical measure of each window {i : m < i <= m + floor(n*ell)} for m
    on a coarse lattice and ell in [0, block_span], and returns the largest
    |<f, empirical> - ell*<f, law>| over half-line indicators f anchored on
    ``x_grid`` (both open and closed variants).  ``gc_block`` sizes the
    block and refuses an oversized one before any draw.
    """
    m_half, max_len = gc_block(n, window_mass, block_span)
    x_grid = np.asarray(x_grid, dtype=float)
    rng = np.random.default_rng(seed)
    draws = law.sample(rng, 2 * m_half + max_len)  # index i in (-m_half, m_half + max_len]
    m_lattice = np.unique(np.linspace(-m_half + 1, m_half - 1, m_points).astype(int))
    ell_lattice = np.linspace(0.0, block_span, ell_points)
    target_geq = np.asarray(law.tail_geq(x_grid), dtype=float)
    target_gt = np.asarray(law.tail(x_grid), dtype=float)
    worst = 0.0
    for m in m_lattice:
        start = m + m_half  # array position of index m+1
        for ell in ell_lattice:
            cnt = int(math.floor(n * ell))
            seg = np.sort(draws[start : start + cnt])
            emp_geq = (cnt - np.searchsorted(seg, x_grid, side="left")) / n
            emp_gt = (cnt - np.searchsorted(seg, x_grid, side="right")) / n
            dev = max(
                float(np.max(np.abs(emp_geq - ell * target_geq))),
                float(np.max(np.abs(emp_gt - ell * target_gt))),
            )
            if dev > worst:
                worst = dev
    return worst

"""Command dispatch over scenario files.

    fluidq simulate --scenario s.scn --out dir    raw trajectories per (n, seed)
    fluidq solve    --scenario s.scn --out dir    fluid paths + tail surface
    fluidq compare  --scenario s.scn --out dir    scaled-sim vs fluid gap report
    fluidq gc-check --scenario s.scn --out dir    block empirical-measure deviations

Common flags: --seed (base-seed override) and --n (comma list override),
read by the parsers of the scenario keys ``seed`` and ``n_list`` (and
held to the scenario's cap on customers per run), and --quiet.  Exit
codes: 0 ok, 2 configuration error, 3 numeric failure or a dead worker.
Every artifact header carries the scenario hash and the seed, and
identical inputs produce byte-identical artifacts.  A command computes
all of its artifacts before the first is written, so a run writes nothing
unless it succeeds.  ``simulate`` and ``compare`` run their (n, seed)
jobs, and ``solve`` and ``compare`` the row blocks of the defect and of
the tail surface, on forked workers (``fluid.run_jobs``); only this
process writes and prints, in (n, seed) order.  This module owns the
artifact format: every table goes through ``_table``.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

import numpy as np

from .fluid import (FluidAccuracyError, FluidSolution, FluidSolverError, WorkerDiedError, run_jobs,
                    solve)
from .harness import (ConvergenceReport, convergence_experiment, gc_block, glivenko_cantelli_check,
                      run_scenario_once)
from .measures import AtomicMeasure
from .scenario import KEYS, check_n_list, load_scenario, scenario_hash
from .simulate import Trajectory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

GC_WINDOW_MASS = 2.0
GC_BLOCK_SPAN = 2.0


def _parser():
    p = argparse.ArgumentParser(prog="fluidq", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("simulate", "run the event simulation per (n, seed)"),
        ("solve", "solve the fluid equations"),
        ("compare", "simulate, scale and compare against the fluid solution"),
        ("gc-check", "empirical law-of-large-numbers deviation table"),
    ):
        s = sub.add_parser(name, help=helptext)
        s.add_argument("--scenario", required=True, help="scenario file path")
        s.add_argument("--out", required=True, help="output directory")
        s.add_argument("--seed", default=None, help="base seed override")
        s.add_argument("--n", default=None, help="comma-separated n override")
        s.add_argument("--quiet", action="store_true")
    return p


def _base_header(scenario, command: str, seed: int):
    return [
        f"scenario: {scenario.name}",
        f"scenario_hash: {scenario_hash(scenario)}",
        f"command: {command}",
        f"seed: {seed}",
    ]


def _table(header_lines, names, columns, sep="\t") -> str:
    """The artifact layout: one ``# `` line per header line, the column
    names joined by ``sep`` (no line when there are none), then one line
    per row: each column's ``repr`` cell, joined by ``sep``, up to the
    shortest column.  Columns are lists of Python floats and ints, whose
    ``repr`` round-trips (numpy scalars print differently)."""
    head = "".join(f"# {line}\n" for line in header_lines)
    head += sep.join(names) + "\n" if names else ""
    body = "\n".join(map(sep.join, zip(*[map(repr, col) for col in columns])))
    return head + body + "\n" if body else head


def solution_to_text(sol: FluidSolution, header_lines=()) -> str:
    """Grid paths of a fluid solution: t, X, Q, B, S columns."""
    paths = (sol.times, sol.count, sol.queue, sol.started, sol.drained)
    return _table(header_lines, ("t", "X", "Q", "B", "S"), [p.tolist() for p in paths])


def surface_to_text(sol: FluidSolution, header_lines=()) -> str:
    """Tail-surface matrix: one row per surface time, columns per x."""
    xs = sol.x_grid.tolist()
    header = [*header_lines, "x_grid: " + ",".join(map(repr, xs))]
    names = ["t"] + [f"z@{x!r}" for x in xs]
    return _table(header, names, [sol.surface_times.tolist(), *sol.tail_surface.T.tolist()])


def trajectory_to_text(traj: Trajectory, header_lines=()) -> str:
    """Simulated paths: time, X, Q, Z, B, S columns; counts are ints."""
    counts = (traj.count, traj.queue, traj.in_service, traj.started)
    paths = [traj.times.tolist(), *(c.tolist() for c in counts), traj.drained.tolist()]
    return _table(header_lines, ("time", "X", "Q", "Z", "B", "S"), paths)


def atomic_to_text(measure: AtomicMeasure) -> str:
    """One ``location,weight`` line per atom."""
    return _table((), (), (measure.locations.tolist(), measure.weights.tolist()), sep=",")


def snapshots_to_text(traj: Trajectory, header_lines=()) -> str:
    """Residual-work measures at the snapshot times, each under a
    ``# t = ...`` line; an empty measure leaves one blank line."""
    parts = [_table(header_lines, (), ())]
    for sn in traj.snapshots:
        parts.append(f"# t = {float(sn.time)!r}\n" + (atomic_to_text(sn.measure) or "\n"))
    return "".join(parts)


def report_to_text(report: ConvergenceReport, header_lines=()) -> str:
    """One row per (n, seed): sup-norm gaps of X, Q and B, then the Prohorov
    distance at each snapshot time."""
    names = ["n", "seed", "sup_X_gap", "sup_Q_gap", "sup_B_gap"]
    names += [f"rho@{t!r}" for t in report.snapshot_times]
    rows = ([r.n, r.seed, r.count_gap, r.queue_gap, r.starts_gap, *(d for _, d in r.measure_gaps)]
            for r in report.rows)
    return _table(header_lines, names, zip(*rows))


def summary_to_text(report: ConvergenceReport, header_lines=()) -> str:
    """Human-readable per-n aggregates of a convergence report."""
    if report.simulation_only:
        body = [
            f"{report.scenario_name}: simulation only (service law has no "
            "Lipschitz density, no fluid target)"
        ]
    else:
        body = [f"{report.scenario_name}: gap summary (x-grid step {report.x_grid_step})"]
        for n, agg in report.per_n().items():
            rho = ", ".join(
                f"t={t:g}: {d:.4f}" for t, d in agg["mean_measure_gap"].items()
            )
            body.append(
                f"  n={n:>6}  mean sup|X| gap {agg['mean_count_gap']:.5f}"
                f"  max {agg['max_count_gap']:.5f}  mean rho [{rho}]"
            )
    return _table(header_lines, (), ()) + "\n".join(body) + "\n"


def _cmd_simulate(scenario, n_list, seeds, say):
    grid = scenario.time_grid()

    def job(key):
        n, seed = key
        traj = run_scenario_once(
            scenario, n, seed, grid=grid, snapshot_times=scenario.snapshot_times
        )
        header = _base_header(scenario, "simulate", seed) + [f"n: {n}"]
        snapshots = snapshots_to_text(traj, header) if traj.snapshots else None
        return trajectory_to_text(traj, header), snapshots, traj.event_count

    keys = [(n, seed) for n in n_list for seed in seeds]
    artifacts = {}
    for (n, seed), (trajectory, snapshots, events) in zip(keys, run_jobs(job, keys)):
        artifacts[f"trajectory_n{n}_seed{seed}.tsv"] = trajectory
        if snapshots is not None:
            artifacts[f"snapshots_n{n}_seed{seed}.txt"] = snapshots
        say(f"simulate n={n} seed={seed}: {events} events")
    return artifacts


def _cmd_solve(scenario, say):
    params = scenario.fluid_params()
    sol = solve(params, x_grid=scenario.x_grid())
    diag = sol.diagnostics
    header = _base_header(scenario, "solve", scenario.seed) + [
        f"dt: {params.dt_effective!r}",
        f"grid_points: {sol.times.size}",
        f"march: {diag.march}",
        f"du: {diag.du!r}",
        f"nodes: {len(diag.windows)}",
        f"iterations: {diag.total_iterations}",
        f"defect: {diag.defect:.3e}",
    ]
    say(f"solve: {diag.march} march, {len(diag.windows)} nodes, defect {diag.defect:.3g}")
    return {"solution.tsv": solution_to_text(sol, header),
            "tail_surface.tsv": surface_to_text(sol, header)}


def _cmd_compare(scenario, n_list, seeds, say):
    report = convergence_experiment(scenario, n_list=n_list, seeds=seeds)
    header = _base_header(scenario, "compare", seeds[0]) + [
        f"n_list: {KEYS['n_list'].format(n_list)}",
        f"seeds: {','.join(str(s) for s in seeds)}",
    ]
    say(summary_to_text(report).rstrip())
    return {"report.tsv": report_to_text(report, header),
            "summary.txt": summary_to_text(report, header)}


def _cmd_gc_check(scenario, n_list, seed, say):
    for n in n_list:  # every n's block is sized before the first draw
        gc_block(n, GC_WINDOW_MASS, GC_BLOCK_SPAN)
    law = scenario.build_service()
    devs = []
    for n in n_list:
        devs.append(glivenko_cantelli_check(law, n, GC_WINDOW_MASS, GC_BLOCK_SPAN,
                                            scenario.x_grid(), seed=seed))
        say(f"gc-check n={n}: max deviation {devs[-1]:.5f}")
    header = _base_header(scenario, "gc-check", seed) + [
        f"window_mass: {GC_WINDOW_MASS!r}",
        f"block_span: {GC_BLOCK_SPAN!r}",
    ]
    return {"gc.tsv": _table(header, ("n", "max_deviation"), (list(n_list), devs))}


def _override(flag, parse, text):
    """``text`` of ``flag`` read by ``parse``, errors naming ``flag``."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{flag} {exc}") from None


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    def say(msg):
        if not args.quiet:
            print(msg)

    try:
        try:
            scenario = load_scenario(args.scenario)
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read scenario: {exc}") from exc
        if args.command in ("solve", "compare") and not scenario.horizon > 0.0:
            raise ValueError(f"{args.command} needs horizon > 0, got {scenario.horizon!r}")
        n_list = scenario.n_list if args.n is None else _override(
            "--n", lambda text: check_n_list(scenario, KEYS["n_list"].parse(text)), args.n)
        base_seed = scenario.seed if args.seed is None else _override("--seed", KEYS["seed"].parse,
                                                                      args.seed)
        seeds = [base_seed + r for r in range(scenario.replications)]
        # an overflow or a NaN anywhere in a command is a numeric failure
        with np.errstate(over="raise", invalid="raise"):
            if args.command == "simulate":
                artifacts = _cmd_simulate(scenario, n_list, seeds, say)
            elif args.command == "solve":
                artifacts = _cmd_solve(scenario, say)
            elif args.command == "compare":
                artifacts = _cmd_compare(scenario, n_list, seeds, say)
            else:
                artifacts = _cmd_gc_check(scenario, n_list, base_seed, say)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FluidSolverError, FluidAccuracyError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except WorkerDiedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    out, begun = Path(args.out), []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts.items():
            begun.append(out / name)
            begun[-1].write_text(text, encoding="utf-8")
    except OSError as exc:
        for path in begun:  # the failed one may be partly written
            with contextlib.suppress(OSError):
                path.unlink()
        print(f"error: cannot write --out {args.out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

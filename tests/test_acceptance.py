"""Acceptance gate: one test per criterion, one printed PASS/FAIL line
each (run with -s to see them on success).  Stochastic thresholds come
from the committed pilot fixtures under tests/fixtures/."""

import math
import time

import numpy as np

from fluidq import cli
from fluidq import fluid as fm
from fluidq.harness import convergence_experiment, glivenko_cantelli_check
from fluidq.laws import constant_rate, make_deterministic, make_exponential
from fluidq.measures import AtomicMeasure, TailFunction, prohorov
from fluidq.scenario import load_scenario
from fluidq.simulate import ARRIVAL, DEPARTURE, START, Simulator

from conftest import ALL_SCENARIOS, FLUID_SCENARIOS, SCENARIO_DIR
from oracles import rk4_drain_ode, underloaded_count


def gate(num, description, checks):
    """checks: [(label, bool)]; prints the one-line verdict, then asserts."""
    failed = [label for label, ok in checks if not ok]
    verdict = "PASS" if not failed else "FAIL"
    print(f"[criterion {num:02d}] {verdict}  {description}")
    for label in failed:
        print(f"    failed: {label}")
    assert not failed, f"criterion {num}: " + "; ".join(failed)


def test_criterion_01_underloaded_closed_form(solved):
    started = time.perf_counter()
    scenario, params, _ = solved("underloaded_exp")
    sol = fm.solve(params, x_grid=scenario.x_grid())  # fresh solve, timed
    exact = underloaded_count(sol.times, 0.5)
    x_err = float(np.max(np.abs(sol.count - exact)))
    keep = sol.x_grid <= 5.0 + 1e-12
    idx = np.searchsorted(sol.times, sol.surface_times)
    target = np.exp(-sol.x_grid[keep])[None, :] * exact[idx][:, None]
    tail_err = float(np.max(np.abs(sol.tail_surface[:, keep] - target)))
    elapsed = time.perf_counter() - started
    gate(1, f"closed form: |X| err {x_err:.2e}, tail err {tail_err:.2e}, {elapsed:.1f}s",
         [
             ("sup |X - 0.5(1-e^-t)| <= 1e-4", x_err <= 1e-4),
             ("sup |z - e^-x X| <= 5e-4 on x in [0,5]", tail_err <= 5e-4),
             ("runtime < 5 s", elapsed < 5.0),
         ])


def test_criterion_02_overloaded_ode_oracle():
    started = time.perf_counter()
    params = fm.FluidParams(
        arrival_rate=2.0,
        service=make_exponential(1.0),
        rate=constant_rate(1.0),
        initial_tail=TailFunction.zero(),
        initial_queue=0.0,
        horizon=4.0,
        dt=1e-3,
    )
    x, _ = fm.solve_count_path(params)
    oracle = rk4_drain_ode(2.0, 1.0, 1.0, 4.0, 1e-5)
    err = float(np.max(np.abs(x - oracle[::100])))
    crossing = params.times[int(np.argmax(x >= 1.0))]
    kink_err = abs(crossing - math.log(2.0))
    elapsed = time.perf_counter() - started
    gate(2, f"ODE oracle: err {err:.2e}, kink offset {kink_err:.2e}, {elapsed:.1f}s",
         [
             ("sup |X - RK4| <= 1e-3", err <= 1e-3),
             ("kink within 2*dt of ln 2", kink_err <= 2 * params.dt_effective),
             ("runtime < 5 s", elapsed < 5.0),
         ])


def test_criterion_03_fixed_point_defect(solved):
    checks = []
    for name in FLUID_SCENARIOS:
        _, params, sol = solved(name)
        tol = fm.defect_tolerance(sol.count)
        checks.append((f"{name}: defect {sol.diagnostics.defect:.2e} <= {tol:.2e}",
                       sol.diagnostics.defect <= tol))
        perturbed = fm.fixed_point_defect(params, sol.count + 0.1)
        checks.append((f"{name}: perturbed defect {perturbed:.3f} >= 1e-2",
                       perturbed >= 1e-2))
    gate(3, f"fixed-point defect on {len(FLUID_SCENARIOS)} scenarios", checks)


def test_criterion_04_fluid_identities(solved):
    checks = []
    for name in FLUID_SCENARIOS:
        _, params, sol = solved(name)
        min_db = float(np.min(np.diff(sol.started))) if sol.started.size > 1 else 0.0
        checks.append((f"{name}: starts nondecreasing (min inc {min_db:.1e})",
                       min_db >= -1e-9))
        idx = np.searchsorted(sol.times, sol.surface_times)
        z0_gap = float(np.max(np.abs(sol.tail_surface[:, 0]
                                     - np.minimum(sol.count[idx], 1.0))))
        bound = 10.0 * params.dt_effective * params.arrival_rate * params.service.density_bound
        checks.append((f"{name}: z(t,0) within {bound:.1e} of min(X,1) (got {z0_gap:.1e})",
                       z0_gap <= bound))
        mono = float(np.max(np.diff(sol.tail_surface, axis=1)))
        checks.append((f"{name}: z nonincreasing in x", mono <= 1e-9))
        q_gap = float(np.max(np.abs(sol.queue - np.maximum(sol.count - 1.0, 0.0))))
        checks.append((f"{name}: Q = (X-1)^+ exact", q_gap == 0.0))
    gate(4, "fluid identities on every solvable scenario", checks)


def test_criterion_05_simulator_exactness():
    checks = []

    # hand trace, n = 1: arrivals every 1, work 0.5, unit rate
    traj = Simulator(1, make_deterministic(0.5), constant_rate(1.0),
                     arrivals=[1.0, 2.0, 3.0, 4.0]).run(5.0, record=True)
    expected = []
    for k in (1, 2, 3, 4):
        expected += [(float(k), ARRIVAL, k), (float(k), START, k),
                     (float(k) + 0.5, DEPARTURE, k)]
    checks.append(("n=1 periodic log matches hand trace",
                   [tuple(e) for e in traj.events] == expected))

    # hand trace, n = 2: third arrival waits for the first departure
    traj2 = Simulator(2, [1.0, 1.0, 1.0], constant_rate(1.0),
                      arrivals=[0.1, 0.2, 0.3]).run(4.0, record=True)
    expected2 = [
        (0.1, ARRIVAL, 1), (0.1, START, 1),
        (0.2, ARRIVAL, 2), (0.2, START, 2),
        (0.3, ARRIVAL, 3),
        (1.1, DEPARTURE, 1), (1.1, START, 3),
        (1.2, DEPARTURE, 2),
        (2.1, DEPARTURE, 3),
    ]
    checks.append(("n=2 contention log matches hand trace",
                   [tuple(e) for e in traj2.events] == expected2))

    # conservation in integer arithmetic at every event, plus work integrals
    for label, t in (("n=1", traj), ("n=2", traj2)):
        x = t.initial_count
        ok = True
        arrivals = departures = 0
        for e in t.events:
            if e.kind == ARRIVAL:
                arrivals += 1
                x += 1
            elif e.kind == DEPARTURE:
                departures += 1
                x -= 1
            ok = ok and (x == t.initial_count + arrivals - departures)
        checks.append((f"{label}: X = X0 + E - D at every event", ok))
        worst = 0.0
        for rec in t.records.values():
            if rec.departure_time is not None:
                worst = max(worst, abs(
                    rec.departure_drained - rec.start_drained - rec.requirement))
        checks.append((f"{label}: departure work integral within 1e-9 (got {worst:.1e})",
                       worst <= 1e-9))
    gate(5, "simulator exactness on hand-traced scenarios", checks)


def test_criterion_06_convergence_underloaded(fixture_values):
    # timed end to end, fluid solve included
    started = time.perf_counter()
    scenario = load_scenario(SCENARIO_DIR / "underloaded_exp.scn")
    report = convergence_experiment(scenario)
    elapsed = time.perf_counter() - started
    agg = report.per_n()
    means = [agg[n]["mean_count_gap"] for n in scenario.n_list]
    rho = agg[1000]["mean_measure_gap"]
    fix = fixture_values("convergence_underloaded_exp.txt")
    checks = [
        ("mean sup-gap strictly decreases along n",
         all(a > b for a, b in zip(means, means[1:]))),
        (f"n=1000 mean gap {means[-1]:.4f} <= 0.05", means[-1] <= 0.05),
        ("runtime < 2 min", elapsed < 120.0),
    ]
    for t, d in rho.items():
        checks.append((f"mean Prohorov gap at t={t:g} ({d:.4f}) <= 0.05 + x-grid width",
                       d <= 0.05 + scenario.x_step))
    for n in scenario.n_list:
        ref = fix[f"mean_count_gap_n{n}"]
        checks.append((f"n={n} mean gap reproduces pilot fixture",
                       abs(agg[n]["mean_count_gap"] - ref) <= 1e-9 * max(1.0, ref)))
    for t, d in rho.items():
        ref = fix[f"mean_rho_n1000_t{t:g}"]
        checks.append((f"rho fixture t={t:g}", abs(d - ref) <= 1e-9))
    gate(6, f"underloaded convergence ladder ({elapsed:.0f}s)", checks)


def test_criterion_07_convergence_state_dependent(fixture_values):
    scenario = load_scenario(SCENARIO_DIR / "state_dependent.scn")
    report = convergence_experiment(scenario)
    agg = report.per_n()
    means = [agg[n]["mean_count_gap"] for n in scenario.n_list]
    fix = fixture_values("convergence_state_dependent.txt")
    ref = fix["mean_count_gap_n1000"]
    checks = [
        ("mean sup-gap strictly decreases along n",
         all(a > b for a, b in zip(means, means[1:]))),
        (f"n=1000 mean gap {means[-1]:.4f} <= committed fixture {ref:.4f}",
         means[-1] <= ref + 1e-9),
    ]
    gate(7, "state-dependent convergence ladder", checks)


def test_criterion_08_empirical_lln(fixture_values):
    law = make_exponential(1.0)
    x_grid = np.arange(0.0, 10.0 + 0.025, 0.05)
    fix = fixture_values("gc_exponential.txt")
    seed = int(fix["seed"])
    dev3 = glivenko_cantelli_check(law, 1000, 2.0, 2.0, x_grid, seed=seed)
    dev4 = glivenko_cantelli_check(law, 10000, 2.0, 2.0, x_grid, seed=seed)
    gate(8, f"block LLN deviations: {dev3:.4f} (n=1e3), {dev4:.4f} (n=1e4)",
         [
             ("dev(1e4) <= dev(1e3)", dev4 <= dev3),
             ("dev(1e4) <= 0.05", dev4 <= 0.05),
             ("matches pilot fixture",
              abs(dev3 - fix["deviation_n1000"]) <= 1e-12
              and abs(dev4 - fix["deviation_n10000"]) <= 1e-12),
         ])


def test_criterion_09_metric_correctness():
    rng = np.random.default_rng(424242)
    checks = []
    sym_ok = True
    tri_ok = True
    for _ in range(200):
        ms = []
        for _ in range(3):
            k = rng.integers(0, 7)
            ms.append(AtomicMeasure(rng.uniform(0, 3, k), rng.uniform(0.1, 2, k)))
        d01, d10 = prohorov(ms[0], ms[1]), prohorov(ms[1], ms[0])
        sym_ok = sym_ok and d01 == d10
        tri_ok = tri_ok and prohorov(ms[0], ms[2]) <= d01 + prohorov(ms[1], ms[2]) + 2e-9
    checks.append(("symmetry exact on 200 triples", sym_ok))
    checks.append(("triangle inequality within 2e-9 on 200 triples", tri_ok))
    pair_ok = True
    for _ in range(50):
        a, b = rng.uniform(0, 3, 2)
        d = prohorov(AtomicMeasure([a], [1.0]), AtomicMeasure([b], [1.0]))
        pair_ok = pair_ok and abs(d - min(abs(a - b), 1.0)) <= 2e-9
    checks.append(("point-mass pair distance min(|a-b|, 1) within 2e-9", pair_ok))
    gate(9, "Prohorov metric property suite", checks)


def test_criterion_10_determinism(tmp_path):
    commands = []
    for name in ALL_SCENARIOS:
        commands.append(("simulate", name))
    for name in FLUID_SCENARIOS:
        commands.append(("solve", name))
    for name in ("underloaded_exp", "state_dependent", "deterministic_service"):
        commands.append(("compare", name))
    commands.append(("gc-check", "underloaded_exp"))

    digests = []
    for tag in ("first", "second"):
        root = tmp_path / tag
        listing = {}
        for command, name in commands:
            out = root / f"{command}_{name}"
            code = cli.main([command, "--scenario",
                             str(SCENARIO_DIR / f"{name}.scn"),
                             "--out", str(out), "--quiet"])
            assert code == 0, f"{command} on {name} exited {code}"
            for path in sorted(out.iterdir()):
                listing[f"{command}_{name}/{path.name}"] = path.read_bytes()
        digests.append(listing)
    first, second = digests
    checks = [("same artifact sets", sorted(first) == sorted(second))]
    mismatched = [k for k in first if first[k] != second.get(k)]
    checks.append((f"byte-identical artifacts ({len(first)} files)", not mismatched))
    gate(10, "byte-identical artifacts across two full runs", checks)

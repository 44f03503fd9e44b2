import os

import numpy as np
import pytest

from fluidq import fluid as fm
from fluidq.cli import report_to_text, summary_to_text
from fluidq.harness import (
    convergence_experiment,
    discretize_fluid_measure,
    glivenko_cantelli_check,
    run_scenario_once,
)
from fluidq.laws import make_deterministic, make_exponential
from fluidq.measures import prohorov


def _fluid_measure(params, sol, t, x_grid):
    """The fluid measure at time t, by the route convergence_experiment takes."""
    i = fm._grid_index(sol.times, t)
    z = fm.tail_on_grid(params, sol.drained, sol.started, i, x_grid)
    return discretize_fluid_measure(z, x_grid)


class TestDiscretize:
    def test_zero_tail_empty_measure(self, solved):
        scenario, params, sol = solved("zero_arrivals")
        m = _fluid_measure(params, sol, 1.0, scenario.x_grid())
        assert len(m) == 0

    def test_two_cell_differencing(self):
        m = discretize_fluid_measure(np.array([1.0, 0.4, 0.0]), np.array([0.0, 1.0, 2.0]))
        assert list(m.locations) == [0.5, 1.5]
        assert list(m.weights) == [0.6, 0.4]
        assert m.total_mass == 1.0

    def test_mass_past_last_grid_point_is_an_atom_there(self):
        m = discretize_fluid_measure([1.0, 0.4, 0.1], [0.0, 1.0, 2.0])
        assert list(m.locations) == [0.5, 1.5, 2.0]
        assert m.weights.tolist() == pytest.approx([0.6, 0.3, 0.1], abs=1e-15)
        assert m.total_mass == pytest.approx(1.0, abs=1e-15)

    def test_total_mass_matches_leftmost_tail(self, solved):
        scenario, params, sol = solved("underloaded_exp")
        m = _fluid_measure(params, sol, 2.5, scenario.x_grid())
        i = fm._grid_index(sol.times, 2.5)
        z0 = float(fm.tail_on_grid(params, sol.drained, sol.started, i,
                                   np.array([0.0]))[0])
        assert m.total_mass == pytest.approx(z0, abs=1e-12)

    def test_initial_tail_discretization_close_to_fine_reference(self, solved):
        scenario, params, sol = solved("warm_start")
        coarse = _fluid_measure(params, sol, 0.0, scenario.x_grid())
        fine_grid = np.arange(0.0, scenario.x_max + 0.0025, 0.005)
        fine = _fluid_measure(params, sol, 0.0, fine_grid)
        assert prohorov(coarse, fine) <= scenario.x_step + 1e-6

    def test_negative_cell_mass_rejected(self):
        with pytest.raises(fm.FluidAccuracyError, match="cell mass"):
            discretize_fluid_measure(np.array([0.4, 0.5]), np.array([0.0, 1.0]))


class TestRunJobs:
    def test_results_in_key_order_from_other_processes(self, monkeypatch):
        monkeypatch.setattr(fm, "_cpus", lambda: 2)
        keys = [(1, 0), (3, 0), (2, 1)]  # handed out (3, 0) first
        results = fm.run_jobs(lambda key: (key, os.getpid()), keys)
        assert [key for key, _ in results] == keys
        assert os.getpid() not in {pid for _, pid in results}

    def test_workers_run_under_the_callers_error_state(self, monkeypatch):
        monkeypatch.setattr(fm, "_cpus", lambda: 2)
        keys = [(1, 0), (1, 1)]

        def overflow(key):
            return float(np.exp(np.float64(1000.0)))

        with np.errstate(over="ignore"):
            assert fm.run_jobs(overflow, keys) == [np.inf, np.inf]
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            fm.run_jobs(overflow, keys)


class TestConvergence:
    def test_zero_scenario_gaps_exactly_zero(self, solved):
        scenario, _, sol = solved("zero_arrivals")
        report = convergence_experiment(
            scenario, n_list=[5, 50], seeds=[scenario.seed, scenario.seed + 1],
            solution=sol,
        )
        assert not report.simulation_only
        for row in report.rows:
            assert row.count_gap == 0.0
            assert row.queue_gap == 0.0
            assert row.starts_gap == 0.0
            for _, d in row.measure_gaps:
                assert d == 0.0

    def test_rows_keyed_uniquely_and_sorted(self, solved):
        scenario, _, sol = solved("zero_arrivals")
        report = convergence_experiment(
            scenario, n_list=[20, 10], seeds=[scenario.seed, scenario.seed + 1],
            solution=sol,
        )
        keys = [(r.n, r.seed) for r in report.rows]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_every_seed_gets_a_row(self, solved):
        # five seeds on a scenario with three replications: none dropped
        scenario, _, sol = solved("zero_arrivals")
        assert scenario.replications == 3
        report = convergence_experiment(
            scenario, n_list=[10], seeds=[1, 2, 3, 4, 5], solution=sol
        )
        assert [(r.n, r.seed) for r in report.rows] == [(10, s) for s in (1, 2, 3, 4, 5)]

    def test_doubling_n_guard(self, solved):
        scenario, _, sol = solved("underloaded_exp")
        report = convergence_experiment(
            scenario, n_list=[25, 50], seeds=[scenario.seed], solution=sol,
        )
        small, big = report.rows[0], report.rows[1]
        assert big.count_gap <= 3.0 * small.count_gap

    def test_simulation_only_without_density(self, scenario_dir):
        from fluidq.scenario import load_scenario

        scenario = load_scenario(scenario_dir / "deterministic_service.scn")
        report = convergence_experiment(scenario, n_list=[5], seeds=[scenario.seed])
        assert report.simulation_only
        assert "simulation only" in summary_to_text(report)
        assert "nan" in report_to_text(report)

    def test_simulation_only_runs_no_simulation(self, scenario_dir, monkeypatch):
        from fluidq import harness
        from fluidq.scenario import load_scenario

        def no_run(*args, **kwargs):
            raise AssertionError("simulation-only rows need no simulation")

        monkeypatch.setattr(harness, "run_scenario_once", no_run)
        scenario = load_scenario(scenario_dir / "deterministic_service.scn")
        report = convergence_experiment(scenario, n_list=[10, 5], seeds=[2, 1])
        assert report.simulation_only
        assert [(r.n, r.seed) for r in report.rows] == [(5, 1), (5, 2), (10, 1), (10, 2)]
        for r in report.rows:
            assert np.isnan([r.count_gap, r.queue_gap, r.starts_gap]).all()
            assert [t for t, _ in r.measure_gaps] == list(scenario.snapshot_times)
            assert np.isnan([d for _, d in r.measure_gaps]).all()

    def test_sampled_initial_scenarios_converge(self, solved):
        # warm starts exercise the inverse-transform initial sampling and
        # the queue-seeded start through the whole gap pipeline
        for name in ("warm_start", "queue_start"):
            scenario, _, sol = solved(name)
            report = convergence_experiment(
                scenario, n_list=[25, 400], seeds=[scenario.seed], solution=sol,
            )
            small, big = report.rows
            assert big.count_gap < small.count_gap
            assert big.count_gap < 0.15
            for _, d in big.measure_gaps:
                assert d < 0.15


class TestGlivenkoCantelli:
    def test_point_mass_floor_effect_only(self):
        law = make_deterministic(0.7)
        x_grid = np.arange(0.0, 3.01, 0.1)
        for n in (100, 1000):
            dev = glivenko_cantelli_check(law, n, 2.0, 2.0, x_grid, seed=5)
            assert dev <= 1.0 / n + 1e-12

    def test_zero_block_zero_deviation(self):
        law = make_exponential(1.0)
        dev = glivenko_cantelli_check(
            law, 500, 1.0, 2.0, np.arange(0, 5, 0.1), seed=1, ell_points=1
        )
        assert dev == 0.0

    def test_larger_blocks_do_not_degrade(self):
        law = make_exponential(1.0)
        x_grid = np.arange(0.0, 10.01, 0.05)
        dev_n = glivenko_cantelli_check(law, 1000, 2.0, 2.0, x_grid, seed=0)
        dev_4n = glivenko_cantelli_check(law, 4000, 2.0, 2.0, x_grid, seed=0)
        assert dev_4n <= dev_n + 0.01

    def test_tiny_block_rejected(self):
        with pytest.raises(ValueError):
            glivenko_cantelli_check(make_exponential(1.0), 1, 1.0, 0.5,
                                    np.arange(0, 2, 0.5))


class TestOscillation:
    def test_fluid_path_lipschitz_bound(self, solved):
        # the count grows at most at the arrival rate: over every pair of
        # grid times at most delta = 10 steps apart, |X(t) - X(s)| <= lam*delta
        _, params, sol = solved("underloaded_exp")
        delta = 0.01
        steps = round(delta / params.dt_effective)
        assert steps == 10
        x = sol.count
        w = max(float(np.max(np.abs(x[k:] - x[:-k]))) for k in range(1, steps + 1))
        assert w <= params.arrival_rate * delta + 1e-6


class TestRunScenarioOnce:
    def test_deterministic_per_seed(self, solved):
        scenario, _, _ = solved("underloaded_exp")
        a = run_scenario_once(scenario, 10, 123, grid=np.linspace(0, 5, 51), record=True)
        b = run_scenario_once(scenario, 10, 123, grid=np.linspace(0, 5, 51), record=True)
        assert a.events
        assert a.events == b.events
        assert np.array_equal(a.count, b.count)

    def test_initial_condition_sampled(self, solved):
        scenario, _, _ = solved("queue_start")
        traj = run_scenario_once(scenario, 40, 9, grid=np.array([0.0, scenario.horizon]))
        assert traj.count[0] / 40 == pytest.approx(1.5, abs=0.05)
        assert traj.queue[0] / 40 == pytest.approx(0.5, abs=0.05)

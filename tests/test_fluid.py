import dataclasses
import math

import numpy as np
import pytest

from fluidq import fluid as fm
from fluidq.laws import (
    DensityRequiredError,
    capped_linear_rate,
    constant_rate,
    make_deterministic,
    make_exponential,
    make_lognormal,
    make_uniform,
    table_rate,
)
from fluidq.measures import TailFunction

from oracles import (
    count_equation_rhs,
    overloaded_count,
    rk4_drain_ode,
    tail_midpoint_sum,
    underloaded_count,
)


def params_for(lam, horizon=5.0, dt=1e-3, service=None, rate=None,
               initial_tail=None, q0=0.0):
    return fm.FluidParams(
        arrival_rate=lam,
        service=service if service is not None else make_exponential(1.0),
        rate=rate if rate is not None else constant_rate(1.0),
        initial_tail=initial_tail if initial_tail is not None else TailFunction.zero(),
        initial_queue=q0,
        horizon=horizon,
        dt=dt,
    )


def solve_from_another_guess(monkeypatch, p):
    """The count path with each node's fixed-point iteration started 0.5
    above the last solved value, the solver's own first iterate."""
    plain = fm._fixed_point
    monkeypatch.setattr(fm, "_fixed_point",
                        lambda update, guess, where: plain(update, guess + 0.5, where))
    return fm.solve_count_path(p)


def queue_mid_block_path():
    """A path off the solution whose drain coefficient is first positive at
    row 400, inside the defect's second block of 256 rows: the first block
    takes Gc alone, the later ones Gc and g."""
    p = params_for(0.9, horizon=6.0, dt=1e-2, rate=capped_linear_rate(0.5, 1.0, 2.0))
    x, _ = fm.solve_count_path(p)
    assert np.max(x) < 0.9
    x = x + 1e-3 * np.sin(7.0 * p.times)
    x[400:] += 0.5
    first = int(np.argmax(fm._drain_coeff(p, x) > 0.0))
    assert first == 400 and fm.DEFECT_BLOCK_ROWS < first < 2 * fm.DEFECT_BLOCK_ROWS
    return p, x


@pytest.fixture(scope="module")
def underloaded():
    p = params_for(0.5)
    x, diag = fm.solve_count_path(p)
    return p, x, diag


@pytest.fixture(scope="module")
def overloaded():
    p = params_for(2.0, horizon=4.0)
    x, diag = fm.solve_count_path(p)
    return p, x, diag


class TestParams:
    def test_consistent_queue_accepted(self):
        grid = np.arange(0.0, 10.01, 0.05)
        tail = TailFunction(grid, np.exp(-grid))
        params_for(0.5, initial_tail=tail, q0=0.5)

    def test_queue_without_full_tail_rejected(self):
        tail = TailFunction([0.0, 1.0], [0.5, 0.0])
        with pytest.raises(ValueError, match="queue must equal"):
            params_for(0.5, initial_tail=tail, q0=0.5)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            params_for(-0.1)

    def test_deterministic_service_refused(self):
        p = params_for(0.5, service=make_deterministic(0.5))
        with pytest.raises(DensityRequiredError, match="density required"):
            fm.solve_count_path(p)


class TestSolveCount:
    def test_zero_inputs_zero_path(self):
        p = params_for(0.0)
        x, _ = fm.solve_count_path(p)
        assert np.all(x == 0.0)

    def test_underloaded_closed_form(self, underloaded):
        p, x, _ = underloaded
        exact = underloaded_count(p.times, 0.5)
        assert np.max(np.abs(x - exact)) <= 1e-4

    def test_overloaded_matches_rk_oracle(self, overloaded):
        p, x, _ = overloaded
        oracle = rk4_drain_ode(2.0, 1.0, 1.0, 4.0, 1e-5)
        assert np.max(np.abs(x - oracle[::100])) <= 1e-3

    def test_state_dependent_queue_matches_rk_oracle(self):
        # a queue under a non-constant rate: the only case in which the
        # drain-coefficient term of the history sum is nonzero while the
        # kernels are rebuilt on every Picard iteration
        p = params_for(2.0, horizon=2.0, dt=2e-3,
                       rate=capped_linear_rate(0.5, 1.0, 2.0))
        x, _ = fm.solve_count_path(p)
        assert np.max(x) > 1.3
        oracle = rk4_drain_ode(2.0, 1.0, lambda v: min(0.5 + v, 2.0), 2.0, 2e-4)
        assert np.max(np.abs(x - oracle[::10])) <= 1e-5

    @pytest.mark.parametrize("lam, x_end", [(1.2, 0.8736), (1.6, 1.0971), (2.2, 2.1133)])
    def test_state_dependent_queue_matches_rk_oracle_to_the_horizon(self, lam, x_end):
        # capacity min(0.5 + x, 2) min(x, 1): lambda 1.2 settles below one
        # server's worth at 0.874, 1.6 settles on a queue at 1.1, and 2.2
        # outruns the rate cap and grows by 0.2 per unit time
        p = params_for(lam, horizon=5.0, dt=1e-3, rate=capped_linear_rate(0.5, 1.0, 2.0))
        x, _ = fm.solve_count_path(p)
        assert abs(x[-1] - x_end) <= 1e-4
        oracle = rk4_drain_ode(lam, 1.0, lambda v: min(0.5 + v, 2.0), 5.0, 1e-4)
        assert np.max(np.abs(x - oracle[::10])) <= 1e-6

    def test_overloaded_closed_form(self, overloaded):
        p, x, _ = overloaded
        assert np.max(np.abs(x - overloaded_count(p.times, 2.0))) <= 1e-3

    def test_saturation_time_located(self, overloaded):
        p, x, _ = overloaded
        crossing = p.times[int(np.argmax(x >= 1.0))]
        assert abs(crossing - math.log(2.0)) <= 2 * p.dt_effective

    def test_two_picard_starts_agree(self, underloaded, monkeypatch):
        p, x, _ = underloaded
        alt, _ = solve_from_another_guess(monkeypatch, p)
        assert np.max(np.abs(alt - x)) <= 10 * fm.defect_tolerance(x)

    def test_two_starts_agree_state_dependent(self, monkeypatch):
        p = params_for(1.2, horizon=2.0, dt=2e-3,
                       service=make_lognormal(0.0, 0.5),
                       rate=capped_linear_rate(0.5, 1.0, 2.0))
        a, _ = fm.solve_count_path(p)
        b, _ = solve_from_another_guess(monkeypatch, p)
        assert np.max(np.abs(a - b)) <= 10 * fm.defect_tolerance(a)

    def test_tabulated_rate_solves(self, monkeypatch):
        k = table_rate([0.0, 0.5, 1.5], [1.5, 1.0, 1.0])
        p = params_for(0.8, horizon=2.0, dt=2e-3, rate=k)
        x, diag = fm.solve_count_path(p)
        assert fm.fixed_point_defect(p, x) <= fm.defect_tolerance(x)
        b, _ = solve_from_another_guess(monkeypatch, p)
        assert np.max(np.abs(b - x)) <= 10 * fm.defect_tolerance(x)
        assert np.all(x >= 0.0) and float(np.max(x)) < 1.0  # stays underloaded

    def test_refinement_is_second_order(self):
        # the trapezoid scheme halves-the-step quarter-the-change; the
        # ladder ratio sits near 4 on a smooth scenario
        sols = {}
        for dt in (8e-3, 4e-3, 2e-3):
            p = params_for(0.5, dt=dt)
            sols[dt], _ = fm.solve_count_path(p)
        d1 = np.max(np.abs(sols[8e-3] - sols[4e-3][::2]))
        d2 = np.max(np.abs(sols[4e-3] - sols[2e-3][::2]))
        assert 3.0 <= d1 / d2 <= 5.0

    def test_grid_increment_bound(self, underloaded):
        p, x, _ = underloaded
        gb = p.service.density_bound
        kb = p.rate.bound
        sup_drain = max(float(np.max(x)) - 1.0, 0.0) * kb
        c = (
            p.initial_tail.lipschitz * kb
            + p.arrival_rate * (1.0 + gb * kb * p.horizon)
            + sup_drain * gb
            + sup_drain * p.service.density_lipschitz * kb * p.horizon
        )
        assert np.max(np.abs(np.diff(x))) <= c * p.dt_effective + 1e-12

    @pytest.mark.parametrize("rate,march", [
        (constant_rate(1.5), "drain"),
        (capped_linear_rate(0.5, 1.0, 2.0), "drain"),
        (capped_linear_rate(1.0, 1e-6, 2.0), "drain"),
        (table_rate([0.0, 1.0], [1.0, 1.5]), "drain"),
        (capped_linear_rate(0.1, 1.0, 2.0), "time"),  # k_sup/k_min = 20 > 16
        (constant_rate(0.0), "time"),
        (capped_linear_rate(0.0, 1.0, 2.0), "time"),
        (table_rate([0.0, 1.0, 2.0], [1.0, 0.0, 1.0]), "time"),
    ], ids=["constant", "capped_linear", "nearly_flat", "table", "wide_spread", "constant_zero",
            "capped_linear_zero", "table_zero_knot"])
    def test_march_follows_rate_floor(self, rate, march):
        p = params_for(1.2, horizon=0.5, dt=5e-3, rate=rate)
        x, diag = fm.solve_count_path(p)
        assert diag.march == march
        if march == "drain":
            assert diag.du == rate.floor * p.dt_effective
            # nodes run to the first drain at or past the horizon
            assert len(diag.windows) >= p.steps * rate.floor / rate.bound
        else:
            assert math.isnan(diag.du) and len(diag.windows) == p.steps
            assert fm.fixed_point_defect(p, x) <= fm.defect_tolerance(x)
        assert diag.total_iterations >= len(diag.windows)

    def test_solve_takes_time_march_when_defect_rejects_drain_path(self):
        # at dt = 5e-3 the drain quadrature sits ~4e-6 off the time grid's,
        # beyond the defect tolerance; solve then marches in time
        p = params_for(1.2, horizon=0.5, dt=5e-3, rate=capped_linear_rate(0.5, 1.0, 2.0))
        x, _ = fm.solve_count_path(p)
        assert fm.fixed_point_defect(p, x) > fm.defect_tolerance(x)
        sol = fm.solve(p)
        assert sol.diagnostics.march == "time" and len(sol.diagnostics.windows) == p.steps
        assert sol.diagnostics.defect <= fm.defect_tolerance(sol.count)

    @pytest.mark.parametrize("dt", [2e-3, 1e-3, 5e-4])
    def test_drain_march_passes_defect_on_state_dependent(self, dt, scenario_dir):
        import dataclasses

        from fluidq.scenario import load_scenario

        sc = load_scenario(scenario_dir / "state_dependent.scn")
        p = dataclasses.replace(sc, horizon=2.0, dt=dt).fluid_params()
        x, diag = fm.solve_count_path(p)
        assert diag.march == "drain" and diag.du == 0.5 * p.dt_effective
        assert fm.fixed_point_defect(p, x) <= fm.defect_tolerance(x)

    @pytest.mark.parametrize("rate", [constant_rate(0.5), capped_linear_rate(0.5, 1.0, 2.0)],
                             ids=["constant", "capped_linear"])
    def test_drain_and_time_marches_agree(self, rate):
        # under a constant rate the drain grid is the time grid and both
        # marches solve one quadrature; otherwise they differ at O(dt^2)
        p = params_for(2.0, horizon=2.0, dt=2e-3, service=make_lognormal(0.0, 0.5), rate=rate)
        drain, _ = fm.solve_count_path(p)
        stepped, diag = fm.solve_count_path(p, march="time")
        assert diag.march == "time" and len(diag.windows) == p.steps
        bound = 1e-9 if rate.floor == rate.bound else 2e-6
        assert np.max(np.abs(drain - stepped)) <= bound

    def test_flat_table_matches_constant_rate(self):
        flat = table_rate([0.0, 2.0], [1.5, 1.5])
        assert flat.floor == flat.bound == 1.5
        p_flat = params_for(0.8, horizon=2.0, dt=2e-3, rate=flat)
        p_const = params_for(0.8, horizon=2.0, dt=2e-3, rate=constant_rate(1.5))
        x_flat, d_flat = fm.solve_count_path(p_flat)
        x_const, d_const = fm.solve_count_path(p_const)
        assert np.array_equal(x_flat, x_const)
        assert d_flat.windows == d_const.windows

    def test_overflowing_iterate_is_not_converged(self):
        # one step of length 1 where g(0)*dt/2 = 5e5 (overflow.scn of the CLI
        # test): the Picard iterate overflows to inf, which must not count as
        # a converged window; the error names the node.  The march iterates
        # on Python floats but redoes a non-finite iterate on numpy scalars,
        # so an errstate that raises sees the overflow by name, and the
        # default one warns of it
        p = params_for(3.0, horizon=1.0, dt=1.0, service=make_exponential(1e6))
        no_convergence = r"^no convergence at drain 1 in 80 .*\(last change nan\)$"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(fm.FluidSolverError, match=no_convergence):
                fm.solve_count_path(p)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="^overflow encountered in scalar multiply$"):
                fm.solve_count_path(p)
        with pytest.warns(RuntimeWarning) as caught:
            with pytest.raises(fm.FluidSolverError, match=no_convergence):
                fm.solve_count_path(p)
        assert str(caught[0].message) == "overflow encountered in scalar multiply"


class TestDrainAndStarts:
    def test_unit_rate_drain_is_time(self, underloaded):
        p, x, _ = underloaded
        drained = fm.cumulative_drain(x, constant_rate(1.0), p.dt_effective)
        assert np.max(np.abs(drained - p.times)) <= 1e-12

    def test_zero_rate_drain_is_zero(self, underloaded):
        p, x, _ = underloaded
        drained = fm.cumulative_drain(x, constant_rate(0.0), p.dt_effective)
        assert np.all(drained == 0.0)

    def test_constant_path_linear_drain(self):
        times = np.linspace(0, 2, 21)
        x = np.full(21, 0.7)
        k = capped_linear_rate(0.0, 1.0, 5.0)  # k(x) = x below the cap
        drained = fm.cumulative_drain(x, k, 0.1)
        assert np.max(np.abs(drained - 0.7 * times)) <= 1e-12

    def test_queue_and_starts_formulas(self):
        times = np.linspace(0, 1, 11)
        q, b = fm.queue_and_starts(np.full(11, 0.5), 2.0, times)
        assert np.all(q == 0.0)
        assert np.max(np.abs(b - 2.0 * times)) == 0.0
        q, b = fm.queue_and_starts(np.full(11, 1.5), 2.0, times)
        assert np.all(q == 0.5)

    def test_underloaded_starts_linear(self, underloaded):
        p, x, _ = underloaded
        _, b = fm.queue_and_starts(x, 0.5, p.times)
        assert np.max(np.abs(b - 0.5 * p.times)) <= 1e-12

    def test_decreasing_starts_rejected(self):
        times = np.linspace(0, 1, 11)
        wild = 1.0 + np.sin(20 * times)  # queue oscillates faster than lam*t
        with pytest.raises(fm.FluidAccuracyError, match="refine dt"):
            fm.queue_and_starts(wild, 0.1, times)


class TestTailSurface:
    def test_tail_at_time_zero_is_initial(self):
        grid = np.arange(0.0, 10.01, 0.05)
        tail0 = TailFunction(grid, 0.6 * np.exp(-grid))
        p = params_for(0.3, horizon=2.0, initial_tail=tail0)
        sol = fm.solve(p)
        xs = np.array([0.0, 0.4, 1.3, 5.0])
        z = fm.tail_on_grid(p, sol.drained, sol.started, 0, xs)
        assert np.max(np.abs(z - tail0(xs))) <= 1e-12

    def test_underloaded_product_form(self, underloaded):
        p, x, _ = underloaded
        drained = fm.cumulative_drain(x, p.rate, p.dt_effective)
        _, started = fm.queue_and_starts(x, p.arrival_rate, p.times)
        xs = np.arange(0.0, 5.0001, 0.1)
        worst = 0.0
        for i in range(0, x.size, 500):
            z = fm.tail_on_grid(p, drained, started, i, xs)
            worst = max(worst, float(np.max(np.abs(z - np.exp(-xs) * x[i]))))
        assert worst <= 5e-4

    def test_tail_at_zero_is_capped_count(self, overloaded):
        p, x, _ = overloaded
        sol = fm.solve(p)
        idx = np.searchsorted(sol.times, sol.surface_times)
        bound = 10 * p.dt_effective * p.arrival_rate * p.service.density_bound
        gap = np.max(np.abs(sol.tail_surface[:, 0] - np.minimum(x[idx], 1.0)))
        assert gap <= bound

    def test_surface_monotone_and_nonnegative(self, overloaded):
        p, _, _ = overloaded
        sol = fm.solve(p)
        assert np.min(sol.tail_surface) >= -1e-9
        assert np.max(np.diff(sol.tail_surface, axis=1)) <= 1e-9

    @pytest.mark.parametrize("rate,lattice,bound,entries", [
        (capped_linear_rate(0.5, 1.0, 2.0), True, 1e-6, None),
        (constant_rate(1.0), True, 1e-12, None),
        (constant_rate(0.0), False, 1e-12, None),
        (capped_linear_rate(0.0, 1.0, 2.0), False, 1e-12, None),
        (capped_linear_rate(0.0, 1.0, 2.0), False, 1e-12, 1000),
    ], ids=["capped_linear", "constant", "constant_zero", "capped_linear_zero",
            "capped_linear_zero_blocked"])
    def test_surface_matches_time_grid_oracle(self, rate, lattice, bound, entries, monkeypatch):
        # on the drain lattice the sum takes other intervals, O(dt^2) away
        # from the time grid's, except under a constant rate where the two
        # coincide; a rate with floor 0 sums over the time grid itself, in
        # blocks of at most MAX_TABLE_ENTRIES tail arguments
        p = params_for(1.2, horizon=2.0, dt=2e-3, service=make_lognormal(0.0, 0.5), rate=rate)
        x, _ = fm.solve_count_path(p)
        drained = fm.cumulative_drain(x, p.rate, p.dt_effective)
        _, started = fm.queue_and_starts(x, p.arrival_rate, p.times)
        xs = 0.25 * np.arange(13)
        sizes = []
        if entries is not None:
            monkeypatch.setattr(fm, "MAX_TABLE_ENTRIES", entries)
            tail = p.service.tail
            service = dataclasses.replace(p.service, tail=lambda x: sizes.append(np.size(x)) or tail(x))
            p = dataclasses.replace(p, service=service)
        assert (fm._drain_lattice(p, xs, 0.0) is not None) == lattice
        for i in (1, 377, p.steps):
            z = fm.tail_on_grid(p, drained, started, i, xs)
            oracle = tail_midpoint_sum(xs.tolist(), drained.tolist(), started.tolist(), i,
                                       p.initial_tail, p.service.tail)
            assert np.max(np.abs(z - np.array(oracle))) <= bound
        assert max(sizes, default=0) <= (entries or 0)

    @pytest.mark.parametrize("service", [
        make_exponential(1.0), make_lognormal(0.0, 0.5), make_uniform(0.0, 2.0),
    ], ids=["exponential", "lognormal", "uniform"])
    def test_rows_at_once_match_rows_one_by_one(self, service):
        # one Gc table, built for the latest row, serves every row; the
        # service tail is elementwise, so its prefix is each row's own table
        p = params_for(1.2, horizon=2.0, dt=2e-3, rate=capped_linear_rate(0.5, 1.0, 2.0))
        x, _ = fm.solve_count_path(p)
        drained = fm.cumulative_drain(x, p.rate, p.dt_effective)
        _, started = fm.queue_and_starts(x, p.arrival_rate, p.times)
        p = dataclasses.replace(p, service=service)
        xs = 0.25 * np.arange(13)
        assert fm._drain_lattice(p, xs, 0.0) is not None
        idx = [0, 1, 377, p.steps]
        rows = fm.tail_on_grid(p, drained, started, idx, xs)
        assert rows.shape == (len(idx), xs.size)
        for row, i in zip(rows, idx):
            assert row.tolist() == fm.tail_on_grid(p, drained, started, i, xs).tolist()

    def test_rows_do_not_depend_on_the_cpu_count(self, monkeypatch):
        # the rows go out in blocks on forked workers; each row is the one
        # computed alone, and no worker outlives the call
        import multiprocessing

        p = params_for(1.2, horizon=2.0, dt=2e-3, rate=capped_linear_rate(0.5, 1.0, 2.0))
        x, _ = fm.solve_count_path(p)
        drained = fm.cumulative_drain(x, p.rate, p.dt_effective)
        _, started = fm.queue_and_starts(x, p.arrival_rate, p.times)
        xs = 0.25 * np.arange(13)
        idx = np.arange(0, p.steps + 1, 10)
        alone = [fm.tail_on_grid(p, drained, started, i, xs).tolist() for i in idx]
        run_jobs, jobs = fm.run_jobs, []
        monkeypatch.setattr(fm, "run_jobs", lambda fn, keys: jobs.append(len(keys)) or run_jobs(fn, keys))
        for cpus in (1, 2, 5):
            monkeypatch.setattr(fm, "_cpus", lambda: cpus)
            assert fm.tail_on_grid(p, drained, started, idx, xs).tolist() == alone
            assert multiprocessing.active_children() == []
            assert jobs.pop() > cpus  # more blocks than workers
        assert jobs == []

    def test_off_grid_time_rejected(self, underloaded):
        p, _, _ = underloaded
        assert fm._grid_index(p.times, 2.5) == 2500
        with pytest.raises(ValueError, match="grid"):
            fm._grid_index(p.times, 0.00123456)


class TestWarmStartClosedForms:
    # with exponential(1) service at unit rate, any consistent start reduces
    # to x' = lam - min(x, 1); the only extra error source is the 0.05-grid
    # interpolation of the initial tail (~2e-4)

    def test_partially_loaded_relaxation(self, solved):
        _, params, sol = solved("warm_start")
        closed = 0.3 + 0.3 * np.exp(-sol.times)
        assert np.max(np.abs(sol.count - closed)) <= 1e-3

    def test_queue_drains_linearly_then_relaxes(self, solved):
        _, params, sol = solved("queue_start")
        t = sol.times
        closed = np.where(t <= 1.0, 1.5 - 0.5 * t, 0.5 + 0.5 * np.exp(-(t - 1.0)))
        assert np.max(np.abs(sol.count - closed)) <= 1e-3
        crossing = t[int(np.argmax(sol.count <= 1.0))]
        assert abs(crossing - 1.0) <= 2 * params.dt_effective

    @pytest.mark.parametrize("name", ["warm_start", "queue_start"])
    def test_tail_surface_product_form(self, solved, name):
        # memorylessness makes the residual tail factorize in every regime
        _, params, sol = solved(name)
        idx = np.searchsorted(sol.times, sol.surface_times)
        product = (
            np.exp(-sol.x_grid)[None, :]
            * np.minimum(sol.count[idx], 1.0)[:, None]
        )
        assert np.max(np.abs(sol.tail_surface - product)) <= 5e-4

    def test_overloaded_tail_surface_product_form(self, solved):
        _, params, sol = solved("overloaded_exp")
        idx = np.searchsorted(sol.times, sol.surface_times)
        product = (
            np.exp(-sol.x_grid)[None, :]
            * np.minimum(sol.count[idx], 1.0)[:, None]
        )
        assert np.max(np.abs(sol.tail_surface - product)) <= 5e-4


class TestDefect:
    def test_solver_output_passes(self, underloaded):
        p, x, _ = underloaded
        assert fm.fixed_point_defect(p, x) <= fm.defect_tolerance(x)

    def test_perturbed_path_fails(self, underloaded):
        p, x, _ = underloaded
        assert fm.fixed_point_defect(p, x + 0.1) >= 1e-2

    @pytest.mark.parametrize("case", ["constant_overloaded", "queue_start", "state_dependent_queue",
                                      "queue_mid_block"])
    def test_defect_matches_plain_loop_rhs(self, case, scenario_dir):
        import dataclasses

        from fluidq.scenario import load_scenario

        if case == "queue_mid_block":
            p, x = queue_mid_block_path()
        else:
            if case == "queue_start":
                sc = load_scenario(scenario_dir / "queue_start.scn")
                p = dataclasses.replace(sc, dt=0.01).fluid_params()
            else:
                rate = constant_rate(1.0) if case == "constant_overloaded" else capped_linear_rate(0.5, 1.0, 2.0)
                p = params_for(2.0, horizon=2.0, dt=0.01, rate=rate)
            x, _ = fm.solve_count_path(p)
            x = x + 0.05 * np.sin(3.0 * p.times)  # off the solution, queue included
        rhs = count_equation_rhs(x.tolist(), p.dt_effective, p.arrival_rate, p.initial_queue,
                                 p.initial_tail, p.service.tail, p.service.pdf, p.rate)
        expected = float(np.max(np.abs(x - np.array(rhs))))
        assert expected > 1e-2
        assert abs(fm.fixed_point_defect(p, x) - expected) <= 1e-12

    @pytest.mark.parametrize("case", ["state_dependent", "lognormal_time_march", "queue_mid_block"])
    def test_defect_is_max_over_history_rows(self, case, scenario_dir, monkeypatch):
        from fluidq.scenario import load_scenario

        if case == "queue_mid_block":
            p, x = queue_mid_block_path()
        else:
            if case == "state_dependent":
                sc = load_scenario(scenario_dir / "state_dependent.scn")
                p = dataclasses.replace(sc, dt=1e-2).fluid_params()
            else:
                p = params_for(1.2, horizon=2.0, dt=5e-3, service=make_lognormal(0.0, 0.5),
                               rate=table_rate([0.0, 0.5, 2.0], [0.0, 1.0, 2.0]))
            x, diag = fm.solve_count_path(p)
            assert diag.march == ("drain" if case == "state_dependent" else "time")
            x = x + 1e-4 * np.sin(7.0 * p.times)
        n, dt = p.steps, p.dt_effective
        drain = fm.cumulative_drain(x, p.rate, dt)
        coeff = fm._drain_coeff(p, x)
        head = abs(x[0] - float(fm._h1(p, np.zeros(1))[0]))
        blocks = [(i0, min(i0 + fm.DEFECT_BLOCK_ROWS, n)) for i0 in range(0, n, fm.DEFECT_BLOCK_ROWS)]
        assert len(blocks) >= 2
        rows = np.concatenate([fm._history(p, drain, coeff, i0, i1, dt) for i0, i1 in blocks])
        defect = max(head, float(np.max(np.abs(x[1:] - rows))))
        for cpus in (1, 2, 5):
            monkeypatch.setattr(fm, "_cpus", lambda: cpus)
            assert fm.fixed_point_defect(p, x) == defect
        # one call over all rows spans more columns (zero weights past each
        # row's diagonal), so its pairwise row sums group terms differently
        # and rows agree to rounding
        whole = fm._history(p, drain, coeff, 0, n, dt)
        assert np.max(np.abs(whole - rows)) <= 1e-14
        assert abs(max(head, float(np.max(np.abs(x[1:] - whole)))) - defect) <= 1e-14

    @pytest.mark.parametrize("case", ["tail_only", "queue_mid_block", "nan_coefficient"])
    def test_rows_do_not_depend_on_the_chunk_size(self, case, scenario_dir, monkeypatch):
        # each row is its own row-wise sum over the block's columns, so
        # sweeping a block 1, 3, 16 or all of its rows at a time gives the
        # same floats, queued or not
        from fluidq.scenario import load_scenario

        if case == "tail_only":
            sc = load_scenario(scenario_dir / "state_dependent.scn")
            p = dataclasses.replace(sc, dt=1e-2).fluid_params()
            x = fm.solve_count_path(p)[0] + 1e-4 * np.sin(7.0 * p.times)
        else:
            p, x = queue_mid_block_path()
        n, dt = p.steps, p.dt_effective
        drain = fm.cumulative_drain(x, p.rate, dt)
        coeff = fm._drain_coeff(p, x)
        if case == "nan_coefficient":
            coeff[300] = math.nan  # in the second block, before the queue forms
        else:
            assert np.any(coeff != 0.0) == (case == "queue_mid_block")
        blocks = [(i0, min(i0 + fm.DEFECT_BLOCK_ROWS, n)) for i0 in range(0, n, fm.DEFECT_BLOCK_ROWS)]
        sweeps = []
        for chunk in (1, 3, 16, fm.DEFECT_BLOCK_ROWS):
            monkeypatch.setattr(fm, "CHUNK_ROWS", chunk)
            sweeps.append(np.concatenate([fm._history(p, drain, coeff, i0, i1, dt) for i0, i1 in blocks]))
        for rows in sweeps[1:]:
            assert np.array_equal(rows, sweeps[0], equal_nan=True)
        if case == "nan_coefficient":
            # the first block's columns end before the NaN; later rows are NaN
            assert np.all(np.isfinite(sweeps[0][: fm.DEFECT_BLOCK_ROWS]))
            assert np.all(np.isnan(sweeps[0][fm.DEFECT_BLOCK_ROWS :]))

    def test_law_passes_hold_at_most_a_chunk_of_rows(self, scenario_dir, monkeypatch):
        # a worker's pair arrays are CHUNK_ROWS x N, not a block's rows x N;
        # one CPU keeps the defect's calls in this process, where they are seen
        from fluidq.scenario import load_scenario

        monkeypatch.setattr(fm, "_cpus", lambda: 1)
        for name in ("state_dependent", "queue_start"):
            p = dataclasses.replace(load_scenario(scenario_dir / f"{name}.scn"), dt=1e-2).fluid_params()
            x, _ = fm.solve_count_path(p)
            assert p.steps > fm.DEFECT_BLOCK_ROWS
            law, shapes = p.service, []

            def recorded(fn):
                def law_pass(v):
                    shapes.append(np.shape(v))
                    return fn(v)
                return law_pass

            p = dataclasses.replace(p, service=dataclasses.replace(
                law, tail=recorded(law.tail), _tail_and_pdf=recorded(law.tail_and_pdf)))
            fm.fixed_point_defect(p, x)
            pairs = [shape for shape in shapes if len(shape) == 2]
            assert max(rows for rows, _ in pairs) == fm.CHUNK_ROWS
            assert max(cols for _, cols in pairs) == p.steps + 1

    def test_density_evaluated_only_once_a_queue_forms(self, scenario_dir, monkeypatch):
        # the density term carries (X - 1)^+ k(X), so a path that never
        # reaches 1 needs no density on any pair matrix or march node;
        # one CPU keeps the defect's calls in this process, where they are seen
        from fluidq.scenario import load_scenario

        monkeypatch.setattr(fm, "_cpus", lambda: 1)

        def counted(name):
            p = dataclasses.replace(load_scenario(scenario_dir / f"{name}.scn"), dt=1e-2).fluid_params()
            law, calls = p.service, []

            def tail_and_pdf(x):
                calls.append(np.shape(x))
                return law.tail_and_pdf(x)

            def pdf(x):
                calls.append(np.shape(x))
                return law.pdf(x)

            return dataclasses.replace(p, service=dataclasses.replace(
                law, pdf=pdf, _tail_and_pdf=tail_and_pdf)), calls

        p, calls = counted("state_dependent")
        x, diag = fm.solve_count_path(p)
        assert diag.march == "drain" and np.max(x) < 1.0
        # the drain march tabulates Gc and g once on its drain grid, and
        # never takes its g history while no node has a queue
        assert len(calls) == 1 and len(calls[0]) == 1
        calls.clear()
        fm.fixed_point_defect(p, x)
        fm.fixed_point_defect(p, fm.solve_count_path(p, march="time")[0])
        assert calls == []
        p, calls = counted("queue_start")
        x, _ = fm.solve_count_path(p, march="time")
        assert calls
        calls.clear()
        fm.fixed_point_defect(p, x)
        assert calls

    def test_defect_workers_keep_the_callers_errstate(self, monkeypatch):
        # the row sums overflow inside the forked workers; the caller's
        # errstate must reach them, as it does in cli.main
        monkeypatch.setattr(fm, "_cpus", lambda: 2)
        p = params_for(1e308, horizon=3.0, dt=1e-2, service=make_exponential(0.01))
        assert p.steps > fm.DEFECT_BLOCK_ROWS  # two blocks, so two workers
        x = np.zeros(p.steps + 1)
        with np.errstate(over="ignore"):
            assert fm.fixed_point_defect(p, x) == math.inf
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                fm.fixed_point_defect(p, x)

    def test_no_worker_outlives_the_defect(self, underloaded, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(fm, "_cpus", lambda: 2)
        p, x, _ = underloaded
        assert p.steps > fm.DEFECT_BLOCK_ROWS
        assert fm.fixed_point_defect(p, x) <= fm.defect_tolerance(x)
        assert multiprocessing.active_children() == []

    def test_nan_row_gives_nan_defect(self, scenario_dir):
        # a NaN anywhere in the path makes rows NaN; the defect keeps them
        from fluidq.scenario import load_scenario

        sc = load_scenario(scenario_dir / "underloaded_exp.scn")
        p = dataclasses.replace(sc, dt=1e-2).fluid_params()
        x, _ = fm.solve_count_path(p)
        assert fm.fixed_point_defect(p, x) <= fm.defect_tolerance(x)
        for i in (0, 10, 400, p.steps):
            y = x.copy()
            y[i] = math.nan
            assert math.isnan(fm.fixed_point_defect(p, y)), i

    def test_zero_path_zero_defect(self):
        p = params_for(0.0)
        assert fm.fixed_point_defect(p, np.zeros(p.steps + 1)) == 0.0

    def test_wrong_length_rejected(self, underloaded):
        p, x, _ = underloaded
        with pytest.raises(ValueError):
            fm.fixed_point_defect(p, x[:-10])

"""Many-server FCFS queue with a state-dependent service rate: exact
event-driven simulation, a solver for its deterministic fluid limit, and a
harness that measures how fast scaled simulations approach that limit."""

from .fluid import (
    FluidAccuracyError,
    FluidParams,
    FluidSolution,
    FluidSolverError,
    solve,
)
from .harness import (
    ConvergenceReport,
    convergence_experiment,
    glivenko_cantelli_check,
    run_scenario_once,
)
from .laws import (
    ArrivalLaw,
    DensityRequiredError,
    RateFunction,
    ServiceLaw,
    capped_linear_rate,
    constant_rate,
    make_arrivals,
    make_deterministic,
    make_exponential,
    make_lognormal,
    make_uniform,
    table_rate,
)
from .measures import AtomicMeasure, TailFunction, prohorov
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario, scenario_hash, serialize_scenario
from .simulate import Simulator, SimState, Trajectory, init, sample_initial

__version__ = "0.1.0"

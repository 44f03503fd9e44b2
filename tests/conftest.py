import functools
from pathlib import Path

import pytest

from fluidq import fluid as fluid_mod
from fluidq.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"

FLUID_SCENARIOS = (
    "underloaded_exp",
    "overloaded_exp",
    "state_dependent",
    "zero_arrivals",
    "warm_start",
    "queue_start",
    "zero_floor_rate",
)
ALL_SCENARIOS = FLUID_SCENARIOS + ("deterministic_service",)


@functools.lru_cache(maxsize=None)
def _solved(name: str):
    scenario = load_scenario(SCENARIO_DIR / f"{name}.scn")
    params = scenario.fluid_params()
    solution = fluid_mod.solve(params, x_grid=scenario.x_grid())
    return scenario, params, solution


@pytest.fixture(scope="session")
def solved():
    """Cache of full fluid solves keyed by scenario name."""
    return _solved


@pytest.fixture(scope="session")
def scenario_dir():
    return SCENARIO_DIR


@pytest.fixture(scope="session")
def fixture_values():
    """Read the committed pilot-run expected values: name -> {key: float}."""

    def read(name: str):
        out = {}
        for line in (FIXTURE_DIR / name).read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, value = (p.strip() for p in line.split("=", 1))
            out[key] = float(value)
        return out

    return read

"""Scenario files: one experiment = one flat key/value text file.

Schema (keys are lowercase, one ``key = value`` per line, ``#`` comments):

    name            required  experiment name
    lambda          required  fluid-scale arrival rate, >= 0
    service         required  law string: ``exponential rate=1.0`` |
                              ``lognormal mu=0.0 sigma=0.5`` |
                              ``uniform a=0.0 b=2.0`` |
                              ``deterministic value=0.5``
    rate            required  ``constant value=1.0`` |
                              ``capped_linear base=0.5 slope=1.0 cap=2.0`` |
                              ``table knots=0:1,2:1.5``
    horizon         required  simulation/solve horizon T, >= 0
    arrival         default exponential; one of exponential | deterministic | uniform
    initial         default ``empty``; or ``scaled_tail mass=0.6`` (that
                    fraction of the service-law tail) or an explicit
                    ``grid points=0:0.6,1:0.3,2:0`` tail
    q0              default 0; initial queue mass (requires full initial tail)
    dt              default 0.001
    x_max, x_step   default 10.0, 0.05; the x-grid for tail comparisons
    n_list          default 10,100,1000
    replications    default 3
    seed            default 12345; base seed, replication r uses seed + r
    snapshot_times  default T/5, T/2, T; each must lie on the time grid,
                    ``round(T/dt)`` equal steps on [0, T], to within 1e-9

Every number, law parameters and x:y pairs included, must be finite;
``replications`` and ``seed`` must be integers.  ``T/dt`` may not exceed
10^7 steps, ``x_max/x_step`` 10^5 cells, and ``replications`` 10^6.

Unknown keys are rejected with their line number.  Round trip holds:
parsing the canonical serialization reproduces the scenario exactly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .fluid import FluidParams, check_initial_consistency, time_grid
from .laws import ARRIVAL_KINDS, RATE_KINDS, SERVICE_KINDS, make_arrivals
from .measures import TailFunction


class ScenarioError(ValueError):
    """Scenario file violates the schema or its consistency checks."""


_REQUIRED = ("name", "lambda", "service", "rate", "horizon")

# Optional keys with the text their default would have in a file;
# snapshot_times defaults to T/5, T/2, T.
_DEFAULTS = {
    "arrival": "exponential",
    "initial": "empty",
    "q0": "0.0",
    "dt": "0.001",
    "x_max": "10.0",
    "x_step": "0.05",
    "n_list": "10,100,1000",
    "replications": "3",
    "seed": "12345",
}

_KNOWN_KEYS = {*_REQUIRED, *_DEFAULTS, "snapshot_times"}

# Law keys: kind -> parameter names, in the order the canonical text
# writes them.  The parameters in _PAIR_PARAMS are x:y lists, the rest
# are numbers.
_LAWS = {
    "service": {
        "exponential": ("rate",),
        "lognormal": ("mu", "sigma"),
        "uniform": ("a", "b"),
        "deterministic": ("value",),
    },
    "rate": {
        "constant": ("value",),
        "capped_linear": ("base", "slope", "cap"),
        "table": ("knots",),
    },
    "initial": {
        "empty": (),
        "scaled_tail": ("mass",),
        "grid": ("points",),
    },
}
_PAIR_PARAMS = {"knots", "points"}

# The parser builds the time grid to check the snapshot times against it,
# so the step count is capped: 10^7 steps make an 80 MB grid.  The x-grid
# is capped so that a tail surface of about 100 rows stays as large, and
# the replication count so that the CLI's list of seeds does.
_MAX_TIME_STEPS = 10**7
_MAX_X_CELLS = 10**5
_MAX_REPLICATIONS = 10**6


@dataclass(frozen=True)
class Scenario:
    name: str
    lam: float
    arrival_kind: str
    service_kind: str
    service_params: tuple  # ((key, value), ...) in a fixed order
    rate_kind: str
    rate_params: tuple
    initial_kind: str
    initial_params: tuple
    q0: float
    horizon: float
    dt: float
    x_max: float
    x_step: float
    n_list: tuple
    replications: int
    seed: int
    snapshot_times: tuple

    # -- builders ----------------------------------------------------------

    def build_service(self):
        return SERVICE_KINDS[self.service_kind](**dict(self.service_params))

    def build_arrivals(self):
        return make_arrivals(self.arrival_kind, self.lam)

    def build_rate(self):
        return RATE_KINDS[self.rate_kind](**dict(self.rate_params))

    def build_initial_tail(self) -> TailFunction:
        params = dict(self.initial_params)
        if self.initial_kind == "empty":
            return TailFunction.zero()
        if self.initial_kind == "scaled_tail":
            grid = self.x_grid()
            service = self.build_service()
            return TailFunction(grid, params["mass"] * np.asarray(service.tail(grid)))
        if self.initial_kind == "grid":
            xs, vs = zip(*params["points"])
            return TailFunction(xs, vs)
        raise ScenarioError(f"unknown initial kind '{self.initial_kind}'")

    def x_grid(self) -> np.ndarray:
        return np.arange(0.0, self.x_max + 0.5 * self.x_step, self.x_step)

    def time_grid(self) -> np.ndarray:
        return time_grid(self.horizon, self.dt)

    def fluid_params(self) -> FluidParams:
        return FluidParams(
            arrival_rate=self.lam,
            service=self.build_service(),
            rate=self.build_rate(),
            initial_tail=self.build_initial_tail(),
            initial_queue=self.q0,
            horizon=self.horizon,
            dt=self.dt,
        )


def _finite(text, line, name) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ScenarioError(f"line {line}: '{name}' needs a finite number, got '{text}'")
    return value


def _parse_pairs(text, line, name):
    """Comma-separated x:y pairs."""
    pairs = []
    for chunk in text.split(","):
        x, sep, y = chunk.partition(":")
        if not sep:
            raise ScenarioError(f"line {line}: expected x:y pairs in {name}, got '{chunk}'")
        pairs.append((_finite(x, line, name), _finite(y, line, name)))
    return tuple(pairs)


def _parse_law(key, text, line):
    """``kind p=v ...`` for a law key: the kind and its parameters in
    the table's order."""
    kind, *tokens = text.split() or [""]
    kinds = _LAWS[key]
    if kind not in kinds:
        raise ScenarioError(f"line {line}: unknown {key} kind '{kind}'")
    given = {}
    for tok in tokens:
        name, sep, value = tok.partition("=")
        if not sep:
            raise ScenarioError(f"line {line}: expected key=value in {key}, got '{tok}'")
        if name in given:
            raise ScenarioError(f"line {line}: duplicate parameter '{name}' in {key}")
        given[name] = value
    names = kinds[kind]
    if set(given) != set(names):
        wanted = ", ".join(f"{name}=" for name in names) or "no parameters"
        raise ScenarioError(f"line {line}: {key} '{kind}' needs {wanted}")
    return kind, tuple(
        (name, (_parse_pairs if name in _PAIR_PARAMS else _finite)(given[name], line, name))
        for name in names
    )


def parse_scenario(text: str) -> Scenario:
    raw: dict = {}
    lines: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ScenarioError(f"line {line_no}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ScenarioError(f"line {line_no}: unknown key '{key}'")
        if key in raw:
            raise ScenarioError(f"line {line_no}: duplicate key '{key}'")
        raw[key] = value
        lines[key] = line_no
    for required in _REQUIRED:
        if required not in raw:
            raise ScenarioError(f"missing required key '{required}'")
    values = {**_DEFAULTS, **raw}

    def fail(key, message):
        where = f"line {lines[key]}: " if key in lines else ""
        raise ScenarioError(where + message)

    def number(key, at_least=-math.inf) -> float:
        value = _finite(values[key], lines.get(key, 0), key)
        if value < at_least:
            fail(key, f"{key} must be >= {at_least}")
        return value

    def integer(key, at_least=-math.inf) -> int:
        value = number(key, at_least)
        if value != int(value):
            fail(key, f"'{key}' needs an integer, got '{values[key]}'")
        return int(value)

    def law(key):
        return _parse_law(key, values[key], lines.get(key, 0))

    lam = number("lambda", 0)
    horizon = number("horizon", 0)

    arrival_kind = values["arrival"]
    if arrival_kind not in ARRIVAL_KINDS:
        fail("arrival", f"unknown arrival kind '{arrival_kind}'")
    service_kind, service_params = law("service")
    rate_kind, rate_params = law("rate")
    initial_kind, initial_params = law("initial")

    q0 = number("q0", 0)
    dt = number("dt")
    if dt <= 0:
        fail("dt", "dt must be positive")
    if not horizon / dt <= _MAX_TIME_STEPS:
        fail("dt", f"dt gives more than {_MAX_TIME_STEPS} time steps on [0, horizon]")
    x_max = number("x_max")
    x_step = number("x_step")
    if x_max <= 0 or x_step <= 0 or x_step > x_max:
        raise ScenarioError("x_max and x_step must be positive with x_step <= x_max")
    if not x_max / x_step <= _MAX_X_CELLS:
        fail("x_step" if "x_step" in lines else "x_max",
             f"x_max/x_step gives more than {_MAX_X_CELLS} x-grid cells")

    try:
        n_list = tuple(int(v) for v in values["n_list"].split(","))
    except ValueError:
        fail("n_list", "n_list needs integers")
    if not n_list or any(n < 1 for n in n_list):
        fail("n_list", "n_list entries must be >= 1")

    replications = integer("replications", 1)
    if replications > _MAX_REPLICATIONS:
        fail("replications", f"replications may not exceed {_MAX_REPLICATIONS}")
    seed = integer("seed")

    if "snapshot_times" in raw:
        snapshot_times = tuple(
            _finite(v, lines["snapshot_times"], "snapshot_times")
            for v in raw["snapshot_times"].split(",")
        )
    else:
        snapshot_times = (horizon / 5.0, horizon / 2.0, horizon)
    if any(t < 0 or t > horizon for t in snapshot_times):
        fail("snapshot_times", "snapshot times must lie within [0, horizon]")

    scenario = Scenario(
        name=raw["name"],
        lam=lam,
        arrival_kind=arrival_kind,
        service_kind=service_kind,
        service_params=service_params,
        rate_kind=rate_kind,
        rate_params=rate_params,
        initial_kind=initial_kind,
        initial_params=initial_params,
        q0=q0,
        horizon=horizon,
        dt=dt,
        x_max=x_max,
        x_step=x_step,
        n_list=n_list,
        replications=replications,
        seed=seed,
        snapshot_times=snapshot_times,
    )
    grid = scenario.time_grid()
    for t in snapshot_times:
        if np.min(np.abs(grid - t)) > 1e-9:
            fail("snapshot_times", f"snapshot_times: time {t!r} is not on the dt grid")
    # surface time-zero consistency and law construction problems now
    try:
        scenario.build_service()
        scenario.build_rate()
        tail0 = scenario.build_initial_tail()
        check_initial_consistency(tail0.total_mass, scenario.q0)
    except (ValueError, ArithmeticError) as exc:
        raise ScenarioError(str(exc)) from exc
    return scenario


def _format_law(kind, params) -> str:
    def fmt(name, value):
        if name in _PAIR_PARAMS:
            return ",".join(f"{float(a)!r}:{float(b)!r}" for a, b in value)
        return repr(float(value))

    return " ".join([kind, *(f"{name}={fmt(name, value)}" for name, value in params)])


def serialize_scenario(sc: Scenario) -> str:
    """Canonical text form; parsing it reproduces the scenario exactly."""
    lines = [
        f"name = {sc.name}",
        f"lambda = {float(sc.lam)!r}",
        f"arrival = {sc.arrival_kind}",
        f"service = {_format_law(sc.service_kind, sc.service_params)}",
        f"rate = {_format_law(sc.rate_kind, sc.rate_params)}",
        f"initial = {_format_law(sc.initial_kind, sc.initial_params)}",
        f"q0 = {float(sc.q0)!r}",
        f"horizon = {float(sc.horizon)!r}",
        f"dt = {float(sc.dt)!r}",
        f"x_max = {float(sc.x_max)!r}",
        f"x_step = {float(sc.x_step)!r}",
        f"n_list = {','.join(str(n) for n in sc.n_list)}",
        f"replications = {sc.replications}",
        f"seed = {sc.seed}",
        f"snapshot_times = {','.join(repr(float(t)) for t in sc.snapshot_times)}",
    ]
    return "\n".join(lines) + "\n"


def scenario_hash(sc: Scenario) -> str:
    return hashlib.sha256(serialize_scenario(sc).encode()).hexdigest()[:16]


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())

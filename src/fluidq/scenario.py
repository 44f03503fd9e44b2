"""Scenario files: one experiment = one flat key/value text file.

Schema (keys are lowercase, one ``key = value`` per line, ``#`` comments),
one line per key of the ``KEYS`` table, in its order:

    name            required  experiment name
    lambda          required  fluid-scale arrival rate, >= 0
    arrival         default exponential; one of exponential | deterministic | uniform
    service         required  law string: ``exponential rate=1.0`` |
                              ``lognormal mu=0.0 sigma=0.5`` |
                              ``uniform a=0.0 b=2.0`` |
                              ``deterministic value=0.5``
    rate            required  ``constant value=1.0`` |
                              ``capped_linear base=0.5 slope=1.0 cap=2.0`` |
                              ``table knots=0:1,2:1.5``
    initial         default empty; or ``scaled_tail mass=0.6`` (that
                    fraction of the service-law tail) or an explicit
                    ``grid points=0:0.6,1:0.3,2:0`` tail (two or more
                    points unless its mass is 0)
    q0              default 0.0; initial queue mass (requires full initial tail)
    horizon         required  simulation/solve horizon T, >= 0
    dt              default 0.001; > 0
    x_max           default 10.0; > 0, the end of the x-grid for tail comparisons
    x_step          default 0.05; > 0 and <= x_max, the x-grid's step
    n_list          default 10,100,1000; distinct integers >= 1
    replications    default 3; an integer >= 1
    seed            default 12345; an integer >= 0, replication r uses seed + r
    snapshot_times  default T/5,T/2,T; each must lie on the time grid,
                    ``round(T/dt)`` equal steps on [0, T], to within 1e-9

Every number, law parameters and x:y pairs included, must be finite.
``T/dt`` may not exceed 10^7 steps, ``x_max/x_step`` 10^5 cells,
``replications`` 10^6, and ``n*(lambda*T + X0)``, the customers one run
meets, 5*10^6 for any n of ``n_list``.  The law kinds, with their
parameters and builders, are listed once, in the ``_LAWS`` table below.

Unknown keys are rejected with their line number, and a bad value is
rejected with its line number and its key.  Round trip holds: parsing
the canonical serialization reproduces the scenario exactly.
"""

from __future__ import annotations

import hashlib
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fluid import FluidParams, check_initial_consistency, time_grid
from .laws import (ARRIVAL_KINDS, capped_linear_rate, constant_rate, make_arrivals, make_deterministic,
                   make_exponential, make_lognormal, make_uniform, table_rate)
from .measures import TailFunction


class ScenarioError(ValueError):
    """Scenario file violates the schema or its consistency checks."""


def _scaled_tail(sc, mass) -> TailFunction:
    grid = sc.x_grid()
    return TailFunction(grid, mass * np.asarray(sc.build_service().tail(grid)))


# Law keys: kind -> (parameter names, builder), the one table of law
# kinds.  The names are in the order the canonical text writes them; the
# parameters in _PAIR_PARAMS are x:y lists, the rest are numbers.  A
# builder takes the parameters by name, an initial-kind builder the
# scenario first, for its x-grid and service law.
_LAWS = {
    "service": {
        "exponential": (("rate",), make_exponential),
        "lognormal": (("mu", "sigma"), make_lognormal),
        "uniform": (("a", "b"), make_uniform),
        "deterministic": (("value",), make_deterministic),
    },
    "rate": {
        "constant": (("value",), constant_rate),
        "capped_linear": (("base", "slope", "cap"), capped_linear_rate),
        "table": (("knots",), lambda knots: table_rate(*zip(*knots))),
    },
    "initial": {
        "empty": ((), lambda sc: TailFunction.zero()),
        "scaled_tail": (("mass",), _scaled_tail),
        "grid": (("points",), lambda sc, points: TailFunction(*zip(*points))),
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
# A run at n servers meets about n*(lambda*T + X0) customers, and makes up
# to three events for each.  At the simulator's 1.4 M events/s and about
# 230 bytes per customer present (overloaded_exp at n = 1e5 and 4e5, 2-vCPU
# Xeon), the cap holds one run to about 10 s and 1.2 GB.
_MAX_CUSTOMERS = 5 * 10**6


def _build(key, law, *args):
    """The object a law key's (kind, params) value describes."""
    kind, params = law
    return _LAWS[key][kind][1](*args, **dict(params))


@dataclass(frozen=True)
class Scenario:
    """One experiment: one field per key of ``KEYS``, in its order."""

    name: str
    lam: float
    arrival: str
    service: tuple  # (kind, ((param, value), ...)) in the _LAWS order
    rate: tuple
    initial: tuple
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
        return _build("service", self.service)

    def build_arrivals(self):
        return make_arrivals(self.arrival, self.lam)

    def build_rate(self):
        return _build("rate", self.rate)

    def build_initial_tail(self) -> TailFunction:
        return _build("initial", self.initial, self)

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


# -- value parsers: text -> value, or ValueError with a message that the
# caller prefixes with the key (or the CLI flag) it parses -----------------


def _number(text, low=-math.inf, high=math.inf, integer=False):
    """A finite number in [low, high], an integer if ``integer``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"needs a finite number, got '{text}'")
    if integer and value != int(value):
        raise ValueError(f"needs an integer, got '{text}'")
    if value < low:
        raise ValueError(f"must be >= {low}, got {text}")
    if value > high:
        raise ValueError(f"may not exceed {high}, got {text}")
    return int(value) if integer else value


def _positive(text) -> float:
    value = _number(text)
    if value <= 0:
        raise ValueError(f"must be positive, got {text}")
    return value


def _listed(parse):
    """Parser of comma-separated values, each read by ``parse``."""
    return lambda text: tuple(map(parse, text.split(",")))


def _n_list(text) -> tuple:
    n_list = _listed(partial(_number, low=1, integer=True))(text)
    if len(set(n_list)) < len(n_list):
        raise ValueError(f"repeats an n, got '{text}'")
    return n_list


def _arrival(text) -> str:
    if text not in ARRIVAL_KINDS:
        raise ValueError(f"unknown kind '{text}'")
    return text


def _pair(text) -> tuple:
    x, sep, y = text.partition(":")
    if not sep:
        raise ValueError(f"needs x:y pairs, got '{text}'")
    return _number(x), _number(y)


def _param(name, text):
    try:
        return (_listed(_pair) if name in _PAIR_PARAMS else _number)(text)
    except ValueError as exc:
        raise ValueError(f"{name} {exc}") from None


def _law(key):
    """Parser of a law key's ``kind p=v ...``: the kind and its parameters
    in the _LAWS order."""
    kinds = _LAWS[key]

    def parse(text) -> tuple:
        kind, *tokens = text.split() or [""]
        if kind not in kinds:
            raise ValueError(f"unknown kind '{kind}'")
        given = {}
        for tok in tokens:
            name, sep, value = tok.partition("=")
            if not sep:
                raise ValueError(f"expected name=value, got '{tok}'")
            if name in given:
                raise ValueError(f"duplicate parameter '{name}'")
            given[name] = value
        names = kinds[kind][0]
        if set(given) != set(names):
            wanted = ", ".join(f"{name}=" for name in names) or "no parameters"
            raise ValueError(f"'{kind}' needs {wanted}")
        return kind, tuple((name, _param(name, given[name])) for name in names)

    return parse


def _float_text(value) -> str:
    return repr(float(value))


def _law_text(law) -> str:
    kind, params = law

    def fmt(name, value):
        if name in _PAIR_PARAMS:
            return ",".join(f"{_float_text(a)}:{_float_text(b)}" for a, b in value)
        return _float_text(value)

    return " ".join([kind, *(f"{name}={fmt(name, value)}" for name, value in params)])


def _joined(fmt):
    return lambda values: ",".join(map(fmt, values))


REQUIRED = object()  # the default of a key every file must give

# One scenario key: the text of its default in a file (REQUIRED, or a
# function of the fields parsed before it), its parser, its formatter and,
# where it is not the key, its Scenario field.
Key = namedtuple("Key", "default parse format field", defaults=(str, None))

# The one table of scenario keys, in the order of the canonical text.
KEYS = {
    "name": Key(REQUIRED, str),
    "lambda": Key(REQUIRED, partial(_number, low=0), _float_text, field="lam"),
    "arrival": Key("exponential", _arrival),
    "service": Key(REQUIRED, _law("service"), _law_text),
    "rate": Key(REQUIRED, _law("rate"), _law_text),
    "initial": Key("empty", _law("initial"), _law_text),
    "q0": Key("0.0", partial(_number, low=0), _float_text),
    "horizon": Key(REQUIRED, partial(_number, low=0), _float_text),
    "dt": Key("0.001", _positive, _float_text),
    "x_max": Key("10.0", _positive, _float_text),
    "x_step": Key("0.05", _positive, _float_text),
    "n_list": Key("10,100,1000", _n_list, _joined(str)),
    "replications": Key("3", partial(_number, low=1, high=_MAX_REPLICATIONS, integer=True)),
    "seed": Key("12345", partial(_number, low=0, integer=True)),
    "snapshot_times": Key(lambda v: (v["horizon"] / 5.0, v["horizon"] / 2.0, v["horizon"]),
                          _listed(_number), _joined(_float_text)),
}


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
        if key not in KEYS:
            raise ScenarioError(f"line {line_no}: unknown key '{key}'")
        if key in raw:
            raise ScenarioError(f"line {line_no}: duplicate key '{key}'")
        raw[key] = value
        lines[key] = line_no

    def fail(key, message):
        where = f"line {lines[key]}: " if key in lines else ""
        raise ScenarioError(f"{where}{key}: {message}")

    def at(key, check, *args):
        """``check(*args)``, its error named by ``key`` and its line."""
        try:
            return check(*args)
        except (ValueError, ArithmeticError) as exc:
            fail(key, exc)

    values = {}
    for key, entry in KEYS.items():
        text = raw.get(key, entry.default)
        if text is REQUIRED:
            raise ScenarioError(f"missing required key '{key}'")
        values[entry.field or key] = text(values) if callable(text) else at(key, entry.parse, text)

    # a check across keys names the first of its keys that the file gives
    horizon, dt = values["horizon"], values["dt"]
    t_key = "dt" if "dt" in lines else "horizon"
    if not horizon / dt <= _MAX_TIME_STEPS:
        fail(t_key, f"gives more than {_MAX_TIME_STEPS} time steps on [0, horizon]")
    x_max, x_step = values["x_max"], values["x_step"]
    x_key = "x_step" if "x_step" in lines else "x_max"
    if x_step > x_max:
        fail(x_key, "x_step may not exceed x_max")
    if not x_max / x_step <= _MAX_X_CELLS:
        fail(x_key, f"x_max/x_step gives more than {_MAX_X_CELLS} x-grid cells")
    grid = time_grid(horizon, dt)
    s_key = "snapshot_times" if "snapshot_times" in lines else t_key
    for t in values["snapshot_times"]:
        if not 0 <= t <= horizon:
            fail(s_key, f"time {t!r} lies outside [0, horizon]")
        if np.min(np.abs(grid - t)) > 1e-9:
            fail(s_key, f"time {t!r} is not on the dt grid")

    scenario = Scenario(**values)
    at("service", scenario.build_service)
    at("rate", scenario.build_rate)
    tail0 = at("initial", scenario.build_initial_tail)
    at("q0" if "q0" in lines else "initial", check_initial_consistency, tail0.total_mass, scenario.q0)
    at("n_list" if "n_list" in lines else "lambda", check_n_list, scenario, scenario.n_list)
    return scenario


def check_n_list(sc: Scenario, n_list) -> tuple:
    """``n_list``, unless one of its n would meet more than
    ``_MAX_CUSTOMERS`` customers in one run of ``sc``."""
    per_server = sc.lam * sc.horizon + sc.build_initial_tail().total_mass + sc.q0
    for n in n_list:
        if not n * per_server <= _MAX_CUSTOMERS:
            raise ValueError(f"{n} gives about {n * per_server:.3g} customers per run, "
                             f"n*(lambda*horizon + X0), more than {_MAX_CUSTOMERS}")
    return n_list


def serialize_scenario(sc: Scenario) -> str:
    """Canonical text form; parsing it reproduces the scenario exactly."""
    return "".join(f"{key} = {entry.format(getattr(sc, entry.field or key))}\n"
                   for key, entry in KEYS.items())


def scenario_hash(sc: Scenario) -> str:
    return hashlib.sha256(serialize_scenario(sc).encode()).hexdigest()[:16]


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())

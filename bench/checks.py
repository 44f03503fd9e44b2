"""Independent checks of the artifacts each benchmark workload writes.

Nothing here imports fluidq.  The count equation is re-evaluated with this
file's own trapezoid rule, the service laws come from ``scipy.stats`` and
the rate functions are written out again, so a fault in the program's
quadrature, laws or serializers cannot vouch for itself.  Every check
raises ``CheckError`` with the reason; a check that returns has passed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import stats

# The solver's documented acceptance: defect <= DEFECT_TOL_FACTOR * (1 + sup|X|)
# (fluid.py).  Written out here so that loosening it in the program shows.
DEFECT_TOL_FACTOR = 1e-6
# Law-of-large-numbers bounds the acceptance gate uses for n = 1e4.
LLN_GAP_BOUND = 0.05
# Grid spacing of the benchmark's own fluid solve for the simulate check; its
# O(dt^2) quadrature error (~1e-4) is far inside LLN_GAP_BOUND.
OWN_SOLVE_DT = 0.01
# Grid times, spread over [0, T], at which the solve check re-evaluates the
# count equation; each costs one history sum.
RESIDUAL_PROBES = 64


class CheckError(Exception):
    """An artifact disagrees with what the model says it must be."""


@dataclass(frozen=True)
class Model:
    """One shipped scenario, restated from the scenario file's keys."""

    scenario_keys: dict          # key -> value exactly as the file writes it
    lam: float
    service: object              # frozen scipy.stats distribution
    rate: Callable               # k(x) for x >= 0
    horizon: float
    dt: float
    x_step: float
    x_max: float
    replications: int
    snapshot_times: tuple


STATE_DEPENDENT = Model(
    scenario_keys={
        "lambda": "1.2", "arrival": "exponential",
        "service": "lognormal mu=0.0 sigma=0.5",
        "rate": "capped_linear base=0.5 slope=1.0 cap=2.0",
        "initial": "empty", "q0": "0.0", "horizon": "5.0", "dt": "0.001",
        "x_max": "10.0", "x_step": "0.05", "replications": "5",
        "snapshot_times": "1.0,2.5,5.0",
    },
    lam=1.2,
    service=stats.lognorm(s=0.5, scale=1.0),
    rate=lambda x: np.minimum(0.5 + np.maximum(x, 0.0), 2.0),
    horizon=5.0, dt=1e-3, x_step=0.05, x_max=10.0, replications=5,
    snapshot_times=(1.0, 2.5, 5.0),
)

UNDERLOADED_EXP = Model(
    scenario_keys={
        "lambda": "0.5", "arrival": "exponential",
        "service": "exponential rate=1.0", "rate": "constant value=1.0",
        "initial": "empty", "q0": "0.0", "horizon": "5.0", "dt": "0.001",
        "x_max": "10.0", "x_step": "0.05", "replications": "5",
        "snapshot_times": "1.0,2.5,5.0",
    },
    lam=0.5,
    service=stats.expon(scale=1.0),
    rate=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    horizon=5.0, dt=1e-3, x_step=0.05, x_max=10.0, replications=5,
    snapshot_times=(1.0, 2.5, 5.0),
)


def verify_scenario(path: Path, model: Model):
    """The checks restate the model, so the scenario file must still say it."""
    found = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            found[key] = value
    for key, value in model.scenario_keys.items():
        if found.get(key) != value:
            raise CheckError(
                f"{path}: '{key}' is {found.get(key)!r}, the benchmark expects {value!r}"
            )


# -- the benchmark's own quadrature -------------------------------------------

def trapezoid_weights(i: int, dt: float) -> np.ndarray:
    """Weights of nodes 0..i in the trapezoid integral from t_0 to t_i."""
    w = np.full(i + 1, dt)
    w[0] = w[i] = 0.5 * dt
    if i == 0:
        w[0] = 0.0
    return w


def cumulative_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    out = np.zeros(values.size)
    out[1:] = np.cumsum(0.5 * dt * (values[1:] + values[:-1]))
    return out


def count_equation_rhs(model: Model, count: np.ndarray, drain: np.ndarray, i: int, dt: float) -> float:
    """Right-hand side of the count equation at grid index i for an empty
    start:  lam * int Gc(K_i - K_s) ds + int (X_s - 1)^+ k(X_s) g(K_i - K_s) ds."""
    lag = np.maximum(drain[i] - drain[: i + 1], 0.0)
    coeff = np.maximum(count[: i + 1] - 1.0, 0.0) * model.rate(count[: i + 1])
    w = trapezoid_weights(i, dt)
    return float(
        model.lam * np.dot(w, model.service.sf(lag))
        + np.dot(w, coeff * model.service.pdf(lag))
    )


def solve_count_equation(model: Model, dt: float = OWN_SOLVE_DT):
    """The benchmark's own fluid count path: march the trapezoid-discretized
    count equation one step at a time, iterating the implicit end point."""
    steps = int(round(model.horizon / dt))
    times = np.linspace(0.0, model.horizon, steps + 1)
    count = np.zeros(steps + 1)
    drain = np.zeros(steps + 1)
    for i in range(1, steps + 1):
        x = count[i - 1]
        for _ in range(100):
            count[i] = x
            drain[i] = drain[i - 1] + 0.5 * dt * float(model.rate(count[i - 1]) + model.rate(x))
            new = count_equation_rhs(model, count, drain, i, dt)
            if abs(new - x) <= 1e-13 * (1.0 + abs(new)):
                break
            x = new
        else:
            raise CheckError(f"own fluid solve did not converge at t={times[i]}")
        count[i] = new
        drain[i] = drain[i - 1] + 0.5 * dt * float(model.rate(count[i - 1]) + model.rate(new))
    return times, count


# -- artifact parsing -----------------------------------------------------------

def read_table(path: Path):
    """A delimited artifact: '# key: value' header lines, a column-name line,
    then tab-separated numbers.  Returns (header dict, names, float matrix)."""
    header = {}
    names = None
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            header[key] = value
        elif names is None:
            names = line.split("\t")
        else:
            rows.append(line.split("\t"))
    if names is None or not rows:
        raise CheckError(f"{path}: no table")
    data = np.array(rows, dtype=float)
    if data.shape[1] != len(names):
        raise CheckError(f"{path}: rows do not match the {len(names)} columns")
    return header, names, data


def read_snapshots(path: Path):
    """Snapshot artifact: '# t = <time>' then one 'location,weight' line per
    atom.  Returns [(time, locations, weights), ...]."""
    snaps = []
    atoms = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# t = "):
            atoms = []
            snaps.append((float(line[6:]), atoms))
        elif line.startswith("#") or not line:
            continue
        elif atoms is None:
            raise CheckError(f"{path}: atom before the first snapshot time")
        else:
            atoms.append(line.split(","))
    out = []
    for t, rows in snaps:
        a = np.array(rows, dtype=float).reshape(-1, 2)
        out.append((t, a[:, 0], a[:, 1]))
    return out


def artifact_digests(out_dir: Path) -> dict:
    """File name -> sha256 of every artifact a command wrote."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).iterdir())
    }


def check_same_artifacts(first: dict, other: dict, label: str):
    if first != other:
        differ = sorted(k for k in first.keys() | other.keys() if first.get(k) != other.get(k))
        raise CheckError(f"{label}: artifacts differ from the first repetition: {differ}")


def _grid_index(times: np.ndarray, t: float) -> int:
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) > 1e-9:
        raise CheckError(f"time {t} is not on the artifact's grid")
    return i


def _expect(cond: bool, message: str):
    if not cond:
        raise CheckError(message)


# -- per-workload checks --------------------------------------------------------

def check_solve(model: Model, out_dir: Path):
    """solution.tsv solves the count equation to the documented tolerance,
    its other columns are the identities they claim, and the tail surface
    is a tail of the in-service mass."""
    out_dir = Path(out_dir)
    _, names, sol = read_table(out_dir / "solution.tsv")
    _expect(names == ["t", "X", "Q", "B", "S"], f"solution.tsv columns {names}")
    t, x, q, b, s = sol.T
    steps = int(round(model.horizon / model.dt))
    _expect(t.size == steps + 1, f"solution.tsv has {t.size} rows, expected {steps + 1}")
    dt = (t[-1] - t[0]) / steps
    _expect(np.allclose(t, np.linspace(0.0, model.horizon, steps + 1), atol=1e-12, rtol=0),
            "solution.tsv times are not the uniform grid")

    drain = cumulative_trapezoid(model.rate(x), dt)
    tol = DEFECT_TOL_FACTOR * (1.0 + float(np.max(np.abs(x))))
    _expect(abs(x[0]) <= tol, f"X(0) = {x[0]!r}, the system starts empty")
    for i in np.unique(np.linspace(0, steps, RESIDUAL_PROBES).round().astype(int)):
        resid = abs(x[i] - count_equation_rhs(model, x, drain, int(i), dt))
        _expect(resid <= tol, f"count equation residual {resid:.3g} > {tol:.3g} at t={float(t[i])!r}")
    _expect(float(np.max(np.abs(s - drain))) <= 1e-9, "S is not the trapezoid integral of k(X)")
    _expect(float(np.max(np.abs(q - np.maximum(x - 1.0, 0.0)))) <= 1e-12, "Q != (X - 1)^+")
    _expect(float(np.min(np.diff(b))) >= -1e-9, "B decreases")
    _expect(float(np.max(np.abs(b - (model.lam * t - q)))) <= 1e-9, "B != lam*t - Q")

    header, names, surf = read_table(out_dir / "tail_surface.tsv")
    x_grid = np.array([float(v) for v in header["x_grid"].split(",")])
    expected_grid = np.arange(0.0, model.x_max + 0.5 * model.x_step, model.x_step)
    _expect(x_grid.shape == expected_grid.shape and np.allclose(x_grid, expected_grid, atol=1e-12),
            "tail surface x-grid is not 0..x_max by x_step")
    _expect(len(names) == x_grid.size + 1, "tail surface has the wrong number of columns")
    z = surf[:, 1:]
    _expect(float(np.min(z)) >= -1e-9, "tail surface is negative")
    _expect(float(np.max(np.diff(z, axis=1))) <= 1e-9, "tail surface increases in x")
    # z(t,0) = min(X,1) holds in continuous time; on the grid the midpoint
    # Stieltjes sum adds O(dt^2 lam sup|g'|) and X may be off by the solver's
    # tolerance
    xs = np.linspace(0.0, model.x_max, 100001)
    g_slope = float(np.max(np.abs(np.gradient(model.service.pdf(xs), xs))))
    slack = dt * dt * model.lam * g_slope + tol
    idx = [_grid_index(t, v) for v in surf[:, 0]]
    gap = float(np.max(np.abs(z[:, 0] - np.minimum(x[idx], 1.0))))
    _expect(gap <= slack, f"z(t,0) is {gap:.3g} from min(X,1), slack {slack:.3g}")


def check_compare(model: Model, out_dir: Path, seed: int, n_list: tuple):
    """The gap report covers every (n, seed) pair, the mean count gap falls
    strictly along the n ladder, and at the top of the ladder both the
    count gap and every Prohorov gap lie within the LLN bounds."""
    header, names, rep = read_table(Path(out_dir) / "report.tsv")
    seeds = [seed + r for r in range(model.replications)]
    rho_cols = [f"rho@{float(v)!r}" for v in model.snapshot_times]
    _expect(names == ["n", "seed", "sup_X_gap", "sup_Q_gap", "sup_B_gap"] + rho_cols,
            f"report.tsv columns {names}")
    pairs = [(int(n), int(s)) for n, s in rep[:, :2]]
    _expect(pairs == [(n, s) for n in sorted(n_list) for s in seeds],
            "report.tsv rows are not every (n, seed) pair in order")
    _expect(bool(np.all(np.isfinite(rep[:, 2:]))) and float(rep[:, 2:].min()) >= 0.0,
            "report.tsv holds a negative or non-finite gap")
    means = [float(rep[rep[:, 0] == n, 2].mean()) for n in sorted(n_list)]
    _expect(all(a > b for a, b in zip(means, means[1:])),
            f"mean sup|X| gap does not fall strictly along n: {means}")
    _expect(means[-1] <= LLN_GAP_BOUND, f"mean sup|X| gap {means[-1]:.4g} > {LLN_GAP_BOUND} at n={max(n_list)}")
    rho_top = rep[rep[:, 0] == max(n_list), 5:]
    bound = LLN_GAP_BOUND + model.x_step
    _expect(float(rho_top.max()) <= bound,
            f"Prohorov gap {float(rho_top.max()):.4g} > {bound} at n={max(n_list)}")


def check_simulate(model: Model, out_dir: Path, seed: int, n: int, fluid):
    """Every trajectory keeps the queue identities and monotone counters,
    every snapshot holds one positive atom per customer in service, and the
    scaled count stays within the LLN bound of ``fluid`` (times, count)."""
    out_dir = Path(out_dir)
    f_times, f_count = fluid
    for s in (seed + r for r in range(model.replications)):
        name = f"trajectory_n{n}_seed{s}.tsv"
        header, names, tr = read_table(out_dir / name)
        _expect(header.get("n") == str(n) and header.get("seed") == str(s), f"{name}: header n/seed")
        _expect(names == ["time", "X", "Q", "Z", "B", "S"], f"{name}: columns {names}")
        t, x, q, zs, b, drained = tr.T
        _expect(t.size == int(round(model.horizon / model.dt)) + 1, f"{name}: wrong grid length")
        _expect(bool(np.all(x == q + zs)), f"{name}: X != Q + Z")
        _expect(bool(np.all(q == np.maximum(x - n, 0))), f"{name}: Q != (X - n)^+")
        _expect(bool(np.all(zs == np.minimum(x, n))), f"{name}: Z != min(X, n)")
        _expect(float(np.min(np.diff(b))) >= 0.0, f"{name}: B decreases")
        _expect(float(np.min(np.diff(drained))) >= -1e-9, f"{name}: S decreases")
        gap = float(np.max(np.abs(x / n - np.interp(t, f_times, f_count))))
        _expect(gap <= LLN_GAP_BOUND, f"{name}: sup|X/n - x| = {gap:.4g} > {LLN_GAP_BOUND}")

        snaps = read_snapshots(out_dir / f"snapshots_n{n}_seed{s}.txt")
        _expect([v for v, _, _ in snaps] == list(model.snapshot_times), f"seed {s}: snapshot times")
        for when, loc, wgt in snaps:
            _expect(bool(np.all(loc > 0.0)), f"seed {s}, t={when}: an atom is not positive")
            in_service = zs[_grid_index(t, when)]
            _expect(float(wgt.sum()) == in_service,
                    f"seed {s}, t={when}: {wgt.sum()} atoms for Z = {in_service}")

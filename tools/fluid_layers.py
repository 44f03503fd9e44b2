"""Per-layer timings of the fluid solve on state_dependent, for two checkouts.

    python3 tools/fluid_layers.py --base OTHER_ROOT --out BENCH_<n>.json [--repeats 3]

For this checkout and for OTHER_ROOT (a checkout of another commit, made
with ``git clone`` or ``git archive``), each of dt = 2e-3, 1e-3 and 5e-4
runs ``--repeats`` times in a fresh interpreter with that checkout's
``src/`` on the path.  A run times ``solve_count_path``, then
``fixed_point_defect`` on its path, then the tail surface ``solve`` would
build (``tail_on_grid`` at about 100 grid times over the scenario's x
grid), and records the node or window count, the iterations, the defect
and its tolerance.  The JSON written to ``--out`` holds, per dt, both
checkouts' median seconds side by side, the largest differences between
their count paths and surfaces, ``wc -l src/fluidq/*.py`` of each
checkout and the machine.  Only functions present in both checkouts are
called, so the older one needs no change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

DTS = (2e-3, 1e-3, 5e-4)
SCENARIO = "scenarios/state_dependent.scn"

CHILD = r"""
import dataclasses, json, sys, time
import numpy as np
from fluidq import fluid
from fluidq.scenario import load_scenario

scenario_path, dt, dump = sys.argv[1], float(sys.argv[2]), sys.argv[3]
sc = load_scenario(scenario_path)
p = dataclasses.replace(sc, dt=dt).fluid_params()
x_grid = sc.x_grid()

t0 = time.perf_counter()
count, diag = fluid.solve_count_path(p)
t1 = time.perf_counter()
defect = fluid.fixed_point_defect(p, count)
t2 = time.perf_counter()
drained = fluid.cumulative_drain(count, p.rate, p.dt_effective)
_, started = fluid.queue_and_starts(count, p.arrival_rate, p.times)
idx = np.arange(0, p.steps + 1, max(1, p.steps // 100))
if idx[-1] != p.steps:
    idx = np.append(idx, p.steps)
c3, t3 = time.process_time(), time.perf_counter()
surface = np.array([fluid.tail_on_grid(p, count, drained, started, int(i), x_grid) for i in idx])
t4, c4 = time.perf_counter(), time.process_time()
np.save(dump, np.concatenate([count, surface.ravel()]))
print(json.dumps({
    "count_path_s": t1 - t0,
    "defect_s": t2 - t1,
    "surface_s": t4 - t3,
    "surface_cpu_s": c4 - c3,
    "nodes": len(diag.windows),
    "iterations": diag.total_iterations,
    "march": getattr(diag, "march", "windows"),
    "defect": defect,
    "tolerance": fluid.defect_tolerance(count),
    "count_points": int(count.size),
}))
"""


def run_once(root: Path, dt: float, dump: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(root / SCENARIO), repr(dt), str(dump)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def measure(root: Path, repeats: int, tmp: Path, tag: str) -> dict:
    """Median timings per dt; counts and defect from the last run, which
    are deterministic."""
    out = {}
    for dt in DTS:
        runs = [run_once(root, dt, tmp / f"{tag}_{dt!r}.npy") for _ in range(repeats)]
        row = dict(runs[-1])
        for key in ("count_path_s", "defect_s", "surface_s", "surface_cpu_s"):
            row[key] = statistics.median(r[key] for r in runs)
        out[repr(dt)] = row
    return out


def line_counts(root: Path) -> dict:
    files = sorted((root / "src" / "fluidq").glob("*.py"))
    counts = {f.name: len(f.read_text(encoding="utf-8").splitlines()) for f in files}
    counts["total"] = sum(counts.values())
    return counts


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "numpy": np.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="root of the checkout to compare against")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    here = Path(__file__).resolve().parent.parent
    base = Path(args.base).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        layers = {"base": measure(base, args.repeats, tmp, "base"),
                  "change": measure(here, args.repeats, tmp, "change")}
        by_dt = {}
        for dt in DTS:
            key = repr(dt)
            a = layers["base"][key]
            b = layers["change"][key]
            va = np.load(tmp / f"base_{key}.npy")
            vb = np.load(tmp / f"change_{key}.npy")
            n = a["count_points"]
            by_dt[key] = {
                "base": a,
                "change": b,
                "max_abs_diff_count": float(abs(va[:n] - vb[:n]).max()),
                "max_abs_diff_surface": float(abs(va[n:] - vb[n:]).max()),
            }
    record = {
        "scenario": SCENARIO,
        "repeats": args.repeats,
        "timing": "median seconds over the repeats, each in a fresh interpreter",
        "layers": by_dt,
        "src_lines": {"base": line_counts(base), "change": line_counts(here)},
        "machine": machine(),
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for key, row in by_dt.items():
        a, b = row["base"], row["change"]
        print(f"dt {key}: count path {a['count_path_s']:.3f} -> {b['count_path_s']:.3f} s, "
              f"defect {a['defect_s']:.3f} -> {b['defect_s']:.3f} s, "
              f"surface {a['surface_s']:.3f} -> {b['surface_s']:.3f} s, "
              f"|dX| {row['max_abs_diff_count']:.1e}, |dz| {row['max_abs_diff_surface']:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

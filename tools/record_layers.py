"""Per-layer timings of fluidq's three layers, for two checkouts.

    python3 tools/record_layers.py --base OTHER_ROOT --out BENCH_<n>.json [--repeats 3]

OTHER_ROOT is a checkout of another commit, made with ``git clone`` or
``git archive``.  Three probes each run at three sizes:

- ``fluid``: one ``fluid.solve(params, x_grid=scenario.x_grid())`` on
  ``state_dependent`` at dt = 2e-3, 1e-3 and 5e-4, under the checkout's own
  ``bench/tracer.py`` ``Tracer``; ``layer_metrics`` reads the count path,
  the defect and the tail surface off the spans inside that call, under the
  ``fluid.*`` names that ``bench/run.py --trace 1`` reports.
- ``simulator``: one ``harness.run_scenario_once`` on ``state_dependent``
  and ``underloaded_exp`` at n = 1e3, 1e4 and 1e5, with the scenario's seed,
  time grid and snapshot times; its ``Trajectory.event_count``, and a sha256
  of the sampled path arrays and the snapshot measures.
- ``prohorov``: one ``prohorov`` call between a seeded lognormal sample of
  1e3, 1e4 or 5e4 atoms of mass 1/n and a 200-atom measure at the cell
  midpoints of a 0.05 grid on [0, 10) carrying the lognormal cell masses.

For each probe and size, every repeat runs the probe in a fresh interpreter
with the checkout's ``src/`` on the path, once on OTHER_ROOT and once on
this checkout, taking turns.  The JSON written to ``--out`` holds, per probe
and size, both checkouts' median seconds side by side with their counts,
the largest differences between their fluid count paths and surfaces,
``wc -l src/fluidq/*.py`` of each checkout and the machine.  The script
exits with status 1 if a fluid march, defect, node count or iteration
count, a simulator digest or event count, or a Prohorov distance differs
between repeats or between the checkouts.  OTHER_ROOT must have
``Trajectory.event_count``.
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

HERE = Path(__file__).resolve().parent

FLUID_LAYERS = ("count_path_s", "defect_s", "tail_surface_s", "tail_surface_cpu_s",
                "windows", "picard_iterations")


def probe_fluid(root: Path, dump: Path, scenario: str, dt: float) -> dict:
    import dataclasses

    sys.path.insert(0, str(root / "bench"))
    from tracer import Tracer, layer_metrics
    from fluidq import fluid
    from fluidq.scenario import load_scenario

    sc = load_scenario(root / "scenarios" / f"{scenario}.scn")
    params = dataclasses.replace(sc, dt=dt).fluid_params()
    tracer = Tracer()
    tracer.install()
    sol = fluid.solve(params, x_grid=sc.x_grid())
    metrics = layer_metrics(tracer.spans, "fluid.solve")
    np.save(dump, np.concatenate([sol.count, sol.tail_surface.ravel()]))
    row = {name: metrics[f"fluid.{name}"][0] for name in FLUID_LAYERS}
    row.update(tail_surface_spans=sum(s["name"] == "fluid.tail_on_grid" for s in tracer.spans),
               march=sol.diagnostics.march, defect=sol.diagnostics.defect,
               count_points=int(sol.count.size))
    return row


def probe_simulator(root: Path, dump: Path, scenario: str, n: int) -> dict:
    import hashlib
    import resource
    import time
    from fluidq.harness import run_scenario_once
    from fluidq.scenario import load_scenario

    sc = load_scenario(root / "scenarios" / f"{scenario}.scn")
    t0 = time.perf_counter()
    traj = run_scenario_once(sc, n, sc.seed, sc.time_grid(), sc.snapshot_times)
    seconds = time.perf_counter() - t0
    h = hashlib.sha256()
    for col in (traj.times, traj.count, traj.queue, traj.in_service, traj.started, traj.drained):
        h.update(np.ascontiguousarray(col).tobytes())
    for sn in traj.snapshots:
        h.update(repr((sn.time, sn.drained)).encode())
        h.update(sn.measure.locations.tobytes() + sn.measure.weights.tobytes())
    return {"run_s": seconds, "events_per_s": traj.event_count / seconds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "events": traj.event_count, "digest": h.hexdigest()}


def probe_prohorov(root: Path, dump: Path, n: int) -> dict:
    import math
    import time
    from fluidq.measures import AtomicMeasure, prohorov

    sigma, cells, step = 0.5, 200, 0.05
    sample = np.random.default_rng(2012).lognormal(0.0, sigma, n)
    empirical = AtomicMeasure(sample, np.full(n, 1.0 / n))
    edges = step * np.arange(cells + 1)
    cdf = np.array([0.0] + [0.5 * (1.0 + math.erf(math.log(e) / (sigma * math.sqrt(2.0))))
                            for e in edges[1:]])
    mass = np.diff(cdf)
    mass[-1] += 1.0 - cdf[-1]
    grid = AtomicMeasure(0.5 * (edges[:-1] + edges[1:]), mass)
    t0 = time.perf_counter()
    d = prohorov(empirical, grid)
    return {"prohorov_s": time.perf_counter() - t0, "distance": d,
            "atoms": [len(empirical), len(grid)]}


# probe -> (function, sizes, workload, keys that must agree across repeats
# and checkouts)
PROBES = {
    "fluid": (probe_fluid, [("state_dependent", dt) for dt in (2e-3, 1e-3, 5e-4)],
              "fluid.solve on scenarios/<scenario>.scn at dt, traced by bench/tracer.py",
              ("march", "defect", "windows", "picard_iterations")),
    "simulator": (probe_simulator, [(sc, n) for sc in ("state_dependent", "underloaded_exp")
                                    for n in (1000, 10000, 100000)],
                  "harness.run_scenario_once on scenarios/<scenario>.scn at n, with the "
                  "scenario's seed, time grid and snapshot times", ("events", "digest")),
    "prohorov": (probe_prohorov, [(n,) for n in (1000, 10000, 50000)],
                 "prohorov between a lognormal(0, 0.5) sample of n atoms of mass 1/n (seed "
                 "2012) and 200 cell-midpoint atoms on a 0.05 grid", ("distance",)),
}

CHILD = ("import json, sys; sys.path.insert(0, sys.argv[1]); import record_layers as r; "
         "print(json.dumps(r.child(*json.loads(sys.argv[2]))))")


def child(probe: str, root: str, dump: str, args: list) -> dict:
    return PROBES[probe][0](Path(root), Path(dump), *args)


def run_once(root: Path, probe: str, args: tuple, dump: Path) -> dict:
    """One probe call in a fresh interpreter with ``root``'s ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(HERE), json.dumps([probe, str(root), str(dump), args])],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(runs: list) -> dict:
    """Medians of the timings (keys ending in _s or _mb); the rest from
    the last run."""
    row = dict(runs[-1])
    for key in row:
        if key.endswith(("_s", "_mb")):
            row[key] = statistics.median(r[key] for r in runs)
    return row


def show(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def line_counts(root: Path) -> dict:
    files = sorted((root / "src" / "fluidq").glob("*.py"))
    counts = {f.name: len(f.read_text(encoding="utf-8").splitlines()) for f in files}
    counts["total"] = sum(counts.values())
    return counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="root of the checkout to compare against")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    roots = {"base": Path(args.base).resolve(), "change": HERE.parent}
    probes = {}
    consistent = True
    with tempfile.TemporaryDirectory() as tmp:
        for probe, (_, sizes, workload, same) in PROBES.items():
            rows = {}
            for size in sizes:
                dumps = {tag: Path(tmp) / f"{tag}.npy" for tag in roots}
                runs = {tag: [] for tag in roots}
                for _ in range(args.repeats):
                    for tag, root in roots.items():
                        runs[tag].append(run_once(root, probe, size, dumps[tag]))
                row = {tag: summarize(rs) for tag, rs in runs.items()}
                if same:
                    seen = {tuple(r[k] for k in same) for rs in runs.values() for r in rs}
                    row["identical"] = len(seen) == 1
                    consistent &= row["identical"]
                if probe == "fluid":
                    va, vb = (np.load(dumps[tag]) for tag in roots)
                    m = row["base"]["count_points"]
                    row["max_abs_diff_count"] = float(abs(va[:m] - vb[:m]).max())
                    row["max_abs_diff_surface"] = float(abs(va[m:] - vb[m:]).max())
                key = "/".join(map(str, size))
                rows[key] = row
                print(f"{probe} {key}: " + ", ".join(
                    f"{k} {show(row['base'][k])} -> {show(row['change'][k])}"
                    for k in row["change"] if k.endswith("_s") or k in ("windows", "events")
                ) + "".join(f", {k} {v}" for k, v in row.items() if k not in roots), flush=True)
            probes[probe] = {"workload": workload, "sizes": rows}
    record = {
        "repeats": args.repeats,
        "timing": ("median over the repeats, each in a fresh interpreter, base and change "
                   "taking turns"),
        "identical": ("fluid: march, defect float, node and iteration counts agree; "
                      "simulator: event counts and sha256 of the path arrays and snapshot "
                      "measures agree; prohorov: the distances are equal floats; over every "
                      "repeat of both checkouts"),
        "probes": probes,
        "src_lines": {tag: line_counts(root) for tag, root in roots.items()},
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "cpus": os.cpu_count(), "numpy": np.__version__},
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if not consistent:
        print("defects, counts, digests or distances differ between repeats or checkouts",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

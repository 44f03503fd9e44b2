"""Simulator events per second against n, for one or two checkouts.

    python3 tools/simulator_events.py --out BENCH_<n>.json [--base OTHER_ROOT] [--repeats 3]

For this checkout, and for OTHER_ROOT (a checkout of another commit, made
with ``git clone`` or ``git archive``) when given, each of the
``state_dependent`` and ``underloaded_exp`` scenarios runs at n = 1e3, 1e4
and 1e5, ``--repeats`` times in a fresh interpreter with that checkout's
``src/`` and ``scenarios/``; the repeats alternate between the checkouts.
A run times one ``harness.run_scenario_once`` call with the scenario's
seed, time grid and snapshot times, and hashes the sampled path arrays and
the snapshot measures.  The JSON written to ``--out`` holds, per scenario
and n, each checkout's event count, median run seconds, events per second
and peak RSS, whether the hashes agree (``identical``), ``wc -l
src/fluidq/*.py`` of each checkout and the machine.  The script exits with
status 1 if any hash differs, between repeats or between checkouts.  The
event count is ``Trajectory.event_count``, or the length of the event log
on a checkout older than that field, so an older checkout needs no change.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from fluid_layers import line_counts, machine

SCENARIOS = ("state_dependent", "underloaded_exp")
SIZES = (1000, 10000, 100000)

CHILD = r"""
import hashlib, json, resource, sys, time
import numpy as np
from fluidq.harness import run_scenario_once
from fluidq.scenario import load_scenario

scenario = load_scenario(sys.argv[1])
n = int(sys.argv[2])
t0 = time.perf_counter()
traj = run_scenario_once(scenario, n, scenario.seed, scenario.time_grid(),
                         scenario.snapshot_times)
t1 = time.perf_counter()
events = getattr(traj, "event_count", None)
if events is None:
    events = len(traj.events)
h = hashlib.sha256()
for col in (traj.times, traj.count, traj.queue, traj.in_service, traj.started, traj.drained):
    h.update(np.ascontiguousarray(col).tobytes())
for sn in traj.snapshots:
    h.update(repr((sn.time, sn.drained)).encode())
    h.update(sn.measure.locations.tobytes() + sn.measure.weights.tobytes())
print(json.dumps({"seconds": t1 - t0, "events": events, "digest": h.hexdigest(),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""


def run_once(root: Path, scenario: str, n: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(root / "scenarios" / f"{scenario}.scn"), str(n)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="root of the checkout to compare against")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    roots = {"change": Path(__file__).resolve().parent.parent}
    if args.base:
        roots = {"base": Path(args.base).resolve(), **roots}
    results = {}
    consistent = True
    for scenario in SCENARIOS:
        for n in SIZES:
            runs = {tag: [] for tag in roots}
            for _ in range(args.repeats):
                for tag, root in roots.items():
                    runs[tag].append(run_once(root, scenario, n))
            row = {}
            for tag, rs in runs.items():
                seconds = statistics.median(r["seconds"] for r in rs)
                row[tag] = {
                    "events": rs[0]["events"],
                    "seconds": seconds,
                    "runs_s": [r["seconds"] for r in rs],
                    "events_per_s": rs[0]["events"] / seconds,
                    "peak_rss_mb": max(r["peak_rss_mb"] for r in rs),
                    "digest": rs[0]["digest"],
                }
                consistent &= len({(r["events"], r["digest"]) for r in rs}) == 1
            if "base" in row:
                row["identical"] = (row["base"]["digest"] == row["change"]["digest"]
                                    and row["base"]["events"] == row["change"]["events"])
                consistent &= row["identical"]
            results.setdefault(scenario, {})[str(n)] = row
            print(f"{scenario} n={n}: " + ", ".join(
                f"{tag} {r['events']} events in {r['seconds']:.3f} s "
                f"({r['events_per_s']:.0f}/s, {r['peak_rss_mb']:.0f} MB)"
                for tag, r in row.items() if tag in roots)
                + (f", identical {row['identical']}" if "identical" in row else ""), flush=True)
    record = {
        "workload": ("harness.run_scenario_once on each scenario with its seed, time grid "
                     "and snapshot times, at each n"),
        "repeats": args.repeats,
        "timing": ("median seconds of one run_scenario_once call over the repeats, each in "
                   "a fresh interpreter; peak RSS is the largest over the repeats"),
        "identical": "sha256 of the sampled path arrays and snapshot measures agree",
        "scenarios": results,
        "src_lines": {tag: line_counts(root) for tag, root in roots.items()},
        "machine": machine(),
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if not consistent:
        print("paths or event counts differ between runs or checkouts", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

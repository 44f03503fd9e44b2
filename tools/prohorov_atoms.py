"""Prohorov time against atom count, for two checkouts.

    python3 tools/prohorov_atoms.py --base OTHER_ROOT --out BENCH_<n>.json [--repeats 3]

For this checkout and for OTHER_ROOT (a checkout of another commit, made
with ``git clone`` or ``git archive``), each of 1e3, 1e4 and 5e4 atoms
runs ``--repeats`` times in a fresh interpreter with that checkout's
``src/`` on the path; the repeats alternate between the two checkouts.
A run builds a seeded lognormal sample of that many atoms, each of mass
1/n, and a 200-atom measure at the cell midpoints of a 0.05 grid on
[0, 10) carrying the lognormal cell masses, then times one ``prohorov``
call between them.  The JSON written to ``--out`` holds, per size, both
checkouts' median seconds and distances side by side, whether the
distances are identical floats, ``wc -l src/fluidq/*.py`` of each checkout
and the machine.  The script exits with status 1 if any distance differs.
Only ``AtomicMeasure`` and ``prohorov`` are called, so an older checkout
needs no change.
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

SIZES = (1000, 10000, 50000)
SEED = 2012
SIGMA = 0.5
GRID_ATOMS = 200
GRID_STEP = 0.05

CHILD = r"""
import json, math, sys, time
import numpy as np
from fluidq.measures import AtomicMeasure, prohorov

n, seed, sigma, cells, step = (int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3]),
                               int(sys.argv[4]), float(sys.argv[5]))
sample = np.random.default_rng(seed).lognormal(0.0, sigma, n)
empirical = AtomicMeasure(sample, np.full(n, 1.0 / n))
edges = step * np.arange(cells + 1)
cdf = np.array([0.0] + [0.5 * (1.0 + math.erf(math.log(e) / (sigma * math.sqrt(2.0))))
                        for e in edges[1:]])
mass = np.diff(cdf)
mass[-1] += 1.0 - cdf[-1]
grid = AtomicMeasure(0.5 * (edges[:-1] + edges[1:]), mass)

t0 = time.perf_counter()
d = prohorov(empirical, grid)
t1 = time.perf_counter()
print(json.dumps({"seconds": t1 - t0, "distance": d, "atoms": [len(empirical), len(grid)]}))
"""


def run_once(root: Path, n: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(n), str(SEED), repr(SIGMA), str(GRID_ATOMS),
         repr(GRID_STEP)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="root of the checkout to compare against")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    roots = {"base": Path(args.base).resolve(), "change": Path(__file__).resolve().parent.parent}
    by_size = {}
    for n in SIZES:
        runs = {tag: [] for tag in roots}
        for _ in range(args.repeats):
            for tag, root in roots.items():
                runs[tag].append(run_once(root, n))
        row = {}
        for tag, rs in runs.items():
            distances = {r["distance"] for r in rs}
            if len(distances) != 1:
                raise RuntimeError(f"{tag} at {n} atoms returned different distances: {distances}")
            row[tag] = {
                "seconds": statistics.median(r["seconds"] for r in rs),
                "runs_s": [r["seconds"] for r in rs],
                "distance": rs[0]["distance"],
                "atoms": rs[0]["atoms"],
            }
        row["identical"] = row["base"]["distance"] == row["change"]["distance"]
        by_size[str(n)] = row
    record = {
        "workload": (f"prohorov between a lognormal(0, {SIGMA}) sample of n atoms of mass 1/n "
                     f"(seed {SEED}) and {GRID_ATOMS} cell-midpoint atoms on a {GRID_STEP} grid"),
        "repeats": args.repeats,
        "timing": "median seconds of one prohorov call over the repeats, each in a fresh interpreter",
        "sizes": by_size,
        "src_lines": {tag: line_counts(root) for tag, root in roots.items()},
        "machine": machine(),
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for key, row in by_size.items():
        a, b = row["base"], row["change"]
        print(f"{key} atoms: {a['seconds']:.3f} -> {b['seconds']:.3f} s, "
              f"distance {a['distance']!r} -> {b['distance']!r}, identical {row['identical']}")
    if not all(row["identical"] for row in by_size.values()):
        print("distances differ between the checkouts", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

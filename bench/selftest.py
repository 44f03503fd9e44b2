"""Shows that every artifact check rejects a deliberately perturbed artifact.

    python3 bench/selftest.py

Runs each workload's command once (seed 1) into .bench_out/selftest and
checks that the untouched artifacts pass.  Then, for each perturbation, it
copies them, changes one property and requires the workload's check to
raise CheckError with the expected reason.  Exits 1 if any case fails.
About a minute on two cores.
"""

from __future__ import annotations

import shutil
import sys

import numpy as np

import checks
from run import OUT, ROOT, Run, spawn

SEED = 1


def edit_table(name, change):
    """Perturbation that rewrites one tab-separated artifact: ``change``
    gets the float matrix and returns it modified."""
    def apply(out_dir):
        path = out_dir / name
        lines = path.read_text(encoding="utf-8").splitlines()
        head = [ln for ln in lines if ln.startswith("#")]
        names, rows = lines[len(head)], lines[len(head) + 1:]
        data = change(np.array([r.split("\t") for r in rows], dtype=float))
        ints = [j for j, cell in enumerate(rows[0].split("\t")) if "." not in cell and "e" not in cell]
        body = ["\t".join(str(int(v)) if j in ints else repr(float(v)) for j, v in enumerate(row))
                for row in data]
        path.write_text("\n".join(head + [names] + body) + "\n", encoding="utf-8")
    return apply


def edit_text(name, change):
    def apply(out_dir):
        path = out_dir / name
        path.write_text(change(path.read_text(encoding="utf-8")), encoding="utf-8")
    return apply


def at(data, col, fn, rows=slice(None)):
    data[rows, col] = fn(data[rows, col])
    return data


def consistent_scale(data):
    """X scaled by 1 + 1e-5 with Q, B and S recomputed from it, so only the
    count equation itself is violated."""
    m = checks.STATE_DEPENDENT
    t, x = data[:, 0], data[:, 1] * (1.0 + 1e-5)
    q = np.maximum(x - 1.0, 0.0)
    return np.column_stack([t, x, q, m.lam * t - q,
                            checks.cumulative_trapezoid(m.rate(x), t[1] - t[0])])


def bump_above_left(data):
    """z(t, x) at one x raised just above its value one x-step to the left."""
    data[50, 10] = data[50, 9] + 1e-3
    return data


def lower_ladder(data):
    """Mean gaps 0.08 > 0.07 > 0.06: still falling, above the bound at 1e4."""
    for n, gap in ((100, 0.08), (1000, 0.07), (10000, 0.06)):
        data[data[:, 0] == n, 2] = gap
    return data


def flatten_top(data):
    data[data[:, 0] == 10000, 2] = data[data[:, 0] == 1000, 2].mean()
    return data


def drop_atom(text):
    lines = text.splitlines()
    i = lines.index("# t = 2.5") + 1
    return "\n".join(lines[:i] + lines[i + 1:]) + "\n"


def zero_atom(text):
    lines = text.splitlines()
    i = lines.index("# t = 2.5") + 1
    lines[i] = "0.0," + lines[i].split(",")[1]
    return "\n".join(lines) + "\n"


def shift_count(data):
    """X and Z down by 10% of n over t in [2, 3), where no queue forms:
    the identities hold, the LLN bound does not."""
    rows = (data[:, 0] >= 2.0) & (data[:, 0] < 3.0)
    data[rows, 1] -= 1000
    data[rows, 3] -= 1000
    return data


TRAJ = f"trajectory_n10000_seed{SEED + 2}.tsv"
SNAP = f"snapshots_n10000_seed{SEED}.txt"

CASES = {
    "solve_state_dependent": [
        ("count equation", edit_table("solution.tsv", consistent_scale), "count equation residual"),
        ("S", edit_table("solution.tsv", lambda d: at(d, 4, lambda v: v + 1e-6, -1)),
         "S is not the trapezoid"),
        ("Q", edit_table("solution.tsv", lambda d: at(d, 2, lambda v: v + 1e-6, 4000)), "Q != (X - 1)^+"),
        ("B monotone", edit_table("solution.tsv", lambda d: at(d, 3, lambda v: v - 1e-2, 4000)),
         "B decreases"),
        ("B", edit_table("solution.tsv", lambda d: at(d, 3, lambda v: v + 1e-6, slice(4000, None))),
         "B != lam*t - Q"),
        ("surface sign", edit_table("tail_surface.tsv", lambda d: at(d, -1, lambda v: -1e-6, 50)),
         "tail surface is negative"),
        ("surface monotone", edit_table("tail_surface.tsv", bump_above_left),
         "tail surface increases in x"),
        ("z(t,0)", edit_table("tail_surface.tsv", lambda d: at(d, 1, lambda v: v + 1e-3, 50)),
         "from min(X,1)"),
        ("bytes", edit_text("solution.tsv", lambda s: s.replace("# command: solve", "# command:  solve")),
         "differ from the first repetition"),
    ],
    "compare_underloaded_n1e4": [
        ("ladder", edit_table("report.tsv", flatten_top), "does not fall strictly"),
        ("count gap bound", edit_table("report.tsv", lower_ladder), "mean sup|X| gap 0.06"),
        ("Prohorov bound", edit_table("report.tsv", lambda d: at(d, 6, lambda v: 0.11, -1)),
         "Prohorov gap"),
        ("rows", edit_text("report.tsv", lambda s: "\n".join(s.splitlines()[:-1]) + "\n"),
         "every (n, seed) pair"),
    ],
    "simulate_state_dependent_n1e4": [
        ("X = Q + Z", edit_table(TRAJ, lambda d: at(d, 1, lambda v: v + 1, 3000)), "X != Q + Z"),
        ("Q", edit_table(TRAJ, lambda d: at(at(d, 2, lambda v: v + 1, 3000), 3, lambda v: v - 1, 3000)),
         "Q != (X - n)^+"),
        # Z = min(X, n) follows from the two identities above, so a change to
        # Z alone is caught by the first of them
        ("Z", edit_table(TRAJ, lambda d: at(d, 3, lambda v: v - 1, 3000)), "X != Q + Z"),
        ("B monotone", edit_table(TRAJ, lambda d: at(d, 4, lambda v: v - 50, 3000)), "B decreases"),
        ("S monotone", edit_table(TRAJ, lambda d: at(d, 5, lambda v: v - 1e-2, 3000)), "S decreases"),
        ("LLN", edit_table(TRAJ, shift_count), "sup|X/n - x|"),
        ("atom count", edit_text(SNAP, drop_atom), "atoms for Z"),
        ("atom sign", edit_text(SNAP, zero_atom), "not positive"),
    ],
}


def main() -> int:
    base = OUT / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    bad = 0
    for name, cases in CASES.items():
        run = Run(name, SEED)
        run.out = base / name
        clean = run.out / "clean"
        if not spawn(run.out / "clean.json", [], run.cli_args(clean))["ok"]:
            print(f"FAIL {name}: the command failed")
            return 1
        run.check(clean)
        print(f"pass {name}: untouched artifacts accepted")
        for label, perturb, expected in cases:
            copy = run.out / label.replace(" ", "_").replace("/", "")
            shutil.copytree(clean, copy)
            perturb(copy)
            try:
                run.check(copy)
                outcome = "accepted"
            except checks.CheckError as exc:
                outcome = str(exc)
            ok = expected in outcome
            bad += not ok
            print(f"{'pass' if ok else 'FAIL'} {name} / {label}: {outcome}")
    scn = base / "changed.scn"
    scn.write_text((ROOT / "scenarios/state_dependent.scn").read_text().replace("lambda = 1.2", "lambda = 1.3"))
    try:
        checks.verify_scenario(scn, checks.STATE_DEPENDENT)
        outcome = "accepted"
    except checks.CheckError as exc:
        outcome = str(exc)
    ok = "'lambda' is '1.3'" in outcome
    bad += not ok
    print(f"{'pass' if ok else 'FAIL'} scenario file / lambda: {outcome}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

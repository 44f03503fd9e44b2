"""Regenerate the pilot-run expected-value files.

Run from the repository root:

    python tests/fixtures/regenerate.py                   # every fixture
    python tests/fixtures/regenerate.py state_dependent   # only the named ones

The acceptance suite compares freshly computed statistics against these
frozen values, so regenerate only when the underlying algorithms change on
purpose, and commit the result together with that change.
"""

import sys
from pathlib import Path

import numpy as np

from fluidq.harness import convergence_experiment, glivenko_cantelli_check
from fluidq.laws import make_exponential
from fluidq.scenario import load_scenario

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

GC_SEED = 0


def write(name: str, lines):
    path = HERE / name
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")


def convergence_fixture(scenario_name: str) -> None:
    scenario = load_scenario(ROOT / "scenarios" / f"{scenario_name}.scn")
    report = convergence_experiment(scenario)
    agg = report.per_n()
    lines = [
        f"# pilot run of scenario '{scenario_name}'",
        f"# base seed {scenario.seed}, replications {scenario.replications}, "
        f"n ladder {','.join(str(n) for n in scenario.n_list)}",
        "# regenerate with tests/fixtures/regenerate.py",
        f"base_seed = {scenario.seed}",
        f"replications = {scenario.replications}",
    ]
    for n in scenario.n_list:
        lines.append(f"mean_count_gap_n{n} = {agg[n]['mean_count_gap']!r}")
    biggest = max(scenario.n_list)
    lines.append(f"max_count_gap_n{biggest} = {agg[biggest]['max_count_gap']!r}")
    first = next(r for r in report.rows if r.n == biggest and r.seed == scenario.seed)
    lines.append(f"single_count_gap_n{biggest} = {first.count_gap!r}")
    for t, d in agg[biggest]["mean_measure_gap"].items():
        lines.append(f"mean_rho_n{biggest}_t{t:g} = {d!r}")
    write(f"convergence_{scenario_name}.txt", lines)


def gc_fixture() -> None:
    law = make_exponential(1.0)
    x_grid = np.arange(0.0, 10.0 + 0.025, 0.05)
    lines = [
        "# pilot run of the block empirical-measure deviation check",
        f"# exponential(1) law, window_mass = block_span = 2, seed {GC_SEED}",
        "# regenerate with tests/fixtures/regenerate.py",
        f"seed = {GC_SEED}",
    ]
    for n in (1000, 10000):
        dev = glivenko_cantelli_check(law, n, 2.0, 2.0, x_grid, seed=GC_SEED)
        lines.append(f"deviation_n{n} = {dev!r}")
    write("gc_exponential.txt", lines)


FIXTURES = {
    "underloaded_exp": lambda: convergence_fixture("underloaded_exp"),
    "state_dependent": lambda: convergence_fixture("state_dependent"),
    "gc": gc_fixture,
}


if __name__ == "__main__":
    for name in sys.argv[1:] or FIXTURES:
        FIXTURES[name]()

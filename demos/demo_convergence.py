"""Watch the scaled simulation approach the fluid solution as n grows.

Runs the shipped underloaded scenario on a small n ladder with three
seeds per n and prints the sup-norm gaps on the scaled count path
together with the Prohorov distances between the scaled residual-work
measure and the discretized fluid tail.
"""

from pathlib import Path

from fluidq import convergence_experiment, load_scenario
from fluidq.cli import report_to_text, summary_to_text

scenario = load_scenario(Path(__file__).resolve().parent.parent
                         / "scenarios" / "underloaded_exp.scn")
report = convergence_experiment(
    scenario, n_list=[10, 50, 200], seeds=[scenario.seed + r for r in range(3)]
)

print("rows (one per n and seed):")
print(report_to_text(report).rstrip())
print()
print(summary_to_text(report).rstrip())
print("\nGaps shrink roughly like 1/sqrt(n); the committed acceptance ladder "
      "runs n = 10, 100, 1000 with five seeds.")

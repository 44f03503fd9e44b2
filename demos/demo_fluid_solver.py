"""Solve the fluid equations in the two regimes with known answers.

Underloaded (lambda = 0.5): the count never reaches the server mass, so
X(t) = 0.5 (1 - e^{-t}) and the residual-work tail factorizes as
e^{-x} X(t).  Overloaded (lambda = 2): the servers saturate at t = ln 2
and the count then grows at rate lambda - 1.  The script solves both and
prints the deviations from the closed forms plus the solver diagnostics.
"""

import math

import numpy as np

from fluidq import FluidParams, TailFunction, constant_rate, make_exponential
from fluidq import fluid as fluid_mod

common = dict(
    service=make_exponential(1.0),
    rate=constant_rate(1.0),
    initial_tail=TailFunction.zero(),
    initial_queue=0.0,
    dt=1e-3,
)
x_grid = np.arange(0.0, 10.025, 0.05)  # tail surface columns, x = 0, 0.05, ..., 10

print("== underloaded, lambda = 0.5 ==")
p = FluidParams(arrival_rate=0.5, horizon=5.0, **common)
sol = fluid_mod.solve(p, x_grid)
exact = 0.5 * (1.0 - np.exp(-sol.times))
print(f"  sup |X - closed form|      : {np.max(np.abs(sol.count - exact)):.2e}")
idx = np.searchsorted(sol.times, sol.surface_times)
target = np.exp(-sol.x_grid)[None, :] * exact[idx][:, None]
print(f"  sup |tail - e^-x X|        : {np.max(np.abs(sol.tail_surface - target)):.2e}")
d = sol.diagnostics
print(f"  {d.march} march, nodes {len(d.windows)}, iterations {d.total_iterations}, "
      f"defect {d.defect:.2e}")

print("\n== overloaded, lambda = 2 ==")
p2 = FluidParams(arrival_rate=2.0, horizon=4.0, **common)
sol2 = fluid_mod.solve(p2, x_grid)
t = sol2.times
closed = np.where(t <= math.log(2), 2 * (1 - np.exp(-t)), 1 + (t - math.log(2)))
print(f"  sup |X - closed form|      : {np.max(np.abs(sol2.count - closed)):.2e}")
crossing = t[int(np.argmax(sol2.count >= 1.0))]
print(f"  saturation located at      : {crossing:.4f} (ln 2 = {math.log(2):.4f})")
print(f"  queue at horizon           : {sol2.queue[-1]:.4f} "
      f"(expect T - ln 2 = {4 - math.log(2):.4f})")

print("\nfixed-point defects: a solution must pass, a perturbed path must not")
print(f"  solver output : {fluid_mod.fixed_point_defect(p2, sol2.count):.2e}")
print(f"  output + 0.1  : {fluid_mod.fixed_point_defect(p2, sol2.count + 0.1):.2e}")

"""Walk through one small simulation run and its exactness guarantees.

Two servers, slow Poisson arrivals, exponential work, and a service rate
that speeds up with congestion.  The run prints the raw event log, then
verifies that every departed customer received exactly their requested
amount of work (the drain bookkeeping makes this an identity, not an
approximation).
"""

import numpy as np

from fluidq import (
    Simulator,
    capped_linear_rate,
    init,
    make_arrivals,
    make_exponential,
)

sim = Simulator(
    n=2,
    service=make_exponential(1.0),
    rate=capped_linear_rate(0.5, 1.0, 2.0),   # k(x) = min(0.5 + x, 2)
    arrivals=make_arrivals("exponential", 1.2),
    state=init(2, residuals=[0.4, 1.1]),
    seed=7,
)
traj = sim.run(6.0, grid=np.linspace(0, 6, 13), snapshot_times=[2.0, 4.0], record=True)

print("event log (time, kind, customer):")
for e in traj.events:
    print(f"  {e.time:7.4f}  {e.kind:14s}  {e.customer:+d}")

print("\nsampled path (time, in system, queue, busy, drained):")
for i in range(traj.times.size):
    print(f"  t={traj.times[i]:4.1f}  X={traj.count[i]:2d}  Q={traj.queue[i]:2d}"
          f"  Z={traj.in_service[i]:2d}  S={traj.drained[i]:.4f}")

print("\nresidual-work snapshots:")
for sn in traj.snapshots:
    atoms = ", ".join(f"{x:.3f}" for x in sn.measure.locations)
    print(f"  t={sn.time}: {len(sn.measure)} customers in service, residuals [{atoms}]")

worst = 0.0
departed = 0
for rec in traj.records.values():
    if rec.departure_time is not None:
        departed += 1
        worst = max(worst, abs(rec.departure_drained - rec.start_drained
                               - rec.requirement))
print(f"\n{departed} departures; worst |work received - requirement| = {worst:.2e}")

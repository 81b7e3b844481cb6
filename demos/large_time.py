"""Large-time behaviour: every finite-mass solution spreads into the patch.

In the self-similar variables y = x/(1+t)^{1/n}, tau = log(1+t),
U = (1+t) u, the expanding patch becomes a stationary indicator and the flow
acquires a Lyapunov functional Ent(U) decaying at rate D(U) = int U |V - y/n|^2.
The planar second moment is NOT constant: it grows at the exact pair-interaction
rate M^2/(2 pi) (the expanding patch shows this immediately), while the
renormalized moment int U |y|^2 stays put.

Run:  python demos/large_time.py
"""

import numpy as np

from vortexlab import CartesianGrid, SolverConfig, field_from_function, run, total_mass
from vortexlab.diagnostics import asymptotic_error

grid = CartesianGrid(2, 2.56, 192)
width_sq = 1.0 / (4 * np.pi)
u0 = field_from_function(grid, lambda p: 2.0 * np.exp(-(p**2).sum(axis=-1) / (2 * width_sq)))
mass = total_mass(u0)
print(f"gaussian bump: mass {mass:.4f}, peak {u0.values.max():.3f} (tau = 0.5)")

cfg = SolverConfig(
    output_times=(0.5, 1.0, 2.0, 3.0),
    cfl=0.45, diagnostics="full",
)
fields = []  # the run keeps only the last output's field, so collect them all
traj = run(cfg, u0, at_output=lambda t, u: fields.append(u))

m2_0 = traj.records[0].second_moment
virial_rate = mass**2 / (2 * np.pi)
print(f"\n{'t':>5} {'Ent(U)':>10} {'D(U)':>10} {'m2':>8} {'m2_0 + t M^2/2pi':>17} "
      f"{'m2/(1+t)':>9} {'|U - chi|_1':>11}")
for rec, u in zip(traj.records, fields):
    t = rec.t
    err = asymptotic_error(u, t, mass)
    print(f"{t:5.2f} {rec.entropy:10.6f} {rec.dissipation:10.6f} {rec.second_moment:8.4f} "
          f"{m2_0 + t * virial_rate:17.4f} {rec.second_moment / (1 + t):9.5f} {err:11.4f}")

print("\nEnt decreases at rate D, the raw moment tracks the virial line,")
print("the renormalized moment stays constant, and U approaches the indicator.")

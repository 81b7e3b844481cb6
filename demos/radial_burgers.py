"""The mass-function reduction: radial solutions without any field solve.

For radial data the cumulative mass M(r,t) = int_0^r s^{n-1} u ds satisfies
M_t + M M_sigma = 0 in sigma = r^n/n.  Because M is nondecreasing the
characteristics never cross: transporting each knot of a piecewise-linear M0
by t*M0 gives the exact solution, including the rarefaction fan a point mass
opens at the origin.

The two-patch configuration (inner ball + annulus with a vacuum gap) is a
nice stress test: its three interfaces move with explicit closed forms, and a
Godunov finite-volume scheme on the same sigma grid converges to the exact
transport at first order.

Run:  python demos/radial_burgers.py
"""

import numpy as np

from vortexlab import TwoPatchSpec, two_patch_state
from vortexlab.burgers import (
    CharacteristicSolution,
    evolve_characteristics,
    evolve_to_mass_function,
    interfaces_at,
    run_finite_volume,
)
from vortexlab.grids import RadialGrid

spec = TwoPatchSpec(2, c1=1.0, r1=1.0, r2=2.0, r3=3.0)
print(f"two-patch: heights ({spec.c1}, {spec.c2}), lifetimes tau = ({spec.tau1}, {spec.tau2})")

# the initial mass function is piecewise linear in sigma; knots at the radii
knots_r = np.array([0.0, spec.r1, spec.r2, spec.r3, np.sqrt(2 * 11.0)])
sol = CharacteristicSolution(2, knots_r**2 / 2, two_patch_state(spec, knots_r, 0.0).mass)

for t in (1.0, 3.0):
    s_exact = spec.interfaces(t)
    s_knots = interfaces_at(sol, t)[1:4]
    print(f"\nt = {t}: interfaces (closed form)   {np.round(s_exact, 6)}")
    print(f"       interfaces (characteristics) {np.round(s_knots, 6)}")

# finite-volume convergence against the exact transport
print("\nGodunov error against the exact solution at t = 1:")
for nodes in (256, 512, 1024):
    rgrid = RadialGrid(2, np.sqrt(2 * 11.0), nodes)
    m0 = evolve_to_mass_function(sol, 0.0, rgrid)
    m_end = run_finite_volume(m0, [1.0])[-1][1]
    exact = evolve_characteristics(sol, 1.0, rgrid.sigma)
    err = np.trapezoid(np.abs(m_end.values - exact), rgrid.sigma)
    print(f"  J = {nodes:5d}: L1(sigma) error {err:.5f}")
print("halving the cell size roughly halves the error (first-order scheme).")

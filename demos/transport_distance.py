"""Radial transport distances through quantile functions.

For equal-mass radial measures about a common center the monotone radial
rearrangement is the optimal coupling, so W_p reduces to a one-dimensional
quantile integral.  The demo checks that claim against the cost of the sorted
coupling of equal-mass atoms, which a Kantorovich dual certificate proves an
optimal assignment (its smallest slack, relative to the largest cost, is at
rounding), and shows the time-modulus the expanding patch family saturates:

    W_2(u(t1), u(t2)) = (n M_rad)^{1/n} sqrt(n M / (n+2)) (t2^{1/n} - t1^{1/n}).

Run:  python demos/transport_distance.py
"""

import numpy as np

from vortexlab import MassFunction, PatchSpec, patch_mass, wasserstein_radial
from vortexlab.diagnostics import coupling_certificate, quantile_radii
from vortexlab.grids import RadialGrid

rng = np.random.default_rng(1)
rgrid = RadialGrid(2, 3.0, 64)

print("random radial pairs: quantile formula vs certified optimal assignment")
for k in range(5):
    inc1 = rng.random(rgrid.nodes - 1)
    inc2 = rng.random(rgrid.nodes - 1)
    m1 = MassFunction(rgrid, np.concatenate([[0.0], np.cumsum(inc1)]))
    scale = m1.total / np.sum(inc2)
    m2 = MassFunction(rgrid, np.concatenate([[0.0], np.cumsum(inc2) * scale]))
    shipped = wasserstein_radial(m1, m2)
    q = (np.arange(300) + 0.5) * (m1.full_mass() / 300)
    cost, slack = coupling_certificate(quantile_radii(m1, q), quantile_radii(m2, q))
    oracle = np.sqrt(cost * m1.full_mass() / 300)
    print(f"  pair {k}: quantile {shipped:.5f}, assignment {oracle:.5f}, "
          f"gap {abs(shipped - oracle) / oracle:.2e}, certificate slack {slack:.1e}")

print("\nexpanding patch: distance between snapshots against the t^{1/n} modulus")
spec = PatchSpec(2, radius=1.0, tau=0.0)
pr = RadialGrid(2, 12.0, 1024)
coeff = (2 * spec.radial_total()) ** 0.5 * np.sqrt(2 * spec.full_mass() / 4)
for t1, t2 in ((1.0, 2.0), (2.0, 4.0), (4.0, 8.0)):
    m1 = MassFunction(pr, patch_mass(spec, pr.r, t1))
    m2 = MassFunction(pr, patch_mass(spec, pr.r, t2))
    w = wasserstein_radial(m1, m2)
    print(f"  [{t1}, {t2}]: W2 = {w:.5f}, modulus coefficient {w / (np.sqrt(t2) - np.sqrt(t1)):.5f} "
          f"(closed form {coeff:.5f})")

"""Quantitative checks: the record a field run makes at each output, the entropy
Lyapunov functional of the renormalized (self-similar) flow and its dissipation,
radial Wasserstein distances via quantile functions, and trajectory-level
continuity reports.

The renormalized flow uses y = x/a, a = (1+t)^{1/n}, tau = log(1+t) and
U = (1+t) u; an expanding uniform patch becomes a stationary indicator in these
variables, and the entropy

    Ent(U) = 1/2 int (U P - U0 P0) dy + int U |y|^2 / (2n) dy    (n = 2),

P and P0 the potentials (-Lap)^{-1} of U and U0, decays along orbits at rate
D(U) = int U |V - y/n|^2 dy.  Ent and D read only the cells of U and U0, so a
record runs on their support window, like a solver step.  On u's grid the first
term is half the energy P(u) - P(r) of `potentials.energy`, and one solve of G_h u
gives P(u), the face velocities of D and the first-stage potential of the next solver
step; the reference bumps are tabulated only on their disks' bounding boxes.  D is
summed in the row blocks of `potentials._face_strips`, the strips the step's transport
runs in, each taking its faces from that solve, over the faces after each block's rows
and between its rows' cells.  The
renormalized quantities are evaluated on the grid of the physical field u: the s = 1
kernels are homogeneous up to a constant, so no contracted y-grid is built.
The planar entropy needs a fixed smooth reference density U0 of equal mass;
only entropy differences are reference-independent, so reported absolute
values are tied to the shipped reference (a C^2 bump pinned to the
equilibrium radius).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .burgers import check_times, mass_transform
from .closed_forms import PatchSpec, patch_mass
from .grids import (
    CartesianGrid,
    DensityField,
    MassFunction,
    RadialGrid,
    lp_norm,
    radial_average,
    second_moment,
    sphere_area,
    support_radius,
    total_mass,
    unit_ball_volume,
    write_csv,
)
from .potentials import _check_equal_mass, _face_strips, _pairing, _potential_view, _support_window

__all__ = [
    "DiagnosticsRecord",
    "equilibrium_radius",
    "asymptotic_error",
    "mollified_reference",
    "entropy_and_dissipation",
    "quantile_radii",
    "wasserstein_radial",
    "wasserstein_continuity_check",
    "ContinuityReport",
    "write_records_csv",
]


@dataclass
class DiagnosticsRecord:
    """One output-time row of conserved/monotone quantities.

    Optional entries are None when the run was configured for basic
    diagnostics, or when n != 2 or s != 1 (they are the planar s = 1
    functionals); the CSV writer leaves those cells empty.
    """

    t: float
    mass: float
    l1_norm: float
    l2_norm: float
    linf_norm: float
    second_moment: float
    support_radius: float
    sup_bound_ratio: float
    energy: float | None = None
    entropy: float | None = None
    dissipation: float | None = None
    w2_to_patch: float | None = None

    COLUMNS = (
        "t", "mass", "l1_norm", "l2_norm", "linf_norm", "energy",
        "second_moment", "support_radius", "entropy", "dissipation",
        "w2_to_patch", "sup_bound_ratio",
    )

    def row(self):
        return [getattr(self, c) for c in self.COLUMNS]


def write_records_csv(records, path) -> None:
    """Fixed column order; None renders as an empty cell."""
    write_csv(path, DiagnosticsRecord.COLUMNS, (rec.row() for rec in records))


def equilibrium_radius(mass: float, n: int) -> float:
    """Radius with omega_n R^n = mass (support of the unit-height limit profile)."""
    if not mass >= 0:
        raise ValueError(f"mass must be >= 0, got {mass}")
    return (mass / unit_ball_volume(n)) ** (1.0 / n)


def _spatial_scale(t: float, n: int) -> float:
    """a = (1+t)^{1/n}, the factor between x and the self-similar variable y = x/a."""
    if t < 0:
        raise ValueError("time must be >= 0")
    return (1.0 + t) ** (1.0 / n)


def asymptotic_error(u: DensityField, t: float, mass: float) -> float:
    """L1 distance of U = (1+t) u to the equal-mass indicator chi_{|y| <= R0},
    as int |u - chi_{|x| <= a R0} / (1+t)| dx on u's grid."""
    if mass <= 0:
        raise ValueError("mass must be positive")
    g = u.grid
    inside = g.radius() <= _spatial_scale(t, g.n) * equilibrium_radius(mass, g.n)
    return g.cell_volume * float(np.abs(u.values - inside / (1.0 + t)).sum())


def _bump(grid: CartesianGrid, mass: float, radius: float | None = None):
    """The C^2 bump (1 - (r/rho)^2)_+^3 normalized to the requested mass, on the box of
    the cells within rho of the origin along every axis, which holds its disk: the
    box's slices and the bump's values on it.

    rho defaults to the equilibrium radius of the mass, capped inside the box;
    the construction is deterministic so entropy values are reproducible.
    """
    if mass <= 0:
        raise ValueError("mass must be positive")
    rho = equilibrium_radius(mass, grid.n) if radius is None else float(radius)
    rho = min(rho, 0.8 * grid.half_width)
    x = grid.axis_centers()
    inside = np.flatnonzero(np.abs(x) < rho)
    if not inside.size:
        raise ValueError("reference bump is unresolved on this grid")
    box = (slice(int(inside[0]), int(inside[-1]) + 1),) * grid.n
    sq = x[box[0]] ** 2
    shape = sq if grid.n == 1 else np.add.outer(sq, sq)
    np.sqrt(shape, out=shape)  # the radius of each cell of the box
    shape /= rho
    np.square(shape, out=shape)
    np.subtract(1.0, shape, out=shape)
    np.maximum(shape, 0.0, out=shape)
    np.power(shape, 3, out=shape)
    raw = grid.cell_volume * shape.sum()
    if raw == 0.0:
        raise ValueError("reference bump is unresolved on this grid")
    shape *= mass / raw
    return box, shape


def mollified_reference(grid: CartesianGrid, mass: float, radius: float | None = None) -> DensityField:
    """C^2 bump (1 - (r/rho)^2)_+^3 normalized to the requested mass (`_bump`), as a
    field of the whole box."""
    box, bump = _bump(grid, mass, radius)
    vals = np.zeros(grid.shape)
    vals[box] = bump
    return DensityField(grid, vals)


def _reference_pairing(grid: CartesianGrid, vals: np.ndarray, mass: float, radius: float | None = None):
    """P(r) = h^n sum r G_h r (`potentials._pairing`) at s = 1 of the bump r of `mass` and
    `radius` (`_bump`), solved on the support window of the cell values `vals` and r
    together: the window of a step from vals whenever r lies in it, so the solve
    reuses that step's kernel table.  Only the bump's box is tabulated, and the one
    window-shaped block is the solve's input."""
    box, bump = _bump(grid, mass, radius)
    window = _support_window(vals, box)
    block = np.zeros(tuple(w.stop - w.start for w in window))
    block[tuple(slice(b.start - w.start, b.stop - w.start) for b, w in zip(box, window))] = bump
    del bump
    return _pairing(grid, block, _potential_view(grid, block, 1.0))


def entropy_and_dissipation(u: DensityField, t: float, mass: float):
    """Planar entropy Ent(U) and dissipation D(U) = int U |V - y/n|^2 dy of the
    renormalized state of u at time t, against the reference bump of `mass`.

    Evaluated on u's grid: on the y-grid the log kernel is the x-grid kernel
    plus ln(a)/2pi, which integrates to zero against the zero-mass difference
    U - U0, and the velocity of U is a v.  The y-grid reference pulls back to
    (1+t) times the bump r of radius a R0, so

        Ent = 1/2 (P(u) - P(r)) + int u |x|^2 dx / (2n(1+t)),
        D   = int u |a v - x/(n a)|^2 dx,

    with P the pairing of `potentials.energy`: P(u) - P(r) is energy(u, 1, r).
    D is summed over the faces between neighbouring cells, with v the face velocities
    xi = -(p[i+1] - p[i]) / h of p = G_h * u that the field step moves u with, and u
    and x averaged to each face.  One solve of p on the support window of u gives both
    P(u) and D, exact up to rounding since both multiply p by u; P(r) is solved on the
    window of u and r (`_reference_pairing`).  `mass` must match the mass of u to 1e-8
    relative.
    """
    ent, dis, _, _ = _entropy_terms(u, t, mass, second_moment(u))
    return ent, dis


def _entropy_terms(u: DensityField, t: float, mass: float, moment: float):
    """(Ent, D, P(u), potential of u) of `entropy_and_dissipation`, all from its one
    solve of G_h u on the support window of u, given the second moment int u |x|^2 dx of
    u.  P(r) and its block come first and are gone before that solve; D takes the faces
    of the potential row block by row block (`potentials._face_strips`) and leaves the
    potential in its table's buffer."""
    g = u.grid
    if g.n != 2:
        raise ValueError("entropy is implemented for the planar case (n = 2)")
    _check_equal_mass(total_mass(u), mass)
    a = _spatial_scale(t, g.n)
    moment = moment / (2.0 * g.n * (1.0 + t))
    reference = _reference_pairing(g, u.values, mass, a * equilibrium_radius(mass, g.n))
    window = _support_window(u.values)
    block = u.values[window]
    p = _potential_view(g, block, 1.0)
    own = _pairing(g, block, p)
    x = g.axis_centers()
    face_x = [0.5 * (xk[:-1] + xk[1:]) / (g.n * a) for xk in (x[w] for w in window)]  # x / (n a)
    width, last = block.shape[1], block.shape[0] - 1
    dis = 0.0
    for start, stop, (xi0, xi1) in _face_strips(g, p):
        r0, r1 = start // width, stop // width
        r = min(r1, last)  # axis 0's faces after the rows, none after the window's last
        for xi, cells, after, fx in (
            (xi0.reshape(-1, width)[1 : r - r0 + 1], block[r0:r], block[r0 + 1 : r + 1], face_x[0][r0:r, None]),
            (xi1[1:].reshape(-1, width)[:, :-1], block[r0:r1, :-1], block[r0:r1, 1:], face_x[1]),
        ):
            w = np.multiply(xi, a)
            w -= fx
            np.square(w, out=w)
            face_u = np.add(cells, after)
            face_u *= 0.5
            w *= face_u
            dis += float(w.sum())
    return 0.5 * (own - reference) + moment, g.cell_volume * dis, own, p


def _matched_patch_w2(u: DensityField, t: float, tau: float, mass: float) -> float:
    """W2 between the radial mass profile of u and the expanding patch of `mass` and
    lifetime offset tau at time t, its mass rescaled to the profile's."""
    grid = u.grid
    rgrid = RadialGrid(grid.n, 0.95 * grid.half_width, max(64, grid.cells // 2))
    m_run = mass_transform(radial_average(u, rgrid))
    spec = PatchSpec(grid.n, radius=equilibrium_radius(mass, grid.n), tau=tau)
    m_patch = MassFunction(rgrid, patch_mass(spec, rgrid.r, t))
    # tiny quadrature mass mismatch between binned field and exact patch: rescale
    scale = m_run.total / m_patch.total
    m_patch = MassFunction(rgrid, scale * m_patch.values)
    return wasserstein_radial(m_run, m_patch)


def _output_record(u: DensityField, t: float, tau: float, mass0: float, full: bool, reference=None):
    """The record of a field run's output u at time t: the basic diagnostics, and with
    `full` (n = 2, s = 1) the energy against the reference bump r of mass0 > 0 and the
    equilibrium radius, the entropy and dissipation, and the W2 distance to the
    matched patch.  For a nonnegative field the L1 norm is its mass, bit for bit.

    The energy is P(u) - P(r) (`potentials.energy`).  `reference` is P(r), which a run
    computes once (`_reference_pairing`); it is solved here when not given.  P(u)
    comes from the entropy's one solve of G_h u on the support window of u, which a
    step from u solves first.  Returns the record and, with `full`, the potential of
    that solve, a view of its table's buffer, so the next step takes it instead of
    solving again while no other solve has overwritten it (None without `full`)."""
    peak = float(u.values.max())
    mass = total_mass(u)
    rec = DiagnosticsRecord(
        t=t,
        mass=mass,
        l1_norm=mass,
        l2_norm=lp_norm(u, 2),
        linf_norm=peak,
        second_moment=second_moment(u),
        support_radius=support_radius(u),
        sup_bound_ratio=peak * (t + tau),
    )
    if not full:
        return rec, None
    rec.w2_to_patch = _matched_patch_w2(u, t, tau, mass0)
    if reference is None:
        reference = _reference_pairing(u.grid, u.values, mass0)
    rec.entropy, rec.dissipation, own, p = _entropy_terms(u, t, mass0, rec.second_moment)
    rec.energy = own - reference
    return rec, p


# ---------------------------------------------------------------------------
# radial Wasserstein distances via the quantile formula


def quantile_radii(m: MassFunction, masses) -> np.ndarray:
    """Generalized inverse of the full mass profile F(r) = |S^{n-1}| M(r):
    Q(q) = inf{ r : F(r) >= q }, linear in sigma between nodes."""
    f = sphere_area(m.grid.n) * m.values
    q = np.asarray(masses, dtype=float)
    idx = np.clip(np.searchsorted(f, q, side="left"), 1, len(f) - 1)
    f0, f1 = f[idx - 1], f[idx]
    s0, s1 = m.grid.sigma[idx - 1], m.grid.sigma[idx]
    gap = f1 - f0
    with np.errstate(invalid="ignore"):
        w = np.where(gap > 0, (q - f0) / np.where(gap > 0, gap, 1.0), 1.0)
    sigma = s0 + np.clip(w, 0.0, 1.0) * (s1 - s0)
    sigma = np.where(q <= f[0], m.grid.sigma[0], sigma)
    return (m.grid.n * sigma) ** (1.0 / m.grid.n)


N_QUAD = 4096  # midpoint nodes in the mass variable, shared by every W2 evaluation


def wasserstein_radial(m1: MassFunction, m2: MassFunction) -> float:
    """W2 between equal-mass radial measures about a common center, computed
    through the monotone (quantile) coupling:

        W_2^2 = int_0^{M_tot} |Q_1(q) - Q_2(q)|^2 dq

    by midpoint quadrature on N_QUAD nodes in the mass variable.  Every call
    uses the same nodes, so the triangle inequality holds exactly in the
    discrete values (Minkowski), and the quantity is a metric up to quadrature
    error.
    """
    if m1.grid.n != m2.grid.n:
        raise ValueError("mass functions must share a dimension")
    f1 = m1.full_mass()
    f2 = m2.full_mass()
    if abs(f1 - f2) > 1e-8 * max(f1, 1e-300):
        raise ValueError(f"total masses differ: {f1:.12g} vs {f2:.12g}")
    total = 0.5 * (f1 + f2)
    if total == 0.0:
        return 0.0
    q = (np.arange(N_QUAD) + 0.5) * (total / N_QUAD)
    r1 = quantile_radii(m1, q)
    r2 = quantile_radii(m2, q)
    return float(((r1 - r2) ** 2).sum() * (total / N_QUAD)) ** 0.5


@dataclass
class ContinuityReport:
    """Checks W_2(u(t_k), u(t_{k+1})) <= C (t_{k+1}^{1/n} - t_k^{1/n}) pairwise."""

    times: list
    distances: np.ndarray
    bounds: np.ndarray
    constant: float

    @property
    def passed(self) -> bool:
        return bool(np.all(self.distances <= self.bounds))

    @property
    def max_ratio(self) -> float:
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(self.bounds > 0, self.distances / self.bounds, 0.0)
        return float(r.max())


def wasserstein_continuity_check(trajectory, constant: float) -> ContinuityReport:
    """Apply the time-modulus check to a list of (t, MassFunction) snapshots.

    `constant` is the modulus constant, such as `scenarios.w2_continuity_constant`:
    the expanding-patch family gives the exact modulus shape and coefficient, so
    with a safety factor the check is meaningful for any radial trajectory of
    this flow.
    """
    times = check_times([t for t, _ in trajectory], 2, "snapshot times")
    n = trajectory[0][1].grid.n
    dists, bounds = [], []
    for (t1, m1), (t2, m2) in zip(trajectory[:-1], trajectory[1:]):
        dists.append(wasserstein_radial(m1, m2))
        bounds.append(constant * (t2 ** (1.0 / n) - t1 ** (1.0 / n)))
    return ContinuityReport(times, np.array(dists), np.array(bounds), constant)

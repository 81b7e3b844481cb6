"""Radial solvers built on the mass-function formulation.

For radial nonnegative solutions the cumulative mass M(r,t) = int_0^r s^{n-1} u ds
obeys M_t + M M_sigma = 0 after sigma = r^n / n.  M is nondecreasing in sigma
and the wave speed M is nonnegative, so characteristics spread and no shocks
form: the characteristic construction is exact and serves as the oracle for
the finite-volume path.  Jumps in the initial mass function (point masses)
open rarefaction fans that are resolved analytically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import ConfigError, MassFunction, RadialGrid, RadialProfile, _row_tails, _write_csv_lines

__all__ = [
    "CFLError",
    "CharacteristicSolution",
    "dirac_solution",
    "mass_transform",
    "density_from_mass",
    "evolve_characteristics",
    "evolve_to_mass_function",
    "interfaces_at",
    "step_finite_volume",
    "check_reach",
    "check_times",
    "run_finite_volume",
    "radial_speed_values",
    "check_monotone_inequalities",
    "MonotoneReport",
    "write_radial_trajectory_csv",
]

FV_CFL = 0.9  # the CFL number dt max(M) / dsigma of run_finite_volume's steps
TIME_TOL = 1e-12  # a run reaches a time t once within TIME_TOL * t of it, relative


class CFLError(RuntimeError):
    """Raised when a requested time step violates the stability bound."""


@dataclass(frozen=True, eq=False)
class CharacteristicSolution:
    """Monotone piecewise-linear initial mass data in sigma; repeated sigma knots
    encode jumps (point masses)."""

    n: int
    sigma_knots: np.ndarray
    mass_knots: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigma_knots, dtype=float)
        m = np.asarray(self.mass_knots, dtype=float)
        if s.ndim != 1 or s.shape != m.shape or s.size < 2:
            raise ValueError("need matching 1-d knot arrays with at least two knots")
        if np.min(np.diff(s)) < 0 or s[0] < 0:
            raise ValueError("sigma knots must be nondecreasing from >= 0")
        scale = 1.0 + abs(float(m[-1]))
        if np.min(np.diff(m)) < -1e-12 * scale:
            raise ValueError("mass knots must be nondecreasing")
        if m[0] < -1e-12 * scale:
            raise ValueError("initial mass must be nonnegative")
        s.flags.writeable = False
        m.flags.writeable = False
        object.__setattr__(self, "sigma_knots", s)
        object.__setattr__(self, "mass_knots", m)

    @property
    def total(self) -> float:
        return float(self.mass_knots[-1])


def dirac_solution(total: float, n: int, sigma_max: float) -> CharacteristicSolution:
    """Point mass at the origin: M0 jumps from 0 to `total` at sigma = 0."""
    return CharacteristicSolution(
        n, np.array([0.0, 0.0, sigma_max]), np.array([0.0, total, total])
    )


def _interp_upper(xq, xp, fp):
    """Piecewise-linear interpolation that takes the upper branch at repeated xp."""
    xq = np.asarray(xq, dtype=float)
    idx = np.searchsorted(xp, xq, side="right")
    idx = np.clip(idx, 1, len(xp) - 1)
    x0, x1 = xp[idx - 1], xp[idx]
    f0, f1 = fp[idx - 1], fp[idx]
    gap = x1 - x0
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.where(gap > 0, (xq - x0) / np.where(gap > 0, gap, 1.0), 1.0)
    out = f0 + np.clip(w, 0.0, 1.0) * (f1 - f0)
    out = np.where(xq <= xp[0], fp[0], out)
    out = np.where(xq >= xp[-1], fp[-1], out)
    return out


def evolve_characteristics(sol: CharacteristicSolution, t: float, sigma):
    """Exact mass values at time t >= 0 for query coordinates sigma.

    Each knot (sigma_i, M_i) is transported to sigma_i + t*M_i; because M0 is
    nondecreasing the transported knots stay sorted and the solution is their
    piecewise-linear interpolant.  A jump knot pair separates into the exact
    rarefaction fan of slope 1/t.
    """
    if t < 0:
        raise ValueError("time must be >= 0")
    moved = sol.sigma_knots + t * sol.mass_knots
    return _interp_upper(sigma, moved, sol.mass_knots)


def evolve_characteristics_bisection(sol: CharacteristicSolution, t: float, sigma: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Scalar reference path: solve sigma = sigma0 + t*M0(sigma0) for the foot point
    by bisection (the left side is strictly increasing), then read off M0; when
    the query falls in the range gap of a jump, return the fan value
    (sigma - sigma*)/t clamped to the jump's mass range."""
    if t < 0:
        raise ValueError("time must be >= 0")
    m0 = lambda s: float(_interp_upper(s, sol.sigma_knots, sol.mass_knots))
    if t == 0.0:
        return m0(sigma)
    lo, hi = 0.0, max(float(sigma), float(sol.sigma_knots[-1]))
    if lo + t * m0(lo) >= sigma:
        return m0(lo) if lo + t * m0(lo) <= sigma + tol else max(0.0, min((sigma - lo) / t, m0(lo)))
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid + t * m0(mid) <= sigma:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    else:
        raise RuntimeError("bisection failed to converge; monotone data corrupt?")
    foot = lo
    if abs(foot + t * m0(foot) - sigma) <= 10 * tol * (1.0 + abs(sigma)):
        return m0(foot)
    # inside the fan of a jump at sigma* ~ foot
    lower = float(_interp_upper(foot - tol, sol.sigma_knots, sol.mass_knots))
    upper = m0(foot + tol)
    return float(np.clip((sigma - foot) / t, lower, upper))


def evolve_to_mass_function(sol: CharacteristicSolution, t: float, rgrid: RadialGrid) -> MassFunction:
    vals = evolve_characteristics(sol, t, rgrid.sigma)
    vals = np.maximum.accumulate(np.maximum(vals, 0.0))
    vals[0] = 0.0 if sol.mass_knots[0] == 0.0 else vals[0]
    return MassFunction(rgrid, vals)


def interfaces_at(sol: CharacteristicSolution, t: float) -> np.ndarray:
    """Radial positions of the transported knots (kinks/interfaces of the solution)."""
    moved = sol.sigma_knots + t * sol.mass_knots
    return (sol.n * moved) ** (1.0 / sol.n)


# ---------------------------------------------------------------------------
# density <-> mass transforms


def mass_transform(u: RadialProfile) -> MassFunction:
    """Trapezoidal accumulation of u dsigma (dsigma = r^{n-1} dr collapses the weight)."""
    sigma = u.grid.sigma
    increments = 0.5 * (u.values[1:] + u.values[:-1]) * np.diff(sigma)
    vals = np.concatenate([[0.0], np.cumsum(increments)])
    return MassFunction(u.grid, vals)


def density_from_mass(m: MassFunction) -> RadialProfile:
    """Centered-difference derivative dM/dsigma (one-sided at the ends), clipped at 0."""
    vals = np.gradient(m.values, m.grid.sigma)
    return RadialProfile(m.grid, np.maximum(vals, 0.0))


def radial_speed_values(m: MassFunction) -> np.ndarray:
    """Transport speed v(r) = M / r^{n-1}; v(0) = 0 by the M ~ u(0) r^n/n limit."""
    r = m.grid.r
    out = np.zeros_like(m.values)
    out[1:] = m.values[1:] / r[1:] ** (m.grid.n - 1)
    return out


# ---------------------------------------------------------------------------
# Godunov finite volume for M_t + (M^2/2)_sigma = 0


def step_finite_volume(m: MassFunction, dt: float) -> MassFunction:
    """One Godunov step; M >= 0 means the flux upwinds from the left.

    Requires dt * max(M) / dsigma <= 1, under which monotone data stays monotone;
    the result's MassFunction rejects a step that is not.
    """
    d_sigma = m.grid.d_sigma
    vmax = float(m.values.max())
    if dt <= 0:
        raise ValueError("dt must be positive")
    if vmax > 0 and dt * vmax / d_sigma > 1.0 + 1e-12:
        raise CFLError(
            f"dt={dt:.3e} violates dt*max(M)/dsigma <= 1 (got {dt * vmax / d_sigma:.3f})"
        )
    flux = 0.5 * m.values**2
    new = m.values.copy()
    new[1:] -= (dt / d_sigma) * (flux[1:] - flux[:-1])
    new[0] -= (dt / d_sigma) * flux[0]  # nothing enters from sigma < 0
    return MassFunction(m.grid, new)


def check_reach(sigma, mass, t_end: float) -> None:
    """Admit nondecreasing mass data M(sigma) on [0, sigma[-1]] for a run to t_end.  A
    characteristic moves at the speed M <= M_total, so no mass leaves through sigma[-1]
    while sigma_q + t_end M_total <= sigma[-1], sigma_q the first node where M reaches
    (1 - 1e-12) M_total."""
    total = float(mass[-1])
    reach = float(sigma[np.argmax(mass >= (1.0 - 1e-12) * total)]) + t_end * total
    if reach > sigma[-1]:
        raise ValueError(
            f"mass leaves the radial grid by t={t_end:.6g}: characteristics reach "
            f"sigma = {reach:.4g}, beyond its end sigma_max = {sigma[-1]:.4g}"
        )


def check_times(times, least: int, name: str) -> list:
    """`times` as floats, once they hold at least `least` positive times, each more than
    TIME_TOL past the one before (b - a > TIME_TOL b, false at NaN and inf): the rule of
    every time list, field and radial, which sorts none."""
    times = [float(t) for t in times]
    if len(times) < least or not all(b - a > TIME_TOL * b for a, b in zip([0.0] + times, times)):
        raise ConfigError(f"{name} must hold at least {least} positive, strictly increasing times, "
                          f"finite and none repeated to {TIME_TOL:g} relative")
    return times


def run_finite_volume(m0: MassFunction, times):
    """Advance from t=0 at CFL number FV_CFL and record snapshots at the requested
    times (`check_times`), each reached once t is within TIME_TOL of it, relative.

    Returns a list of (t, MassFunction) pairs starting with (0, m0).
    """
    times = check_times(times, 1, "snapshot times")
    out = [(0.0, m0)]
    t, m = 0.0, m0
    d_sigma = m0.grid.d_sigma
    for target in times:
        while t < target - TIME_TOL * target:
            vmax = float(m.values.max())
            dt = FV_CFL * d_sigma / vmax if vmax > 0 else target - t
            dt = min(dt, target - t)
            m = step_finite_volume(m, dt)
            t += dt
        out.append((target, m))
    return out


# ---------------------------------------------------------------------------
# pointwise rate inequalities as runtime checks


@dataclass
class MonotoneReport:
    """Outcome of the two pointwise rate checks over a trajectory.

    For consecutive snapshots the discrete rate (M2 - M1)/(t2 - t1) must be
    <= tol (mass at fixed radius never increases) and >= -M1/t2 - tol; the
    second convention is the one an exact 1/t-decaying solution saturates in
    floating point.
    """

    times: list
    upper_excess: np.ndarray   # max over nodes of rate (violation if > tol)
    lower_deficit: np.ndarray  # max over nodes of (-M1/t2 - rate) (violation if > tol)
    saturation_gap: np.ndarray  # max over nodes of |rate + M1/t2|
    tol: float

    @property
    def passed(self) -> bool:
        return bool(np.all(self.upper_excess <= self.tol) and np.all(self.lower_deficit <= self.tol))


def check_monotone_inequalities(trajectory, tol: float = 1e-3) -> MonotoneReport:
    """Apply the rate checks to a list of (t, MassFunction) pairs with t > 0 increasing."""
    times = check_times([t for t, _ in trajectory], 2, "snapshot times")
    upper, lower, sat = [], [], []
    for (t1, m1), (t2, m2) in zip(trajectory[:-1], trajectory[1:]):
        rate = (m2.values - m1.values) / (t2 - t1)
        bound = -m1.values / t2
        upper.append(float(rate.max()))
        lower.append(float((bound - rate).max()))
        sat.append(float(np.abs(rate - bound).max()))
    return MonotoneReport(times, np.array(upper), np.array(lower), np.array(sat), tol)


def write_radial_trajectory_csv(trajectory, path) -> None:
    """Rows (t, sigma, r, M, u, v) for every snapshot and node.

    A snapshot is one line of grids._write_csv_lines: its t is formatted once,
    and the (sigma, r) text of each radial grid once for all its snapshots.
    """
    tails = {}

    def lines():
        for t, m in trajectory:
            if m.grid not in tails:
                tails[m.grid] = _row_tails([m.grid.sigma, m.grid.r], 3)
            yield "%.17g," % t, tails[m.grid], [m.values, density_from_mass(m).values, radial_speed_values(m)]

    _write_csv_lines(path, ["t", "sigma", "r", "M", "u", "v"], lines())

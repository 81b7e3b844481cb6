"""Explicit time integration of u_t = div(u grad p), p = (-Lap)^{-s} u, on
Cartesian grids.

The one scheme is the finite-volume method of Carrillo, Chertock and Huang
(Commun. Comput. Phys. 17, 2015): each stage computes one potential p = G_h * u
and takes the face velocities as its exact discrete gradient xi = -(p_{i+1} - p_i)/h;
the flux is upwind transport of a monotonized-central (MC) limited reconstruction.
It is advanced with the low-storage SSPRK(m, 2) method, m = STAGES (Spiteri and
Ruuth, SINUM 2002; Ketcheson, SISC 2008): m forward-Euler stages of dt/(m - 1), then
u^{n+1} = u^n/m + (m - 1)/m u^(m).  Its SSP coefficient is m - 1, so a step of m
potential solves advances m - 1 forward-Euler CFL steps, where the two-stage method
advances one per two solves.  G_h is symmetric, so by summation by parts E_h =
1/2 h^n sum u p decays at the semi-discrete rate -h^n sum_faces (xi+^2 u_L + xi-^2 u_R)
<= 0.  `run` steps at m - 1 times cfl * h over the largest cell speed (the sum over
axes of the faster of the cell's two faces), clamped to the next output time, so
each stage runs at CFL number cfl.  Each later stage checks its own faces' bound, and
a step with a stage over it by more than rounding is redone at the smaller bound, so
the SSP argument of Gottlieb, Shu and Tadmor (2001) holds stage by stage;
`Trajectory.stage_redos` counts the redos.  At each output time `run` takes the record of
`diagnostics._output_record` and hands that output's field to an optional
`at_output(t, u)` hook, keeping only the last field.
Fluxes through the outer box faces are zero, so total mass telescopes exactly;
the box must be sized so the support never reaches the boundary.  Before a run
starts, `check_initial_data` admits only initial data with positive mass and a
box that holds the support growth bound.  Negative values produced by rounding
are clipped at zero and the clipped mass is accumulated in a ledger.

Each step works on the support window W of `potentials._support_window`: the
bounding box of u > 0 plus a WINDOW_HALO-cell halo per side, each side rounded
up to a multiple of WINDOW_QUANTUM cells and kept inside the box.  The potential
of u[W], the CFL maxima, all STAGES stages and the clip are computed on W and
written into a zero array of the box.  This is the whole-box step, not an approximation of
it: each stage moves density at most one cell, so the WINDOW_HALO = STAGES halo cells
and their MC slopes stay zero and no flux crosses a face of W; the potential of u[W]
is the whole-box convolution restricted to W up to FFT rounding, since u
vanishes outside W; and outside supp u the velocity never enters the update.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import isfinite

import numpy as np

from .burgers import TIME_TOL, check_times
from .diagnostics import _output_record
from .grids import CartesianGrid, ConfigError, DensityField, sphere_area, support_radius, total_mass
from .potentials import _check_exponent, _cut, _face_velocities, _sides, _support_window

__all__ = [
    "ConfigError",
    "NumericalError",
    "SolverConfig",
    "Trajectory",
    "SweepReport",
    "run",
    "sweep_s",
    "required_half_width",
]

BOUND_SLACK = 0.05  # warn when max u * (t + 1/max u0) exceeds 1 + this
BOX_MARGIN = 0.9  # the support growth bound must stay inside this share of the half-width
STAGE_SLACK = 1e-12  # a stage whose CFL limit is below dt by this share or less (rounding) passes
STAGES = 4  # forward-Euler stages of one SSPRK(STAGES, 2) step; potentials.WINDOW_HALO equals it
STRIP_CELLS = 16384  # _advance sweeps a block in strips of about this many cells


class NumericalError(RuntimeError):
    """Non-finite values appeared during time stepping."""


@dataclass(frozen=True)
class SolverConfig:
    """Numerical parameters of a run.

    output_times follow `burgers.check_times` (increasing, not sorted for you, one record
    each), and the last of them is the horizon `t_end`; s follows
    `potentials._check_exponent`.  The scheme (MC-limited transport, SSPRK(STAGES, 2)
    stepping, no added diffusion) is second order away from extrema and keeps cell
    values within local bounds for cfl <= 0.5.  cfl is the CFL number of one stage, and
    a step spans STAGES - 1 stages' worth of time.
    """

    output_times: tuple
    s: float = 1.0
    cfl: float = 0.45
    diagnostics: str = "basic"  # or "full"

    def __post_init__(self):
        object.__setattr__(self, "output_times", tuple(check_times(self.output_times, 1, "output_times")))
        _check_exponent(self.s)
        if not 0.0 < self.cfl <= 1.0:
            raise ConfigError("cfl must lie in (0, 1]")
        if self.diagnostics not in ("basic", "full"):
            raise ConfigError("diagnostics must be 'basic' or 'full'")

    @property
    def t_end(self) -> float:
        """The horizon of the run: its last output time."""
        return self.output_times[-1]


@dataclass
class Trajectory:
    """The diagnostics rows of t=0 and the configured output times, each with its t,
    the field at the last of them, and run bookkeeping.  `run` hands each output's
    field to its `at_output` hook and keeps only the last one."""

    records: list
    config: SolverConfig
    last: DensityField
    warnings: list = field(default_factory=list)
    clipped_mass: float = 0.0
    stage_redos: int = 0
    steps: int = 0
    wall_time: float = 0.0

    def mass_drift(self) -> float:
        m0 = self.records[0].mass
        return max(abs(rec.mass - m0) for rec in self.records) / m0

    def max_bound_ratio(self) -> float:
        return max(r.sup_bound_ratio for r in self.records)

    def summary(self) -> dict:
        return {
            "t_end": self.config.t_end,
            "s": self.config.s,
            "cfl": self.config.cfl,
            "steps": self.steps,
            "wall_time_s": round(self.wall_time, 3),
            "mass_drift_relative": self.mass_drift(),
            "clipped_mass": self.clipped_mass,
            "stage_redos": self.stage_redos,
            "max_sup_bound_ratio": self.max_bound_ratio(),
            "warnings": list(self.warnings),
        }


def required_half_width(u0: DensityField, t_end: float) -> float:
    """Half-width needed so the support growth bound stays inside BOX_MARGIN * L.

    Two valid sizing rules apply and the smaller wins: the bounded-data bound
    R0 (1 + ||u0||_inf T)^{1/n} and the measure-data bound R0 + (n M_rad T)^{1/n}
    (M_rad the radial mass per unit sphere).  Single-cell approximations of
    point masses make the first bound meaningless, hence the second.
    """
    n = u0.grid.n
    r0 = support_radius(u0)
    peak = float(u0.values.max())
    m_rad = total_mass(u0) / sphere_area(n)
    bounded = r0 * (1.0 + peak * t_end) ** (1.0 / n)
    measure = r0 + (n * m_rad * t_end) ** (1.0 / n)
    return min(bounded, measure) / BOX_MARGIN


def check_initial_data(u0: DensityField, t_end: float) -> None:
    """Admit u0 for a run to t_end: it must put positive mass on the grid, and its box
    must hold the support growth bound of `required_half_width`."""
    if not total_mass(u0) > 0.0:
        raise ConfigError("initial data must put positive mass on the grid")
    need = required_half_width(u0, t_end)
    if need > u0.grid.half_width:
        raise ConfigError(
            f"box too small for horizon T={t_end}: the support growth bound "
            f"needs half-width >= {need:.4g}, grid has {u0.grid.half_width:.4g}"
        )


# ---------------------------------------------------------------------------
# the explicit update


@lru_cache(maxsize=64)
def _strips(shape: tuple, axis: int, strip_cells: int) -> tuple:
    """Index tuples of strips of a block of `shape`, each about `strip_cells` cells of
    whole lines along `axis`, so a sweep along `axis` can run one strip at a time.
    Callers pass STRIP_CELLS, so the cache is keyed on its current value."""
    if len(shape) == 1:
        return ((slice(None),),)
    other = 1 - axis
    width = max(1, strip_cells // shape[axis])
    return tuple(_cut(2, other, start, start + width) for start in range(0, shape[other], width))


def _stable_dt(grid: CartesianGrid, faces, cfl: float, out=None) -> float:
    """cfl * h over the largest cell speed, the sum over axes of the faster of the
    cell's two faces along that axis (a zero face past each end of the block).  The
    speeds are summed strip by strip, so the only block-sized array is their sum,
    which is written into `out` (a block of the cells' shape) when it is given."""
    ndim = faces[0].ndim
    speed = np.empty((faces[0].shape[0] + 1, *faces[0].shape[1:])) if out is None else out
    speed.fill(0.0)
    for axis, xi in enumerate(faces):
        if not xi.shape[axis]:
            continue  # one cell along this axis, so no face
        lo, hi, first, last = _sides(ndim, axis)
        inner = _cut(ndim, axis, 1, -1)
        for strip in _strips(speed.shape, axis, STRIP_CELLS):
            mag, cell = np.abs(xi[strip]), speed[strip]
            cell[first] += mag[first]
            cell[last] += mag[last]
            cell[inner] += np.maximum(mag[lo], mag[hi])
    top = float(speed.max())
    return cfl * (grid.h / top) if top > 0 else np.inf


def _sweep(vals: np.ndarray, face: np.ndarray, new: np.ndarray, axis: int, rate: float) -> None:
    """Move rate times the upwind flux through each face of `face` (along `axis`) from
    the cell before it to the cell after it, in `new`.  The face values are the
    monotonized-central (MC) limited reconstruction of `vals`: its half slopes are
    written straight into the two face buffers, and the end cells' slopes are zero.

    The MC half slope sign(cen) min(|cen|, 2 min(|dm|, |dp|)) / 2, cen = (dm + dp) / 2,
    is taken as copysign(min(|dm + dp| / 4, min(|dm|, |dp|)), dm + dp): the halvings and
    the doubling fold into one quartering, bit for bit, since rounding commutes with the
    min and two halvings round as one quartering does, subnormals included."""
    lo, hi, first, last = _sides(vals.ndim, axis)
    left, right = np.empty(face.shape), np.empty(face.shape)
    half = left[hi]  # the half slope of the interior cells, as seen from their right face
    diff = np.subtract(vals[hi], vals[lo])  # diff[i] = vals[i+1] - vals[i]
    dm, dp = diff[lo], diff[hi]
    total = np.add(dm, dp, out=right[lo])  # free until the right faces take the slopes
    mag = np.abs(diff)
    np.minimum(mag[lo], mag[hi], out=half)
    quarter = np.abs(total, out=mag[lo])
    quarter *= 0.25
    np.copysign(np.minimum(quarter, half, out=half), total, out=half)
    # zero unless dm * dp > 0, by a where and not a multiply by the mask: 0 * inf and
    # 0 * NaN are NaN, and 0 times a negative slope is -0
    flat = np.multiply(dm, dp, out=mag[lo]) > 0
    np.copyto(half, 0.0, where=np.logical_not(flat, out=flat))
    right[lo] = half
    left[first] = 0.0
    right[last] = 0.0
    np.add(vals[lo], left, out=left)
    np.subtract(vals[hi], right, out=right)
    flux = np.maximum(face, 0.0, out=diff)
    flux *= left
    np.minimum(face, 0.0, out=left)
    left *= right
    flux += left
    flux *= rate
    new[lo] -= flux
    new[hi] += flux


def _advance(grid: CartesianGrid, vals: np.ndarray, faces, dt: float, out=None) -> np.ndarray:
    """vals after one upwind step of size dt on the face velocities `faces`, written
    into `out` (a block of vals' shape, not vals itself) when it is given.  Each axis
    is swept in strips of about STRIP_CELLS cells across the other axis, so the sweep's
    temporaries stay small; a strip holds whole lines along the swept axis, so the
    result is that of one sweep of the whole block, bit for bit."""
    rate = dt / grid.h
    if out is None:
        out = vals.copy()
    else:
        np.copyto(out, vals)
    for axis in range(grid.n):
        for strip in _strips(vals.shape, axis, STRIP_CELLS):
            _sweep(vals[strip], faces[axis][strip], out[strip], axis, rate)
    return out


def _ssp_update(grid: CartesianGrid, vals: np.ndarray, max_dt: float, cfg: SolverConfig):
    """One SSPRK(STAGES, 2) step of at most max_dt on the block `vals`.  Returns (dt,
    the new values, the mass clipped from them, the number of redos).

    The step is STAGES forward-Euler stages of dt / (STAGES - 1), each on the face
    velocities of its own input, then u^n / STAGES + (STAGES - 1) / STAGES times the
    last stage.  dt is STAGES - 1 times the CFL bound of u^n's faces, clamped to
    max_dt.  Each later stage's faces set a limit on dt the same way; when dt is over
    it by more than rounding (STAGE_SLACK, relative), the step is redone from u^n at
    that limit, so every stage is a forward-Euler step inside its own CFL bound.  dt
    falls at each redo, and a stage whose limit comes out the same on the redo passes.

    The stages take turns in two block registers: the free one takes the positive
    part of the current stage, from which its face velocities are solved, then its
    cell speeds, then its update.  Only a negative value of the result triggers a
    clip."""
    redos = 0
    while True:
        faces = _face_velocities(grid, vals, cfg.s)
        dt = min((STAGES - 1) * _stable_dt(grid, faces, cfg.cfl), max_dt)
        if not dt > 0:
            raise NumericalError("time step collapsed to zero")
        stage_dt = dt / (STAGES - 1)
        stage, spare = _advance(grid, vals, faces, stage_dt), np.empty_like(vals)
        for _ in range(STAGES - 1):
            faces = _face_velocities(grid, np.maximum(stage, 0.0, out=spare), cfg.s, out=faces)
            limit = (STAGES - 1) * _stable_dt(grid, faces, cfg.cfl, out=spare)
            if dt > limit * (1.0 + STAGE_SLACK):
                break
            stage, spare = _advance(grid, stage, faces, stage_dt, out=spare), stage
        else:
            break
        redos += 1
        max_dt = limit
    stage *= (STAGES - 1) / STAGES  # 3/4 and 1/4 at four stages: exact in binary
    stage += np.multiply(vals, 1.0 / STAGES, out=spare)
    low, high = float(stage.min()), float(stage.max())  # a NaN anywhere is the min and the max
    if not (isfinite(low) and isfinite(high)):
        raise NumericalError("non-finite values after an explicit step")
    if low >= 0.0:
        return dt, stage, 0.0, redos
    clipped = -grid.cell_volume * float(stage[stage < 0.0].sum())
    return dt, np.maximum(stage, 0.0, out=stage), clipped, redos


def _step(grid: CartesianGrid, vals: np.ndarray, max_dt: float, cfg: SolverConfig):
    """One SSP step of at most max_dt, computed on the support window of `vals` and
    written into a fresh zero array of the box.  Returns (dt, values, clipped mass,
    redos) as `_ssp_update` does."""
    window = _support_window(vals)
    dt, block, clipped, redos = _ssp_update(grid, vals[window], max_dt, cfg)
    if block.shape != grid.shape:  # a window that fills the box is already the box array
        new = np.zeros(grid.shape)
        new[window] = block
        block = new
    return dt, block, clipped, redos


def run(cfg: SolverConfig, u0: DensityField, at_output=None) -> Trajectory:
    """Advance u0 to t_end with adaptive time steps, recording diagnostics at the
    configured output times.  The sup-norm decay monitor max u * (t + 1/max u0) is a
    warning channel, not an assertion.

    `at_output(t, u)`, when given, is called with the field at t = 0 and at each
    output time, after that output's record.  The trajectory keeps only the last
    field, so a run's memory does not grow with its number of outputs; a caller that
    wants the others keeps them from the hook:

        fields = []
        traj = run(cfg, u0, at_output=lambda t, u: fields.append(u))
    """
    grid = u0.grid
    check_initial_data(u0, cfg.t_end)
    tau = 1.0 / float(u0.values.max())
    mass0 = total_mass(u0)
    full = cfg.diagnostics == "full" and grid.n == 2 and cfg.s == 1.0

    t0 = _time.perf_counter()
    traj = Trajectory([_output_record(u0, 0.0, tau, mass0, full)], cfg, u0)
    if at_output is not None:
        at_output(0.0, u0)
    t, vals = 0.0, u0.values
    for target in cfg.output_times:
        while t < target - TIME_TOL * target:
            dt, vals, clipped, redos = _step(grid, vals, target - t, cfg)
            traj.clipped_mass += clipped
            traj.stage_redos += redos
            t += dt
            traj.steps += 1
        u = DensityField(grid, vals)
        rec = _output_record(u, t, tau, mass0, full)
        if rec.sup_bound_ratio > 1.0 + BOUND_SLACK:
            traj.warnings.append(f"sup bound ratio {rec.sup_bound_ratio:.4f} at t={t:.6g}")
        traj.records.append(rec)
        if at_output is not None:
            at_output(t, u)
        del u  # a field copies its values, and the steps to the next output need only `vals`
    traj.last = DensityField(grid, vals)
    traj.wall_time = _time.perf_counter() - t0
    return traj


# ---------------------------------------------------------------------------
# exponent sweep


@dataclass
class SweepReport:
    s_values: list
    distances: list  # L1 distance of each final state to the s=1 final state
    errors: dict

    @property
    def partial(self) -> bool:
        return bool(self.errors)

    @property
    def nonincreasing(self) -> bool:
        ok = [d for d in self.distances if d is not None]
        return all(b <= a * (1 + 1e-9) + 1e-12 for a, b in zip(ok, ok[1:]))


def sweep_exponents(s_values) -> list:
    """A sweep's exponents in increasing order, none repeated; the s = 1 member is the reference."""
    s_values = sorted(float(s) for s in s_values)
    if 1.0 not in s_values:
        raise ConfigError("the sweep must include s = 1")
    if len(set(s_values)) < len(s_values):
        raise ConfigError("s_values must hold distinct exponents, none repeated")
    return s_values


def sweep_s(cfg: SolverConfig, u0: DensityField, s_values) -> SweepReport:
    """Run identical initial data for each exponent, in increasing order, with the
    same inviscid scheme and report L1 distances of the final states to the s=1
    member, expected to be nonincreasing as s increases toward 1.  A member that
    raises is recorded in `errors` with distance None; the others still run."""
    s_values = sweep_exponents(s_values)
    results, errors = {}, {}
    for s in s_values:
        try:
            results[s] = run(replace(cfg, s=s), u0)
        except Exception as exc:
            errors[s] = repr(exc)
    distances = []
    ref = results.get(1.0)
    for s in s_values:
        if s in results and ref is not None:
            diff = np.abs(results[s].last.values - ref.last.values)
            distances.append(u0.grid.cell_volume * float(diff.sum()))
        else:
            distances.append(None)
    return SweepReport(s_values, distances, errors)

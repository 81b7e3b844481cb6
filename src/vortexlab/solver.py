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
each stage runs at CFL number cfl.  Each later stage takes its own faces' bound in the
sweep of its transport, and a step with a stage over it by more than rounding is
thrown away and redone at the smaller bound, so
the SSP argument of Gottlieb, Shu and Tadmor (2001) holds stage by stage;
`Trajectory.stage_redos` counts the redos.  At each output time `run` takes the record of
`diagnostics._output_record` and hands that output's field to an optional
`at_output(t, u)` hook, keeping only the last field.  A full-diagnostics record
solves its output's potential once, on the window the next step solves it on, and
that step takes the solve for its first stage unless a solve in between, such as an
`at_output` hook's, has overwritten it; with P(r) of the
energy's reference bump solved once per run and one solve per record for the
entropy's bump, a full run makes STAGES * steps + records + 2 solves.
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

The step runs on contiguous memory and stores no face array.  The block of W is
C-contiguous, and the transport (`_advance`) and the CFL bound (`_stable_dt`) run in the
row blocks of `potentials._row_blocks`, as a record's dissipation does, each taking its
faces from the solved potential into strip buffers (`potentials._face_strips`).  So
each of their
operations, like the stage register updates, is a 1-D one over contiguous cells at the
flat offset of the swept axis's stride.  Each cell sees the operations of one sweep per
axis over the whole block, in the same order, so the step is that sweep's, bit for bit.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace
from math import isfinite

import numpy as np

from .burgers import TIME_TOL, check_times
from .diagnostics import _output_record, _reference_pairing
from .grids import CartesianGrid, ConfigError, DensityField, _field_view, sphere_area, support_radius, total_mass
from .potentials import _check_exponent, _face_strips, _is_latest_solve, _potential_view, _support_window

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


def _cell_speeds(faces, cells: int) -> np.ndarray:
    """The speed of each of the `cells` cells of a row block, from its face strips
    (`potentials._face_strips`): the sum over axes of the faster of the cell's two faces
    along that axis, entries c - d and c of the axis's strip.  The strips are overwritten
    with their absolute values."""
    speed = None
    for xi in faces:
        d = xi.size - cells  # the strip starts d cells, one stride, before the block
        mag = np.abs(xi, out=xi)
        along = np.maximum(mag[:-d], mag[d:])
        speed = along if speed is None else np.add(speed, along, out=speed)
    return speed


def _cfl_bound(grid: CartesianGrid, tops, cfl: float) -> float:
    """cfl * h over the largest of the row blocks' top cell speeds `tops`."""
    top = float(np.max(tops))  # a NaN anywhere is the max
    return cfl * (grid.h / top) if top > 0 else np.inf


def _stable_dt(grid: CartesianGrid, p: np.ndarray, cfl: float) -> float:
    """cfl * h over the largest cell speed (`_cell_speeds`) of the face velocities of the
    solved potential p.  The faces are taken and their speeds summed and reduced row block
    by row block (`potentials._face_strips`), so no temporary is block-sized."""
    tops = [_cell_speeds(faces, stop - start).max() for start, stop, faces in _face_strips(grid, p)]
    return _cfl_bound(grid, tops, cfl)


def _half_slopes(u: np.ndarray, d: int) -> np.ndarray:
    """Monotonized-central (MC) limited half slopes of the flat run `u` along the axis
    of stride d: those of the cells that have d cells on both sides, and zero for the
    first and the last d cells, which the run treats as the ends of its lines.

    The MC half slope sign(cen) min(|cen|, 2 min(|dm|, |dp|)) / 2, cen = (dm + dp) / 2,
    is taken as copysign(min(|dm + dp| / 4, min(|dm|, |dp|)), dm + dp): the halvings and
    the doubling fold into one quartering, bit for bit, since rounding commutes with the
    min and two halvings round as one quartering does, subnormals included."""
    slope = np.empty(u.size)
    half = slope[d : u.size - d]
    diff = np.subtract(u[d:], u[:-d])  # diff[c] = u[c + d] - u[c]
    dm, dp = diff[:-d], diff[d:]
    mag = np.abs(diff)
    np.minimum(mag[:-d], mag[d:], out=half)
    # zero unless dm * dp > 0, by a where and not a multiply by the mask: 0 * inf and
    # 0 * NaN are NaN, and 0 times a negative slope is -0
    flat = np.multiply(dm, dp, out=mag[:-d]) > 0
    total = np.add(dm, dp, out=mag[:-d])
    quarter = np.abs(total, out=diff[:-d])
    quarter *= 0.25
    np.copysign(np.minimum(quarter, half, out=half), total, out=half)
    np.copyto(half, 0.0, where=np.logical_not(flat, out=flat))
    slope[:d] = 0.0
    slope[u.size - d :] = 0.0
    return slope


def _fluxes(u: np.ndarray, slope: np.ndarray, face: np.ndarray, d: int, start: int, rate: float) -> np.ndarray:
    """rate times the upwind flux through the faces `face` (along the axis of stride d)
    after the cells start, start + 1, ... of the flat run `u`, from the MC face values
    u + slope of the cell before each face and u - slope of the cell after it.  The
    fluxes are written over the slopes."""
    stop = start + face.size
    left = np.add(u[start:stop], slope[start:stop])
    right = np.subtract(u[start + d : stop + d], slope[start + d : stop + d])
    flux = np.maximum(face, 0.0, out=slope[start:stop])
    flux *= left
    np.minimum(face, 0.0, out=left)
    left *= right
    flux += left
    flux *= rate
    return flux


def _advance(grid: CartesianGrid, vals: np.ndarray, p: np.ndarray, dt: float, cfl=None, out=None):
    """vals after one upwind step of size dt on the face velocities of the solved potential
    p, written into `out` (a C-contiguous block of vals' shape, not vals itself) when it
    is given, and, with `cfl`, the CFL bound of those faces (`_stable_dt`) from the same
    sweep (None without it).

    The block runs in the row blocks of `potentials._face_strips`, which takes each
    block's faces from p, and every operation is one on contiguous flat runs, at the flat
    offset d of the swept axis's stride in cells.  A row block takes its cells from vals
    less the flux through each cell's right face along axis 0, adds the flux through its
    left face, then does both along axis 1, then (with `cfl`) takes its cell speeds:
    each cell sees the operations of one sweep of the whole block per axis, in the same
    order, so the result is that sweep's, bit for bit.
    - Axis 0 reads two rows past each side of the row block: the slopes of the row
      before it and the row after it need them, and the faces between them and the
      block's own rows move mass into its cells.  The run's first and last rows are
      taken as line ends, which they are at the block's edge; elsewhere their slopes
      are wrong, but no flux taken here reads them.
    - Along axis 1 a row block is one run of whole rows.  The slopes of each row's
      first and last cell are set to zero, and the flux through the face that crosses
      from a row's last cell to the next row's first is +0 where it is taken from a
      cell and -0 where it is added to one, so it moves nothing and keeps every zero's
      sign; a NaN spreads no further than in a sweep per line."""
    rate = dt / grid.h
    if out is None:
        out = np.empty(vals.shape)
    width = vals.size // vals.shape[0]
    flat, new = vals.reshape(-1), out.reshape(-1)
    size = flat.size
    tops = []
    for start, stop, faces in _face_strips(grid, p):
        # axis 0: the faces after the row before the block and after its rows (the
        # block's last row has none), their slopes from two rows past each side; the
        # strip's entry k is the face after cell start - width + k
        lo, hi = max(start - 2 * width, 0), min(stop + 2 * width, size)
        first, end = max(start - width, 0), min(stop, size - width)
        u = flat[lo:hi]
        face = faces[0][first - start + width : end - start + width]
        flux = _fluxes(u, _half_slopes(u, width), face, width, first - lo, rate)
        np.subtract(flat[start:end], flux[start - first :], out=new[start:end])
        new[end:stop] = flat[end:stop]
        new[first + width : stop] += flux[: stop - width - first]
        if len(faces) == 2 and width > 1:
            u = flat[start:stop]
            slope = _half_slopes(u, 1)
            slope[::width] = 0.0
            slope[width - 1 :: width] = 0.0
            flux = _fluxes(u, slope, faces[1][1 : stop - start], 1, 0, rate)
            flux[width - 1 :: width] = 0.0  # the faces from a row's last cell to the next row's first
            new[start : stop - 1] -= flux
            flux[width - 1 :: width] = -0.0
            new[start + 1 : stop] += flux
        if cfl is not None:
            tops.append(_cell_speeds(faces, stop - start).max())
    return out, None if cfl is None else _cfl_bound(grid, tops, cfl)


def _ssp_update(grid: CartesianGrid, vals: np.ndarray, max_dt: float, cfg: SolverConfig, p=None):
    """One SSPRK(STAGES, 2) step of at most max_dt on the C-contiguous block `vals`,
    which it does not write into.  Returns (dt, the new values, the mass clipped from
    them, the number of redos).

    The step is STAGES forward-Euler stages of dt / (STAGES - 1), each on the face
    velocities of its own input, then u^n / STAGES + (STAGES - 1) / STAGES times the
    last stage.  dt is STAGES - 1 times the CFL bound of u^n's faces, clamped to
    max_dt.  Each later stage's faces set a limit on dt the same way; when dt is over
    it by more than rounding (STAGE_SLACK, relative), the step is redone from u^n at
    that limit, so every stage is a forward-Euler step inside its own CFL bound.  dt
    falls at each redo, and a stage whose limit comes out the same on the redo passes.

    The first stage needs its bound before dt is known, so it sweeps u^n's faces twice:
    once for the bound (`_stable_dt`), once for the transport.  Each later stage takes
    its limit from the sweep of its own transport (`_advance`); a stage over it is
    thrown away with the step.

    `p`, when given, is the potential of `vals` itself, solved by a full-diagnostics
    record on the same block (`diagnostics._output_record`); the first stage takes it
    instead of solving while it is still the latest solve in its table's buffer
    (`potentials._is_latest_solve`), which a solve in between, such as an `at_output`
    hook's, overwrites.  A redo solves u^n's potential again.

    The stages take turns in two block registers: the free one takes the positive
    part of the current stage, from which its potential is solved, then its update.
    Only a negative value of the result triggers a clip."""
    redos = 0
    if not _is_latest_solve(p):
        p = _potential_view(grid, vals, cfg.s)
    while True:
        dt = min((STAGES - 1) * _stable_dt(grid, p, cfg.cfl), max_dt)
        if not dt > 0:
            raise NumericalError("time step collapsed to zero")
        stage_dt = dt / (STAGES - 1)
        stage, spare = _advance(grid, vals, p, stage_dt)[0], np.empty_like(vals)
        for _ in range(STAGES - 1):
            p = _potential_view(grid, np.maximum(stage, 0.0, out=spare), cfg.s)
            new, limit = _advance(grid, stage, p, stage_dt, cfg.cfl, out=spare)
            limit *= STAGES - 1
            if dt > limit * (1.0 + STAGE_SLACK):
                break
            stage, spare = new, stage
        else:
            break
        redos += 1
        max_dt = limit
        p = _potential_view(grid, vals, cfg.s)
    stage *= (STAGES - 1) / STAGES  # 3/4 and 1/4 at four stages: exact in binary
    stage += np.multiply(vals, 1.0 / STAGES, out=spare)
    low, high = float(stage.min()), float(stage.max())  # a NaN anywhere is the min and the max
    if not (isfinite(low) and isfinite(high)):
        raise NumericalError("non-finite values after an explicit step")
    if low >= 0.0:
        return dt, stage, 0.0, redos
    clipped = -grid.cell_volume * float(stage[stage < 0.0].sum())
    return dt, np.maximum(stage, 0.0, out=stage), clipped, redos


def _step(grid: CartesianGrid, vals: np.ndarray, max_dt: float, cfg: SolverConfig, p=None):
    """One SSP step of at most max_dt, computed on a C-contiguous copy of the support
    window of `vals` (the array itself when the window is the box) and written into a
    fresh zero array of the box.  Returns (dt, values, clipped mass, redos) as
    `_ssp_update` does, which takes `p` (the potential of the window's block, when a
    record solved it)."""
    window = _support_window(vals)
    dt, block, clipped, redos = _ssp_update(grid, np.ascontiguousarray(vals[window]), max_dt, cfg, p)
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
    reference = _reference_pairing(grid, u0.values, mass0) if full else None
    rec, p = _output_record(u0, 0.0, tau, mass0, full, reference)
    traj = Trajectory([rec], cfg, u0)
    if at_output is not None:
        at_output(0.0, u0)
    t, vals = 0.0, u0.values
    for target in cfg.output_times:
        while t < target - TIME_TOL * target:
            dt, vals, clipped, redos = _step(grid, vals, target - t, cfg, p)
            p = None
            traj.clipped_mass += clipped
            traj.stage_redos += redos
            t += dt
            traj.steps += 1
        u = _field_view(grid, vals)  # `_ssp_update` proved vals finite, and no step writes into them
        rec, p = _output_record(u, t, tau, mass0, full, reference)
        if rec.sup_bound_ratio > 1.0 + BOUND_SLACK:
            traj.warnings.append(f"sup bound ratio {rec.sup_bound_ratio:.4f} at t={t:.6g}")
        traj.records.append(rec)
        if at_output is not None:
            at_output(t, u)
        del u  # a view keeps its array alive: the steps to the next output free it as they go
    traj.last = _field_view(grid, vals)
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

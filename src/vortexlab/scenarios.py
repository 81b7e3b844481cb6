"""Named, reproducible verification scenarios.

Each scenario binds one family of claims (a closed-form identity, a bound, a
convergence statement) to a concrete run with pinned parameters, and emits a
report listing every checked inequality with its measured value, tolerance and
pass/fail status, plus CSV artifacts for external plotting.  Reports are both
human-readable text and machine-readable JSON; CSV float formatting is fixed
so identical configs and seeds give byte-identical files.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from math import inf, isfinite, pi, sqrt
from pathlib import Path

import numpy as np

from . import burgers, closed_forms, diagnostics, solver
from .grids import (
    CartesianGrid,
    DensityField,
    MassFunction,
    RadialGrid,
    RadialProfile,
    _normal,
    _squared_radius,
    radial_average,
    sphere_area,
    total_mass,
    write_csv,
    write_grid_array,
    write_grid_csv,
)

__all__ = [
    "Check",
    "Scenario",
    "ScenarioSpec",
    "ScenarioResult",
    "REGISTRY",
    "list_scenarios",
    "catalog",
    "read_config",
    "validate_config",
    "run_scenario",
]


@dataclass
class Check:
    name: str
    claim: str
    measured: float
    tolerance: str
    passed: bool

    def __post_init__(self):
        self.measured = float(self.measured)
        self.passed = bool(self.passed)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.claim} | measured {self.measured:.6g} | tol {self.tolerance}"


@dataclass
class ScenarioResult:
    name: str
    section: int
    params: dict
    seed: int
    checks: list
    outputs: list
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "scenario": self.name,
            "section": self.section,
            "params": self.params,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
            "outputs": self.outputs,
            "elapsed_s": round(self.elapsed_s, 3),
        }

    def to_text(self) -> str:
        head = f"scenario {self.name} (section {self.section}) -- {'PASS' if self.passed else 'FAIL'}"
        return "\n".join([head] + [c.line() for c in self.checks]) + "\n"


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    params: dict = field(default_factory=dict)
    outdir: str = "out"
    seed: int = 0


@dataclass(frozen=True)
class Scenario:
    name: str
    section: int
    summary: str
    defaults: dict
    runner: object
    # merged params -> the inputs of runner(params, outdir, **inputs);
    # raises ValueError on bad input, so validation builds and a run builds once
    build: object
    seeded: bool = False  # the runner draws, from the run's seed passed as `seed`


# ---------------------------------------------------------------------------
# builders


def _grid(params) -> CartesianGrid:
    return CartesianGrid(2, params["half_width"], params["cells"])


# Each closed-form field is its radial form on the grid's squared radii
# (grids._squared_radius), made in place: one grid-sized array besides the values,
# and no point array, with the bits of the same form on the cell-center points.


def _radial_values(grid: CartesianGrid, profile, center) -> np.ndarray:
    """profile(r) at the cell centers, r the distance from `center`."""
    r = _squared_radius(grid, center)
    return profile(np.sqrt(r, out=r))


def _patch_values(grid: CartesianGrid, spec, t: float) -> np.ndarray:
    """The patch's density at t, centred at spec.center."""
    return _radial_values(grid, lambda r: closed_forms.patch_density_radial(spec, r, t), spec.center)


def _gaussian_values(grid: CartesianGrid, peak: float, width_sq: float) -> np.ndarray:
    """peak exp(-|x|^2 / (2 width_sq)) at the cell centers."""
    arg = _squared_radius(grid, (0.0, 0.0))
    arg /= -2.0 * width_sq
    np.exp(arg, out=arg)
    arg *= peak
    return arg


def _field_inputs(params, u0, diagnostics="basic") -> dict:
    """A field run's admitted u0 and SolverConfig, whose output_times (t_end alone when
    not given) must end at t_end, to the tolerance at which a run reaches a time."""
    if not 0 < params["t_end"] < inf:  # NaN fails
        raise solver.ConfigError("t_end must be positive and finite")
    cfg = solver.SolverConfig(params.get("output_times", [params["t_end"]]), diagnostics=diagnostics)
    if not abs(cfg.t_end - params["t_end"]) <= burgers.TIME_TOL * cfg.t_end:  # NaN and inf fail
        raise solver.ConfigError("output_times must end at t_end")
    solver.check_initial_data(u0, cfg.t_end)
    return {"u0": u0, "cfg": cfg}


def _patch_inputs(params, diagnostics="basic") -> dict:
    spec = closed_forms.PatchSpec(2, radius=params["radius"], tau=params["tau"])
    grid = _grid(params)
    u0 = DensityField(grid, _patch_values(grid, spec, 0.0))
    return {**_field_inputs(params, u0, diagnostics), "spec": spec}


def _build_vortex_patch(params) -> dict:
    return _patch_inputs(params, "full")


def _build_radial_vs_field(params) -> dict:
    inputs = _patch_inputs(params)
    return {**inputs, "rgrid": RadialGrid(2, 0.95 * inputs["u0"].grid.half_width, params["radial_nodes"])}


def _build_s_sweep(params) -> dict:
    inputs = _patch_inputs(params)
    s_values = solver.sweep_exponents(params["s_values"])
    if len(s_values) < 2:
        raise ValueError("s_values must hold at least 2 exponents")
    for s in s_values:  # each member's SolverConfig checks its exponent
        replace(inputs["cfg"], s=s)
    return {**inputs, "s_values": s_values}


def _build_non_comparison(params) -> dict:
    spec = closed_forms.TwoPatchSpec(2, 1.0, params["r1"], params["r2"], params["r3"])
    x0 = np.array([0.5 * (params["r2"] + params["r3"]), 0.0])
    small = closed_forms.PatchSpec(
        2, radius=params["small_radius"], tau=params["small_tau"], center=tuple(x0)
    )
    grid = _grid(params)
    u1_0 = DensityField(
        grid, _radial_values(grid, lambda r: closed_forms.two_patch_density_radial(spec, r, 0.0), (0.0, 0.0))
    )
    inputs = _field_inputs(params, u1_0)
    u2_0 = DensityField(grid, _patch_values(grid, small, 0.0))
    solver.check_initial_data(u2_0, inputs["cfg"].t_end)
    return {**inputs, "u2_0": u2_0, "spec": spec, "small": small, "x0": x0}


def _build_asymptotics(params) -> dict:
    times = burgers.check_times(params["radial_times"], 2, "radial_times")
    if min(params["mass"], params["peak"], params["radial_width_sq"], params["radial_mass"]) <= 0:
        raise ValueError("mass, peak, radial_width_sq and radial_mass must be positive")
    peak = params["peak"]
    width_sq = params["mass"] / (2.0 * pi * peak)
    if not _normal(width_sq):
        raise ValueError(
            f"the Gaussian's width^2 = mass / (2 pi peak) = {width_sq} must be a positive normal float"
        )
    grid = _grid(params)
    u0 = DensityField(grid, _gaussian_values(grid, peak, width_sq))
    rgrid = RadialGrid(2, params["radial_r_max"], params["radial_nodes"])
    r_width_sq = params["radial_width_sq"]
    m_rad = params["radial_mass"]
    u0r = RadialProfile(rgrid, (m_rad / r_width_sq) * np.exp(-rgrid.r**2 / (2 * r_width_sq)))
    m0 = burgers.mass_transform(u0r)
    burgers.check_reach(rgrid.sigma, m0.values, times[-1])
    return {**_field_inputs(params, u0, "full"), "rgrid": rgrid, "m0": m0}


# fundamental-l1 follows the cells that the patch's radius spans at the first output, not
# the grid, and wobbles by about 0.003 as the disk's edge crosses cell centres (the same
# values on 256^2 and 512^2): 0.0862 at 31 cells, 0.0807 at 34, 0.0785 at 35 and at most
# 0.0776 over 36 to 40, so a correct run below 36 cells may fail its 8% bound
DIRAC_MIN_CELLS = 36


def _build_dirac(params) -> dict:
    grid = _grid(params)
    vals = np.zeros(grid.shape)
    center = grid.cells // 2
    vals[center, center] = params["mass"] / grid.cell_volume
    # the single live cell sits half a cell off the origin; the patch it is compared with is centred there
    patch = closed_forms.PatchSpec(2, radius=diagnostics.equilibrium_radius(params["mass"], 2), tau=0.0,
                                   center=(grid.h / 2, grid.h / 2))
    inputs = _field_inputs(params, DensityField(grid, vals))
    first = inputs["cfg"].output_times[0]
    cells = patch.support_radius(first) / grid.h
    if not cells >= DIRAC_MIN_CELLS:
        raise solver.ConfigError(
            f"mass {params['mass']:g}: the equal-mass patch spans {cells:.3g} cells in radius at the "
            f"first output t = {first:g}; fundamental-l1 needs at least {DIRAC_MIN_CELLS}"
        )
    return {**inputs, "patch": patch}


def _build_two_patch(params) -> dict:
    if len(params["fv_nodes"]) < 2:
        raise ValueError("fv_nodes must hold at least 2 grid sizes to fit an order")
    check_times = burgers.check_times(params["check_times"], 1, "check_times")
    if not params["fv_time"] > 0:
        raise ValueError("fv_time must be positive")
    spec = closed_forms.TwoPatchSpec(2, params["c1"], params["r1"], params["r2"], params["r3"])
    if not 1.0 + spec.c2 * params["fv_time"] > 1.0:
        # the annulus, and so the inner patch, would not move: every Godunov error is zero
        raise ValueError(
            f"fv_time {params['fv_time']:g} is below rounding against the annulus's lifetime "
            f"1/c2 = {spec.tau2:g}: no interface moves, so no convergence order can be fitted"
        )
    sigma_max = params["sigma_max"]
    if sigma_max < spec.r3**2 / 2:
        raise ValueError("sigma_max must be at least r3^2/2, the outer interface's sigma")
    knots_r = np.array([0.0, spec.r1, spec.r2, spec.r3, (2 * sigma_max) ** 0.5])
    sigma = knots_r**2 / 2
    mass = closed_forms.two_patch_state(spec, knots_r, 0.0).mass
    sol = burgers.CharacteristicSolution(2, sigma, mass)
    burgers.check_reach(sigma, mass, max(params["fv_time"], check_times[-1]))
    rgrids = [RadialGrid(2, (2 * sigma_max) ** 0.5, nodes) for nodes in params["fv_nodes"]]
    return {"spec": spec, "sol": sol, "rgrids": rgrids}


def _build_barenblatt_limit(params) -> dict:
    s_values = sorted(params["s_values"])  # the check reads the distances as s -> 1
    if len(set(s_values)) < max(len(s_values), 2):
        raise ValueError("s_values must hold at least 2 exponents, none repeated")
    if not params["r_max"] > 0 or params["radial_points"] < 2:
        raise ValueError("r_max must be positive and radial_points at least 2")
    specs = [closed_forms.barenblatt_with_mass(2, s, mass=params["mass"]) for s in s_values]
    return {"r": np.linspace(0.0, params["r_max"], params["radial_points"]), "specs": specs}


def _build_wasserstein_oracle(params) -> dict:
    if min(params["pairs"], params["triples"], params["atoms"]) < 1:
        raise ValueError("pairs, triples and atoms must each be at least 1")
    return {"rgrid": RadialGrid(2, params["r_max"], params["nodes"])}


# ---------------------------------------------------------------------------
# check helpers


def _at_most(name: str, claim: str, measured: float, bound: str, limit: float | None = None) -> Check:
    """The check measured <= bound, `bound` the tolerance as the report writes it and
    `limit` the number it stands for where that text is not the number itself."""
    return Check(name, claim, measured, bound, measured <= (float(bound) if limit is None else limit))


def _at_least(name: str, claim: str, measured: float, bound: str) -> Check:
    """The check measured >= bound, `bound` the number as the report writes it after `>= `."""
    return Check(name, claim, measured, f">= {bound}", measured >= float(bound))


def _first_below_half(coords, values, level: float, past: float) -> float:
    """The first node of `coords` beyond `past` where `values` is below level / 2 (a
    front's half-height crossing), or the last node where there is none."""
    below = np.flatnonzero((values < 0.5 * level) & (coords > past))
    return float(coords[below[0]] if len(below) else coords[-1])


def _l1_rel(u: DensityField, reference: np.ndarray, mass: float) -> float:
    """h^n sum |u - reference| / mass, the difference taken into one array."""
    diff = u.values - reference
    return u.grid.cell_volume * float(np.abs(diff, out=diff).sum()) / mass


def _interp_at(u: DensityField, point) -> float:
    """Bilinear interpolation of a 2-D field's cell values at a physical point."""
    g = u.grid
    x = g.axis_centers()
    out = u.values
    idx = []
    wts = []
    for k in range(g.n):
        j = int(np.clip(np.searchsorted(x, point[k]) - 1, 0, g.cells - 2))
        w = (point[k] - x[j]) / g.h
        idx.append(j)
        wts.append(np.clip(w, 0.0, 1.0))
    (i, j), (wx, wy) = idx, wts
    return float(
        (1 - wx) * (1 - wy) * out[i, j]
        + wx * (1 - wy) * out[i + 1, j]
        + (1 - wx) * wy * out[i, j + 1]
        + wx * wy * out[i + 1, j + 1]
    )


SUP_BOUND = f"{1 + solver.BOUND_SLACK:g}"  # the universal bound's checks allow the ratio a run warns past
MONOTONE_SLACK = 1e-3  # entropy and energy may rise by this share of _entropy_scale between outputs
PATCH_DISSIPATION_PER_H = 0.6  # a patch's entropy dissipation stays below this times h (O(h) grid noise)
W2_CONTINUITY_SAFETY = 1.08  # w2-continuity's margin over the patch family's exact modulus
ORDERING_SLACK = "-1e-12"  # non-comparison's orderings of u1 over u2 hold to this rounding


def w2_continuity_constant(n: int, radial_mass: float) -> float:
    """Modulus constant for W2(u(t1), u(t2)) <= C (t2^{1/n} - t1^{1/n}).

    The expanding-patch family saturates the modulus with coefficient
    (n M_rad)^{1/n} sqrt(n M_full/(n+2)); W2_CONTINUITY_SAFETY covers scheme
    noise on non-patch radial data.
    """
    full = sphere_area(n) * radial_mass
    exact = (n * radial_mass) ** (1.0 / n) * (n * full / (n + 2.0)) ** 0.5
    return W2_CONTINUITY_SAFETY * exact


def _entropy_scale(mass: float) -> float:
    """Reference-independent magnitude of the planar entropy functional for mass-M
    data (the equilibrium second-moment term M R0^2 / 2n, n = 2); absolute entropy
    values shift with the choice of reference density, so monotonicity slacks are
    taken against this."""
    return mass * diagnostics.equilibrium_radius(mass, 2) ** 2 / 4


def _monotone_nonincreasing(values, scale):
    worst = max(b - a for a, b in zip(values, values[1:]))
    return worst, worst <= MONOTONE_SLACK * scale


def _monotone_checks(records, mass, entropy_claim, energy_claim) -> list:
    """entropy-monotone and energy-monotone over a run's records, against the entropy
    scale of `mass`."""
    scale = _entropy_scale(mass)
    checks = []
    for name, claim, values in (("entropy-monotone", entropy_claim, [r.entropy for r in records]),
                                ("energy-monotone", energy_claim, [r.energy for r in records])):
        worst = _monotone_nonincreasing(values, scale)[0]
        checks.append(_at_most(name, claim, worst, f"{MONOTONE_SLACK * scale:.2e}"))
    return checks


# ---------------------------------------------------------------------------
# scenario runners


def _scenario_vortex_patch(params, outdir, u0, cfg, spec):
    grid = u0.grid
    traj = solver.run(cfg, u0)
    err = _l1_rel(traj.last, _patch_values(grid, spec, cfg.t_end), total_mass(u0))
    checks = [
        _at_most("mass-conservation", "relative mass drift <= 1e-9 (conservative flux form)",
                 traj.mass_drift(), "1e-9"),
        _at_most("l1-error", "relative L1 distance to the expanding-patch closed form at t_end <= 5%",
                 err, "0.05"),
        _at_most("sup-decay",
                 f"max u * (t + 1/max u0) <= {SUP_BOUND} at every output (universal height decay)",
                 traj.max_bound_ratio(), SUP_BOUND),
    ]
    tau = params["tau"]
    worst = 0.0
    for rec in traj.records[1:]:
        allowed = params["radius"] * (1 + rec.t / tau) ** 0.5 * (1 + 3 * grid.h / params["radius"])
        worst = max(worst, rec.support_radius - allowed)
    checks.append(_at_most(
        "support-growth", "support radius <= R0 (1 + ||u0||inf t)^(1/n) (1 + 3h/R0) at every output",
        worst, "0 (excess)", 0.0))
    linf_err = max(abs(r.linf_norm - 1.0 / (r.t + tau)) * (r.t + tau) for r in traj.records)
    checks.append(_at_most("height-law", "max u tracks 1/(t+tau) within 5% relative", linf_err, "0.05"))
    checks += _monotone_checks(
        traj.records, total_mass(u0),
        "renormalized entropy nonincreasing across outputs (1e-3 relative slack)",
        "renormalized interaction energy nonincreasing across outputs")
    d_max = max(r.dissipation for r in traj.records)
    d_cap = PATCH_DISSIPATION_PER_H * grid.h
    checks.append(_at_most("dissipation-smallness", "entropy dissipation of the patch stays O(h)",
                           d_max, f"{d_cap:.4g}"))
    diagnostics.write_records_csv(traj.records, Path(outdir) / "diagnostics.csv")
    write_grid_array(grid, traj.last.values, Path(outdir) / "final_field.bin")
    write_grid_csv(grid, {"u": traj.last.values}, Path(outdir) / "final_field.csv")
    (Path(outdir) / "run_summary.json").write_text(json.dumps(traj.summary(), indent=2))
    return checks, ["diagnostics.csv", "final_field.bin", "final_field.csv", "run_summary.json"]


def _scenario_two_patch(params, outdir, spec, sol, rgrids):
    sigma = np.linspace(0.0, params["sigma_max"], 2000)
    worst = 0.0
    for t in params["check_times"]:
        exact = closed_forms.two_patch_state(spec, (2 * sigma) ** 0.5, t).mass
        got = burgers.evolve_characteristics(sol, t, sigma)
        worst = max(worst, float(np.abs(got - exact).max()))
    checks = [_at_most(
        "characteristics-vs-closed-form",
        "exact characteristic evolution matches the piecewise two-patch mass values", worst, "1e-10")]
    t_ref = params["check_times"][-1]
    s_exact = spec.interfaces(t_ref)
    s_got = burgers.interfaces_at(sol, t_ref)[1:4]
    iface_err = float(np.abs(np.array(s_got) - np.array(s_exact)).max())
    checks.append(_at_most(
        "interfaces", "transported kinks land on the closed-form interface radii", iface_err, "1e-8"))

    # Godunov convergence against the characteristic solution
    errs, widths, iface_cells = [], [], None
    for rgrid in rgrids:
        m0 = burgers.evolve_to_mass_function(sol, 0.0, rgrid)
        traj = burgers.run_finite_volume(m0, [params["fv_time"]])
        exact = burgers.evolve_characteristics(sol, params["fv_time"], rgrid.sigma)
        errs.append(float(np.trapezoid(np.abs(traj[-1][1].values - exact), rgrid.sigma)))
        widths.append(rgrid.d_sigma)
        if rgrid is rgrids[-1]:
            # interface positions at the finest level: half-height crossings in sigma
            u_fv = burgers.density_from_mass(traj[-1][1]).values
            iface_cells = 0.0
            s1, s2, s3 = spec.interfaces(params["fv_time"])
            for s_pos, level in ((s1, 1.0 / (params["fv_time"] + spec.tau1)),
                                 (s3, 1.0 / (params["fv_time"] + spec.tau2))):
                sig_star = s_pos**2 / 2
                got_sig = _first_below_half(rgrid.sigma, u_fv, level, sig_star / 2)
                iface_cells = max(iface_cells, abs(got_sig - sig_star) / rgrid.d_sigma)
    order = float(np.polyfit(np.log(widths), np.log(errs), 1)[0])
    checks.append(_at_least(
        "fv-convergence", "Godunov error against characteristics decays with observed order >= 0.8",
        order, "0.8"))
    checks.append(_at_most(
        "fv-interfaces", "finite-volume interface positions within 2 cells of the closed form",
        iface_cells, "2 cells", 2.0))
    m0 = burgers.evolve_to_mass_function(sol, 0.0, rgrids[0])
    traj = burgers.run_finite_volume(m0, params["check_times"])
    burgers.write_radial_trajectory_csv(traj, Path(outdir) / "two_patch_trajectory.csv")
    return checks, ["two_patch_trajectory.csv"]


def _scenario_non_comparison(params, outdir, u0, cfg, u2_0, spec, small, x0):
    t_rev = cfg.t_end
    u1_x0 = [closed_forms.two_patch_density_at_point(spec, x0, t) for t in (0.0, t_rev)]
    u2_x0 = [float(closed_forms.patch_density(small, x0, t)) for t in (0.0, t_rev)]
    checks = [
        _at_least("initial-ordering", "closed forms give u1(x0,0) >= u2(x0,0)",
                  u1_x0[0] - u2_x0[0], ORDERING_SLACK),
        Check("closed-form-reversal", "closed forms give u1(x0,T) = 0 < u2(x0,T)",
              u2_x0[1] - u1_x0[1], "> 0", u1_x0[1] == 0.0 and u2_x0[1] > 0.0),
    ]
    grid = u0.grid
    checks.append(_at_least("grid-ordering", "sampled initial data keeps u1 >= u2 everywhere",
                            float((u0.values - u2_0.values).min()), ORDERING_SLACK))
    tr1 = solver.run(cfg, u0)
    tr2 = solver.run(cfg, u2_0)
    margin = _interp_at(tr2.last, x0) - _interp_at(tr1.last, x0)
    checks.append(_at_least(
        "solver-reversal", "field solver reproduces u2 - u1 >= 0.05 at x0 at t_end", margin, "0.05"))
    write_grid_csv(grid, {"u1": tr1.last.values, "u2": tr2.last.values},
                   Path(outdir) / "final_fields.csv")
    return checks, ["final_fields.csv"]


def _scenario_s_sweep(params, outdir, u0, cfg, spec, s_values):
    rep = solver.sweep_s(cfg, u0, s_values)
    checks = [
        _at_most("sweep-complete", "every sweep member ran to completion", len(rep.errors), "0"),
        Check("limit-monotone", "L1 distance to the s=1 run is nonincreasing as s increases",
              rep.distances[0] if rep.distances[0] is not None else float("nan"),
              "monotone", rep.nonincreasing and not rep.partial),
    ]
    write_csv(Path(outdir) / "sweep_distances.csv", ["s", "l1_distance_to_s1"],
              zip(rep.s_values, rep.distances))
    return checks, ["sweep_distances.csv"]


def _scenario_barenblatt_limit(params, outdir, r, specs):
    patch_radius = diagnostics.equilibrium_radius(params["mass"], 2)
    target = np.where(r <= patch_radius, 1.0, 0.0)
    dists = []
    for spec in specs:
        prof = closed_forms.barenblatt_density_radial(spec, r, 1.0)
        dists.append(float(np.trapezoid(np.abs(prof - target) * r, r) * 2 * pi))
    strictly = all(b < a for a, b in zip(dists, dists[1:]))
    checks = [Check(
        "profile-limit", "L1 distance of the compact self-similar profile to the equal-mass "
        "uniform patch strictly decreases as s -> 1",
        dists[-1], "strict decrease", strictly)]
    write_csv(Path(outdir) / "barenblatt_distances.csv", ["s", "l1_distance"],
              zip((spec.s for spec in specs), dists))
    return checks, ["barenblatt_distances.csv"]


def _scenario_asymptotics(params, outdir, u0, cfg, rgrid, m0):
    checks = []
    # (a) planar Gaussian relaxation: entropy decay and moment identities
    traj = solver.run(cfg, u0)
    checks.append(_at_most("mass-conservation", "relative mass drift <= 1e-9", traj.mass_drift(), "1e-9"))
    checks.append(_at_most("sup-decay", f"max u * (t + 1/max u0) <= {SUP_BOUND} at every output",
                           traj.max_bound_ratio(), SUP_BOUND))
    mass = total_mass(u0)
    checks += _monotone_checks(
        traj.records, mass,
        "Ent(U) nonincreasing along the renormalized orbit", "renormalized interaction energy nonincreasing")
    ents = [r.entropy for r in traj.records]
    # discrete dissipation identity away from the endpoints
    worst_rel = 0.0
    for k in range(1, len(traj.records) - 1):
        d_ent = ents[k + 1] - ents[k - 1]
        d_tau = np.log1p(traj.records[k + 1].t) - np.log1p(traj.records[k - 1].t)
        rate = -d_ent / d_tau
        d_k = traj.records[k].dissipation
        worst_rel = max(worst_rel, abs(rate - d_k) / d_k)
    checks.append(_at_most(
        "dissipation-identity", "-dEnt/dtau matches D(U) within 15% mid-run", worst_rel, "0.15"))
    m2 = traj.records[0].second_moment
    renorm_dev = max(abs(r.second_moment / (1 + r.t) - m2) / m2 for r in traj.records)
    checks.append(_at_most("renormalized-moment", "second moment of U(y) constant within 1% "
                           "(bounded-moment property)", renorm_dev, "0.01"))
    virial_dev = max(
        abs(r.second_moment - (m2 + r.t * mass**2 / (2 * pi))) / m2 for r in traj.records
    )
    checks.append(_at_most(
        "virial-growth", "raw second moment follows m2(0) + t M^2/(2 pi) within 1% "
        "(planar pair-interaction rate)", virial_dev, "0.01"))
    diagnostics.write_records_csv(traj.records, Path(outdir) / "gaussian_diagnostics.csv")

    # (b) radial relaxation toward the uniform patch, in mass-function variables
    rtraj = burgers.run_finite_volume(m0, params["radial_times"])
    r1 = (2 * m0.total) ** 0.5
    sups = []
    for t, m in rtraj[1:]:
        r_test = np.linspace(0.0, r1, 400)
        m_at = np.interp((r_test * t**0.5) ** 2 / 2, rgrid.sigma, m.values)
        sups.append(float(np.abs(r_test**2 / 2 - m_at).max()))
    decreasing = all(b < a for a, b in zip(sups, sups[1:]))
    checks.append(Check(
        "mass-profile-limit", "sup_{r<=R1} |r^n/n - M(r t^{1/n}, t)| decreasing in t",
        sups[-1], "strict decrease", decreasing))
    checks.append(_at_most(
        "mass-profile-threshold", "sup error <= 0.1 M0 by the final time", sups[-1] / m0.total, "0.1"))
    t_fin, m_fin = rtraj[-1]
    u_fin = burgers.density_from_mass(m_fin)
    rho = np.linspace(0.005, r1, 400)
    u_hat = t_fin * np.interp(rho * t_fin**0.5, rgrid.r, u_fin.values)
    l1_dev = float(np.trapezoid(np.abs(u_hat - 1.0) * rho, rho) / (r1**2 / 2))
    checks.append(_at_most(
        "rescaled-density", "bin-averaged t u(r t^{1/n}, t) within 0.1 of the unit indicator "
        "in relative L1 on r <= R1", l1_dev, "0.1"))
    mono = burgers.check_monotone_inequalities(rtraj[1:])
    checks.append(_at_most(
        "rate-upper", "discrete M_t <= tol at all nodes and times (mass never refluxes inward)",
        mono.upper_excess.max(), f"{mono.tol:.0e}", mono.tol))
    checks.append(_at_most(
        "rate-lower", "discrete M_t >= -M/t - tol at all nodes and times (homogeneity rate bound)",
        mono.lower_deficit.max(), f"{mono.tol:.0e}", mono.tol))
    sat_traj = [(t, MassFunction(rgrid, closed_forms.largest_solution(rgrid.r, t, 2)[1]))
                for t, _ in rtraj[1:]]
    checks.append(_at_most(
        "largest-solution-saturation", "the interface-free 1/t solution saturates the lower rate bound",
        burgers.check_monotone_inequalities(sat_traj).saturation_gap.max(), "1e-12"))
    w2c = diagnostics.wasserstein_continuity_check(rtraj[1:], w2_continuity_constant(2, m0.total))
    checks.append(_at_most(
        "w2-continuity", "W2(u(t1), u(t2)) <= C (t2^{1/n} - t1^{1/n}), C the expanding-patch modulus "
        "times a safety factor", w2c.max_ratio, "1.0"))
    burgers.write_radial_trajectory_csv(rtraj, Path(outdir) / "radial_trajectory.csv")
    return checks, ["gaussian_diagnostics.csv", "radial_trajectory.csv"]


def _scenario_dirac(params, outdir, u0, cfg, patch):
    worst_l1 = 0.0

    def at_output(t, u):
        nonlocal worst_l1
        if t == 0.0:
            return
        worst_l1 = max(worst_l1, _l1_rel(u, _patch_values(u0.grid, patch, t), params["mass"]))

    traj = solver.run(cfg, u0, at_output)
    worst_linf = max(r.linf_norm * r.t for r in traj.records)  # the universal bound u <= 1/t
    checks = [
        _at_most("fundamental-l1", "L1 distance of the single-cell run to the equal-mass expanding "
                 "patch <= 8% at the output times",
                 worst_l1, "0.08"),
        _at_most("fundamental-height",
                 f"max u * t <= {SUP_BOUND} at the output times (universal bound u <= 1/t)",
                 worst_linf, SUP_BOUND),
    ]
    diagnostics.write_records_csv(traj.records, Path(outdir) / "dirac_diagnostics.csv")
    return checks, ["dirac_diagnostics.csv"]


def _scenario_radial_vs_field(params, outdir, u0, cfg, spec, rgrid):
    grid = u0.grid
    worst_iface = 0.0
    worst_l1 = 0.0

    def at_output(t, u):
        nonlocal worst_iface, worst_l1
        if t == 0.0:
            return
        prof = radial_average(u, rgrid)
        exact = closed_forms.patch_density_radial(spec, rgrid.r, t)
        edge = spec.support_radius(t)
        got_edge = _first_below_half(rgrid.r, prof.values, spec.height(t), 0.2 * edge)
        j = int(np.searchsorted(rgrid.r, edge))
        local_dr = rgrid.r[min(j + 1, rgrid.nodes - 1)] - rgrid.r[j - 1]
        worst_iface = max(worst_iface, abs(got_edge - edge) / (3 * max(grid.h, local_dr)))
        l1 = float(np.trapezoid(np.abs(prof.values - exact) * rgrid.r, rgrid.r) * 2 * pi)
        worst_l1 = max(worst_l1, l1 / spec.full_mass())

    solver.run(cfg, u0, at_output)
    checks = [
        _at_most("interface-consistency", "field-run interface within 3 max(h, dr) of the exact "
                 "radial interface at every output",
                 worst_iface, "1.0"),
        _at_most("profile-consistency", "radially averaged field within 5% of the exact radial "
                 "density in L1",
                 worst_l1, "0.05"),
    ]
    return checks, []


def _scenario_wasserstein_oracle(params, outdir, rgrid, seed):
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(seed)
    worst = 0.0
    rows = []
    for k in range(params["pairs"]):
        m1 = _random_mass_fn(rng, rgrid)
        m2 = _random_mass_fn(rng, rgrid, total=m1.total)
        shipped = diagnostics.wasserstein_radial(m1, m2)
        atoms = params["atoms"]
        q = (np.arange(atoms) + 0.5) * (m1.full_mass() / atoms)
        r1 = diagnostics.quantile_radii(m1, q)
        r2 = diagnostics.quantile_radii(m2, q)
        cost = (r1[:, None] - r2[None, :]) ** 2
        ridx, cidx = linear_sum_assignment(cost)
        oracle = sqrt(cost[ridx, cidx].sum() * m1.full_mass() / atoms)
        rel = abs(shipped - oracle) / oracle if oracle > 0 else 0.0
        worst = max(worst, rel)
        rows.append((k, shipped, oracle, rel))
    checks = [_at_most(
        "quantile-vs-assignment", "quantile-formula W2 matches the brute-force optimal "
        "assignment within 1% on random radial pairs",
        worst, "0.01")]
    # metric axioms on random triples
    slack = 0.0
    for _ in range(params["triples"]):
        ms = [_random_mass_fn(rng, rgrid, total=1.0) for _ in range(3)]
        d01 = diagnostics.wasserstein_radial(ms[0], ms[1])
        d10 = diagnostics.wasserstein_radial(ms[1], ms[0])
        d02 = diagnostics.wasserstein_radial(ms[0], ms[2])
        d12 = diagnostics.wasserstein_radial(ms[1], ms[2])
        slack = max(slack, abs(d01 - d10), d02 - (d01 + d12),
                    diagnostics.wasserstein_radial(ms[0], ms[0]))
    checks.append(_at_most(
        "metric-axioms", "symmetry, identity and the triangle inequality hold within 1e-6", slack, "1e-6"))
    write_csv(Path(outdir) / "oracle_pairs.csv",
              ["pair", "quantile_w2", "assignment_w2", "relative_gap"], rows)
    return checks, ["oracle_pairs.csv"]


def _random_mass_fn(rng, rgrid, total=None):
    inc = rng.random(rgrid.nodes - 1) * rng.random()
    vals = np.concatenate([[0.0], np.cumsum(inc)])
    if total is not None and vals[-1] > 0:
        vals *= total / vals[-1]
    return MassFunction(rgrid, vals)


# ---------------------------------------------------------------------------
# registry

REGISTRY = {
    "vortex-patch": Scenario(
        "vortex-patch", 6,
        "expanding uniform patch against its closed form: conservation, decay, support, entropy",
        {
            "cells": 256, "half_width": 4.0, "radius": 1.0, "tau": 1.0,
            "t_end": 3.0, "output_times": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
        },
        _scenario_vortex_patch, _build_vortex_patch,
    ),
    "two-patch": Scenario(
        "two-patch", 6,
        "ball-plus-annulus configuration: exact characteristics vs closed form and Godunov convergence",
        {
            "c1": 1.0, "r1": 1.0, "r2": 2.0, "r3": 3.0, "sigma_max": 11.0,
            "check_times": [1.0, 3.0], "fv_nodes": [256, 512, 1024], "fv_time": 1.0,
        },
        _scenario_two_patch, _build_two_patch,
    ),
    "non-comparison": Scenario(
        "non-comparison", 6,
        "pointwise density ordering is not preserved: vacuum annulus overtakes a small patch",
        {
            "r1": 1.0, "r2": 2.0, "r3": 3.0, "small_radius": 0.1, "small_tau": 4.0,
            "cells": 432, "half_width": 6.75, "t_end": 3.0,
        },
        _scenario_non_comparison, _build_non_comparison,
    ),
    "s-sweep": Scenario(
        "s-sweep", 3,
        "exponent sweep on identical data: distances to the s=1 run shrink as s -> 1",
        {
            "cells": 128, "half_width": 4.0, "radius": 1.0, "tau": 1.0,
            "t_end": 1.0, "s_values": [0.7, 0.85, 1.0],
        },
        _scenario_s_sweep, _build_s_sweep,
    ),
    "barenblatt-limit": Scenario(
        "barenblatt-limit", 6,
        "compact self-similar profiles converge to the uniform patch as s -> 1 (closed forms only)",
        {
            "s_values": [0.6, 0.7, 0.8, 0.9, 0.95], "mass": 1.0,
            "radial_points": 512, "r_max": 3.0,
        },
        _scenario_barenblatt_limit, _build_barenblatt_limit,
    ),
    "asymptotics": Scenario(
        "asymptotics", 8,
        "large-time relaxation to the uniform patch: entropy decay, moment identities, radial limits",
        {
            "cells": 256, "half_width": 2.56, "peak": 2.0, "mass": 1.0,
            "t_end": 3.0, "output_times": [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
            "radial_nodes": 2048, "radial_r_max": 10.0, "radial_width_sq": 0.5,
            "radial_mass": 0.5, "radial_times": [1.0, 2.0, 5.0, 10.0, 20.0, 35.0, 50.0],
        },
        _scenario_asymptotics, _build_asymptotics,
    ),
    "dirac-fundamental": Scenario(
        "dirac-fundamental", 3,
        "single-cell mass relaxes onto the expanding patch (fundamental solution)",
        {
            "cells": 512, "half_width": 2.2, "mass": pi, "t_end": 3.0,
            "output_times": [1.0, 3.0],
        },
        _scenario_dirac, _build_dirac,
    ),
    "radial-vs-field": Scenario(
        "radial-vs-field", 7,
        "field solver agrees with the exact radial solution after angular averaging",
        {
            "cells": 256, "half_width": 4.0, "radius": 1.0, "tau": 1.0,
            "t_end": 3.0, "output_times": [1.0, 3.0],
            "radial_nodes": 96,
        },
        _scenario_radial_vs_field, _build_radial_vs_field,
    ),
    "wasserstein-oracle": Scenario(
        "wasserstein-oracle", 4,
        "quantile-formula transport distance against brute-force assignment/LP oracles",
        {
            "nodes": 64, "r_max": 3.0, "pairs": 20, "triples": 10, "atoms": 400,
        },
        _scenario_wasserstein_oracle, _build_wasserstein_oracle, seeded=True,
    ),
}


def list_scenarios(section: int | None = None):
    out = [sc for sc in REGISTRY.values() if section is None or sc.section == section]
    return sorted(out, key=lambda sc: sc.name)


def catalog(section: int | None = None) -> list:
    return [
        {"name": sc.name, "section": sc.section, "summary": sc.summary, "defaults": sc.defaults}
        for sc in list_scenarios(section)
    ]


# ---------------------------------------------------------------------------
# config validation


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _type_ok(value, template) -> bool:
    """An int default takes only an int, a float default any number; bool is not a number."""
    if isinstance(template, bool):
        return isinstance(value, bool)
    if isinstance(template, int):
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(template, float):
        return _is_number(value)
    return isinstance(value, type(template))


def _build_inputs(name: str, params: dict):
    """(inputs, errors): the scenario's build on its merged params once the
    key, type and finiteness rules hold, else None and what stopped it."""
    errors = []
    if name not in REGISTRY:
        return None, [f"scenario: unknown scenario '{name}'"]
    defaults = REGISTRY[name].defaults
    for key, value in params.items():
        if key not in defaults:
            errors.append(f"params.{key}: unknown parameter")
        elif not _type_ok(value, defaults[key]):
            errors.append(
                f"params.{key}: expected {type(defaults[key]).__name__}, got {type(value).__name__}"
            )
        elif isinstance(value, list) and not all(_is_number(v) for v in value):
            errors.append(f"params: {key} entries must be numbers")
        elif isinstance(value, list) and not all(_type_ok(v, defaults[key][0]) for v in value):
            errors.append(f"params: {key} entries must be integers")
        elif any(isinstance(v, float) and not isfinite(v)
                 for v in (value if isinstance(value, list) else [value])):
            errors.append(f"params: {key} must be finite")
    if errors:
        return None, errors
    try:
        return REGISTRY[name].build({**defaults, **params}), []
    except ValueError as exc:  # ConfigError is a ValueError
        return None, [f"params: {exc}"]


def validate_params(name: str, params: dict) -> list:
    return _build_inputs(name, params)[1]


def read_config(source):
    """(scenario name, params, errors) of a config mapping or JSON file path.
    Only the config's shape is checked; its params are checked by building them."""
    obj = source
    if isinstance(source, (str, Path)):
        try:
            obj = json.loads(Path(source).read_text())
        except OSError as exc:
            return None, {}, [f"file: {exc}"]
        except json.JSONDecodeError as exc:
            return None, {}, [f"json: line {exc.lineno} column {exc.colno}: {exc.msg}"]
    if not isinstance(obj, dict):
        return None, {}, ["config: expected a JSON object"]
    name = obj.get("scenario")
    if not isinstance(name, str):
        return None, {}, ["scenario: missing or not a string"]
    params = obj.get("params", {})
    if not isinstance(params, dict):
        return None, {}, ["params: expected an object"]
    return name, params, [f"{k}: unknown top-level key" for k in sorted(set(obj) - {"scenario", "params"})]


def validate_config(source) -> list:
    """Validate a config mapping or a JSON file path; returns a list of errors."""
    name, params, errors = read_config(source)
    return errors if name is None else errors + validate_params(name, params)


# ---------------------------------------------------------------------------
# execution


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    inputs, errors = _build_inputs(spec.name, spec.params)
    if errors:
        raise solver.ConfigError("; ".join(errors))
    scenario = REGISTRY[spec.name]
    params = {**scenario.defaults, **spec.params}
    outdir = Path(spec.outdir) / spec.name
    outdir.mkdir(parents=True, exist_ok=True)
    if scenario.seeded:
        inputs["seed"] = spec.seed
    start = time.perf_counter()
    checks, outputs = scenario.runner(params, outdir, **inputs)
    result = ScenarioResult(
        spec.name, scenario.section, params, spec.seed, checks,
        outputs + ["report.json", "report.txt"], time.perf_counter() - start,
    )
    (outdir / "report.json").write_text(json.dumps(result.to_json(), indent=2) + "\n")
    (outdir / "report.txt").write_text(result.to_text())
    return result

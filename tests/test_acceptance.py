"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line with the measured value against its pinned tolerance.

Expensive runs are shared through module-scoped fixtures.  Criterion 7 is
asserted verbatim and marked as a strict expected failure: the planar second
moment of this flow grows at the exact virial rate M^2/(2 pi) (the expanding
patch is an explicit counterexample to constancy), so no convergent solver can
hold it constant; the companion test pins the true moment laws.  The analysis
lives in the reviewer notes outside the package.
"""

import time
from math import pi, sqrt

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from vortexlab import burgers, closed_forms, diagnostics, solver
from vortexlab.grids import (
    CartesianGrid,
    DensityField,
    MassFunction,
    RadialGrid,
    RadialProfile,
    field_from_function,
    support_radius,
    total_mass,
)
from vortexlab.scenarios import _entropy_scale, _monotone_nonincreasing  # shared slack convention


def report(criterion: str, passed: bool, detail: str):
    print(f"criterion-{criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion-{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared runs


@pytest.fixture(scope="module")
def patch_run():
    """Criterion-4 configuration: n=2, N=256, box [-4,4]^2, patch R=1 tau=1, to t=3,
    inviscid (eps = 0), as the vortex-patch scenario runs it."""
    grid = CartesianGrid(2, 4.0, 256)
    spec = closed_forms.PatchSpec(2, radius=1.0, tau=1.0)
    u0 = field_from_function(grid, lambda p: closed_forms.patch_density(spec, p, 0.0))
    exact = field_from_function(grid, lambda p: closed_forms.patch_density(spec, p, 3.0))
    start = time.perf_counter()
    cfg = solver.SolverConfig(
        output_times=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
        cfl=0.45, diagnostics="full",
    )
    fields = []
    traj = solver.run(cfg, u0, at_output=lambda t, u: fields.append(u))
    err = grid.cell_volume * float(np.abs(traj.last.values - exact.values).sum()) / total_mass(u0)
    return {"traj": traj, "fields": fields, "l1": err, "grid": grid, "spec": spec, "u0": u0,
            "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def gaussian_run():
    """Gaussian bump with sup u0 = 2 (tau = 0.5) and unit mass, run to t=3."""
    grid = CartesianGrid(2, 2.56, 256)
    width_sq = 1.0 / (4.0 * pi)
    u0 = field_from_function(grid, lambda p: 2.0 * np.exp(-(p**2).sum(axis=-1) / (2 * width_sq)))
    cfg = solver.SolverConfig(
        output_times=(0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
        cfl=0.45, diagnostics="full",
    )
    return {"traj": solver.run(cfg, u0), "grid": grid, "u0": u0}


@pytest.fixture(scope="module")
def radial_gaussian_run():
    """Radial Gaussian advanced by the Godunov mass-function solver to t=50."""
    rgrid = RadialGrid(2, 10.0, 2048)
    width_sq = 0.5
    m_rad = 0.5
    u0 = RadialProfile(rgrid, (m_rad / width_sq) * np.exp(-rgrid.r**2 / (2 * width_sq)))
    m0 = burgers.mass_transform(u0)
    times = [1.0, 2.0, 5.0, 10.0, 20.0, 35.0, 50.0]
    start = time.perf_counter()
    traj = burgers.run_finite_volume(m0, times)
    return {"traj": traj, "rgrid": rgrid, "m0": m0, "times": times,
            "elapsed": time.perf_counter() - start}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_exact_solution_residuals():
    start = time.perf_counter()
    rng = np.random.default_rng(2027)
    spec = closed_forms.PatchSpec(2, radius=1.0, tau=1.0)
    worst = 0.0
    for _ in range(1000):
        t = rng.uniform(0.05, 5.0)
        sigma = rng.uniform(0.0, 3.0)
        life = t + spec.tau
        sigma_edge = spec.radius**2 * life / 2.0
        if sigma <= sigma_edge:  # analytic piecewise derivatives of the patch mass
            m, m_t, m_sigma = sigma / life, -sigma / life**2, 1.0 / life
        else:
            m, m_t, m_sigma = spec.radius**2 / 2.0, 0.0, 0.0
        assert m == pytest.approx(float(closed_forms.patch_mass(spec, (2 * sigma) ** 0.5, t)), abs=1e-14)
        worst = max(worst, abs(m_t + m * m_sigma))
        # interface-free envelope M = sigma/t
        m, m_t, m_sigma = sigma / t, -sigma / t**2, 1.0 / t
        worst = max(worst, abs(m_t + m * m_sigma))
    # finite-difference spot check that the coded derivatives are the derivatives
    t0, sig0 = 1.7, 0.4
    eps = 1e-6
    fd_t = (closed_forms.patch_mass(spec, (2 * sig0) ** 0.5, t0 + eps)
            - closed_forms.patch_mass(spec, (2 * sig0) ** 0.5, t0 - eps)) / (2 * eps)
    assert fd_t == pytest.approx(-sig0 / (t0 + 1.0) ** 2, rel=1e-5)
    elapsed = time.perf_counter() - start
    report("01 exact-solution-residuals",
           worst <= 1e-12 and elapsed < 1.0,
           f"max residual {worst:.2e} <= 1e-12, runtime {elapsed:.2f}s < 1s")


def test_criterion_02_characteristics_vs_closed_form():
    start = time.perf_counter()
    spec = closed_forms.TwoPatchSpec(2, 1.0, 1.0, 2.0, 3.0)
    knots_r = np.array([0.0, 1.0, 2.0, 3.0, sqrt(2 * 11.0)])
    sol = burgers.CharacteristicSolution(
        2, knots_r**2 / 2, closed_forms.two_patch_state(spec, knots_r, 0.0).mass
    )
    sigma = np.linspace(0.0, 11.0, 4000)
    worst = 0.0
    for t in (1.0, 3.0):
        exact = closed_forms.two_patch_state(spec, (2 * sigma) ** 0.5, t).mass
        worst = max(worst, float(np.abs(burgers.evolve_characteristics(sol, t, sigma) - exact).max()))
    s_exact = np.array(spec.interfaces(3.0))
    s_got = burgers.interfaces_at(sol, 3.0)[1:4]
    iface = float(np.abs(s_got - s_exact).max())
    expected = (2.0, sqrt(7.0), 1.5 * sqrt(7.0))
    assert s_exact == pytest.approx(expected, abs=1e-14)
    elapsed = time.perf_counter() - start
    report("02 characteristics-vs-closed-form",
           worst <= 1e-10 and iface <= 1e-8 and elapsed < 5.0,
           f"mass error {worst:.2e} <= 1e-10, interface error {iface:.2e} <= 1e-8, "
           f"runtime {elapsed:.2f}s < 5s")


def test_criterion_03_finite_volume_convergence():
    start = time.perf_counter()
    spec = closed_forms.TwoPatchSpec(2, 1.0, 1.0, 2.0, 3.0)
    knots_r = np.array([0.0, 1.0, 2.0, 3.0, sqrt(2 * 11.0)])
    sol = burgers.CharacteristicSolution(
        2, knots_r**2 / 2, closed_forms.two_patch_state(spec, knots_r, 0.0).mass
    )
    t_end = 1.0
    errs, widths = [], []
    iface_cells = None
    for nodes in (256, 512, 1024):
        rgrid = RadialGrid(2, sqrt(2 * 11.0), nodes)
        m0 = burgers.evolve_to_mass_function(sol, 0.0, rgrid)
        m_end = burgers.run_finite_volume(m0, [t_end])[-1][1]
        exact = burgers.evolve_characteristics(sol, t_end, rgrid.sigma)
        errs.append(float(np.trapezoid(np.abs(m_end.values - exact), rgrid.sigma)))
        widths.append(rgrid.d_sigma)
        if nodes == 1024:
            u_fv = burgers.density_from_mass(m_end).values
            iface_cells = 0.0
            s1, _, s3 = spec.interfaces(t_end)
            for s_pos, level in ((s1, 1.0 / (t_end + spec.tau1)), (s3, 1.0 / (t_end + spec.tau2))):
                sig_star = s_pos**2 / 2
                below = np.where(u_fv < 0.5 * level)[0]
                below = below[below > np.searchsorted(rgrid.sigma, 0.5 * sig_star)]
                got = rgrid.sigma[below[0]]
                iface_cells = max(iface_cells, abs(got - sig_star) / rgrid.d_sigma)
    order = float(np.polyfit(np.log(widths), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - start
    report("03 finite-volume-convergence",
           order >= 0.8 and iface_cells <= 2.0 and elapsed < 30.0,
           f"observed order {order:.2f} >= 0.8, interfaces within {iface_cells:.2f} <= 2 cells, "
           f"runtime {elapsed:.1f}s < 30s")


def test_criterion_04_field_solver_patch(patch_run):
    traj = patch_run["traj"]
    grid = patch_run["grid"]
    spec = patch_run["spec"]
    drift = traj.mass_drift()
    worst_excess = max(
        support_radius(u) - spec.support_radius(rec.t) * (1 + 3 * grid.h)
        for rec, u in zip(traj.records[1:], patch_run["fields"][1:])
    )
    ok = drift <= 1e-9 and patch_run["l1"] <= 0.05 and worst_excess <= 0.0 and patch_run["elapsed"] < 300
    report("04 field-solver-patch", ok,
           f"mass drift {drift:.2e} <= 1e-9, relative L1 {patch_run['l1']:.3f} <= 0.05, "
           f"support excess {worst_excess:.4f} <= 0, runtime {patch_run['elapsed']:.0f}s < 300s")


def test_criterion_05_universal_bound(patch_run, gaussian_run):
    r_patch = patch_run["traj"].max_bound_ratio()
    r_gauss = gaussian_run["traj"].max_bound_ratio()
    report("05 universal-bound",
           r_patch <= 1.05 and r_gauss <= 1.05,
           f"max u*(t+tau): patch {r_patch:.4f}, gaussian {r_gauss:.4f}, both <= 1.05")


def test_criterion_06_energy_entropy_monotone(patch_run, gaussian_run):
    details = []
    ok = True
    for label, bundle in (("patch", patch_run), ("gaussian", gaussian_run)):
        traj = bundle["traj"]
        scale = _entropy_scale(total_mass(bundle["u0"]))
        for kind in ("entropy", "energy"):
            series = [getattr(r, kind) for r in traj.records]
            worst, good = _monotone_nonincreasing(series, scale)
            ok = ok and good
            details.append(f"{label} {kind} max increment {worst:.2e} (slack {1e-3 * scale:.1e})")
    # discrete dissipation identity on the gaussian run, away from the endpoints
    traj = gaussian_run["traj"]
    ents = [r.entropy for r in traj.records]
    times = [r.t for r in traj.records]
    worst_rel = 0.0
    for k in range(1, len(ents) - 1):
        rate = -(ents[k + 1] - ents[k - 1]) / (np.log1p(times[k + 1]) - np.log1p(times[k - 1]))
        worst_rel = max(worst_rel, abs(rate - traj.records[k].dissipation) / traj.records[k].dissipation)
    ok = ok and worst_rel <= 0.15
    details.append(f"dissipation identity off by {worst_rel:.3f} <= 0.15")
    report("06 energy-entropy-monotone", ok, "; ".join(details))


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the planar second moment grows at the exact virial rate "
    "M^2/(2 pi) (the expanding patch is a counterexample to constancy); see the corrected "
    "moment laws in the companion test",
)
def test_criterion_07_second_moment_constant(gaussian_run):
    traj = gaussian_run["traj"]
    m2 = [r.second_moment for r in traj.records]
    drift = max(abs(m - m2[0]) / m2[0] for m in m2)
    report("07 second-moment-constant", drift <= 0.01,
           f"raw second moment drift {drift:.3f} <= 0.01 over t in [0, 3]")


def test_criterion_07_corrected_moment_laws(gaussian_run):
    traj = gaussian_run["traj"]
    mass = total_mass(gaussian_run["u0"])
    m2 = traj.records[0].second_moment
    renorm_dev = max(abs(r.second_moment / (1 + r.t) - m2) / m2 for r in traj.records)
    virial_dev = max(
        abs(r.second_moment - (m2 + r.t * mass**2 / (2 * pi))) / m2 for r in traj.records
    )
    report("07b corrected-moment-laws",
           renorm_dev <= 0.01 and virial_dev <= 0.01,
           f"renormalized moment drift {renorm_dev:.4f} <= 0.01, "
           f"virial-line deviation {virial_dev:.4f} <= 0.01")


def test_criterion_08_non_comparison():
    start = time.perf_counter()
    spec = closed_forms.TwoPatchSpec(2, 1.0, 1.0, 2.0, 3.0)
    x0 = np.array([2.5, 0.0])
    small = closed_forms.PatchSpec(2, radius=0.1, tau=4.0, center=(2.5, 0.0))
    u1_closed = [closed_forms.two_patch_density_at_point(spec, x0, t) for t in (0.0, 3.0)]
    u2_closed = [float(closed_forms.patch_density(small, x0, t)) for t in (0.0, 3.0)]
    closed_ok = (
        u1_closed[0] == pytest.approx(0.25)
        and u1_closed[0] >= u2_closed[0]
        and u1_closed[1] == 0.0
        and u2_closed[1] == pytest.approx(1.0 / 7.0)
    )
    grid = CartesianGrid(2, 6.75, 432)
    u1_0 = field_from_function(
        grid, lambda p: closed_forms.two_patch_state(spec, np.linalg.norm(p, axis=-1), 0.0).density
    )
    u2_0 = field_from_function(grid, lambda p: closed_forms.patch_density(small, p, 0.0))
    cfg = solver.SolverConfig(output_times=(3.0,), cfl=0.45)
    tr1 = solver.run(cfg, u1_0)
    tr2 = solver.run(cfg, u2_0)
    x = grid.axis_centers()
    i = int(np.searchsorted(x, 2.5))
    j = int(np.searchsorted(x, 0.0))
    margin = float(tr2.last.values[i - 1:i + 1, j - 1:j + 1].mean()
                   - tr1.last.values[i - 1:i + 1, j - 1:j + 1].mean())
    elapsed = time.perf_counter() - start
    report("08 non-comparison",
           closed_ok and margin >= 0.05 and elapsed < 300,
           f"closed forms: u1(x0,0)=1/4 >= u2(x0,0), u1(x0,3)=0 < u2(x0,3)=1/7; "
           f"solver margin {margin:.3f} >= 0.05; runtime {elapsed:.0f}s < 300s")


def test_criterion_09_limit_toward_unit_exponent():
    start = time.perf_counter()
    # closed forms on a 512-point radial grid
    r = np.linspace(0.0, 3.0, 512)
    target = np.where(r <= diagnostics.equilibrium_radius(1.0, 2), 1.0, 0.0)
    dists = []
    for s in (0.6, 0.7, 0.8, 0.9, 0.95):
        spec = closed_forms.barenblatt_with_mass(2, s, mass=1.0)
        prof = closed_forms.barenblatt_density_radial(spec, r, 1.0)
        dists.append(float(np.trapezoid(np.abs(prof - target) * r, r) * 2 * pi))
    strictly = all(b < a for a, b in zip(dists, dists[1:]))
    # solver sweep on patch data
    grid = CartesianGrid(2, 4.0, 128)
    spec_p = closed_forms.PatchSpec(2, radius=1.0, tau=1.0)
    u0 = field_from_function(grid, lambda p: closed_forms.patch_density(spec_p, p, 0.0))
    cfg = solver.SolverConfig(output_times=(1.0,), cfl=0.45)
    rep = solver.sweep_s(cfg, u0, [0.7, 0.85, 1.0])
    elapsed = time.perf_counter() - start
    report("09 fractional-to-unit-limit",
           strictly and rep.nonincreasing and not rep.partial and elapsed < 600,
           f"closed-form distances strictly decreasing {['%.3f' % d for d in dists]}; "
           f"sweep distances nonincreasing {['%.3f' % d for d in rep.distances]}; "
           f"runtime {elapsed:.0f}s < 600s")


def test_criterion_10_wasserstein_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    rgrid = RadialGrid(2, 3.0, 64)

    def random_mass(total=None):
        inc = rng.random(rgrid.nodes - 1) * rng.random()
        vals = np.concatenate([[0.0], np.cumsum(inc)])
        if total is not None and vals[-1] > 0:
            vals *= total / vals[-1]
        return MassFunction(rgrid, vals)

    worst = 0.0
    for _ in range(20):
        m1 = random_mass()
        m2 = random_mass(total=m1.total)
        shipped = diagnostics.wasserstein_radial(m1, m2)
        q = (np.arange(400) + 0.5) * (m1.full_mass() / 400)
        r1 = diagnostics.quantile_radii(m1, q)
        r2 = diagnostics.quantile_radii(m2, q)
        cost = (r1[:, None] - r2[None, :]) ** 2
        rows, cols = linear_sum_assignment(cost)
        oracle = sqrt(cost[rows, cols].sum() * m1.full_mass() / 400)
        worst = max(worst, abs(shipped - oracle) / oracle)
    slack = 0.0
    for _ in range(10):
        ms = [random_mass(total=1.0) for _ in range(3)]
        d01 = diagnostics.wasserstein_radial(ms[0], ms[1])
        d10 = diagnostics.wasserstein_radial(ms[1], ms[0])
        d02 = diagnostics.wasserstein_radial(ms[0], ms[2])
        d12 = diagnostics.wasserstein_radial(ms[1], ms[2])
        slack = max(slack, abs(d01 - d10), d02 - (d01 + d12))
    elapsed = time.perf_counter() - start
    report("10 wasserstein-oracle",
           worst <= 0.01 and slack <= 1e-6 and elapsed < 60,
           f"quantile vs assignment gap {worst:.4f} <= 0.01, metric slack {slack:.1e} <= 1e-6, "
           f"runtime {elapsed:.0f}s < 60s")


def test_criterion_11_radial_asymptotics(radial_gaussian_run):
    rgrid = radial_gaussian_run["rgrid"]
    traj = radial_gaussian_run["traj"]
    m0 = radial_gaussian_run["m0"]
    r1 = (2 * m0.total) ** 0.5
    sups = []
    for t, m in traj[1:]:
        r_test = np.linspace(0.0, r1, 400)
        m_at = np.interp((r_test * t**0.5) ** 2 / 2, rgrid.sigma, m.values)
        sups.append(float(np.abs(r_test**2 / 2 - m_at).max()))
    decreasing = all(b < a for a, b in zip(sups, sups[1:]))
    t_fin, m_fin = traj[-1]
    u_fin = burgers.density_from_mass(m_fin)
    rho = np.linspace(0.005, r1, 400)
    u_hat = t_fin * np.interp(rho * t_fin**0.5, rgrid.r, u_fin.values)
    l1_dev = float(np.trapezoid(np.abs(u_hat - 1.0) * rho, rho) / (r1**2 / 2))
    elapsed = radial_gaussian_run["elapsed"]
    report("11 radial-asymptotics",
           decreasing and sups[-1] <= 0.1 * m0.total and l1_dev <= 0.1 and elapsed < 120,
           f"sup error decreasing to {sups[-1] / m0.total:.3f} M0 <= 0.1 M0 by t=50, "
           f"rescaled density L1 deviation {l1_dev:.3f} <= 0.1, runtime {elapsed:.0f}s < 120s")


def test_criterion_12_rate_inequalities(radial_gaussian_run):
    traj = radial_gaussian_run["traj"]
    rgrid = radial_gaussian_run["rgrid"]
    mono = burgers.check_monotone_inequalities(traj[1:], tol=1e-3)
    sat_traj = [
        (t, MassFunction(rgrid, closed_forms.largest_solution(rgrid.r, t, 2)[1]))
        for t in radial_gaussian_run["times"]
    ]
    sat = burgers.check_monotone_inequalities(sat_traj, tol=1e-12)
    report("12 rate-inequalities",
           mono.passed and sat.passed and sat.saturation_gap.max() <= 1e-12,
           f"upper excess {mono.upper_excess.max():.1e} <= 1e-3, "
           f"lower deficit {mono.lower_deficit.max():.1e} <= 1e-3, "
           f"largest-solution saturation {sat.saturation_gap.max():.1e} <= 1e-12")


def test_criterion_13_fundamental_solution():
    start = time.perf_counter()
    grid = CartesianGrid(2, 2.2, 512)
    vals = np.zeros(grid.shape)
    vals[256, 256] = pi / grid.cell_volume
    u0 = DensityField(grid, vals)
    cfg = solver.SolverConfig(output_times=(1.0, 3.0), cfl=0.45)
    fields = []
    traj = solver.run(cfg, u0, at_output=lambda t, u: fields.append(u))
    patch = closed_forms.PatchSpec(2, radius=1.0, tau=0.0)
    offset = np.array([grid.h / 2, grid.h / 2])  # live cell center
    worst_l1 = 0.0
    worst_height = 0.0
    for rec, u in zip(traj.records[1:], fields[1:]):
        t = rec.t
        exact = field_from_function(grid, lambda p: closed_forms.patch_density(patch, p - offset, t))
        worst_l1 = max(worst_l1, grid.cell_volume * float(np.abs(u.values - exact.values).sum()) / pi)
        worst_height = max(worst_height, float(u.values.max()) * t)  # the universal bound u <= 1/t
    elapsed = time.perf_counter() - start
    report("13 fundamental-solution",
           worst_l1 <= 0.08 and worst_height <= 1.05 and elapsed < 300,
           f"L1 distance to the expanding patch {worst_l1:.3f} <= 0.08 at t in {{1,3}}, "
           f"max u * t {worst_height:.4f} <= 1.05, runtime {elapsed:.0f}s < 300s")

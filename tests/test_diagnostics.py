import numpy as np
import pytest
from math import pi, sqrt

from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment, linprog

from vortexlab.burgers import mass_transform, run_finite_volume
from vortexlab.closed_forms import PatchSpec, patch_density, patch_mass
from vortexlab.diagnostics import (
    DiagnosticsRecord,
    asymptotic_error,
    entropy_and_dissipation,
    equilibrium_radius,
    mollified_reference,
    quantile_radii,
    wasserstein_continuity_check,
    wasserstein_radial,
    write_records_csv,
)
from vortexlab.grids import (
    CartesianGrid,
    DensityField,
    MassFunction,
    RadialGrid,
    RadialProfile,
    field_from_function,
    second_moment,
    support_radius,
    total_mass,
)
from vortexlab.potentials import potential_values
from vortexlab.scenarios import PATCH_DISSIPATION_PER_H, w2_continuity_constant
from test_solver import interior_faces, potential_faces


def patch_field(grid, t=0.0, radius=1.0, tau=1.0):
    spec = PatchSpec(2, radius=radius, tau=tau)
    return field_from_function(grid, lambda p: patch_density(spec, p, t))


def random_mass_function(rng, rgrid, total=None):
    inc = rng.random(rgrid.nodes - 1) * rng.random()
    vals = np.concatenate([[0.0], np.cumsum(inc)])
    if total is not None and vals[-1] > 0:
        vals *= total / vals[-1]
    return MassFunction(rgrid, vals)


class TestRenormalize:
    def test_patch_becomes_stationary_indicator(self):
        g = CartesianGrid(2, 6.0, 256)
        for t in (1.0, 4.0):
            u = patch_field(g, t=t)
            # U = (1+t) u against chi_{|y| <= 1}, with y = x / sqrt(1+t)
            a = sqrt(1.0 + t)
            target = (g.radius() <= a).astype(float)
            # identical up to the cells cut by the circle
            mismatch = np.abs((1.0 + t) * u.values - target) > 1e-12
            assert mismatch.mean() < 4 * g.h / a


class TestAsymptoticError:
    def test_exact_equilibrium(self):
        g = CartesianGrid(2, 2.0, 256)
        mass = pi * 0.8**2
        u = DensityField(g, (g.radius() <= equilibrium_radius(mass, 2)).astype(float))
        assert asymptotic_error(u, 0.0, mass) <= 4 * g.h

    def test_patch_error_flat_in_time(self):
        g = CartesianGrid(2, 6.0, 256)
        errs = []
        for t in (0.0, 3.0, 9.0):
            u = patch_field(g, t=t)
            errs.append(asymptotic_error(u, t, pi))
        assert max(errs) <= 6 * g.h


class TestEntropy:
    def test_dissipation_vanishes_at_equilibrium(self):
        g = CartesianGrid(2, 2.0, 256)
        u = DensityField(g, (g.radius() <= 1.0).astype(float))
        _, d = entropy_and_dissipation(u, 0.0, total_mass(u))
        assert d <= PATCH_DISSIPATION_PER_H * g.h

    def test_reference_mass_checked(self):
        g = CartesianGrid(2, 2.0, 64)
        u = DensityField(g, (g.radius() <= 1.0).astype(float))
        with pytest.raises(ValueError, match="reference mass"):
            entropy_and_dissipation(u, 0.0, 0.5 * total_mass(u))

    def test_entropy_independent_of_rotation(self):
        # quarter rotation permutes grid values; Ent built from radial pieces only
        g = CartesianGrid(2, 2.0, 64)
        rng = np.random.default_rng(3)
        vals = rng.random(g.shape) * (g.radius() <= 1.5)
        u = DensityField(g, vals)
        rot = DensityField(g, np.rot90(vals).copy())
        e1, d1 = entropy_and_dissipation(u, 0.0, total_mass(u))
        e2, d2 = entropy_and_dissipation(rot, 0.0, total_mass(u))
        assert e2 == pytest.approx(e1, rel=1e-10)
        assert d2 == pytest.approx(d1, rel=1e-10)


def y_grid_entropy_and_dissipation(u, t, mass):
    """Ent(U) and D(U) of U = (1+t) u on the contracted y-grid, y = x/sqrt(1+t):
    the direct evaluation in self-similar variables, kept as the reference for
    the evaluation on u's own grid.  D sums U |V - y/2|^2 over the faces, with V the
    face velocities of U and U, y averaged to each face."""
    yg = CartesianGrid(2, u.grid.half_width / sqrt(1.0 + t), u.grid.cells)
    big_u = DensityField(yg, (1.0 + t) * u.values)
    ref = mollified_reference(yg, mass).values
    cv = yg.cell_volume
    pairing = lambda vals: cv * float((vals * potential_values(yg, vals, 1.0)).sum())
    ent = 0.5 * (pairing(big_u.values) - pairing(ref)) + second_moment(big_u) / 4.0
    y = yg.axis_centers()
    face_y = 0.5 * (y[:-1] + y[1:])
    dis = 0.0
    for axis, v in enumerate(interior_faces(potential_faces(yg, big_u.values, 1.0))):
        lines, v = np.moveaxis(big_u.values, axis, -1), np.moveaxis(v, axis, -1)
        dis += float((0.5 * (lines[..., :-1] + lines[..., 1:]) * (v - face_y / 2.0) ** 2).sum())
    return ent, cv * dis


class TestEntropyOnRunGrid:
    @settings(max_examples=25, deadline=None)
    @given(
        cells=st.integers(8, 16).map(lambda k: 2 * k),
        half_width=st.floats(1.0, 4.0),
        t=st.floats(0.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_y_grid_evaluation(self, cells, half_width, t, seed):
        g = CartesianGrid(2, half_width, cells)
        rng = np.random.default_rng(seed)
        u = DensityField(g, rng.random(g.shape) * (g.radius() <= half_width / 2))
        mass = total_mass(u)
        ent, dis = entropy_and_dissipation(u, t, mass)
        ent_y, dis_y = y_grid_entropy_and_dissipation(u, t, mass)
        floor = 1e-12 * mass * equilibrium_radius(mass, 2) ** 2 / 4
        assert ent == pytest.approx(ent_y, rel=1e-12, abs=floor)
        assert dis == pytest.approx(dis_y, rel=1e-12, abs=floor)


def atoms_from_mass_function(m, k=400):
    """Equal-mass quantile atomization used by the assignment oracle."""
    total = m.full_mass()
    q = (np.arange(k) + 0.5) * (total / k)
    return quantile_radii(m, q), total / k


class TestWassersteinRadial:
    def test_identical_inputs(self):
        rg = RadialGrid(2, 4.0, 64)
        m = MassFunction(rg, np.minimum(rg.sigma, 1.0))
        assert wasserstein_radial(m, m) == 0.0

    def test_point_mass_versus_disk(self):
        # W2^2 to a point at the origin equals the disk's full second moment m R^2/2;
        # the atom is resolved at node width, so the tolerance scales with r_1
        rg = RadialGrid(2, 2.0, 4096)
        t, radius = 2.0, 1.5
        disk = MassFunction(rg, np.minimum(rg.sigma / t, radius**2 / (2 * t)))
        point_vals = np.full(rg.nodes, disk.total)
        point_vals[0] = 0.0  # atom sits just above the origin node
        point = MassFunction(rg, point_vals)
        full = disk.full_mass()
        got = wasserstein_radial(disk, point)
        assert got**2 == pytest.approx(full * radius**2 / 2, rel=3 * rg.r[1])

    def test_mass_mismatch_rejected(self):
        rg = RadialGrid(2, 4.0, 64)
        m1 = MassFunction(rg, np.minimum(rg.sigma, 1.0))
        m2 = MassFunction(rg, 0.5 * np.minimum(rg.sigma, 1.0))
        with pytest.raises(ValueError):
            wasserstein_radial(m1, m2)

    def test_agrees_with_assignment_oracle(self):
        # quantile formula vs brute-force optimal assignment on equal atoms
        rng = np.random.default_rng(42)
        rg = RadialGrid(2, 3.0, 64)
        for _ in range(20):
            m1 = random_mass_function(rng, rg, total=1.0)
            m2 = random_mass_function(rng, rg, total=1.0)
            shipped = wasserstein_radial(m1, m2)
            r1, w = atoms_from_mass_function(m1)
            r2, _ = atoms_from_mass_function(m2)
            cost = (r1[:, None] - r2[None, :]) ** 2
            rows, cols = linear_sum_assignment(cost)
            oracle = sqrt(cost[rows, cols].sum() * w)
            assert shipped == pytest.approx(oracle, rel=0.01)

    def test_agrees_with_transport_linear_program(self):
        # unequal atoms: full LP over couplings vs the monotone-coupling value
        rng = np.random.default_rng(7)
        for _ in range(5):
            k = 12
            r1 = np.sort(rng.random(k)) * 3
            r2 = np.sort(rng.random(k)) * 3
            w1 = rng.random(k); w1 /= w1.sum()
            w2 = rng.random(k); w2 /= w2.sum()
            cost = ((r1[:, None] - r2[None, :]) ** 2).ravel()
            a_eq = []
            for i in range(k):
                row = np.zeros((k, k)); row[i, :] = 1
                a_eq.append(row.ravel())
            for j in range(k):
                row = np.zeros((k, k)); row[:, j] = 1
                a_eq.append(row.ravel())
            res = linprog(cost, A_eq=np.array(a_eq), b_eq=np.concatenate([w1, w2]),
                          bounds=(0, None), method="highs")
            assert res.status == 0
            # monotone coupling value on the same atoms via shared quantile grid
            f1 = np.concatenate([[0], np.cumsum(w1)])
            f2 = np.concatenate([[0], np.cumsum(w2)])
            qs = np.unique(np.concatenate([f1, f2]))
            mids = 0.5 * (qs[1:] + qs[:-1])
            dm = np.diff(qs)
            q_of = lambda f, r, m: r[np.clip(np.searchsorted(f, m, side="left") - 1, 0, k - 1)]
            monotone = (dm * (q_of(f1, r1, mids) - q_of(f2, r2, mids)) ** 2).sum()
            assert monotone == pytest.approx(res.fun, rel=1e-6, abs=1e-12)

    def test_metric_axioms(self):
        rng = np.random.default_rng(11)
        rg = RadialGrid(2, 3.0, 64)
        for _ in range(10):
            m1 = random_mass_function(rng, rg, total=2.0)
            m2 = random_mass_function(rng, rg, total=2.0)
            m3 = random_mass_function(rng, rg, total=2.0)
            d12 = wasserstein_radial(m1, m2)
            d21 = wasserstein_radial(m2, m1)
            d13 = wasserstein_radial(m1, m3)
            d23 = wasserstein_radial(m2, m3)
            assert d12 == pytest.approx(d21, abs=1e-12)
            assert d13 <= d12 + d23 + 1e-6
            assert wasserstein_radial(m1, m1) <= 1e-12

    def test_patch_pair_closed_form(self):
        # W2 between two times of the expanding patch: the quantile integral has
        # the closed value (n M_rad)^{1/n} sqrt(n M_full/(n+2)) (t2^{1/n}-t1^{1/n})
        spec = PatchSpec(2, 1.0, tau=0.0)
        rg = RadialGrid(2, 12.0, 2048)
        t1, t2 = 1.0, 4.0
        m1 = MassFunction(rg, patch_mass(spec, rg.r, t1))
        m2 = MassFunction(rg, patch_mass(spec, rg.r, t2))
        m_rad = spec.radial_total()
        full = spec.full_mass()
        expected = (2 * m_rad) ** 0.5 * sqrt(2 * full / 4) * (sqrt(t2) - sqrt(t1))
        assert wasserstein_radial(m1, m2) == pytest.approx(expected, rel=1e-3)


class TestContinuityCheck:
    def test_patch_saturates_modulus(self):
        spec = PatchSpec(2, 1.0, tau=0.0)
        rg = RadialGrid(2, 12.0, 1024)
        traj = [(t, MassFunction(rg, patch_mass(spec, rg.r, t))) for t in (1.0, 2.0, 4.0, 8.0)]
        c = w2_continuity_constant(2, spec.radial_total())
        rep = wasserstein_continuity_check(traj, c)
        assert rep.passed
        assert rep.max_ratio > 0.85  # the bound is nearly sharp on the patch family

    def test_coincident_times_rejected(self):
        rg = RadialGrid(2, 3.0, 32)
        m = MassFunction(rg, np.minimum(rg.sigma, 1.0))
        with pytest.raises(ValueError):
            wasserstein_continuity_check([(1.0, m), (1.0, m)], 1.0)

    def test_gaussian_relaxation_within_bound(self):
        rg = RadialGrid(2, 10.0, 1024)
        u0 = RadialProfile(rg, np.exp(-rg.r**2))
        m0 = mass_transform(u0)
        traj = run_finite_volume(m0, [1.0, 2.0, 4.0, 8.0])
        rep = wasserstein_continuity_check(traj[1:], w2_continuity_constant(2, m0.total))
        assert rep.passed


class TestRecordsCsv:
    def test_column_order_and_blanks(self, tmp_path):
        rec = DiagnosticsRecord(
            t=1.0, mass=2.0, l1_norm=2.0, l2_norm=1.0, linf_norm=0.5,
            second_moment=0.7, support_radius=1.5, sup_bound_ratio=1.0,
        )
        path = tmp_path / "records.csv"
        write_records_csv([rec], path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(DiagnosticsRecord.COLUMNS)
        cells = lines[1].split(",")
        assert cells[0] == "1"
        assert cells[5] == ""  # energy not computed at the basic level


class TestLongHorizonRelaxation:
    def test_gaussian_field_relaxes_to_indicator(self):
        # field run to t = 49 (tau = log 50): the renormalized profile settles
        # within 0.1*M of the equal-mass indicator, and the error decreases
        from vortexlab.solver import SolverConfig, run

        grid = CartesianGrid(2, 5.5, 256)
        width_sq = 1.0 / (4 * pi)
        u0 = field_from_function(
            grid, lambda p: 2.0 * np.exp(-(p**2).sum(axis=-1) / (2 * width_sq))
        )
        cfg = SolverConfig(output_times=(4.0, 15.0, 49.0), cfl=0.45)
        fields = []
        traj = run(cfg, u0, at_output=lambda t, u: fields.append(u))
        mass = total_mass(u0)
        errs = [
            asymptotic_error(u, rec.t, mass)
            for rec, u in zip(traj.records[1:], fields[1:])
        ]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 0.1 * mass


class TestAsymptoticErrorScaling:
    def test_joint_homogeneity(self):
        # scaling the density and the mass parameter together scales the error
        g = CartesianGrid(2, 2.0, 128)
        u = DensityField(g, np.exp(-g.radius() ** 2 * 3))
        lam = 2.5
        scaled = DensityField(g, lam * u.values)
        mass = total_mass(u)
        base = asymptotic_error(u, 0.0, mass)
        # the indicator target changes with the mass parameter, so rebuild it at lam*mass
        got = asymptotic_error(scaled, 0.0, lam * mass)
        # equality is not exact: the target radius moves; check 1-homogeneity of the integrand
        u_same_radius = asymptotic_error(scaled, 0.0, mass)
        direct = g.cell_volume * float(
            np.abs(lam * u.values - (g.radius() <= equilibrium_radius(mass, 2))).sum()
        )
        assert u_same_radius == pytest.approx(direct, rel=1e-12)
        assert got > 0 and base > 0


class TestPatchRecordTable:
    def test_closed_form_patch_diagnostics_over_time(self):
        # sampling the expanding patch itself: mass constant, height exactly
        # 1/(t+1), support on the growth law, dissipation at grid-noise level
        spec = PatchSpec(2, radius=1.0, tau=1.0)
        grid = CartesianGrid(2, 4.0, 256)
        masses, supports = [], []
        for t in (0.0, 1.0, 3.0, 10.0):
            u = field_from_function(grid, lambda p: patch_density(spec, p, t))
            masses.append(total_mass(u))
            assert u.values.max() == 1.0 / (t + 1.0)  # same float expression
            supports.append(support_radius(u))
            _, d = entropy_and_dissipation(u, t, masses[-1])
            assert d <= PATCH_DISSIPATION_PER_H * grid.h
        for t, s in zip((0.0, 1.0, 3.0, 10.0), supports):
            assert s == pytest.approx(spec.support_radius(t), abs=1.5 * grid.h)
        assert max(masses) - min(masses) <= 3 * grid.h

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_grids import reference_write_csv

from vortexlab.burgers import (
    CFLError,
    CharacteristicSolution,
    check_monotone_inequalities,
    density_from_mass,
    dirac_solution,
    evolve_characteristics,
    evolve_characteristics_bisection,
    evolve_to_mass_function,
    interfaces_at,
    check_reach,
    check_times,
    mass_transform,
    radial_speed_values,
    run_finite_volume,
    step_finite_volume,
    write_radial_trajectory_csv,
)
from vortexlab.closed_forms import PatchSpec, TwoPatchSpec, largest_solution, patch_mass, two_patch_state
from vortexlab.grids import MassFunction, RadialGrid, RadialProfile

TWO_PATCH = TwoPatchSpec(2, 1.0, 1.0, 2.0, 3.0)


def two_patch_solution(sigma_max=12.0):
    # the t=0 mass function is piecewise linear in sigma with knots at R1, R2, R3
    spec = TWO_PATCH
    knots_r = np.array([0.0, spec.r1, spec.r2, spec.r3, (2 * sigma_max) ** 0.5])
    sigma = knots_r**2 / 2
    mass = two_patch_state(spec, knots_r, 0.0).mass
    return CharacteristicSolution(2, sigma, mass)


class TestMassTransform:
    def test_zero_profile(self):
        rg = RadialGrid(2, 2.0, 64)
        m = mass_transform(RadialProfile(rg, np.zeros(64)))
        np.testing.assert_array_equal(m.values, 0.0)

    def test_indicator_profile(self):
        # u = 1 on r <= 1 in n=2: M(sigma) = min(sigma, 1/2)
        rg = RadialGrid(2, 2.0, 2048)
        u = RadialProfile(rg, (rg.r <= 1.0).astype(float))
        m = mass_transform(u)
        expected = np.minimum(rg.sigma, 0.5)
        assert np.abs(m.values - expected).max() < rg.d_sigma

    def test_patch_profile(self):
        spec = PatchSpec(2, 1.0, tau=0.0)
        t = 2.0
        rg = RadialGrid(2, 3.0, 1024)
        u = RadialProfile(rg, np.where(rg.r <= spec.support_radius(t), 1.0 / t, 0.0))
        m = mass_transform(u)
        expected = np.minimum(rg.sigma / t, spec.radial_total())
        assert np.abs(m.values - expected).max() < rg.d_sigma

    def test_round_trip(self):
        rg = RadialGrid(2, 3.0, 512)
        u = RadialProfile(rg, np.exp(-rg.r**2))
        back = density_from_mass(mass_transform(u))
        assert np.abs(back.values - u.values).max() < 5 * rg.d_sigma


class TestDensityFromMass:
    def test_constant_mass(self):
        rg = RadialGrid(2, 2.0, 64)
        m = MassFunction(rg, np.zeros(64))
        np.testing.assert_array_equal(density_from_mass(m).values, 0.0)

    def test_capped_linear(self):
        rg = RadialGrid(2, 3.0, 512)
        t = 2.0
        m = MassFunction(rg, np.minimum(rg.sigma / t, 1.0))
        u = density_from_mass(m)
        cap = np.searchsorted(rg.sigma, t * 1.0)
        inside = np.arange(512) < cap - 1
        outside = np.arange(512) > cap + 1
        np.testing.assert_allclose(u.values[inside], 1 / t, rtol=1e-12)
        np.testing.assert_allclose(u.values[outside], 0.0, atol=1e-12)

    def test_two_patch_heights(self):
        rg = RadialGrid(2, 4.0, 2048)
        m = MassFunction(rg, two_patch_state(TWO_PATCH, rg.r, 0.0).mass)
        u = density_from_mass(m)
        r = rg.r
        np.testing.assert_allclose(u.values[(r > 0.1) & (r < 0.9)], 1.0, atol=0.02)
        np.testing.assert_allclose(u.values[(r > 1.1) & (r < 1.9)], 0.0, atol=0.02)
        np.testing.assert_allclose(u.values[(r > 2.1) & (r < 2.9)], 0.25, atol=0.02)


class TestRadialSpeed:
    def test_zero_mass(self):
        rg = RadialGrid(2, 2.0, 32)
        v = radial_speed_values(MassFunction(rg, np.zeros(32)))
        np.testing.assert_array_equal(v, 0.0)

    def test_patch_interior_speed(self):
        # M = sigma/t inside the support: v = r/(n t)
        spec = PatchSpec(2, 1.0, tau=0.0)
        t = 2.0
        rg = RadialGrid(2, 3.0, 256)
        m = MassFunction(rg, patch_mass(spec, rg.r, t))
        v = radial_speed_values(m)
        inside = (rg.r > 0) & (rg.r < spec.support_radius(t))
        np.testing.assert_allclose(v[inside], rg.r[inside] / (2 * t), rtol=1e-12)

    def test_two_patch_speed_piecewise_form(self):
        # v is continuous: r/(n(t+tau1)) inside, plateau/r across the vacuum,
        # r/(n(t+tau2)) in the annulus, total/r outside
        spec = TwoPatchSpec(2, 1.0, 1.0, 2.0, 3.0)
        rg = RadialGrid(2, 6.0, 4096)
        t = 1.0
        s1, s2, s3 = spec.interfaces(t)
        m = MassFunction(rg, two_patch_state(spec, rg.r, t).mass)
        v = radial_speed_values(m)
        r = rg.r
        plateau = spec.c1 * spec.r1**2 / 2
        expected = np.select(
            [r <= s1, r <= s2, r <= s3],
            [r / (2 * (t + spec.tau1)), plateau / np.maximum(r, 1e-12),
             r / (2 * (t + spec.tau2))],
            default=spec.radial_total() / np.maximum(r, 1e-12),
        )
        np.testing.assert_allclose(v[1:], expected[1:], rtol=1e-10)
        jumps = np.abs(np.diff(v[1:]))  # away from the origin node the profile is continuous
        assert jumps.max() < 0.02

    def test_origin_value(self):
        rg = RadialGrid(2, 2.0, 32)
        v = radial_speed_values(MassFunction(rg, rg.sigma.copy()))
        assert v[0] == 0.0


class TestCharacteristics:
    def test_identity_at_time_zero(self):
        sol = two_patch_solution()
        sigma = np.linspace(0, 10, 301)
        expected = two_patch_state(TWO_PATCH, (2 * sigma) ** 0.5, 0.0).mass
        np.testing.assert_allclose(evolve_characteristics(sol, 0.0, sigma), expected, atol=1e-14)

    def test_dirac_opens_rarefaction(self):
        total = 0.5
        sol = dirac_solution(total, 2, sigma_max=20.0)
        sigma = np.linspace(0, 15, 400)
        for t in (0.5, 1.0, 3.0):
            expected = np.minimum(sigma / t, total)
            np.testing.assert_allclose(evolve_characteristics(sol, t, sigma), expected, atol=1e-13)

    def test_two_patch_matches_closed_form(self):
        sol = two_patch_solution()
        sigma = np.linspace(0, 11, 700)
        for t in (1.0, 3.0):
            expected = two_patch_state(TWO_PATCH, (2 * sigma) ** 0.5, t).mass
            got = evolve_characteristics(sol, t, sigma)
            assert np.abs(got - expected).max() < 1e-10

    def test_interfaces_recovered(self):
        sol = two_patch_solution()
        r = interfaces_at(sol, 3.0)
        s1, s2, s3 = TWO_PATCH.interfaces(3.0)
        # knots: origin, R1, R2, R3, domain end
        assert abs(r[1] - s1) < 1e-12
        assert abs(r[2] - s2) < 1e-12
        assert abs(r[3] - s3) < 1e-12

    def test_bisection_agrees_with_knot_transport(self):
        sol = two_patch_solution()
        rng = np.random.default_rng(11)
        for _ in range(50):
            t = rng.uniform(0, 4)
            sigma = rng.uniform(0, 11)
            a = evolve_characteristics(sol, t, sigma)
            b = evolve_characteristics_bisection(sol, t, sigma)
            assert abs(float(a) - b) < 1e-9

    def test_bisection_in_rarefaction_fan(self):
        sol = dirac_solution(1.0, 2, sigma_max=10.0)
        t = 2.0
        for sigma in (0.3, 1.0, 1.9):
            assert evolve_characteristics_bisection(sol, t, sigma) == pytest.approx(sigma / t, abs=1e-9)

    def test_monotone_in_sigma(self):
        sol = two_patch_solution()
        sigma = np.linspace(0, 11, 500)
        for t in (0.5, 2.0, 8.0):
            vals = evolve_characteristics(sol, t, sigma)
            assert np.all(np.diff(vals) >= -1e-14)

    def test_nonincreasing_in_time(self):
        sol = two_patch_solution()
        sigma = np.linspace(0.01, 11, 300)
        prev = evolve_characteristics(sol, 0.0, sigma)
        for t in (0.5, 1.0, 2.0, 4.0, 8.0):
            cur = evolve_characteristics(sol, t, sigma)
            assert np.all(cur <= prev + 1e-14)
            prev = cur

    def test_comparison_principle_random_pairs(self):
        rng = np.random.default_rng(2024)
        sigma = np.linspace(0, 5, 40)
        queries = np.linspace(0, 8, 150)
        for _ in range(20):
            inc_a = rng.random(39)
            inc_b = inc_a + rng.random(39) * 0.5  # pointwise larger increments
            ma = np.concatenate([[0], np.cumsum(inc_a)])
            mb = np.concatenate([[0], np.cumsum(inc_b)])
            sol_a = CharacteristicSolution(2, sigma, ma)
            sol_b = CharacteristicSolution(2, sigma, mb)
            t = rng.uniform(0, 3)
            va = evolve_characteristics(sol_a, t, queries)
            vb = evolve_characteristics(sol_b, t, queries)
            assert np.all(va <= vb + 1e-12)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            evolve_characteristics(two_patch_solution(), -1.0, 0.5)


class TestFiniteVolume:
    def test_constant_state_unchanged(self):
        rg = RadialGrid(2, 3.0, 64)
        vals = np.full(64, 2.0)
        vals[0] = 0.0  # mass functions vanish at the origin
        # uniform advection of the flat part: interior nodes keep their value
        m = MassFunction(rg, np.concatenate([[0.0], np.full(63, 2.0)]))
        stepped = step_finite_volume(m, 0.4 * rg.d_sigma / 2.0)
        np.testing.assert_allclose(stepped.values[2:], 2.0, rtol=1e-14)

    def test_cfl_violation_raises(self):
        rg = RadialGrid(2, 3.0, 64)
        m = MassFunction(rg, np.linspace(0, 3, 64))
        with pytest.raises(CFLError):
            step_finite_volume(m, 10.0)

    def test_monotone_preserved(self):
        rng = np.random.default_rng(5)
        rg = RadialGrid(2, 3.0, 128)
        m = MassFunction(rg, np.concatenate([[0.0], np.cumsum(rng.random(127))]))
        dt = 0.9 * rg.d_sigma / m.values.max()
        for _ in range(20):
            m = step_finite_volume(m, dt)
            assert np.all(np.diff(m.values) >= -1e-12)
            assert m.values.min() >= -1e-12
            assert m.values.max() <= m.total + 1e-12

    def test_first_order_convergence_to_characteristics(self):
        sol = two_patch_solution()
        t_end = 1.0
        errs, widths = [], []
        for nodes in (256, 512, 1024):
            rg = RadialGrid(2, (2 * 11.0) ** 0.5, nodes)
            m0 = evolve_to_mass_function(sol, 0.0, rg)
            traj = run_finite_volume(m0, [t_end])
            exact = evolve_characteristics(sol, t_end, rg.sigma)
            errs.append(np.trapezoid(np.abs(traj[-1][1].values - exact), rg.sigma))
            widths.append(rg.d_sigma)
        order = np.polyfit(np.log(widths), np.log(errs), 1)[0]
        assert order >= 0.8

    def test_density_bound_after_evolution(self):
        # u = dM/dsigma <= 1/t + O(dsigma)
        sol = two_patch_solution()
        rg = RadialGrid(2, (2 * 11.0) ** 0.5, 1024)
        m0 = evolve_to_mass_function(sol, 0.0, rg)
        for t, m in run_finite_volume(m0, [0.5, 1.0, 2.0])[1:]:
            u = density_from_mass(m)
            assert u.values.max() <= 1.0 / t + 5 * rg.d_sigma + 0.02

    def test_reach_admits_runs_that_keep_the_mass(self):
        # the outer interface leaves sigma = r3^2/2 at the speed M_total
        sol = two_patch_solution()
        t_fit = (sol.sigma_knots[-1] - TWO_PATCH.r3**2 / 2) / sol.total
        check_reach(sol.sigma_knots, sol.mass_knots, 0.99 * t_fit)
        with pytest.raises(ValueError, match="leaves the radial grid"):
            check_reach(sol.sigma_knots, sol.mass_knots, 1.01 * t_fit)

    def test_reach_of_a_gaussian_profile(self):
        # u = exp(-sigma/w)/w has M = 1 - exp(-sigma/w), which reaches (1 - 1e-12) of the
        # total at sigma_q = w ln(1e12); from there the mass moves at most t M_total = t
        w = 2.0
        rg = RadialGrid(2, 12.0, 4096)
        m = mass_transform(RadialProfile(rg, np.exp(-rg.sigma / w) / w))
        t_fit = rg.sigma[-1] - w * np.log(1e12)
        check_reach(rg.sigma, m.values, t_fit - 2 * rg.d_sigma)
        with pytest.raises(ValueError, match="leaves the radial grid"):
            check_reach(rg.sigma, m.values, t_fit + 2 * rg.d_sigma)


    def test_tiny_snapshot_time_is_stepped_to(self):
        # the guard is relative to the snapshot time, so a time below an absolute
        # tolerance still gets its one step of that size
        rg = RadialGrid(2, (2 * 11.0) ** 0.5, 256)
        m0 = evolve_to_mass_function(two_patch_solution(), 0.0, rg)
        traj = run_finite_volume(m0, [1e-15, 1.0])
        assert [t for t, _ in traj] == [0.0, 1e-15, 1.0]
        np.testing.assert_array_equal(traj[1][1].values, step_finite_volume(m0, 1e-15).values)
        assert not np.array_equal(traj[1][1].values, m0.values)

    @pytest.mark.parametrize("times", [[2.0, 1.0], [1.0, 1.0], [0.0, 1.0], []],
                             ids=["unsorted", "repeated", "zero", "empty"])
    def test_snapshot_times_are_not_sorted_silently(self, times):
        m0 = evolve_to_mass_function(two_patch_solution(), 0.0, RadialGrid(2, 4.0, 64))
        with pytest.raises(ValueError, match="positive, strictly increasing"):
            run_finite_volume(m0, times)


class TestCheckTimes:
    def test_admits_positive_increasing_times(self):
        assert check_times([1, 2.5], 2, "times") == [1.0, 2.5]
        assert check_times((0.5,), 1, "times") == [0.5]

    @pytest.mark.parametrize("times, least", [
        ([1.0], 2), ([], 1), ([0.0, 1.0], 1), ([-1.0], 1), ([1.0, 1.0], 1), ([2.0, 1.0], 1),
        ([1.0, float("nan"), 2.0], 1), ([float("nan")], 1),
        ([float("inf")], 1), ([1.0, 1.0 + 1e-13], 1),
    ])
    def test_rejects_others_by_name(self, times, least):
        with pytest.raises(ValueError, match=f"radial_times must hold at least {least} positive"):
            check_times(times, least, "radial_times")


class TestMonotoneInequalities:
    def test_largest_solution_saturates(self):
        rg = RadialGrid(2, 3.0, 64)
        times = [1.0, 1.5, 2.0, 3.0]
        traj = [(t, MassFunction(rg, largest_solution(rg.r, t, 2)[1])) for t in times]
        report = check_monotone_inequalities(traj, tol=1e-12)
        assert report.passed
        assert report.saturation_gap.max() <= 1e-12

    def test_patch_mass_decreases(self):
        spec = PatchSpec(2, 1.0, tau=1.0)
        rg = RadialGrid(2, 6.0, 128)
        times = [1.0, 2.0, 4.0]
        traj = [(t, MassFunction(rg, patch_mass(spec, rg.r, t))) for t in times]
        report = check_monotone_inequalities(traj, tol=1e-9)
        assert report.passed
        assert report.upper_excess.max() <= 0.0

    def test_constant_trajectory_passes(self):
        rg = RadialGrid(2, 3.0, 32)
        m = MassFunction(rg, np.minimum(rg.sigma, 1.0))
        report = check_monotone_inequalities([(1.0, m), (2.0, m)], tol=1e-9)
        assert report.passed

    def test_requires_positive_increasing_times(self):
        rg = RadialGrid(2, 3.0, 32)
        m = MassFunction(rg, np.minimum(rg.sigma, 1.0))
        with pytest.raises(ValueError):
            check_monotone_inequalities([(0.0, m), (1.0, m)])


class TestTrajectoryCsv:
    def test_columns_and_rows(self, tmp_path):
        rg = RadialGrid(2, 3.0, 32)
        m = MassFunction(rg, np.minimum(rg.sigma, 1.0))
        path = tmp_path / "traj.csv"
        write_radial_trajectory_csv([(1.0, m), (2.0, m)], path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,sigma,r,M,u,v"
        assert len(lines) == 1 + 2 * 32

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 3),
        r_max=st.floats(1e-3, 1e3),
        nodes=st.integers(16, 300),
        times=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_value_writer(self, tmp_path_factory, n, r_max, nodes, times, seed):
        # several snapshots on one grid, so writes of one snapshot each follow one
        # another; values over many binades and exact zeros
        rg = RadialGrid(n, r_max, nodes)
        rng = np.random.default_rng(seed)
        trajectory = []
        for t in times:
            inc = rng.random(nodes - 1) * 10.0 ** rng.integers(-300, 250, size=nodes - 1)
            inc[rng.random(nodes - 1) < 0.2] = 0.0
            trajectory.append((t, MassFunction(rg, np.concatenate([[0.0], np.cumsum(inc)]))))
        base = tmp_path_factory.mktemp("radial")
        write_radial_trajectory_csv(trajectory, base / "got.csv")
        rows = [row for t, m in trajectory for row in zip(
            [t] * nodes, rg.sigma, rg.r, m.values, density_from_mass(m).values, radial_speed_values(m))]
        reference_write_csv(base / "want.csv", ["t", "sigma", "r", "M", "u", "v"], rows)
        assert (base / "got.csv").read_bytes() == (base / "want.csv").read_bytes()


class TestOneDimensionalTransform:
    def test_sigma_equals_radius(self):
        # n=1: sigma = r, the transform needs no symmetry machinery
        rg = RadialGrid(1, 3.0, 512)
        np.testing.assert_allclose(rg.sigma, rg.r)
        u = RadialProfile(rg, (rg.r <= 1.0).astype(float))
        m = mass_transform(u)
        assert np.abs(m.values - np.minimum(rg.sigma, 1.0)).max() < rg.d_sigma

    def test_characteristics_generic_dimension(self):
        # the evolution machinery only sees sigma, so any n >= 1 works
        for n in (1, 3):
            sol = dirac_solution(1.0, n, sigma_max=10.0)
            sigma = np.linspace(0, 8, 100)
            np.testing.assert_allclose(
                evolve_characteristics(sol, 2.0, sigma), np.minimum(sigma / 2.0, 1.0), atol=1e-13
            )


class TestCatalogueSelfConsistency:
    # every closed-form solution, sampled as monotone data and advanced by the
    # characteristic solver, must reproduce its own later-time formula up to
    # the interpolation error of the sampling grid

    def test_patch_advances_onto_itself(self):
        spec = PatchSpec(2, 1.3, tau=0.7)
        sigma = np.linspace(0.0, 8.0, 400)
        r = (2 * sigma) ** 0.5
        t0, t1 = 0.5, 2.5
        sol = CharacteristicSolution(2, sigma, patch_mass(spec, r, t0))
        queries = np.linspace(0.0, 10.0, 700)
        got = evolve_characteristics(sol, t1 - t0, queries)
        expected = patch_mass(spec, (2 * queries) ** 0.5, t1)
        # the cap kink falls between sample knots, so the error is one-cell interpolation
        assert np.abs(got - expected).max() <= sigma[1] - sigma[0]

    def test_largest_solution_advances_onto_itself(self):
        sigma = np.linspace(0.0, 6.0, 64)
        t0, t1 = 1.0, 4.0
        _, m0 = largest_solution((2 * sigma) ** 0.5, t0, 2)
        sol = CharacteristicSolution(2, sigma, m0)
        queries = np.linspace(0.0, 6.0, 200)
        got = evolve_characteristics(sol, t1 - t0, queries)
        _, expected = largest_solution((2 * queries) ** 0.5, t1, 2)
        # linear data: the transport is exact, no interpolation error at all
        inside = queries <= sigma[-1] * t1 / t0  # image of the sampled window
        np.testing.assert_allclose(got[inside], expected[inside], atol=1e-13)

    def test_two_patch_advances_between_times(self):
        spec = TwoPatchSpec(2, 1.0, 1.0, 2.0, 3.0)
        rg = RadialGrid(2, (2 * 11.0) ** 0.5, 2048)
        t0, t1 = 1.0, 3.0
        m0 = MassFunction(rg, two_patch_state(spec, rg.r, t0).mass)
        sol = CharacteristicSolution(2, rg.sigma, m0.values)
        queries = np.linspace(0.0, 11.0, 900)
        got = evolve_characteristics(sol, t1 - t0, queries)
        expected = two_patch_state(spec, (2 * queries) ** 0.5, t1).mass
        assert np.abs(got - expected).max() <= 2 * rg.d_sigma

import numpy as np
import pytest
from math import pi, sqrt

from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from vortexlab.closed_forms import (
    BarenblattSpec,
    PatchSpec,
    TwoPatchSpec,
    barenblatt_density_radial,
    barenblatt_full_mass,
    barenblatt_support_radius,
    barenblatt_with_mass,
    largest_solution,
    patch_density,
    patch_mass,
    two_patch_state,
)
from vortexlab.grids import sphere_area

# Standard two-patch configuration used throughout: n=2, c1=1, R1=1, R2=2, R3=3,
# which forces c2=1/4, tau1=1, tau2=4.
TWO_PATCH = TwoPatchSpec(2, 1.0, 1.0, 2.0, 3.0)


def _quadrature_mass(spec, t):
    """Independent reference for the Beta-function mass: quadrature of the radial profile."""
    val, _ = quad(
        lambda r: barenblatt_density_radial(spec, r, t) * r ** (spec.n - 1),
        0.0,
        barenblatt_support_radius(spec, t),
        limit=200,
    )
    return sphere_area(spec.n) * val


class TestPatch:
    def test_height_and_support_at_zero(self):
        spec = PatchSpec(2, radius=1.0, tau=1.0)
        assert patch_density(spec, np.zeros(2), 0.0) == 1.0
        assert spec.support_radius(0.0) == 1.0

    def test_height_and_support_at_one(self):
        spec = PatchSpec(2, radius=1.0, tau=1.0)
        assert patch_density(spec, np.zeros(2), 1.0) == 0.5
        assert spec.support_radius(1.0) == pytest.approx(sqrt(2.0))

    def test_mass_constant_in_time(self):
        spec = PatchSpec(2, radius=1.0, tau=1.0)
        assert spec.full_mass() == pytest.approx(pi)
        for t in (0.0, 1.0, 7.5):
            # integrate the profile: height * omega_n * S(t)^n
            m = spec.height(t) * pi * spec.support_radius(t) ** 2
            assert m == pytest.approx(pi, rel=1e-14)

    def test_outside_support_is_zero(self):
        spec = PatchSpec(2, radius=1.3, tau=0.5)
        for t in (0.0, 2.0):
            x = np.array([2.0 * spec.support_radius(t), 0.0])
            assert patch_density(spec, x, t) == 0.0

    def test_tau_zero_needs_positive_time(self):
        spec = PatchSpec(2, radius=1.0, tau=0.0)
        with pytest.raises(ValueError):
            patch_density(spec, np.zeros(2), 0.0)
        assert patch_density(spec, np.zeros(2), 0.5) == 2.0

    def test_translated_patch(self):
        spec = PatchSpec(2, radius=1.0, tau=1.0, center=(3.0, 0.0))
        assert patch_density(spec, np.array([3.0, 0.0]), 0.0) == 1.0
        assert patch_density(spec, np.array([0.0, 0.0]), 0.0) == 0.0


class TestPatchMass:
    def test_vanishes_at_origin(self):
        spec = PatchSpec(2, radius=1.0, tau=1.0)
        assert patch_mass(spec, 0.0, 2.0) == 0.0

    def test_caps_at_total(self):
        spec = PatchSpec(2, radius=1.0, tau=1.0)
        assert patch_mass(spec, 1e6, 3.0) == pytest.approx(spec.radial_total())

    def test_burgers_residual_vanishes_inside(self):
        # M = sigma/(t+tau) inside: M_t + M M_sigma = -sigma/(t+tau)^2 + sigma/(t+tau)^2
        spec = PatchSpec(2, radius=1.0, tau=1.0)
        rng = np.random.default_rng(3)
        for _ in range(100):
            t = rng.uniform(0.1, 5.0)
            r = rng.uniform(0.0, spec.support_radius(t))
            life = t + spec.tau
            m_t = -(r**2 / 2) / life**2
            m_sigma = 1.0 / life
            m = patch_mass(spec, r, t)
            assert abs(m_t + m * m_sigma) < 1e-14

    def test_requires_origin_center(self):
        spec = PatchSpec(2, radius=1.0, tau=1.0, center=(1.0, 0.0))
        with pytest.raises(ValueError):
            patch_mass(spec, 0.5, 1.0)


class TestLargestSolution:
    def test_density_is_inverse_time(self):
        u, m = largest_solution(np.array([0.3, 5.0]), 1.0, 2)
        np.testing.assert_allclose(u, 1.0)
        np.testing.assert_allclose(m, np.array([0.3, 5.0]) ** 2 / 2)

    def test_rate_identity(self):
        # M = r^n/(nt): M_t = -M/t exactly, u = M_r / r^{n-1} = 1/t exactly
        r, t, n = 1.7, 2.5, 3
        _, m = largest_solution(r, t, n)
        eps = 1e-6
        _, m_plus = largest_solution(r, t + eps, n)
        assert (m_plus - m) / eps == pytest.approx(-m / t, rel=1e-5)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            largest_solution(1.0, 0.0, 2)


class TestBarenblatt:
    def test_exponent_relations(self):
        spec = BarenblattSpec(2, 0.5, 1.0, 1.0)
        assert spec.alpha == pytest.approx(2.0 / 3.0)
        assert spec.alpha == pytest.approx(spec.n * spec.beta)
        assert spec.alpha + (2 - 2 * spec.s) * spec.beta == pytest.approx(1.0)

    def test_center_value(self):
        spec = BarenblattSpec(2, 0.5, c1=2.0, k1=1.0)
        assert barenblatt_density_radial(spec, 0.0, 1.0) == pytest.approx(sqrt(2.0))

    def test_support_edge_is_zero(self):
        spec = BarenblattSpec(2, 0.3, c1=1.5, k1=0.7)
        for t in (1.0, 4.0):
            edge = barenblatt_support_radius(spec, t)
            assert barenblatt_density_radial(spec, edge, t) == pytest.approx(0.0, abs=1e-9)
            assert barenblatt_density_radial(spec, 1.01 * edge, t) == 0.0

    def test_mass_conserved_between_times(self):
        spec = BarenblattSpec(2, 0.5, c1=1.0, k1=1.0)
        for t in (1.0, 4.0):
            assert _quadrature_mass(spec, t) == pytest.approx(barenblatt_full_mass(spec), rel=1e-9)

    def test_quadrature_against_beta_reduction(self):
        # the shipped Beta-function mass against quadrature of the profile
        for n, s, c1, k1 in [(2, 0.5, 1.3, 0.8), (3, 0.7, 2.0, 1.0), (1, 0.4, 1.0, 2.0)]:
            spec = BarenblattSpec(n, s, c1, k1)
            assert barenblatt_full_mass(spec) == pytest.approx(_quadrature_mass(spec, 1.0), rel=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3]),
        s=st.floats(0.05, 0.99),
        mass=st.floats(0.1, 10.0),
        k1=st.floats(0.2, 5.0),
    )
    def test_mass_matching_round_trip(self, n, s, mass, k1):
        spec = barenblatt_with_mass(n, s, mass=mass, k1=k1)
        assert spec.k1 == k1
        assert barenblatt_full_mass(spec) == pytest.approx(mass, rel=1e-12)

    def test_mass_matching_rejects_nonpositive_mass(self):
        for mass in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="mass must be positive"):
                barenblatt_with_mass(2, 0.6, mass=mass)

    def test_mass_matching_helper(self):
        spec = barenblatt_with_mass(2, 0.6, mass=pi)
        assert barenblatt_full_mass(spec) == pytest.approx(pi, rel=1e-8)
        assert spec.k1 == 1.0

    def test_rejects_bad_time(self):
        spec = BarenblattSpec(2, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            barenblatt_density_radial(spec, 1.0, 0.0)

    def test_limit_toward_patch(self):
        # L1 distance on a radial grid to the mass-matched uniform profile at t=1
        # decreases as s moves toward 1
        r = np.linspace(0, 3, 512)
        patch_radius = (1.0 / pi) ** 0.5  # unit mass, height 1 at t=1
        target = np.where(r <= patch_radius, 1.0, 0.0)
        dists = []
        for s in (0.6, 0.7, 0.8, 0.9, 0.95):
            spec = barenblatt_with_mass(2, s, mass=1.0)
            prof = barenblatt_density_radial(spec, r, 1.0)
            dists.append(np.trapezoid(np.abs(prof - target) * r, r) * sphere_area(2))
        assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))


class TestTwoPatch:
    def test_derived_parameters(self):
        assert TWO_PATCH.c2 == pytest.approx(0.25)
        assert TWO_PATCH.tau1 == 1.0
        assert TWO_PATCH.tau2 == 4.0
        # continuity constraint c2 R2^n = c1 R1^n
        assert TWO_PATCH.c2 * TWO_PATCH.r2**2 == pytest.approx(TWO_PATCH.c1 * TWO_PATCH.r1**2)

    def test_interfaces_at_zero(self):
        assert TWO_PATCH.interfaces(0.0) == pytest.approx((1.0, 2.0, 3.0))

    def test_interfaces_at_three(self):
        s1, s2, s3 = TWO_PATCH.interfaces(3.0)
        assert s1 == pytest.approx(2.0, abs=1e-14)
        assert s2 == pytest.approx(sqrt(7.0), abs=1e-14)
        assert s3 == pytest.approx(1.5 * sqrt(7.0), abs=1e-14)

    def test_piecewise_density(self):
        state = two_patch_state(TWO_PATCH, np.array([0.5, 1.5, 2.5, 3.5]), 0.0)
        np.testing.assert_allclose(state.density, [1.0, 0.0, 0.25, 0.0])

    def test_mass_continuous_at_interfaces(self):
        for t in (0.0, 1.0, 3.0, 10.0):
            s1, s2, s3 = TWO_PATCH.interfaces(t)
            for s in (s1, s2, s3):
                lo = two_patch_state(TWO_PATCH, s * (1 - 1e-9), t).mass
                hi = two_patch_state(TWO_PATCH, s * (1 + 1e-9), t).mass
                assert hi == pytest.approx(lo, rel=1e-6)

    def test_mass_plateau_value(self):
        state = two_patch_state(TWO_PATCH, 1.5 * np.ones(1), 0.0)
        assert state.mass[0] == pytest.approx(0.5)

    def test_gap_decay_rate(self):
        # the vacuum gap S2 - S1 = C[(t+tau2)^{1/n} - (t+tau1)^{1/n}] closes like t^{-(n-1)/n}
        ts = np.array([40.0, 160.0, 640.0])
        gaps = []
        for t in ts:
            s1, s2, _ = TWO_PATCH.interfaces(t)
            gaps.append(s2 - s1)
        slope = np.polyfit(np.log(ts), np.log(gaps), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            TwoPatchSpec(2, 1.0, 2.0, 1.0, 3.0)


class TestPointwiseLimit:
    def test_center_height_approaches_patch_height(self):
        # off the support edge the mass-matched profile converges pointwise to
        # the unit-height patch as s -> 1; at the origin the height is c1^{1-s}
        heights = []
        for s in (0.6, 0.7, 0.8, 0.9, 0.95):
            spec = barenblatt_with_mass(2, s, mass=1.0)
            heights.append(float(barenblatt_density_radial(spec, 0.0, 1.0)))
        assert all(b > a for a, b in zip(heights, heights[1:]))
        assert abs(heights[-1] - 1.0) < 0.1

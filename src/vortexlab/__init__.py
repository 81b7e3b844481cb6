"""vortexlab: a numerical laboratory for the nonlocal continuity equation

    u_t = div(u grad p),   p = (-Lap)^{-s} u,   s in (0, 1],

covering the fractional-diffusion range s < 1 and the planar mean-field case
s = 1.  The package pairs an inviscid Cartesian field solver with an exact
radial solver built on the mass-function reduction M_t + M M_sigma = 0, a
catalogue of closed-form solutions (expanding patches, two-patch
configurations, compact self-similar profiles), and verification diagnostics
(transport distances, entropy decay, support growth, universal height decay).
"""

from .grids import (
    CartesianGrid,
    DensityField,
    MassFunction,
    RadialGrid,
    RadialProfile,
    field_from_function,
    lp_norm,
    radial_average,
    second_moment,
    sphere_area,
    support_radius,
    total_mass,
    unit_ball_volume,
)
from .closed_forms import (
    BarenblattSpec,
    PatchSpec,
    TwoPatchSpec,
    barenblatt_with_mass,
    largest_solution,
    patch_density,
    patch_mass,
    two_patch_state,
)
from .burgers import (
    CharacteristicSolution,
    check_monotone_inequalities,
    density_from_mass,
    dirac_solution,
    evolve_characteristics,
    mass_transform,
    run_finite_volume,
    step_finite_volume,
)
from .potentials import energy
from .diagnostics import (
    DiagnosticsRecord,
    asymptotic_error,
    entropy_and_dissipation,
    wasserstein_continuity_check,
    wasserstein_radial,
)
from .solver import SolverConfig, Trajectory, run, sweep_s
from .scenarios import ScenarioSpec, list_scenarios, run_scenario, validate_config

__version__ = "0.1.0"

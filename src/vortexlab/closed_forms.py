"""Exact solution catalogue: expanding patches, the two-patch configuration,
self-similar compactly supported profiles for s < 1, and the interface-free
largest solution.  Everything is evaluable at arbitrary (x, t) or (r, t) and
doubles as initial data and as test oracle.

Radial mass values follow the convention M(r) = int_0^r s^{n-1} u ds (no
angular factor); multiply by sphere_area(n) for full mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma
from typing import NamedTuple

import numpy as np

from .grids import _normal, sphere_area, unit_ball_volume

__all__ = [
    "PatchSpec",
    "BarenblattSpec",
    "TwoPatchSpec",
    "TwoPatchState",
    "patch_density",
    "patch_mass",
    "barenblatt_density_radial",
    "barenblatt_support_radius",
    "barenblatt_full_mass",
    "barenblatt_with_mass",
    "two_patch_state",
    "two_patch_density_at_point",
    "largest_solution",
]


@dataclass(frozen=True)
class PatchSpec:
    """Uniform expanding ball: height 1/(t+tau) on |x-center| <= radius*(t+tau)^(1/n).

    tau = 0 is the fundamental solution (Dirac initial data) and may only be
    evaluated at t > 0.
    """

    n: int
    radius: float
    tau: float = 0.0
    center: tuple = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        c = (0.0,) * self.n if self.center is None else tuple(float(v) for v in self.center)
        if len(c) != self.n:
            raise ValueError("center has wrong dimension")
        object.__setattr__(self, "center", c)

    def height(self, t: float) -> float:
        return 1.0 / self._life(t)

    def support_radius(self, t: float) -> float:
        return self.radius * self._life(t) ** (1.0 / self.n)

    def full_mass(self) -> float:
        # omega_n R^n, independent of t
        return unit_ball_volume(self.n) * self.radius**self.n

    def radial_total(self) -> float:
        return self.radius**self.n / self.n

    def _life(self, t: float) -> float:
        life = t + self.tau
        if life <= 0:
            raise ValueError(f"patch undefined at t={t} with tau={self.tau}")
        return life


def patch_density(spec: PatchSpec, x, t: float):
    """Density at points x (shape (..., n) or scalar for n=1)."""
    life = spec._life(t)
    x = np.asarray(x, dtype=float)
    if spec.n == 1 and x.ndim == 0:
        x = x.reshape(1)
    if x.shape[-1] != spec.n:
        raise ValueError(f"points must have trailing dimension {spec.n}")
    r = np.linalg.norm(x - np.asarray(spec.center), axis=-1)
    return np.where(r <= spec.support_radius(t), 1.0 / life, 0.0)


def patch_density_radial(spec: PatchSpec, r, t: float):
    life = spec._life(t)
    r = np.asarray(r, dtype=float)
    return np.where(r <= spec.support_radius(t), 1.0 / life, 0.0)


def patch_mass(spec: PatchSpec, r, t: float):
    """Radial mass function min(r^n, R^n (t+tau)) / (n (t+tau)); origin-centered specs only."""
    if any(c != 0.0 for c in spec.center):
        raise ValueError("patch_mass requires the patch centered at the origin")
    life = spec._life(t)
    r = np.asarray(r, dtype=float)
    return np.minimum(r**spec.n, spec.radius**spec.n * life) / (spec.n * life)


@dataclass(frozen=True)
class BarenblattSpec:
    """Self-similar compactly supported profile for the nonlocal diffusion range s in (0,1):

        u(x,t) = t^(-alpha) (c1 - k1 |x|^2 t^(-2 alpha/n))_+^(1-s)

    with alpha = n/(n+2-2s) and beta = 1/(n+2-2s), so alpha = n*beta and
    alpha + (2-2s)*beta = 1.

    The profile solves u_t = div(u grad (-Lap)^{-s} u) only at
    k1 = (beta / (2 B0))^(1/(1-s)), B0 = 2^(-2s) Gamma(2-s) Gamma(n/2+1-s) / Gamma(n/2+1),
    whatever c1 is: the pressure of (c1 - k1 |y|^2)_+^(1-s) is quadratic on its support
    with coefficient k1^(1-s) B0 (Dyda 2012).  At any other k1, such as the default
    k1 = 1 of `barenblatt_with_mass`, it is a self-similar shape and not a solution.
    """

    n: int
    s: float
    c1: float
    k1: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0,1), got {self.s}")
        if self.c1 <= 0 or self.k1 <= 0:
            raise ValueError("c1 and k1 must be positive")

    @property
    def alpha(self) -> float:
        return self.n / (self.n + 2.0 - 2.0 * self.s)

    @property
    def beta(self) -> float:
        return 1.0 / (self.n + 2.0 - 2.0 * self.s)


def barenblatt_density_radial(spec: BarenblattSpec, r, t: float):
    if t <= 0:
        raise ValueError("self-similar profile defined for t > 0")
    r = np.asarray(r, dtype=float)
    arg = spec.c1 - spec.k1 * r * r * t ** (-2.0 * spec.alpha / spec.n)
    return t ** (-spec.alpha) * np.maximum(arg, 0.0) ** (1.0 - spec.s)


def barenblatt_support_radius(spec: BarenblattSpec, t: float) -> float:
    return float(np.sqrt(spec.c1 / spec.k1) * t ** (spec.alpha / spec.n))


def barenblatt_full_mass(spec: BarenblattSpec) -> float:
    """Total mass |S^{n-1}| (c1/k1)^(n/2) c1^(1-s) B(n/2, 2-s) / 2, conserved in t.

    The radial integral reduces to the Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b)
    under the substitution r^2 = (c1/k1) w t^(2 alpha/n).
    """
    n, s = spec.n, spec.s
    beta = gamma(n / 2) * gamma(2.0 - s) / gamma(n / 2 + 2.0 - s)
    return sphere_area(n) * (spec.c1 / spec.k1) ** (n / 2) * spec.c1 ** (1.0 - s) * beta / 2


def barenblatt_with_mass(n: int, s: float, mass: float = 1.0, k1: float = 1.0) -> BarenblattSpec:
    """The profile carrying the requested total mass at fixed k1.

    The mass is c1^(n/2 + 1 - s) times the mass at c1 = 1, so c1 follows in
    closed form.  The profile solves the equation only at
    k1 = (beta / (2 B0))^(1/(1-s)) (`BarenblattSpec`; Dyda 2012).  The default k1 = 1
    gives a self-similar shape, which `barenblatt-limit` compares with the uniform
    patch only as a closed form.
    """
    if not mass > 0:
        raise ValueError("mass must be positive")
    unit = barenblatt_full_mass(BarenblattSpec(n, s, 1.0, k1))
    return BarenblattSpec(n, s, (mass / unit) ** (1.0 / (n / 2 + 1.0 - s)), k1)


@dataclass(frozen=True)
class TwoPatchSpec:
    """Inner ball patch of height c1 up to R1 plus an annular patch of height c2
    on [R2, R3], vacuum in between; continuity of the evolved mass function
    forces c2 = c1 (R1/R2)^n.  Derived lifetimes tau1 = 1/c1 < tau2 = 1/c2.
    """

    n: int
    c1: float
    r1: float
    r2: float
    r3: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if self.c1 <= 0:
            raise ValueError("c1 must be positive")
        if not 0.0 < self.r1 < self.r2 < self.r3:
            raise ValueError("need 0 < R1 < R2 < R3")
        if not _normal(self.c2):  # a zero or subnormal c2 has no finite lifetime 1/c2
            raise ValueError(f"the annulus height c2 = c1 (R1/R2)^n = {self.c2} must be a positive normal float")

    @property
    def c2(self) -> float:
        return self.c1 * (self.r1 / self.r2) ** self.n

    @property
    def tau1(self) -> float:
        return 1.0 / self.c1

    @property
    def tau2(self) -> float:
        return 1.0 / self.c2

    def radial_total(self) -> float:
        return self.c2 * self.r3**self.n / self.n

    def full_mass(self) -> float:
        return sphere_area(self.n) * self.radial_total()

    def interfaces(self, t: float) -> tuple:
        s1 = self.r1 * (self.c1 * t + 1.0) ** (1.0 / self.n)
        s2 = self.r2 * (self.c2 * t + 1.0) ** (1.0 / self.n)
        s3 = self.r3 * (self.c2 * t + 1.0) ** (1.0 / self.n)
        return s1, s2, s3


class TwoPatchState(NamedTuple):
    density: np.ndarray
    mass: np.ndarray
    s1: float
    s2: float
    s3: float


def two_patch_density_radial(spec: TwoPatchSpec, r, t: float):
    """Density at radii r: 1/(t+tau1) out to s1, vacuum out to s2, 1/(t+tau2) out to s3."""
    if t < 0:
        raise ValueError("two-patch solution defined for t >= 0")
    r = np.asarray(r, dtype=float)
    s1, s2, s3 = spec.interfaces(t)
    return np.select(
        [r <= s1, r <= s2, r <= s3],
        [1.0 / (t + spec.tau1), 0.0, 1.0 / (t + spec.tau2)],
        default=0.0,
    )


def two_patch_state(spec: TwoPatchSpec, r, t: float) -> TwoPatchState:
    """Density and radial mass at radii r, plus the three interface positions."""
    density = two_patch_density_radial(spec, r, t)
    r = np.asarray(r, dtype=float)
    s1, s2, s3 = spec.interfaces(t)
    n = spec.n
    plateau = spec.c1 * spec.r1**n / n
    mass = np.select(
        [r <= s1, r <= s2, r <= s3],
        [r**n / (n * (t + spec.tau1)), plateau, r**n / (n * (t + spec.tau2))],
        default=spec.radial_total(),
    )
    return TwoPatchState(density, mass, s1, s2, s3)


def two_patch_density_at_point(spec: TwoPatchSpec, x, t: float) -> float:
    r = float(np.linalg.norm(np.asarray(x, dtype=float)))
    return float(two_patch_density_radial(spec, r, t))


def largest_solution(r, t: float, n: int):
    """Interface-free upper envelope: density 1/t everywhere, mass r^n/(n t).

    Saturates both pointwise rate inequalities (M_t <= 0 and M_t >= -M/t) with
    equality.
    """
    if t <= 0:
        raise ValueError("largest solution defined for t > 0")
    r = np.asarray(r, dtype=float)
    density = np.full_like(r, 1.0 / t)
    mass = r**n / (n * t)
    return density, mass

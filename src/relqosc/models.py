"""Model definitions for the four relativistic oscillator families.

Each family is defined by a linear superpotential profile (harmonic) or a
linear-plus-inverse profile (isotonic), in one dimension on the full line or
as the radial part of a two-dimensional problem. Squaring the first-order
Dirac pair yields an effective Sturm-Liouville problem

    -u'' + V(x) u = lambda u

whose eigenvalue maps affinely to the squared relativistic energy E^2. The
two-dimensional families are reduced to the flat-measure radial form (the
sqrt(r) substitution), so every family lands on the same tridiagonal
discretization. All formulas take hbar = 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Family",
    "PhysicalParams",
    "ModelSpec",
    "AffineMap",
    "RadialProblem",
    "default_spec",
    "superpotential",
    "pair_superpotential",
    "effective_problem",
    "pair_recover_psi2",
]


class Family(str, Enum):
    """The four supported oscillator families, keyed by their CLI labels."""

    HARMONIC_1D = "1d-ho"
    ISOTONIC_1D = "1d-iso"
    HARMONIC_2D = "2d-ho"
    ISOTONIC_2D = "2d-iso"

    @property
    def is_two_dimensional(self) -> bool:
        return self in (Family.HARMONIC_2D, Family.ISOTONIC_2D)

    @property
    def is_isotonic(self) -> bool:
        return self in (Family.ISOTONIC_1D, Family.ISOTONIC_2D)

    @classmethod
    def from_label(cls, label: str) -> "Family":
        try:
            return cls(label)
        except ValueError:
            valid = ", ".join(f.value for f in cls)
            raise ValueError(f"unknown family {label!r}; expected one of: {valid}") from None


@dataclass(frozen=True)
class PhysicalParams:
    """Mass, light speed, and well-strength parameters (hbar = 1).

    omega is the harmonic frequency (harmonic families); a and b are the
    linear and inverse strengths of the isotonic profile (isotonic families).
    Unused parameters may stay at their defaults. Every parameter must be
    finite, used or not.
    """

    m: float = 1.0
    c: float = 1.0
    omega: float = 1.0
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if not (self.m > 0):
            raise ValueError(f"mass must be positive, got m={self.m}")
        if not (self.c > 0):
            raise ValueError(f"light speed must be positive, got c={self.c}")
        for name in ("m", "c", "omega", "a", "b"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"parameter {name} must be finite, got {name}={value}")


@dataclass(frozen=True)
class ModelSpec:
    """A fully validated model: family, parameters, and angular sector.

    ml is the integer angular momentum index, required for the 2D families
    and forbidden for the 1D ones. Validation rejects sub-critical
    centrifugal sectors, s < 1/2 with s = |ml| (2d-ho) or |ml - b| (2d-iso),
    where the radial problem loses its unique ground branch; those sectors
    are out of the solver's contract. It also rejects
    what the parameters alone make unrepresentable: a rest energy whose
    square (mc^2)^2 is below the smallest normal float, and any of the
    model's scales (well strength, lambda ladder, E^2 and eps maps, delta;
    see effective_problem) that overflows.
    """

    family: Family
    params: PhysicalParams = field(default_factory=PhysicalParams)
    ml: Optional[int] = None

    def __post_init__(self):
        fam, p = self.family, self.params
        if fam.is_two_dimensional:
            if self.ml is None:
                raise ValueError(f"family {fam.value} requires an angular index ml")
            if self.ml != int(self.ml):
                raise ValueError(f"ml must be an integer, got {self.ml}")
            object.__setattr__(self, "ml", int(self.ml))
        elif self.ml is not None:
            raise ValueError(f"family {fam.value} is one-dimensional; ml does not apply")
        if fam.is_isotonic:
            if not (p.a > 0):
                raise ValueError(f"isotonic strength a must be positive, got a={p.a}")
        else:
            if not (p.omega > 0):
                raise ValueError(f"harmonic frequency must be positive, got omega={p.omega}")
        if fam is Family.ISOTONIC_1D and not (p.b > 0):
            raise ValueError(f"1D isotonic inverse strength must be positive, got b={p.b}")
        # s < 1/2 is s^2 - 1/4 < 0 without the square, which overflows.
        if fam.is_two_dimensional and (s := _sector_exponent(self)) < 0.5:
            raise ValueError(f"{fam.value} sector ml={self.ml} is sub-critical (s = {s} < 1/2); not supported")
        try:
            # E^2 of a level at rest would be (mc^2)^2, and relative errors divide by
            # it: a subnormal one has lost precision, and one that is 0 has none.
            if self.mc2 ** 2 < sys.float_info.min:
                raise ValueError(f"(mc^2)^2 underflows below the smallest normal float, got m={p.m}, c={p.c}")
            finite = all(map(math.isfinite, _facts(self)[1:]))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(
                f"{fam.value} model scales overflow, got m={p.m}, c={p.c}, "
                f"omega={p.omega}, a={p.a}, b={p.b}"
            )

    @property
    def mc2(self) -> float:
        """Rest energy m*c^2."""
        return self.params.m * self.params.c ** 2


def default_spec(family: Family) -> ModelSpec:
    """The documented default model of each family.

    Unit m, c, omega and a; b = 1 except b = 1/4 for 2d-iso; ml = 1 in 2D.
    """
    b = 0.25 if family is Family.ISOTONIC_2D else 1.0
    ml = 1 if family.is_two_dimensional else None
    return ModelSpec(family, PhysicalParams(b=b), ml=ml)


@dataclass(frozen=True)
class AffineMap:
    """y = slope * x + intercept."""

    slope: float
    intercept: float

    def __call__(self, x):
        return self.slope * np.asarray(x, dtype=float) + self.intercept


@dataclass(frozen=True)
class RadialProblem:
    """Effective flat-measure Sturm-Liouville problem -u'' + V u = lambda u.

    This is the one record of a family's numeric facts. lambda_to_e2
    carries the eigenvalue to the squared relativistic energy (slope
    exactly c^2); lambda_to_eps carries it to the leading-order
    non-relativistic energy via E^2 - (mc^2)^2 = 2 mc^2 eps. lambda_estimate
    gives the closed-form eigenvalue ladder, used for domain sizing;
    well_strength q is the coefficient of the q^2 x^2 tail of V. delta is
    the default ladder normalization of the supercharge (A = D / sqrt(delta)).
    """

    domain: str  # "full-line" or "half-line"
    potential: Callable[[np.ndarray], np.ndarray]
    lambda_to_e2: AffineMap
    lambda_to_eps: AffineMap
    well_strength: float
    lambda_gap: float
    lambda_offset: float
    delta: float

    def lambda_estimate(self, n: int) -> float:
        """Closed-form eigenvalue ladder value lambda_n = gap*n + offset."""
        return self.lambda_gap * n + self.lambda_offset


def superpotential(spec: ModelSpec, x):
    """Superpotential W(x) of a 1D family, or radial profile w(r) of a 2D one.

    Harmonic: W = m omega x. Isotonic: W = a x + b / x. Only 1d-ho lives on
    the full line; for every other family x <= 0 is a domain error.
    """
    x = np.asarray(x, dtype=float)
    if spec.family is not Family.HARMONIC_1D and np.any(x <= 0):
        raise ValueError(f"the {spec.family.value} superpotential is defined on x > 0 only")
    w = _well_strength(spec) * x
    if spec.family.is_isotonic:
        w = w + spec.params.b / x
    return w[()] if w.ndim == 0 else w


def pair_superpotential(spec: ModelSpec, x):
    """Effective first-order coupling function for the spinor pair.

    In 1D this is W(x) itself. In 2D, acting on the flat-measure radial
    function and passing from the angular sector ml to ml + 1, the
    first-order operator is d/dr + w(r) - (ml + 1/2)/r; this returns that
    shifted profile.
    """
    if spec.family.is_two_dimensional:
        r = np.asarray(x, dtype=float)
        return superpotential(spec, r) - (spec.ml + 0.5) / r
    return superpotential(spec, x)


def _well_strength(spec: ModelSpec) -> float:
    """q, the slope of the superpotential's linear part: a on the isotonic families, m omega on the harmonic ones."""
    p = spec.params
    return p.a if spec.family.is_isotonic else p.m * p.omega


def _sector_exponent(spec: ModelSpec) -> float:
    """s of a 2D sector, whose centrifugal coefficient is s^2 - 1/4: |ml| on 2d-ho, |ml - b| on 2d-iso."""
    return abs(spec.ml - spec.params.b) if spec.family.is_isotonic else abs(spec.ml)


def _facts(spec: ModelSpec):
    """(domain, q, cent, gap, offset, c^2, E^2 intercept, eps slope, eps intercept, delta).

    The numbers effective_problem is built from; ModelSpec requires every
    one of them to be finite. cent is the 1/x^2 coefficient of V on the
    half-line; in 2D it is s^2 - 1/4, and the ladder is q (4n + 2s + 2). The
    E^2 intercept stays per family: its bits depend on its written order.
    Raises OverflowError where a power overflows.
    """
    p, fam = spec.params, spec.family
    mc2, c2, q = spec.mc2, p.c ** 2, _well_strength(spec)
    if fam is Family.HARMONIC_1D:
        # lambda_n = m omega (2n + 1); E^2 = c^2 lambda + (mc^2)^2 - m omega c^2
        domain, cent, gap, offset, e2_intercept = "full-line", 0.0, 2.0 * q, q, mc2 ** 2 - q * c2
    elif fam is Family.ISOTONIC_1D:
        b = p.b
        # lambda_n = a (4n + 2b + 3); E^2 = c^2 lambda + (mc^2)^2 - a c^2 (1 - 2b)
        domain, cent, gap, offset, e2_intercept = "half-line", b * (b + 1.0), 4.0 * q, q * (2.0 * b + 3.0), mc2 ** 2 - q * c2 * (1.0 - 2.0 * b)
    else:
        s = _sector_exponent(spec)
        domain, cent, gap, offset = "half-line", s ** 2 - 0.25, 4.0 * q, q * (2.0 * s + 2.0)
        # E^2 = c^2 lambda + (mc^2)^2 - 2 mc^2 omega (1 + ml) on 2d-ho, - 2 a c^2 (ml - b + 1) on 2d-iso
        e2_intercept = (mc2 ** 2 - 2.0 * mc2 * p.omega * (1.0 + spec.ml) if fam is Family.HARMONIC_2D
                        else mc2 ** 2 - 2.0 * q * c2 * (spec.ml - p.b + 1.0))
    # The gap, except on 1d-ho: twice its gap, so the A+A rungs read n/2. It
    # stays so because perfbench/cli_digests.json pins `ajc --family 1d-ho`.
    delta = 4.0 * q
    eps_slope = c2 / (2.0 * mc2)
    eps_intercept = (e2_intercept - mc2 ** 2) / (2.0 * mc2)
    return domain, q, cent, gap, offset, c2, e2_intercept, eps_slope, eps_intercept, delta


def effective_problem(spec: ModelSpec) -> RadialProblem:
    """Build the effective Sturm-Liouville problem for a model.

    The potential is V = W^2 - W' plus the constant absorbed into the
    eigenvalue map (2D families also pick up the -1/(4r^2) flat-measure
    term), so lambda_to_e2 has slope exactly c^2 for every family. Every
    family's V is q^2 x^2, plus cent / x^2 on the half-line; _facts states
    q, cent, the lambda ladder (gap and offset), the E^2 intercept and the
    default ladder normalization delta, from the helpers _well_strength and
    _sector_exponent.
    """
    domain, q, cent, gap, offset, c2, e2_intercept, eps_slope, eps_intercept, delta = _facts(spec)

    def potential(x):
        v = (q * x) ** 2
        return v if domain == "full-line" else v + cent / x ** 2

    return RadialProblem(
        domain=domain,
        potential=potential,
        lambda_to_e2=AffineMap(c2, e2_intercept),
        lambda_to_eps=AffineMap(eps_slope, eps_intercept),
        well_strength=q,
        lambda_gap=gap,
        lambda_offset=offset,
        delta=delta,
    )


def finite_on_nodes(values: np.ndarray, x: np.ndarray, what: str) -> np.ndarray:
    """values, sampled on the nodes x; ValueError naming the first node where they are not finite."""
    if not np.all(np.isfinite(values)):
        j = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ValueError(f"{what} is not finite at node {j} (x={float(x.flat[j])!r})")
    return values


def pair_recover_psi2(spec: ModelSpec, energy: float, x: np.ndarray, psi1: np.ndarray) -> np.ndarray:
    """Recover the lower spinor component from the upper one.

    Applies the first-order pair relation psi2 = c (d/dx + W_eff) psi1 / (E + mc^2)
    with the derivative taken by central differences on the uniform grid x.
    The returned profile is real: it is the lower component in the gauge
    where the block Hamiltonian is real symmetric (the physical component
    is -1j times this array). For 2D families psi1 must be the flat-measure
    radial function; the result lives in the angular sector ml + 1.
    """
    x = np.asarray(x, dtype=float)
    psi1 = np.asarray(psi1, dtype=float)
    if x.shape != psi1.shape or x.ndim != 1 or x.size < 3:
        raise ValueError("pair_recover_psi2 expects matching 1D arrays with at least 3 samples")
    mc2 = spec.mc2
    if abs(energy + mc2) < 1e-12 * mc2:
        raise ValueError(f"pair relation degenerates at E = -mc^2 (E={energy})")
    h = x[1] - x[0]
    # Second-order one-sided stencils at the ends: the default first-order
    # ones leave an O(h) edge error that the 1/x part of the superpotential
    # amplifies to O(1) at the node nearest the origin.
    dpsi = np.gradient(psi1, h, edge_order=2)
    w = pair_superpotential(spec, x)
    return spec.params.c * (dpsi + w * psi1) / (energy + mc2)

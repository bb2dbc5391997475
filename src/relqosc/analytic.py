"""Closed-form spectra and wavefunctions for the oscillator families.

The squared energies of all four families form exactly equispaced ladders:

    1D harmonic   E_n^2 = (mc^2)^2 + 2 n m omega c^2
    1D isotonic   E_n^2 = (mc^2)^2 + a c^2 (4n + 2b + 1 + sqrt(1 + 4b(b+1)))
    2D harmonic   E_n^2 = (mc^2)^2 + 2 m omega c^2 (2n + |ml| - ml)
    2D isotonic   E_n^2 = (mc^2)^2 + 2 a c^2 (2n + |ml - b| - (ml - b))

The non-relativistic energy is reported uniformly through the leading-order
relation E^2 - (mc^2)^2 = 2 mc^2 eps, which reproduces each family's
Schrodinger-limit ladder without separate formulas. Wavefunctions are
returned unnormalized; comparisons normalize numerically on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .models import Family, ModelSpec, finite_on_nodes
from .specfun import hermite, kummer_terminating

__all__ = [
    "Level",
    "SpectrumTable",
    "isotonic_nu",
    "analytic_e2",
    "analytic_nonrel_eps",
    "analytic_wavefunction",
    "build_spectrum_table",
]


@dataclass(frozen=True)
class Level:
    """One energy level: index, squared energy, energy, non-relativistic energy."""

    n: int
    e2: float
    e: float
    eps: float


@dataclass(frozen=True)
class SpectrumTable:
    """Levels n = 0..k-1 in ascending order."""

    levels: Tuple[Level, ...]

    def __post_init__(self):
        for i, lev in enumerate(self.levels):
            if lev.n != i:
                raise ValueError(f"level indices must be contiguous from 0, got n={lev.n} at position {i}")
        e2s = [lev.e2 for lev in self.levels]
        if any(b < a for a, b in zip(e2s, e2s[1:])):
            raise ValueError("levels must be sorted by squared energy")

    def e2_values(self) -> np.ndarray:
        return np.array([lev.e2 for lev in self.levels])


def isotonic_nu(b: float) -> float:
    """Leading power of the 1D isotonic upper component at the origin.

    nu = (sqrt(1 + 4b(b+1)) + 1) / 2, which simplifies to b + 1 for b > 0;
    the radical form is kept so the reported value matches the closed-form
    solution as written.
    """
    return 0.5 * (math.sqrt(1.0 + 4.0 * b * (b + 1.0)) + 1.0)


def _e2_shift(spec: ModelSpec, n: int) -> float:
    """E_n^2 - (mc^2)^2 for level n."""
    p = spec.params
    c2 = p.c ** 2
    fam = spec.family
    if fam is Family.HARMONIC_1D:
        return 2.0 * n * p.m * p.omega * c2
    if fam is Family.ISOTONIC_1D:
        radical = math.sqrt(1.0 + 4.0 * p.b * (p.b + 1.0))
        return p.a * c2 * (4.0 * n + 2.0 * p.b + 1.0 + radical)
    if fam is Family.HARMONIC_2D:
        return 2.0 * p.m * p.omega * c2 * (2.0 * n + abs(spec.ml) - spec.ml)
    d = spec.ml - p.b
    return 2.0 * p.a * c2 * (2.0 * n + abs(d) - d)


def _level_index(n) -> int:
    if n < 0 or n != int(n):
        raise ValueError(f"level index must be a nonnegative integer, got {n}")
    return int(n)


def _finite_level(value: float, name: str, spec: ModelSpec, n: int) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} of level {n} overflows for this {spec.family.value} model")
    return value


def analytic_e2(spec: ModelSpec, n: int) -> float:
    """Closed-form squared energy E_n^2 of level n >= 0; ValueError where it overflows."""
    n = _level_index(n)
    return _finite_level(spec.mc2 ** 2 + _e2_shift(spec, n), "E^2", spec, n)


def analytic_nonrel_eps(spec: ModelSpec, n: int) -> float:
    """Non-relativistic level eps_n from E_n^2 - (mc^2)^2 = 2 mc^2 eps_n.

    Computed uniformly for all families, which is exactly the c -> infinity
    limit of E_n - mc^2 (the spectra shift linearly in c^2, so eps_n is
    c-independent). ValueError where it overflows.
    """
    n = _level_index(n)
    return _finite_level(_e2_shift(spec, n) / (2.0 * spec.mc2), "eps", spec, n)


def analytic_wavefunction(spec: ModelSpec, n: int, x):
    """Unnormalized closed-form upper component of level n.

    1D harmonic: H_n(sqrt(m omega) x) exp(-m omega x^2 / 2) on the full line.
    1D isotonic: x^nu exp(-a x^2 / 2) 1F1(-n; nu + 1/2; a x^2) on x > 0.
    2D families: the flat-measure radial function
    r^(s + 1/2) exp(-q r^2 / 2) 1F1(-n; s + 1; q r^2) on r > 0, with
    s = |ml| and q = m omega (harmonic) or s = |ml - b| and q = a (isotonic).
    Raises ValueError, naming the first such node, where a sample is not
    finite.
    """
    n = _level_index(n)
    p = spec.params
    x = np.asarray(x, dtype=float)
    fam = spec.family
    if fam is not Family.HARMONIC_1D and np.any(x <= 0):
        raise ValueError(f"family {fam.value} wavefunctions are defined on x > 0 only")
    # An overflow shows as inf or NaN and is named below.
    with np.errstate(over="ignore", invalid="ignore"):
        if fam is Family.HARMONIC_1D:
            mw = p.m * p.omega
            out = hermite(n, np.sqrt(mw) * x) * np.exp(-0.5 * mw * x ** 2)
        elif fam is Family.ISOTONIC_1D:
            nu = isotonic_nu(p.b)
            ax2 = p.a * x ** 2
            out = x ** nu * np.exp(-0.5 * ax2) * kummer_terminating(n, nu + 0.5, ax2)
        else:
            s, q = (abs(spec.ml), p.m * p.omega) if fam is Family.HARMONIC_2D else (abs(spec.ml - p.b), p.a)
            qr2 = q * x ** 2
            out = x ** (s + 0.5) * np.exp(-0.5 * qr2) * kummer_terminating(n, s + 1.0, qr2)
    return finite_on_nodes(out, x, f"closed-form wavefunction of level {n}")


def build_spectrum_table(spec: ModelSpec, k: int) -> SpectrumTable:
    """Table of the k lowest closed-form levels."""
    if k < 1 or k != int(k):
        raise ValueError(f"level count must be a positive integer, got {k}")
    levels = []
    for n in range(int(k)):
        e2 = analytic_e2(spec, n)
        levels.append(Level(n=n, e2=e2, e=math.sqrt(e2), eps=analytic_nonrel_eps(spec, n)))
    return SpectrumTable(tuple(levels))

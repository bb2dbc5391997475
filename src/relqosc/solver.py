"""Finite-difference verification route for the oscillator spectra.

The effective problem -u'' + V u = lambda u is discretized on a uniform
Dirichlet grid with the standard 3-point stencil, giving a symmetric
tridiagonal matrix whose lowest eigenvalues are found by Sturm-sequence
bisection (LAPACK stebz). Callers that read only eigenvalues use bisection
alone (eigenvalues_lowest), which certifies each value to its absolute
tolerance without any eigenvector. Inverse iteration (LAPACK stein) runs only
where eigenvectors are returned (eigen_lowest), and each of those eigenpairs
must pass the backward-error bound max(sqrt(N), 4) eps ||T||_inf on its
residual.
The solver remembers its latest solve. A values-only solve of the operator
solved just before (same k, same diagonal and off-diagonal bits) returns
those eigenvalues again without a second bisection; they are bit-identical
and certified by the same bisection. Eigenvectors are never reused: every
eigen_lowest call runs both routines and checks every residual.
This route never touches the closed forms, so agreement with the analytic
module is a genuine cross-check.

scipy.linalg is never imported. The two LAPACK routines are called through
scipy's compiled LAPACK wrapper module (scipy.linalg._flapack, the module
scipy.linalg.lapack re-exports), which the solver loads on its own at the
first eigensolve, without running scipy.linalg's package initialisation.
Commands that only evaluate closed forms (spectrum --method analytic,
nonrel) load no LAPACK at all. A later `import scipy.linalg` reuses the
module the solver loaded, and the solver reuses one already imported.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .analytic import Level, SpectrumTable, analytic_e2
from .models import ModelSpec, RadialProblem, effective_problem, pair_recover_psi2, pair_superpotential

__all__ = [
    "SolverError",
    "Grid",
    "TridiagonalOperator",
    "EigenResult",
    "choose_domain",
    "discretize",
    "eigen_lowest",
    "eigenvalues_lowest",
    "spectrum_table",
    "numeric_levels",
    "numeric_spectrum",
    "residual_pair_check",
    "convergence_order",
    "count_nodes",
]

# Least multiple of eps ||T||_inf that the eigenpair residual bound allows.
RESIDUAL_FLOOR = 4.0

# Domain sizing: the boundary potential must dominate the top eigenvalue
# estimate by this factor, reached within X_MAX_LIMIT.
POTENTIAL_MARGIN = 3.0
X_MAX_LIMIT = 1e6

DEFAULT_N_POINTS = 4000


class SolverError(RuntimeError):
    """Numerical failure in the finite-difference route."""


@dataclass(frozen=True)
class Grid:
    """Uniform interior grid for a Dirichlet problem on [x_min, x_max].

    The n_points nodes are x_min + j h for j = 1..n_points with
    h = (x_max - x_min) / (n_points + 1); both endpoints are excluded,
    which keeps half-line grids away from a singular origin.
    """

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 3:
            raise ValueError(f"grid needs at least 3 interior points, got {self.n_points}")
        if not (self.x_max > self.x_min):
            raise ValueError(f"grid requires x_max > x_min, got [{self.x_min}, {self.x_max}]")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(1, self.n_points + 1)


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix with grid spacing for L2 quadrature."""

    diag: np.ndarray
    offdiag: np.ndarray
    h: float = 1.0

    def __post_init__(self):
        if self.diag.ndim != 1 or self.offdiag.ndim != 1 or self.offdiag.size != self.diag.size - 1:
            raise ValueError("tridiagonal operator needs diag (N) and offdiag (N-1) vectors")
        if self.diag.size < 3:
            raise ValueError(f"tridiagonal operator needs N >= 3, got N={self.diag.size}")

    @property
    def size(self) -> int:
        return self.diag.size

    def norm_inf(self) -> float:
        a = np.abs(self.diag).copy()
        a[:-1] += np.abs(self.offdiag)
        a[1:] += np.abs(self.offdiag)
        return float(a.max())

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.offdiag * v[1:]
        out[1:] += self.offdiag * v[:-1]
        return out


@dataclass(frozen=True)
class EigenResult:
    """One converged eigenpair.

    The vector holds node values normalized to unit L2 norm under trapezoid
    quadrature (h * sum v^2 = 1, exact with Dirichlet endpoints) and signed
    so the first extremum is positive. The residual is the scale-invariant
    ||(T - lambda) v||_2 / ||v||_2.
    """

    eigenvalue: float
    vector: np.ndarray
    residual: float


def choose_domain(problem: RadialProblem, k: int, n_points: int = DEFAULT_N_POINTS) -> Grid:
    """Pick a grid whose boundary potential dominates the requested levels.

    x_max solves strength^2 x^2 = 3 lambda_est with lambda_est the closed-form
    ladder value one past the top requested level, so V(x_max) >= 3 lambda_est
    holds for every family (the centrifugal terms are nonnegative). Full-line
    problems get the symmetric domain, half-line problems start at 0.
    """
    if k < 1:
        raise ValueError(f"level count must be positive, got {k}")
    lam_est = problem.lambda_estimate(k)
    if not (lam_est > 0) or not math.isfinite(lam_est):
        raise SolverError(f"eigenvalue estimate {lam_est} is unusable for domain sizing")
    x_max = math.sqrt(POTENTIAL_MARGIN * lam_est) / problem.well_strength
    if x_max > X_MAX_LIMIT:
        raise SolverError(
            f"potential does not reach {POTENTIAL_MARGIN} x the eigenvalue estimate "
            f"within x = {X_MAX_LIMIT:g} (x_max would be {x_max:.3g}); check parameters"
        )
    x_min = -x_max if problem.domain == "full-line" else 0.0
    return Grid(x_min=x_min, x_max=x_max, n_points=n_points)


def discretize(problem: RadialProblem, grid: Grid) -> TridiagonalOperator:
    """3-point Dirichlet discretization of -u'' + V u on the grid."""
    if problem.singular_at_zero and grid.x_min < 0:
        raise ValueError(
            f"half-line problem discretized on a grid reaching x_min={grid.x_min} < 0"
        )
    x = grid.nodes
    v = np.asarray(problem.potential(x), dtype=float)
    if not np.all(np.isfinite(v)):
        j = int(np.flatnonzero(~np.isfinite(v))[0])
        raise ValueError(f"potential is not finite at node {j} (x={x[j]!r})")
    h = grid.h
    diag = 2.0 / h ** 2 + v
    offdiag = np.full(grid.n_points - 1, -1.0 / h ** 2)
    return TridiagonalOperator(diag=diag, offdiag=offdiag, h=h)


def _first_extremum_sign(v: np.ndarray) -> float:
    """Sign of the first local maximum of |v| above a relative floor."""
    av = np.abs(v)
    falls = (av[:-1] > 1e-3 * av.max()) & (av[1:] < av[:-1])
    j = int(np.argmax(falls)) if falls.any() else int(np.argmax(av))
    return 1.0 if v[j] > 0 else -1.0


_FLAPACK = "scipy.linalg._flapack"


@functools.cache
def _flapack():
    """scipy's compiled LAPACK wrapper module, loaded once without scipy.linalg.

    An already imported module is reused. Otherwise the module is located
    through the import system's finders inside the scipy.linalg package
    directory (finding that spec imports only the top-level scipy package)
    and executed directly. The extension registers itself in sys.modules, so
    a later `import scipy.linalg` shares this very module.
    """
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    package = importlib.util.find_spec("scipy.linalg")
    for finder in sys.meta_path:
        find_spec = getattr(finder, "find_spec", None)
        spec = find_spec(_FLAPACK, package.submodule_search_locations) if find_spec else None
        if spec is not None:
            break
    else:
        raise ImportError(f"cannot locate {_FLAPACK}", name=_FLAPACK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_info(info: int, routine: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")
    if info > 0:
        raise SolverError(f"tridiagonal eigensolve failed: LAPACK {routine} returned info={info}")


# The latest solve as (LAPACK module, (k, diag bytes, offdiag bytes), ascending
# eigenvalues). It is swapped by a single assignment, so a thread reads either
# a whole entry or none.
_last_solve = None


def _stebz_lowest(op: TridiagonalOperator, k: int, eigvals_only: bool):
    """LAPACK stebz for the k smallest eigenvalues, with stein vectors unless eigvals_only.

    The calls, arguments and checks are those of
    scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1),
    lapack_driver="stebz"), so values and vectors are the same bits. A
    values-only request for the operator and k of the latest solve returns a
    copy of that solve's eigenvalues instead of calling LAPACK again. The
    operator is compared by its bytes, so -0.0 and 0.0 differ.
    """
    global _last_solve
    n = op.size
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    d, e = op.diag, op.offdiag
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ValueError("tridiagonal operator must not contain infs or NaNs")
    lapack = _flapack()
    key = (k, np.asarray(d, dtype=float).tobytes(), np.asarray(e, dtype=float).tobytes())
    last = _last_solve
    if eigvals_only and last is not None and last[0] is lapack and last[1] == key:
        return last[2].copy()
    _last_solve = None
    # range "I" (2) over indices 1..k; abstol 0 is LAPACK's machine-precision
    # default; vectors need block order ("B"), reordered below.
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, 1, k, 0.0, "E" if eigvals_only else "B")
    _check_info(info, "stebz")
    w = w[:m]
    if eigvals_only:
        _last_solve = (lapack, key, w.copy())
        return w
    v, info = lapack.dstein(d, e, w, iblock, isplit)
    _check_info(info, "stein")
    order = np.argsort(w)
    w = w[order]
    # This sort and LAPACK's own sort of a values-only solve can leave tied
    # values in different orders, and +0.0 ties -0.0, so only strictly
    # ascending values stand in for a values-only solve bit for bit.
    if np.all(w[1:] > w[:-1]):
        _last_solve = (lapack, key, w.copy())
    return w, v[:, order]


def eigenvalues_lowest(op: TridiagonalOperator, k: int) -> np.ndarray:
    """The k smallest eigenvalues, ascending, by Sturm-sequence bisection alone.

    Bisection certifies each eigenvalue to LAPACK's machine-precision
    absolute tolerance on its own, so no eigenvector is computed and no
    residual is needed. The values equal those of eigen_lowest(op, k)
    exactly. Raises SolverError unless bisection returns k finite values.
    """
    lam = np.sort(_stebz_lowest(op, k, eigvals_only=True))
    if lam.size != k or not np.all(np.isfinite(lam)):
        raise SolverError(
            f"bisection returned {lam.size} values, {int(np.count_nonzero(np.isfinite(lam)))} "
            f"of them finite, for k={k}"
        )
    return lam


def eigen_lowest(op: TridiagonalOperator, k: int) -> List[EigenResult]:
    """The k smallest eigenpairs by Sturm-sequence bisection + inverse iteration.

    Bisection brackets are disjoint by construction, so duplicate eigenvalues
    cannot be conflated; its absolute tolerance is LAPACK's machine-precision
    default. Raises SolverError on inverse-iteration failure or if a residual
    exceeds the backward-error bound max(sqrt(N), 4) eps ||T||_inf.
    """
    lam, vec = _stebz_lowest(op, k, eigvals_only=False)
    # Standard backward-error bound of a symmetric tridiagonal eigenpair; the
    # worst residual seen on drawn models (N up to 64000) sits near 1/20 of it.
    # Evaluating the residual itself rounds at a few eps ||T||, which sets the
    # floor on tiny grids (measured up to 2.3 eps ||T|| at N = 3).
    bound = max(math.sqrt(op.size), RESIDUAL_FLOOR) * np.finfo(float).eps * op.norm_inf()
    order = np.argsort(lam)
    results = []
    for idx in order:
        v = vec[:, idx]
        v = v * (_first_extremum_sign(v) / math.sqrt(op.h * float(v @ v)))
        res = float(np.linalg.norm(op.matvec(v) - lam[idx] * v) / np.linalg.norm(v))
        if res > bound:
            raise SolverError(
                f"inverse iteration for eigenvalue index {int(idx)} left residual "
                f"{res:.3e} above bound {bound:.3e}"
            )
        results.append(EigenResult(eigenvalue=float(lam[idx]), vector=v, residual=res))
    return results


def numeric_levels(
    spec: ModelSpec, k: int, grid: Optional[Grid] = None, n_points: int = DEFAULT_N_POINTS
) -> Tuple[Grid, List[EigenResult]]:
    """Solve the effective problem for the k lowest eigenpairs."""
    problem = effective_problem(spec)
    if grid is None:
        grid = choose_domain(problem, k, n_points=n_points)
    op = discretize(problem, grid)
    return grid, eigen_lowest(op, k)


def spectrum_table(problem: RadialProblem, eigenvalues) -> SpectrumTable:
    """Numeric spectrum table from the ascending eigenvalues of the problem's operator.

    Eigenvalues map affinely to E^2; a negative E^2 would mean the
    discretization failed badly and is reported as a hard error rather
    than silently clipped.
    """
    levels = []
    for n, lam in enumerate(map(float, eigenvalues)):
        e2 = float(problem.lambda_to_e2(lam))
        if e2 < 0:
            raise SolverError(
                f"squared energy {e2:.6g} < 0 at level {n}; discretization failure"
            )
        eps = float(problem.lambda_to_eps(lam))
        levels.append(Level(n=n, e2=e2, e=math.sqrt(e2), eps=eps))
    return SpectrumTable(source="numeric", levels=tuple(levels))


def numeric_spectrum(
    spec: ModelSpec, k: int, grid: Optional[Grid] = None, n_points: int = DEFAULT_N_POINTS
) -> SpectrumTable:
    """Spectrum table of the k lowest levels from the finite-difference route.

    Only eigenvalues are computed (bisection, no inverse iteration).
    """
    problem = effective_problem(spec)
    if grid is None:
        grid = choose_domain(problem, k, n_points=n_points)
    return spectrum_table(problem, eigenvalues_lowest(discretize(problem, grid), k))


def residual_pair_check(spec: ModelSpec, energy: float, grid: Grid, psi1: np.ndarray) -> float:
    """Closure residual of the first-order spinor pair on a numeric level.

    Recovers psi2 from psi1 via the forward pair relation, then measures how
    well the conjugate relation c (-d/dx + W_eff) psi2 = (E - mc^2) psi1
    holds, as ||lhs - rhs||_2 / ||psi1||_2 with central differences. Small
    values certify that the level solves the first-order system, not merely
    the squared one.

    Converges as O(h^2) for the 1D families. In 2D sectors whose radial
    profile has a fractional power-law cusp at the origin the residual
    plateaus at an h-independent value: the difference stencil cannot follow
    r**nu with fractional nu at the first few nodes, and the 1/r part of the
    pair superpotential amplifies exactly those nodes.
    """
    x = grid.nodes
    psi1 = np.asarray(psi1, dtype=float)
    if psi1.shape != x.shape:
        raise ValueError("psi1 must be sampled on the grid nodes")
    psi2 = pair_recover_psi2(spec, energy, x, psi1)
    w = pair_superpotential(spec, x)
    dpsi2 = np.gradient(psi2, grid.h, edge_order=2)
    lhs = spec.params.c * (-dpsi2 + w * psi2)
    rhs = (energy - spec.mc2) * psi1
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(psi1))


# Extra ladder rungs of domain headroom for order measurements: the Dirichlet
# box must truncate the tail so far below the h^2 stencil error that it cannot
# pollute the N-vs-2N ratio (the box error does not shrink with h).
_ORDER_DOMAIN_MARGIN = 6


def convergence_order(spec: ModelSpec, n: int, n_points: int = 2000) -> float:
    """Observed order p with |E2 error| ~ h^p, from grids at N and 2N.

    Both grids share one domain so only h changes, and that domain is sized
    several rungs past level n: box-truncation error is h-independent, so it
    must sit far below the stencil error for the ratio to mean anything. The
    3-point stencil gives p close to 2; strongly fractional centrifugal
    sectors needn't exceed 1.5 (the eigenfunction power-law cusp at the
    origin limits the quadrature of the truncation error).
    """
    problem = effective_problem(spec)
    grid1 = choose_domain(problem, n + _ORDER_DOMAIN_MARGIN, n_points=n_points)
    grid2 = Grid(grid1.x_min, grid1.x_max, 2 * n_points)
    exact = analytic_e2(spec, n)
    errs = []
    for grid in (grid1, grid2):
        table = numeric_spectrum(spec, n + 1, grid=grid)
        errs.append(abs(table.levels[n].e2 - exact))
    if errs[1] == 0:
        raise SolverError("refined-grid error vanished; cannot estimate an order")
    return math.log2(errs[0] / errs[1])


def count_nodes(v: np.ndarray, rel_floor: float = 1e-6) -> int:
    """Count sign changes of a sampled function, ignoring near-zero samples."""
    v = np.asarray(v, dtype=float)
    keep = np.abs(v) > rel_floor * np.abs(v).max()
    signs = np.sign(v[keep])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))

"""Finite-difference verification route for the oscillator spectra.

The effective problem -u'' + V u = lambda u is discretized on a uniform
Dirichlet grid with the standard 3-point stencil, giving a symmetric
tridiagonal operator whose lowest eigenvalues or eigenpairs the LAPACK layer
(the lapack module) computes.
solve_many is the one model-level solve: effective problem, domain, operator,
LAPACK, for a batch of independent requests; solve is its one-request case.
numeric_levels, numeric_spectrum, the CLI's spectrum and wavefunction
commands and the verify suites all go through it; it also takes bare
operators, for their k lowest eigenvalues or eigenpairs or for all their
eigenvalues, and it is the only caller of lapack.solve_operators:
eigenvalues_lowest and eigen_lowest are its one-request cases. A values-only
model-level solve reuses the eigenvalues of the latest solve of an equal
(spec, grid, k); every other request runs LAPACK.
This route never touches the closed forms: it imports only the Level and
SpectrumTable records from the analytic module, and reads the ladder only to
size the domain and map lambda to E^2, so agreement with it is a genuine
cross-check (verify.convergence_order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .analytic import Level, SpectrumTable
from .lapack import EigenResult, SolverError, TridiagonalOperator, solve_operators
from .models import ModelSpec, RadialProblem, effective_problem, finite_on_nodes, pair_recover_psi2, pair_superpotential

__all__ = [
    "SolverError",
    "Grid",
    "TridiagonalOperator",
    "EigenResult",
    "choose_domain",
    "discretize",
    "eigen_lowest",
    "eigenvalues_lowest",
    "SolveRequest",
    "solve",
    "solve_many",
    "spectrum_table",
    "numeric_levels",
    "numeric_spectrum",
    "residual_pair_check",
]

# Domain sizing: the boundary potential must dominate the top eigenvalue
# estimate by this factor, reached within X_MAX_LIMIT.
POTENTIAL_MARGIN = 3.0
X_MAX_LIMIT = 1e6

DEFAULT_N_POINTS = 4000


@dataclass(frozen=True)
class Grid:
    """Uniform interior grid for a Dirichlet problem on [x_min, x_max].

    The n_points nodes are x_min + j h for j = 1..n_points with
    h = (x_max - x_min) / (n_points + 1); both endpoints are excluded,
    which keeps half-line grids away from a singular origin. h^2 and 2/h^2
    must be finite and nonzero, so every stencil built on the grid is finite.
    """

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 3:
            raise ValueError(f"grid needs at least 3 interior points, got {self.n_points}")
        if not (self.x_max > self.x_min):
            raise ValueError(f"grid requires x_max > x_min, got [{self.x_min}, {self.x_max}]")
        h2 = self.h * self.h
        if not (0.0 < h2 < math.inf and 2.0 / h2 < math.inf):
            raise ValueError(f"grid spacing h={self.h:.3g} is out of range: h^2 and 2/h^2 must be finite and nonzero")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(1, self.n_points + 1)


def choose_domain(problem: RadialProblem, k: int, n_points: int = DEFAULT_N_POINTS, x_max: Optional[float] = None) -> Grid:
    """Pick a grid whose boundary potential dominates the requested levels, unless x_max gives its outer edge.

    Without x_max the edge solves strength^2 x^2 = 3 lambda_est, lambda_est
    the closed-form ladder value one past the top requested level, so
    V(x_max) >= 3 lambda_est for every family (the centrifugal terms are
    nonnegative). A given x_max is used as it is, unchecked against k, the
    estimate or X_MAX_LIMIT. Full-line problems get the symmetric domain,
    half-line problems start at 0.
    """
    if x_max is None:
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
    if problem.domain == "half-line" and grid.x_min < 0:
        raise ValueError(
            f"half-line problem discretized on a grid reaching x_min={grid.x_min} < 0"
        )
    x = grid.nodes
    # An overflow shows as inf and is named below.
    with np.errstate(over="ignore"):
        v = finite_on_nodes(np.asarray(problem.potential(x), dtype=float), x, "potential")
    h = grid.h
    diag = 2.0 / h ** 2 + v
    offdiag = np.full(grid.n_points - 1, -1.0 / h ** 2)
    return TridiagonalOperator(diag=diag, offdiag=offdiag, h=h)


def raise_first(answers: list) -> list:
    """The answers of solve_many, unless one is an exception: then the first of those is raised."""
    for answer in answers:
        if isinstance(answer, Exception):
            raise answer
    return answers


def eigenvalues_lowest(op: TridiagonalOperator, k: int) -> np.ndarray:
    """The k smallest eigenvalues, ascending, by Sturm-sequence bisection alone.

    Bisection certifies each eigenvalue to LAPACK's machine-precision
    absolute tolerance on its own, so no eigenvector is computed and no
    residual is needed. The values equal those of eigen_lowest(op, k)
    exactly. Raises SolverError unless bisection returns k finite values.
    """
    return raise_first(solve_many([(op, k)]))[0]


def eigen_lowest(op: TridiagonalOperator, k: int) -> List[EigenResult]:
    """The k smallest eigenpairs by Sturm-sequence bisection + inverse iteration.

    Bisection brackets are disjoint by construction, so duplicate eigenvalues
    cannot be conflated; its absolute tolerance is LAPACK's machine-precision
    default. Raises SolverError unless bisection returns k finite values, on
    inverse-iteration failure, or if a residual exceeds the backward-error
    bound max(sqrt(N), 4) eps ||T||_inf or is NaN. Residual and bound are
    computed on the operator the seam scaled by 2^-p, where no product
    overflows, and the residual is reported in T's own units.
    """
    return raise_first(solve_many([(op, k, True)]))[0]


# The latest solve as ((spec, grid, k), its eigenvalues as a tuple of floats),
# swapped by a single assignment so a thread reads a whole entry or none. Equal
# keys build bit-equal operators: 0.0 and -0.0, equal but not in bits, reach
# one only through ml - b or x_min + j h.
_latest_model_solve = None


class SolveRequest(NamedTuple):
    """One model-level solve of solve_many, with solve's arguments."""

    spec: ModelSpec
    k: int
    grid: Optional[Grid] = None
    n_points: int = DEFAULT_N_POINTS
    x_max: Optional[float] = None
    vectors: bool = False


def solve_many(requests) -> list:
    """Independent solves side by side, each answered in its own place with the bits it gets on its own.

    A request is a SolveRequest, answered with what solve returns for it, or
    an operator's request in the form (operator, k[, vectors]) that
    lapack.solve_operators takes: (operator, k) is answered with
    eigenvalues_lowest(operator, k), (operator, k, True) with
    eigen_lowest(operator, k), and (operator, None) with all its
    eigenvalues, ascending, from LAPACK sterf. This thread builds every
    operator and then hands them all to solve_operators in one call, which
    runs their LAPACK calls side by side. A request that fails, while its
    operator is built, in a LAPACK call or in a check, is answered with the
    exception it raises on its own, and every other request is answered all
    the same: solve_many raises nothing for the batch, and raise_first
    raises the first failure of its answers. SolveRequests of an equal
    (spec, grid, k) share one seam, which computes eigenvectors if any of
    them asks for them: a values-only request takes the eigenpairs' values,
    the bits of its own bisection, every vectors request gets its own
    arrays, and a failure of the seam answers each request that shares it.
    Operator requests share no seam. A values-only SolveRequest whose
    (spec, grid, k) equals that of the latest solve as the batch began runs
    no LAPACK; the batch's last SolveRequest answered without an exception
    becomes the latest solve.
    """
    global _latest_model_solve
    latest, answers, jobs, plans, shared = _latest_model_solve, [], {}, {}, {}
    for i, request in enumerate(requests):
        answers.append(None)
        try:
            if isinstance(request[0], TridiagonalOperator):
                jobs[i] = request
                continue
            spec, k, grid, n_points, x_max, vectors = request
            problem = effective_problem(spec)
            if grid is None:
                grid = choose_domain(problem, k, n_points, x_max)
            key = (spec, grid, k)
            # The seam that answers it: none where the latest solve's entry does, else the first equal request's.
            source = None if not vectors and latest is not None and latest[0] == key else shared.get(key, i)
            if source == i:
                jobs[i], shared[key] = (discretize(problem, grid), k, vectors), i
            elif vectors:
                jobs[source] = (*jobs[source][:2], True)
            plans[i] = (grid, problem, key, vectors, source)
        except Exception as exc:  # the request's answer
            answers[i] = exc
    done = solve_operators(jobs)
    for i, answer in done.items():
        answers[i] = answer
    entry = None
    for i, (grid, problem, key, vectors, source) in plans.items():
        answer = latest[1] if source is None else done[source]
        if isinstance(answer, Exception):
            answers[i] = answer
            continue
        if source is None:
            entry = latest
        elif isinstance(answer, list):
            entry = (key, tuple(r.eigenvalue for r in answer))
        else:
            entry = (key, tuple(answer.tolist()))
        # The seam's own eigenpairs go to the request that made it, copies to the others that share it.
        pairs = None if not vectors else answer if i == source else [replace(r, vector=r.vector.copy()) for r in answer]
        answers[i] = (grid, problem, entry[1], pairs)
    if entry is not None:
        _latest_model_solve = entry
    return answers


def solve(spec: ModelSpec, k: int, grid: Optional[Grid] = None, n_points: int = DEFAULT_N_POINTS, x_max: Optional[float] = None,
          vectors: bool = False) -> Tuple[Grid, RadialProblem, Tuple[float, ...], Optional[List[EigenResult]]]:
    """The one model-level solve: (grid, problem, the k lowest eigenvalues, eigenpairs or None).

    Builds the effective problem once and, unless a grid is given, picks it
    with choose_domain(problem, k, n_points, x_max). With vectors, eigen_lowest's
    work always runs and its eigenpairs are returned; otherwise only
    eigenvalues are computed, and none when the latest solve had an equal
    (spec, grid, k). Every successful solve becomes the latest; one that
    raises leaves it. This is solve_many's one-request case: it raises the
    exception solve_many answers the request with.
    """
    return raise_first(solve_many([SolveRequest(spec, k, grid, n_points, x_max, vectors)]))[0]


def numeric_levels(
    spec: ModelSpec, k: int, grid: Optional[Grid] = None, n_points: int = DEFAULT_N_POINTS
) -> Tuple[Grid, List[EigenResult]]:
    """Solve the effective problem for the k lowest eigenpairs."""
    grid, _, _, results = solve(spec, k, grid, n_points, vectors=True)
    return grid, results


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
    return SpectrumTable(tuple(levels))


def numeric_spectrum(
    spec: ModelSpec, k: int, grid: Optional[Grid] = None, n_points: int = DEFAULT_N_POINTS
) -> SpectrumTable:
    """Spectrum table of the k lowest levels from the finite-difference route.

    Only eigenvalues are computed (bisection, no inverse iteration), and none
    when the latest solve had an equal (spec, grid, k).
    """
    grid, problem, eigenvalues, _ = solve(spec, k, grid, n_points)
    return spectrum_table(problem, eigenvalues)


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

"""Finite-difference verification route for the oscillator spectra.

The effective problem -u'' + V u = lambda u is discretized on a uniform
Dirichlet grid with the standard 3-point stencil, giving a symmetric
tridiagonal matrix whose lowest eigenvalues are found by Sturm-sequence
bisection (LAPACK stebz). Neither stebz nor stein scales its input, so the
one LAPACK seam (_lapack_seam) hands them 2^-p T, with 2^p just above the
largest |entry| of T, and scales the values back by 2^p: a power of two is
exact, so the size of T's entries alone does not make a solve fail.
Values-only (eigenvalues_lowest) and eigenpair (eigen_lowest) requests make
the same single stebz call and sort its values the same way, so both return
the same bits; on the operators that _lapack_seam names, these equal the
values of scipy.linalg.eigh_tridiagonal. All the eigenvalues of an
operator come from LAPACK sterf, the last step of numpy.linalg.eigvalsh,
on unscaled copies of its diagonals (sterf scales each block itself).
Bisection certifies each value to its absolute tolerance without any
eigenvector. Inverse iteration (LAPACK stein) runs only where eigenvectors
are returned, and each of those eigenpairs must pass the backward-error
bound max(sqrt(N), 4) eps ||T||_inf on its residual, taken on the scaled
operator; a NaN residual fails the bound.
solve_many is the one model-level solve: effective problem, domain, operator,
LAPACK, for a batch of independent requests; solve is its one-request case.
numeric_levels, numeric_spectrum, the CLI's spectrum and wavefunction
commands and the verify suites all go through it; it also takes bare
operators, for their k lowest eigenvalues or eigenpairs or for all their
eigenvalues, and it is the only code that drives the LAPACK seam:
eigenvalues_lowest and eigen_lowest are its one-request cases. A values-only
model-level solve reuses the eigenvalues of the latest solve of an equal
(spec, grid, k); every other request runs LAPACK.
This route never touches the closed forms: it imports only the Level and
SpectrumTable records from the analytic module, and reads the ladder only to
size the domain and map lambda to E^2, so agreement with it is a genuine
cross-check (verify.convergence_order).

scipy.linalg is never imported. The three LAPACK routines are the Fortran
dstebz, dstein and dsterf that scipy's compiled LAPACK wrapper module wraps
(scipy.linalg._flapack, the module scipy.linalg.lapack re-exports), which the
solver loads on its own at the first eigensolve, without running the package
initialisation of scipy or scipy.linalg: scipy itself is never imported
either. The solver takes each routine's address from its f2py wrapper, and
_lapack_seam, the only code that knows their arguments, calls them through
ctypes with the arguments the wrapper would pass, so the results are the
same bits; unlike the wrapper, ctypes releases the GIL for the length of the
call. So solve_many runs the LAPACK calls of a batch's independent
operators side by side, on up to one thread per CPU the process may use,
while the calling thread builds every operator, allocates every array
(helper threads would each grow a malloc arena of their own) and does all
the checking and the work on values and vectors.
Commands that only evaluate closed forms (spectrum --method analytic,
nonrel) load no LAPACK at all. A later `import scipy.linalg` reuses the
module the solver loaded, and the solver reuses one already imported.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .analytic import Level, SpectrumTable
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


def _first_extremum_sign(v: np.ndarray) -> float:
    """Sign of the first local maximum of |v| above a relative floor."""
    av = np.abs(v)
    falls = (av[:-1] > 1e-3 * av.max()) & (av[1:] < av[:-1])
    j = int(np.argmax(falls)) if falls.any() else int(np.argmax(av))
    return 1.0 if v[j] > 0 else -1.0


_FLAPACK = "scipy.linalg._flapack"


@functools.cache
def _flapack():
    """scipy's compiled LAPACK wrapper module, loaded once without scipy's package init.

    An already imported module is reused. Otherwise the module is located
    through the import system's finders inside the linalg directory of each
    scipy location and executed directly. Finding the spec of the top-level
    scipy package imports nothing, so neither scipy's nor scipy.linalg's
    package initialisation runs. The extension registers itself in
    sys.modules, so a later `import scipy.linalg` shares this very module.
    """
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError(f"cannot locate {_FLAPACK}: scipy is not installed", name=_FLAPACK)
    path = [os.path.join(location, "linalg") for location in scipy.submodule_search_locations]
    for finder in sys.meta_path:
        find_spec = getattr(finder, "find_spec", None)
        spec = find_spec(_FLAPACK, path) if find_spec else None
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


@functools.cache
def _lapack():
    """{"dstebz": ..., "dstein": ..., "dsterf": ...}: the Fortran routines behind _flapack's wrappers, as ctypes functions.

    Each f2py wrapper's _cpointer capsule holds the address of the routine
    it calls. The ctypes functions take the routine's own arguments: every
    scalar by reference, arrays checked for dtype, rank and layout, and the
    hidden length of each character argument as a size_t after the others.
    ctypes releases the GIL for the length of each call, which the f2py
    wrappers hold.
    """
    import ctypes

    from numpy.ctypeslib import ndpointer

    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    c_int, c_double, c_size_t = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double), ctypes.c_size_t
    doubles, ints = ndpointer(np.float64, 1, flags="C"), ndpointer(np.intc, 1, flags="C")
    signatures = {
        # RANGE, ORDER, N, VL, VU, IL, IU, ABSTOL, D, E, M, NSPLIT, W, IBLOCK, ISPLIT, WORK, IWORK, INFO
        "dstebz": (ctypes.c_char_p, ctypes.c_char_p, c_int, c_double, c_double, c_int, c_int, c_double, doubles,
                   doubles, c_int, c_int, doubles, ints, ints, doubles, ints, c_int, c_size_t, c_size_t),
        # N, D, E, M, W, IBLOCK, ISPLIT, Z, LDZ, WORK, IWORK, IFAIL, INFO
        "dstein": (c_int, doubles, doubles, c_int, doubles, ints, ints, ndpointer(np.float64, 2, flags="F"),
                   c_int, doubles, ints, ints, c_int),
        # N, D, E, INFO
        "dsterf": (c_int, doubles, doubles, c_int),
    }
    module = _flapack()
    return {name: ctypes.CFUNCTYPE(None, *argtypes)(address(getattr(module, name)._cpointer, None))
            for name, argtypes in signatures.items()}


def _lapack_seam(op: TridiagonalOperator, k: Optional[int], vectors: bool = False):
    """LAPACK stebz for the k smallest eigenvalues, ascending, or with vectors stein for their eigenpairs,
    as eigen_lowest returns them; with k None, sterf for every eigenvalue, ascending.

    A generator, and the only code that knows the arguments of dstebz,
    dstein and dsterf. It allocates every array they write, on the calling
    thread, and yields each call as call(work, iwork) over _lapack()'s
    routine, to run without the GIL on any thread with scratch of at least
    5N doubles and 3N ints (sterf uses none). Resumed with None, or with the
    call's exception thrown in, it reads the output back itself, checks it,
    and returns the answer.

    stebz and stein do not scale their input, so both run on 2^-p T, with p
    the binary exponent of the largest |entry| of T: its entries lie below 1
    in magnitude, so no square or product inside them overflows. A power of
    two is exact, and the values are scaled back by 2^p. Both requests make
    the same stebz call, in block order as stein needs, raise SolverError
    before any stein call unless it gave k values that are finite in T's
    units, and sort them by one stable argsort, so values and eigenpairs are
    the same bits. Each eigenpair's residual and its bound are taken on
    2^-p T, against the returned value scaled by 2^-p, and the residual is
    reported in T's units; the vector is signed and h-normalized as
    EigenResult states. The calls, arguments and checks are those of
    scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1),
    lapack_driver="stebz") on 2^-p T; on every operator that stebz does not
    split into blocks, whose off-diagonal squares are normal floats, whose
    scaled entries do not underflow and whose nonzero diagonal entries all
    exceed 1e-100 max|T|, its values are the same bits as that call on T
    itself. stebz floors each Sturm-count pivot at SAFEMIN max(1, max e_j^2),
    which does not scale with T, so next to a nonzero diagonal entry that
    small the two bisections can count differently, and then agree within
    eps ||T||_inf (within 0.5 eps ||T||_inf in every mismatch measured).

    sterf scales each block itself, so it runs on unscaled copies of d and
    e, and raises SolverError unless all N values are finite. It is the last
    step of numpy.linalg.eigvalsh, whose dsyevd reduces the dense matrix to
    a tridiagonal one, which leaves a tridiagonal matrix unchanged, and
    calls dsterf: so where max|T| lies in [2^-485, 2^485] (about 1e-146 to
    1e146), the values are the bits of numpy.linalg.eigvalsh on T made
    dense. Outside that range dsyevd first scales the matrix by a factor
    that is not a power of two, and the two results then differ by sterf's
    own rounding on the two inputs: by up to 160 eps ||T||_inf, measured on
    random interleaved block operators with N up to 240.
    """
    import ctypes

    n = op.size
    if k is not None and (k < 1 or k > n):
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    s = float(np.max(np.abs(np.concatenate((op.diag, op.offdiag)))))
    if not math.isfinite(s):
        raise ValueError("tridiagonal operator must not contain infs or NaNs")
    lapack = _lapack()
    info = ctypes.c_int()
    if k is None:
        # sterf overwrites d with the values, ascending, and e with scratch.
        d, e = op.diag.copy(), op.offdiag.copy()
        yield lambda work, iwork: lapack["dsterf"](ctypes.c_int(n), d, e, info)
        _check_info(info.value, "sterf")
        finite = int(np.count_nonzero(np.isfinite(d)))
        if finite < n:
            raise SolverError(f"sterf returned {n} values, {finite} of them finite")
        return d
    p = math.frexp(s)[1]
    d, e = np.ldexp(op.diag, -p), np.ldexp(op.offdiag, -p)
    m, nsplit = ctypes.c_int(), ctypes.c_int()
    w, iblock, isplit = np.empty(n), np.empty(n, np.intc), np.empty(n, np.intc)
    # Range "I" over indices 1..k (VL and VU unused); ABSTOL 0 is LAPACK's
    # machine-precision default; block order ("B"), as stein needs.
    yield lambda work, iwork: lapack["dstebz"](
        b"I", b"B", ctypes.c_int(n), ctypes.c_double(0.0), ctypes.c_double(1.0), ctypes.c_int(1), ctypes.c_int(k),
        ctypes.c_double(0.0), d, e, m, nsplit, w, iblock, isplit, work, iwork, info, 1, 1)
    _check_info(info.value, "stebz")
    w = w[:m.value]
    # An eigenvalue past the float range of T shows as inf, caught below.
    with np.errstate(over="ignore"):
        lam = np.ldexp(w, p)
    if lam.size != k or not np.all(np.isfinite(lam)):
        raise SolverError(
            f"bisection returned {lam.size} values, {int(np.count_nonzero(np.isfinite(lam)))} "
            f"of them finite, for k={k}"
        )
    order = np.argsort(w, kind="stable")
    if not vectors:
        return lam[order]
    z, ifail = np.empty((n, k), order="F"), np.empty(k, np.intc)
    yield lambda work, iwork: lapack["dstein"](
        ctypes.c_int(n), d, e, ctypes.c_int(k), w, iblock, isplit, z, ctypes.c_int(n), work, iwork, ifail, info)
    _check_info(info.value, "stein")
    scaled = TridiagonalOperator(d, e)
    # Standard backward-error bound of a symmetric tridiagonal eigenpair; the
    # worst residual seen on drawn models (N up to 64000) sits near 1/20 of it.
    # Evaluating the residual itself rounds at a few eps ||T||, which sets the
    # floor on tiny grids (measured up to 2.3 eps ||T|| at N = 3).
    bound = max(math.sqrt(n), RESIDUAL_FLOOR) * np.finfo(float).eps * scaled.norm_inf()
    results = []
    for idx, j in enumerate(order):
        u = z[:, j]
        res = float(np.linalg.norm(scaled.matvec(u) - np.ldexp(lam[j], -p) * u) / np.linalg.norm(u))
        if not res <= bound:  # a NaN residual fails too
            raise SolverError(
                f"inverse iteration for eigenvalue index {idx} left residual "
                f"{np.ldexp(res, p):.3e} above bound {np.ldexp(bound, p):.3e}"
            )
        v = u * (_first_extremum_sign(u) / math.sqrt(op.h * float(u @ u)))
        results.append(EigenResult(eigenvalue=float(lam[j]), vector=v, residual=float(np.ldexp(res, p))))
    return results


def _run_lanes(calls, n: int) -> list:
    """Run seam calls side by side, each on scratch for an operator of size up to n; each call's exception, or None.

    There is one lane per CPU the process may use, and at most one per call:
    the calling thread and helper threads, each with its own scratch arrays,
    allocated here, taking the next call that no lane has taken. The calls
    release the GIL. A single call runs inline and starts no thread.
    Returns once every call has returned.
    """
    import threading

    errors = [None] * len(calls)
    untaken = iter(range(len(calls)))
    lock = threading.Lock()

    def lane(work, iwork):
        while True:
            with lock:
                i = next(untaken, None)
            if i is None:
                return
            try:
                calls[i](work, iwork)
            except Exception as exc:  # thrown back into the call's seam on the calling thread
                errors[i] = exc

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    # Scratch for dstebz (4n doubles, 3n ints) or dstein (5n doubles, n ints).
    scratch = [(np.empty(5 * n), np.empty(3 * n, np.intc)) for _ in range(min(len(calls), cpus))]
    helpers = [threading.Thread(target=lane, args=arrays) for arrays in scratch[1:]]
    for helper in helpers:
        helper.start()
    try:
        lane(*scratch[0])
    finally:
        for helper in helpers:
            helper.join()
    return errors


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
    _lapack_seam takes: (operator, k) is answered with
    eigenvalues_lowest(operator, k), (operator, k, True) with
    eigen_lowest(operator, k), and (operator, None) with all its
    eigenvalues, ascending, from LAPACK sterf. This thread builds every
    operator, allocates every array, checks every LAPACK result and does all
    the work on values and vectors: each round advances every unfinished
    seam to its next LAPACK call, runs those calls side by side on
    _run_lanes, with scratch for the largest operator, and resumes each seam
    with None or throws its call's exception into it. Only the LAPACK calls,
    which release the GIL, run off this thread, so a batch of one starts no
    thread. A request that fails, while its operator is built, in a LAPACK
    call or in a check, is answered with the exception it raises on its
    own, and every other request is answered all the same: solve_many
    raises nothing for the batch, and raise_first raises the first failure
    of its answers. A values-only SolveRequest whose (spec, grid, k) equals
    that of the latest solve as the batch began runs no LAPACK; the batch's
    last SolveRequest answered without an exception becomes the latest solve.
    """
    global _latest_model_solve
    latest, answers, seams, plans, n = _latest_model_solve, [], {}, {}, 0
    for i, request in enumerate(requests):
        answers.append(None)
        try:
            if isinstance(request[0], TridiagonalOperator):
                op, job = request[0], request[1:]
            else:
                spec, k, grid, n_points, x_max, vectors = request
                problem = effective_problem(spec)
                if grid is None:
                    grid = choose_domain(problem, k, n_points, x_max)
                key = (spec, grid, k)
                plans[i] = (grid, problem, key, vectors)
                if not vectors and latest is not None and latest[0] == key:
                    continue  # the latest solve's entry answers it without LAPACK
                op, job = discretize(problem, grid), (k, vectors)
            seams[i], n = _lapack_seam(op, *job), max(n, op.size)
        except Exception as exc:  # the request's answer
            answers[i] = exc
    # Each unfinished seam with what it resumes with: None, or its last call's exception.
    resume = dict.fromkeys(seams)
    while resume:
        calls = {}
        for i, exc in resume.items():
            try:
                calls[i] = seams[i].send(None) if exc is None else seams[i].throw(exc)
            except StopIteration as stop:
                answers[i] = stop.value
            except Exception as failure:  # the request's answer
                answers[i] = failure
        resume = dict(zip(calls, _run_lanes(list(calls.values()), n))) if calls else {}
    entry = None
    for i, (grid, problem, key, vectors) in plans.items():
        answer = answers[i]
        if isinstance(answer, Exception):
            continue
        entry = (key, tuple(r.eigenvalue for r in answer) if vectors else tuple(answer.tolist())) if i in seams else latest
        answers[i] = (grid, problem, entry[1], answer if vectors else None)
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

"""Verification suites over a fixed, documented parameter matrix.

Each suite runs deterministic checks and returns structured results; the CLI
prints one PASS/FAIL line per check and fails the run if any check fails.
The parameter matrix below is the single source of truth for which models
get exercised (see README for the same table in prose).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List

import numpy as np

from .analytic import analytic_e2, analytic_nonrel_eps, build_spectrum_table
from .models import Family, ModelSpec, PhysicalParams, default_spec, effective_problem
from .solver import (
    SolveRequest,
    SolverError,
    choose_domain,
    numeric_spectrum,
    raise_first,
    residual_pair_check,
    solve_many,
    spectrum_table,
)
from .susyblock import (
    block_branches,
    build_block_hamiltonian,
    commutator_rayleigh,
    discretize_supercharge,
    isospectrality_report,
)

__all__ = ["CheckResult", "SUITES", "available_suites", "run_suite", "nonrel_sweep", "nonrel_check", "convergence_order"]

# Relative E^2 tolerance of the spectrum suite's two numeric checks.
DEFAULT_TOLERANCE = 1e-4
MACHINE_REL = 1e-12
ISOSPECTRAL_REL = 1e-10
BLOCK_REL = 1e-2
LADDER_ABS = 1e-2
COMMUTATOR_ABS = 5e-2
ROUTE_REL = 5e-2
PAIR_RESIDUAL = 5e-3
EMBED_REL = 1e-8
NONREL_C_VALUES = (10.0, 20.0, 40.0)
NONREL_RATIO_LOW = 3.5
NONREL_RATIO_HIGH = 4.5


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _spec(family: Family, *, m=1.0, c=1.0, omega=1.0, a=1.0, b=1.0, ml=None) -> ModelSpec:
    return ModelSpec(family, PhysicalParams(m=m, c=c, omega=omega, a=a, b=b), ml=ml)


# Three parameter sets per family for the closed-form ladder checks. Each
# ladder's E^2 gap must be c^2 times its problem's lambda gap.
EQUISPACING_SETS: Dict[Family, List[ModelSpec]] = {
    Family.HARMONIC_1D: [
        _spec(Family.HARMONIC_1D),
        _spec(Family.HARMONIC_1D, m=2.0, omega=0.5),
        _spec(Family.HARMONIC_1D, m=1.5, c=2.0, omega=2.5),
    ],
    Family.ISOTONIC_1D: [
        _spec(Family.ISOTONIC_1D),
        _spec(Family.ISOTONIC_1D, a=2.0, b=0.5),
        _spec(Family.ISOTONIC_1D, m=2.0, c=1.5, a=0.7, b=2.3),
    ],
    Family.HARMONIC_2D: [
        _spec(Family.HARMONIC_2D, ml=1),
        _spec(Family.HARMONIC_2D, ml=-2),
        _spec(Family.HARMONIC_2D, m=2.0, c=1.5, omega=0.8, ml=3),
    ],
    Family.ISOTONIC_2D: [
        _spec(Family.ISOTONIC_2D, b=0.25, ml=1),
        _spec(Family.ISOTONIC_2D, a=1.5, b=-0.5, ml=1),
        _spec(Family.ISOTONIC_2D, c=2.0, a=1.0, b=0.5, ml=2),
    ],
}


def _suite_spectrum(tolerance: float):
    out = []
    for family in Family:
        for i, spec in enumerate(EQUISPACING_SETS[family]):
            e2 = build_spectrum_table(spec, 6).e2_values()
            gaps = np.diff(e2)
            e2_gap = spec.params.c ** 2 * effective_problem(spec).lambda_gap
            dev = float(np.max(np.abs(gaps - e2_gap)))
            bound = MACHINE_REL * e2_gap
            out.append(CheckResult(
                "spectrum", f"equispacing {family.value}[{i}]", dev <= bound,
                f"max gap deviation {dev:.3e} (bound {bound:.3e})"))
    # The numeric-agreement and degeneracy solves.
    solved = iter((yield [SolveRequest(default_spec(family), 5) for family in Family]
                   + [SolveRequest(_spec(Family.HARMONIC_2D, ml=ml), 4) for ml in (1, 2, 3)]))
    for family in Family:
        spec = default_spec(family)
        ana = build_spectrum_table(spec, 5).e2_values()
        _, problem, eigenvalues, _ = next(solved)
        num = spectrum_table(problem, eigenvalues).e2_values()
        rel = float(np.max(np.abs(num - ana) / np.abs(ana)))
        out.append(CheckResult(
            "spectrum", f"numeric-agreement {family.value}", rel <= tolerance,
            f"max |E2 num - ana|/|ana| = {rel:.3e} over 5 levels (tol {tolerance:.1e})"))
    for family, b in ((Family.HARMONIC_2D, None), (Family.ISOTONIC_2D, 0.25)):
        tables = []
        for ml in (1, 2, 3):
            s = _spec(family, ml=ml) if b is None else _spec(family, b=b, ml=ml)
            tables.append(build_spectrum_table(s, 5).e2_values())
        dev = float(max(np.max(np.abs(t - tables[0])) for t in tables[1:]))
        out.append(CheckResult(
            "spectrum", f"degeneracy {family.value} analytic", dev == 0.0,
            f"ml in {{1,2,3}} ladders identical, max |diff| = {dev:.3e}"))
    num_tables = [spectrum_table(problem, eigenvalues).e2_values() for _, problem, eigenvalues, _ in solved]
    rel = float(max(np.max(np.abs(t - num_tables[0]) / num_tables[0]) for t in num_tables[1:]))
    out.append(CheckResult(
        "spectrum", "degeneracy 2d-ho numeric", rel <= tolerance,
        f"ml in {{1,2,3}} numeric ladders agree to {rel:.3e} (tol {tolerance:.1e})"))
    iso = _spec(Family.ISOTONIC_1D, a=1.0, b=1e-12)
    ho = _spec(Family.HARMONIC_1D)
    rel = max(
        abs(analytic_e2(iso, n) - analytic_e2(ho, 2 * n + 1)) / analytic_e2(ho, 2 * n + 1)
        for n in range(4)
    )
    out.append(CheckResult(
        "spectrum", "limit 1d-iso b->0 embedding", rel <= EMBED_REL,
        f"E2_n(iso, b=1e-12) vs E2_(2n+1)(harmonic): max rel {rel:.3e} (bound {EMBED_REL:.1e})"))
    dev = 0.0
    for ml in (1, -1, 2):
        for n in range(5):
            a_iso = analytic_e2(_spec(Family.ISOTONIC_2D, a=1.0, b=0.0, ml=ml), n)
            a_ho = analytic_e2(_spec(Family.HARMONIC_2D, omega=1.0, ml=ml), n)
            dev = max(dev, abs(a_iso - a_ho))
    out.append(CheckResult(
        "spectrum", "limit 2d-iso b=0 reduction", dev == 0.0,
        f"2d-iso(a=m*omega, b=0) equals 2d-ho exactly, max |diff| = {dev:.3e}"))
    return out


def _suite_susy(tolerance: float):
    out = []
    pairs = {}
    for family in Family:
        spec = default_spec(family)
        pairs[family] = discretize_supercharge(spec, choose_domain(effective_problem(spec), 6, n_points=2000))
    block = {}
    for family in (Family.HARMONIC_1D, Family.HARMONIC_2D):
        spec = default_spec(family)
        grid = choose_domain(effective_problem(spec), 4, n_points=4000)
        block[family] = spec, grid, discretize_supercharge(spec, grid)
    oracle = {}
    for family in (Family.HARMONIC_1D, Family.ISOTONIC_2D):
        spec = default_spec(family)
        grid = choose_domain(effective_problem(spec), 4, n_points=160)
        oracle[family] = build_block_hamiltonian(discretize_supercharge(spec, grid), spec.mc2)
    route_spec, route_grid, _ = block[Family.HARMONIC_1D]
    # The partner spectra of the isospectrality models; the D^T D values of
    # the block-route models; for each dense-oracle model on N = 160, every
    # eigenvalue of its D^T D and of its interleaved 2N block matrix; and the
    # route-equivalence solve on the 1D block-route grid, whose (spec, grid, k)
    # is that of the pair suite's 1d-ho solve at N = 4000, so that in
    # run_suite("all") the two share one seam.
    solved = iter((yield [(op, 6) for pair in pairs.values() for op in (pair.dtd_operator(), pair.ddt_operator())]
                   + [(pair.dtd_operator(), 4) for _, _, pair in block.values()]
                   + [(op, None) for ham in oracle.values() for op in (ham.pair.dtd_operator(), ham.operator())]
                   + [SolveRequest(route_spec, 4, route_grid)]))
    reports = {family: isospectrality_report(pair, next(solved), next(solved)) for family, pair in pairs.items()}
    for family, report in reports.items():
        rel = report["max_rel_mismatch"]
        out.append(CheckResult(
            "susy", f"isospectrality {family.value}", rel <= ISOSPECTRAL_REL,
            f"nonzero partner spectra agree to {rel:.3e} "
            f"(kernels {report['kernel_dim_dtd']}/{report['kernel_dim_ddt']})"))
    # D^T D lowest eigenvalues of each block-route model, as (spec, grid, pair,
    # values) for the ladder-integers and route-equivalence checks below.
    dtd_lowest = {}
    for family, (spec, grid, pair) in block.items():
        lam = next(solved)
        dtd_lowest[family] = spec, grid, pair, lam
        branches = block_branches(build_block_hamiltonian(pair, spec.mc2), lam)
        pos = branches[branches > 0]
        exact = np.array([math.sqrt(analytic_e2(spec, n)) for n in range(4)])
        rel = float(np.max(np.abs(pos - exact) / exact))
        sym = float(np.max(np.abs(np.sort(-branches) - branches)))
        out.append(CheckResult(
            "susy", f"block-route {family.value}", rel <= BLOCK_REL and sym == 0.0,
            f"block energies vs closed form: max rel {rel:.3e} (tol {BLOCK_REL:.1e}); "
            f"negation symmetry dev {sym:.1e}"))
    # Both sides of the oracle come from sterf, through the same solve_many
    # driver and LAPACK seam as the route it checks: all N values of D^T D,
    # mapped to the block's branches, and all 2N values of the block
    # operator. Each side is the bits of numpy.linalg.eigvalsh on its matrix
    # made dense only while its max|entry| lies in [2^-485, 2^485] (see
    # lapack._lapack_seam), which holds for both models here; the detail
    # line keeps its dense wording.
    for family, ham in oracle.items():
        lam, dense = next(solved), next(solved)
        fact = block_branches(ham, lam)
        dev = float(np.max(np.abs(dense - fact) / np.maximum(1.0, np.abs(dense))))
        mirror = -dense[::-1]
        pairing = float(np.max(np.abs(dense - mirror)))
        out.append(CheckResult(
            "susy", f"dense-oracle {family.value} N=160",
            dev <= 1e-8 and pairing <= 1e-8 * max(1.0, float(np.max(np.abs(dense)))),
            f"factorized route vs dense 2Nx2N diagonalization: max rel dev {dev:.3e}; "
            f"+/- pairing dev {pairing:.3e}"))
    _, _, pair, lam = dtd_lowest[Family.HARMONIC_2D]
    ladder = lam / pair.delta
    dev = float(np.max(np.abs(ladder - np.round(ladder))))
    out.append(CheckResult(
        "susy", "ladder-integers 2d-ho", dev <= LADDER_ABS,
        f"A+A eigenvalues {np.array2string(ladder, precision=4)} off integers by {dev:.3e} "
        f"(tol {LADDER_ABS:.1e}, delta = 4 m omega)"))
    for ml in (1, 2):
        spec = _spec(Family.HARMONIC_2D, ml=ml)
        grid = choose_domain(effective_problem(spec), 5, n_points=2000)
        quotients = commutator_rayleigh(spec, grid)
        dev = float(max(abs(q - 1.0) for q in quotients))
        out.append(CheckResult(
            "susy", f"commutator 2d-ho ml={ml}", dev <= COMMUTATOR_ABS,
            f"ladder commutator Rayleigh quotients off 1 by {dev:.3e} (tol {COMMUTATOR_ABS:.1e})"))
    spec, grid, _, lam = dtd_lowest[Family.HARMONIC_1D]
    e2_susy = spec.mc2 ** 2 + spec.params.c ** 2 * lam
    _, problem, eigenvalues, _ = next(solved)
    e2_num = spectrum_table(problem, eigenvalues).e2_values()
    rel = float(np.max(np.abs(e2_susy - e2_num) / e2_num))
    out.append(CheckResult(
        "susy", "route-equivalence 1d-ho", rel <= ROUTE_REL,
        f"factorized E2 vs direct finite-difference E2: max rel {rel:.3e} (tol {ROUTE_REL:.1e})"))
    # D's kernel modes, as counted on the isospectrality solves above.
    for family, expect in ((Family.HARMONIC_1D, 1), (Family.ISOTONIC_1D, 1)):
        got = reports[family]["kernel_dim_dtd"]
        out.append(CheckResult(
            "susy", f"kernel-dimension {family.value}", got == expect,
            f"numerical kernel modes of D: {got} (expected {expect})"))
    return out


# Extra ladder rungs of domain headroom for order measurements: the Dirichlet
# box must truncate the tail so far below the h^2 stencil error that it cannot
# pollute the N-vs-2N ratio (the box error does not shrink with h).
_ORDER_DOMAIN_MARGIN = 6
# Points of the coarser grid of an order measurement; the finer grid has twice as many.
_ORDER_N_POINTS = 2000


def convergence_order(spec: ModelSpec, n: int) -> float:
    """Observed order p with |E2 error| ~ h^p against the closed form, from grids at N = 2000 and 2N.

    Both grids share one domain so only h changes, and that domain is sized
    several rungs past level n: box-truncation error is h-independent, so it
    must sit far below the stencil error for the ratio to mean anything. The
    3-point stencil gives p close to 2; strongly fractional centrifugal
    sectors needn't exceed 1.5 (the eigenfunction power-law cusp at the
    origin limits the quadrature of the truncation error).
    """
    problem = effective_problem(spec)
    grid1 = choose_domain(problem, n + _ORDER_DOMAIN_MARGIN, _ORDER_N_POINTS)
    grid2 = choose_domain(problem, n + _ORDER_DOMAIN_MARGIN, 2 * _ORDER_N_POINTS, x_max=grid1.x_max)
    exact = analytic_e2(spec, n)
    errs = []
    for grid in (grid1, grid2):
        table = numeric_spectrum(spec, n + 1, grid=grid)
        errs.append(abs(table.levels[n].e2 - exact))
    if errs[1] == 0:
        raise SolverError("refined-grid error vanished; cannot estimate an order")
    return math.log2(errs[0] / errs[1])


def nonrel_sweep(model: ModelSpec, n_max: int, c_values=NONREL_C_VALUES):
    """Rows (n, c, E - mc^2, eps, |diff|, ratio) for the model at each light speed in c_values.

    Each c replaces the model's own; eps is c-independent for these ladders,
    so the diff column isolates the relativistic residue. ratio is the diff
    at the previous c over this one, None at the first c and wherever diff is 0.
    """
    specs = [replace(model, params=replace(model.params, c=c)) for c in c_values]
    rows = []
    for n in range(n_max + 1):
        prev = None
        for c, spec in zip(c_values, specs):
            e = math.sqrt(analytic_e2(spec, n))
            eps = analytic_nonrel_eps(spec, n)
            diff = abs((e - spec.mc2) - eps)
            ratio = prev / diff if prev is not None and diff > 0 else None
            rows.append((n, c, e - spec.mc2, eps, diff, ratio))
            prev = diff
    return rows


def nonrel_check(family: Family) -> CheckResult:
    """The c^2 shrink of |E - mc^2 - eps| on the family's default model, c in {10,20,40}."""
    # The worst ratio is the first of those farthest from 4; a level at rest has none.
    ratios = [row[5] for row in nonrel_sweep(default_spec(family), 3) if row[5] is not None]
    worst = max(ratios, key=lambda q: abs(q - 4.0), default=None)
    passed = worst is None or NONREL_RATIO_LOW <= worst <= NONREL_RATIO_HIGH
    detail = ("all levels sit exactly at E = mc^2" if worst is None else
              f"|E - mc^2 - eps| shrink ratio under c doubling: worst {worst:.3f} "
              f"(accept [{NONREL_RATIO_LOW}, {NONREL_RATIO_HIGH}], c in {{10,20,40}})")
    return CheckResult("nonrel", f"limit {family.value}", passed, detail)


def _suite_nonrel(tolerance: float):
    yield []  # closed forms only: nothing to solve
    return [nonrel_check(family) for family in Family]


def _suite_pair(tolerance: float):
    out = []
    families = (Family.HARMONIC_1D, Family.ISOTONIC_1D)
    solved = iter((yield [SolveRequest(default_spec(family), 4, n_points=n_points, vectors=True)
                          for family in families for n_points in (4000, 8000)]))
    for family in families:
        spec = default_spec(family)
        residuals = {}
        for n_points in (4000, 8000):
            grid, problem, eigenvalues, results = next(solved)
            table = spectrum_table(problem, eigenvalues)
            residuals[n_points] = [
                residual_pair_check(spec, table.levels[n].e, grid, results[n].vector)
                for n in range(4)
            ]
        worst = max(residuals[4000])
        ok_size = worst <= PAIR_RESIDUAL
        ok_halve = all(
            r2 <= 0.5 * r1 + 1e-12 for r1, r2 in zip(residuals[4000], residuals[8000])
        )
        out.append(CheckResult(
            "pair", f"first-order closure {family.value}", ok_size and ok_halve,
            f"pair residuals n<=3 at N=4000: max {worst:.3e} (tol {PAIR_RESIDUAL:.1e}); "
            f"halve-or-better under doubling: {'yes' if ok_halve else 'no'}"))
    return out


SUITES = {
    "spectrum": _suite_spectrum,
    "susy": _suite_susy,
    "nonrel": _suite_nonrel,
    "pair": _suite_pair,
}


def available_suites() -> List[str]:
    return ["all", *SUITES]


def run_suite(suite: str, tolerance: float = DEFAULT_TOLERANCE) -> List[CheckResult]:
    """Run one suite (or all of them) and return the check results.

    Each suite is a generator: it yields one list of solve_many requests,
    is sent their answers, and returns its checks. The selected suites are
    primed in order, one solve_many batch answers all their requests, each
    in its own place, and each suite then runs its checks on its slice, in
    order; a slice with a failed answer raises its first failure, through
    raise_first, before its suite runs a check. A suite that raises while
    it builds its requests ends the priming; the suites before it still run
    their checks, and then its exception is raised. So the checks returned,
    or the exception raised, are those of running the suites one by one.
    """
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; expected one of: {', '.join(available_suites())}")
    runs, batches, failure = [], [], None
    for name in names:
        run = SUITES[name](tolerance)
        try:
            batches.append(next(run))
        except Exception as exc:  # raised once the suites before it have run their checks
            failure = exc
            break
        runs.append(run)
    answers = iter(solve_many([request for batch in batches for request in batch]))
    results = []
    for run, batch in zip(runs, batches):
        try:
            run.send(raise_first([next(answers) for _ in batch]))
        except StopIteration as stop:
            results.extend(stop.value)
    if failure is not None:
        raise failure
    return results

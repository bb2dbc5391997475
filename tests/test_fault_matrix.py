"""Checks that can fail: every planted fault fails at least one verification check.

Each case empties the model-level solve entry, plants one fault by
monkeypatching, runs every suite of run_suite("all") in this process, and
compares the checks that fail with the record below (mutation adequacy:
DeMillo, Lipton and Sayward, IEEE Computer 11(4) (1978) 34). A new check
that catches nothing, or a refactor that blinds an old one, then shows as a
changed record. A suite that raises SolverError, which the CLI reports with
exit 3, is recorded as "<suite> raised SolverError". Under every fault,
run_suite("all"), which answers all the suites' solves in one batch, must
return or raise what running the suites one by one does.
"""

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from relqosc import analytic, lapack, models, solver, susyblock, verify
from relqosc.solver import SolverError, TridiagonalOperator


def failed_checks() -> set:
    failed = set()
    for suite in verify.SUITES:
        try:
            failed.update(f"{suite}/{r.name}" for r in verify.run_suite(suite) if not r.passed)
        except SolverError:
            failed.add(f"{suite} raised SolverError")
    return failed


def shifted_level(real):
    return lambda spec, n: real(spec, n + 1)


def changed_fact(real, index, change):
    """models._facts with the fact at index replaced by change(facts)."""
    def facts(spec):
        f = list(real(spec))
        f[index] = change(f)
        return tuple(f)
    return facts


def negated(real):
    return lambda spec, x: -real(spec, x)


def perturbed_stencil(eps):
    """A plant for solver.discretize: eps added to every diagonal entry of the stencil."""
    def plant(real):
        def discretize(problem, grid):
            op = real(problem, grid)
            return TridiagonalOperator(op.diag + eps, op.offdiag, op.h)
        return discretize
    return plant


def unscaled_values(real):
    """The seam with its values left in the units of the scaled operator."""
    source = inspect.getsource(real)
    assert source.count("lam = np.ldexp(w, p)") == 1
    namespace = dict(vars(lapack))
    exec(source.replace("lam = np.ldexp(w, p)", "lam = w"), namespace)
    return namespace["_lapack_seam"]


# The facts of models._facts: (domain, q, cent, gap, offset, c^2, E^2 intercept, ..., delta).
_CENT, _C2, _E2_INTERCEPT, _DELTA = 2, 5, 6, 9

FAULTS = {
    "level-n-plus-1": (analytic, "_e2_shift", shifted_level, {
        "spectrum/numeric-agreement 1d-ho", "spectrum/numeric-agreement 1d-iso",
        "spectrum/numeric-agreement 2d-ho", "spectrum/numeric-agreement 2d-iso",
        "spectrum/limit 1d-iso b->0 embedding", "susy/block-route 1d-ho", "susy/block-route 2d-ho",
    }),
    "e2-intercept-plus-c2": (models, "_facts", lambda real: changed_fact(real, _E2_INTERCEPT, lambda f: f[_E2_INTERCEPT] + f[_C2]), {
        "spectrum/numeric-agreement 1d-ho", "spectrum/numeric-agreement 1d-iso",
        "spectrum/numeric-agreement 2d-ho", "spectrum/numeric-agreement 2d-iso",
        "susy/route-equivalence 1d-ho", "pair/first-order closure 1d-ho", "pair/first-order closure 1d-iso",
    }),
    "centrifugal-plus-1": (models, "_facts", lambda real: changed_fact(real, _CENT, lambda f: f[_CENT] + 1.0), {
        "spectrum/numeric-agreement 1d-iso", "spectrum/numeric-agreement 2d-ho",
        "spectrum/numeric-agreement 2d-iso", "spectrum/degeneracy 2d-ho numeric",
        "pair/first-order closure 1d-iso",
    }),
    "sign-of-w-in-d": (susyblock, "pair_superpotential", negated, {
        "susy/commutator 2d-ho ml=1", "susy/commutator 2d-ho ml=2", "susy/kernel-dimension 1d-iso",
    }),
    "delta-times-2": (models, "_facts", lambda real: changed_fact(real, _DELTA, lambda f: 2.0 * f[_DELTA]), {
        "susy/ladder-integers 2d-ho", "susy/commutator 2d-ho ml=1", "susy/commutator 2d-ho ml=2",
    }),
    "stencil-diagonal-plus-1e-3": (solver, "discretize", perturbed_stencil(1e-3), {
        "spectrum/numeric-agreement 1d-ho", "spectrum/numeric-agreement 1d-iso",
        "spectrum/numeric-agreement 2d-ho", "spectrum/numeric-agreement 2d-iso",
        "pair/first-order closure 1d-ho", "pair/first-order closure 1d-iso",
    }),
    "seam-does-not-scale-back": (lapack, "_lapack_seam", unscaled_values, {
        "spectrum raised SolverError", "pair raised SolverError",
        "susy/block-route 1d-ho", "susy/block-route 2d-ho", "susy/route-equivalence 1d-ho",
        "susy/kernel-dimension 1d-ho", "susy/kernel-dimension 1d-iso",
    }),
}


@pytest.mark.parametrize("module, name, plant, caught", FAULTS.values(), ids=FAULTS)
def test_planted_fault_fails_the_recorded_checks(monkeypatch, module, name, plant, caught):
    assert caught  # a fault that no check catches is recorded as xfail(strict=True) instead
    # An entry left by an earlier solve would answer numeric_spectrum with unfaulted values.
    monkeypatch.setattr(solver, "_latest_model_solve", None)
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    assert failed_checks() == caught


def shifted_intercept(eps):
    """A plant for models._facts: eps c^2 added to the E^2 intercept."""
    return lambda real: changed_fact(real, _E2_INTERCEPT, lambda f: f[_E2_INTERCEPT] + eps * f[_C2])


def scaled_fact(index):
    """A graded plant for models._facts: the fact at index times 1 + eps."""
    return lambda eps: lambda real: changed_fact(real, index, lambda f: f[index] * (1.0 + eps))


def scaled_supercharge_diagonal(eps):
    """A plant for discretize_supercharge: the diagonal W_eff - 1/h of D times 1 + eps."""
    def plant(real):
        def discretize_supercharge(spec, grid, delta=None):
            pair = real(spec, grid, delta)
            return replace(pair, d_diag=pair.d_diag * (1.0 + eps))
        return discretize_supercharge
    return plant


# The resolution of the cross-check: for each graded fault, the smallest decade eps in 1e-1 .. 1e-6 at
# which any check fails, and the checks that fail there; each fault is planted in every module that
# binds its name. The intercept and stencil faults fail 4 numeric-agreement checks, the 2 pair closures
# and, at 1e-1, route-equivalence 1d-ho, down to 1e-3; at 1e-4 and 1e-5 only the pair closures, through
# their halve-under-doubling clause; at 1e-6 nothing. The E^2 slope c^2 fails the pair closures down to
# 1e-5, numeric-agreement 2d-ho and 2d-iso and the 2d-ho degeneracy down to 1e-4, numeric-agreement 1d-ho
# and 1d-iso down to 1e-3, route-equivalence 1d-ho at 1e-1, and at 1e-6 nothing. The supercharge diagonal
# fails both commutators and ladder-integers 2d-ho down to 1e-4, block-route 2d-ho down to 1e-3,
# block-route 1d-ho and route-equivalence 1d-ho down to 1e-2, kernel-dimension 1d-ho at 1e-1, and at 1e-5
# nothing. delta fails ladder-integers 2d-ho down to 1e-2, both commutators at 1e-1, and at 1e-3 nothing.
GRADED = {
    "e2-intercept-plus-eps-c2": (((models, "_facts"),), shifted_intercept, 1e-5, {
        "pair/first-order closure 1d-ho", "pair/first-order closure 1d-iso",
    }),
    "stencil-diagonal-plus-eps": (((solver, "discretize"),), perturbed_stencil, 1e-5, {
        "pair/first-order closure 1d-ho", "pair/first-order closure 1d-iso",
    }),
    "supercharge-diagonal-times-1-plus-eps": (
        ((susyblock, "discretize_supercharge"), (verify, "discretize_supercharge")), scaled_supercharge_diagonal,
        1e-4, {"susy/commutator 2d-ho ml=1", "susy/commutator 2d-ho ml=2", "susy/ladder-integers 2d-ho"}),
    "delta-times-1-plus-eps": (((models, "_facts"),), scaled_fact(_DELTA), 1e-2, {
        "susy/ladder-integers 2d-ho",
    }),
    "e2-slope-times-1-plus-eps": (((models, "_facts"),), scaled_fact(_C2), 1e-5, {
        "pair/first-order closure 1d-ho", "pair/first-order closure 1d-iso",
    }),
}


@pytest.mark.parametrize("targets, graded, eps, caught", GRADED.values(), ids=GRADED)
def test_graded_fault_fails_the_recorded_checks_at_its_smallest_decade(monkeypatch, record_property, targets, graded,
                                                                       eps, caught):
    """The fault of size 0 fails nothing, and at its recorded decade fails the recorded checks; the checks
    that fail one decade below are reported as a test property, not asserted."""
    def failed_at(size):
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_latest_model_solve", None)
            for module, name in targets:
                patch.setattr(module, name, graded(size)(getattr(module, name)))
            return failed_checks()

    assert failed_at(0.0) == set()
    assert failed_at(eps) == caught
    record_property(f"failed at {eps / 10:g}", sorted(failed_at(eps / 10)))


def test_an_earlier_solve_does_not_answer_a_faulted_one(monkeypatch):
    """An entry with the key of the first solve of run_suite("all"), left by an earlier caller, holds unfaulted values."""
    solver.numeric_spectrum(models.default_spec(models.Family.HARMONIC_1D), 5)
    test_planted_fault_fails_the_recorded_checks(monkeypatch, *FAULTS["stencil-diagonal-plus-1e-3"])


def outcome(run):
    """What run() returns, or the type and message of what it raises."""
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc)


def one_by_one():
    """The checks of run_suite(suite) for each suite in turn, concatenated; or the exception of the first that raises."""
    results = []
    for suite in verify.SUITES:
        results.extend(verify.run_suite(suite))
    return results


def same_as_one_by_one(monkeypatch):
    """The outcome of run_suite("all"), asserted equal to that of the suites one by one, each from no latest solve."""
    monkeypatch.setattr(solver, "_latest_model_solve", None)
    want = outcome(one_by_one)
    monkeypatch.setattr(solver, "_latest_model_solve", None)
    got = outcome(lambda: verify.run_suite("all"))
    assert got == want
    return got


@pytest.mark.parametrize("module, name, plant, caught", FAULTS.values(), ids=FAULTS)
def test_all_suites_at_once_match_one_by_one(monkeypatch, module, name, plant, caught):
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    same_as_one_by_one(monkeypatch)


def refused_build(*args, **kwargs):
    raise ValueError("planted failure while the susy suite builds its requests")


def lapack_with_failing_stebz(real, victim=None):
    """lapack._lapack with every bisection reporting failure, stebz's INFO 1, or, given a victim operator,
    that operator's alone: each dlaebz bisection (IJOB, its 1st argument, 2) leaves at least one interval
    open (INFO, its 20th, at least 1). The seam hands dlaebz the operator scaled by 2^-p, and a block of it
    as a view of that whole diagonal (D, its 10th)."""
    if victim is not None:
        p = math.frexp(np.max(np.abs(np.concatenate((victim.diag, victim.offdiag)))))[1]
        victim_diag = np.ldexp(victim.diag, -p)

    def failing_lapack():
        routines = dict(real())
        laebz = routines["dlaebz"]

        def failing(*args):
            laebz(*args)
            d = args[9].array if args[9].array.base is None else args[9].array.base
            if args[0].value == 2 and (victim is None or np.array_equal(d, victim_diag)):
                args[19].value = max(args[19].value, 1)

        routines["dlaebz"] = failing
        return routines
    return failing_lapack


@pytest.mark.parametrize("module, name, plant, want", [
    (None, None, None, (ValueError, "planted failure while the susy suite builds")),
    (lapack, "_lapack", lapack_with_failing_stebz, (SolverError, "LAPACK stebz returned info=1")),
    (lapack, "_lapack_seam", unscaled_values, (SolverError, "squared energy")),
], ids=["build", "build-and-lapack", "build-and-check"])
def test_build_failure_after_the_suites_before_it(monkeypatch, module, name, plant, want):
    """The susy suite raises while it builds its requests. The spectrum suite's batch still
    runs, and then its checks; so its failure in LAPACK or in a check, where one is planted,
    wins over the build error."""
    monkeypatch.setattr(verify, "discretize_supercharge", refused_build)
    if plant is not None:
        monkeypatch.setattr(module, name, plant(getattr(module, name)))
    error, message = same_as_one_by_one(monkeypatch)
    assert error is want[0] and want[1] in message


def test_lapack_failure_of_a_later_suite_in_the_one_batch(monkeypatch):
    """The bisection fails on one request of the pair suite, the last suite that solves: its 1d-iso
    model at N = 8000. Run one by one, each suite makes one solve_many call, the spectrum and
    susy suites pass, and the pair suite raises. run_suite("all") makes one solve_many call
    of all 26 requests, and raises the same exception."""
    spec = models.default_spec(models.Family.ISOTONIC_1D)
    problem = models.effective_problem(spec)
    victim = solver.discretize(problem, solver.choose_domain(problem, 4, n_points=8000))
    monkeypatch.setattr(lapack, "_lapack", lapack_with_failing_stebz(lapack._lapack, victim))
    real, batches = verify.solve_many, []

    def counted(requests):
        batches.append(len(requests))
        return real(requests)

    monkeypatch.setattr(verify, "solve_many", counted)
    error, message = same_as_one_by_one(monkeypatch)
    assert error is SolverError and message == "tridiagonal eigensolve failed: LAPACK stebz returned info=1"
    assert batches == [7, 15, 0, 4, 26]

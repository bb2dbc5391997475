"""Checks that can fail: every planted fault fails at least one verification check.

Each case empties the model-level solve entry, plants one fault by
monkeypatching, runs every suite of run_suite("all") in this process, and
compares the checks that fail with the record below (mutation adequacy:
DeMillo, Lipton and Sayward, IEEE Computer 11(4) (1978) 34). A new check
that catches nothing, or a refactor that blinds an old one, then shows as a
changed record. A suite that raises SolverError, which the CLI reports with
exit 3, is recorded as "<suite> raised SolverError".
"""

import inspect

import pytest

from relqosc import analytic, models, solver, susyblock, verify
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


def perturbed_stencil(real):
    def discretize(problem, grid):
        op = real(problem, grid)
        return TridiagonalOperator(op.diag + 1e-3, op.offdiag, op.h)
    return discretize


def unscaled_values(real):
    """The seam with its values left in the units of the scaled operator."""
    source = inspect.getsource(real)
    assert source.count("lam = np.ldexp(w, p)") == 1
    namespace = dict(vars(solver))
    exec(source.replace("lam = np.ldexp(w, p)", "lam = w"), namespace)
    return namespace["_stebz_lowest"]


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
    "stencil-diagonal-plus-1e-3": (solver, "discretize", perturbed_stencil, {
        "spectrum/numeric-agreement 1d-ho", "spectrum/numeric-agreement 1d-iso",
        "spectrum/numeric-agreement 2d-ho", "spectrum/numeric-agreement 2d-iso",
        "pair/first-order closure 1d-ho", "pair/first-order closure 1d-iso",
    }),
    "seam-does-not-scale-back": (solver, "_stebz_lowest", unscaled_values, {
        "spectrum raised SolverError", "pair raised SolverError",
        "susy/block-route 1d-ho", "susy/block-route 2d-ho",
        "susy/dense-oracle 1d-ho N=160", "susy/dense-oracle 2d-iso N=160",
        "susy/route-equivalence 1d-ho", "susy/kernel-dimension 1d-ho", "susy/kernel-dimension 1d-iso",
    }),
}


@pytest.mark.parametrize("module, name, plant, caught", FAULTS.values(), ids=FAULTS)
def test_planted_fault_fails_the_recorded_checks(monkeypatch, module, name, plant, caught):
    assert caught  # a fault that no check catches is recorded as xfail(strict=True) instead
    # An entry left by an earlier solve would answer numeric_spectrum with unfaulted values.
    monkeypatch.setattr(solver, "_latest_model_solve", None)
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    assert failed_checks() == caught


def test_an_earlier_solve_does_not_answer_a_faulted_one(monkeypatch):
    """An entry with the key of the first solve of run_suite("all"), left by an earlier caller, holds unfaulted values."""
    solver.numeric_spectrum(models.default_spec(models.Family.HARMONIC_1D), 5)
    test_planted_fault_fails_the_recorded_checks(monkeypatch, *FAULTS["stencil-diagonal-plus-1e-3"])

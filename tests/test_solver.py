import collections
import contextlib
import json
import math
import subprocess
import sys
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
import scipy.linalg
from numpy.testing import assert_allclose

from relqosc import (
    Family,
    ModelSpec,
    PhysicalParams,
    SolverError,
    analytic_e2,
    analytic_wavefunction,
    choose_domain,
    convergence_order,
    discretize,
    effective_problem,
    eigen_lowest,
    numeric_levels,
    numeric_spectrum,
    residual_pair_check,
    run_suite,
)
from relqosc import solver
from relqosc.models import RadialProblem
from relqosc.solver import Grid, TridiagonalOperator, _first_extremum_sign, _stebz_lowest, eigenvalues_lowest

ALL_SPECS = [
    ModelSpec(Family.HARMONIC_1D),
    ModelSpec(Family.ISOTONIC_1D, PhysicalParams(a=1.0, b=1.0)),
    ModelSpec(Family.HARMONIC_2D, ml=1),
    ModelSpec(Family.ISOTONIC_2D, PhysicalParams(b=0.25), ml=1),
]


# Each ALL_SPECS model with its observed E^2 convergence order: 1.5 in the
# 2D sectors whose radial profile starts as r**nu with fractional nu < 2.
SPECS_WITH_ORDER = [
    pytest.param(spec, order, id=spec.family.value)
    for spec, order in zip(ALL_SPECS, (2.0, 2.0, 1.5, 1.5))
]


def first_extremum_sign_loop(v: np.ndarray) -> float:
    """Reference scan: sign of the first local maximum of |v| above 1e-3 max|v|."""
    av = np.abs(v)
    floor = 1e-3 * av.max()
    for j in range(av.size - 1):
        if av[j] > floor and av[j + 1] < av[j]:
            return 1.0 if v[j] > 0 else -1.0
    j = int(np.argmax(av))
    return 1.0 if v[j] > 0 else -1.0


def count_nodes(v: np.ndarray, rel_floor: float = 1e-6) -> int:
    """Count sign changes of a sampled function, ignoring near-zero samples."""
    v = np.asarray(v, dtype=float)
    keep = np.abs(v) > rel_floor * np.abs(v).max()
    signs = np.sign(v[keep])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def default_operator(spec: ModelSpec, k: int, n_points: int) -> TridiagonalOperator:
    problem = effective_problem(spec)
    return discretize(problem, choose_domain(problem, k, n_points=n_points))


def free_problem(length: float) -> RadialProblem:
    """Particle in a box: V = 0 on (0, L), eigenvalues (n pi / L)^2."""
    return RadialProblem(
        domain="half-line",
        potential=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lambda_to_e2=effective_problem(ALL_SPECS[0]).lambda_to_e2,
        lambda_to_eps=effective_problem(ALL_SPECS[0]).lambda_to_eps,
        singular_at_zero=False,
        well_strength=1.0,
        lambda_gap=2.0,
        lambda_offset=1.0,
        delta=2.0,
    )


def patch_lapack(monkeypatch, stebz=lambda out: out, stein=lambda out: out):
    """Make the solver call a fake LAPACK module, and return it.

    Each fake routine delegates to the real one and passes its output tuple
    through the given function, which may corrupt it. The fake counts its
    calls per routine in `calls`.
    """
    real = solver._flapack()
    calls = collections.Counter()

    def routine(name, post):
        def call(*args):
            calls[name] += 1
            return post(getattr(real, name)(*args))
        return call

    fake = types.SimpleNamespace(dstebz=routine("dstebz", stebz), dstein=routine("dstein", stein), calls=calls)
    monkeypatch.setattr(solver, "_flapack", lambda: fake)
    return fake


def run_fresh(script: str):
    """Run a script in a fresh interpreter and return its JSON stdout."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestGrid:
    def test_interior_nodes(self):
        grid = Grid(0.0, 1.0, 4)
        assert grid.h == pytest.approx(0.2)
        assert_allclose(grid.nodes, [0.2, 0.4, 0.6, 0.8])

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 2)


class TestTridiagonalOperator:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            TridiagonalOperator(np.zeros(2), np.zeros(1))
        with pytest.raises(ValueError):
            TridiagonalOperator(np.zeros(5), np.zeros(3))

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(7)
        d = rng.normal(size=6)
        e = rng.normal(size=5)
        op = TridiagonalOperator(d, e)
        dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        v = rng.normal(size=6)
        assert_allclose(op.matvec(v), dense @ v, atol=1e-14)
        assert op.norm_inf() == pytest.approx(np.max(np.sum(np.abs(dense), axis=1)))


class TestChooseDomain:
    def test_harmonic_box_radius(self):
        spec = ModelSpec(Family.HARMONIC_1D)
        problem = effective_problem(spec)
        grid = choose_domain(problem, 5)
        # lambda_estimate(5) = 11; turning point sqrt(11), margin factor 3
        assert grid.x_max == pytest.approx(math.sqrt(33.0))
        assert grid.x_min == -grid.x_max

    def test_half_line_starts_at_zero(self):
        spec = ModelSpec(Family.HARMONIC_2D, ml=1)
        grid = choose_domain(effective_problem(spec), 3)
        assert grid.x_min == 0.0

    def test_pathological_well_rejected(self):
        spec = ModelSpec(Family.HARMONIC_1D, PhysicalParams(omega=1e-15))
        with pytest.raises(SolverError):
            choose_domain(effective_problem(spec), 3)


class TestDiscretize:
    def test_three_point_box(self):
        """V = 0, h = 1: classic [2, -1] tridiagonal, lowest eigenvalue 2 - sqrt(2)."""
        grid = Grid(0.0, 4.0, 3)
        problem = free_problem(4.0)
        op = discretize(problem, grid)
        assert_allclose(op.diag, 2.0)
        assert_allclose(op.offdiag, -1.0)
        results = eigen_lowest(op, 1)
        assert results[0].eigenvalue == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-12)

    def test_singular_problem_rejects_full_line_grid(self):
        spec = ModelSpec(Family.ISOTONIC_1D)
        with pytest.raises(ValueError, match="half-line"):
            discretize(effective_problem(spec), Grid(-1.0, 1.0, 10))

    def test_nonfinite_potential_reported(self):
        problem = free_problem(1.0)
        bad = RadialProblem(
            domain=problem.domain,
            potential=lambda x: np.where(np.asarray(x) > 0.5, np.inf, 0.0),
            lambda_to_e2=problem.lambda_to_e2,
            lambda_to_eps=problem.lambda_to_eps,
            singular_at_zero=False,
            well_strength=1.0,
            lambda_gap=2.0,
            lambda_offset=1.0,
            delta=2.0,
        )
        with pytest.raises(ValueError, match="finite"):
            discretize(bad, Grid(0.0, 1.0, 9))


class TestEigenLowest:
    def test_k_validation(self):
        op = TridiagonalOperator(np.full(5, 2.0), np.full(4, -1.0))
        with pytest.raises(ValueError):
            eigen_lowest(op, 0)
        with pytest.raises(ValueError):
            eigen_lowest(op, 6)

    def test_particle_in_a_box(self):
        """Compare against (n pi / L)^2 on a fine grid."""
        length = math.pi
        grid = Grid(0.0, length, 4000)
        op = discretize(free_problem(length), grid)
        results = eigen_lowest(op, 3)
        for i, res in enumerate(results, start=1):
            exact = float(i * i)
            assert abs(res.eigenvalue - exact) / exact <= 1e-3

    def test_dense_oracle_random_matrix(self):
        rng = np.random.default_rng(1234)
        d = rng.normal(size=60)
        e = rng.normal(size=59)
        op = TridiagonalOperator(d, e, h=0.1)
        dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        want = np.sort(np.linalg.eigvalsh(dense))[:5]
        got = [r.eigenvalue for r in eigen_lowest(op, 5)]
        assert_allclose(got, want, atol=1e-10)

    def test_eigenvector_conventions(self):
        grid = Grid(0.0, math.pi, 500)
        op = discretize(free_problem(math.pi), grid)
        results = eigen_lowest(op, 3)
        for res in results:
            # normalized as a grid function: h * sum(v^2) = 1
            assert grid.h * float(res.vector @ res.vector) == pytest.approx(1.0, rel=1e-12)
            # sign fixed by the first extremum
            idx = np.argmax(np.abs(res.vector) > 0.5 * np.max(np.abs(res.vector)))
            assert res.vector[idx] > 0

    def test_eigenvalues_strictly_increasing(self):
        grid = Grid(0.0, math.pi, 200)
        op = discretize(free_problem(math.pi), grid)
        vals = [r.eigenvalue for r in eigen_lowest(op, 6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_residuals_are_small(self):
        grid = Grid(0.0, math.pi, 300)
        op = discretize(free_problem(math.pi), grid)
        for res in eigen_lowest(op, 4):
            assert res.residual <= 1e-8 * max(1.0, abs(res.eigenvalue))

    def test_corrupted_eigenvector_fails_residual_bound(self, monkeypatch):
        def corrupted(out):
            vec, info = out
            vec[:, 0] += 1e-6 * vec[:, 1]
            return vec, info

        patch_lapack(monkeypatch, stein=corrupted)
        with pytest.raises(SolverError, match="residual"):
            eigen_lowest(default_operator(ALL_SPECS[0], 4, 4000), 4)

    def test_inverse_iteration_failure_raises(self, monkeypatch):
        patch_lapack(monkeypatch, stein=lambda out: (out[0], 2))
        with pytest.raises(SolverError, match="stein"):
            eigen_lowest(TridiagonalOperator(np.full(5, 2.0), np.full(4, -1.0)), 2)


class TestFirstExtremumSign:
    @staticmethod
    def vectors():
        rng = np.random.default_rng(42)
        for n in (3, 4, 17, 500):
            for _ in range(50):
                yield rng.normal(size=n)
                yield np.round(rng.normal(size=n), 1)  # plateaus and ties
                yield rng.integers(-2, 3, size=n).astype(float)
        yield np.linspace(-1.0, 2.0, 50)                 # monotone rising: no fall
        yield -np.linspace(3.0, 1.0, 50)                 # monotone falling from the start
        yield np.full(20, -1.0)                          # one long plateau
        yield np.zeros(10)
        tiny_rise = np.concatenate([[1e-5, 2e-5, 1e-5], np.linspace(0.1, 1.0, 30), [-0.5, 0.2]])
        yield tiny_rise                                  # first rise sits below the floor
        yield -tiny_rise
        yield np.array([-1e-3, -5e-4, 0.2, 1.0, 0.3])  # a fall from exactly the floor does not count

    def test_matches_loop_reference(self):
        for v in self.vectors():
            assert _first_extremum_sign(v) == first_extremum_sign_loop(v), v

    def test_eigenvectors_match_loop_reference(self):
        op = default_operator(ALL_SPECS[0], 6, 2000)
        _, vec = scipy.linalg.eigh_tridiagonal(
            op.diag, op.offdiag, select="i", select_range=(0, 5), lapack_driver="stebz")
        for v in (*vec.T, *(-vec.T)):
            assert _first_extremum_sign(v) == first_extremum_sign_loop(v)


class TestEigenvaluesLowest:
    @pytest.mark.parametrize("n_points", [2000, 16000])
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
    def test_bit_identical_to_eigenpair_route(self, spec, n_points):
        for k in (1, 5, 8):
            op = default_operator(spec, k, n_points)
            got = eigenvalues_lowest(op, k)
            assert got.tolist() == [r.eigenvalue for r in eigen_lowest(op, k)]

    def test_k_validation(self):
        op = TridiagonalOperator(np.full(5, 2.0), np.full(4, -1.0))
        for k in (0, 6):
            with pytest.raises(ValueError):
                eigenvalues_lowest(op, k)
        assert eigenvalues_lowest(op, 5).size == 5

    @pytest.mark.parametrize("bad", [np.array([1.0]), np.array([1.0, np.nan])])
    def test_short_or_nonfinite_bisection_raises(self, monkeypatch, bad):
        patch_lapack(monkeypatch, stebz=lambda out: (bad.size, bad.copy(), *out[2:]))
        op = TridiagonalOperator(np.full(5, 2.0), np.full(4, -1.0))
        with pytest.raises(SolverError, match="bisection"):
            eigenvalues_lowest(op, 2)

    @pytest.mark.parametrize("solve", [eigenvalues_lowest, eigen_lowest])
    def test_bisection_failure_raises(self, monkeypatch, solve):
        patch_lapack(monkeypatch, stebz=lambda out: (*out[:4], 1))
        with pytest.raises(SolverError, match="stebz"):
            solve(TridiagonalOperator(np.full(5, 2.0), np.full(4, -1.0)), 2)

    @pytest.mark.parametrize("routine, fault", [
        ("stebz", dict(stebz=lambda out: (*out[:4], -3))),
        ("stein", dict(stein=lambda out: (out[0], -3))),
    ], ids=["stebz", "stein"])
    def test_illegal_argument_info_raises_value_error(self, monkeypatch, routine, fault):
        patch_lapack(monkeypatch, **fault)
        with pytest.raises(ValueError, match=f"argument 3 of LAPACK {routine}"):
            eigen_lowest(TridiagonalOperator(np.full(5, 2.0), np.full(4, -1.0)), 2)

    @pytest.mark.parametrize("where", ["diag", "offdiag"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_operator_raises(self, where, value):
        d, e = np.full(5, 2.0), np.full(4, -1.0)
        (d if where == "diag" else e)[2] = value
        op = TridiagonalOperator(d, e)
        for solve in (eigenvalues_lowest, eigen_lowest):
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve(op, 2)


def oracle_operators():
    """Random and default-model operators on N in {3, 4, 160, 2000, 16000}."""
    rng = np.random.default_rng(2024)
    for n in (3, 4, 160, 2000, 16000):
        yield pytest.param(TridiagonalOperator(rng.normal(size=n), rng.normal(size=n - 1)), id=f"random-{n}")
        for spec in ALL_SPECS:
            yield pytest.param(default_operator(spec, 8, n), id=f"{spec.family.value}-{n}")


class TestLapackCalls:
    """The direct LAPACK calls reproduce scipy.linalg.eigh_tridiagonal's stebz route bit for bit."""

    @pytest.mark.parametrize("op", oracle_operators())
    def test_bit_identical_to_eigh_tridiagonal(self, op):
        n = op.size
        for k in sorted({k for k in (1, 5, 8) if k <= n} | ({n} if n <= 160 else set())):
            kwargs = dict(select="i", select_range=(0, k - 1), lapack_driver="stebz")
            want = scipy.linalg.eigh_tridiagonal(op.diag, op.offdiag, eigvals_only=True, **kwargs)
            assert _stebz_lowest(op, k, eigvals_only=True).tolist() == want.tolist()
            want_lam, want_vec = scipy.linalg.eigh_tridiagonal(op.diag, op.offdiag, **kwargs)
            lam, vec = _stebz_lowest(op, k, eigvals_only=False)
            assert lam.tolist() == want_lam.tolist()
            assert np.array_equal(vec, want_vec)

    def test_solve_then_import_scipy_linalg(self):
        got = run_fresh("""
import json, sys
import numpy as np
from relqosc import solver
op = solver.TridiagonalOperator(np.full(50, 2.0), np.full(49, -1.0))
lam = solver.eigenvalues_lowest(op, 3).tolist()
before = "scipy.linalg" in sys.modules
import scipy.linalg
want = scipy.linalg.eigh_tridiagonal(op.diag, op.offdiag, eigvals_only=True, select="i",
                                     select_range=(0, 2), lapack_driver="stebz").tolist()
print(json.dumps([before, lam == want, scipy.linalg.lapack.dstebz is solver._flapack().dstebz,
                  scipy.linalg.lapack.dstein is solver._flapack().dstein]))
""")
        assert got == [False, True, True, True]

    def test_import_scipy_linalg_then_solve(self):
        got = run_fresh("""
import json, sys
import numpy as np
import scipy.linalg
from relqosc import solver
op = solver.TridiagonalOperator(np.full(50, 2.0), np.full(49, -1.0))
lam = solver.eigenvalues_lowest(op, 3).tolist()
want = scipy.linalg.eigh_tridiagonal(op.diag, op.offdiag, eigvals_only=True, select="i",
                                     select_range=(0, 2), lapack_driver="stebz").tolist()
print(json.dumps([lam == want, solver._flapack() is sys.modules["scipy.linalg._flapack"],
                  solver._flapack() is scipy.linalg.lapack._flapack]))
""")
        assert got == [True, True, True]


def bits(values) -> list:
    """Eigenvalues as int64 bit patterns, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# Bigger than any operator these tests solve twice, so solving it replaces
# the solver's latest-solve entry with one that cannot match.
UNRELATED = TridiagonalOperator(np.full(201, 3.0), np.full(200, -1.0))


def fresh_values(op: TridiagonalOperator, k: int) -> np.ndarray:
    """eigenvalues_lowest(op, k) right after solving an unrelated operator."""
    eigenvalues_lowest(UNRELATED, 1)
    return eigenvalues_lowest(op, k)


def small_operator() -> TridiagonalOperator:
    return TridiagonalOperator(
        np.array([2.0, 0.0, 1.5, -0.5, 3.0, 1.0]), np.array([-1.0, 0.5, 0.0, -0.25, 0.75]))


def changed(op, where, edit):
    d, e = op.diag.copy(), op.offdiag.copy()
    edit(d if where == "diag" else e)
    return TridiagonalOperator(d, e, h=op.h)


def one_ulp_up(index):
    def edit(a):
        a[index] = np.nextafter(a[index], np.inf)
    return edit


def negate_zero(index):
    def edit(a):
        assert a[index] == 0.0 and not np.signbit(a[index])
        a[index] = -0.0
    return edit


class TestLatestSolve:
    """A values-only solve of the operator solved just before reuses its eigenvalues."""

    def test_levels_then_spectrum_bisect_once(self, monkeypatch):
        fake = patch_lapack(monkeypatch)
        spec = ALL_SPECS[1]
        grid, results = numeric_levels(spec, 6, n_points=2000)
        table = numeric_spectrum(spec, 6, grid=grid)
        assert fake.calls == {"dstebz": 1, "dstein": 1}
        problem = effective_problem(spec)
        fresh = fresh_values(discretize(problem, grid), 6)
        assert fake.calls == {"dstebz": 3, "dstein": 1}
        assert bits([r.eigenvalue for r in results]) == bits(fresh)
        assert table == solver.spectrum_table(problem, fresh)

    def test_equal_operator_hits(self, monkeypatch):
        fake = patch_lapack(monkeypatch)
        op = small_operator()
        want = eigenvalues_lowest(op, 3)
        got = eigenvalues_lowest(small_operator(), 3)
        assert fake.calls["dstebz"] == 1
        assert bits(got) == bits(want)

    @pytest.mark.parametrize("change", [
        lambda op: (op, 4),
        lambda op: (changed(op, "diag", one_ulp_up(2)), 3),
        lambda op: (changed(op, "offdiag", one_ulp_up(1)), 3),
        lambda op: (changed(op, "diag", negate_zero(1)), 3),
        lambda op: (changed(op, "offdiag", negate_zero(2)), 3),
    ], ids=["k", "diag-ulp", "offdiag-ulp", "diag-signed-zero", "offdiag-signed-zero"])
    def test_any_change_misses(self, monkeypatch, change):
        fake = patch_lapack(monkeypatch)
        op = small_operator()
        eigenvalues_lowest(op, 3)
        other, k = change(op)
        got = eigenvalues_lowest(other, k)
        assert fake.calls["dstebz"] == 2
        assert bits(got) == bits(fresh_values(other, k))

    def test_verify_all_bisects_each_operator_once(self, monkeypatch):
        """block-route's D^T D solves serve ladder-integers and route-equivalence,
        and kernel-dimension bisects D^T D alone."""
        fake = patch_lapack(monkeypatch)
        assert all(r.passed for r in run_suite("all"))
        assert fake.calls == {"dstebz": 26, "dstein": 4}

    def test_vector_request_runs_lapack(self, monkeypatch):
        fake = patch_lapack(monkeypatch)
        op = small_operator()
        eigenvalues_lowest(op, 3)
        eigen_lowest(op, 3)
        eigen_lowest(op, 3)
        assert fake.calls == {"dstebz": 3, "dstein": 2}

    def test_other_lapack_module_misses(self, monkeypatch):
        op = small_operator()
        eigenvalues_lowest(op, 3)
        first = patch_lapack(monkeypatch)
        eigenvalues_lowest(op, 3)
        assert first.calls["dstebz"] == 1
        second = patch_lapack(monkeypatch)  # delegates to the first fake
        eigenvalues_lowest(op, 3)
        assert second.calls["dstebz"] == 1

    @pytest.mark.parametrize("solve, fault, match", [
        (eigenvalues_lowest, lambda out: (*out[:4], 1), "stebz"),
        (eigenvalues_lowest, lambda out: (1, out[1][:1].copy(), *out[2:]), "bisection"),
        (eigen_lowest, lambda out: (*out[:4], 1), "stebz"),
    ], ids=["values-info", "values-short", "vectors-info"])
    def test_corrupting_module_after_clean_solve_raises(self, monkeypatch, solve, fault, match):
        op = small_operator()
        eigen_lowest(op, 3)
        eigenvalues_lowest(op, 3)
        patch_lapack(monkeypatch, stebz=fault)
        with pytest.raises(SolverError, match=match):
            solve(op, 3)

    def test_returned_and_operator_arrays_are_not_aliased(self):
        op = small_operator()
        want = bits(fresh_values(op, 3))
        _stebz_lowest(op, 3, eigvals_only=True)[:] = 0.0
        assert bits(eigenvalues_lowest(op, 3)) == want
        eigen_lowest(op, 3)
        _stebz_lowest(op, 3, eigvals_only=False)[0][:] = 0.0
        assert bits(eigenvalues_lowest(op, 3)) == want
        op.diag[0] += 1.0
        got = bits(eigenvalues_lowest(op, 3))
        assert got != want
        assert got == bits(fresh_values(op, 3))

    def test_signed_zero_ties_after_vector_solve(self):
        """Split zero blocks give tied +0.0 and -0.0 eigenvalues, which the two LAPACK orders sort apart."""
        d = np.zeros(8)
        d[3], d[6], d[7] = 1e-52, 1.0, -0.0
        op = TridiagonalOperator(d, np.zeros(7))
        want = bits(fresh_values(op, 7))
        eigen_lowest(op, 7)
        assert bits(eigenvalues_lowest(op, 7)) == want

    def test_threads_get_their_own_operator(self):
        ops = [TridiagonalOperator(np.full(40, 2.0 + i), np.full(39, -1.0)) for i in range(2)]
        want = [bits(fresh_values(op, 4)) for op in ops]
        wrong = []

        def alternate(start):
            for j in range(300):
                i = (start + j) % 2
                if bits(eigenvalues_lowest(ops[i], 4)) != want[i]:
                    wrong.append((start, j))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=alternate, args=(start % 2,)) for start in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


def values_outcome(op: TridiagonalOperator, k: int):
    try:
        return bits(eigenvalues_lowest(op, k))
    except SolverError as exc:
        return str(exc)


entries = st.floats(-1e3, 1e3, allow_subnormal=False) | st.sampled_from([0.0, -0.0])


@st.composite
def operators_and_k(draw):
    n = draw(st.integers(3, 200))
    d = draw(arrays(np.float64, n, elements=entries))
    e = draw(arrays(np.float64, n - 1, elements=entries))
    return TridiagonalOperator(d, e), draw(st.integers(1, n))


@given(operators_and_k())
@settings(max_examples=150, deadline=None)
def test_values_after_eigenpairs_match_fresh_bisection(case):
    op, k = case
    eigenvalues_lowest(UNRELATED, 1)
    want = values_outcome(op, k)
    with contextlib.suppress(SolverError):
        eigen_lowest(op, k)
    assert values_outcome(op, k) == want


class TestModelSpectra:
    def test_1d_harmonic_operator_ladder(self):
        """The direct eigenvalue ladder is 2n + 1 at unit mass and frequency."""
        spec = ModelSpec(Family.HARMONIC_1D)
        _, results = numeric_levels(spec, 4, n_points=2000)
        for n, res in enumerate(results):
            assert res.eigenvalue == pytest.approx(2 * n + 1, rel=1e-5)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
    def test_numeric_agrees_with_analytic(self, spec):
        table = numeric_spectrum(spec, 5, n_points=4000)
        for lev in table.levels:
            want = analytic_e2(spec, lev.n)
            assert abs(lev.e2 - want) / abs(want) <= 1e-4

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
    def test_node_counts_match_level_index(self, spec):
        _, results = numeric_levels(spec, 4, n_points=1500)
        for n, res in enumerate(results):
            assert count_nodes(res.vector) == n

    def test_refinement_improves_accuracy(self):
        spec = ModelSpec(Family.ISOTONIC_1D)
        want = analytic_e2(spec, 2)
        errs = []
        for n_points in (500, 1000, 2000):
            table = numeric_spectrum(spec, 3, n_points=n_points)
            errs.append(abs(table.levels[2].e2 - want))
        assert errs[0] > errs[1] > errs[2]

    def test_numeric_ladder_is_equispaced(self):
        spec = ModelSpec(Family.HARMONIC_2D, ml=1)
        table = numeric_spectrum(spec, 6, n_points=4000)
        gaps = np.diff(table.e2_values())
        assert np.std(gaps) <= 1e-3 * np.mean(gaps)

    @pytest.mark.parametrize("k", [5, 8])
    @pytest.mark.parametrize("spec,order", SPECS_WITH_ORDER)
    def test_fine_grid_within_order_bound(self, spec, order, k):
        """On a fine grid the eigenvalues still meet the stencil's error order."""
        problem = effective_problem(spec)
        h = choose_domain(problem, k, n_points=32000).h
        table = numeric_spectrum(spec, k, n_points=32000)
        c2 = spec.params.c ** 2
        for lev in table.levels:
            lam = problem.lambda_estimate(lev.n)
            assert abs(lev.e2 - analytic_e2(spec, lev.n)) <= c2 * lam * (h ** 2 * lam) ** (order / 2)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family.value)
    def test_eigenpairs_pass_residual_bound_at_n64000(self, spec):
        _, results = numeric_levels(spec, 5, n_points=64000)
        assert [count_nodes(r.vector) for r in results] == list(range(5))

    def test_negative_e2_raises(self):
        spec = ModelSpec(Family.HARMONIC_1D, PhysicalParams(omega=1e4))
        problem = effective_problem(spec)
        op = discretize(problem, Grid(-0.1, 0.1, 3))
        lam = eigen_lowest(op, 1)[0].eigenvalue
        assert problem.lambda_to_e2(lam) < 0  # the setup really is under-resolved
        with pytest.raises(SolverError, match="discretization"):
            numeric_spectrum(spec, 1, grid=Grid(-0.1, 0.1, 3))


class TestConvergenceOrder:
    def test_smooth_problem_is_second_order(self):
        spec = ModelSpec(Family.HARMONIC_1D)
        order = convergence_order(spec, 0)
        assert order == pytest.approx(2.0, abs=0.2)

    def test_2d_harmonic_first_sector(self):
        spec = ModelSpec(Family.HARMONIC_2D, ml=1)
        order = convergence_order(spec, 0)
        assert order == pytest.approx(2.0, abs=0.3)

    def test_singular_sector_degrades_gracefully(self):
        """|ml - b| = 3/4 has a fractional cusp; order drops but stays above 1.5."""
        spec = ModelSpec(Family.ISOTONIC_2D, PhysicalParams(b=0.25), ml=1)
        order = convergence_order(spec, 0)
        assert order >= 1.5

    def test_half_integer_sector_recovers_smoothness(self):
        # |ml - b| = 1/2 makes the centrifugal coefficient vanish
        spec = ModelSpec(Family.ISOTONIC_2D, PhysicalParams(b=0.5), ml=1)
        order = convergence_order(spec, 0)
        assert order == pytest.approx(2.0, abs=0.2)


class TestPairResidual:
    @staticmethod
    def residuals(spec, n_points):
        grid, results = numeric_levels(spec, 4, n_points=n_points)
        table = numeric_spectrum(spec, 4, grid=grid)
        return [
            residual_pair_check(spec, table.levels[n].e, grid, results[n].vector)
            for n in range(4)
        ]

    @pytest.mark.parametrize(
        "spec",
        [ModelSpec(Family.HARMONIC_1D), ModelSpec(Family.ISOTONIC_1D)],
        ids=lambda s: s.family.value,
    )
    def test_first_order_closure_1d(self, spec):
        coarse = self.residuals(spec, 4000)
        fine = self.residuals(spec, 8000)
        assert max(coarse) <= 1e-4
        for r1, r2 in zip(coarse, fine):
            assert r2 <= 0.5 * r1 + 1e-12

    def test_rejects_off_grid_state(self):
        spec = ModelSpec(Family.HARMONIC_1D)
        grid = Grid(-5.0, 5.0, 100)
        with pytest.raises(ValueError, match="grid"):
            residual_pair_check(spec, 1.0, grid, np.zeros(99))

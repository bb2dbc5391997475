import collections
import contextlib
import ctypes
import importlib.machinery
import importlib.util
import json
import math
import os
import subprocess
import sys
import threading
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
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
from relqosc import lapack, solver, verify
from relqosc.models import RadialProblem, default_spec
from relqosc.lapack import _first_extremum_sign, _lapack_seam
from relqosc.solver import Grid, TridiagonalOperator, eigenvalues_lowest

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
        well_strength=1.0,
        lambda_gap=2.0,
        lambda_offset=1.0,
        delta=2.0,
    )


# The positions, among each routine's ctypes arguments, of what its fake
# passes through a fault: dlaebz's (MOUT, AB, NAB, INFO), and dsterf's (D, INFO),
# its values and its INFO.
RETURNED = {"dlaebz": (15, 13, 16, 19), "dsterf": (1, 3)}


def whole_diagonal(d: np.ndarray) -> np.ndarray:
    """The scaled diagonal of the operator whose block, or whole diagonal, the seam hands dlaebz as D."""
    return d if d.base is None else d.base


def laebz_call(args) -> types.SimpleNamespace:
    """A dlaebz call as a fault sees it: its job, the size of its operator, whether its block ends that
    operator, and its outputs mout, ab, nab, nval (arrays, changed in place) and info."""
    d = args[9].array
    whole = whole_diagonal(d)
    return types.SimpleNamespace(
        ijob=args[0].value, size=whole.size, last=d.ctypes.data + d.nbytes == whole.ctypes.data + whole.nbytes,
        mout=args[15].value, ab=args[13].array, nab=args[16].array, nval=args[12].array, info=args[19].value)


def patch_lapack(monkeypatch, laebz=lambda call: None, stein=lambda out: out, sterf=lambda out: out):
    """Make the solver's LAPACK routines run through fakes, and return a record of their calls.

    Each fake wraps a routine that lapack._lapack() returns and runs the real
    routine, or wraps the inverse iteration lapack._stein and runs it. The
    fake of dsterf then passes what the routine wrote, as the tuple (values,
    info), through the given function, which may corrupt it, and writes the
    result back into the same ctypes objects and arrays; the fake of the
    inverse iteration does the same with the vectors it wrote and the INFO
    it returned, as the tuple (z, info). The fake of dlaebz hands the given
    fault a laebz_call, which it may change, and writes back its mout and
    info. A
    batch runs the fakes on several threads, in no fixed order, so a fault
    picks its victim by operator, never by call order. The record counts the
    calls per routine in `calls`, under a lock: for dlaebz, one bisection per
    operator whose scaled diagonal it sees, and as "dstein" one inverse
    iteration per operator. The latest model solve is cleared, so that the
    first values-only solve reaches the fake.
    """
    calls = collections.Counter()
    lock = threading.Lock()
    real, real_stein = lapack._lapack(), lapack._stein
    bisected = {}

    def fake(name, post):
        def routine(*args):
            real[name](*args)
            with lock:
                calls[name] += 1
            slots = [getattr(args[i], "array", args[i]) for i in RETURNED[name]]
            out = post(tuple(getattr(slot, "value", slot) for slot in slots))
            for slot, value in zip(slots, out):
                if isinstance(slot, np.ndarray):
                    slot[:len(value)] = value
                else:
                    slot.value = value

        return routine

    def bisection(*args):
        real["dlaebz"](*args)
        whole = whole_diagonal(args[9].array)
        with lock:
            if id(whole) not in bisected:
                bisected[id(whole)] = whole  # held, so that no later operator reuses its id
                calls["bisections"] += 1
        call = laebz_call(args)
        laebz(call)
        args[15].value, args[19].value = call.mout, call.info

    def inverse_iteration(lapack, d, e, w, iblock, isplit, z):
        info = yield from real_stein(lapack, d, e, w, iblock, isplit, z)
        with lock:
            calls["dstein"] += 1
        vectors, info = stein((z, info))
        z[:] = vectors
        return info

    fakes = {**real, "dlaebz": bisection, "dsterf": fake("dsterf", sterf)}
    monkeypatch.setattr(lapack, "_lapack", lambda: fakes)
    monkeypatch.setattr(lapack, "_stein", inverse_iteration)
    monkeypatch.setattr(solver, "_latest_model_solve", None)
    return types.SimpleNamespace(calls=calls)


def unconverged(call):
    """dlaebz leaves at least one interval of each bisection open, so the bisection reports INFO 1, as dstebz does."""
    if call.ijob == 2:
        call.info = max(call.info, 1)


def illegal_argument(call):
    """dlaebz reports an illegal third argument."""
    call.info = -3


def one_value_short(call):
    """The count at the upper end of the operator's last block is one short, so the bisection returns one
    value fewer than asked for (and INFO 2, as dstebz does)."""
    if call.ijob == 1 and call.last:
        call.nab[0, 1] -= 1
        call.mout -= 1


def second_value_nan(call):
    """Each block's interval that holds its second eigenvalue has NaN ends."""
    if call.ijob == 2:
        holds = (call.nab[:call.mout, 0] <= 1) & (call.nab[:call.mout, 1] > 1)
        call.ab[:call.mout][holds] = np.nan


def run_seam(op: TridiagonalOperator, k: int, vectors: bool = False):
    """What lapack._lapack_seam returns, with each of its LAPACK calls run on this thread, in order."""
    seam = _lapack_seam(op, k, vectors)
    try:
        while True:
            for call in next(seam):
                call()
    except StopIteration as stop:
        return stop.value


# The LAPACK routines and BLAS kernels the seam calls, no dstein among them.
ROUTINES = {"dlaebz", "dsterf", "dlagtf", "dlagts", "idamax", "dscal", "ddot", "daxpy", "dnrm2"}


# For a fresh interpreter that imports scipy.linalg: whether each of the seam's
# routines is, by dladdr, the symbol named like the dstebz that the wrapper
# module's handle resolves, in the same shared library; dlaebz may instead be
# the C port's symbol, relqosc_dlaebz in the library _laebz_port loads.
SAME_ROUTINES = f"ROUTINES = {sorted(ROUTINES)!r}\n" + """
import ctypes
class Symbol(ctypes.Structure):
    _fields_ = [("file", ctypes.c_char_p), ("base", ctypes.c_void_p),
                ("name", ctypes.c_char_p), ("address", ctypes.c_void_p)]
def symbol(address):
    found = Symbol()
    assert ctypes.CDLL(None).dladdr(ctypes.c_void_p(address), ctypes.byref(found))
    return found.file, found.name
def same_routines():
    routines = {name: ctypes.cast(routine, ctypes.c_void_p).value for name, routine in lapack._lapack().items()}
    library = ctypes.CDLL(scipy.linalg.lapack._flapack.__file__)
    stebz = next(getattr(library, name) for name in ("scipy_dstebz_", "dstebz_") if hasattr(library, name))
    file, name = symbol(ctypes.cast(stebz, ctypes.c_void_p).value)
    port = lapack._laebz_port()
    ports = {"dlaebz": [symbol(ctypes.cast(port, ctypes.c_void_p).value)] if port is not None else []}
    return [sorted(routines) == sorted(ROUTINES),
            all(symbol(routines[routine]) in [(file, name.replace(b"dstebz", routine.encode())),
                                              *ports.get(routine, [])] for routine in ROUTINES)]
"""


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

    @pytest.mark.parametrize("x_min, x_max", [
        (0.0, 4e-200),      # h^2 underflows to 0
        (0.0, 4e-160),      # h^2 is subnormal and 2/h^2 overflows
        (-1e300, 1e300),    # h^2 overflows
        (-1e308, 1e308),    # x_max - x_min overflows
        (0.0, math.inf),
    ])
    def test_spacing_out_of_range(self, x_min, x_max):
        with pytest.raises(ValueError, match="grid spacing"):
            Grid(x_min, x_max, 3)
        assert Grid(0.0, 4e-150, 3).h == pytest.approx(1e-150)


class TestTridiagonalOperator:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            TridiagonalOperator(np.zeros(2), np.zeros(1))
        with pytest.raises(ValueError):
            TridiagonalOperator(np.zeros(5), np.zeros(3))

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_grid_spacing_must_be_positive_and_finite(self, h):
        """An h that would make the eigenvectors NaN or zero, or their normalization raise, is refused."""
        with pytest.raises(ValueError, match="positive finite grid spacing"):
            TridiagonalOperator(np.array([2.0, 0.0, 1.0, 3.0]), np.ones(3), h=h)

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

    @pytest.mark.parametrize("spec, x_min", [
        (ModelSpec(Family.HARMONIC_1D), -7.5),
        (ModelSpec(Family.HARMONIC_2D, ml=1), 0.0),
    ], ids=["full-line", "half-line"])
    def test_given_edge_is_the_outer_edge(self, spec, x_min):
        assert choose_domain(effective_problem(spec), 5, 300, x_max=7.5) == Grid(x_min, 7.5, 300)

    def test_given_edge_skips_the_sizing_checks(self):
        """k, the eigenvalue estimate and X_MAX_LIMIT size only an automatic edge."""
        problem = effective_problem(ModelSpec(Family.HARMONIC_1D, PhysicalParams(omega=1e-15)))
        assert choose_domain(problem, 0, 300, x_max=2e6) == Grid(-2e6, 2e6, 300)


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
            well_strength=1.0,
            lambda_gap=2.0,
            lambda_offset=1.0,
            delta=2.0,
        )
        with pytest.raises(ValueError, match="finite"):
            discretize(bad, Grid(0.0, 1.0, 9))

    def test_potential_overflow_names_its_node(self, recwarn):
        """(q x)^2 overflows at the edge nodes: named by node and float x, with no numpy warning."""
        grid = Grid(-1e155, 1e155, 199)
        with pytest.raises(ValueError) as exc:
            discretize(effective_problem(ALL_SPECS[0]), grid)
        assert str(exc.value) == f"potential is not finite at node 0 (x={float(grid.nodes[0])!r})"
        assert not recwarn.list


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

    def test_nan_eigenvector_fails_residual_bound(self, monkeypatch):
        def nan_vector(out):
            vec, info = out
            vec[:, 1] = np.nan
            return vec, info

        patch_lapack(monkeypatch, stein=nan_vector)
        with pytest.raises(SolverError, match="index 1 left residual nan"):
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

    @pytest.mark.parametrize("bad", [one_value_short, second_value_nan], ids=["bad0", "bad1"])
    def test_short_or_nonfinite_bisection_raises(self, monkeypatch, bad):
        patch_lapack(monkeypatch, laebz=bad)
        op = TridiagonalOperator(np.full(5, 2.0), np.full(4, -1.0))
        with pytest.raises(SolverError, match="bisection"):
            eigenvalues_lowest(op, 2)

    @pytest.mark.parametrize("solve", [eigenvalues_lowest, eigen_lowest])
    def test_bisection_failure_raises(self, monkeypatch, solve):
        patch_lapack(monkeypatch, laebz=unconverged)
        with pytest.raises(SolverError, match="stebz"):
            solve(TridiagonalOperator(np.full(5, 2.0), np.full(4, -1.0)), 2)

    @pytest.mark.parametrize("info, error", [(1, SolverError), (-3, ValueError)], ids=["failure", "illegal-argument"])
    def test_sterf_info_raises(self, monkeypatch, info, error):
        patch_lapack(monkeypatch, sterf=lambda out: (out[0], info))
        [got] = solver.solve_many([(TridiagonalOperator(np.full(5, 2.0), np.full(4, -1.0)), None)])
        assert type(got) is error and "LAPACK sterf" in str(got)

    @pytest.mark.parametrize("routine, fault", [
        ("laebz", dict(laebz=illegal_argument)),
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
        for solve in (eigenvalues_lowest, eigen_lowest, lambda op, k: solver.raise_first(solver.solve_many([(op, None)]))):
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve(op, 2)

    def test_values_past_the_float_range_raise(self, recwarn):
        """The scaled operator solves, but its lowest values scaled back by 2^p lie below -1.8e308."""
        op = TridiagonalOperator(np.full(5, -1e308), np.full(4, 1e308))
        for solve in (eigenvalues_lowest, eigen_lowest):
            with pytest.raises(SolverError, match="bisection returned 2 values, 0 of them finite"):
                solve(op, 2)
        assert not recwarn.list

    def test_integer_operator_takes_every_request(self):
        """An int64 operator gets the k lowest values, the eigenpairs and all the values of its float64 copy."""
        d, e = np.array([2, 0, 1, 3]), np.array([1, 1, 1])
        answers = [solver.solve_many([(op, 2), (op, 2, True), (op, None)])
                   for op in (TridiagonalOperator(d, e), TridiagonalOperator(d.astype(float), e.astype(float)))]
        for got, want in zip(*answers):
            assert not isinstance(want, Exception)
            assert_same_answer(got, want)

    def test_all_values_past_the_float_range_raise(self, recwarn):
        """sterf scales the operator itself, but its largest value, 2.4e308, lies past the float range."""
        op = TridiagonalOperator(np.full(3, 1e308), np.full(2, 1e308))
        [got] = solver.solve_many([(op, None)])
        assert type(got) is SolverError and str(got) == "sterf returned 3 values, 2 of them finite"
        assert not recwarn.list

    @pytest.mark.parametrize("e_max", [1.35e154, 1e300])  # sqrt of the largest float is 1.34e154
    def test_offdiag_square_overflow_solves_scaled(self, recwarn, e_max):
        """stebz squares the off-diagonal (info=4 once that overflows unscaled): the seam's
        values are 2^p times those of the matrix scaled by 2^-p, and the eigenpairs pass."""
        e = np.full(4, -1.0)
        e[2] = -e_max
        op = TridiagonalOperator(np.full(5, 2.0), e)
        p = math.frexp(e_max)[1]
        want = scipy.linalg.eigh_tridiagonal(np.ldexp(op.diag, -p), np.ldexp(e, -p), eigvals_only=True,
                                             select="i", select_range=(0, 1), lapack_driver="stebz")
        assert eigenvalues_lowest(op, 2).tolist() == np.ldexp(want, p).tolist()
        assert [r.eigenvalue for r in eigen_lowest(op, 2)] == np.ldexp(want, p).tolist()
        assert not recwarn.list


def oracle_operators():
    """Random and default-model operators on N in {3, 4, 160, 2000, 16000}."""
    rng = np.random.default_rng(2024)
    for n in (3, 4, 160, 2000, 16000):
        yield pytest.param(TridiagonalOperator(rng.normal(size=n), rng.normal(size=n - 1)), id=f"random-{n}")
        for spec in ALL_SPECS:
            yield pytest.param(default_operator(spec, 8, n), id=f"{spec.family.value}-{n}")


class TestLapackCalls:
    """The direct LAPACK calls on 2^-p T reproduce scipy.linalg.eigh_tridiagonal's stebz route
    bit for bit on operators that stebz does not split into blocks: the values equal its
    values on T, the vectors its vectors on 2^-p T, the operator stein sees, signed and
    h-normalized as EigenResult states."""

    @pytest.mark.parametrize("op", oracle_operators())
    def test_bit_identical_to_eigh_tridiagonal(self, op):
        n = op.size
        p = math.frexp(max(np.max(np.abs(op.diag)), np.max(np.abs(op.offdiag))))[1]
        d, e = np.ldexp(op.diag, -p), np.ldexp(op.offdiag, -p)
        for k in sorted({k for k in (1, 5, 8) if k <= n} | ({n} if n <= 160 else set())):
            kwargs = dict(select="i", select_range=(0, k - 1), lapack_driver="stebz")
            want = scipy.linalg.eigh_tridiagonal(op.diag, op.offdiag, eigvals_only=True, **kwargs)
            assert run_seam(op, k).tolist() == want.tolist()
            _, want_vec = scipy.linalg.eigh_tridiagonal(d, e, **kwargs)
            pairs = run_seam(op, k, vectors=True)
            assert [r.eigenvalue for r in pairs] == want.tolist()
            for r, u in zip(pairs, want_vec.T):
                v = u * (_first_extremum_sign(u) / math.sqrt(op.h * float(u @ u)))
                assert np.array_equal(r.vector.view(np.int64), v.view(np.int64))

    def test_solve_then_import_scipy_linalg(self):
        got = run_fresh("""
import json, sys
import numpy as np
from relqosc import lapack, solver
op = solver.TridiagonalOperator(np.full(50, 2.0), np.full(49, -1.0))
lam = solver.eigenvalues_lowest(op, 3).tolist()
""" + SAME_ROUTINES + """
before = [name for name in sys.modules if name.split(".")[0] == "scipy"]
import scipy.linalg
want = scipy.linalg.eigh_tridiagonal(op.diag, op.offdiag, eigvals_only=True, select="i",
                                     select_range=(0, 2), lapack_driver="stebz").tolist()
print(json.dumps([before, lam == want, *same_routines()]))
""")
        assert got == [[], True, True, True]

    def test_import_scipy_linalg_then_solve(self):
        got = run_fresh("""
import json, sys
import numpy as np
import scipy.linalg
from relqosc import lapack, solver
op = solver.TridiagonalOperator(np.full(50, 2.0), np.full(49, -1.0))
lam = solver.eigenvalues_lowest(op, 3).tolist()
""" + SAME_ROUTINES + """
want = scipy.linalg.eigh_tridiagonal(op.diag, op.offdiag, eigvals_only=True, select="i",
                                     select_range=(0, 2), lapack_driver="stebz").tolist()
print(json.dumps([lam == want, *same_routines()]))
""")
        assert got == [True, True, True]

    def test_missing_scipy_raises_import_error(self, monkeypatch):
        monkeypatch.delitem(sys.modules, lapack._FLAPACK, raising=False)
        monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: None)
        with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack") as excinfo:
            lapack._flapack.__wrapped__()
        assert excinfo.value.name == "scipy.linalg._flapack"

    @pytest.mark.parametrize("exported, missing", [
        (("scipy_dstebz_",), "scipy_dlaebz_"),
        ((), "dlaebz_"),
        *[(tuple(f"scipy_{name}_" for name in sorted(ROUTINES - {kernel} | {"dstebz"})), f"scipy_{kernel}_")
          for kernel in sorted(ROUTINES - {"dlaebz"})],
    ], ids=["prefixed", "plain", *sorted(ROUTINES - {"dlaebz"})])
    def test_missing_dlaebz_raises_import_error(self, monkeypatch, exported, missing):
        """dlaebz, and every other routine and BLAS kernel of the seam, is looked up under the name prefix of
        the library's dstebz, and nowhere else: its absence is an ImportError that names it, never a second
        path."""
        real = ctypes.CDLL
        monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace(
            **{name: getattr(real(path), name) for name in exported}))
        with pytest.raises(ImportError, match=rf"LAPACK routine {missing} not found next to dstebz") as excinfo:
            lapack._lapack.__wrapped__()
        assert excinfo.value.name == "scipy.linalg._flapack"

    def test_scipy_without_lapack_raises_import_error(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, lapack._FLAPACK, raising=False)
        empty = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        empty.submodule_search_locations.append(str(tmp_path))
        monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: empty)
        with pytest.raises(ImportError, match=r"cannot locate scipy\.linalg\._flapack"):
            lapack._flapack.__wrapped__()


def bits(values) -> list:
    """Eigenvalues as int64 bit patterns, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def small_operator() -> TridiagonalOperator:
    return TridiagonalOperator(
        np.array([2.0, 0.0, 1.5, -0.5, 3.0, 1.0]), np.array([-1.0, 0.5, 0.0, -0.25, 0.75]))


def split_zero_operator() -> TridiagonalOperator:
    """Zero off-diagonal, so stebz splits it into blocks with tied +0.0 and -0.0 eigenvalues."""
    d = np.zeros(8)
    d[3], d[6], d[7] = 1e-52, 1.0, -0.0
    return TridiagonalOperator(d, np.zeros(7))


def ulp_up(x: float) -> float:
    return float(np.nextafter(x, np.inf))


def fresh_spectrum(spec: ModelSpec, k: int, grid: Grid):
    """numeric_spectrum's table from a bisection of its own, never from the latest model solve."""
    problem = effective_problem(spec)
    return solver.spectrum_table(problem, eigenvalues_lowest(discretize(problem, grid), k))


def changed_key(change):
    """numeric_spectrum of 2d-ho ml=1, then of the (spec, grid, k) that change(spec, grid) returns."""
    def solve_twice():
        spec = ModelSpec(Family.HARMONIC_2D, ml=1)
        grid = choose_domain(effective_problem(spec), 4, n_points=400)
        numeric_spectrum(spec, 4, grid=grid)
        other_spec, other_grid, k = change(spec, grid)
        return numeric_spectrum(other_spec, k, grid=other_grid), lambda: fresh_spectrum(other_spec, k, other_grid)
    return solve_twice


def negated_zero(field, index):
    """eigenvalues_lowest of small_operator(), then of a copy whose +0.0 at field[index] is -0.0."""
    def solve_twice():
        op = small_operator()
        eigenvalues_lowest(op, 3)
        d, e = op.diag.copy(), op.offdiag.copy()
        a = d if field == "diag" else e
        assert a[index] == 0.0 and not np.signbit(a[index])
        a[index] = -0.0
        other = TridiagonalOperator(d, e, h=op.h)
        return bits(eigenvalues_lowest(other, 3)), lambda: bits(eigenvalues_lowest(other, 3))
    return solve_twice


class TestLatestSolve:
    """The LAPACK seam keeps no state; a values-only solver.solve (numeric_spectrum) reuses
    the eigenvalues of the latest solve of an equal (spec, grid, k)."""

    def test_levels_then_spectrum_bisect_once(self, monkeypatch):
        fake = patch_lapack(monkeypatch)
        spec = ALL_SPECS[1]
        grid, results = numeric_levels(spec, 6, n_points=2000)
        table = numeric_spectrum(spec, 6, grid=grid)
        assert fake.calls == {"bisections": 1, "dstein": 1}
        problem = effective_problem(spec)
        fresh = eigenvalues_lowest(discretize(problem, grid), 6)
        assert fake.calls == {"bisections": 2, "dstein": 1}
        assert bits([r.eigenvalue for r in results]) == bits(fresh)
        assert table == solver.spectrum_table(problem, fresh)

    def test_equal_model_hits(self, monkeypatch):
        """Equal keys that are not the same objects: the spec built again, the chosen grid passed in."""
        fake = patch_lapack(monkeypatch)
        table = numeric_spectrum(ModelSpec(Family.HARMONIC_2D, ml=2), 4, n_points=400)
        spec = ModelSpec(Family.HARMONIC_2D, ml=2)
        grid = choose_domain(effective_problem(spec), 4, n_points=400)
        assert numeric_spectrum(spec, 4, grid=grid) == table
        assert fake.calls == {"bisections": 1}

    def test_seam_keeps_no_state(self, monkeypatch):
        fake = patch_lapack(monkeypatch)
        op = small_operator()
        want = bits(eigenvalues_lowest(op, 3))
        assert bits(eigenvalues_lowest(op, 3)) == want
        eigen_lowest(op, 3)
        assert bits(eigenvalues_lowest(op, 3)) == want
        assert fake.calls == {"bisections": 4, "dstein": 1}

    @pytest.mark.parametrize("solve_twice", [
        changed_key(lambda spec, grid: (spec, grid, 5)),
        changed_key(lambda spec, grid: (replace(spec, params=replace(spec.params, omega=ulp_up(1.0))), grid, 4)),
        changed_key(lambda spec, grid: (spec, replace(grid, x_max=ulp_up(grid.x_max)), 4)),
        negated_zero("diag", 1),
        negated_zero("offdiag", 2),
    ], ids=["k", "diag-ulp", "offdiag-ulp", "diag-signed-zero", "offdiag-signed-zero"])
    def test_any_change_misses(self, monkeypatch, solve_twice):
        """A key that differs in k, or by one ulp in the spec (which reaches only the
        operator's diagonal) or in the grid (which reaches its off-diagonal), misses; and
        the seam solves again an operator that differs from the last only in the sign of a zero."""
        fake = patch_lapack(monkeypatch)
        got, fresh = solve_twice()
        assert fake.calls["bisections"] == 2
        assert got == fresh()

    def test_signed_zero_keys_hit_with_equal_bits(self, monkeypatch):
        """0.0 and -0.0 make equal keys, and through ml - b and x_min + j h they build bit-equal operators."""
        fake = patch_lapack(monkeypatch)
        spec = ModelSpec(Family.ISOTONIC_2D, PhysicalParams(b=0.0), ml=1)
        grid = choose_domain(effective_problem(spec), 4, n_points=400)
        neg_spec = ModelSpec(Family.ISOTONIC_2D, PhysicalParams(b=-0.0), ml=1)
        neg_grid = replace(grid, x_min=-0.0)
        op, neg_op = discretize(effective_problem(spec), grid), discretize(effective_problem(neg_spec), neg_grid)
        assert bits(op.diag) == bits(neg_op.diag) and bits(op.offdiag) == bits(neg_op.offdiag)
        table = numeric_spectrum(spec, 4, grid=grid)
        assert numeric_spectrum(neg_spec, 4, grid=neg_grid) == table
        assert fake.calls == {"bisections": 1}

    def test_verify_all_bisects_each_operator_once(self, monkeypatch):
        """block-route keeps the D^T D values of its solves for ladder-integers and
        route-equivalence, kernel-dimension reads the kernels of the isospectrality solves,
        both sides of each dense oracle come from sterf, route-equivalence's solve shares the
        seam of the pair suite's equal eigenpair solve, and every suite's solves run in one batch."""
        batches = []

        def counted(requests):
            batches.append(len(requests))
            return solver.solve_many(requests)

        monkeypatch.setattr(verify, "solve_many", counted)
        fake = patch_lapack(monkeypatch)
        assert all(r.passed for r in run_suite("all"))
        assert fake.calls == {"bisections": 21, "dstein": 4, "dsterf": 4}
        assert batches == [26]

    def test_pair_suite_tables_come_from_its_own_eigenpairs(self, monkeypatch):
        """The pair suite maps the values of its eigenpair solves to E^2 and never asks numeric_spectrum."""
        def refuse(*args, **kwargs):
            raise AssertionError("the pair suite called numeric_spectrum")

        monkeypatch.setattr(verify, "numeric_spectrum", refuse)
        fake = patch_lapack(monkeypatch)
        assert all(r.passed for r in run_suite("pair"))
        assert fake.calls == {"bisections": 4, "dstein": 4}

    def test_solve_entry_rules(self, monkeypatch):
        """A values-only solve answered by the entry leaves that very entry; a vectors solve
        always runs LAPACK and stores its values; a solve that raises leaves the entry."""
        fake = patch_lapack(monkeypatch)
        spec = ALL_SPECS[1]
        grid, problem, lam, pairs = solver.solve(spec, 4, n_points=400)
        entry = solver._latest_model_solve
        assert pairs is None and entry == ((spec, grid, 4), lam)
        assert solver.solve(spec, 4, grid)[2] is lam and solver._latest_model_solve is entry
        assert fake.calls == {"bisections": 1}
        _, _, lam_v, pairs = solver.solve(spec, 4, grid, vectors=True)
        assert fake.calls == {"bisections": 2, "dstein": 1}
        assert bits(lam_v) == bits(lam) and lam_v == tuple(r.eigenvalue for r in pairs)
        entry = solver._latest_model_solve
        assert entry[1] is lam_v
        with pytest.raises(ValueError, match="half-line problem"):
            solver.solve(spec, 4, replace(grid, x_min=-grid.x_max))
        assert solver._latest_model_solve is entry
        assert solver.solve(spec, 4, x_max=grid.x_max, n_points=400)[0] == grid

    def test_vector_request_runs_lapack(self, monkeypatch):
        fake = patch_lapack(monkeypatch)
        op = small_operator()
        eigenvalues_lowest(op, 3)
        eigen_lowest(op, 3)
        eigen_lowest(op, 3)
        assert fake.calls == {"bisections": 3, "dstein": 2}

    @pytest.mark.parametrize("solve, fault, match", [
        (eigenvalues_lowest, unconverged, "stebz"),
        (eigenvalues_lowest, one_value_short, "bisection"),
        (eigen_lowest, unconverged, "stebz"),
        (eigen_lowest, one_value_short, "bisection returned 2 values, 2 of them finite"),
        (eigen_lowest, second_value_nan, "bisection returned 3 values, 2 of them finite"),
    ], ids=["values-info", "values-short", "vectors-info", "vectors-short", "vectors-nan"])
    def test_corrupting_module_after_clean_solve_raises(self, monkeypatch, solve, fault, match):
        """Both requests check the bisection's result before any stein call."""
        op = small_operator()
        eigen_lowest(op, 3)
        eigenvalues_lowest(op, 3)
        fake = patch_lapack(monkeypatch, laebz=fault)
        with pytest.raises(SolverError, match=match):
            solve(op, 3)
        assert fake.calls == {"bisections": 1}

    def test_short_bisection_leaves_the_entry(self, monkeypatch):
        """numeric_levels raises on a short bisection, so the entry never holds fewer than k values."""
        short = []
        fake = patch_lapack(monkeypatch, laebz=lambda call: one_value_short(call) if short else None)
        spec = ALL_SPECS[0]
        grid, _ = numeric_levels(spec, 4, n_points=400)
        entry = solver._latest_model_solve
        short.append(True)
        with pytest.raises(SolverError, match="bisection returned 3 values"):
            numeric_levels(spec, 4, grid=grid)
        assert solver._latest_model_solve is entry
        assert len(numeric_spectrum(spec, 4, grid=grid).levels) == 4
        assert fake.calls == {"bisections": 2, "dstein": 1}

    def test_returned_and_operator_arrays_are_not_aliased(self):
        op = small_operator()
        want = bits(eigenvalues_lowest(op, 3))
        want_vectors = [r.vector.copy() for r in eigen_lowest(op, 3)]
        run_seam(op, 3)[:] = 0.0
        for r in run_seam(op, 3, vectors=True):
            r.vector[:] = 0.0
        assert bits(eigenvalues_lowest(op, 3)) == want
        assert all(np.array_equal(r.vector, v) for r, v in zip(eigen_lowest(op, 3), want_vectors))
        op.diag[0] += 1.0
        assert bits(eigenvalues_lowest(op, 3)) != want

    def test_signed_zero_ties_without_the_entry(self):
        """Values and eigenpairs come from one stebz order, so they agree bit for bit, tied +0.0 and -0.0 included."""
        op = split_zero_operator()
        lam = [r.eigenvalue for r in eigen_lowest(op, 7)]
        assert bits(eigenvalues_lowest(op, 7)) == bits(lam)

    def test_threads_get_their_own_operator(self):
        specs = [ModelSpec(Family.HARMONIC_1D, PhysicalParams(omega=1.0 + i)) for i in range(2)]
        grid = Grid(-6.0, 6.0, 40)
        want = [fresh_spectrum(spec, 4, grid) for spec in specs]
        wrong = []

        def alternate(start):
            for j in range(300):
                i = (start + j) % 2
                if numeric_spectrum(specs[i], 4, grid=grid) != want[i]:
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
    want = values_outcome(op, k)
    with contextlib.suppress(SolverError):
        eigen_lowest(op, k)
    assert values_outcome(op, k) == want



# Off-diagonal magnitudes 1e-143 to 1e140, where unscaled stebz bisects too: its squares stay
# normal. Measured bit-equal on 3,000 draws, and on 3,000 more with magnitudes 1e-153 to 1e153;
# unscaled stebz fails or differs once an off-diagonal square leaves the normal range.
offdiag_units = st.floats(1e-3, 1.0) | st.floats(-1.0, -1e-3)


@st.composite
def scaled_operators_and_k(draw):
    n = draw(st.integers(3, 200))
    scale = 10.0 ** draw(st.integers(-140, 140))
    d = draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0))) * scale
    e = draw(arrays(np.float64, n - 1, elements=offdiag_units)) * scale
    return TridiagonalOperator(d, e), draw(st.integers(1, n))


@given(scaled_operators_and_k())
@example((TridiagonalOperator(np.array([4.85561579e-257, 0.0, 0.0]), np.array([1e26, 1e26])), 2))
@settings(max_examples=200, deadline=None)
def test_scaled_values_bit_equal_to_unscaled_eigh_tridiagonal(case):
    """Bisection of 2^-p T, scaled back by 2^p, gives the bits of bisecting T itself, unless a
    nonzero diagonal entry lies below 1e-100 max|T|; then the two agree within eps ||T||_inf."""
    op, k = case
    want = scipy.linalg.eigh_tridiagonal(op.diag, op.offdiag, eigvals_only=True, select="i",
                                         select_range=(0, k - 1), lapack_driver="stebz")
    got = eigenvalues_lowest(op, k)
    largest = max(np.max(np.abs(op.diag)), np.max(np.abs(op.offdiag)))
    if np.any((op.diag != 0) & (np.abs(op.diag) < 1e-100 * largest)):
        assert np.max(np.abs(got - want)) <= np.finfo(float).eps * op.norm_inf()
    else:
        assert bits(got) == bits(want)


def listed_operator(d, e) -> TridiagonalOperator:
    return TridiagonalOperator(np.array(d), np.array(e))


@st.composite
def bisection_cases(draw):
    """An operator that stebz does not split; one that it splits into blocks, one-point blocks among
    them, where an off-diagonal entry is 0 or at most an ulp of its diagonal neighbour; or copies of one
    block, whose eigenvalues come in clusters of equal values. k runs from 1 to N, where stebz bisects
    every eigenvalue of every block (its RANGE "A")."""
    n = draw(st.integers(3, 120))
    d = draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    e = draw(arrays(np.float64, n - 1, elements=offdiag_units))
    kind = draw(st.sampled_from(["unsplit", "split", "clustered"]))
    if kind == "split":
        ulps = draw(arrays(np.float64, n - 1, elements=st.floats(-1.0, 1.0)))
        e = np.where(draw(arrays(np.bool_, n - 1)), e, ulps * np.finfo(float).eps * np.abs(d[:-1]))
    elif kind == "clustered":
        size = draw(st.integers(1, min(5, n)))
        copies = max(2, -(-3 // size), n // size)
        d, e = np.tile(d[:size], copies), np.tile(np.append(e[:size - 1], 0.0), copies)[:-1]
    return TridiagonalOperator(d, e), draw(st.integers(1, d.size))


def lane_outcome(run):
    """What run() returns, or the type and message of the SolverError it raises."""
    try:
        return run()
    except SolverError as exc:
        return SolverError, str(exc)


def bisection_on(op: TridiagonalOperator, k: int, cpus: int):
    """With `cpus` usable CPUs: the outcomes of eigenvalues_lowest(op, k), as bits, and of eigen_lowest(op, k),
    as the bits of each eigenvalue, residual and vector; and the M, W (as bits), IBLOCK and ISPLIT that the
    bisection of the eigenpair request handed the inverse iteration (lapack._stein), if it reached it."""
    real = lapack._stein
    handed = []

    def stein(lapack, d, e, w, iblock, isplit, z):
        m = z.shape[1]
        handed.append((m, bits(w[:m]), iblock[:m].tolist(), isplit.tolist()))
        return (yield from real(lapack, d, e, w, iblock, isplit, z))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lapack, "_stein", stein)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        values = lane_outcome(lambda: bits(eigenvalues_lowest(op, k)))
        pairs = lane_outcome(lambda: [(bits([r.eigenvalue, r.residual]), r.vector.tobytes())
                                      for r in eigen_lowest(op, k)])
    return values, pairs, handed


@given(bisection_cases())
@example((TridiagonalOperator(np.array([2.0, 0.0, 1.5, -0.5, 3.0, 1.0]), np.array([-1.0, 0.5, 0.0, 0.0, 0.75])), 6))
@example((split_zero_operator(), 7))
@example((listed_operator([-0.75, 3.25, -0.75, 3.25], [0.25, 0.0, 0.25]), 1))  # IDISCU: one value discarded
@example((listed_operator([-1.25, -0.75] * 3, [0.5, 0.0, 0.5, 0.0, 0.5]), 4))  # and two more dropped as the highest
# Splits where e_j^2 is tiny but e_j is not: the whole matrix's Gershgorin interval takes sqrt(e_j^2) = 0
# there, not |e_j|, and each block's tolerance comes from its interval before the clip to [WL, WU].
@example((listed_operator(
    [0.5930922209368608, 0.3431752679614066, 0.6900461831366929, 0.8775036569597692, -0.9547645422259945,
     -0.7637895456982826, -0.27947223063271376, -0.8128262939148005, 0.19904894610655433, -0.47927155530378274],
    [-1.2603964646075249e-16, 4.971657949480134e-17, -1.3426852957248362e-16, -1.5860691198224117e-16,
     1.963893402347875e-16, 0.21301618128252486, -0.9319088354444491, -0.141071710722245, 2.2396360081298738e-17]), 9))
@example((listed_operator(
    [0.43921323297677284, 0.14977163629402312, 0.5768401596866328, 0.0038592076012964327, -0.5481250002175433,
     -0.8113019500436662, 0.8165114466047447, 0.5097579628061728, -0.6455161284793138],
    [-2.2899917112682245e-16, -1.7453302402840473e-17, 0.2713099442171958, -0.2876942845026027,
     3.6109016877609077e-16, -0.6487824724343769, -0.8580993785111848, -0.8511228872106829]), 6))
@example((default_operator(ALL_SPECS[0], 8, 16000), 8))
@example((default_operator(ALL_SPECS[1], 8, 16000), 8))
@example((default_operator(ALL_SPECS[2], 8, 16000), 8))
@example((default_operator(ALL_SPECS[3], 8, 16000), 8))
@settings(max_examples=150, deadline=None)
def test_bisection_is_dstebz_on_every_lane_count(case):
    """On 1, 2, 3 and 4 usable CPUs the seam gives the same bits: values, eigenpairs, and the M, W, IBLOCK and
    ISPLIT its bisection hands dstein, which are those of LAPACK dstebz on 2^-p T; the values are those of
    eigh_tridiagonal's stebz route on 2^-p T, scaled back, and the vectors its vectors, signed and
    h-normalized, where no two values tie. Under test_scaled_values_bit_equal_to_unscaled_eigh_tridiagonal's
    condition the values are also the bits of that route on T itself."""
    op, k = case
    got = [bisection_on(op, k, cpus) for cpus in (1, 2, 3, 4)]
    assert got[1:] == got[:1] * 3
    values, pairs, handed = got[0]
    p = math.frexp(max(np.max(np.abs(op.diag)), np.max(np.abs(op.offdiag))))[1]
    d, e = np.ldexp(op.diag, -p), np.ldexp(op.offdiag, -p)
    m, w, iblock, isplit, info = scipy.linalg.lapack.dstebz(d, e, 2, 0.0, 1.0, 1, k, 0.0, "B")
    if m != k:
        assert values[0] is SolverError and values[1].startswith(f"bisection returned {m} values")
        return
    if info != 0:
        assert values == (SolverError, f"tridiagonal eigensolve failed: LAPACK stebz returned info={info}")
        return
    w = w[:m]
    assert handed == [(m, bits(w), iblock[:m].tolist(), isplit[:len(handed[0][3])].tolist())]
    assert handed[0][3][-1] == op.size
    order = np.argsort(w, kind="stable")
    assert values == bits(np.ldexp(w[order], p))
    kwargs = dict(select="i", select_range=(0, k - 1), lapack_driver="stebz")
    if isinstance(pairs, list):
        assert [value for (value, _), _ in pairs] == values
        if np.unique(w).size == m:
            _, want_vec = scipy.linalg.eigh_tridiagonal(d, e, **kwargs)
            for (_, vector), u in zip(pairs, want_vec.T):
                assert vector == (u * (_first_extremum_sign(u) / math.sqrt(op.h * float(u @ u)))).tobytes()
    want = scipy.linalg.eigh_tridiagonal(op.diag, op.offdiag, eigvals_only=True, **kwargs)
    largest = max(np.max(np.abs(op.diag)), np.max(np.abs(op.offdiag)))
    if np.any((op.diag != 0) & (np.abs(op.diag) < 1e-100 * largest)):
        assert np.max(np.abs(np.ldexp(w[order], p) - want)) <= np.finfo(float).eps * op.norm_inf()
    else:
        assert values == bits(want)


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_ranged_bisection_searches_in_one_call(monkeypatch, cpus):
    """A bisection for k < N values searches for both ends of the range in one IJOB 3 dlaebz call, as dstebz
    does, on every lane count, for values and for eigenpairs; one for all N values makes no index search."""
    jobs = collections.Counter()
    lock = threading.Lock()

    def record(call):
        with lock:
            jobs[call.ijob] += 1

    patch_lapack(monkeypatch, laebz=record)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    op = default_operator(ALL_SPECS[3], 8, 4000)
    for solve in (eigenvalues_lowest, eigen_lowest):
        jobs.clear()
        solve(op, 8)
        assert jobs[3] == 1
    jobs.clear()
    eigenvalues_lowest(TridiagonalOperator(np.full(16, 2.0), np.full(15, -1.0)), 16)
    assert jobs[3] == 0 and jobs[2] > 0


def searches_swapped(call):
    """The index search as dlaebz writes it where the search from GU ends first: moved to the front, with its
    NVAL."""
    if call.ijob == 3:
        for out in (call.ab, call.nab, call.nval):
            out[:2] = out[1::-1].copy()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.family.value)
def test_index_search_rows_are_told_apart_by_nval(monkeypatch, spec):
    """The seam reads which row of the index search is which from NVAL, as dstebz does: the same values whichever
    search dlaebz returns first."""
    op = default_operator(spec, 8, 4000)
    want = bits(eigenvalues_lowest(op, 8))
    patch_lapack(monkeypatch, laebz=searches_swapped)
    assert bits(eigenvalues_lowest(op, 8)) == want


@st.composite
def stein_cases(draw):
    """A bisection case; or copies of one block joined by couplings of 1e-4 to 1e-15, one unsplit block
    whose eigenvalues come in groups closer than ORTOL, often closer than 10 eps |W_j| or equal in W, where
    dstein raises the shift XJ, with gaps above ORTOL between the groups."""
    if draw(st.booleans()):
        return draw(bisection_cases())
    size, copies = draw(st.integers(2, 12)), draw(st.integers(2, 4))
    d = np.tile(draw(arrays(np.float64, size, elements=st.floats(-1.0, 1.0))), copies)
    coupling = 10.0 ** -draw(st.integers(4, 15))
    e = np.tile(np.append(draw(arrays(np.float64, size - 1, elements=offdiag_units)), coupling), copies)[:-1]
    return TridiagonalOperator(d, e), draw(st.integers(1, d.size))


def stein_on(d, e, w, iblock, isplit, cpus: int):
    """The vectors and INFO of the seam's inverse iteration on the given bisection, its rounds run by the lanes of
    `cpus` usable CPUs."""
    z = np.zeros((d.size, w.size), order="F")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        [info] = lapack._run_lanes({0: lapack._stein(lapack._lapack(), d, e, w, iblock, isplit, z)}).values()
    return z, info


@given(stein_cases())
@example((listed_operator([0.5, -0.25, 0.5, -0.25], [0.75, 1e-15, 0.75]), 4))  # equal W: XJ raised
@example((default_operator(ALL_SPECS[0], 12, 16000), 12))
@example((default_operator(ALL_SPECS[1], 12, 16000), 12))
@example((default_operator(ALL_SPECS[2], 12, 16000), 12))
@example((default_operator(ALL_SPECS[3], 12, 16000), 12))
@settings(max_examples=150, deadline=None)
def test_inverse_iteration_is_dstein_on_every_lane_count(case):
    """On 1, 2, 3 and 4 usable CPUs the seam's inverse iteration writes the bits of LAPACK dstein's vectors and
    returns its INFO, on the W, IBLOCK and ISPLIT of dstebz on 2^-p T."""
    op, k = case
    p = math.frexp(max(np.max(np.abs(op.diag)), np.max(np.abs(op.offdiag))))[1]
    d, e = np.ldexp(op.diag, -p), np.ldexp(op.offdiag, -p)
    m, w, iblock, isplit, info = scipy.linalg.lapack.dstebz(d, e, 2, 0.0, 1.0, 1, k, 0.0, "B")
    assume(info == 0 and m == k)
    want, want_info = scipy.linalg.lapack.dstein(d, e, w[:m], iblock, isplit)
    for cpus in (1, 2, 3, 4):
        z, info = stein_on(d, e, w[:m], iblock, isplit, cpus)
        assert info == want_info
        assert np.array_equal(z.view(np.int64), np.asfortranarray(want).view(np.int64))


@pytest.mark.parametrize("size", [1e-12, 1e-6, 1.0])
def test_inverse_iteration_counts_unconverged_vectors_as_dstein(size):
    """Shifts far from the spectrum of a small operator leave the iterates below DTPCRT past MAXITS: INFO
    counts those vectors, and every vector is still dstein's bits."""
    rng = np.random.default_rng(11)
    d, e = rng.uniform(-0.5, 0.5, 40) * size, rng.uniform(0.01, 0.5, 39) * size
    _, _, iblock, isplit, _ = scipy.linalg.lapack.dstebz(d, e, 1, 0.0, 1.0, 1, 40, 0.0, "B")
    w = np.sort(rng.uniform(-1.0, 1.0, 12))
    want, want_info = scipy.linalg.lapack.dstein(d, e, w, iblock, isplit)
    for cpus in (1, 2):
        z, info = stein_on(d, e, w, iblock, isplit, cpus)
        assert info == want_info
        assert np.array_equal(z.view(np.int64), np.asfortranarray(want).view(np.int64))
    assert (want_info > 0) == (size < 1.0)


def test_lapack_runs_without_the_gil():
    """A pure-Python loop on this thread completes while another thread is inside one long bisection."""
    n = 64000
    op = TridiagonalOperator(np.linspace(2.0, 3.0, n), np.full(n - 1, -1.0))
    started, solved = threading.Event(), threading.Event()

    def solve():
        started.set()
        # 128 values, so that the bisection outlasts the loop: about 0.3 s against about 0.15 s for the loop
        # alone on a 2-vCPU Xeon (16 values took 0.18 s with the library's dlaebz, 0.07 s with the C port).
        eigenvalues_lowest(op, 128)
        solved.set()

    thread = threading.Thread(target=solve)
    interval = sys.getswitchinterval()
    # Hand the GIL over often, so that the thread is inside LAPACK long before the loop ends.
    sys.setswitchinterval(1e-4)
    try:
        thread.start()
        assert started.wait(timeout=60)
        count = 0
        while count < 1_000_000:
            count += 1
        overlapped = not solved.is_set()
    finally:
        sys.setswitchinterval(interval)
        thread.join(timeout=300)
    assert not thread.is_alive()
    assert overlapped


def solve_outcome(request):
    """solve, eigenvalues_lowest for an (operator, k) pair, eigen_lowest for an (operator, k, True)
    triple or the seam's sterf for an (operator, None) pair, run alone with no latest solve; or its
    exception."""
    solver._latest_model_solve = None
    try:
        if isinstance(request[0], TridiagonalOperator):
            op, k, *vectors = request
            if k is None:
                return run_seam(op, None)
            return eigen_lowest(op, k) if vectors else eigenvalues_lowest(op, k)
        return solver.solve(*request)
    except (SolverError, ValueError) as exc:
        return exc


def assert_same_pairs(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert bits([a.eigenvalue, a.residual]) == bits([b.eigenvalue, b.residual])
        assert np.array_equal(a.vector, b.vector)


def assert_same_answer(got, want):
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    if isinstance(want, np.ndarray):
        assert bits(got) == bits(want)
        return
    if isinstance(want, list):
        assert_same_pairs(got, want)
        return
    grid, problem, values, pairs = got
    assert grid == want[0] and bits(values) == bits(want[2])
    assert (pairs is None) == (want[3] is None)
    assert_same_pairs(pairs or [], want[3] or [])


def assert_batch_matches_serial(requests):
    """solve_many answers every request in its own place: with its lone solve's bits, or with an
    exception of the type and message that its lone solve raises."""
    want = [solve_outcome(request) for request in requests]
    solver._latest_model_solve = None
    before = threading.active_count()
    got = solver.solve_many(requests)
    assert threading.active_count() == before
    assert len(got) == len(requests)
    for g, w in zip(got, want):
        assert_same_answer(g, w)


def drawn_scale(lo_decade: int, hi_decade: int):
    return st.integers(lo_decade, hi_decade).map(lambda p: 10.0 ** p) | st.floats(0.3, 3.0)


@st.composite
def solve_requests(draw):
    family = draw(st.sampled_from(list(Family)))
    params = PhysicalParams(m=draw(drawn_scale(-2, 2)), c=draw(drawn_scale(-1, 2)), omega=draw(drawn_scale(-2, 2)),
                            a=draw(drawn_scale(-2, 2)), b=draw(st.floats(-0.4, 3.0)))
    ml = draw(st.integers(-2, 3)) if family.is_two_dimensional else None
    try:
        spec = ModelSpec(family, params, ml=ml)
    except ValueError:
        spec = default_spec(family)
    return solver.SolveRequest(spec, draw(st.integers(1, 6)), n_points=draw(st.integers(20, 600)),
                               vectors=draw(st.booleans()))


def failing_bisection(*sizes: int):
    """A bisection fault that reports failure (stebz's INFO 1) on every operator of one of the given sizes."""
    return lambda call: unconverged(call) if call.size in sizes else None


def refusing_bisection(size: int):
    """A bisection fault that raises inside each dlaebz call on the operator of the given size."""
    def fault(call):
        if call.size == size:
            raise RuntimeError(f"dlaebz refused the operator of {size} points")

    return fault


class TestSolveMany:
    """solve_many answers each request in its own place, with the bits that solve (or eigenvalues_lowest)
    gives it alone or with the exception it raises alone, and every helper thread it starts has ended
    when it returns."""

    @pytest.mark.parametrize("vectors", [False, True])
    def test_default_models(self, monkeypatch, vectors):
        monkeypatch.setattr(solver, "_latest_model_solve", None)
        assert_batch_matches_serial([solver.SolveRequest(default_spec(family), 5, vectors=vectors)
                                     for family in Family])

    @given(st.lists(solve_requests() | operators_and_k() | operators_and_k().map(lambda case: (*case, True))
                    | operators_and_k().map(lambda case: (case[0], None)), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_drawn_models(self, requests):
        latest = solver._latest_model_solve
        try:
            assert_batch_matches_serial(requests)
        finally:
            solver._latest_model_solve = latest

    def test_grid_and_x_max_together_are_refused(self, monkeypatch):
        """A request that gives both a grid and an x_max is answered with ValueError, even where the two
        agree, and the grid alone still solves in the same batch."""
        monkeypatch.setattr(solver, "_latest_model_solve", None)
        spec = default_spec(Family.HARMONIC_1D)
        grid = solver.solve(spec, 4, n_points=400)[0]
        answers = solver.solve_many([solver.SolveRequest(spec, 4, grid, x_max=2.0 * grid.x_max),
                                     solver.SolveRequest(spec, 4, grid)])
        assert isinstance(answers[0], ValueError) and "not both" in str(answers[0])
        assert answers[1][0] == grid
        with pytest.raises(ValueError, match="not both"):
            solver.solve(spec, 4, grid, x_max=grid.x_max)

    @pytest.mark.parametrize("bad, error, match", [
        (solver.SolveRequest(ALL_SPECS[3], 4, Grid(-5.0, 5.0, 100)), ValueError, "half-line problem"),
        ((TridiagonalOperator(np.full(5, 2.0), np.full(4, -1.0)), 6), ValueError, r"need 1 <= k <= 5"),
        (solver.SolveRequest(ALL_SPECS[0], 4, n_points=300, vectors=True), SolverError, "stebz returned info=1"),
    ], ids=["building", "seam-check", "lapack"])
    def test_second_request_failure_is_raised(self, monkeypatch, bad, error, match):
        """The batch answers its second request with the exception that request's lone solve
        raises, answers the first and third in their places, once every lane has ended, and
        raise_first raises the second's. The bisection reports failure on the operators of 300 and
        500 points: the bad request's where it reaches the bisection, and the third request's. The first
        request, answered last without an exception, becomes the latest solve."""
        good = solver.SolveRequest(ALL_SPECS[1], 4, n_points=400, vectors=True)
        patch_lapack(monkeypatch, laebz=failing_bisection(300, 500))
        want = solve_outcome(bad)
        first = solver.solve(*good)
        entry, before = solver._latest_model_solve, threading.active_count()
        answers = solver.solve_many([good, bad, solver.SolveRequest(ALL_SPECS[2], 3, n_points=500)])
        assert threading.active_count() == before
        assert_same_answer(answers[0], first)
        assert isinstance(want, error)
        assert_same_answer(answers[1], want)
        assert_same_answer(answers[2], SolverError("tridiagonal eigensolve failed: LAPACK stebz returned info=1"))
        with pytest.raises(error, match=match):
            solver.raise_first(answers)
        assert solver._latest_model_solve == entry and solver._latest_model_solve is not entry

    @pytest.mark.parametrize("fault, error, match", [
        (failing_bisection(300), SolverError, "stebz returned info=1"),
        (refusing_bisection(300), RuntimeError, "refused the operator of 300 points"),
    ], ids=["info", "raises-in-call"])
    def test_failed_stebz_skips_only_its_stein(self, monkeypatch, fault, error, match):
        """In one batch of eigenpair requests every bisection runs, then the stein calls of all
        but the request whose bisection fails its check, or whose dlaebz calls raised on their lane;
        the batch answers that request with its exception and the others with their eigenpairs,
        and every helper thread has ended."""
        stein_sizes = []

        def record(out):
            stein_sizes.append(out[0].shape[0])
            return out

        requests = [solver.SolveRequest(spec, 4, n_points=n, vectors=True)
                    for spec, n in zip(ALL_SPECS, (200, 300, 400, 500))]
        fake = patch_lapack(monkeypatch, laebz=fault, stein=record)
        before = threading.active_count()
        answers = solver.solve_many(requests)
        assert threading.active_count() == before
        assert fake.calls == {"bisections": 4, "dstein": 3}
        assert sorted(stein_sizes) == [200, 400, 500]
        for i in (0, 2, 3):
            assert_same_answer(answers[i], solve_outcome(requests[i]))
        with pytest.raises(error, match=match):
            solver.raise_first(answers)

    @pytest.mark.parametrize("vectors", [(False, True), (True, False), (True, True), (False, False)],
                             ids=["values-first", "vectors-first", "both-vectors", "both-values"])
    def test_equal_requests_share_one_seam(self, monkeypatch, vectors):
        """Two SolveRequests of an equal (spec, grid, k), one with the grid chosen and one with it passed
        in, make one bisection, and one inverse iteration if either asks for vectors. Each answer has the
        bits of its lone solve, and no two answers share an array."""
        spec = ALL_SPECS[1]
        grid = choose_domain(effective_problem(spec), 4, n_points=400)
        requests = [solver.SolveRequest(spec, 4, n_points=400, vectors=vectors[0]),
                    solver.SolveRequest(ModelSpec(Family.ISOTONIC_1D, PhysicalParams(a=1.0, b=1.0)), 4, grid,
                                        vectors=vectors[1])]
        want = [solve_outcome(request) for request in requests]
        fake = patch_lapack(monkeypatch)
        answers = solver.solve_many(requests)
        assert fake.calls == ({"bisections": 1, "dstein": 1} if any(vectors) else {"bisections": 1})
        for got, w in zip(answers, want):
            assert_same_answer(got, w)
        first, second = ([r.vector for r in answer[3] or []] for answer in answers)
        assert not any(np.shares_memory(a, b) for a in first for b in second)

    def test_failure_answers_every_request_that_shares_the_seam(self, monkeypatch):
        """The bisection fails on the operator of 300 points: both requests that share its seam are
        answered with stebz's failure, and the third request with its lone solve's bits."""
        requests = [solver.SolveRequest(ALL_SPECS[1], 4, n_points=300),
                    solver.SolveRequest(ALL_SPECS[2], 3, n_points=500),
                    solver.SolveRequest(ALL_SPECS[1], 4, n_points=300, vectors=True)]
        want = solve_outcome(requests[1])
        fake = patch_lapack(monkeypatch, laebz=failing_bisection(300))
        answers = solver.solve_many(requests)
        assert fake.calls == {"bisections": 2}
        failure = SolverError("tridiagonal eigensolve failed: LAPACK stebz returned info=1")
        assert_same_answer(answers[0], failure)
        assert_same_answer(answers[2], failure)
        assert_same_answer(answers[1], want)

    @pytest.mark.parametrize("other", [
        lambda spec, grid: solver.SolveRequest(spec, 5, grid, vectors=True),
        lambda spec, grid: solver.SolveRequest(spec, 4, replace(grid, x_max=ulp_up(grid.x_max)), vectors=True),
        lambda spec, grid: solver.SolveRequest(spec, 4, n_points=401, vectors=True),
        lambda spec, grid: (discretize(effective_problem(spec), grid), 4, True),
    ], ids=["k", "grid-edge", "grid-points", "operator"])
    def test_unequal_requests_make_their_own_seams(self, monkeypatch, other):
        """A request whose k or grid differs, or an operator's request, even of the equal operator, makes a
        seam of its own beside the values-only SolveRequest, and each answer has its lone solve's bits."""
        spec = ALL_SPECS[1]
        grid = choose_domain(effective_problem(spec), 4, n_points=400)
        requests = [solver.SolveRequest(spec, 4, grid), other(spec, grid)]
        want = [solve_outcome(request) for request in requests]
        fake = patch_lapack(monkeypatch)
        answers = solver.solve_many(requests)
        assert fake.calls == {"bisections": 2, "dstein": 1}
        for got, w in zip(answers, want):
            assert_same_answer(got, w)

    def test_largest_operator_last(self, monkeypatch):
        """With the largest operator requested last, on one lane, each answer keeps its bits and its place."""
        def op(n):
            return TridiagonalOperator(np.linspace(1.0, 2.0, n), np.full(n - 1, -1.0))

        requests = [(op(50), 4), (op(30), None), (op(120), 2), (op(60), 4), (op(400), 3)]
        want = [solve_outcome(request) for request in requests]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        for g, w in zip(solver.solve_many(requests), want):
            assert_same_answer(g, w)

    def test_verify_all_on_one_cpu(self, monkeypatch):
        """run_suite("all") on one lane gives the checks, and so the bits, it gives on every lane the process may use."""
        want = run_suite("all")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert run_suite("all") == want

    def test_concurrent_batches(self):
        """Batches from more threads than CPUs, each on more lanes than one, keep every answer's bits."""
        ops = [TridiagonalOperator(np.linspace(1.0, 2.0 + i, 300), np.full(299, -1.0)) for i in range(3)]
        want = [bits(eigenvalues_lowest(op, 4)) for op in ops]
        wrong = []

        def batches(start):
            for j in range(40):
                order = [(start + j + i) % 3 for i in range(3)]
                got = solver.solve_many([(ops[i], 4) for i in order])
                wrong.extend((start, j) for i, values in zip(order, got) if bits(values) != want[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=batches, args=(start,)) for start in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


@st.composite
def models_with_scaled_wells(draw):
    """A model with its parameters across decades, a (k, N), an integer j, and the model with its well strength q
    scaled by 4^j: omega on the harmonic families, a on the isotonic ones."""
    family = draw(st.sampled_from(list(Family)))
    params = PhysicalParams(m=draw(drawn_scale(-2, 2)), c=draw(drawn_scale(-1, 2)), omega=draw(drawn_scale(-2, 2)),
                            a=draw(drawn_scale(-2, 2)), b=draw(st.floats(-0.4, 3.0)))
    ml = draw(st.integers(-2, 3)) if family.is_two_dimensional else None
    j = draw(st.integers(-8, 20))
    try:
        spec = ModelSpec(family, params, ml=ml)
        well = {"a": math.ldexp(params.a, 2 * j)} if family.is_isotonic else {"omega": math.ldexp(params.omega, 2 * j)}
        scaled = ModelSpec(family, replace(params, **well), ml=ml)
    except ValueError:
        reject()
    return spec, scaled, *draw(st.sampled_from([(3, 500), (5, 2000), (6, 4000)])), j


@given(models_with_scaled_wells())
@settings(max_examples=100, deadline=None)
def test_values_scale_exactly_with_the_well_strength(case):
    """q is a pure scale of the effective problem: with q scaled by 4^j, the domain's edge scales by 2^-j and every
    operator entry by 4^j, all exactly, so the k lowest values are 4^j times the unscaled ones, bit for bit. A
    draw where either solve raises is discarded: X_MAX_LIMIT bounds the edge absolutely."""
    spec, scaled, k, n, j = case
    try:
        values, scaled_values = [solver.solve(model, k, n_points=n)[2] for model in (spec, scaled)]
    except SolverError:
        reject()
    assert bits(scaled_values) == bits(np.ldexp(values, 2 * j))


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

"""The C port of LAPACK dlaebz (src/relqosc/_laebz.c) against the library routine, bit for bit, and its build.

The port stands in for the library's dlaebz wherever a C compiler can build it; the library routine is the
reference here and the path where the build fails, and both must give every output bit alike.
"""

import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from relqosc import lapack

PACKAGE = Path(lapack.__file__).resolve().parent
GOLDEN = json.loads((Path(__file__).with_name("golden_cli.json")).read_text(encoding="utf-8"))
ONE_BLAS_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SAFEMIN = float(np.finfo(float).tiny)


def library_dlaebz():
    """The library's own dlaebz, found as _lapack finds it, as a ctypes function of _lapack's dlaebz type."""
    library = ctypes.CDLL(lapack._flapack())
    prefix = "scipy_" if hasattr(library, "scipy_dstebz_") else ""
    address = ctypes.cast(getattr(library, f"{prefix}dlaebz_"), ctypes.c_void_p).value
    return type(lapack._lapack()["dlaebz"])(address)


def address(routine) -> int:
    return ctypes.cast(routine, ctypes.c_void_p).value


@pytest.fixture(scope="module")
def port():
    """The port as _lapack binds it, which must be its dlaebz wherever a C compiler is on PATH: it counts IJOB 2
    and 3 with the AVX2 kernel where the CPU has AVX2."""
    if lapack._laebz_port() is None:
        assert shutil.which("cc") is None, "a C compiler is on PATH, yet the port did not build"
        pytest.skip("no C compiler on PATH: dlaebz is the library's")
    routine = lapack._lapack()["dlaebz"]
    assert address(routine) == address(lapack._laebz_port())
    return routine


# The port's builds: as the package builds it, and with the CPU check compiled to false, which counts with the
# scalar kernel on every CPU.
BUILDS = {"dispatch": (), "scalar": ("-D__builtin_cpu_supports(feature)=0",)}


@pytest.fixture(scope="module")
def scalar_port(port, tmp_path_factory):
    """The port's scalar build, as a ctypes function of _lapack's dlaebz type."""
    path = tmp_path_factory.mktemp("scalar") / "laebz.so"
    subprocess.run([*lapack._LAEBZ_BUILD, *BUILDS["scalar"], "-o", str(path), lapack._LAEBZ_SOURCE], check=True,
                   timeout=120)
    return type(port)(address(ctypes.CDLL(str(path)).relqosc_dlaebz))


def run_laebz(routine, case: dict, cut: bool = False) -> tuple:
    """One dlaebz call on the case's arguments, with WORK NULL, or with cut the port's cut-off bounds
    (lapack._cutoffs): its AB, C (as bits), NAB, NVAL, MOUT and INFO afterwards.

    Every row past the case's own, every point and target past its own, MOUT and INFO start as sentinels,
    so that whatever the call writes, or leaves, shows; the bounds must be left as they were."""
    mmax, rows = case["mmax"], case["rows"]
    ab = np.full((mmax, 2), 7.5, order="F")
    nab = np.full((mmax, 2), 99, np.intc, order="F")
    ab[:len(rows)] = [row[:2] for row in rows]
    nab[:len(rows)] = [row[2:] for row in rows]
    c = np.full(mmax, 3.25)
    c[:len(case["points"])] = case["points"]
    nval = np.full(mmax, -3, np.intc)
    nval[:len(case["targets"])] = case["targets"]
    d, e2 = np.array(case["d"]), np.array(case["e2"])
    e = np.sqrt(e2)
    work = lapack._cutoffs(d, e2, case["pivmin"]) if cut else None
    bounds = None if work is None else work.copy()
    mout, info = ctypes.c_int(-7), ctypes.c_int(-9)
    ints = [ctypes.c_int(case[key]) for key in ("ijob", "nitmax")] + [ctypes.c_int(d.size), ctypes.c_int(mmax),
                                                                       ctypes.c_int(len(rows)), ctypes.c_int(0)]
    reals = [ctypes.c_double(case[key]) for key in ("abstol", "reltol", "pivmin")]
    routine(*ints, *reals, d.ctypes.data, e.ctypes.data, e2.ctypes.data, nval.ctypes.data, ab.ctypes.data,
            c.ctypes.data, mout, nab.ctypes.data, None if work is None else work.ctypes.data, None, info)
    assert work is None or work.tobytes() == bounds.tobytes()
    return ab.view(np.int64).tolist(), c.view(np.int64).tolist(), nab.tolist(), nval.tolist(), mout.value, info.value


def assert_dlaebz(case: dict, *ports):
    """Each port, without and with the cut-off bounds, and the library's dlaebz given the bounds, which it does
    not read, write the library's bits."""
    want = run_laebz(library_dlaebz(), case)
    for port in ports:
        assert run_laebz(port, case) == want
        assert run_laebz(port, case, cut=True) == want
    assert run_laebz(library_dlaebz(), case, cut=True) == want


# Matrix entries: any float in [-1, 1] (the seam hands dlaebz 2^-p T, whose entries lie there), or a few exact
# ones, whose sums, midpoints and differences are exact, so that pivots land exactly on 0 and within +-PIVMIN of
# it. Interval ends and points: the same, or any float in [-2, 2].
ENTRIES = st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 0.75, 1.0, -1.0]) | st.floats(-1.0, 1.0)
ENDS = ENTRIES | st.floats(-2.0, 2.0)


@st.composite
def tails(draw):
    """A matrix with forbidden tails, where the cut-off stops chains: 17 to 120 rows whose diagonal steps
    through 1 to 5 levels in [-1, 1] (a barrier before a well among them), each row nudged or not; off-diagonal
    squares of one value (0 among them), with zeros and subnormals (splits) at a few rows; and the points at
    which its counts change: its eigenvalues, as numpy finds them, and the doubles one ulp either side."""
    n = draw(st.integers(17, 120))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), max_size=4, unique=True)))
    levels = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    d = np.repeat(levels, np.diff([0, *cuts, n]))
    d += draw(arrays(np.float64, n, elements=st.just(0.0) | st.floats(-1e-3, 1e-3), fill=st.nothing()))
    e2 = np.full(n, draw(st.sampled_from([0.25, 0.0625, 1e-2, 1e-6, 0.0])))
    for j in draw(st.lists(st.integers(0, n - 2), max_size=3)):
        e2[j] = draw(st.sampled_from([0.0, 5e-324, 1e-310, SAFEMIN]))
    values = np.linalg.eigvalsh(np.diag(d) + np.diag(np.sqrt(e2[:-1]), 1))
    near = np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])
    return d, e2, near.tolist()


@st.composite
def laebz_cases(draw, ijob: int, tail: bool = False):
    """dlaebz's arguments for the given IJOB: a matrix of 1 to 40 rows whose E2 holds zeros (splits) and the
    squares of ENTRIES, or with tail one of tails(), whose points join ENDS; PIVMIN from dstebz's
    SAFEMIN max(1, max E2) up to 0.1, so that many pivots fall within +-PIVMIN; 1 to 20 intervals, each with
    its counts drawn (IJOB 2 keeps them monotone, whatever they are) and, for IJOB 3, a start point and a target
    count; room for 0 to 3N more intervals, so that IJOB 2 often runs out of it (INFO = MMAX + 1); and 0 to 60
    iterations, so that many intervals stay open (NITMAX exhaustion).
    """
    if tail:
        d, e2, near = draw(tails())
        ends, n = st.sampled_from(near) | ENDS, d.size
    else:
        n, ends = draw(st.integers(1, 40)), ENDS
        d = draw(arrays(np.float64, n, elements=ENTRIES, fill=st.nothing()))
        e2 = np.square(draw(arrays(np.float64, n, elements=st.just(0.0) | ENTRIES, fill=st.nothing())))
    minp = draw(st.integers(1, 20))
    bounds = np.sort(draw(arrays(np.float64, (minp, 2), elements=ends, fill=st.nothing())), axis=1).tolist()
    counts = st.integers(-1, n + 1)
    nabs = np.sort(draw(arrays(np.intc, (minp, 2), elements=counts, fill=st.nothing())), axis=1).tolist()
    return dict(
        ijob=ijob, nitmax=draw(st.integers(0, 60)), d=d.tolist(), e2=e2.tolist(),
        rows=[(*end, *nab) for end, nab in zip(bounds, nabs)],
        mmax=minp + (draw(st.integers(0, 3 * n)) if ijob == 2 else 0),
        points=draw(arrays(np.float64, minp, elements=ends, fill=st.nothing())).tolist() if ijob == 3 else [],
        targets=draw(arrays(np.intc, minp, elements=counts, fill=st.nothing())).tolist() if ijob == 3 else [],
        abstol=draw(st.sampled_from([0.0, 1e-12, 1e-3])), reltol=draw(st.sampled_from([2 * 2.0 ** -52, 1e-6])),
        pivmin=draw(st.sampled_from([SAFEMIN, SAFEMIN * max(1.0, e2.max()), 1e-300, 1e-8, 0.1])))


def laebz_case(ijob, d, e2, rows, mmax=None, nitmax=60, points=(), targets=(), pivmin=SAFEMIN):
    return dict(ijob=ijob, nitmax=nitmax, d=d, e2=e2, rows=rows, mmax=mmax or len(rows), points=list(points),
                targets=list(targets), abstol=0.0, reltol=2 * 2.0 ** -52, pivmin=pivmin)


# The discrete Laplacian 2 - 2 cos(j pi / 17), j = 1 .. 16, and a matrix with a split and exact zero pivots.
LAPLACIAN = dict(d=[2.0] * 16, e2=[1.0] * 16)
SPLIT = dict(d=[0.5, 0.5, -0.25, 0.0, 0.75], e2=[0.25, 0.0, 0.0, 1.0, 0.0])
# Operators like the seam's, with forbidden tails: a harmonic well, and a well, a barrier, a second well and a
# tail, whose slack (the diagonal less 0.5) is 0.1, 0.5, 0.05 and 0.5, so that a chain at 0.2 may not stop in
# the barrier, before the second well counts.
WELL = dict(d=(0.5 + 0.5 * np.linspace(-1.0, 1.0, 200) ** 2).tolist(), e2=[0.0625] * 200)
BARRIER = dict(d=[0.6] * 60 + [1.0] * 60 + [0.55] * 60 + [1.0] * 20, e2=[0.0625] * 200)
# A diagonal matrix, every row split off, whose rows from 20 on have the eigenvalue 0.5: a chain at 0.5 exactly
# counts each of them, as their slack, the next double below 0.5, tells, and passes whose points all lie at or
# below 0.5 could otherwise stop at row 16.
STEP = dict(d=[1.0] * 20 + [0.5] * 20, e2=[0.0] * 40)


@given(laebz_cases(1) | laebz_cases(1, tail=True))
@example(laebz_case(1, **SPLIT, rows=[(0.5, 0.75, 0, 0), (-0.25, 0.0, 0, 0), (0.0, 0.5, 0, 0)], pivmin=1e-8))
@example(laebz_case(1, **BARRIER, rows=[(0.05, 0.2, 0, 0), (0.0, 0.4, 0, 0), (-1.0, 1.5, 0, 0)]))
@example(laebz_case(1, **STEP, rows=[(0.25, 0.5, 0, 0)]))
@settings(max_examples=200, deadline=None)
def test_counts_are_dlaebz(port, scalar_port, case):
    """IJOB 1, the counts at the ends of each interval, with its own pivot rule: NAB and MOUT are dlaebz's."""
    assert_dlaebz(case, port, scalar_port)


@given(laebz_cases(2) | laebz_cases(2, tail=True))
# Every eigenvalue of 16 in 1 to 20 intervals, groups of every size, with room for all, and too little; and
# every eigenvalue of 160, split from one interval into 160 (groups of 8).
@example(laebz_case(2, **LAPLACIAN, rows=[(0.0, 4.0, 0, 16)], mmax=16))
@example(laebz_case(2, d=[2.0] * 160, e2=[1.0] * 160, rows=[(0.0, 4.0, 0, 160)], mmax=160))
@example(laebz_case(2, **LAPLACIAN, rows=[(0.25 * j, 0.25 * j + 0.25, 0, 16) for j in range(16)], mmax=40))
@example(laebz_case(2, **LAPLACIAN, rows=[(0.2 * j, 0.2 * j + 0.2, 0, 16) for j in range(20)], mmax=60))
@example(laebz_case(2, **LAPLACIAN, rows=[(0.0, 4.0, 0, 16)], mmax=7))
@example(laebz_case(2, **LAPLACIAN, rows=[(0.0, 4.0, 0, 16)], mmax=16, nitmax=5))
# The first midpoint, 2, splits the lone interval, and the memo of that pass (2 and its quarter points 1 and 3)
# answers both new intervals; NITMAX 2 ends the call there.
@example(laebz_case(2, **LAPLACIAN, rows=[(0.0, 4.0, 0, 16)], mmax=16, nitmax=2))
@example(laebz_case(2, **SPLIT, rows=[(-0.5, 1.0, 0, 5), (0.0, 1.0, 1, 5)], mmax=5, pivmin=1e-8))
# The lowest eigenvalues of the operators with tails, from one interval, and from 2 and 5, where multisection
# takes 3 and 2 levels per pass.
@example(laebz_case(2, **WELL, rows=[(-0.25, 0.75, 0, 200)], mmax=200))
@example(laebz_case(2, **BARRIER, rows=[(0.0, 0.3, 0, 200)], mmax=200))
@example(laebz_case(2, **BARRIER, rows=[(0.0, 0.1, 0, 200), (0.1, 0.3, 0, 200)], mmax=200))
@example(laebz_case(2, **WELL, rows=[(0.2 * j - 0.25, 0.2 * j - 0.05, 0, 200) for j in range(5)], mmax=200))
@settings(max_examples=200, deadline=None)
def test_bisection_is_dlaebz(port, scalar_port, case):
    """IJOB 2, the bisection of every interval, up to 16 counts per pass over the rows: AB, NAB, C, MOUT and
    INFO are dlaebz's, with INFO = MMAX + 1 and MOUT untouched where it runs out of room."""
    assert_dlaebz(case, port, scalar_port)


@given(laebz_cases(3) | laebz_cases(3, tail=True))
@example(laebz_case(3, **LAPLACIAN, rows=[(0.0, 4.0, -1, 17)] * 9, points=[0.5 * j for j in range(9)],
              targets=list(range(0, 18, 2))))
# One interval searched from its upper end, as dstebz searches from GU, stopped by NITMAX after the pass that
# counts 4 with its quarter points, after the step the memo answers, and after the next pass.
@example(laebz_case(3, **LAPLACIAN, rows=[(0.0, 4.0, -1, 17)], points=[4.0], targets=[6], nitmax=1))
@example(laebz_case(3, **LAPLACIAN, rows=[(0.0, 4.0, -1, 17)], points=[4.0], targets=[6], nitmax=2))
@example(laebz_case(3, **LAPLACIAN, rows=[(0.0, 4.0, -1, 17)], points=[4.0], targets=[6], nitmax=3))
# From 2 (count 8), the count at the quarter point 1 is NVAL 5, and at 3 it is NVAL 11: both ends move there.
@example(laebz_case(3, **LAPLACIAN, rows=[(0.0, 4.0, -1, 17)], points=[2.0], targets=[5]))
@example(laebz_case(3, **LAPLACIAN, rows=[(0.0, 4.0, -1, 17)], points=[2.0], targets=[11]))
# The searches of a ranged bisection, from both ends at once, on the operators with tails.
@example(laebz_case(3, **WELL, rows=[(-0.25, 1.5, -1, 201)] * 2, points=[-0.25, 1.5], targets=[0, 5]))
@example(laebz_case(3, **BARRIER, rows=[(0.0, 1.5, -1, 201)] * 2, points=[0.0, 1.5], targets=[0, 8]))
@example(laebz_case(3, **STEP, rows=[(0.0, 0.5, -1, 41)], points=[0.5], targets=[30]))
@settings(max_examples=200, deadline=None)
def test_index_search_is_dlaebz(port, scalar_port, case):
    """IJOB 3, the search for the points with counts NVAL from the points C: AB, NAB, C, NVAL, MOUT and INFO
    are dlaebz's, NVAL swapped along with each interval that converges out of order."""
    assert_dlaebz(case, port, scalar_port)


@pytest.mark.parametrize("n", [1, 16, 17, 33, 4112, 4113, 4114, 4129, 8210])
def test_cutoffs_are_their_definition(n):
    """lapack._cutoffs, which takes its slacks a chunk of rows at a time, writes the bits of its definition taken
    on whole arrays, at the edges of its chunks and strides too, with zero and subnormal E2 and a NaN."""
    rng = np.random.default_rng(n)
    d, e2 = rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 0.25, n)
    e2[rng.integers(0, n, 3)] = 0.0
    e2[rng.integers(0, n, 3)] = 5e-324
    if n > 2000:
        d[n // 2] = np.nan
    pivmin = SAFEMIN * max(1.0, e2.max())
    p = np.nextafter(pivmin, np.inf)
    g = np.maximum(np.append(np.sqrt(e2[:n - 1]), 0.0), p)
    slack = np.nextafter((d[1:] - e2[:n - 1] / g[:-1]) - g[1:], -np.inf)
    rows = np.arange(16, n, 16)
    want = np.concatenate([[slack[row:].min(initial=np.inf) for row in rows], g[rows]])
    assert lapack._cutoffs(d, e2, pivmin).tobytes() == want.tobytes()
    assert lapack._cutoffs(d, e2[:n - 1], pivmin).tobytes() == want.tobytes()


def test_concurrent_searches_are_dlaebz(port):
    """Two threads search one interval each through the port at once, 50 times: every call writes the library's
    bits, so no call reads another's memo. The second matrix is the first with a row of -10 split off in front,
    and its target is one more, so both searches visit the same points with counts one apart."""
    n, target = 20000, 7000
    cases = [laebz_case(3, d=[*lead, *[2.0] * n], e2=[*[0.0] * len(lead), *[1.0] * n], rows=[(0.0, 5.0, -1, n + 2)],
                        points=[5.0], targets=[target + len(lead)]) for lead in ([], [-10.0])]
    want = [run_laebz(library_dlaebz(), case) for case in cases]
    start, wrong = threading.Barrier(2), []

    def search(case, want):
        for j in range(50):
            start.wait()  # each pass is long enough at this N that the two calls run in step
            if run_laebz(port, case) != want:
                wrong.append(j)

    threads = [threading.Thread(target=search, args=pair) for pair in zip(cases, want)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


@pytest.mark.parametrize("ijob", [0, 4])
def test_illegal_job_is_dlaebz(port, scalar_port, ijob):
    """An IJOB outside 1 to 3 returns INFO -1 and writes nothing else."""
    illegal = laebz_case(ijob, **LAPLACIAN, rows=[(0.0, 4.0, 0, 16)])
    assert_dlaebz(illegal, port, scalar_port)
    assert run_laebz(port, illegal)[-1] == -1


def test_port_compiles_without_warnings(tmp_path):
    """_laebz.c is C99 and compiles, with the build's own flags, in both builds, without a warning of -Wall
    -Wextra."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    for build in BUILDS.values():
        proc = subprocess.run([*lapack._LAEBZ_BUILD, *build, "-std=c99", "-Wall", "-Wextra", "-Werror", "-o",
                               str(tmp_path / "laebz.so"), lapack._LAEBZ_SOURCE], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr


# A compiler that is missing, and one that writes its output and then fails.
@pytest.mark.parametrize("build", [("relqosc-no-such-compiler",), ("sh", "-c", 'echo partial > "$2"; exit 1', "sh")],
                         ids=["missing", "failing"])
def test_build_failure_falls_back(monkeypatch, tmp_path, build):
    """Where the build fails, _laebz_port returns None and leaves no file behind."""
    source = tmp_path / "_laebz.c"
    shutil.copy(lapack._LAEBZ_SOURCE, source)
    monkeypatch.setattr(lapack, "_LAEBZ_SOURCE", str(source))
    monkeypatch.setattr(lapack, "_LAEBZ_BUILD", build)
    assert lapack._laebz_port() is None
    assert os.listdir(tmp_path / "__pycache__") == []


def test_port_is_built_once_under_its_key(port, monkeypatch, tmp_path):
    """The library lands in the __pycache__ beside the source, named by the sha256 of the source and the
    command, in place of the library of an earlier source, beside another build's unfinished file, and the next
    lookup loads it without a build."""
    source = tmp_path / "_laebz.c"
    shutil.copy(lapack._LAEBZ_SOURCE, source)
    monkeypatch.setattr(lapack, "_LAEBZ_SOURCE", str(source))
    (tmp_path / "__pycache__").mkdir()
    partial = "_laebz.0123456789abcdef.so.4242.0badf00d"
    for planted in ("_laebz.0123456789abcdef.so", partial):
        (tmp_path / "__pycache__" / planted).write_bytes(b"stale")
    built = lapack._laebz_port()
    key = hashlib.sha256(source.read_bytes() + "\0".join(lapack._LAEBZ_BUILD).encode()).hexdigest()
    assert sorted(os.listdir(tmp_path / "__pycache__")) == sorted([f"_laebz.{key[:16]}.so", partial])
    monkeypatch.setattr(subprocess, "run", None)
    assert address(lapack._laebz_port()) == address(built)


# The sha256 of the bits of the values and eigenpairs of a few operators, k = N among them, and whether
# _lapack's dlaebz is the library's symbol.
SOLVES = """
import ctypes, hashlib, json
import numpy as np
from relqosc import lapack, solver
from relqosc.models import Family, default_spec, effective_problem
ops = []
for family in Family:
    problem = effective_problem(default_spec(family))
    ops.append(solver.discretize(problem, solver.choose_domain(problem, 8, 4000)))
rng = np.random.default_rng(7)
ops += [solver.TridiagonalOperator(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n - 1)) for n in (20, 160)]
jobs = {f"{j} {k} {vectors}": (op, min(k, op.size), vectors)
        for j, op in enumerate(ops) for k in (5, 8, 160) for vectors in (False, True)}
def digest(answer):
    if isinstance(answer, Exception):
        return repr(answer)
    if isinstance(answer, np.ndarray):
        return hashlib.sha256(answer.tobytes()).hexdigest()
    return hashlib.sha256(b"".join(np.array([r.eigenvalue, r.residual, *r.vector]).tobytes()
                                   for r in answer)).hexdigest()
answers = {key: digest(answer) for key, answer in lapack.solve_operators(jobs).items()}
library = ctypes.CDLL(lapack._flapack())
prefix = "scipy_" if hasattr(library, "scipy_dstebz_") else ""
own = ctypes.cast(getattr(library, prefix + "dlaebz_"), ctypes.c_void_p).value
print(json.dumps([ctypes.cast(lapack._lapack()["dlaebz"], ctypes.c_void_p).value == own, answers]))
"""


def test_without_a_compiler_the_library_dlaebz_gives_the_same_bits(port, tmp_path):
    """A copy of the package with no compiler on PATH: the build fails, dlaebz stays the library's symbol, and
    the seam's values and eigenpairs, and relqosc spectrum's output, are the port's bits, with nothing on
    stderr."""
    shutil.copytree(PACKAGE, tmp_path / "relqosc", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "bin").mkdir()
    bare = {**os.environ, **ONE_BLAS_THREAD, "PYTHONPATH": str(tmp_path), "PATH": str(tmp_path / "bin")}
    runs = [subprocess.run([sys.executable, "-c", SOLVES], env=env, capture_output=True, text=True, timeout=300)
            for env in ({**os.environ, **ONE_BLAS_THREAD}, bare)]
    assert [(run.returncode, run.stderr) for run in runs] == [(0, "")] * 2
    (ported, answers), (fallback, fallback_answers) = (json.loads(run.stdout) for run in runs)
    assert (ported, fallback) == (False, True)
    assert fallback_answers == answers
    argv = ["spectrum", "--family", "2d-iso"]
    cli = subprocess.run([sys.executable, "-m", "relqosc.cli", *argv], env=bare, capture_output=True, timeout=300)
    assert (cli.returncode, cli.stderr) == (0, b"")
    assert hashlib.sha256(cli.stdout).hexdigest() == GOLDEN[" ".join(argv)]
    assert not [name for name in os.listdir(tmp_path / "relqosc" / "__pycache__") if name.startswith("_laebz")]

"""The LAPACK layer of the finite-difference route: symmetric tridiagonal eigensolves, side by side.

solve_operators answers a batch of operator requests: the k smallest
eigenvalues of a symmetric tridiagonal operator T by Sturm-sequence
bisection (LAPACK dstebz, made of its own steps on its kernel dlaebz), which
certifies each value to its absolute tolerance without any eigenvector; the
k lowest eigenpairs, adding inverse iteration (LAPACK dstein, made of its
own steps on its kernels dlagtf and dlagts and the BLAS), each of which must
pass the backward-error bound max(sqrt(N), 4) eps ||T||_inf on its
residual; or all the eigenvalues, by LAPACK sterf. _lapack_seam, with its
inverse iteration _stein, is the only code that knows the arguments of
these routines; its docstring states how it scales T and which bits its
answers equal.

No scipy module is imported: at the first eigensolve _lapack opens the
shared object of scipy's compiled LAPACK wrapper, whose path _flapack finds,
with ctypes and finds each routine in the library that object links. The
seam calls them with the arguments dstebz or dstein would pass, so the
results are the same bits, and ctypes releases the GIL for each call.

The Sturm counts of the bisection, nearly all of its time, are taken by
_lapack's dlaebz: the C port in _laebz.c, which _laebz_port builds with the
system's C compiler at the first eigensolve, or the library's own routine
where that build fails. The library's dlaebz counts one interval at a time,
a chain of dependent divides down the rows; the port counts up to 8 open
intervals in one pass, their chains interleaved. Each count reads only the
matrix and its own midpoint (Demmel, Dhillon and Ren, ETNA 3 (1995) 116),
and the port keeps dlaebz's arithmetic, pivot rules and order of updates,
so both write the same bits. So solve_operators runs the LAPACK
calls of a batch's independent operators side by side, on up to one thread
per CPU the process may use, splits one operator's bisection over the CPUs
its batch leaves it, and runs each eigenvector's factorization beside the
previous eigenvector's iterations, while the calling thread allocates every
array (helper threads would each grow a malloc arena of their own) and does
all the checking and the work on values and vectors. This module imports no
other module of the package.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["SolverError", "TridiagonalOperator", "EigenResult", "solve_operators"]

# Least multiple of eps ||T||_inf that the eigenpair residual bound allows.
RESIDUAL_FLOOR = 4.0


class SolverError(RuntimeError):
    """Numerical failure in the finite-difference route."""


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix with grid spacing for L2 quadrature; h must be positive and finite."""

    diag: np.ndarray
    offdiag: np.ndarray
    h: float = 1.0

    def __post_init__(self):
        if self.diag.ndim != 1 or self.offdiag.ndim != 1 or self.offdiag.size != self.diag.size - 1:
            raise ValueError("tridiagonal operator needs diag (N) and offdiag (N-1) vectors")
        if self.diag.size < 3:
            raise ValueError(f"tridiagonal operator needs N >= 3, got N={self.diag.size}")
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"tridiagonal operator needs a positive finite grid spacing, got h={self.h}")

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


def _first_extremum_sign(v: np.ndarray) -> float:
    """Sign of the first local maximum of |v| above a relative floor."""
    av = np.abs(v)
    falls = (av[:-1] > 1e-3 * av.max()) & (av[1:] < av[:-1])
    j = int(np.argmax(falls)) if falls.any() else int(np.argmax(av))
    return 1.0 if v[j] > 0 else -1.0


_FLAPACK = "scipy.linalg._flapack"


@functools.cache
def _flapack() -> str:
    """The path of the shared object of scipy.linalg._flapack, scipy's compiled LAPACK wrapper, as the import
    system's finders locate it in the linalg directory of each scipy location: no scipy module is imported."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError(f"cannot locate {_FLAPACK}: scipy is not installed", name=_FLAPACK)
    path = [os.path.join(location, "linalg") for location in scipy.submodule_search_locations]
    for finder in sys.meta_path:
        find_spec = getattr(finder, "find_spec", None)
        spec = find_spec(_FLAPACK, path) if find_spec else None
        if spec is not None:
            return spec.origin
    raise ImportError(f"cannot locate {_FLAPACK}", name=_FLAPACK)


def _check_info(info: int, routine: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")
    if info > 0:
        raise SolverError(f"tridiagonal eigensolve failed: LAPACK {routine} returned info={info}")


@functools.cache
def _lapack():
    """{"dlaebz": ..., "dsterf": ..., "dlagtf": ..., ...}: the LAPACK and BLAS routines the seam calls, as ctypes
    functions.

    Each is looked up through the ctypes handle of the shared object at
    _flapack's path, whose symbol search covers the LAPACK library that
    object links, under the name prefix of that library's dstebz
    (scipy_dsterf_ where scipy_dstebz_ resolves, else plain dsterf_), so the
    BLAS kernels are the ones that library's own routines call; ImportError
    names a routine that is missing. The ctypes functions take the routine's
    own arguments: every scalar by reference and every array by address (an
    _Array), unchecked, since the seam checks each array once where it
    allocates it. ctypes releases the GIL for the length of each call. The
    library's dlaebz must be there too, but "dlaebz" is the C port from
    _laebz_port wherever that loads, with the same signature and the same
    bits.
    """
    c_int, c_double, array = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double), ctypes.c_void_p
    signatures = {
        # IJOB, NITMAX, N, MMAX, MINP, NBMIN, ABSTOL, RELTOL, PIVMIN, D, E, E2, NVAL, AB, C, MOUT, NAB, WORK, IWORK, INFO
        "dlaebz": (None, *[c_int] * 6, *[c_double] * 3, *[array] * 6, c_int, *[array] * 3, c_int),
        # N, D, E, INFO
        "dsterf": (None, c_int, array, array, c_int),
        # N, A, LAMBDA, B, C, TOL, D, IN, INFO
        "dlagtf": (None, c_int, array, c_double, array, array, c_double, array, array, c_int),
        # JOB, N, A, B, C, D, IN, Y, TOL, INFO
        "dlagts": (None, c_int, c_int, *[array] * 6, c_double, c_int),
        # N, DX, INCX: the first index of max |DX(i)|
        "idamax": (ctypes.c_int, c_int, array, c_int),
        # N, DA, DX, INCX
        "dscal": (None, c_int, c_double, array, c_int),
        # N, DX, INCX, DY, INCY: DX . DY
        "ddot": (ctypes.c_double, c_int, array, c_int, array, c_int),
        # N, DA, DX, INCX, DY, INCY
        "daxpy": (None, c_int, c_double, array, c_int, array, c_int),
        # N, DX, INCX: ||DX||_2
        "dnrm2": (ctypes.c_double, c_int, array, c_int),
    }
    path = _flapack()
    library = ctypes.CDLL(path)
    prefix = "scipy_" if hasattr(library, "scipy_dstebz_") else ""
    routines = {}
    for name, (restype, *argtypes) in signatures.items():
        symbol = f"{prefix}{name}_"
        if not hasattr(library, symbol):
            raise ImportError(f"LAPACK routine {symbol} not found next to dstebz in {path}", name=_FLAPACK)
        address = ctypes.cast(getattr(library, symbol), ctypes.c_void_p).value
        routines[name] = ctypes.CFUNCTYPE(restype, *argtypes)(address)
    port = _laebz_port()
    if port is not None:
        routines["dlaebz"] = ctypes.CFUNCTYPE(*signatures["dlaebz"])(ctypes.cast(port, ctypes.c_void_p).value)
    return routines


# The C port of dlaebz beside this module, and the command that builds it into a shared library.
_LAEBZ_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_laebz.c")
_LAEBZ_BUILD = ("cc", "-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _laebz_port():
    """relqosc_dlaebz, the C port of dlaebz in _laebz.c, from its shared library, or None where that cannot be
    built or loaded.

    The library is built once per source and command, into the package's
    __pycache__ under a name keyed by the sha256 of both: to a temporary
    file in that directory, with the compiler's output captured and a
    timeout, then renamed into place, so a process never loads a library
    another one is still writing. Any failure (no compiler, no source, a
    read-only package, a compiler error) returns None, and _lapack keeps the
    library's dlaebz, without a word: the two give the same bits. A build
    then removes the libraries of earlier sources and commands, never a
    temporary file (_laebz.*.so.<pid>.<hex>) that another build writes.
    """
    try:
        with open(_LAEBZ_SOURCE, "rb") as file:
            key = _sha256(file.read() + "\0".join(_LAEBZ_BUILD).encode())
        cache = os.path.join(os.path.dirname(_LAEBZ_SOURCE), "__pycache__")
        path = os.path.join(cache, f"_laebz.{key[:16]}.so")
        if not os.path.exists(path):
            import glob
            import subprocess

            os.makedirs(cache, exist_ok=True)
            partial = f"{path}.{os.getpid()}.{os.urandom(4).hex()}"
            open(partial, "xb").close()  # a read-only package fails here, before a compile
            try:
                subprocess.run([*_LAEBZ_BUILD, "-o", partial, _LAEBZ_SOURCE], capture_output=True, check=True,
                               timeout=60)
                os.replace(partial, path)
                for stale in set(glob.glob("_laebz.*.so", root_dir=cache)) - {os.path.basename(path)}:
                    with contextlib.suppress(OSError):  # another build may have removed it first
                        os.remove(os.path.join(cache, stale))
            except subprocess.SubprocessError:  # a compiler error or timeout
                return None
            finally:
                if os.path.exists(partial):
                    os.remove(partial)
        return ctypes.CDLL(path).relqosc_dlaebz
    except (OSError, AttributeError):
        return None


def _sha256(data: bytes) -> str:
    """The sha256 hex digest of data, by CPython's own sha256 where it has one: importing hashlib loads OpenSSL,
    which raised the peak RSS of a `relqosc spectrum` process by about 3.5 MB."""
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.11 and earlier
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


class _Array:
    """An array handed to LAPACK by address, checked once: ctypes passes _as_parameter_ for a c_void_p argument."""

    __slots__ = ("array", "_as_parameter_")

    def __init__(self, array: np.ndarray, dtype=np.float64):
        if array.dtype != dtype or not (array.flags.c_contiguous or array.flags.f_contiguous):
            raise ValueError(f"LAPACK needs a contiguous {np.dtype(dtype)} array, got {array.dtype}")
        self.array, self._as_parameter_ = array, array.ctypes.data


# dstebz's FUDGE and RELFAC * ULP, with ULP = DLAMCH('P') and SAFEMN = DLAMCH('S').
_FUDGE, _ULP, _SAFEMIN = 2.1, float(np.finfo(float).eps), float(np.finfo(float).tiny)
_RTOL = 2.0 * _ULP


def _gershgorin(d: np.ndarray, e: np.ndarray) -> Tuple[float, float]:
    """The ends (GL, GU) of the Gershgorin interval of the tridiagonal matrix (d, e >= 0), summed in dstebz's order."""
    row = np.empty_like(d)
    row[0] = d[0]
    np.add(d[1:], e, out=row[1:])
    row[:-1] += e
    gu = max(float(d[0]), float(row.max()))
    row[0] = d[0]
    np.subtract(d[1:], e, out=row[1:])
    row[:-1] -= e
    return min(float(d[0]), float(row.min())), gu


def _itmax(width: float, pivmin: float) -> int:
    """dstebz's iteration bound for bisecting an interval of the given width."""
    return int((math.log(width + pivmin) - math.log(pivmin)) / math.log(2.0)) + 2


class _Intervals:
    """The interval arrays of one dlaebz call, allocated on the calling thread.

    Each interval is a row (lower end, upper end, Sturm count at the lower,
    count at the upper) of AB and NAB, with room for mmax rows (at least one
    per eigenvalue, so bisection never runs out of room); an index search
    (IJOB 3) starts from the points C and looks for the counts NVAL. args
    are dlaebz's NVAL, AB, C, MOUT and NAB.
    """

    def __init__(self, rows: list, points=(), targets=(), mmax: Optional[int] = None):
        # dlaebz writes each row past the first minp before it reads it.
        self.minp, self.mmax = len(rows), mmax or len(rows)
        self.ab = np.empty((self.mmax, 2), order="F")
        self.nab = np.empty((self.mmax, 2), np.intc, order="F")
        self.ab[:self.minp] = [row[:2] for row in rows]
        self.nab[:self.minp] = [row[2:] for row in rows]
        c = np.empty(self.mmax)
        c[:len(points)] = points
        self.nval = np.array(targets or [0], np.intc)
        self.mout, self.info = ctypes.c_int(), ctypes.c_int()
        self.args = (_Array(self.nval, np.intc), _Array(self.ab), _Array(c), self.mout, _Array(self.nab, np.intc))

    def rows(self, count: int) -> list:
        return [(lo, hi, nlo, nhi) for (lo, hi), (nlo, nhi) in zip(self.ab[:count].tolist(), self.nab[:count].tolist())]


def _room(rows: list) -> int:
    """Rows for every interval that bisecting the given ones can make: one per eigenvalue, one per empty interval."""
    return sum(max(nhi - nlo, 1) for _, _, nlo, nhi in rows)


@dataclass(eq=False)
class _Block:
    """One block of the matrix as dstebz splits it, bisected by dlaebz.

    d, e and e2 (the off-diagonal squares, 0 at a split) start at the
    block's first row; number counts blocks from 1; below marks a block
    that lies below WL. A bisected block has its D, E and E2 for dlaebz in
    args, its absolute tolerance atol,
    its starting interval start, its iteration budget itmax, of which used
    are spent, its open intervals, and those done, each with whether it
    converged; offset maps its counts to positions in W.
    """

    number: int
    d: np.ndarray
    e: np.ndarray
    e2: np.ndarray
    atol: float = 0.0
    itmax: int = 0
    used: int = 0
    offset: int = 0
    below: bool = False
    args: tuple = ()
    start: Optional[_Intervals] = None
    open: list = field(default_factory=list)
    done: list = field(default_factory=list)

    def settle(self, q: _Intervals, final: bool) -> list:
        """Take back the intervals of a bisection on q: dlaebz returns the converged first and its INFO open ones
        last, which stay open (returned) unless the bisection was the block's last, and then are done unconverged."""
        rows = q.rows(q.mout.value)
        settled = len(rows) - q.info.value
        self.done += [(row, True) for row in rows[:settled]] + [(row, False) for row in rows[settled:] if final]
        return [] if final else rows[settled:]


def _deal(blocks: List[_Block], lanes: int) -> list:
    """The open intervals of the blocks dealt to lanes, most eigenvalues first to the lane with the fewest so far:
    (block, rows) for each lane and block, in lane order."""
    loads, dealt = [0] * lanes, [{} for _ in range(lanes)]
    for block, row in sorted(((b, row) for b in blocks for row in b.open), key=lambda item: item[1][2] - item[1][3]):
        lane = loads.index(min(loads))
        loads[lane] += row[3] - row[2]
        dealt[lane].setdefault(block, []).append(row)
    return [item for lane in dealt for item in lane.items()]


def _discard(w: np.ndarray, iblock: np.ndarray, m: int, idiscl: int, idiscu: int, wlu: float, wul: float):
    """dstebz's discard of the IDISCL lowest and IDISCU highest of the m values, which the index search left
    inside (WL, WLU] and [WUL, WU]: (m, IDISCL, IDISCU) after it, with w and iblock compacted in place."""
    if idiscl > 0 or idiscu > 0:
        im = 0
        for je in range(m):
            if w[je] <= wlu and idiscl > 0:
                idiscl -= 1
            elif w[je] >= wul and idiscu > 0:
                idiscu -= 1
            else:
                w[im], iblock[im], im = w[je], iblock[je], im + 1
        m = im
    if idiscl > 0 or idiscu > 0:
        # Counts that are not monotone left values outside those intervals: drop the lowest and the highest.
        for count, lowest in ((idiscl, True), (idiscu, False)):
            for _ in range(count):
                iw = -1
                for je in range(m):
                    if iblock[je] != 0 and (iw < 0 or (w[je] < w[iw] if lowest else w[je] > w[iw])):
                        iw = je
                iblock[iw] = 0
        keep = np.flatnonzero(iblock[:m])
        w[:keep.size], iblock[:keep.size], m = w[keep], iblock[keep], keep.size
    return m, idiscl, idiscu


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# dstein's iteration limits MAXITS and EXTRA. Its start vectors come from DLARUV's generator, which steps the
# 48-bit seed s to s a mod 2^48 and, from ISEED = (1, 1, 1, 1) (12 bits apiece), gives the value 2 s / 2^48 - 1.
_MAXITS, _EXTRA = 5, 2
_SEED_A, _SEED_1, _SEED_MASK = 33952834046453, 0x001001001001, (1 << 48) - 1


def _stein(lapack: dict, d: np.ndarray, e: np.ndarray, w: np.ndarray, iblock: np.ndarray, isplit: np.ndarray,
           z: np.ndarray):
    """LAPACK dstein(N, D, E, M, W, IBLOCK, ISPLIT, Z) made of its own steps on its kernels, bit for bit: a
    generator of rounds of calls, as _lapack_seam yields them, that writes the M eigenvectors into z (N x M,
    zeros, in Fortran order) and returns INFO, the number that did not converge.

    dstein is inverse iteration with modified Gram-Schmidt (Jessup and Ipsen,
    SIAM J. Sci. Stat. Comput. 13 (1992) 550). Per block: ONENRM, the largest
    row sum |d_i| + |e_{i-1}| + |e_i|; ORTOL = 1e-3 ONENRM; DTPCRT =
    sqrt(0.1 / BLKSIZ). Each vector j of a block of more than one row is
    computed at the shift XJ = W_j, raised to XJM + 10 |EPS XJ| where it lies
    less than that above the previous vector's shift XJM, in two parts:
    - its prefix needs only W: the start vector, DLARNV(2) from the seed
      (1, 1, 1, 1) advanced by BLKSIZ values per vector before it, made here
      from DLARUV's generator; dlagtf's LU factorization of T - XJ; and the
      first iteration, IDAMAX, DSCAL by BLKSIZ ONENRM max(EPS, |U_nn|) over
      the largest |entry|, and dlagts (JOB -1, TOL 0);
    - its chain needs vector j - 1: modified Gram-Schmidt (DDOT, DAXPY)
      against the block's vectors from GPIND on, GPIND moving to j where
      |XJ - XJM| > ORTOL; the infinity norm by IDAMAX; more iterations while
      it stays below DTPCRT, then EXTRA more, with INFO counting a vector
      that passes MAXITS; and DSCAL by 1/DNRM2, signed so the largest entry
      is positive.
    A one-row block's vector is 1. The rounds are the first prefix, then
    [chain(j), prefix(j + 1)], then the last chain: each vector's
    factorization runs beside the previous vector's iterations, on two
    buffer sets (LU factors and pivots) allocated here. The iterate is z's
    own column, and each call is scalar glue around the kernels.
    """
    n, m = z.shape
    one, job = ctypes.c_int(1), ctypes.c_int(-1)
    # DLARUV's powers a^1 .. a^N mod 2^48, by doubling; uint64 products wrap mod 2^64, a multiple of 2^48.
    powers = np.empty(n, np.uint64)
    powers[0], size = _SEED_A, 1
    while size < n:
        step = min(size, n - size)
        np.multiply(powers[:step], powers[size - 1], out=powers[size:size + step])
        powers[size:size + step] &= np.uint64(_SEED_MASK)
        size += step
    seeds = np.empty(n, np.uint64)
    buffers = [[_Array(row) for row in block] + [_Array(pivots, np.intc)]
               for block, pivots in zip(np.empty((2, 4, n)), np.empty((2, n), np.intc))]
    info = 0

    def vector(j: int, b1: int, blksiz: int, xj: float, seed: int, onenrm: float, dtpcrt: float, reorth: range,
               factors: list):
        """The prefix and the chain of vector j, on the given buffer set."""
        a, b, c, d2, pivots = factors
        x = _Array(z[b1:b1 + blksiz, j])
        columns = [_Array(z[b1:b1 + blksiz, i]) for i in reorth]
        size, tol, iinfo = ctypes.c_int(blksiz), ctypes.c_double(0.0), ctypes.c_int()

        def solve():
            jmax = lapack["idamax"](size, x, one)
            scale = blksiz * onenrm * max(_ULP, abs(float(a.array[blksiz - 1]))) / abs(float(x.array[jmax - 1]))
            lapack["dscal"](size, ctypes.c_double(scale), x, one)
            lapack["dlagts"](job, size, a, b, c, d2, pivots, x, tol, iinfo)

        def prefix():
            np.multiply(powers[:blksiz], np.uint64(seed), out=seeds[:blksiz])
            seeds[:blksiz] &= np.uint64(_SEED_MASK)
            np.multiply(seeds[:blksiz], 2.0 ** -47, out=x.array)
            x.array -= 1.0
            a.array[:blksiz] = d[b1:b1 + blksiz]
            b.array[:blksiz - 1] = c.array[:blksiz - 1] = e[b1:b1 + blksiz - 1]
            lapack["dlagtf"](size, a, ctypes.c_double(xj), b, c, tol, d2, pivots, iinfo)
            solve()

        def chain():
            nonlocal info
            its, checks = 1, 0
            while True:
                for column in columns:
                    lapack["daxpy"](size, ctypes.c_double(-lapack["ddot"](size, x, one, column, one)), column, one,
                                    x, one)
                if abs(float(x.array[lapack["idamax"](size, x, one) - 1])) >= dtpcrt:
                    checks += 1
                    if checks > _EXTRA:
                        break
                its += 1
                if its > _MAXITS:
                    info += 1
                    break
                solve()
            scale = 1.0 / lapack["dnrm2"](size, x, one)
            if x.array[lapack["idamax"](size, x, one) - 1] < 0:
                scale = -scale
            lapack["dscal"](size, ctypes.c_double(scale), x, one)

        return prefix, chain

    steps, seed, xjm, block = [], _SEED_1, 0.0, 0
    for j in range(m):
        if iblock[j] != block:
            block = int(iblock[j])
            b1, bn = int(isplit[block - 2]) if block > 1 else 0, int(isplit[block - 1])
            blksiz, jblk, gpind = bn - b1, 0, j
            if blksiz > 1:
                rows, offdiag = np.abs(d[b1:bn]), np.abs(e[b1:bn - 1])
                onenrm = max(rows[0] + offdiag[0], rows[-1] + offdiag[-1])
                if blksiz > 2:
                    rows = rows[1:-1] + offdiag[:-1]
                    rows += offdiag[1:]
                    onenrm = max(onenrm, rows.max())
                onenrm = float(onenrm)
                ortol, dtpcrt = 1e-3 * onenrm, math.sqrt(0.1 / blksiz)
        jblk += 1
        xj = float(w[j])
        if blksiz == 1:
            z[b1, j] = 1.0
        else:
            if jblk > 1:
                pertol = 10.0 * abs(_ULP * xj)
                if xj - xjm < pertol:
                    xj = xjm + pertol
                if abs(xj - xjm) > ortol:
                    gpind = j
            steps.append(vector(j, b1, blksiz, xj, seed, onenrm, dtpcrt, range(gpind, j), buffers[len(steps) % 2]))
            seed = seed * int(powers[blksiz - 1]) & _SEED_MASK
        xjm = xj
    if steps:
        yield [steps[0][0]]
        for (_, chain), (prefix, _) in zip(steps, steps[1:]):
            yield [chain, prefix]
        yield [steps[-1][1]]
    return info


def _lapack_seam(op: TridiagonalOperator, k: Optional[int], vectors: bool = False, lanes: int = 1):
    """dstebz for the k smallest eigenvalues, ascending, made of its own steps on dlaebz, or with vectors dstein,
    made of its own steps by _stein, for their eigenpairs, as EigenResults; with k None, sterf for
    every eigenvalue, ascending.

    A generator, and with _stein the only code that knows the arguments of
    _lapack()'s routines. It allocates every array they write, on the
    calling thread, checks each once there (an _Array), and yields each
    round of its calls as a list, each call a closure, call(), to run on any
    thread: the routines run without the GIL, with only their scalar glue
    between them, which calls no package function. Resumed with None, or
    with the first exception among the round's calls thrown in, it reads the
    output back itself, checks it, and returns the answer.

    The bisection and stein do not scale their input, so both run on 2^-p T,
    with p the binary exponent of the largest |entry| of T: its entries lie
    below 1 in magnitude, so no square or product inside them overflows. A
    power of two is exact, and the values are scaled back by 2^p.

    The bisection is dstebz(RANGE "I", ORDER "B", IL 1, IU k, ABSTOL 0),
    which dstebz runs as RANGE "A" for k = N, in dstebz's own steps and
    arithmetic on its kernel dlaebz (_lapack's: the C port, which takes the
    counts of up to 8 intervals in one pass over the rows and writes the
    library routine's bits), so M, W, IBLOCK, ISPLIT and INFO are the
    bits dstebz writes: the split into blocks; for RANGE "I", the index
    search (IJOB 3) for the points with counts 0 and k, one call as in
    dstebz; each block's Gershgorin interval, the counts at its ends (IJOB
    1) and its bisection (IJOB 2); W and IBLOCK from the intervals; and the
    discard of values that the index search could not separate. A negative
    INFO from dlaebz raises ValueError. Each interval is refined only by its
    own midpoints and counts (Demmel, Dhillon and Ren, ETNA 3 (1995) 116),
    so splitting the work changes no bit. On one lane each block is then
    bisected by one call, with room for one interval per eigenvalue where
    dstebz has one per row. On L lanes each block makes one iteration, and
    more while an open interval holds more than ceil(m/L) of the m
    eigenvalues still open; then the open intervals are dealt to L calls by
    eigenvalue count, each with the iterations its block has left.

    Both requests make the same bisection, in block order as stein needs,
    raise SolverError before any stein call unless it gave k values that
    are finite in T's units, and then unless its INFO is 0, and sort them by
    one stable argsort, so values and eigenpairs are the same bits. The
    eigenvectors are dstein's bits on the bisection's M, W, IBLOCK and
    ISPLIT, and its INFO is checked like dstebz's. Each
    eigenpair's residual and its bound are taken on 2^-p T, against the
    returned value scaled by 2^-p, and the residual is reported in T's
    units; the vector is signed and h-normalized as EigenResult states. The
    results are those of scipy.linalg.eigh_tridiagonal(d, e, select="i",
    select_range=(0, k - 1), lapack_driver="stebz") on 2^-p T; on every
    operator that stebz does not split into blocks, whose off-diagonal
    squares are normal floats, whose scaled entries do not underflow and
    whose nonzero diagonal entries all exceed 1e-100 max|T|, its values are
    the same bits as that call on T itself. stebz floors each Sturm-count
    pivot at SAFEMIN max(1, max e_j^2), which does not scale with T, so next
    to a nonzero diagonal entry that small the two bisections can count
    differently, and then agree within eps ||T||_inf (within 0.5 eps
    ||T||_inf in every mismatch measured).

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
    n = op.size
    if k is not None and (k < 1 or k > n):
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    # max |entry|, or NaN when an entry is NaN
    s = float(np.max([op.diag.max(), -op.diag.min(), op.offdiag.max(), -op.offdiag.min()]))
    if not math.isfinite(s):
        raise ValueError("tridiagonal operator must not contain infs or NaNs")
    lapack = _lapack()
    info = ctypes.c_int()
    if k is None:
        # sterf overwrites d with the values, ascending, and e with scratch: float64 copies, of any real dtype.
        d, e = op.diag.astype(float), op.offdiag.astype(float)
        args = ctypes.c_int(n), _Array(d), _Array(e), info
        yield [lambda: lapack["dsterf"](*args)]
        _check_info(info.value, "sterf")
        finite = int(np.count_nonzero(np.isfinite(d)))
        if finite < n:
            raise SolverError(f"sterf returned {n} values, {finite} of them finite")
        return d
    p = math.frexp(s)[1]
    d, e = np.ldexp(op.diag, -p), np.ldexp(op.offdiag, -p)
    # dlaebz on block b's intervals q, serially (NBMIN 0, as dstebz sets it), so WORK and IWORK go unused.
    laebz = lambda ijob, nitmax, b, q: lambda: lapack["dlaebz"](  # noqa: E731
        ctypes.c_int(ijob), ctypes.c_int(nitmax), ctypes.c_int(b.d.size), ctypes.c_int(q.mmax), ctypes.c_int(q.minp),
        ctypes.c_int(0), ctypes.c_double(b.atol), ctypes.c_double(_RTOL), ctypes.c_double(pivmin),
        *b.args, *q.args, None, None, q.info)

    def checked(qs):
        for q in qs:  # a positive INFO counts open intervals
            _check_info(min(q.info.value, 0), "laebz")
        return qs

    # The split: where e_j^2 does not exceed |d_j d_{j+1}| ULP^2 + SAFEMIN, a block ends and e_j^2 counts as 0.
    e2 = np.zeros(n)
    np.multiply(e, e, out=e2[:-1])
    row = d[1:] * d[:-1]
    np.abs(row, out=row)
    row *= _ULP ** 2
    row += _SAFEMIN
    split = np.flatnonzero(row > e2[:-1])
    e2[split] = 0.0
    pivmin = max(1.0, float(e2.max())) * _SAFEMIN
    isplit = np.append(split + 1, n).astype(np.intc)
    blocks = [_Block(j + 1, d[begin:end], e[begin:], e2[begin:])
              for j, (begin, end) in enumerate(zip((0, *isplit), isplit))]
    ranged, wl, wu, stebz_info = k < n, 0.0, 0.0, 0
    if ranged:
        gl, gu = _gershgorin(d, np.sqrt(e2[:-1], out=row))
        tnorm = max(abs(gl), abs(gu))
        whole = _Block(0, d, e, e2, _ULP * tnorm, args=(_Array(d), _Array(e), _Array(e2)))
        gl = gl - _FUDGE * tnorm * _ULP * n - _FUDGE * 2.0 * pivmin
        gu = gu + _FUDGE * tnorm * _ULP * n + _FUDGE * pivmin
        # The searches from GL for the count 0 and from GU for the count k, in one call, which moves the search
        # that ends first to the front: as dstebz does, NVAL tells which row is which.
        search = _Intervals([(gl, gu, -1, n + 1)] * 2, [gl, gu], [0, k])
        yield [laebz(3, _itmax(tnorm, pivmin), whole, search)]
        rows = checked([search])[0].rows(2)
        (wl, wlu, nwl, _), (wul, wu, _, nwu) = rows if search.nval[1] == k else rows[::-1]
        if nwl < 0 or nwl >= n or nwu < 1 or nwu > n:
            blocks = []  # dstebz returns INFO 4 and no value
    for b in blocks:
        size = b.d.size
        if size == 1:
            continue
        gl, gu = _gershgorin(b.d, np.abs(b.e[:size - 1]))
        bnorm = max(abs(gl), abs(gu))
        gl = gl - _FUDGE * bnorm * _ULP * size - _FUDGE * pivmin
        gu = gu + _FUDGE * bnorm * _ULP * size + _FUDGE * pivmin
        b.atol = _ULP * max(abs(gl), abs(gu))
        if ranged:
            b.below = gu < wl
            gl, gu = max(gl, wl), min(gu, wu)
            if b.below or gl >= gu:
                continue
        b.itmax, b.start = _itmax(gu - gl, pivmin), _Intervals([(gl, gu, 0, 0)])
        b.args = (_Array(b.d), _Array(b.e), _Array(b.e2))
    bisected = [b for b in blocks if b.start is not None]
    if bisected:
        yield [laebz(1, 0, b, b.start) for b in bisected]
    # Through the blocks in order: W positions, and NWL and NWU recounted as the eigenvalues up to WL and WU.
    w, iblock = np.empty(n), np.empty(n, np.intc)
    m = nwl = nwu = 0
    for b in blocks:
        if b.start is not None:
            [(_, _, nlo, nhi)] = b.open = checked([b.start])[0].rows(1)
            nwl, nwu, b.offset, m = nwl + nlo, nwu + nhi, m - nlo, m + nhi - nlo
        elif b.d.size > 1:
            nwl, nwu = nwl + b.below * b.d.size, nwu + b.below * b.d.size
        else:
            x = float(b.d[0]) - pivmin
            nwl, nwu = nwl + (not ranged or wl >= x), nwu + (not ranged or wu >= x)
            if not ranged or wl < x <= wu:
                w[m], iblock[m], m = b.d[0], b.number, m + 1
    while lanes > 1:
        most = -(-sum(row[3] - row[2] for b in bisected for row in b.open) // lanes)
        busy = [b for b in bisected if any(row[3] - row[2] > most for row in b.open)]
        if not busy:
            break
        steps = [_Intervals(b.open, mmax=_room(b.open)) for b in busy]
        yield [laebz(2, 1, b, q) for b, q in zip(busy, steps)]
        for b, q in zip(busy, checked(steps)):
            b.used += 1
            b.open = b.settle(q, b.used == b.itmax)
    dealt = [(b, _Intervals(rows, mmax=_room(rows))) for b, rows in _deal(bisected, lanes)]
    if dealt:
        yield [laebz(2, b.itmax - b.used, b, q) for b, q in dealt]
        for b, q in dealt:
            checked([q])
            b.settle(q, True)
    for b in bisected:
        for (lo, hi, nlo, nhi), converged in b.done:
            w[b.offset + nlo:b.offset + nhi] = 0.5 * (lo + hi)
            iblock[b.offset + nlo:b.offset + nhi] = b.number if converged else -b.number
            stebz_info |= not converged
    if ranged and blocks:
        m, idiscl, idiscu = _discard(w, iblock, m, -nwl, nwu - k, wlu, wul)
        stebz_info |= 2 * (idiscl < 0 or idiscu < 0)
    stebz_info = stebz_info | 2 * (m != k) if blocks else 4
    w = w[:max(m, 0)]
    # An eigenvalue past the float range of T shows as inf, caught below.
    with np.errstate(over="ignore"):
        lam = np.ldexp(w, p)
    if lam.size != k or not np.all(np.isfinite(lam)):
        raise SolverError(
            f"bisection returned {lam.size} values, {int(np.count_nonzero(np.isfinite(lam)))} "
            f"of them finite, for k={k}"
        )
    _check_info(stebz_info, "stebz")
    order = np.argsort(w, kind="stable")
    if not vectors:
        return lam[order]
    z = np.zeros((n, k), order="F")
    _check_info((yield from _stein(lapack, d, e, w, iblock, isplit, z)), "stein")
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


def _run_lanes(seams: dict) -> dict:
    """Run every seam to its answer, its LAPACK calls side by side; {key: what the seam returned or raised}.

    Each round of calls a seam yields is queued at once. There is one lane
    per CPU the process may use: the calling thread and helper threads, each
    taking the next queued call; a helper starts only when a second call
    waits, so seams whose rounds are single calls start no thread. As soon
    as a seam's whole round has returned, the calling thread resumes it with
    None, or with the first exception among the round's calls, while the
    helpers go on with the calls of other seams: the LAPACK and BLAS
    routines inside the calls release the GIL. Returns once every seam has
    returned and every helper has ended.
    """
    import queue
    import threading

    # Most calls take microseconds (stein's kernels, a search, a one-lane bisection of a small operator), so a
    # hand-off to another thread costs more than the call. The calling thread is a lane because it waits for the
    # round anyway, and it runs a call with no wake-up; a helper starts only for a second waiting call, which would
    # otherwise wait. A concurrent.futures.ThreadPoolExecutor running every call was much slower (2 vCPUs, one BLAS
    # thread, 5 runs each): numeric_levels on the four default models at (12, 16000) took 0.44-2.8 s against
    # 0.16-0.18 s, run_suite("all") 189-292 ms against 69-78 ms.
    answers, rounds, helpers, cpus = {}, {}, [], _usable_cpus()
    queued, returned = queue.SimpleQueue(), queue.SimpleQueue()

    def advance(key, exc):
        try:
            calls = seams[key].send(None) if exc is None else seams[key].throw(exc)
        except StopIteration as stop:
            answers[key] = stop.value
        except Exception as failure:  # the request's answer
            answers[key] = failure
        else:
            rounds[key] = [len(calls)] + [None] * len(calls)  # calls not yet returned, then each call's exception
            for j, call in enumerate(calls, 1):
                queued.put((key, j, call))
            while len(helpers) < min(cpus - 1, queued.qsize() - 1):
                helpers.append(threading.Thread(target=lane))
                helpers[-1].start()

    def run(task):
        key, j, call = task
        try:
            call()
        except Exception as exc:  # thrown back into the call's seam on the calling thread
            returned.put((key, j, exc))
        else:
            returned.put((key, j, None))

    def lane():
        for task in iter(queued.get, None):
            run(task)

    try:
        for key in seams:
            advance(key, None)
        while rounds:
            try:
                key, j, exc = returned.get_nowait()
            except queue.Empty:
                try:
                    task = queued.get_nowait()
                except queue.Empty:
                    key, j, exc = returned.get()
                else:
                    run(task)
                    continue
            rounds[key][j] = exc
            rounds[key][0] -= 1
            if not rounds[key][0]:
                advance(key, next(filter(None, rounds.pop(key)[1:]), None))
    finally:
        for helper in helpers:
            queued.put(None)
        for helper in helpers:
            helper.join()
    return answers


def solve_operators(jobs: dict) -> dict:
    """{key: (operator, k[, vectors])} to {key: its answer, or the exception it raised on its own}.

    (operator, k) is answered with the k smallest eigenvalues, ascending,
    (operator, k, True) with the k lowest eigenpairs, as EigenResults, and
    (operator, None) with all the eigenvalues, ascending, from sterf. The
    usable CPUs are shared out among the operators as the lanes of each
    one's bisection, one apiece when there are at least as many operators,
    and _run_lanes runs the seams' rounds of calls side by side.
    """
    lanes = max(1, _usable_cpus() // max(1, len(jobs)))
    return _run_lanes({key: _lapack_seam(*job, lanes=lanes) for key, job in jobs.items()})

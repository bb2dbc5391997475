"""Supersymmetric first-order structure behind the squared spectra.

The first-order pair operator A ~ d/dx + W_eff and its adjoint factorize the
effective problem: A^T A and A A^T share their nonzero spectra, and the full
Dirac Hamiltonian takes the off-diagonal block form

    H = [[ mc^2,  c D^T ],
         [ c D,  -mc^2 ]]

in the real gauge, so every eigenvalue pairs as +/- sqrt((mc^2)^2 + c^2 lambda)
with lambda an eigenvalue of D^T D. D is discretized with forward differences
(the adjoint is then the exact matrix transpose, a backward difference), which
keeps the factorization exact at the matrix level and avoids the fermion
doubling a centered first derivative would introduce.

Rescaling A by 1/sqrt(delta) gives ladder operators. The default delta is
the problem's own (RadialProblem.delta): the lambda gap, 4 m omega or 4 a,
except 4 m omega on 1d-ho, twice its gap. For the 2D families it makes
[A, A+] = 1 and the block Hamiltonian is the anti-Jaynes-Cummings coupling
g (sigma- A + sigma+ A+) + sigma_z mc^2 with g = c sqrt(delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from .models import ModelSpec, effective_problem, pair_superpotential, superpotential
from .solver import Grid, TridiagonalOperator, eigenvalues_lowest, solve_many

__all__ = [
    "KERNEL_LADDER_TOL",
    "SupersymmetricPair",
    "BlockHamiltonian",
    "discretize_supercharge",
    "build_block_hamiltonian",
    "block_spectrum",
    "block_branches",
    "susy_isospectrality_check",
    "isospectrality_report",
    "commutator_rayleigh",
]

# An eigenvalue of D^T D counts as a kernel mode when lambda / delta falls
# below this; the first genuine rung sits at O(1) on that scale.
KERNEL_LADDER_TOL = 1e-4


@dataclass(frozen=True)
class SupersymmetricPair:
    """Discretized supercharge D (upper bidiagonal) and its scale bookkeeping.

    D has diagonal d_diag and superdiagonal d_super; the adjoint D^T is the
    exact transpose, applied through the same two arrays. delta is the ladder
    normalization (A = D / sqrt(delta)) and c the light speed that scales D
    in the block Hamiltonian. dtd_operator and ddt_operator are the partner
    products D^T D and D D^T.
    """

    d_diag: np.ndarray
    d_super: np.ndarray
    h: float
    delta: float
    c: float

    def __post_init__(self):
        if self.d_diag.ndim != 1 or self.d_super.ndim != 1 or self.d_super.size != self.d_diag.size - 1:
            raise ValueError("supercharge needs diag (N) and superdiag (N-1) vectors")
        if not 0 < self.delta < math.inf:
            raise ValueError(f"ladder normalization delta must be positive and finite, got {self.delta}")

    @property
    def size(self) -> int:
        return self.d_diag.size

    def dtd_operator(self) -> TridiagonalOperator:
        """Symmetric tridiagonal D^T D."""
        with np.errstate(over="ignore"):  # an overflow is named by the solver's finiteness check
            diag = self.d_diag ** 2
            diag[1:] += self.d_super ** 2
            offdiag = self.d_diag[:-1] * self.d_super
        return TridiagonalOperator(diag=diag, offdiag=offdiag, h=self.h)

    def ddt_operator(self) -> TridiagonalOperator:
        """Symmetric tridiagonal D D^T."""
        with np.errstate(over="ignore"):  # an overflow is named by the solver's finiteness check
            diag = self.d_diag ** 2
            diag[:-1] += self.d_super ** 2
            offdiag = self.d_super * self.d_diag[1:]
        return TridiagonalOperator(diag=diag, offdiag=offdiag, h=self.h)


@dataclass(frozen=True)
class BlockHamiltonian:
    """Real symmetric block Hamiltonian [[mc^2, c D^T], [c D, -mc^2]].

    Held as the supercharge and the rest energy. Interleaving the two spinor
    components node by node makes the matrix symmetric tridiagonal
    (bandwidth 1): operator() holds it so, with a diagonal that alternates
    +/- mc^2 and an off-diagonal that alternates the coupling entries c d_j
    and c s_j, and to_dense writes that operator out in full.
    """

    pair: SupersymmetricPair
    mc2: float

    @property
    def size(self) -> int:
        return 2 * self.pair.size

    def operator(self) -> TridiagonalOperator:
        """The interleaved 2N symmetric tridiagonal form of the matrix."""
        diag = np.empty(self.size)
        diag[0::2] = self.mc2
        diag[1::2] = -self.mc2
        offdiag = np.empty(self.size - 1)
        offdiag[0::2] = self.pair.c * self.pair.d_diag
        offdiag[1::2] = self.pair.c * self.pair.d_super
        return TridiagonalOperator(diag=diag, offdiag=offdiag)

    def to_dense(self) -> np.ndarray:
        op = self.operator()
        return np.diag(op.diag) + np.diag(op.offdiag, 1) + np.diag(op.offdiag, -1)


def discretize_supercharge(spec: ModelSpec, grid: Grid, delta: Optional[float] = None) -> SupersymmetricPair:
    """Forward-difference supercharge (D v)_j = (v_{j+1} - v_j)/h + W_eff(x_j) v_j.

    The Dirichlet value v_{N+1} = 0 closes the last row, so D is square upper
    bidiagonal with diagonal W_eff - 1/h and superdiagonal 1/h. For 2D
    families W_eff is the flat-measure radial profile w(r) - (ml + 1/2)/r and
    D maps the angular sector ml into ml + 1. delta defaults to the
    problem's own, effective_problem(spec).delta.
    """
    if delta is None:
        delta = effective_problem(spec).delta
    h = grid.h
    w = np.asarray(pair_superpotential(spec, grid.nodes), dtype=float)
    return SupersymmetricPair(
        d_diag=w - 1.0 / h,
        d_super=np.full(grid.n_points - 1, 1.0 / h),
        h=h,
        delta=float(delta),
        c=spec.params.c,
    )


def build_block_hamiltonian(pair: SupersymmetricPair, mc2: float) -> BlockHamiltonian:
    """The real symmetric block Hamiltonian of a supercharge at rest energy mc2 > 0."""
    if not (mc2 > 0):
        raise ValueError(f"rest energy mc^2 must be positive, got {mc2}")
    return BlockHamiltonian(pair=pair, mc2=mc2)


def block_spectrum(hamiltonian: BlockHamiltonian, k: int) -> np.ndarray:
    """Lowest 2k block eigenvalues via the factorized route: block_branches of D^T D's k lowest eigenvalues."""
    return block_branches(hamiltonian, eigenvalues_lowest(hamiltonian.pair.dtd_operator(), k))


def block_branches(hamiltonian: BlockHamiltonian, lam: np.ndarray) -> np.ndarray:
    """Both branches +/- sqrt((mc^2)^2 + c^2 lambda) of D^T D eigenvalues lambda, sorted ascending.

    Symmetric under negation by construction; kernel modes of D land exactly at +/- mc^2.
    """
    e = np.sqrt(hamiltonian.mc2 ** 2 + hamiltonian.pair.c ** 2 * np.maximum(lam, 0.0))
    return np.sort(np.concatenate([-e, e]))


def susy_isospectrality_check(pair: SupersymmetricPair, k: int) -> Dict[str, object]:
    """isospectrality_report on the k lowest eigenvalues of D^T D and D D^T, solved in one batch."""
    return isospectrality_report(pair, *solve_many([(pair.dtd_operator(), k), (pair.ddt_operator(), k)]))


def isospectrality_report(pair: SupersymmetricPair, dtd: np.ndarray, ddt: np.ndarray) -> Dict[str, object]:
    """Kernel content and partner mismatch of the ascending lowest eigenvalues of D^T D (dtd) and D D^T (ddt).

    Returns the number of kernel modes among each partner's values (ladder
    value lambda/delta below KERNEL_LADDER_TOL) and the worst relative
    mismatch between the paired nonzero eigenvalues.
    """
    cut = KERNEL_LADDER_TOL * pair.delta
    nz_dtd = dtd[dtd >= cut]
    nz_ddt = ddt[ddt >= cut]
    n_pair = min(nz_dtd.size, nz_ddt.size)
    if n_pair:
        a, b = nz_dtd[:n_pair], nz_ddt[:n_pair]
        max_rel = float(np.max(np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))))
    else:
        max_rel = 0.0
    return {
        "kernel_dim_dtd": dtd.size - nz_dtd.size,
        "kernel_dim_ddt": ddt.size - nz_ddt.size,
        "max_rel_mismatch": max_rel,
    }


def commutator_rayleigh(spec: ModelSpec, grid: Grid) -> List[float]:
    """Rayleigh quotients of the discrete ladder commutator on test Gaussians.

    The commutator statement [A, A+] = const pairs adjacent angular sectors:
    on sector ml it is (D_{ml-1} D_{ml-1}^T - D_{ml}^T D_{ml}) / delta, whose
    continuum value is 4a/delta (the sector-shifted centrifugal terms cancel
    through 2w/r + 2w' = 4a, with a = m omega for the harmonic family). With
    delta the problem's own, its lambda gap 4a, the quotients come out
    at 1. The test functions are three Gaussians of width span/12 centred at
    0.35, 0.5 and 0.65 of the grid's span, so they vanish at both boundaries.
    """
    if not spec.family.is_two_dimensional:
        raise ValueError("the ladder commutator check applies to the 2D families")
    r = grid.nodes
    hi = discretize_supercharge(spec, grid)  # out of sector ml
    # Out of sector ml - 1, from the profile itself: ModelSpec rejects that
    # sector when it is sub-critical, though its supercharge is well defined.
    lo = replace(hi, d_diag=superpotential(spec, r) - (spec.ml - 0.5) / r - 1.0 / grid.h)
    ddt, dtd = lo.ddt_operator(), hi.dtd_operator()
    diag, off = ddt.diag - dtd.diag, ddt.offdiag - dtd.offdiag
    span = grid.x_max - grid.x_min
    width = span / 12.0
    out = []
    for f in (0.35, 0.5, 0.65):
        v = np.exp(-0.5 * ((r - (grid.x_min + f * span)) / width) ** 2)
        form = float(v @ (diag * v)) + 2.0 * float(v[:-1] @ (off * v[1:]))
        out.append(form / (hi.delta * float(v @ v)))
    return out

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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .models import ModelSpec, effective_problem, pair_superpotential, superpotential
from .solver import Grid, TridiagonalOperator, eigenvalues_lowest

__all__ = [
    "KERNEL_LADDER_TOL",
    "SupersymmetricPair",
    "BlockHamiltonian",
    "discretize_supercharge",
    "build_block_hamiltonian",
    "block_spectrum",
    "susy_isospectrality_check",
    "kernel_dimension",
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
    normalization (A = D / sqrt(delta)), g = c sqrt(delta) the block coupling.
    """

    d_diag: np.ndarray
    d_super: np.ndarray
    h: float
    delta: float
    g: float
    c: float

    def __post_init__(self):
        if self.d_diag.ndim != 1 or self.d_super.ndim != 1 or self.d_super.size != self.d_diag.size - 1:
            raise ValueError("supercharge needs diag (N) and superdiag (N-1) vectors")
        if not (self.delta > 0):
            raise ValueError(f"ladder normalization delta must be positive, got {self.delta}")

    @property
    def size(self) -> int:
        return self.d_diag.size

    def dtd_operator(self) -> TridiagonalOperator:
        """Symmetric tridiagonal D^T D."""
        diag = self.d_diag ** 2
        diag[1:] += self.d_super ** 2
        offdiag = self.d_diag[:-1] * self.d_super
        return TridiagonalOperator(diag=diag, offdiag=offdiag, h=self.h)

    def ddt_operator(self) -> TridiagonalOperator:
        """Symmetric tridiagonal D D^T."""
        diag = self.d_diag ** 2
        diag[:-1] += self.d_super ** 2
        offdiag = self.d_super * self.d_diag[1:]
        return TridiagonalOperator(diag=diag, offdiag=offdiag, h=self.h)


@dataclass(frozen=True)
class BlockHamiltonian:
    """Real symmetric block Hamiltonian [[mc^2, c D^T], [c D, -mc^2]].

    Interleaving the two spinor components node by node makes the matrix
    symmetric tridiagonal (bandwidth 1): the diagonal alternates +/- mc^2 and
    the off-diagonal alternates the coupling entries c d_j and c s_j.
    """

    pair: SupersymmetricPair
    mc2: float
    diag: np.ndarray
    offdiag: np.ndarray

    @property
    def size(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        return np.diag(self.diag) + np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)


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
    if not (delta > 0):
        raise ValueError(f"ladder normalization delta must be positive, got {delta}")
    h = grid.h
    w = np.asarray(pair_superpotential(spec, grid.nodes), dtype=float)
    return SupersymmetricPair(
        d_diag=w - 1.0 / h,
        d_super=np.full(grid.n_points - 1, 1.0 / h),
        h=h,
        delta=float(delta),
        g=spec.params.c * math.sqrt(delta),
        c=spec.params.c,
    )


def build_block_hamiltonian(pair: SupersymmetricPair, mc2: float) -> BlockHamiltonian:
    """Assemble the interleaved real symmetric block Hamiltonian."""
    if not (mc2 > 0):
        raise ValueError(f"rest energy mc^2 must be positive, got {mc2}")
    n = pair.size
    diag = np.empty(2 * n)
    diag[0::2] = mc2
    diag[1::2] = -mc2
    offdiag = np.empty(2 * n - 1)
    offdiag[0::2] = pair.c * pair.d_diag
    offdiag[1::2] = pair.c * pair.d_super
    return BlockHamiltonian(pair=pair, mc2=mc2, diag=diag, offdiag=offdiag)


def block_spectrum(hamiltonian: BlockHamiltonian, k: int) -> np.ndarray:
    """Lowest 2k block eigenvalues via the factorized route.

    Solves D^T D (symmetric tridiagonal) for its k lowest eigenvalues lambda
    and returns both branches +/- sqrt((mc^2)^2 + c^2 lambda), sorted
    ascending. The list is symmetric under negation by construction; kernel
    modes of D land exactly at +/- mc^2.
    """
    pair = hamiltonian.pair
    lam = eigenvalues_lowest(pair.dtd_operator(), k)
    e = np.sqrt(hamiltonian.mc2 ** 2 + pair.c ** 2 * np.maximum(lam, 0.0))
    return np.sort(np.concatenate([-e, e]))


def susy_isospectrality_check(pair: SupersymmetricPair, k: int) -> Dict[str, object]:
    """Compare the low spectra of D^T D and D D^T and report kernel content.

    Returns the k lowest eigenvalues of both partner operators, the number of
    kernel modes in each (ladder value lambda/delta below KERNEL_LADDER_TOL),
    and the worst relative mismatch between the paired nonzero eigenvalues.
    """
    dtd = eigenvalues_lowest(pair.dtd_operator(), k)
    ddt = eigenvalues_lowest(pair.ddt_operator(), k)
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
        "dtd_eigenvalues": dtd,
        "ddt_eigenvalues": ddt,
        "kernel_dim_dtd": kernel_dimension(dtd, pair.delta),
        "kernel_dim_ddt": kernel_dimension(ddt, pair.delta),
        "max_rel_mismatch": max_rel,
    }


def kernel_dimension(eigenvalues: np.ndarray, delta: float) -> int:
    """Kernel modes among partner-operator eigenvalues: ladder value lambda/delta below KERNEL_LADDER_TOL."""
    return int(np.count_nonzero(eigenvalues < KERNEL_LADDER_TOL * delta))


def _bidiagonal_partner_forms(w_lo: np.ndarray, w_hi: np.ndarray, h: float):
    """Tridiagonal entries of D_lo D_lo^T and D_hi^T D_hi for given profiles."""
    d_lo = w_lo - 1.0 / h
    d_hi = w_hi - 1.0 / h
    s = 1.0 / h
    ddt_diag = d_lo ** 2
    ddt_diag[:-1] += s ** 2
    ddt_off = s * d_lo[1:]
    dtd_diag = d_hi ** 2
    dtd_diag[1:] += s ** 2
    dtd_off = d_hi[:-1] * s
    return ddt_diag - dtd_diag, ddt_off - dtd_off


def commutator_rayleigh(
    spec: ModelSpec, grid: Grid, delta: Optional[float] = None,
    centers: Optional[Sequence[float]] = None, width: Optional[float] = None,
) -> List[float]:
    """Rayleigh quotients of the discrete ladder commutator on test Gaussians.

    The commutator statement [A, A+] = const pairs adjacent angular sectors:
    on sector ml it is (D_{ml-1} D_{ml-1}^T - D_{ml}^T D_{ml}) / delta, whose
    continuum value is 4a/delta (the sector-shifted centrifugal terms cancel
    through 2w/r + 2w' = 4a, with a = m omega for the harmonic family). With
    the default delta, the problem's lambda gap 4a, the quotients come out
    at 1. Test functions are interior Gaussians vanishing at both boundaries.
    """
    if not spec.family.is_two_dimensional:
        raise ValueError("the ladder commutator check applies to the 2D families")
    if delta is None:
        delta = effective_problem(spec).delta
    r = grid.nodes
    w = np.asarray(superpotential(spec, r), dtype=float)
    w_hi = w - (spec.ml + 0.5) / r    # supercharge out of sector ml
    w_lo = w - (spec.ml - 0.5) / r    # supercharge out of sector ml - 1
    diag, off = _bidiagonal_partner_forms(w_lo, w_hi, grid.h)
    span = grid.x_max - grid.x_min
    if centers is None:
        centers = [grid.x_min + f * span for f in (0.35, 0.5, 0.65)]
    if width is None:
        width = span / 12.0
    out = []
    for c0 in centers:
        v = np.exp(-0.5 * ((r - c0) / width) ** 2)
        form = float(v @ (diag * v)) + 2.0 * float(v[:-1] @ (off * v[1:]))
        out.append(form / (delta * float(v @ v)))
    return out

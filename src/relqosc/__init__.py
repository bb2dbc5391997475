"""Relativistic oscillator models in one and two dimensions.

Closed-form spectra and wavefunctions for the linear and isotonic wells,
an independent finite-difference eigensolver for the squared radial
problem, and the supersymmetric factorization that ties the two together.
"""

from .analytic import (
    analytic_e2,
    analytic_nonrel_eps,
    analytic_wavefunction,
    build_spectrum_table,
)
from .models import (
    Family,
    ModelSpec,
    PhysicalParams,
    effective_problem,
    pair_recover_psi2,
    pair_superpotential,
)
from .solver import (
    SolverError,
    choose_domain,
    discretize,
    eigen_lowest,
    numeric_levels,
    numeric_spectrum,
    residual_pair_check,
)
from .susyblock import (
    KERNEL_LADDER_TOL,
    block_spectrum,
    build_block_hamiltonian,
    commutator_rayleigh,
    discretize_supercharge,
    susy_isospectrality_check,
)
from .verify import convergence_order, run_suite

__version__ = "0.1.0"

__all__ = [
    "Family",
    "KERNEL_LADDER_TOL",
    "ModelSpec",
    "PhysicalParams",
    "SolverError",
    "analytic_e2",
    "analytic_nonrel_eps",
    "analytic_wavefunction",
    "block_spectrum",
    "build_block_hamiltonian",
    "build_spectrum_table",
    "choose_domain",
    "commutator_rayleigh",
    "convergence_order",
    "discretize",
    "discretize_supercharge",
    "effective_problem",
    "eigen_lowest",
    "numeric_levels",
    "numeric_spectrum",
    "pair_recover_psi2",
    "pair_superpotential",
    "residual_pair_check",
    "run_suite",
    "susy_isospectrality_check",
]

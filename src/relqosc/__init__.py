"""Relativistic oscillator models in one and two dimensions.

Closed-form spectra and wavefunctions for the linear and isotonic wells,
an independent finite-difference eigensolver for the squared radial
problem, and the supersymmetric factorization that ties the two together.
"""

from .analytic import (
    Level,
    SpectrumTable,
    analytic_e2,
    analytic_nonrel_eps,
    analytic_wavefunction,
    build_spectrum_table,
    isotonic_nu,
)
from .models import (
    AffineMap,
    Family,
    ModelSpec,
    PhysicalParams,
    RadialProblem,
    effective_problem,
    pair_recover_psi2,
    pair_superpotential,
    superpotential_1d,
    superpotential_2d,
)
from .solver import (
    EigenResult,
    Grid,
    SolverError,
    TridiagonalOperator,
    choose_domain,
    convergence_order,
    count_nodes,
    discretize,
    eigen_lowest,
    numeric_levels,
    numeric_spectrum,
    residual_pair_check,
)
from .specfun import hermite, kummer_terminating
from .susyblock import (
    KERNEL_LADDER_TOL,
    BlockHamiltonian,
    SupersymmetricPair,
    block_spectrum,
    build_block_hamiltonian,
    commutator_rayleigh,
    default_delta,
    discretize_supercharge,
    susy_isospectrality_check,
)
from .verify import CheckResult, available_suites, run_suite

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "BlockHamiltonian",
    "CheckResult",
    "EigenResult",
    "Family",
    "Grid",
    "KERNEL_LADDER_TOL",
    "Level",
    "ModelSpec",
    "PhysicalParams",
    "RadialProblem",
    "SolverError",
    "SpectrumTable",
    "SupersymmetricPair",
    "TridiagonalOperator",
    "analytic_e2",
    "analytic_nonrel_eps",
    "analytic_wavefunction",
    "available_suites",
    "block_spectrum",
    "build_block_hamiltonian",
    "build_spectrum_table",
    "choose_domain",
    "commutator_rayleigh",
    "convergence_order",
    "count_nodes",
    "default_delta",
    "discretize",
    "discretize_supercharge",
    "effective_problem",
    "eigen_lowest",
    "hermite",
    "isotonic_nu",
    "kummer_terminating",
    "numeric_levels",
    "numeric_spectrum",
    "pair_recover_psi2",
    "pair_superpotential",
    "residual_pair_check",
    "run_suite",
    "superpotential_1d",
    "superpotential_2d",
    "susy_isospectrality_check",
    "__version__",
]
